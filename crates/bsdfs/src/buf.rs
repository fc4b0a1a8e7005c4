//! The buffer cache: variable-size buffers over disk extents.
//!
//! This is the `bsdfs` analogue of the 4.2 BSD buffer cache the paper
//! describes in Section 6: "about 10% of main memory (200-400 kbytes) for
//! a cache of recently-used disk blocks ... maintained in a
//! least-recently-used fashion". Buffers are per-extent and so
//! variable-size ("100-200 blocks of different sizes", Section 6.4),
//! because a small file's tail occupies only a fragment run.
//!
//! Unlike the trace-driven simulator in the `cachesim` crate — which sees
//! only logical file data — this cache carries *all* traffic: file data,
//! inode fragments, indirect blocks, and directory blocks. Comparing the
//! two is the paper's Section 6.4 exercise.

use fstrace::hash::FastMap;
use obs::{Counter, Registry};

use crate::disk::Disk;

/// Write policy for dirty buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufWritePolicy {
    /// Every modification goes straight to disk.
    WriteThrough,
    /// Dirty buffers are written by periodic scans (the `sync` daemon);
    /// the file system calls [`BufCache::maybe_flush`] with the current
    /// time on every operation.
    FlushBack {
        /// Scan interval in milliseconds (4.2 BSD used 30 000).
        interval_ms: u64,
    },
    /// Dirty buffers are written only when evicted or explicitly synced.
    DelayedWrite,
}

/// Counters for buffer cache activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufCacheStats {
    /// Logical read accesses.
    pub logical_reads: u64,
    /// Logical write (modify) accesses.
    pub logical_writes: u64,
    /// Read accesses satisfied from the cache.
    pub read_hits: u64,
    /// Read accesses that fetched from disk.
    pub read_misses: u64,
    /// Write accesses that avoided a fetch because the whole extent was
    /// being overwritten.
    pub write_fetches_elided: u64,
    /// Disk reads issued (fetches).
    pub disk_reads: u64,
    /// Disk writes issued (write-through, flush, eviction, sync).
    pub disk_writes: u64,
    /// Dirty buffers dropped by invalidation before ever reaching disk
    /// (deleted or overwritten files — the delayed-write win).
    pub dirty_invalidated: u64,
}

impl BufCacheStats {
    /// Logical accesses (reads + writes).
    pub fn logical_accesses(&self) -> u64 {
        self.logical_reads + self.logical_writes
    }

    /// The paper's metric: disk I/O operations per logical access.
    ///
    /// Zero logical accesses yield `0.0`, per the workspace-wide
    /// [`obs::ratio`] convention.
    pub fn miss_ratio(&self) -> f64 {
        obs::ratio(self.disk_reads + self.disk_writes, self.logical_accesses())
    }
}

/// The live [`obs::Counter`] handles behind [`BufCacheStats`].
///
/// The cache increments these on its hot paths; [`BufCache::stats`]
/// reads them back into the plain [`BufCacheStats`] snapshot, and
/// [`BufCache::register_obs`] exports the same cells by name so a
/// registry snapshot sees every later increment.
#[derive(Debug, Clone, Default)]
struct BufCounters {
    logical_reads: Counter,
    logical_writes: Counter,
    read_hits: Counter,
    read_misses: Counter,
    write_fetches_elided: Counter,
    disk_reads: Counter,
    disk_writes: Counter,
    dirty_invalidated: Counter,
}

impl BufCounters {
    fn snapshot(&self) -> BufCacheStats {
        BufCacheStats {
            logical_reads: self.logical_reads.get(),
            logical_writes: self.logical_writes.get(),
            read_hits: self.read_hits.get(),
            read_misses: self.read_misses.get(),
            write_fetches_elided: self.write_fetches_elided.get(),
            disk_reads: self.disk_reads.get(),
            disk_writes: self.disk_writes.get(),
            dirty_invalidated: self.dirty_invalidated.get(),
        }
    }

    fn register(&self, registry: &Registry, prefix: &str) {
        for (field, counter) in [
            ("logical_reads", &self.logical_reads),
            ("logical_writes", &self.logical_writes),
            ("read_hits", &self.read_hits),
            ("read_misses", &self.read_misses),
            ("write_fetches_elided", &self.write_fetches_elided),
            ("disk_reads", &self.disk_reads),
            ("disk_writes", &self.disk_writes),
            ("dirty_invalidated", &self.dirty_invalidated),
        ] {
            registry.attach_counter(&format!("{prefix}.{field}"), counter);
        }
    }
}

const NIL: u32 = u32::MAX;

/// One slab slot: a resident buffer, or a free slot keeping its storage
/// for the next fetch.
struct Buf {
    frag: u64,
    nfrags: u32,
    data: Box<[u8]>,
    dirty: bool,
    /// Neighbours in the recency list: towards the most recently used
    /// end, and towards the least.
    newer: u32,
    older: u32,
}

/// An LRU cache of disk extents with configurable write policy.
///
/// Buffers live in a slab, found by fragment address through `index`
/// and threaded on an intrusive doubly linked recency list, so a hit,
/// a fetch and an eviction are all O(1). The list orders buffers by
/// last use exactly as a "least recent `last_used` stamp" search would,
/// so the victims are the same ones.
pub struct BufCache {
    capacity: u64,
    cur_bytes: u64,
    slab: Vec<Buf>,
    free_slots: Vec<u32>,
    index: FastMap<u64, u32>,
    mru: u32,
    lru: u32,
    policy: BufWritePolicy,
    last_flush_ms: u64,
    stats: BufCounters,
}

impl BufCache {
    /// Creates a cache of `capacity` bytes with the given policy.
    pub fn new(capacity: u64, policy: BufWritePolicy) -> Self {
        BufCache {
            capacity,
            cur_bytes: 0,
            slab: Vec::new(),
            free_slots: Vec::new(),
            index: FastMap::default(),
            mru: NIL,
            lru: NIL,
            policy,
            last_flush_ms: 0,
            stats: BufCounters::default(),
        }
    }

    /// The configured write policy.
    pub fn policy(&self) -> BufWritePolicy {
        self.policy
    }

    /// Bytes currently buffered.
    pub fn resident_bytes(&self) -> u64 {
        self.cur_bytes
    }

    /// Number of buffers resident.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` if no buffers are resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Activity counters (a point-in-time snapshot of the live cells).
    pub fn stats(&self) -> BufCacheStats {
        self.stats.snapshot()
    }

    /// Exports this cache's live counters into `registry` under
    /// `prefix` (e.g. `"bsdfs.a5.bufcache"`). Snapshots taken from the
    /// registry afterwards reflect all activity, past and future.
    pub fn register_obs(&self, registry: &Registry, prefix: &str) {
        self.stats.register(registry, prefix);
    }

    fn unlink(&mut self, i: u32) {
        let (newer, older) = {
            let b = &self.slab[i as usize];
            (b.newer, b.older)
        };
        match newer {
            NIL => self.mru = older,
            n => self.slab[n as usize].older = older,
        }
        match older {
            NIL => self.lru = newer,
            o => self.slab[o as usize].newer = newer,
        }
    }

    fn push_mru(&mut self, i: u32) {
        let old = self.mru;
        {
            let b = &mut self.slab[i as usize];
            b.newer = NIL;
            b.older = old;
        }
        match old {
            NIL => self.lru = i,
            o => self.slab[o as usize].newer = i,
        }
        self.mru = i;
    }

    fn touch(&mut self, i: u32) {
        if self.mru != i {
            self.unlink(i);
            self.push_mru(i);
        }
    }

    /// Takes slot `i` out of the cache, leaving its storage for reuse.
    fn release(&mut self, i: u32) -> &Buf {
        self.unlink(i);
        self.free_slots.push(i);
        let b = &self.slab[i as usize];
        self.index.remove(&b.frag);
        self.cur_bytes -= b.data.len() as u64;
        b
    }

    fn fetch(&mut self, disk: &mut Disk, frag: u64, nfrags: u32, read: bool) -> u32 {
        debug_assert!(!self.index.contains_key(&frag));
        let len = nfrags as usize * disk.frag_size() as usize;
        let i = match self.free_slots.pop() {
            Some(i) => {
                let b = &mut self.slab[i as usize];
                if b.data.len() != len {
                    b.data = vec![0u8; len].into_boxed_slice();
                } else if !read {
                    b.data.fill(0);
                }
                b.frag = frag;
                b.nfrags = nfrags;
                b.dirty = false;
                i
            }
            None => {
                self.slab.push(Buf {
                    frag,
                    nfrags,
                    data: vec![0u8; len].into_boxed_slice(),
                    dirty: false,
                    newer: NIL,
                    older: NIL,
                });
                (self.slab.len() - 1) as u32
            }
        };
        if read {
            disk.read_extent(frag, nfrags, &mut self.slab[i as usize].data);
            self.stats.disk_reads.inc();
        }
        self.cur_bytes += len as u64;
        self.index.insert(frag, i);
        self.push_mru(i);
        self.evict_excess(disk, i);
        i
    }

    fn evict_excess(&mut self, disk: &mut Disk, keep: u32) {
        while self.cur_bytes > self.capacity && self.index.len() > 1 {
            let victim = match self.lru {
                v if v == keep => self.slab[v as usize].newer,
                v => v,
            };
            let b = self.release(victim);
            if b.dirty {
                disk.write_extent(b.frag, b.nfrags, &b.data);
                self.stats.disk_writes.inc();
            }
        }
    }

    /// The resident slot for `frag`, marked most recently used.
    fn lookup(&mut self, frag: u64, nfrags: u32) -> Option<u32> {
        let i = *self.index.get(&frag)?;
        debug_assert_eq!(
            self.slab[i as usize].nfrags, nfrags,
            "extent size changed without invalidation"
        );
        self.touch(i);
        Some(i)
    }

    /// Reads an extent through the cache, passing its bytes to `f`.
    pub fn read<R>(
        &mut self,
        disk: &mut Disk,
        frag: u64,
        nfrags: u32,
        f: impl FnOnce(&[u8]) -> R,
    ) -> R {
        self.stats.logical_reads.inc();
        let i = match self.lookup(frag, nfrags) {
            Some(i) => {
                self.stats.read_hits.inc();
                i
            }
            None => {
                self.stats.read_misses.inc();
                self.fetch(disk, frag, nfrags, true)
            }
        };
        f(&self.slab[i as usize].data)
    }

    /// Modifies an extent through the cache.
    ///
    /// If `whole` is `true` the entire extent is being overwritten and a
    /// missing buffer is *not* fetched from disk first — the elision the
    /// paper's simulator also applies ("unless the block was about to be
    /// overwritten in its entirety", Section 6.1).
    pub fn modify(
        &mut self,
        disk: &mut Disk,
        frag: u64,
        nfrags: u32,
        whole: bool,
        f: impl FnOnce(&mut [u8]),
    ) {
        self.stats.logical_writes.inc();
        let i = match self.lookup(frag, nfrags) {
            Some(i) => i,
            None => {
                if whole {
                    self.stats.write_fetches_elided.inc();
                }
                self.fetch(disk, frag, nfrags, !whole)
            }
        };
        let b = &mut self.slab[i as usize];
        f(&mut b.data);
        match self.policy {
            BufWritePolicy::WriteThrough => {
                disk.write_extent(frag, b.nfrags, &b.data);
                self.stats.disk_writes.inc();
                b.dirty = false;
            }
            _ => b.dirty = true,
        }
    }

    /// Drops the buffer at `frag` without writing it back; dirty data is
    /// lost on purpose (the extent was freed).
    pub fn invalidate(&mut self, frag: u64) {
        if let Some(&i) = self.index.get(&frag) {
            if self.release(i).dirty {
                self.stats.dirty_invalidated.inc();
            }
        }
    }

    /// Writes all dirty buffers to disk (the `sync` system call), in
    /// fragment-address order.
    pub fn sync(&mut self, disk: &mut Disk, now_ms: u64) {
        let mut dirty: Vec<(u64, u32)> = self
            .index
            .iter()
            .filter(|&(_, &i)| self.slab[i as usize].dirty)
            .map(|(&frag, &i)| (frag, i))
            .collect();
        dirty.sort_unstable();
        for (frag, i) in dirty {
            let b = &mut self.slab[i as usize];
            disk.write_extent(frag, b.nfrags, &b.data);
            self.stats.disk_writes.inc();
            b.dirty = false;
        }
        self.last_flush_ms = now_ms;
    }

    /// Runs a periodic flush if the policy is [`BufWritePolicy::FlushBack`]
    /// and the interval has elapsed.
    pub fn maybe_flush(&mut self, disk: &mut Disk, now_ms: u64) {
        if let BufWritePolicy::FlushBack { interval_ms } = self.policy {
            if now_ms.saturating_sub(self.last_flush_ms) >= interval_ms {
                self.sync(disk, now_ms);
            }
        }
    }

    /// Number of dirty buffers resident (for tests and reports).
    pub fn dirty_count(&self) -> usize {
        self.index
            .values()
            .filter(|&&i| self.slab[i as usize].dirty)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The buffer cache before the slab LRU: a map of buffers stamped
    /// with a use sequence number, evicting the least recent stamp by a
    /// search of the whole map. It is the oracle [`BufCache`] must agree
    /// with, counter for counter and byte for byte.
    struct StampCache {
        capacity: u64,
        cur_bytes: u64,
        map: HashMap<u64, StampBuf>,
        seq: u64,
        policy: BufWritePolicy,
        last_flush_ms: u64,
        stats: BufCacheStats,
    }

    struct StampBuf {
        nfrags: u32,
        data: Box<[u8]>,
        dirty: bool,
        last_used: u64,
    }

    impl StampCache {
        fn new(capacity: u64, policy: BufWritePolicy) -> Self {
            StampCache {
                capacity,
                cur_bytes: 0,
                map: HashMap::new(),
                seq: 0,
                policy,
                last_flush_ms: 0,
                stats: BufCacheStats::default(),
            }
        }

        fn touch(&mut self, frag: u64) {
            self.seq += 1;
            let seq = self.seq;
            if let Some(b) = self.map.get_mut(&frag) {
                b.last_used = seq;
            }
        }

        fn fetch(&mut self, disk: &mut Disk, frag: u64, nfrags: u32, read: bool) {
            let len = nfrags as usize * disk.frag_size() as usize;
            let mut data = vec![0u8; len].into_boxed_slice();
            if read {
                disk.read_extent(frag, nfrags, &mut data);
                self.stats.disk_reads += 1;
            }
            self.seq += 1;
            self.cur_bytes += len as u64;
            let buf = StampBuf {
                nfrags,
                data,
                dirty: false,
                last_used: self.seq,
            };
            self.map.insert(frag, buf);
            while self.cur_bytes > self.capacity && self.map.len() > 1 {
                let victim = self
                    .map
                    .iter()
                    .filter(|(&k, _)| k != frag)
                    .min_by_key(|(_, b)| b.last_used)
                    .map(|(&k, _)| k);
                let Some(k) = victim else { break };
                let b = self.map.remove(&k).expect("victim exists");
                if b.dirty {
                    disk.write_extent(k, b.nfrags, &b.data);
                    self.stats.disk_writes += 1;
                }
                self.cur_bytes -= b.data.len() as u64;
            }
        }

        fn read(&mut self, disk: &mut Disk, frag: u64, nfrags: u32) -> Vec<u8> {
            self.stats.logical_reads += 1;
            if self.map.contains_key(&frag) {
                self.stats.read_hits += 1;
                self.touch(frag);
            } else {
                self.stats.read_misses += 1;
                self.fetch(disk, frag, nfrags, true);
            }
            self.map[&frag].data.to_vec()
        }

        fn modify(
            &mut self,
            disk: &mut Disk,
            frag: u64,
            nfrags: u32,
            whole: bool,
            at: usize,
            v: u8,
        ) {
            self.stats.logical_writes += 1;
            if self.map.contains_key(&frag) {
                self.touch(frag);
            } else {
                if whole {
                    self.stats.write_fetches_elided += 1;
                }
                self.fetch(disk, frag, nfrags, !whole);
            }
            let b = self.map.get_mut(&frag).expect("just fetched");
            let len = b.data.len();
            b.data[at % len] = v;
            match self.policy {
                BufWritePolicy::WriteThrough => {
                    disk.write_extent(frag, b.nfrags, &b.data);
                    self.stats.disk_writes += 1;
                    b.dirty = false;
                }
                _ => b.dirty = true,
            }
        }

        fn invalidate(&mut self, frag: u64) {
            if let Some(b) = self.map.remove(&frag) {
                if b.dirty {
                    self.stats.dirty_invalidated += 1;
                }
                self.cur_bytes -= b.data.len() as u64;
            }
        }

        fn sync(&mut self, disk: &mut Disk, now_ms: u64) {
            let mut keys: Vec<u64> = self
                .map
                .iter()
                .filter(|(_, b)| b.dirty)
                .map(|(&k, _)| k)
                .collect();
            keys.sort_unstable();
            for k in keys {
                let b = self.map.get_mut(&k).expect("key exists");
                disk.write_extent(k, b.nfrags, &b.data);
                self.stats.disk_writes += 1;
                b.dirty = false;
            }
            self.last_flush_ms = now_ms;
        }

        fn maybe_flush(&mut self, disk: &mut Disk, now_ms: u64) {
            if let BufWritePolicy::FlushBack { interval_ms } = self.policy {
                if now_ms.saturating_sub(self.last_flush_ms) >= interval_ms {
                    self.sync(disk, now_ms);
                }
            }
        }
    }

    /// One cache call of the oracle workload. Extent `e` lives at
    /// fragment `4 * e` and holds one to four fragments; its size only
    /// changes across an invalidation, as in the file system.
    #[derive(Debug, Clone)]
    enum Call {
        Read(u64),
        Modify {
            e: u64,
            whole: bool,
            at: usize,
            v: u8,
        },
        Invalidate {
            e: u64,
            resize: u32,
        },
        Sync,
        MaybeFlush(u64),
    }

    fn arb_call() -> impl Strategy<Value = Call> {
        prop_oneof![
            (0u64..24).prop_map(Call::Read),
            (0u64..24).prop_map(Call::Read),
            (0u64..24, any::<bool>(), 0usize..256, any::<u8>())
                .prop_map(|(e, whole, at, v)| Call::Modify { e, whole, at, v }),
            (0u64..24, any::<bool>(), 0usize..256, any::<u8>())
                .prop_map(|(e, whole, at, v)| Call::Modify { e, whole, at, v }),
            (0u64..24, 1u32..=4).prop_map(|(e, resize)| Call::Invalidate { e, resize }),
            Just(Call::Sync),
            (0u64..20_000).prop_map(Call::MaybeFlush),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The slab LRU makes the same hits, fetches, elisions,
        /// evictions and write-backs as the stamp-search cache, under
        /// all three write policies and mixed extent sizes: identical
        /// counters after every call and identical disk bytes at the end.
        #[test]
        fn matches_stamp_search_oracle(
            policy in 0u32..3,
            cap_frags in 4u64..40,
            sizes in prop::collection::vec(1u32..=4, 24..25),
            calls in prop::collection::vec(arb_call(), 1..400),
        ) {
            const FRAG: u32 = 64;
            let policy = match policy {
                0 => BufWritePolicy::WriteThrough,
                1 => BufWritePolicy::FlushBack { interval_ms: 30_000 },
                _ => BufWritePolicy::DelayedWrite,
            };
            let mut sizes = sizes;
            let (mut disk, mut ref_disk) = (Disk::new(FRAG, 96), Disk::new(FRAG, 96));
            let capacity = cap_frags * FRAG as u64;
            let mut cache = BufCache::new(capacity, policy);
            let mut oracle = StampCache::new(capacity, policy);
            let mut now = 0u64;
            for call in calls {
                match call {
                    Call::Read(e) => {
                        let n = sizes[e as usize];
                        let got = cache.read(&mut disk, 4 * e, n, |b| b.to_vec());
                        prop_assert_eq!(got, oracle.read(&mut ref_disk, 4 * e, n));
                    }
                    Call::Modify { e, whole, at, v } => {
                        let n = sizes[e as usize];
                        cache.modify(&mut disk, 4 * e, n, whole, |b| {
                            let len = b.len();
                            b[at % len] = v;
                        });
                        oracle.modify(&mut ref_disk, 4 * e, n, whole, at, v);
                    }
                    Call::Invalidate { e, resize } => {
                        cache.invalidate(4 * e);
                        oracle.invalidate(4 * e);
                        sizes[e as usize] = resize;
                    }
                    Call::Sync => {
                        cache.sync(&mut disk, now);
                        oracle.sync(&mut ref_disk, now);
                    }
                    Call::MaybeFlush(dt) => {
                        now += dt;
                        cache.maybe_flush(&mut disk, now);
                        oracle.maybe_flush(&mut ref_disk, now);
                    }
                }
                prop_assert_eq!(cache.stats(), oracle.stats);
                prop_assert_eq!(disk.stats(), ref_disk.stats());
                prop_assert_eq!(cache.len(), oracle.map.len());
                prop_assert_eq!(cache.resident_bytes(), oracle.cur_bytes);
            }
            prop_assert_eq!(
                cache.dirty_count(),
                oracle.map.values().filter(|b| b.dirty).count()
            );
            prop_assert_eq!(disk.peek(0, 96), ref_disk.peek(0, 96));
        }
    }

    fn setup(capacity: u64, policy: BufWritePolicy) -> (Disk, BufCache) {
        (Disk::new(1024, 64), BufCache::new(capacity, policy))
    }

    #[test]
    fn read_miss_then_hit() {
        let (mut d, mut c) = setup(16 * 1024, BufWritePolicy::DelayedWrite);
        d.write_extent(4, 1, &vec![9u8; 1024]);
        let v = c.read(&mut d, 4, 1, |b| b[0]);
        assert_eq!(v, 9);
        c.read(&mut d, 4, 1, |_| ());
        let s = c.stats();
        assert_eq!(s.read_misses, 1);
        assert_eq!(s.read_hits, 1);
        assert_eq!(s.disk_reads, 1);
    }

    #[test]
    fn write_through_writes_immediately() {
        let (mut d, mut c) = setup(16 * 1024, BufWritePolicy::WriteThrough);
        c.modify(&mut d, 8, 1, true, |b| b[0] = 1);
        assert_eq!(c.stats().disk_writes, 1);
        assert_eq!(c.dirty_count(), 0);
        assert_eq!(d.peek(8, 1)[0], 1);
    }

    #[test]
    fn delayed_write_defers_until_sync() {
        let (mut d, mut c) = setup(16 * 1024, BufWritePolicy::DelayedWrite);
        c.modify(&mut d, 8, 1, true, |b| b[0] = 1);
        assert_eq!(c.stats().disk_writes, 0);
        assert_eq!(d.peek(8, 1)[0], 0);
        c.sync(&mut d, 0);
        assert_eq!(c.stats().disk_writes, 1);
        assert_eq!(d.peek(8, 1)[0], 1);
        // A second sync writes nothing.
        c.sync(&mut d, 0);
        assert_eq!(c.stats().disk_writes, 1);
    }

    #[test]
    fn whole_overwrite_elides_fetch() {
        let (mut d, mut c) = setup(16 * 1024, BufWritePolicy::DelayedWrite);
        c.modify(&mut d, 8, 2, true, |b| b.fill(5));
        let s = c.stats();
        assert_eq!(s.disk_reads, 0);
        assert_eq!(s.write_fetches_elided, 1);
        // A partial write of an uncached extent must fetch first.
        c.modify(&mut d, 12, 2, false, |b| b[0] = 1);
        assert_eq!(c.stats().disk_reads, 1);
    }

    #[test]
    fn eviction_is_lru_and_writes_dirty() {
        // Capacity of two 1-frag buffers.
        let (mut d, mut c) = setup(2 * 1024, BufWritePolicy::DelayedWrite);
        c.modify(&mut d, 1, 1, true, |b| b[0] = 1);
        c.modify(&mut d, 2, 1, true, |b| b[0] = 2);
        c.read(&mut d, 1, 1, |_| ()); // Buffer 2 becomes LRU.
        c.modify(&mut d, 3, 1, true, |b| b[0] = 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().disk_writes, 1); // Buffer 2 written on eviction.
        assert_eq!(d.peek(2, 1)[0], 2);
        assert_eq!(d.peek(1, 1)[0], 0); // Buffer 1 still only in cache.
    }

    #[test]
    fn invalidate_drops_dirty_without_write() {
        let (mut d, mut c) = setup(16 * 1024, BufWritePolicy::DelayedWrite);
        c.modify(&mut d, 8, 1, true, |b| b[0] = 1);
        c.invalidate(8);
        assert_eq!(c.stats().disk_writes, 0);
        assert_eq!(c.stats().dirty_invalidated, 1);
        assert_eq!(d.peek(8, 1)[0], 0);
        assert!(c.is_empty());
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn flush_back_respects_interval() {
        let (mut d, mut c) = setup(
            16 * 1024,
            BufWritePolicy::FlushBack {
                interval_ms: 30_000,
            },
        );
        c.modify(&mut d, 8, 1, true, |b| b[0] = 1);
        c.maybe_flush(&mut d, 10_000); // 10 s since start: below the interval.
        assert_eq!(d.peek(8, 1)[0], 0);
        c.maybe_flush(&mut d, 31_000);
        assert_eq!(d.peek(8, 1)[0], 1);
    }

    #[test]
    fn flush_back_timing_exact() {
        let (mut d, mut c) = setup(
            16 * 1024,
            BufWritePolicy::FlushBack {
                interval_ms: 30_000,
            },
        );
        // Prime last_flush to 0 via sync of an empty cache.
        c.sync(&mut d, 0);
        c.modify(&mut d, 8, 1, true, |b| b[0] = 1);
        c.maybe_flush(&mut d, 29_999);
        assert_eq!(c.stats().disk_writes, 0);
        c.maybe_flush(&mut d, 30_000);
        assert_eq!(c.stats().disk_writes, 1);
    }

    #[test]
    fn idle_cache_ratio_is_zero_not_nan() {
        // The workspace-wide obs::ratio convention: no traffic -> 0.0.
        let s = BufCacheStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
        assert!(!s.miss_ratio().is_nan());
    }

    #[test]
    fn register_obs_exports_live_counters() {
        let (mut d, mut c) = setup(16 * 1024, BufWritePolicy::WriteThrough);
        let reg = obs::Registry::new();
        c.register_obs(&reg, "buf");
        c.modify(&mut d, 8, 1, true, |b| b[0] = 1);
        c.read(&mut d, 8, 1, |_| ());
        let snap = reg.snapshot();
        let s = c.stats();
        assert_eq!(snap.counter("buf.logical_reads"), Some(s.logical_reads));
        assert_eq!(snap.counter("buf.read_hits"), Some(s.read_hits));
        assert_eq!(snap.counter("buf.disk_writes"), Some(s.disk_writes));
    }

    #[test]
    fn miss_ratio_computation() {
        let (mut d, mut c) = setup(16 * 1024, BufWritePolicy::WriteThrough);
        c.modify(&mut d, 8, 1, true, |b| b[0] = 1); // 1 disk write.
        c.read(&mut d, 8, 1, |_| ()); // Hit: no disk I/O.
        let s = c.stats();
        assert_eq!(s.logical_accesses(), 2);
        assert!((s.miss_ratio() - 0.5).abs() < 1e-12);
    }
}
