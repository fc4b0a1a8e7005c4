//! Single-pass stack-distance profiling: every cache size in one replay.
//!
//! LRU obeys the *inclusion property*: at any instant, the contents of a
//! cache of capacity `C` are exactly the `C` most recently used blocks,
//! so a cache of capacity `C' > C` holds a superset. A reference to a
//! block whose reuse *stack distance* is `d` (it is the `d`-th most
//! recently used block) therefore hits every capacity `>= d` and misses
//! every capacity `< d` — one replay annotated with distances yields
//! exact miss counts for the whole Figure 5 / Table VI size axis
//! (Mattson's classic one-pass algorithm).
//!
//! This module extends the classic algorithm in two directions the
//! paper's workload demands:
//!
//! * **Deletions.** `unlink`/`truncate` invalidate cached blocks. Naive
//!   removal from the recency stack would shift deeper blocks *up*,
//!   falsely re-admitting them into small caches they had already been
//!   evicted from. Instead an invalidated entry becomes a **hole** in
//!   place: positions of other entries never decrease, preserving the
//!   per-capacity window invariant (valid entries among the top `C`
//!   positions == the direct capacity-`C` cache contents). A later
//!   access consumes the *shallowest* hole above the referenced block —
//!   capacities between the hole and the block fill free space without
//!   evicting, exactly like the direct caches.
//! * **Write policies.** Dirty state diverges across capacities (a small
//!   cache evicts-and-writes a dirty block that a large cache still
//!   holds dirty), but it diverges *monotonically*: between accesses a
//!   block's stack depth never decreases, so it crosses capacity
//!   boundaries smallest-first and its per-capacity dirty flags form a
//!   suffix of the capacity list. Per `(policy, block)`, the smallest
//!   still-dirty capacity index `m` and per-capacity dirty timestamps
//!   reproduce write-through, flush-back (any interval), and
//!   delayed-write accounting bit-identically in the same single pass.
//!
//! What cannot be expressed: FIFO replacement (no inclusion property).
//! Such cells — and subgroups of one cell, where a profile saves
//! nothing — fall back to the direct [`crate::BlockCache`] simulator;
//! [`crate::sweep::run_source`] does the partitioning. Every replay
//! fidelity profiles: a syscall- or open-fidelity [`ReplayEvent::Op`]
//! is its covering block run, each block a reference whose writes
//! count as whole, exactly as the direct replayer bills it.
//!
//! The recency stack is an intrusive doubly linked list (most recent
//! first) of blocks and holes, with one **marker** per tracked
//! capacity `caps[j]` pointing at the entry at depth exactly `caps[j]`,
//! and each entry carrying its **level**: how many tracked capacities
//! are smaller than its depth. A reference's miss class is its level;
//! the entries it pushes across a capacity boundary are exactly the
//! marker entries below that class (or below the shallowest hole's
//! level), so each reference costs O(levels crossed) pointer steps.
//! A block keeps its list node while it is tracked (a re-reference
//! relinks the node at the head), so per-block dirty state lives in
//! arrays indexed by node rather than in hash maps. Entries sinking
//! past the largest capacity are pruned — they are in no tracked
//! cache, so a later reference is a cold miss everywhere, which is
//! exactly what forgetting them produces — so the list never outgrows
//! that capacity.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use fstrace::{FastMap, FastSet, FileId, TraceRecord};
use simstat::Distribution;

use crate::cache::BlockId;
use crate::config::{CacheConfig, Replacement, WritePolicy};
use crate::metrics::CacheMetrics;
use crate::replay::{EventExpander, ReplayEvent};
use crate::sweep::ExpansionKey;

/// Largest profilable capacity: list nodes are indexed by `u32`, and
/// the list holds at most the largest tracked capacity plus the entry
/// being pushed. Larger configurations fall back to direct simulation.
const MAX_TRACKED_BLOCKS: u64 = 1 << 30;

/// Process-wide switch for the profiled sweep path (default on).
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables stack-distance profiling in the sweep engine.
///
/// Disabling forces every cell through the direct simulator — results
/// are identical either way; this exists so benchmarks can measure the
/// two paths against each other.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether the sweep engine may use stack-distance profiling.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether a single configuration's metrics can be derived from a
/// stack-distance profile (LRU replacement, sane capacity), at any
/// fidelity.
///
/// Profilable cells still need a *partner* sharing block size,
/// elision, and invalidation settings before profiling beats a direct
/// replay; that grouping is the sweep engine's job.
pub fn profilable(config: &CacheConfig) -> bool {
    config.replacement == Replacement::Lru && config.capacity_blocks() < MAX_TRACKED_BLOCKS
}

/// The null link of the recency list.
const NIL: u32 = u32::MAX;

/// One entry of the recency list: a cached block, or a hole left by an
/// invalidated one.
struct Node {
    /// Towards the most recent entry (`NIL` at the head).
    prev: u32,
    /// Towards the least recent entry (`NIL` at the tail); links the
    /// free list while the node is unused.
    next: u32,
    /// Sequence of the node's last push to the head (a hole takes over
    /// the sequence of the position it fills): list order is descending
    /// `seq`.
    seq: u64,
    /// Number of tracked capacities smaller than the node's depth.
    level: u32,
    /// An invalidated entry: keeps its position, owns no block.
    hole: bool,
    block: BlockId,
}

/// Dirty-block bookkeeping for one tracked write policy across all
/// capacities (write-through needs none: its per-cell write traffic is
/// capacity-independent and derived analytically).
///
/// The state is kept per list node: a block keeps its node for as long
/// as it is tracked, so the node index names the block. `m[n]` is the
/// smallest capacity index at which node `n`'s block is dirty, `K` when
/// it is clean everywhere (capacities are sorted ascending, and
/// dirtiness is a suffix: small caches evict-and-clean first).
/// `t[n * K + i]` is the time it became dirty in the capacity-`i`
/// cache, valid for `i >= m[n]` — the timestamps differ per capacity
/// because a small cache that evicted and re-dirtied the block restarts
/// its residency clock while a large cache's older clock keeps running.
struct PolicyState {
    policy: WritePolicy,
    /// Flush interval for `FlushBack`, `None` otherwise.
    interval_ms: Option<u64>,
    last_flush_ms: u64,
    m: Vec<u32>,
    t: Vec<u64>,
    /// Per capacity index: writebacks (flushes + evictions).
    disk_writes: Vec<u64>,
    /// Per capacity index: dirty blocks invalidated before any write.
    never_written: Vec<u64>,
    /// Per capacity index: dirty residency distribution.
    residency: Vec<Distribution>,
    /// `dirtied_split[m]` counts clean→dirty transitions whose prior
    /// smallest-dirty index was `m` — the transition dirties exactly
    /// the capacities `< m`, so `blocks_dirtied(i) = Σ_{m > i}`.
    dirtied_split: Vec<u64>,
}

/// How one requested cell maps onto the shared profile.
struct CellSpec {
    /// Index into the sorted distinct capacity list.
    cap_idx: usize,
    /// `None` for write-through (derived), `Some(p)` indexing
    /// [`StackEngine::pol`] otherwise.
    policy_idx: Option<usize>,
}

/// The single-pass profiler: feed it the [`ReplayEvent`] stream once,
/// and [`StackEngine::finish`] returns a [`CacheMetrics`] per requested
/// cell, each bit-identical to a direct [`crate::Simulator`] run of
/// that cell over the same events.
pub struct StackEngine {
    // Shared cell parameters.
    bs: u64,
    elision: bool,
    invalidate_on_delete: bool,
    /// Sorted distinct capacities, in blocks. `K = caps.len()`.
    caps: Vec<u64>,
    cells: Vec<CellSpec>,
    pol: Vec<PolicyState>,

    // The recency stack: a slab-backed list of blocks and holes.
    nodes: Vec<Node>,
    /// Head of the free-node list, linked through `Node::next`.
    free: u32,
    /// Most recent entry (depth 1).
    head: u32,
    /// Least recent entry (depth `active`).
    tail: u32,
    /// `markers[j]` is the entry at depth exactly `caps[j]`, `NIL` until
    /// the list first holds `caps[j]` entries.
    markers: Vec<u32>,
    /// How many markers are placed (a prefix of `caps`).
    placed: usize,
    blocks: FastMap<BlockId, u32>,
    /// Holes by sequence, so the last one is the shallowest.
    holes: BTreeMap<u64, u32>,
    /// List length, holes included.
    active: u64,
    next_seq: u64,
    per_file: FastMap<FileId, FastSet<u64>>,

    // Replay state mirroring `Replayer`.
    sizes: FastMap<FileId, u64>,
    end_time: u64,

    // Distance accounting. `*_split[k]` counts accesses whose distance
    // exceeded exactly the `k` smallest capacities (misses for capacity
    // indices `< k`); `k == K` means a miss everywhere.
    total_reads: u64,
    total_writes: u64,
    read_split: Vec<u64>,
    write_whole_split: Vec<u64>,
    write_partial_split: Vec<u64>,

    tree_peak: u64,
    distances: u64,
    /// Boundary crossings walked, summed over every reference.
    marker_steps: u64,
}

impl StackEngine {
    /// Builds a profiler covering `cells`, or `None` when the cells are
    /// not jointly expressible: every cell must be [`profilable`] and
    /// all must share block size, whole-block elision, delete
    /// invalidation, and [`ExpansionKey`] (they consume one event
    /// stream). Any write policy mix is fine.
    pub fn try_new(cells: &[CacheConfig]) -> Option<StackEngine> {
        let first = cells.first()?;
        for c in cells {
            let compatible = profilable(c)
                && c.block_size == first.block_size
                && c.whole_block_elision == first.whole_block_elision
                && c.invalidate_on_delete == first.invalidate_on_delete
                && ExpansionKey::of(c) == ExpansionKey::of(first);
            if !compatible {
                return None;
            }
        }
        let mut caps: Vec<u64> = cells.iter().map(|c| c.capacity_blocks()).collect();
        caps.sort_unstable();
        caps.dedup();
        let k = caps.len();

        let mut pol: Vec<PolicyState> = Vec::new();
        let cells = cells
            .iter()
            .map(|c| {
                let cap_idx = caps.binary_search(&c.capacity_blocks()).expect("own cap");
                let policy_idx = match c.write_policy {
                    WritePolicy::WriteThrough => None,
                    p => Some(match pol.iter().position(|ps| ps.policy == p) {
                        Some(i) => i,
                        None => {
                            pol.push(PolicyState {
                                policy: p,
                                interval_ms: match p {
                                    WritePolicy::FlushBack { interval_ms } => Some(interval_ms),
                                    _ => None,
                                },
                                last_flush_ms: 0,
                                m: Vec::new(),
                                t: Vec::new(),
                                disk_writes: vec![0; k],
                                never_written: vec![0; k],
                                residency: vec![Distribution::new(); k],
                                dirtied_split: vec![0; k + 1],
                            });
                            pol.len() - 1
                        }
                    }),
                };
                CellSpec {
                    cap_idx,
                    policy_idx,
                }
            })
            .collect();

        Some(StackEngine {
            bs: first.block_size,
            elision: first.whole_block_elision,
            invalidate_on_delete: first.invalidate_on_delete,
            caps,
            cells,
            pol,
            nodes: Vec::new(),
            free: NIL,
            head: NIL,
            tail: NIL,
            markers: vec![NIL; k],
            placed: 0,
            blocks: FastMap::default(),
            holes: BTreeMap::new(),
            active: 0,
            next_seq: 0,
            per_file: FastMap::default(),
            sizes: FastMap::default(),
            end_time: 0,
            total_reads: 0,
            total_writes: 0,
            read_split: vec![0; k + 1],
            write_whole_split: vec![0; k + 1],
            write_partial_split: vec![0; k + 1],
            tree_peak: 0,
            distances: 0,
            marker_steps: 0,
        })
    }

    /// A fresh unlinked node for block `id`, clean under every policy,
    /// reusing a freed slot when one exists.
    fn alloc(&mut self, id: BlockId) -> u32 {
        let node = Node {
            prev: NIL,
            next: NIL,
            seq: 0,
            level: 0,
            hole: false,
            block: id,
        };
        if self.free != NIL {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            return n;
        }
        self.nodes.push(node);
        let k = self.caps.len();
        for ps in &mut self.pol {
            ps.m.push(k as u32);
            ps.t.resize(ps.t.len() + k, 0);
        }
        (self.nodes.len() - 1) as u32
    }

    /// Returns an unlinked node to the free list. Only clean nodes are
    /// freed: pruned blocks and consumed holes.
    fn free(&mut self, n: u32) {
        debug_assert!(
            self.pol
                .iter()
                .all(|ps| ps.m[n as usize] as usize == self.caps.len()),
            "freed node must be clean everywhere"
        );
        self.nodes[n as usize].next = self.free;
        self.free = n;
    }

    /// Links node `n` at the head: depth 1, level 0, a fresh sequence.
    fn push_front(&mut self, n: u32) {
        let node = &mut self.nodes[n as usize];
        node.prev = NIL;
        node.next = self.head;
        node.seq = self.next_seq;
        node.level = 0;
        self.next_seq += 1;
        match self.head {
            NIL => self.tail = n,
            h => self.nodes[h as usize].prev = n,
        }
        self.head = n;
        self.active += 1;
    }

    /// Unlinks node `n`. A marker sitting on it moves to its
    /// predecessor, which the coming push shifts into its depth.
    fn unlink(&mut self, n: u32) {
        let Node {
            prev, next, level, ..
        } = self.nodes[n as usize];
        if let Some(m) = self.markers.get_mut(level as usize) {
            if *m == n {
                *m = prev;
            }
        }
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            x => self.nodes[x as usize].prev = prev,
        }
        self.active -= 1;
    }

    /// Puts unlinked hole node `h` in linked node `b`'s place, taking
    /// over its position, sequence, level and marker, and leaves `b`
    /// unlinked.
    fn replace_with_hole(&mut self, b: u32, h: u32) {
        let Node {
            prev,
            next,
            seq,
            level,
            ..
        } = self.nodes[b as usize];
        let hole = &mut self.nodes[h as usize];
        hole.prev = prev;
        hole.next = next;
        hole.seq = seq;
        hole.level = level;
        match prev {
            NIL => self.head = h,
            p => self.nodes[p as usize].next = h,
        }
        match next {
            NIL => self.tail = h,
            x => self.nodes[x as usize].prev = h,
        }
        if let Some(m) = self.markers.get_mut(level as usize) {
            if *m == b {
                *m = h;
            }
        }
        self.holes.insert(seq, h);
    }

    /// Catch-up flush scans, mirroring `BlockCache::run_flush_if_due`:
    /// the schedule depends only on access times, never on capacity, so
    /// one scan covers every capacity column at once. Like the direct
    /// cache's scan of its own list, it visits every node.
    fn flush_if_due(&mut self, now_ms: u64) {
        let k = self.caps.len();
        for ps in &mut self.pol {
            let Some(interval_ms) = ps.interval_ms else {
                continue;
            };
            if now_ms.saturating_sub(ps.last_flush_ms) >= interval_ms {
                for (n, m) in ps.m.iter_mut().enumerate() {
                    for i in *m as usize..k {
                        ps.disk_writes[i] += 1;
                        ps.residency[i].add(now_ms.saturating_sub(ps.t[n * k + i]), 1);
                    }
                    *m = k as u32;
                }
                ps.last_flush_ms = now_ms - (now_ms - ps.last_flush_ms) % interval_ms;
            }
        }
    }

    /// Accounts an eviction of `victim` from the capacity-index-`j`
    /// cache at `now_ms`: a dirty victim is written back, exactly like
    /// `BlockCache::evict`.
    ///
    /// The victim can only be dirty at capacity `j` with `m == j`:
    /// depths are nondecreasing between accesses, so it crossed every
    /// smaller capacity boundary (cleaning those columns) before this
    /// one, and a re-dirtying write would have moved it back to the
    /// top.
    fn evict_dirty(&mut self, victim: u32, j: usize, now_ms: u64) {
        let k = self.caps.len();
        let v = victim as usize;
        for ps in &mut self.pol {
            let m = &mut ps.m[v];
            debug_assert!(*m as usize >= j, "dirty suffix must start at or past {j}");
            if *m as usize == j {
                ps.disk_writes[j] += 1;
                ps.residency[j].add(now_ms.saturating_sub(ps.t[v * k + j]), 1);
                *m += 1;
            }
        }
    }

    /// One block reference: `write` is `None` for reads, else
    /// `Some(whole_block_overwrite)`.
    fn access(&mut self, id: BlockId, now_ms: u64, write: Option<bool>) {
        self.flush_if_due(now_ms);
        self.distances += 1;

        // The miss class: the block misses exactly the capacities below
        // its depth, which is its level (all of them when untracked).
        let last = self.caps.len() - 1;
        let b = self.blocks.get(&id).copied();
        let k = b.map_or(last + 1, |b| self.nodes[b as usize].level as usize);
        match write {
            None => {
                self.total_reads += 1;
                self.read_split[k] += 1;
            }
            Some(true) => {
                self.total_writes += 1;
                self.write_whole_split[k] += 1;
            }
            Some(false) => {
                self.total_writes += 1;
                self.write_partial_split[k] += 1;
            }
        }

        // The shallowest hole (highest sequence) above the referenced
        // block. Holes below it are irrelevant this access: positions
        // at or beyond the block's depth do not move.
        let hole = self
            .holes
            .last_key_value()
            .map(|(&seq, &h)| (seq, h))
            .filter(|&(seq, _)| b.is_none_or(|b| seq > self.nodes[b as usize].seq));
        let bound = hole.map_or(k, |(_, h)| self.nodes[h as usize].level as usize);

        // Eviction walk: the entry at depth exactly `caps[j]` shifts to
        // `caps[j] + 1`, leaving the capacity-`j` window — for every
        // capacity below both the reuse depth (larger ones hit) and the
        // shallowest hole (those fill free space instead). Such entries
        // are valid blocks: no holes exist above the shallowest one.
        // The marker then passes to the entry above, which the push
        // shifts into depth `caps[j]`.
        let mut j = 0;
        while j < bound && self.markers[j] != NIL {
            let v = self.markers[j];
            let Node {
                prev, hole, block, ..
            } = self.nodes[v as usize];
            debug_assert!(!hole, "entries above the shallowest hole are valid blocks");
            self.evict_dirty(v, j, now_ms);
            self.nodes[v as usize].level = j as u32 + 1;
            self.markers[j] = prev;
            if j == last {
                // Sunk past the largest tracked capacity: in no cache
                // any more, so forget it — a future reference is a cold
                // miss everywhere, which is exactly what the direct
                // simulators see. Bounds the list at `caps[last]`.
                self.unlink(v);
                self.free(v);
                self.blocks.remove(&block);
                if let Some(set) = self.per_file.get_mut(&block.file) {
                    set.remove(&block.block);
                    if set.is_empty() {
                        self.per_file.remove(&block.file);
                    }
                }
            }
            j += 1;
        }
        self.marker_steps += j as u64;

        // Restack: consume the shallowest hole above the block, leave a
        // hole at the block's old position when one was consumed (the
        // hole migrates down — net positions: entries above the old
        // hole sink one, everything else stays; the consumed hole's
        // node takes over the block's position and level), then push
        // the block's node on top.
        let n = match (b, hole) {
            (Some(b), Some((seq, h))) => {
                self.holes.remove(&seq);
                self.unlink(h);
                self.replace_with_hole(b, h);
                b
            }
            (Some(b), None) => {
                self.unlink(b);
                b
            }
            (None, hole) => {
                if let Some((seq, h)) = hole {
                    self.holes.remove(&seq);
                    self.unlink(h);
                    self.free(h);
                }
                let n = self.alloc(id);
                self.blocks.insert(id, n);
                self.per_file.entry(id.file).or_default().insert(id.block);
                n
            }
        };
        self.push_front(n);
        if self.caps[0] == 1 {
            self.markers[0] = n;
        }
        // A list that just grew to `caps[placed]` entries places that
        // capacity's marker on its tail.
        if self.placed <= last && self.caps[self.placed] == self.active {
            self.markers[self.placed] = self.tail;
            self.placed += 1;
        }
        self.tree_peak = self.tree_peak.max(self.active);

        // Dirty transitions: a write dirties the block in every
        // capacity column where it was clean (`i < m`), restarting
        // those residency clocks; columns `>= m` keep their original
        // dirtied-at times, exactly like the direct write-hit path.
        if write.is_some() {
            let k = self.caps.len();
            let n = n as usize;
            for ps in &mut self.pol {
                let m = ps.m[n] as usize;
                ps.dirtied_split[m] += 1;
                ps.t[n * k..n * k + m].fill(now_ms);
                ps.m[n] = 0;
            }
        }
    }

    /// Invalidates one block: its entry becomes a hole in place (so no
    /// other entry's position changes), and dirty copies are dropped
    /// without writing — counted per capacity column where the block
    /// was dirty, which is necessarily a subset of the columns whose
    /// cache held it.
    fn invalidate_block(&mut self, id: BlockId, now_ms: u64) {
        let Some(n) = self.blocks.remove(&id) else {
            return;
        };
        let node = &mut self.nodes[n as usize];
        node.hole = true;
        self.holes.insert(node.seq, n);
        let k = self.caps.len();
        let n = n as usize;
        for ps in &mut self.pol {
            for i in ps.m[n] as usize..k {
                ps.never_written[i] += 1;
                ps.residency[i].add(now_ms.saturating_sub(ps.t[n * k + i]), 1);
            }
            ps.m[n] = k as u32;
        }
    }

    fn invalidate_file(&mut self, file: FileId, now_ms: u64) {
        let Some(blocks) = self.per_file.remove(&file) else {
            return;
        };
        for block in blocks {
            self.invalidate_block(BlockId { file, block }, now_ms);
        }
    }

    fn invalidate_beyond(&mut self, file: FileId, first_block: u64, now_ms: u64) {
        let Some(set) = self.per_file.get_mut(&file) else {
            return;
        };
        let doomed: Vec<u64> = set.iter().copied().filter(|&b| b >= first_block).collect();
        for b in &doomed {
            set.remove(b);
        }
        if set.is_empty() {
            self.per_file.remove(&file);
        }
        for block in doomed {
            self.invalidate_block(BlockId { file, block }, now_ms);
        }
    }

    /// Applies one replay event — the profiler's twin of
    /// `Replayer::step`, with identical block splitting, whole-write
    /// detection, and invalidation semantics.
    pub fn step(&mut self, ev: &ReplayEvent) {
        let bs = self.bs;
        self.end_time = self.end_time.max(ev.time());
        match *ev {
            ReplayEvent::SizeHint { file, size, .. } => {
                let e = self.sizes.entry(file).or_insert(size);
                *e = (*e).max(size);
            }
            ReplayEvent::Transfer {
                time_ms,
                file,
                offset,
                len,
                write,
            } => {
                if len == 0 {
                    return;
                }
                let size = self.sizes.entry(file).or_insert(0);
                let end = offset + len;
                let old_size = *size;
                *size = old_size.max(end);
                for block in offset / bs..=(end - 1) / bs {
                    let id = BlockId { file, block };
                    if write {
                        let bstart = block * bs;
                        let bend = bstart + bs;
                        let old_valid = old_size.saturating_sub(bstart).min(bs);
                        let covered_hi = end.min(bend);
                        let whole = old_valid == 0
                            || (offset <= bstart && covered_hi >= bstart + old_valid);
                        self.access(id, time_ms, Some(whole));
                    } else {
                        self.access(id, time_ms, None);
                    }
                }
            }
            // Op-level replay (syscall/open fidelity): the covering
            // block run, every write whole and no size bookkeeping,
            // exactly like `Replayer::step`.
            ReplayEvent::Op {
                time_ms,
                file,
                offset,
                len,
                write,
            } => {
                if len == 0 {
                    return;
                }
                let end = offset + len;
                for block in offset / bs..=(end - 1) / bs {
                    self.access(BlockId { file, block }, time_ms, write.then_some(true));
                }
            }
            ReplayEvent::TruncateTo {
                time_ms,
                file,
                new_len,
            } => {
                let size = self.sizes.entry(file).or_insert(0);
                *size = (*size).min(new_len);
                if self.invalidate_on_delete {
                    if new_len == 0 {
                        self.invalidate_file(file, time_ms);
                    } else {
                        self.invalidate_beyond(file, new_len.div_ceil(bs), time_ms);
                    }
                }
            }
            ReplayEvent::Delete { time_ms, file } => {
                self.sizes.remove(&file);
                if self.invalidate_on_delete {
                    self.invalidate_file(file, time_ms);
                }
            }
        }
    }

    /// Finalizes residency accounting and assembles one
    /// [`CacheMetrics`] per requested cell, in input order.
    pub fn finish(mut self) -> Vec<CacheMetrics> {
        let k = self.caps.len();
        // End-of-run residency for still-dirty blocks, without disk
        // writes (`BlockCache::finish` semantics).
        for ps in &mut self.pol {
            for (n, &m) in ps.m.iter().enumerate() {
                for i in m as usize..k {
                    ps.residency[i].add(self.end_time.saturating_sub(ps.t[n * k + i]), 1);
                }
            }
        }

        // `split[j]` counted accesses missing capacities `< j`, so the
        // miss count at capacity index `i` is the suffix sum over
        // `j > i`.
        let suffix = |split: &[u64]| -> Vec<u64> {
            let mut out = vec![0u64; k];
            let mut acc = 0u64;
            for i in (0..k).rev() {
                acc += split[i + 1];
                out[i] = acc;
            }
            out
        };
        let read_miss = suffix(&self.read_split);
        let whole_miss = suffix(&self.write_whole_split);
        let partial_miss = suffix(&self.write_partial_split);
        let dirtied: Vec<Vec<u64>> = self
            .pol
            .iter()
            .map(|ps| suffix(&ps.dirtied_split))
            .collect();

        let reg = obs::global();
        reg.counter("cachesim.stack.distances_recorded")
            .add(self.distances);
        reg.counter("cachesim.stack.marker_steps")
            .add(self.marker_steps);
        reg.gauge("cachesim.stack.tree_nodes_peak")
            .record(self.tree_peak);

        self.cells
            .iter()
            .map(|cell| {
                let i = cell.cap_idx;
                let mut m = CacheMetrics {
                    logical_reads: self.total_reads,
                    logical_writes: self.total_writes,
                    read_hits: self.total_reads - read_miss[i],
                    disk_reads: read_miss[i] + partial_miss[i],
                    ..CacheMetrics::default()
                };
                if self.elision {
                    m.elided_fetches = whole_miss[i];
                } else {
                    m.disk_reads += whole_miss[i];
                }
                match cell.policy_idx {
                    // Write-through: every logical write goes straight
                    // to disk with zero residency, at any capacity.
                    None => {
                        m.disk_writes = self.total_writes;
                        m.blocks_dirtied = self.total_writes;
                        m.dirty_residency_ms.add(0, self.total_writes);
                    }
                    Some(p) => {
                        m.disk_writes = self.pol[p].disk_writes[i];
                        m.blocks_dirtied = dirtied[p][i];
                        m.dirty_blocks_never_written = self.pol[p].never_written[i];
                        m.dirty_residency_ms = self.pol[p].residency[i].clone();
                    }
                }
                m
            })
            .collect()
    }
}

/// Profiles pre-expanded events for `cells` in one pass, or `None`
/// when the cells are not jointly expressible (see
/// [`StackEngine::try_new`]).
pub fn profile_events(events: &[ReplayEvent], cells: &[CacheConfig]) -> Option<Vec<CacheMetrics>> {
    let mut engine = StackEngine::try_new(cells)?;
    for ev in events {
        engine.step(ev);
    }
    Some(engine.finish())
}

/// Expands a record stream once (counting one expansion, like any
/// simulator run) and profiles it for `cells` in one pass — the
/// bounded-memory entry point for all-profilable sweep groups.
pub fn profile_stream<I>(records: I, cells: &[CacheConfig]) -> Option<Vec<CacheMetrics>>
where
    I: IntoIterator,
    I::Item: std::borrow::Borrow<TraceRecord>,
{
    let mut engine = StackEngine::try_new(cells)?;
    let mut expander = EventExpander::new(&cells[0]);
    for rec in records {
        expander.feed(std::borrow::Borrow::borrow(&rec), &mut |ev| {
            engine.step(&ev)
        });
    }
    Some(engine.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Fidelity;
    use crate::replay::{replay_events, Simulator};
    use fstrace::{AccessMode, Trace, TraceBuilder};

    fn cells_for(caps_blocks: &[u64], policies: &[WritePolicy]) -> Vec<CacheConfig> {
        caps_blocks
            .iter()
            .flat_map(|&blocks| {
                policies.iter().map(move |&p| CacheConfig {
                    cache_bytes: blocks * 4096,
                    block_size: 4096,
                    write_policy: p,
                    ..CacheConfig::default()
                })
            })
            .collect()
    }

    fn assert_matches_direct(trace: &Trace, cells: &[CacheConfig]) {
        let events = replay_events(trace, &cells[0]);
        let profiled = profile_events(&events, cells).expect("profilable");
        for (config, got) in cells.iter().zip(&profiled) {
            let want = Simulator::run(trace, config);
            assert_eq!(got, &want, "config {config:?}");
        }
    }

    /// Reads, overwrites, truncates, and deletes — the full event
    /// repertoire including hole creation and consumption.
    fn busy_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let mut files = Vec::new();
        for i in 0..6u64 {
            let f = b.new_file_id();
            files.push(f);
            let t = i * 7_000;
            let o = b.open(t, f, u, AccessMode::ReadOnly, 20_000, false);
            b.close(t + 100, o, 20_000);
        }
        // Rewrite two files, truncate one, delete another, then re-read
        // everything so consumed holes and cold re-misses both occur.
        let o = b.open(50_000, files[0], u, AccessMode::WriteOnly, 20_000, false);
        b.close(50_100, o, 20_000);
        b.truncate(55_000, files[1], 5_000, u);
        b.unlink(60_000, files[2], u);
        let o = b.open(65_000, files[3], u, AccessMode::ReadWrite, 20_000, false);
        b.seek(65_010, o, 4_000, 9_000);
        b.close(65_100, o, 15_000);
        for (i, &f) in files.iter().enumerate() {
            let t = 100_000 + i as u64 * 3_000;
            let o = b.open(t, f, u, AccessMode::ReadOnly, 12_000, false);
            b.close(t + 100, o, 12_000);
        }
        b.finish()
    }

    #[test]
    fn matches_direct_across_sizes_and_policies() {
        let cells = cells_for(&[1, 2, 3, 5, 8, 100], &WritePolicy::TABLE_VI);
        assert_matches_direct(&busy_trace(), &cells);
    }

    #[test]
    fn duplicate_and_single_capacity_cells() {
        // Duplicate (capacity, policy) pairs and a lone capacity: the
        // engine must align outputs with inputs, duplicates included.
        let mut cells = cells_for(&[4], &WritePolicy::TABLE_VI);
        cells.push(cells[0].clone());
        cells.push(cells[3].clone());
        assert_matches_direct(&busy_trace(), &cells);
    }

    #[test]
    fn deletion_holes_do_not_readmit_blocks() {
        // Three reads fill a 2-block cache's history; invalidating the
        // newest must not let the oldest re-enter the 2-block window.
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let mut files = Vec::new();
        for i in 0..3u64 {
            let f = b.new_file_id();
            files.push(f);
            let t = i * 1_000;
            let o = b.open(t, f, u, AccessMode::ReadOnly, 4_096, false);
            b.close(t + 100, o, 4_096);
        }
        b.unlink(5_000, files[2], u);
        // Re-read file 0: depth 3 before the delete, and still a miss
        // at capacity 2 afterwards (the hole keeps its position).
        let o = b.open(6_000, files[0], u, AccessMode::ReadOnly, 4_096, false);
        b.close(6_100, o, 4_096);
        let trace = b.finish();
        let cells = cells_for(&[1, 2, 3, 4], &[WritePolicy::DelayedWrite]);
        assert_matches_direct(&trace, &cells);
        let events = replay_events(&trace, &cells[0]);
        let profiled = profile_events(&events, &cells).expect("profilable");
        // Capacity 2: the re-read must miss (4 disk reads total).
        assert_eq!(profiled[1].disk_reads, 4);
        // Capacity 3: the re-read hits (file 0 was 3rd most recent).
        assert_eq!(profiled[2].disk_reads, 3);
    }

    #[test]
    fn rejects_fifo_and_mismatched_cells() {
        let lru = CacheConfig {
            cache_bytes: 8 * 4096,
            ..CacheConfig::default()
        };
        let fifo = CacheConfig {
            replacement: Replacement::Fifo,
            ..lru.clone()
        };
        assert!(!profilable(&fifo));
        assert!(StackEngine::try_new(&[lru.clone(), fifo]).is_none());
        let other_bs = CacheConfig {
            block_size: 8192,
            ..lru.clone()
        };
        assert!(StackEngine::try_new(&[lru.clone(), other_bs]).is_none());
        let syscall = CacheConfig {
            fidelity: Fidelity::Syscall,
            ..lru.clone()
        };
        assert!(profilable(&syscall));
        assert!(StackEngine::try_new(&[lru.clone(), syscall]).is_none());
        let no_inval = CacheConfig {
            invalidate_on_delete: false,
            ..lru.clone()
        };
        assert!(StackEngine::try_new(&[lru.clone(), no_inval]).is_none());
        assert!(StackEngine::try_new(&[]).is_none());
        assert!(StackEngine::try_new(&[lru]).is_some());
    }

    #[test]
    fn elision_and_invalidation_variants_match() {
        let trace = busy_trace();
        for elision in [true, false] {
            for inval in [true, false] {
                let cells: Vec<CacheConfig> = cells_for(&[2, 4, 16], &WritePolicy::TABLE_VI)
                    .into_iter()
                    .map(|c| CacheConfig {
                        whole_block_elision: elision,
                        invalidate_on_delete: inval,
                        ..c
                    })
                    .collect();
                assert_matches_direct(&trace, &cells);
            }
        }
    }

    #[test]
    fn pruning_survives_long_reference_streams() {
        // Far more distinct blocks than the largest capacity: forces
        // repeated pruning past the largest capacity's marker and reuse
        // of freed list nodes.
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        for round in 0..4u64 {
            for i in 0..40u64 {
                let f = fstrace::FileId(i % 25);
                let t = round * 100_000 + i * 1_000;
                let o = b.open(t, f, u, AccessMode::ReadOnly, 8_192, false);
                b.close(t + 100, o, 8_192);
            }
        }
        let cells = cells_for(&[2, 7, 16], &WritePolicy::TABLE_VI);
        assert_matches_direct(&b.finish(), &cells);
    }

    /// Whether some placed marker sits on a hole.
    fn marker_on_hole(engine: &StackEngine) -> bool {
        engine
            .markers
            .iter()
            .any(|&m| m != NIL && engine.nodes[m as usize].hole)
    }

    #[test]
    fn hole_under_a_marker_is_consumed_exactly() {
        // Files 0..3 read once each (one block apiece): stack 3 2 1 0.
        // Unlinking file 2 leaves a hole at depth 2, under the
        // capacity-2 marker; the next reference (a new file 4)
        // consumes it, so the marker must pass to the entry above:
        // stack 4 3 1 0. Unlinking file 3 leaves a hole at depth 2
        // again, and re-reading file 0 from under the capacity-4
        // marker moves that hole to file 0's depth, so the marker must
        // pass to the hole. A new file 5 consumes that hole, a new
        // file 6 prunes the capacity-4 marker's entry (file 1, not
        // file 0), and rewrites and re-reads expose any misplaced
        // marker or level.
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let files: Vec<FileId> = (0..7).map(|_| b.new_file_id()).collect();
        for (i, &f) in files[..4].iter().enumerate() {
            let t = i as u64 * 1_000;
            let o = b.open(t, f, u, AccessMode::ReadOnly, 4_096, false);
            b.close(t + 100, o, 4_096);
        }
        b.unlink(5_000, files[2], u);
        let o = b.open(6_000, files[4], u, AccessMode::WriteOnly, 0, true);
        b.close(6_100, o, 4_096);
        b.unlink(7_000, files[3], u);
        for (i, &f) in [0, 5, 6, 0, 1, 4, 0].iter().enumerate() {
            let t = 10_000 + i as u64 * 1_000;
            let o = b.open(t, files[f], u, AccessMode::ReadWrite, 4_096, false);
            b.close(t + 100, o, 4_096);
        }
        let trace = b.finish();
        let cells = cells_for(&[1, 2, 3, 4], &WritePolicy::TABLE_VI);
        assert_matches_direct(&trace, &cells);

        let events = replay_events(&trace, &cells[0]);
        let mut engine = StackEngine::try_new(&cells).expect("profilable");
        let unlink = events
            .iter()
            .position(|ev| matches!(ev, ReplayEvent::Delete { .. }))
            .expect("the unlink replays");
        for ev in &events[..=unlink] {
            engine.step(ev);
        }
        assert!(marker_on_hole(&engine), "the hole sits under a marker");
        for ev in &events[unlink + 1..] {
            engine.step(ev);
        }
        assert!(engine.holes.is_empty(), "both holes were consumed");
    }

    #[test]
    fn one_block_capacity_beside_larger_ones() {
        // Capacity 1 keeps its marker on the head: back-to-back
        // references hit it, alternation misses it, and a hole at
        // depth 1 (the newest file deleted) is consumed with no walk.
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let files: Vec<FileId> = (0..4).map(|_| b.new_file_id()).collect();
        let mut t = 0;
        for &f in &[0, 0, 1, 0, 1, 1, 2, 3, 3] {
            let o = b.open(t, files[f], u, AccessMode::ReadWrite, 4_096, false);
            b.close(t + 100, o, 4_096);
            t += 1_000;
        }
        b.unlink(t, files[3], u);
        for &f in &[1, 2, 2, 0, 1] {
            t += 1_000;
            let o = b.open(t, files[f], u, AccessMode::ReadOnly, 4_096, false);
            b.close(t + 100, o, 4_096);
        }
        let trace = b.finish();
        assert_matches_direct(&trace, &cells_for(&[1, 2, 64], &WritePolicy::TABLE_VI));
        assert_matches_direct(
            &busy_trace(),
            &cells_for(&[1, 7, 9], &WritePolicy::TABLE_VI),
        );
    }

    #[test]
    fn op_fidelity_grids_with_truncates_and_unlinks_match() {
        // busy_trace truncates one file and unlinks another; at syscall
        // and open fidelity every `Op` is its covering block run with
        // whole writes.
        let trace = busy_trace();
        for fidelity in [Fidelity::Syscall, Fidelity::Open] {
            let cells: Vec<CacheConfig> = cells_for(&[1, 2, 3, 5, 8, 100], &WritePolicy::TABLE_VI)
                .into_iter()
                .map(|c| CacheConfig { fidelity, ..c })
                .collect();
            let events = replay_events(&trace, &cells[0]);
            assert!(events.iter().any(|ev| matches!(ev, ReplayEvent::Op { .. })));
            assert!(events
                .iter()
                .any(|ev| matches!(ev, ReplayEvent::TruncateTo { .. })));
            assert!(events
                .iter()
                .any(|ev| matches!(ev, ReplayEvent::Delete { .. })));
            assert_matches_direct(&trace, &cells);
        }
    }

    #[test]
    fn enabled_toggle_round_trips() {
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }
}
