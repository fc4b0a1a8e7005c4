//! Cylinder-group block and fragment allocation.
//!
//! The data region is divided into cylinder groups, each with its own
//! fragment bitmap and allocation rotor, as in FFS. Full blocks are
//! aligned runs of `frags_per_block` fragments; small allocations take a
//! shorter run of fragments that never crosses a block boundary —
//! mirroring the FFS rule that lets small files occupy less than a full
//! block on disk (the property Section 6.3 of the paper notes composes
//! well with a fixed-block-size cache).

use std::ops::Range;

use crate::error::{FsError, FsResult};

/// A fragment bitmap for one cylinder group, with its FFS-style summary.
///
/// `frags_per_block` is a power of two no larger than 64, so a block's
/// fragments always sit inside one bitmap word: a block is read with one
/// shift and mask, and a bitmap word covers `64 / fpb` whole blocks.
#[derive(Debug, Clone)]
struct Group {
    /// One bit per fragment; `1` = allocated.
    bits: Vec<u64>,
    nfrags: u64,
    fpb: u32,
    free: u64,
    /// Next block index to start searching from (in blocks).
    rotor: u64,
    /// FFS's `cg_frsum`, kept per block: `frsum[r]` counts the blocks
    /// whose longest free run is `r` fragments. `frsum[fpb]` is the
    /// wholly free blocks, `frsum[0]` the full ones, and the slots in
    /// between the partly used blocks.
    frsum: Vec<u32>,
}

impl Group {
    fn new(nfrags: u64, fpb: u32) -> Self {
        let mut frsum = vec![0; fpb as usize + 1];
        frsum[fpb as usize] = (nfrags / fpb as u64) as u32;
        Group {
            bits: vec![0; nfrags.div_ceil(64) as usize],
            nfrags,
            fpb,
            free: nfrags,
            rotor: 0,
            frsum,
        }
    }

    fn blocks(&self) -> u64 {
        self.nfrags / self.fpb as u64
    }

    /// The low `fpb` bits: one block's worth of fragments.
    fn block_mask(&self) -> u64 {
        u64::MAX >> (64 - self.fpb)
    }

    fn get(&self, i: u64) -> bool {
        self.bits[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    /// Block `b`'s allocation bits, its first fragment in bit 0.
    fn window(&self, b: u64) -> u64 {
        let base = b * self.fpb as u64;
        self.bits[(base / 64) as usize] >> (base % 64) & self.block_mask()
    }

    /// The longest run of free fragments in a block window: the
    /// block's [`Group::frsum`] slot.
    fn longest_free_run(&self, window: u64) -> usize {
        let mut run = !window & self.block_mask();
        let mut n = 0;
        while run != 0 {
            run &= run >> 1;
            n += 1;
        }
        n
    }

    /// The offset of the first run of `k` free fragments in a block
    /// window: bit `i` of `starts` survives only if fragments `i..i+k`
    /// are all free.
    fn first_free_run(&self, window: u64, k: u32) -> Option<u32> {
        let free = !window & self.block_mask();
        let mut starts = free;
        for i in 1..k {
            starts &= free >> i;
        }
        (starts != 0).then(|| starts.trailing_zeros())
    }

    /// `true` if some block's longest free run is in `slots`.
    fn summary_has(&self, slots: Range<usize>) -> bool {
        self.frsum[slots].iter().any(|&n| n > 0)
    }

    /// Marks `k` fragments from `local` allocated or free, keeping the
    /// free count and the summary in step. The run must lie in one block.
    fn set_run(&mut self, local: u64, k: u32, allocated: bool) {
        let fpb = self.fpb as u64;
        assert!(
            local % fpb + k as u64 <= fpb,
            "fragment run crosses a block boundary"
        );
        let b = local / fpb;
        let old = self.longest_free_run(self.window(b));
        self.frsum[old] -= 1;
        let mask = (u64::MAX >> (64 - k)) << (local % 64);
        let word = &mut self.bits[(local / 64) as usize];
        if allocated {
            debug_assert!(*word & mask == 0, "double allocation");
            self.free -= (mask & !*word).count_ones() as u64;
            *word |= mask;
        } else {
            debug_assert!(*word & mask == mask, "double free at fragment {local}");
            self.free += (mask & *word).count_ones() as u64;
            *word &= !mask;
        }
        let new = self.longest_free_run(self.window(b));
        self.frsum[new] += 1;
    }

    /// The first block in `blocks` for which `fit` finds a run, as a
    /// group-local fragment address. Bitmap words for which `skip` holds
    /// are passed over whole, without looking at their blocks.
    fn scan(
        &self,
        blocks: Range<u64>,
        skip: impl Fn(u64) -> bool,
        fit: impl Fn(u64) -> Option<u32>,
    ) -> Option<u64> {
        let fpb = self.fpb as u64;
        let per_word = 64 / fpb;
        let mut b = blocks.start;
        while b < blocks.end {
            let wi = b / per_word;
            let word = self.bits[wi as usize];
            let word_end = ((wi + 1) * per_word).min(blocks.end);
            if !skip(word) {
                for bb in b..word_end {
                    let window = word >> (bb % per_word * fpb) & self.block_mask();
                    if let Some(off) = fit(window) {
                        return Some(bb * fpb + off as u64);
                    }
                }
            }
            b = word_end;
        }
        None
    }

    /// The group's fragment summary and free count recomputed from its
    /// bitmap (for consistency checks).
    fn recount(&self) -> (Vec<u32>, u64) {
        let mut frsum = vec![0; self.fpb as usize + 1];
        for b in 0..self.blocks() {
            frsum[self.longest_free_run(self.window(b))] += 1;
        }
        let used: u64 = self.bits.iter().map(|w| w.count_ones() as u64).sum();
        (frsum, self.nfrags - used)
    }
}

/// Fragment allocator over the data region.
#[derive(Debug, Clone)]
pub struct FragAllocator {
    fpb: u32,
    data_start: u64,
    frags_per_group: u64,
    groups: Vec<Group>,
}

impl FragAllocator {
    /// Creates an allocator for a data region of `data_frags` fragments
    /// starting at absolute fragment address `data_start`, split into
    /// `cyl_groups` groups.
    ///
    /// Each group is rounded down to whole blocks; leftover fragments at
    /// the end of the region are unused, as in a real mkfs.
    ///
    /// # Panics
    ///
    /// Panics unless `fpb` is a power of two no larger than 64, and if a
    /// group would hold no full block.
    pub fn new(fpb: u32, data_start: u64, data_frags: u64, cyl_groups: u32) -> Self {
        assert!(
            fpb.is_power_of_two() && fpb <= 64,
            "frags per block must be a power of two <= 64"
        );
        let per_group = data_frags / cyl_groups as u64 / fpb as u64 * fpb as u64;
        assert!(per_group >= fpb as u64, "cylinder group too small");
        let groups = (0..cyl_groups)
            .map(|_| Group::new(per_group, fpb))
            .collect();
        FragAllocator {
            fpb,
            data_start,
            frags_per_group: per_group,
            groups,
        }
    }

    /// Fragments per full block.
    pub fn frags_per_block(&self) -> u32 {
        self.fpb
    }

    /// Total free fragments across all groups.
    pub fn free_frags(&self) -> u64 {
        self.groups.iter().map(|g| g.free).sum()
    }

    /// Total fragments managed.
    pub fn total_frags(&self) -> u64 {
        self.frags_per_group * self.groups.len() as u64
    }

    fn addr(&self, group: usize, local: u64) -> u64 {
        self.data_start + group as u64 * self.frags_per_group + local
    }

    fn locate(&self, addr: u64) -> (usize, u64) {
        let rel = addr
            .checked_sub(self.data_start)
            .expect("address below data region");
        let g = (rel / self.frags_per_group) as usize;
        assert!(g < self.groups.len(), "address beyond data region");
        (g, rel % self.frags_per_group)
    }

    /// Allocates a run of `k` fragments (`1..=frags_per_block`) that does
    /// not cross a block boundary, preferring `pref_group`.
    ///
    /// Full-block requests take only fully free blocks. Sub-block
    /// requests prefer partially used blocks, keeping whole blocks free
    /// for large files (FFS's fragment packing).
    pub fn alloc(&mut self, pref_group: u32, k: u32) -> FsResult<u64> {
        assert!(k >= 1 && k <= self.fpb, "extent size out of range");
        let ngroups = self.groups.len();
        for gi in 0..ngroups {
            let g = (pref_group as usize + gi) % ngroups;
            if let Some(addr) = self.alloc_in_group(g, k) {
                return Ok(addr);
            }
        }
        Err(FsError::NoSpace)
    }

    /// Both passes visit blocks in rotor order and take the first fit,
    /// so they choose exactly what a bit-by-bit walk would. The summary
    /// only rules a pass out when no block could satisfy it, and word
    /// skipping only passes over words holding no candidate block.
    fn alloc_in_group(&mut self, gi: usize, k: u32) -> Option<u64> {
        let g = &self.groups[gi];
        let fpb = self.fpb as usize;
        let rotor_order = [g.rotor..g.blocks(), 0..g.rotor];
        let mut found = None;
        // Pass 1 (sub-block requests only): pack into partially used
        // blocks. A word of all-free or all-full blocks holds none.
        if g.summary_has(k as usize..fpb) {
            found = rotor_order.iter().find_map(|blocks| {
                g.scan(
                    blocks.clone(),
                    |word| word == 0 || word == u64::MAX,
                    |window| match window {
                        0 => None,
                        _ => g.first_free_run(window, k),
                    },
                )
            });
        }
        // Pass 2: any block with room.
        if found.is_none() && g.summary_has(k as usize..fpb + 1) {
            found = rotor_order.iter().find_map(|blocks| {
                g.scan(
                    blocks.clone(),
                    |word| word == u64::MAX,
                    |window| g.first_free_run(window, k),
                )
            });
        }
        Some(self.take(gi, found?, k))
    }

    fn take(&mut self, gi: usize, local: u64, k: u32) -> u64 {
        let g = &mut self.groups[gi];
        g.set_run(local, k, true);
        g.rotor = local / self.fpb as u64;
        self.addr(gi, local)
    }

    /// Frees a run of `k` fragments starting at absolute address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the run crosses a block boundary, and (in debug builds)
    /// if any fragment was already free — double frees are file system
    /// bugs.
    pub fn free(&mut self, addr: u64, k: u32) {
        let (gi, local) = self.locate(addr);
        self.groups[gi].set_run(local, k, false);
    }

    /// Tries to extend the run at `addr` from `old_k` to `new_k`
    /// fragments in place (within the same block), returning `true` on
    /// success — FFS's cheap path when a small file grows.
    pub fn extend_in_place(&mut self, addr: u64, old_k: u32, new_k: u32) -> bool {
        assert!(old_k >= 1 && new_k > old_k && new_k <= self.fpb);
        let (gi, local) = self.locate(addr);
        // The extension must stay inside the block containing the run.
        let block_base = local / self.fpb as u64 * self.fpb as u64;
        if local - block_base + new_k as u64 > self.fpb as u64 {
            return false;
        }
        let g = &mut self.groups[gi];
        let tail = local + old_k as u64;
        let grow = new_k - old_k;
        let window = g.window(block_base / self.fpb as u64);
        if window >> (tail - block_base) & (u64::MAX >> (64 - grow)) != 0 {
            return false;
        }
        g.set_run(tail, grow, true);
        true
    }

    /// The group an absolute fragment address belongs to.
    pub fn group_of(&self, addr: u64) -> u32 {
        self.locate(addr).0 as u32
    }

    /// `true` if every fragment of the run is currently allocated (for
    /// consistency checks).
    pub fn is_allocated(&self, addr: u64, k: u32) -> bool {
        let (gi, local) = self.locate(addr);
        (0..k as u64).all(|i| self.groups[gi].get(local + i))
    }

    /// Recounts every group's fragment summary and free count from its
    /// bitmap, failing on the first group whose kept copies disagree
    /// (for consistency checks).
    pub(crate) fn check_summary(&self) -> Result<(), &'static str> {
        for g in &self.groups {
            let (frsum, free) = g.recount();
            if frsum != g.frsum {
                return Err("fragment summary disagrees with bitmap");
            }
            if free != g.free {
                return Err("free fragment count disagrees with bitmap");
            }
        }
        Ok(())
    }
}

/// Inode number allocator: a bitmap with a rotor.
#[derive(Debug, Clone)]
pub struct InoAllocator {
    bits: Vec<u64>,
    ninodes: u32,
    free: u32,
    rotor: u32,
}

impl InoAllocator {
    /// Creates an allocator for inodes `2..ninodes` (0 is the null inode,
    /// 1 is historically reserved).
    pub fn new(ninodes: u32) -> Self {
        let mut a = InoAllocator {
            bits: vec![0; (ninodes as usize).div_ceil(64)],
            ninodes,
            free: ninodes,
            rotor: 2,
        };
        a.mark(0);
        a.mark(1);
        a
    }

    fn mark(&mut self, ino: u32) {
        let w = (ino / 64) as usize;
        let m = 1u64 << (ino % 64);
        debug_assert!(self.bits[w] & m == 0);
        self.bits[w] |= m;
        self.free -= 1;
    }

    fn is_set(&self, ino: u32) -> bool {
        self.bits[(ino / 64) as usize] >> (ino % 64) & 1 == 1
    }

    /// Allocates a free inode number.
    pub fn alloc(&mut self) -> FsResult<u32> {
        if self.free == 0 {
            return Err(FsError::NoInodes);
        }
        for i in 0..self.ninodes {
            let ino = 2 + (self.rotor.wrapping_add(i).wrapping_sub(2)) % (self.ninodes - 2);
            if !self.is_set(ino) {
                self.mark(ino);
                self.rotor = ino + 1;
                if self.rotor >= self.ninodes {
                    self.rotor = 2;
                }
                return Ok(ino);
            }
        }
        Err(FsError::NoInodes)
    }

    /// Releases an inode number.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on double free.
    pub fn release(&mut self, ino: u32) {
        debug_assert!(ino >= 2, "cannot free reserved inode {ino}");
        let w = (ino / 64) as usize;
        let m = 1u64 << (ino % 64);
        debug_assert!(self.bits[w] & m != 0, "double inode free {ino}");
        self.bits[w] &= !m;
        self.free += 1;
    }

    /// Number of free inodes.
    pub fn free_count(&self) -> u32 {
        self.free
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The allocator before the fragment summary: both passes walk every
    /// block from the rotor, testing one bit at a time. It is the oracle
    /// [`FragAllocator::alloc`] must agree with, choice for choice.
    impl FragAllocator {
        fn alloc_by_scan(&mut self, pref_group: u32, k: u32) -> FsResult<u64> {
            assert!(k >= 1 && k <= self.fpb, "extent size out of range");
            let ngroups = self.groups.len();
            for gi in 0..ngroups {
                let g = (pref_group as usize + gi) % ngroups;
                if let Some(addr) = self.alloc_in_group_by_scan(g, k) {
                    return Ok(addr);
                }
            }
            Err(FsError::NoSpace)
        }

        fn alloc_in_group_by_scan(&mut self, gi: usize, k: u32) -> Option<u64> {
            let blocks = self.frags_per_group / self.fpb as u64;
            let rotor = self.groups[gi].rotor;
            if k < self.fpb {
                for bi in 0..blocks {
                    let b = (rotor + bi) % blocks;
                    let g = &self.groups[gi];
                    if block_partially_used(g, b) {
                        if let Some(local) = find_run_in_block(g, b, k) {
                            return Some(self.take(gi, local, k));
                        }
                    }
                }
            }
            for bi in 0..blocks {
                let b = (rotor + bi) % blocks;
                if let Some(local) = find_run_in_block(&self.groups[gi], b, k) {
                    return Some(self.take(gi, local, k));
                }
            }
            None
        }
    }

    /// The first offset within block `b` holding `k` consecutive free
    /// fragments, if any.
    fn find_run_in_block(g: &Group, b: u64, k: u32) -> Option<u64> {
        let base = b * g.fpb as u64;
        let mut run = 0u32;
        for off in 0..g.fpb {
            if g.get(base + off as u64) {
                run = 0;
            } else {
                run += 1;
                if run == k {
                    return Some(base + (off + 1 - k) as u64);
                }
            }
        }
        None
    }

    /// `true` if any fragment in block `b` is allocated.
    fn block_partially_used(g: &Group, b: u64) -> bool {
        let base = b * g.fpb as u64;
        (0..g.fpb).any(|off| g.get(base + off as u64))
    }

    /// One step of the oracle workload; operands are reduced modulo the
    /// live state when the step runs.
    #[derive(Debug, Clone)]
    enum Step {
        Alloc { pref: u32, k: u32 },
        Free(usize),
        Extend(usize, u32),
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0u32..8, 1u32..=64).prop_map(|(pref, k)| Step::Alloc { pref, k }),
            (0u32..8, 1u32..=64).prop_map(|(pref, k)| Step::Alloc { pref, k }),
            any::<usize>().prop_map(Step::Free),
            (any::<usize>(), 1u32..=64).prop_map(|(i, k)| Step::Extend(i, k)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The summary-driven allocator returns the same address (or
        /// `NoSpace`) as the bit-by-bit scan for every request, under
        /// random alloc / free / extend-in-place sequences. Geometries
        /// cover 1 to 8 fragments per block, groups whose block count is
        /// not a multiple of a bitmap word's blocks, and small regions
        /// that fill up.
        #[test]
        fn alloc_matches_bit_scan(
            fpb_log in 0u32..4,
            blocks_per_group in 1u64..90,
            ngroups in 1u32..4,
            steps in prop::collection::vec(arb_step(), 1..400),
        ) {
            let fpb = 1u32 << fpb_log;
            let data = blocks_per_group * fpb as u64 * ngroups as u64;
            let mut fast = FragAllocator::new(fpb, 7, data, ngroups);
            let mut scan = fast.clone();
            let mut live: Vec<(u64, u32)> = Vec::new();
            for step in steps {
                match step {
                    Step::Alloc { pref, k } => {
                        let k = 1 + (k - 1) % fpb;
                        let got = fast.alloc(pref % ngroups, k);
                        prop_assert_eq!(got, scan.alloc_by_scan(pref % ngroups, k));
                        if let Ok(addr) = got {
                            live.push((addr, k));
                        }
                    }
                    Step::Free(i) if !live.is_empty() => {
                        let (addr, k) = live.swap_remove(i % live.len());
                        fast.free(addr, k);
                        scan.free(addr, k);
                    }
                    Step::Extend(i, grow) if !live.is_empty() => {
                        let i = i % live.len();
                        let (addr, k) = live[i];
                        if k < fpb {
                            let new_k = k + 1 + (grow - 1) % (fpb - k);
                            let ok = fast.extend_in_place(addr, k, new_k);
                            prop_assert_eq!(ok, scan.extend_in_place(addr, k, new_k));
                            if ok {
                                live[i].1 = new_k;
                            }
                        }
                    }
                    _ => {}
                }
                prop_assert_eq!(fast.free_frags(), scan.free_frags());
                prop_assert!(fast.check_summary().is_ok());
            }
            for (f, s) in fast.groups.iter().zip(&scan.groups) {
                prop_assert_eq!(&f.bits, &s.bits);
            }
        }
    }

    #[test]
    fn word_sized_blocks_allocate_and_summarize() {
        // fpb = 64: one block per bitmap word.
        let mut a = FragAllocator::new(64, 0, 64 * 5, 1);
        let x = a.alloc(0, 3).unwrap();
        let y = a.alloc(0, 64).unwrap();
        assert_eq!((x, y), (0, 64));
        assert!(a.extend_in_place(x, 3, 64));
        a.free(y, 64);
        assert_eq!(a.alloc(0, 10).unwrap(), 64);
        assert_eq!(a.free_frags(), 64 * 5 - 64 - 10);
        a.check_summary().unwrap();
    }

    #[test]
    fn check_summary_catches_a_stale_summary() {
        let mut a = alloc4();
        a.alloc(0, 1).unwrap();
        a.check_summary().unwrap();
        a.groups[0].frsum[4] += 1;
        assert!(a.check_summary().is_err());
    }

    fn alloc4() -> FragAllocator {
        // data_start 16, 64 data frags, 2 groups of 32, fpb 4.
        FragAllocator::new(4, 16, 64, 2)
    }

    #[test]
    fn geometry() {
        let a = alloc4();
        assert_eq!(a.total_frags(), 64);
        assert_eq!(a.free_frags(), 64);
        assert_eq!(a.frags_per_block(), 4);
    }

    #[test]
    fn full_block_is_aligned() {
        let mut a = alloc4();
        for _ in 0..16 {
            let addr = a.alloc(0, 4).unwrap();
            assert_eq!((addr - 16) % 4, 0, "block at {addr} not aligned");
        }
        assert_eq!(a.free_frags(), 0);
        assert_eq!(a.alloc(0, 4), Err(FsError::NoSpace));
    }

    #[test]
    fn fragments_pack_into_partial_blocks() {
        let mut a = alloc4();
        let x = a.alloc(0, 1).unwrap();
        let y = a.alloc(0, 1).unwrap();
        // Both fragments land in the same block window.
        assert_eq!((x - 16) / 4, (y - 16) / 4);
        assert_ne!(x, y);
    }

    #[test]
    fn fragments_do_not_cross_block_boundary() {
        let mut a = alloc4();
        let x = a.alloc(0, 3).unwrap();
        let y = a.alloc(0, 3).unwrap();
        for addr in [x, y] {
            let local = addr - 16;
            assert_eq!(local / 4, (local + 2) / 4, "run crosses block boundary");
        }
    }

    #[test]
    fn free_makes_space_reusable() {
        let mut a = alloc4();
        let mut addrs = Vec::new();
        while let Ok(addr) = a.alloc(0, 4) {
            addrs.push(addr);
        }
        for &addr in &addrs {
            a.free(addr, 4);
        }
        assert_eq!(a.free_frags(), 64);
        assert!(a.alloc(0, 4).is_ok());
    }

    #[test]
    fn extend_in_place_success_and_failure() {
        let mut a = alloc4();
        let x = a.alloc(0, 1).unwrap();
        assert!(a.extend_in_place(x, 1, 2));
        assert!(a.is_allocated(x, 2));
        // Block the next fragment, then extension must fail.
        let y = a.alloc(0, 1).unwrap();
        assert_eq!(y, x + 2); // Packed right after.
        assert!(!a.extend_in_place(x, 2, 3));
        // At the block edge extension also fails.
        let z = a.alloc(0, 3).unwrap();
        let local = z - 16;
        assert_eq!(local % 4, 0); // Starts a fresh block.
        assert!(a.extend_in_place(z, 3, 4)); // Room to grow to 4.
    }

    #[test]
    fn spills_to_next_group_when_full() {
        let mut a = alloc4();
        // Fill group 0 (32 frags = 8 blocks).
        for _ in 0..8 {
            a.alloc(0, 4).unwrap();
        }
        let addr = a.alloc(0, 4).unwrap();
        assert_eq!(a.group_of(addr), 1);
    }

    #[test]
    fn prefers_requested_group() {
        let mut a = alloc4();
        let addr = a.alloc(1, 4).unwrap();
        assert_eq!(a.group_of(addr), 1);
    }

    #[test]
    fn ino_allocator_basics() {
        let mut a = InoAllocator::new(8);
        assert_eq!(a.free_count(), 6); // 0 and 1 reserved.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..6 {
            let ino = a.alloc().unwrap();
            assert!((2..8).contains(&ino));
            assert!(seen.insert(ino));
        }
        assert_eq!(a.alloc(), Err(FsError::NoInodes));
        a.release(5);
        assert_eq!(a.alloc().unwrap(), 5);
    }
}
