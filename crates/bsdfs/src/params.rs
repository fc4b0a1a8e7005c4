//! File system geometry and tuning parameters.

/// Geometry and cache parameters for a [`crate::Fs`] instance.
///
/// Defaults mirror a typical 4.2 BSD configuration from the paper's era:
/// 4096-byte blocks divided into 1024-byte fragments, and a buffer cache
/// of about 400 kbytes ("about 10% of main memory", Section 6) flushed
/// every 30 seconds by `sync`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsParams {
    /// Fragment size in bytes; the allocation and addressing unit.
    pub frag_size: u32,
    /// Fragments per full block (block size = `frag_size * frags_per_block`).
    pub frags_per_block: u32,
    /// Total data fragments on the "disk" (excluding superblock and inode
    /// region).
    pub data_frags: u64,
    /// Number of inodes.
    pub ninodes: u32,
    /// Number of cylinder groups the data region is divided into.
    pub cyl_groups: u32,
    /// Buffer cache capacity in bytes.
    pub bcache_bytes: u64,
    /// Directory name cache capacity in entries.
    pub ncache_entries: usize,
    /// In-core inode table capacity (unreferenced entries kept cached).
    pub icache_entries: usize,
    /// Automatic `sync` interval in milliseconds (`None` = delayed write:
    /// dirty buffers only reach disk on eviction or explicit `sync`).
    pub sync_interval_ms: Option<u64>,
}

impl FsParams {
    /// A typical 4.2 BSD configuration: 4096/1024 blocks, a 128 Mbyte
    /// data region, and a 400 kbyte buffer cache synced every 30 s.
    pub fn bsd42() -> Self {
        FsParams {
            frag_size: 1024,
            frags_per_block: 4,
            data_frags: 128 * 1024, // 128 Mbytes of data space.
            ninodes: 65_536,
            cyl_groups: 16,
            bcache_bytes: 400 * 1024,
            ncache_entries: 512,
            icache_entries: 256,
            sync_interval_ms: Some(30_000),
        }
    }

    /// A memory-frugal configuration for fleet-scale trace generation
    /// (DESIGN.md §14): identical block geometry and cache sizes to
    /// [`FsParams::bsd42`] — so per-machine cache behavior is
    /// unchanged — but a 48 Mbyte data region and a quarter of the
    /// inodes. Hundreds of simulated machines each carry a full `Fs`;
    /// the allocator bitmaps and inode table dominate that footprint
    /// and scale with the data region, not with the cache.
    pub fn fleet() -> Self {
        FsParams {
            data_frags: 48 * 1024, // 48 Mbytes of data space.
            ninodes: 16_384,
            cyl_groups: 8,
            ..FsParams::bsd42()
        }
    }

    /// A small configuration for unit tests: 8 Mbytes of data space.
    pub fn small() -> Self {
        FsParams {
            frag_size: 1024,
            frags_per_block: 4,
            data_frags: 8 * 1024,
            ninodes: 4_096,
            cyl_groups: 4,
            bcache_bytes: 64 * 1024,
            ncache_entries: 64,
            icache_entries: 32,
            sync_interval_ms: Some(30_000),
        }
    }

    /// A tiny configuration that exhausts space quickly, for ENOSPC and
    /// allocator stress tests: 256 kbytes of data space.
    pub fn tiny() -> Self {
        FsParams {
            frag_size: 1024,
            frags_per_block: 4,
            data_frags: 256,
            ninodes: 64,
            cyl_groups: 2,
            bcache_bytes: 16 * 1024,
            ncache_entries: 16,
            icache_entries: 8,
            sync_interval_ms: Some(30_000),
        }
    }

    /// Full block size in bytes.
    pub fn block_size(&self) -> u32 {
        self.frag_size * self.frags_per_block
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.frag_size == 0 || !self.frag_size.is_power_of_two() {
            return Err("frag_size must be a positive power of two");
        }
        if self.frags_per_block == 0 || !self.frags_per_block.is_power_of_two() {
            return Err("frags_per_block must be a positive power of two");
        }
        if self.frags_per_block > 64 {
            // A block's fragments must fit in one allocator bitmap word.
            return Err("frags_per_block must be at most 64");
        }
        if self.cyl_groups == 0 {
            return Err("cyl_groups must be positive");
        }
        if self.data_frags / u64::from(self.cyl_groups) < u64::from(self.frags_per_block) {
            return Err("each cylinder group needs at least one full block");
        }
        if self.ninodes < 2 {
            return Err("need at least two inodes (root and one file)");
        }
        if self.bcache_bytes < self.block_size() as u64 * 4 {
            return Err("buffer cache must hold at least four blocks");
        }
        Ok(())
    }
}

impl Default for FsParams {
    fn default() -> Self {
        FsParams::bsd42()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        FsParams::bsd42().validate().unwrap();
        FsParams::fleet().validate().unwrap();
        FsParams::small().validate().unwrap();
        FsParams::tiny().validate().unwrap();
    }

    #[test]
    fn block_size_is_product() {
        assert_eq!(FsParams::bsd42().block_size(), 4096);
    }

    #[test]
    fn fleet_preset_keeps_cache_geometry() {
        let fleet = FsParams::fleet();
        let bsd = FsParams::bsd42();
        assert_eq!(fleet.block_size(), bsd.block_size());
        assert_eq!(fleet.bcache_bytes, bsd.bcache_bytes);
        assert_eq!(fleet.ncache_entries, bsd.ncache_entries);
        assert_eq!(fleet.icache_entries, bsd.icache_entries);
        assert_eq!(fleet.sync_interval_ms, bsd.sync_interval_ms);
        assert!(fleet.data_frags < bsd.data_frags);
        assert!(fleet.ninodes < bsd.ninodes);
    }

    #[test]
    fn validation_rejects_bad_geometry() {
        let mut p = FsParams::small();
        p.frag_size = 1000;
        assert!(p.validate().is_err());

        let mut p = FsParams::small();
        p.cyl_groups = 0;
        assert!(p.validate().is_err());

        let mut p = FsParams::small();
        p.data_frags = 4;
        p.cyl_groups = 4;
        assert!(p.validate().is_err());

        let mut p = FsParams::small();
        p.bcache_bytes = 0;
        assert!(p.validate().is_err());

        let mut p = FsParams::small();
        p.frag_size = 64;
        p.frags_per_block = 128;
        assert!(p.validate().is_err());
        p.frags_per_block = 64;
        p.validate().unwrap();
    }
}
