//! Table I: the paper's selected headline results, recomputed.

use std::fmt;

use cachesim::{CacheConfig, CacheMetrics, Fidelity, WritePolicy};

use crate::report::Table;
use crate::TraceSet;

/// Headline numbers across the trace set (cache results from A5).
pub struct Table1 {
    /// Range of average bytes/second per active user (10-minute
    /// windows) across traces.
    pub throughput_per_user: (f64, f64),
    /// Fraction of accesses that are whole-file transfers (range).
    pub whole_file_accesses: (f64, f64),
    /// Fraction of bytes moved whole-file (range).
    pub whole_file_bytes: (f64, f64),
    /// Fraction of files open < 0.5 s and < 10 s (ranges collapsed to
    /// the A5 values for brevity).
    pub open_half_sec: f64,
    /// Fraction open under ten seconds.
    pub open_ten_sec: f64,
    /// Fraction of accesses to files under 10 kbytes (A5).
    pub small_file_accesses: f64,
    /// Fraction of new bytes dead within 30 s / 5 min (A5).
    pub bytes_dead_30s: f64,
    /// Fraction of new bytes dead within five minutes.
    pub bytes_dead_5min: f64,
    /// Disk-access elimination at a 4-Mbyte cache: (write-through,
    /// delayed-write), each as a fraction of accesses eliminated.
    pub four_mb_elimination: (f64, f64),
    /// Block size with fewest I/Os at 400 KB and at 4 MB (kbytes).
    pub best_block_kb: (u64, u64),
}

/// Block sizes (kbytes) the best-block rows choose among.
const BLOCK_KB: [u64; 6] = [1, 2, 4, 8, 16, 32];

/// The cache sizes of the best-block rows: 400 KB and 4 MB.
const BEST_BLOCK_CACHE_BYTES: [u64; 2] = [400 * 1024, 4 << 20];

fn cell(
    cache_bytes: u64,
    block_size: u64,
    write_policy: WritePolicy,
    fidelity: Fidelity,
) -> CacheConfig {
    CacheConfig {
        cache_bytes,
        block_size,
        write_policy,
        fidelity,
        ..CacheConfig::default()
    }
}

/// The A5 cells Table I reads: the 4 MB write-through and
/// delayed-write cells, then the 400 KB and 4 MB caches at every block
/// size from 1 to 32 KB under delayed write.
pub fn configs(fidelity: Fidelity) -> Vec<CacheConfig> {
    let mut configs = vec![
        cell(4 << 20, 4096, WritePolicy::WriteThrough, fidelity),
        cell(4 << 20, 4096, WritePolicy::DelayedWrite, fidelity),
    ];
    for cache_bytes in BEST_BLOCK_CACHE_BYTES {
        for kb in BLOCK_KB {
            configs.push(cell(
                cache_bytes,
                kb * 1024,
                WritePolicy::DelayedWrite,
                fidelity,
            ));
        }
    }
    configs
}

/// Recomputes every Table I line, reusing each entry's shared
/// single-pass analysis for the Section 5 rows.
pub fn run(set: &TraceSet) -> Table1 {
    // Looked up first: the lookup that builds the Section 6 plan also
    // warms every entry's analysis beside the cache sweeps.
    let cache = set.cells(&configs(set.fidelity()));
    let (elimination, best_block_rows) = cache.split_at(2);
    let (row_400kb, row_4mb) = best_block_rows.split_at(BLOCK_KB.len());
    // The block size with the fewest disk I/Os (the first on a tie).
    let best_block = |row: &[&CacheMetrics]| -> u64 {
        BLOCK_KB
            .into_iter()
            .zip(row)
            .min_by_key(|(_, m)| m.disk_ios())
            .map_or(0, |(kb, _)| kb)
    };

    let mut thpt = Vec::new();
    let mut whole_acc = Vec::new();
    let mut whole_bytes = Vec::new();
    for e in &set.entries {
        let suite = e.analysis();
        thpt.push(suite.activity.windows[0].avg_throughput());
        whole_acc.push(suite.sequentiality.whole_file_fraction());
        whole_bytes.push(suite.sequentiality.whole_file_bytes_fraction());
    }
    let minmax = |v: &[f64]| {
        (
            v.iter().cloned().fold(f64::INFINITY, f64::min),
            v.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        )
    };

    let a5_suite = set.a5().analysis();
    let mut ot = a5_suite.open_times.clone();
    let mut sizes = a5_suite.sizes.clone();
    let mut lt = a5_suite.lifetimes.clone();

    Table1 {
        throughput_per_user: minmax(&thpt),
        whole_file_accesses: minmax(&whole_acc),
        whole_file_bytes: minmax(&whole_bytes),
        open_half_sec: ot.fraction_le_secs(0.5),
        open_ten_sec: ot.fraction_le_secs(10.0),
        small_file_accesses: sizes.fraction_of_accesses_le(10 * 1024),
        bytes_dead_30s: lt.fraction_of_bytes_le_secs(30.0),
        bytes_dead_5min: lt.fraction_of_bytes_le_secs(300.0),
        // 4 MB cache: disk-access elimination across policies.
        four_mb_elimination: (
            1.0 - elimination[0].miss_ratio(),
            1.0 - elimination[1].miss_ratio(),
        ),
        best_block_kb: (best_block(row_400kb), best_block(row_4mb)),
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Table I. Selected results (measured vs paper)",
            &["Result", "measured", "paper"],
        );
        t.row(vec![
            "Bytes/sec per active user (10 min)".into(),
            format!(
                "{:.0}-{:.0}",
                self.throughput_per_user.0, self.throughput_per_user.1
            ),
            "~300-600".into(),
        ]);
        t.row(vec![
            "Whole-file transfers (% of accesses)".into(),
            format!(
                "{:.0}-{:.0}%",
                100.0 * self.whole_file_accesses.0,
                100.0 * self.whole_file_accesses.1
            ),
            "~70%".into(),
        ]);
        t.row(vec![
            "Bytes moved whole-file".into(),
            format!(
                "{:.0}-{:.0}%",
                100.0 * self.whole_file_bytes.0,
                100.0 * self.whole_file_bytes.1
            ),
            "~50%".into(),
        ]);
        t.row(vec![
            "Files open < 0.5 s".into(),
            format!("{:.0}%", 100.0 * self.open_half_sec),
            "75%".into(),
        ]);
        t.row(vec![
            "Files open < 10 s".into(),
            format!("{:.0}%", 100.0 * self.open_ten_sec),
            "90%".into(),
        ]);
        t.row(vec![
            "Accesses to files < 10 KB".into(),
            format!("{:.0}%", 100.0 * self.small_file_accesses),
            "~80%".into(),
        ]);
        t.row(vec![
            "New bytes dead within 30 s".into(),
            format!("{:.0}%", 100.0 * self.bytes_dead_30s),
            "20-30%".into(),
        ]);
        t.row(vec![
            "New bytes dead within 5 min".into(),
            format!("{:.0}%", 100.0 * self.bytes_dead_5min),
            "~50%".into(),
        ]);
        t.row(vec![
            "4 MB cache: disk accesses eliminated".into(),
            format!(
                "{:.0}-{:.0}%",
                100.0 * self.four_mb_elimination.0,
                100.0 * self.four_mb_elimination.1
            ),
            "65-90%".into(),
        ]);
        t.row(vec![
            "Best block size (400 KB / 4 MB cache)".into(),
            format!("{} KB / {} KB", self.best_block_kb.0, self.best_block_kb.1),
            "8 KB / 16 KB".into(),
        ]);
        write!(f, "{t}")
    }
}
