//! Ablations of the simulator's design choices (DESIGN.md §5): how much
//! each mechanism contributes to the headline cache results.

use std::fmt;

use cachesim::{CacheConfig, Fidelity, Replacement, RwHandling, WritePolicy};

use crate::report::{pct, Table};
use crate::TraceSet;

/// One ablation variant and its outcome.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Short name of the variant.
    pub name: String,
    /// Disk I/Os under this variant.
    pub disk_ios: u64,
    /// Miss ratio under this variant.
    pub miss_ratio: f64,
}

/// All ablation results (1 MB cache, 4 KB blocks, delayed write unless
/// the variant says otherwise).
pub struct Ablations {
    /// The baseline configuration's result.
    pub baseline: Variant,
    /// The ablated variants.
    pub variants: Vec<Variant>,
}

/// The ablation variants, baseline first, each with its A5 cell.
fn variants(fidelity: Fidelity) -> Vec<(&'static str, CacheConfig)> {
    let base = CacheConfig {
        cache_bytes: 1 << 20,
        block_size: 4096,
        write_policy: WritePolicy::DelayedWrite,
        fidelity,
        ..CacheConfig::default()
    };
    // The first four share the baseline expansion; each read-write
    // billing variant gets its own (rw_handling changes the event
    // stream itself).
    vec![
        ("baseline (LRU, elision, invalidation)", base.clone()),
        (
            "FIFO replacement",
            CacheConfig {
                replacement: Replacement::Fifo,
                ..base.clone()
            },
        ),
        (
            "no whole-block-overwrite elision",
            CacheConfig {
                whole_block_elision: false,
                ..base.clone()
            },
        ),
        (
            "no delete/overwrite invalidation",
            CacheConfig {
                invalidate_on_delete: false,
                ..base.clone()
            },
        ),
        (
            "read-write runs billed as reads",
            CacheConfig {
                rw_handling: RwHandling::Read,
                ..base.clone()
            },
        ),
        (
            "read-write runs billed as both",
            CacheConfig {
                rw_handling: RwHandling::Both,
                ..base
            },
        ),
    ]
}

/// The A5 cells of the ablations, baseline first.
pub fn configs(fidelity: Fidelity) -> Vec<CacheConfig> {
    variants(fidelity).into_iter().map(|(_, c)| c).collect()
}

/// Reads all ablations from the set's Section 6 plan.
pub fn run(set: &TraceSet) -> Ablations {
    let (names, configs): (Vec<&str>, Vec<CacheConfig>) =
        variants(set.fidelity()).into_iter().unzip();
    let mut measured = names
        .into_iter()
        .zip(set.cells(&configs))
        .map(|(name, m)| Variant {
            name: name.to_string(),
            disk_ios: m.disk_ios(),
            miss_ratio: m.miss_ratio(),
        });
    let baseline = measured.next().expect("baseline present");
    let variants = measured.collect();
    Ablations { baseline, variants }
}

impl fmt::Display for Ablations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Ablations (a5, 1 MB cache, 4 KB blocks, delayed write)",
            &["Variant", "disk I/Os", "miss ratio", "vs baseline"],
        );
        t.row(vec![
            self.baseline.name.clone(),
            self.baseline.disk_ios.to_string(),
            pct(self.baseline.miss_ratio),
            "—".into(),
        ]);
        for v in &self.variants {
            let delta = v.disk_ios as f64 / self.baseline.disk_ios.max(1) as f64 - 1.0;
            t.row(vec![
                v.name.clone(),
                v.disk_ios.to_string(),
                pct(v.miss_ratio),
                format!("{:+.1}%", 100.0 * delta),
            ]);
        }
        t.note("Elision and invalidation are the mechanisms behind the paper's");
        t.note("delayed-write result; LRU-vs-FIFO shows the recency assumption's value.");
        write!(f, "{t}")
    }
}
