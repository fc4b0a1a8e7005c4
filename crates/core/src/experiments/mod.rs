//! Experiment drivers: one module per table or figure of the paper.
//!
//! Every module exposes `run(&TraceSet) -> <Results>` where the results
//! type carries the measured numbers and renders a report (with the
//! paper's published values alongside) via `Display`.
//!
//! The Section 6 cache experiments also expose `configs(fidelity)`,
//! the A5 cells they read. Their union, [`section6_configs`], is what
//! the [`TraceSet`] plan simulates, once per set; each experiment's
//! `run` only looks its cells up ([`TraceSet::cells`]).

use cachesim::{CacheConfig, Fidelity};

#[cfg(doc)]
use crate::TraceSet;

pub mod ablations;
pub mod comparisons;
pub mod fidelity;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig7;
pub mod gaps;
pub mod residency;
pub mod server;
pub mod table1;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;

/// Every A5 cache cell the Section 6 experiments read at `fidelity`,
/// deduplicated in first-seen order.
pub fn section6_configs(fidelity: Fidelity) -> Vec<CacheConfig> {
    let experiments: [fn(Fidelity) -> Vec<CacheConfig>; 7] = [
        table1::configs,
        table6::configs,
        table7::configs,
        fig7::configs,
        residency::configs,
        fidelity::configs,
        ablations::configs,
    ];
    let mut union: Vec<CacheConfig> = Vec::new();
    for config in experiments
        .into_iter()
        .flat_map(|configs| configs(fidelity))
    {
        if !union.contains(&config) {
            union.push(config);
        }
    }
    union
}
