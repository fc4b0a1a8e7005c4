//! Expansion-sharing audit for the experiment drivers.
//!
//! The cache experiments read one Section 6 plan per trace set. The
//! first experiment to run builds it: the sweep engine expands the A5
//! trace once per distinct (trace, expansion key) group of the
//! experiments' union, not once per cell, plus once for the server
//! merge. Every later cache experiment only looks cells up and expands
//! nothing. The counter behind [`cachesim::expansion_count`] is
//! process-global, so this binary holds a single test and nothing
//! else — a concurrent test that touched the simulator would perturb
//! the before/after diffs.

use bsdtrace::{experiments, ReproConfig, TraceSet};
use cachesim::{CacheConfig, ExpansionKey, Fidelity};

/// A cache experiment, run and rendered.
type Experiment = fn(&TraceSet) -> String;

/// The distinct expansion keys of `configs`.
fn keys(configs: &[CacheConfig]) -> Vec<ExpansionKey> {
    let mut keys: Vec<ExpansionKey> = Vec::new();
    for key in configs.iter().map(ExpansionKey::of) {
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    keys
}

#[test]
fn experiments_share_one_expansion_per_trace() {
    let set = TraceSet::generate_a5(&ReproConfig {
        hours: 0.1,
        seed: 7,
        ..ReproConfig::default()
    })
    .expect("trace");
    let fidelity = set.fidelity();
    assert_eq!(fidelity, Fidelity::Block);

    // Each experiment's cells group into as few keys as its grid
    // allows: Table VI (6 sizes x 4 policies) and Table VII (6 block
    // sizes x 4 cache sizes; block size is consumption-only) one each,
    // Fig 7 one per paging mode, the ablations one per rw-billing
    // variant, the fidelity comparison one per fidelity.
    for (name, configs, want) in [
        ("table6", experiments::table6::configs(fidelity), 1),
        ("table7", experiments::table7::configs(fidelity), 1),
        ("fig7", experiments::fig7::configs(fidelity), 2),
        ("ablations", experiments::ablations::configs(fidelity), 3),
        ("fidelity", experiments::fidelity::configs(fidelity), 3),
        ("server", experiments::server::configs(fidelity), 1),
    ] {
        assert_eq!(keys(&configs).len(), want, "{name} expansion keys");
    }
    let union = experiments::section6_configs(fidelity);
    let union_keys = keys(&union).len();
    assert_eq!(union_keys, 6, "block, syscall, open, paging, 2 rw variants");

    // The first cache experiment builds the whole plan: one expansion
    // per union key on A5, one for the merged server stream.
    let before = cachesim::expansion_count();
    experiments::table6::run(&set);
    assert_eq!(
        cachesim::expansion_count() - before,
        union_keys as u64 + 1,
        "the plan must expand once per union key plus once for the server"
    );

    // Every later cache experiment is a lookup.
    let later: [(&str, Experiment); 7] = [
        ("table7", |s| experiments::table7::run(s).to_string()),
        ("fig7", |s| experiments::fig7::run(s).to_string()),
        ("residency", |s| experiments::residency::run(s).to_string()),
        ("fidelity", |s| experiments::fidelity::run(s).to_string()),
        ("ablations", |s| experiments::ablations::run(s).to_string()),
        ("server", |s| experiments::server::run(s).to_string()),
        ("table1", |s| experiments::table1::run(s).to_string()),
    ];
    for (name, run) in later {
        let before = cachesim::expansion_count();
        run(&set);
        assert_eq!(
            cachesim::expansion_count() - before,
            0,
            "{name} must read the plan without expanding"
        );
    }
}
