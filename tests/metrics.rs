//! Metrics invariants over the `obs` registry.
//!
//! Two families of checks live here:
//!
//! 1. Per-instance `bsdfs` cache counters, exported into a *local*
//!    registry, must agree with the legacy accessor snapshots and obey
//!    the accounting identity `read_hits + read_misses ==
//!    logical_reads`.
//! 2. Global sweep counters must show that a set's Section 6 plan
//!    expands the trace exactly once per (`fidelity` × `rw_handling` ×
//!    `simulate_paging`) group, and simulates and times every cell
//!    once, for every worker count, with aggregate traffic satisfying
//!    the same identity. Later cache experiments must not sweep again,
//!    and the rendered Section 6 output must stay bit-identical across
//!    `--jobs` settings.
//!
//! The global registry's counters are process-wide, so this binary
//! holds a single test and nothing else: integration tests in one
//! binary run concurrently, and any other test driving the simulator
//! would perturb the before/after snapshot diffs.

use bsdtrace::{experiments, ReproConfig, TraceSet};
use obs::Registry;

#[test]
fn obs_metrics_invariants() {
    let set = TraceSet::generate_a5(&ReproConfig {
        hours: 0.1,
        seed: 7,
        ..ReproConfig::default()
    })
    .expect("trace");
    let entry = set.a5();

    // --- Per-instance bsdfs cache counters (local registry) ---
    let reg = Registry::new();
    entry.out.fs.register_obs(&reg, "bsdfs.a5");
    let snap = reg.snapshot();
    let c = |name: &str| {
        snap.counter(name)
            .unwrap_or_else(|| panic!("counter {name} must be registered"))
    };

    let bstats = entry.out.fs.bcache_stats();
    assert_eq!(c("bsdfs.a5.bufcache.read_hits"), bstats.read_hits);
    assert_eq!(c("bsdfs.a5.bufcache.read_misses"), bstats.read_misses);
    assert_eq!(c("bsdfs.a5.bufcache.logical_reads"), bstats.logical_reads);
    assert!(bstats.logical_reads > 0, "workload must issue block reads");
    assert_eq!(
        c("bsdfs.a5.bufcache.read_hits") + c("bsdfs.a5.bufcache.read_misses"),
        c("bsdfs.a5.bufcache.logical_reads"),
        "every logical read is exactly one hit or one miss"
    );

    let nstats = entry.out.fs.ncache_stats();
    assert_eq!(c("bsdfs.a5.namecache.hits"), nstats.hits);
    assert_eq!(c("bsdfs.a5.namecache.misses"), nstats.misses);
    assert!(nstats.hits + nstats.misses > 0, "lookups must be counted");

    let istats = entry.out.fs.itable_stats();
    assert_eq!(c("bsdfs.a5.itable.hits"), istats.hits);
    assert_eq!(c("bsdfs.a5.itable.misses"), istats.misses);

    // --- Global sweep counters across worker counts ---
    // A fresh set per worker count: the Section 6 plan is computed once
    // per set, by the first cache experiment that runs on it.
    let global = obs::global();
    let mut section6_outputs: Vec<String> = Vec::new();
    for jobs in [1usize, 2, 8] {
        cachesim::sweep::set_default_jobs(jobs);
        let set = TraceSet::generate_a5(&ReproConfig {
            hours: 0.1,
            seed: 7,
            ..ReproConfig::default()
        })
        .expect("trace");
        let union = experiments::section6_configs(set.fidelity());
        let server = experiments::server::configs(set.fidelity());
        assert_eq!(
            union.len(),
            103,
            "distinct A5 cells of the cache experiments"
        );
        let cells = (union.len() + server.len()) as u64;

        // Table VI triggers the plan: the A5 union in its six
        // (fidelity x rw_handling x paging) groups, and the server grid
        // in one.
        let before = global.snapshot();
        let table6 = experiments::table6::run(&set);
        let after = global.snapshot();
        let d = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        assert_eq!(
            d("cachesim.replay.expansions"),
            7,
            "the plan expands once per group at jobs={jobs}"
        );
        assert_eq!(d("cachesim.sweep.groups"), 7, "jobs={jobs}");
        assert_eq!(d("cachesim.sweep.cells"), cells, "jobs={jobs}");
        // Every LRU cell with a partner profiles, at every fidelity.
        // The five fallbacks: FIFO, elision off, invalidation off, and
        // the two partnerless rw-billing variants.
        assert_eq!(d("cachesim.stack.profiled_cells"), 112, "jobs={jobs}");
        assert_eq!(d("cachesim.stack.fallback_cells"), 5, "jobs={jobs}");
        assert_eq!(
            d("cachesim.sweep.read_hits") + d("cachesim.sweep.read_misses"),
            d("cachesim.sweep.logical_reads"),
            "sweep aggregate hit/miss accounting at jobs={jobs}"
        );
        assert!(d("cachesim.sweep.logical_reads") > 0, "jobs={jobs}");
        let cell_count_before = before.span("cachesim.sweep.cell").map_or(0, |s| s.count);
        let cell_count_after = after.span("cachesim.sweep.cell").map_or(0, |s| s.count);
        assert_eq!(
            cell_count_after - cell_count_before,
            cells,
            "every cell is timed exactly once at jobs={jobs}"
        );

        // Every other Section 6 experiment reads the plan: no sweep
        // runs, nothing expands.
        let before = global.snapshot();
        let rendered = [
            table6.to_string(),
            experiments::table7::run(&set).to_string(),
            experiments::fig7::run(&set).to_string(),
            experiments::residency::run(&set).to_string(),
            experiments::fidelity::run(&set).to_string(),
            experiments::ablations::run(&set).to_string(),
            experiments::server::run(&set).to_string(),
            experiments::table1::run(&set).to_string(),
        ];
        let after = global.snapshot();
        let d = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        assert_eq!(d("cachesim.replay.expansions"), 0, "jobs={jobs}");
        assert_eq!(d("cachesim.sweep.groups"), 0, "jobs={jobs}");
        section6_outputs.push(rendered.concat());
    }
    cachesim::sweep::set_default_jobs(0);

    assert!(
        section6_outputs.windows(2).all(|w| w[0] == w[1]),
        "Section 6 rendering must be bit-identical across --jobs 1/2/8"
    );
}
