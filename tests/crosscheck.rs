//! Cross-crate consistency: the cache simulator against independent
//! computations on the same real trace.

use bsdtrace::{experiments, ReproConfig, TraceSet};
use cachesim::{replay_events, CacheConfig, Fidelity, ReplayEvent, Simulator, WritePolicy};
use fstrace::merged_records;
use workload::{generate, MachineProfile, WorkloadConfig};

fn trace() -> fstrace::Trace {
    generate(&WorkloadConfig {
        profile: MachineProfile::ucbarpa(),
        seed: 99,
        duration_hours: 0.15,
        ..WorkloadConfig::default()
    })
    .expect("generation")
    .trace
}

#[test]
fn logical_accesses_match_independent_block_count() {
    let t = trace();
    let cfg = CacheConfig {
        block_size: 4096,
        write_policy: WritePolicy::DelayedWrite,
        ..CacheConfig::default()
    };
    let events = replay_events(&t, &cfg);
    let mut expected = 0u64;
    for ev in &events {
        if let ReplayEvent::Transfer { offset, len, .. } = *ev {
            if len > 0 {
                expected += (offset + len - 1) / 4096 - offset / 4096 + 1;
            }
        }
    }
    let m = Simulator::run_events(&events, &cfg);
    assert_eq!(m.logical_accesses(), expected);
}

#[test]
fn policy_ordering_holds_on_real_traces() {
    let t = trace();
    let base = CacheConfig {
        cache_bytes: 2 << 20,
        block_size: 4096,
        ..CacheConfig::default()
    };
    let events = replay_events(&t, &base);
    let run = |policy| {
        Simulator::run_events(
            &events,
            &CacheConfig {
                write_policy: policy,
                ..base.clone()
            },
        )
        .disk_ios()
    };
    let wt = run(WritePolicy::WriteThrough);
    let f30 = run(WritePolicy::FlushBack {
        interval_ms: 30_000,
    });
    let f300 = run(WritePolicy::FlushBack {
        interval_ms: 300_000,
    });
    let dw = run(WritePolicy::DelayedWrite);
    assert!(wt >= f30, "{wt} < {f30}");
    assert!(f30 >= f300, "{f30} < {f300}");
    assert!(f300 >= dw, "{f300} < {dw}");
}

#[test]
fn bigger_caches_never_do_more_io() {
    let t = trace();
    let base = CacheConfig {
        block_size: 4096,
        write_policy: WritePolicy::DelayedWrite,
        ..CacheConfig::default()
    };
    let events = replay_events(&t, &base);
    let mut prev = u64::MAX;
    for mb in [1u64, 2, 4, 8, 16] {
        let m = Simulator::run_events(
            &events,
            &CacheConfig {
                cache_bytes: mb << 20,
                ..base.clone()
            },
        );
        assert!(m.disk_ios() <= prev, "{} MB did more I/O", mb);
        prev = m.disk_ios();
    }
}

#[test]
fn elision_and_invalidation_only_help() {
    let t = trace();
    let base = CacheConfig {
        cache_bytes: 1 << 20,
        block_size: 4096,
        write_policy: WritePolicy::DelayedWrite,
        ..CacheConfig::default()
    };
    let full = Simulator::run(&t, &base).disk_ios();
    let no_elide = Simulator::run(
        &t,
        &CacheConfig {
            whole_block_elision: false,
            ..base.clone()
        },
    )
    .disk_ios();
    let no_inval = Simulator::run(
        &t,
        &CacheConfig {
            invalidate_on_delete: false,
            ..base.clone()
        },
    )
    .disk_ios();
    assert!(full <= no_elide, "elision hurt: {full} > {no_elide}");
    assert!(full <= no_inval, "invalidation hurt: {full} > {no_inval}");
    // And they matter: delete invalidation is the delayed-write win.
    assert!(no_inval > full, "invalidation had no effect");
}

#[test]
fn write_through_miss_ratio_floor_is_write_fraction() {
    // Under write-through every logical write costs a disk write, so
    // the miss ratio can never drop below the write fraction.
    let t = trace();
    let cfg = CacheConfig {
        cache_bytes: 64 << 20, // Effectively infinite.
        block_size: 4096,
        write_policy: WritePolicy::WriteThrough,
        ..CacheConfig::default()
    };
    let m = Simulator::run(&t, &cfg);
    let write_fraction = m.logical_writes as f64 / m.logical_accesses() as f64;
    assert!(m.miss_ratio() >= write_fraction - 1e-9);
    assert!(write_fraction > 0.1, "workload writes too little");
}

/// The Section 6 plan against direct simulation: every A5 cell equals
/// `Simulator::run` of its config, and every server cell equals a
/// direct replay of the merged stream, at each replay fidelity.
#[test]
fn section6_plan_matches_direct_simulation() {
    for fidelity in Fidelity::ALL {
        let set = TraceSet::generate(&ReproConfig {
            hours: 0.1,
            seed: 3,
            fidelity,
        })
        .expect("trace set");
        let a5 = &set.a5().out.trace;
        let union = experiments::section6_configs(fidelity);
        for (cfg, m) in union.iter().zip(set.cells(&union)) {
            assert_eq!(*m, Simulator::run(a5, cfg), "{cfg:?}");
        }
        let traces: Vec<&fstrace::Trace> = set.entries.iter().map(|e| &e.out.trace).collect();
        let server = experiments::server::configs(fidelity);
        for (cfg, m) in server.iter().zip(set.server_cells(&server)) {
            let merged = merged_records(&traces).map(|r| r.expect("in-memory merge"));
            assert_eq!(*m, Simulator::run_stream(merged, cfg), "{cfg:?}");
        }
    }
}
