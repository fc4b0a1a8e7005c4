//! `repro`: regenerate the paper's tables and figures.
//!
//! ```text
//! repro [EXPERIMENT] [--hours H] [--seed S] [--jobs N] [--metrics PATH]
//!       [--archive DIR] [--fidelity open|syscall|block]
//!
//! EXPERIMENT: all (default) | table1 | table3 | table4 | table5 |
//!             fig1 | fig2 | fig3 | fig4 | gaps | table6 | table7 |
//!             fig7 | residency | compare | fidelity
//!
//! --fidelity selects the replay fidelity for the Section 6 cache
//! simulations (default: block, the paper's simulator; see DESIGN.md
//! §15). Section 5 analyses are fidelity-invariant, the compare
//! experiment is pinned to block, and the `fidelity` experiment always
//! runs all three levels side by side.
//!
//! --jobs N sets the worker count of each cache-simulation sweep pool
//! and of the archive decoder (default: all available cores). It does
//! not cap the process's threads: the Section 6 plan runs the server
//! sweep, with a pool of its own, and one analysis per trace on scoped
//! threads beside the A5 sweep's pool. Results are identical for any N.
//!
//! --metrics PATH writes an `obs/v1` JSON snapshot of every internal
//! metric (cache counters, codec throughput, workload generation,
//! sweep timing) to PATH at exit. Experiment output on stdout stays
//! bit-identical with or without the flag; wall-clock values live only
//! in the JSON and in per-phase timing lines on stderr.
//!
//! --archive DIR caches generated traces as `tracestore` archives
//! under DIR: the first run with a given --hours/--seed writes them,
//! later runs replay them (checksummed, chunk-parallel decode) instead
//! of regenerating. Experiment output is identical with or without
//! the cache. The `compare` experiment needs live file-system state
//! that a replay cannot reconstruct, so runs that include it bypass the
//! cache with a note.
//! ```

use std::path::PathBuf;
use std::time::Instant;

use bsdtrace::{experiments, ReproConfig, TraceSet};

fn main() {
    let mut which = "all".to_string();
    let mut config = ReproConfig::default();
    let mut metrics_path: Option<String> = None;
    let mut jobs_flag: Option<usize> = None;
    let mut archive_dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--hours" => {
                config.hours = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--hours needs a number"));
            }
            "--seed" => {
                config.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--jobs" => {
                let jobs: usize = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("--jobs needs a positive integer"));
                cachesim::sweep::set_default_jobs(jobs);
                jobs_flag = Some(jobs);
            }
            "--metrics" => {
                metrics_path = Some(args.next().unwrap_or_else(|| die("--metrics needs a path")));
            }
            "--archive" => {
                archive_dir = Some(PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| die("--archive needs a directory")),
                ));
            }
            "--fidelity" => {
                config.fidelity = args
                    .next()
                    .and_then(|v| cachesim::Fidelity::parse(&v))
                    .unwrap_or_else(|| die("--fidelity needs one of: open, syscall, block"));
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [EXPERIMENT] [--hours H] [--seed S] [--jobs N] [--metrics PATH]\n\
                     \x20      [--archive DIR] [--fidelity open|syscall|block]\n\
                     --jobs N: workers per sweep pool and archive decoder (not a thread cap)\n\
                     experiments: all table1 table3 table4 table5 fig1 fig2 fig3 fig4\n\
                     \x20            gaps table6 table7 fig7 residency compare ablations\n\
                     \x20            server fidelity"
                );
                return;
            }
            other if !other.starts_with('-') => which = other.to_string(),
            other => die(&format!("unknown flag {other}")),
        }
    }

    let needs_all_traces = matches!(
        which.as_str(),
        "all"
            | "table1"
            | "table3"
            | "table4"
            | "table5"
            | "fig1"
            | "fig2"
            | "fig3"
            | "fig4"
            | "gaps"
            | "server"
    );
    eprintln!(
        "generating {} trace(s), {} simulated hour(s), seed {} ...",
        if needs_all_traces { 3 } else { 1 },
        config.hours,
        config.seed
    );
    // The compare experiment reads the simulated file system's cache
    // counters, which only exist after a live workload run — an
    // archive replay cannot reconstruct them, so runs including it
    // regenerate.
    let includes_compare = matches!(which.as_str(), "all" | "compare");
    if includes_compare && archive_dir.is_some() {
        eprintln!("note: archive cache bypassed ('{which}' includes compare, which needs live file-system state)");
    }
    let trace_cache = archive_dir.as_deref().filter(|_| !includes_compare);
    let jobs = jobs_flag.unwrap_or_else(cachesim::sweep::default_jobs);
    let gen_started = Instant::now();
    let set = {
        let _timing = obs::global().span("repro.generate_traces").start();
        match (needs_all_traces, trace_cache) {
            (true, None) => TraceSet::generate(&config),
            (true, Some(dir)) => TraceSet::generate_cached(&config, dir, jobs),
            (false, None) => TraceSet::generate_a5(&config),
            (false, Some(dir)) => TraceSet::generate_a5_cached(&config, dir, jobs),
        }
    }
    .unwrap_or_else(|e| die(&format!("trace generation failed: {e}")));
    for e in &set.entries {
        eprintln!(
            "  {}: {} records, {:.1} Mbytes transferred",
            e.name,
            e.out.trace.len(),
            e.out.trace.summary().total_mbytes_transferred()
        );
        // Export each file system's cache counters (buffer cache, name
        // cache, inode table) under its trace name.
        e.out
            .fs
            .register_obs(obs::global(), &format!("bsdfs.{}", e.name));
    }
    eprintln!("  [timing] generate_traces: {:.1} ms", ms(gen_started));
    eprintln!();

    // The first cache experiment builds the Section 6 plan; its two
    // shared passes get [timing] lines of their own so the jump in that
    // experiment's time explains itself.
    const PLAN_PASSES: [&str; 2] = ["a5_sweep", "server_sweep"];
    let plan_passes = || {
        let snap = obs::global().snapshot();
        PLAN_PASSES.map(|pass| {
            snap.span(&format!("core.section6.{pass}"))
                .map_or(0, |s| s.total_ns)
        })
    };
    let run_one = |name: &str| {
        let passes_before = plan_passes();
        let started = Instant::now();
        let _timing = obs::global().span(&format!("repro.{name}")).start();
        match name {
            "table1" => println!("{}\n", experiments::table1::run(&set)),
            "table3" => println!("{}\n", experiments::table3::run(&set)),
            "table4" => println!("{}\n", experiments::table4::run(&set)),
            "table5" => println!("{}\n", experiments::table5::run(&set)),
            "fig1" => println!("{}", experiments::fig1::run(&set)),
            "fig2" => println!("{}", experiments::fig2::run(&set)),
            "fig3" => println!("{}\n", experiments::fig3::run(&set)),
            "fig4" => println!("{}", experiments::fig4::run(&set)),
            "gaps" => println!("{}\n", experiments::gaps::run(&set)),
            "table6" => println!("{}\n", experiments::table6::run(&set)),
            "table7" => println!("{}\n", experiments::table7::run(&set)),
            "fig7" => println!("{}\n", experiments::fig7::run(&set)),
            "residency" => println!("{}\n", experiments::residency::run(&set)),
            "compare" => println!("{}\n", experiments::comparisons::run(&set)),
            "fidelity" => println!("{}\n", experiments::fidelity::run(&set)),
            "ablations" => println!("{}\n", experiments::ablations::run(&set)),
            "server" => println!("{}\n", experiments::server::run(&set)),
            other => die(&format!("unknown experiment {other}")),
        }
        eprintln!("  [timing] {name}: {:.1} ms", ms(started));
        for (pass, (after, before)) in PLAN_PASSES
            .iter()
            .zip(plan_passes().into_iter().zip(passes_before))
        {
            if after > before {
                let pass_ms = (after - before) as f64 / 1e6;
                eprintln!("  [timing]   section6.{pass}: {pass_ms:.1} ms");
            }
        }
    };

    if which == "all" {
        for name in [
            "table1",
            "table3",
            "table4",
            "table5",
            "fig1",
            "fig2",
            "fig3",
            "fig4",
            "gaps",
            "table6",
            "table7",
            "fig7",
            "residency",
            "compare",
            "fidelity",
            "ablations",
            "server",
        ] {
            run_one(name);
        }
    } else {
        run_one(&which);
    }

    if let Some(path) = metrics_path {
        let mut meta = vec![
            ("experiment", which.clone()),
            ("hours", format!("{}", config.hours)),
            ("seed", format!("{}", config.seed)),
            ("jobs", format!("{jobs}")),
        ];
        // ci.sh stamps artifacts with the commit they came from.
        if let Ok(sha) = std::env::var("BSDTRACE_GIT_SHA") {
            meta.push(("git_sha", sha));
        }
        let meta: Vec<(&str, String)> = meta;
        let json = obs::global().snapshot().to_json_with_meta(&meta);
        std::fs::write(&path, json + "\n")
            .unwrap_or_else(|e| die(&format!("cannot write metrics to {path}: {e}")));
        eprintln!("metrics written to {path}");
    }
}

fn ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(1);
}
