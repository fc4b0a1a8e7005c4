//! `sweepbench`: the stack-distance profiler against the direct sweep.
//!
//! ```text
//! sweepbench [--hours H] [--seed S] [--jobs N] [--json]
//! ```
//!
//! Generates one a5-profile trace, then runs the Table VI grid (6 cache
//! sizes × 4 write policies, all LRU) through `cachesim::sweep` twice:
//! once with stack-distance profiling disabled (24 direct replays of
//! the shared event stream) and once enabled (one profiled pass). Both
//! produce bit-identical metrics, so the only difference is wall-clock
//! time. The same grid then runs the same way at syscall and at open
//! fidelity. The `identical` output field is true only when all three
//! fidelities match, and `syscall_speedup` / `open_speedup` report
//! their timings beside the block grid's `speedup`. ci.sh runs this in
//! quick mode and records the result as `BENCH_4.json`, asserting
//! identity and a block-fidelity profiled sweep at least 3× faster.

use std::time::Instant;

use cachesim::{stack, sweep, CacheConfig, CacheMetrics, Fidelity, WritePolicy};
use fstrace::Trace;
use workload::{generate, MachineProfile, WorkloadConfig};

/// Table VI cache sizes in kbytes (390 KB UNIX baseline to 16 MB).
const SIZES_KB: [u64; 6] = [390, 1024, 2048, 4096, 8192, 16_384];

fn grid(fidelity: Fidelity) -> Vec<CacheConfig> {
    SIZES_KB
        .iter()
        .flat_map(|&size_kb| {
            WritePolicy::TABLE_VI
                .into_iter()
                .map(move |policy| CacheConfig {
                    cache_bytes: size_kb * 1024,
                    block_size: 4096,
                    write_policy: policy,
                    fidelity,
                    ..CacheConfig::default()
                })
        })
        .collect()
}

fn timed_sweep(
    trace: &Trace,
    configs: &[CacheConfig],
    jobs: usize,
    profiled: bool,
) -> (f64, Vec<(CacheConfig, CacheMetrics)>) {
    stack::set_enabled(profiled);
    let started = Instant::now();
    let results = sweep::run_with_jobs(trace, configs, jobs);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    stack::set_enabled(true);
    (wall_ms, results)
}

/// Times `fidelity`'s grid profiled, then direct: any warm-up effect
/// biases against the speedup being claimed. Returns the profiled and
/// direct wall times and whether their results are identical.
fn compare(trace: &Trace, fidelity: Fidelity, jobs: usize) -> (f64, f64, bool) {
    let configs = grid(fidelity);
    let (profiled_ms, profiled) = timed_sweep(trace, &configs, jobs, true);
    let (direct_ms, direct) = timed_sweep(trace, &configs, jobs, false);
    (profiled_ms, direct_ms, profiled == direct)
}

fn main() {
    let mut hours = 0.25f64;
    let mut seed = 1985u64;
    let mut jobs = 0usize;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--hours" => {
                hours = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--hours needs a number"));
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--jobs needs an integer"));
            }
            "--json" => json = true,
            "--help" | "-h" => {
                println!("usage: sweepbench [--hours H] [--seed S] [--jobs N] [--json]");
                return;
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    if jobs == 0 {
        jobs = sweep::default_jobs();
    }

    let config = WorkloadConfig {
        profile: MachineProfile::ucbarpa(),
        seed,
        duration_hours: hours,
        ..WorkloadConfig::default()
    };
    let out = generate(&config).unwrap_or_else(|e| die(&format!("generate: {e}")));
    let cells = grid(Fidelity::Block).len();

    let (profiled_ms, direct_ms, block_identical) = compare(&out.trace, Fidelity::Block, jobs);
    let speedup = direct_ms / profiled_ms.max(1e-9);
    let (syscall_profiled_ms, syscall_direct_ms, syscall_identical) =
        compare(&out.trace, Fidelity::Syscall, jobs);
    let syscall_speedup = syscall_direct_ms / syscall_profiled_ms.max(1e-9);
    let (open_profiled_ms, open_direct_ms, open_identical) =
        compare(&out.trace, Fidelity::Open, jobs);
    let open_speedup = open_direct_ms / open_profiled_ms.max(1e-9);
    let identical = block_identical && syscall_identical && open_identical;

    let snap = obs::global().snapshot();
    let distances = snap
        .counter("cachesim.stack.distances_recorded")
        .unwrap_or(0);
    let marker_steps = snap.counter("cachesim.stack.marker_steps").unwrap_or(0);
    let tree_peak = snap.gauge("cachesim.stack.tree_nodes_peak").unwrap_or(0);

    if json {
        let mut s = String::from("{\n");
        s.push_str("  \"bench\": \"stack_sweep\",\n");
        s.push_str(&format!("  \"hours\": {hours},\n"));
        s.push_str(&format!("  \"seed\": {seed},\n"));
        s.push_str(&format!("  \"jobs\": {jobs},\n"));
        s.push_str(&format!("  \"records\": {},\n", out.trace.len()));
        s.push_str(&format!("  \"cells\": {cells},\n"));
        s.push_str(&format!("  \"direct_ms\": {direct_ms:.1},\n"));
        s.push_str(&format!("  \"profiled_ms\": {profiled_ms:.1},\n"));
        s.push_str(&format!("  \"speedup\": {speedup:.2},\n"));
        s.push_str(&format!(
            "  \"syscall_direct_ms\": {syscall_direct_ms:.1},\n"
        ));
        s.push_str(&format!(
            "  \"syscall_profiled_ms\": {syscall_profiled_ms:.1},\n"
        ));
        s.push_str(&format!("  \"syscall_speedup\": {syscall_speedup:.2},\n"));
        s.push_str(&format!("  \"open_direct_ms\": {open_direct_ms:.1},\n"));
        s.push_str(&format!("  \"open_profiled_ms\": {open_profiled_ms:.1},\n"));
        s.push_str(&format!("  \"open_speedup\": {open_speedup:.2},\n"));
        s.push_str(&format!("  \"distances_recorded\": {distances},\n"));
        s.push_str(&format!("  \"marker_steps\": {marker_steps},\n"));
        s.push_str(&format!("  \"tree_nodes_peak\": {tree_peak},\n"));
        s.push_str(&format!("  \"identical\": {identical}\n"));
        s.push('}');
        println!("{s}");
    } else {
        println!("stack sweep bench ({hours} h, seed {seed}, jobs {jobs})");
        println!("  records: {}", out.trace.len());
        println!("  cells: {cells}");
        println!("  direct_ms: {direct_ms:.1}");
        println!("  profiled_ms: {profiled_ms:.1}");
        println!("  speedup: {speedup:.2}x");
        println!("  syscall_direct_ms: {syscall_direct_ms:.1}");
        println!("  syscall_profiled_ms: {syscall_profiled_ms:.1}");
        println!("  syscall_speedup: {syscall_speedup:.2}x");
        println!("  open_direct_ms: {open_direct_ms:.1}");
        println!("  open_profiled_ms: {open_profiled_ms:.1}");
        println!("  open_speedup: {open_speedup:.2}x");
        println!("  distances_recorded: {distances}");
        println!("  marker_steps: {marker_steps}");
        println!("  tree_nodes_peak: {tree_peak}");
        println!("  identical: {identical}");
    }
    if !identical {
        die("profiled sweep diverged from direct simulation");
    }
}

fn die(msg: &str) -> ! {
    eprintln!("sweepbench: {msg}");
    std::process::exit(1);
}
