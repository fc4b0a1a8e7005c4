//! `bsdbench`: end-to-end and per-layer benchmark of the three jobs
//! bsdtrace's users run, driven from outside the program through the
//! public functions those jobs call.
//!
//! ```text
//! bsdbench --workload fleet-archive|archive-repro|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! A run sets up its inputs from the seed, repeats the workload's job
//! for `--seconds` (longer if a job is still needed for the minimum
//! job or latency-sample count), checks every output, and prints one
//! JSON line last: the end-to-end metrics with `--trace 0`, or with
//! `--trace 1` the per-layer metrics of a traced run, which times each
//! call into a layer as a span. See `bsdbench/README.md` for the
//! metric definitions and which layer metric moves which end-to-end
//! metric on which workload.
//!
//! Work files, the span dump and the run's metadata go under
//! `.bench_out/` in the working directory.

mod archive_repro;
mod fleet_archive;
mod meta;
mod serve;
mod stats;
mod tracer;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use stats::{median, tail_percentile};
use tracer::{Profile, Tracer};

/// End-to-end metrics, reported by every workload: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("records_per_s", "1/s"),
    ("bytes_per_record", "B"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
];

/// Experiments of the warm `repro` job, in `repro all` order; the
/// per-layer list carries one `core.experiment.<name>_s` for each.
pub const EXPERIMENT_NAMES: [&str; 16] = [
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
    "fidelity",
    "ablations",
    "server",
];

/// Served query ops, in the order their per-op metrics are listed.
pub const QUERY_OPS: [&str; 4] = ["range", "summary", "analyze", "sweep"];

/// Per-layer metrics with their units, every one reported by every
/// traced run: 0 where the workload's timed job does not reach the
/// layer.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut list: Vec<(String, &str)> = [
        ("peak_rss_mb", "MB"),
        ("workload.self_s", "s"),
        ("workload.serial_records_per_s", "1/s"),
        ("workload.fleet.ring_occupancy_peak", "count"),
        ("workload.fleet.merge_lag_ms_peak", "ms"),
        ("workload.events", "count"),
        ("workload.errors", "count"),
        ("fstrace.decode_s", "s"),
        ("fstrace.fleet.buffered_records_peak", "count"),
        ("tracestore.write_s", "s"),
        ("tracestore.fsync_s", "s"),
        ("tracestore.open_s", "s"),
        ("tracestore.verify_s", "s"),
        ("tracestore.decompress_s", "s"),
        ("tracestore.load_s", "s"),
        ("tracestore.pipeline.wait_s", "s"),
        ("tracestore.pipeline_speedup", "ratio"),
        ("tracestore.compression_ratio", "ratio"),
        ("tracestore.chunks_skipped", "count"),
        ("cachesim.expand_s", "s"),
        ("cachesim.step_s", "s"),
        ("cachesim.events_per_record", "ratio"),
        ("cachesim.stack.profiled_cells", "count"),
        ("cachesim.stack.fallback_cells", "count"),
        ("cachesim.stack.distances_recorded", "count"),
        ("cachesim.replay.expansions", "count"),
        ("fsanalysis.observe_s", "s"),
        ("fsanalysis.live_sessions_peak", "count"),
        ("core.load_s", "s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for name in EXPERIMENT_NAMES {
        list.push((format!("core.experiment.{name}_s"), "s"));
    }
    for (n, u) in [
        ("tracestored.send_s", "s"),
        ("tracestored.fin_s", "s"),
        ("tracestored.seal_s", "s"),
        ("tracestored.shard.seals", "count"),
    ] {
        list.push((n.to_string(), u));
    }
    for q in ["p50", "p90"] {
        for op in QUERY_OPS {
            list.push((format!("tracestored.query.{op}_{q}_ms"), "ms"));
        }
    }
    for (n, u) in [
        ("tracestored.range_records", "count"),
        ("tracestored.conn.killed", "count"),
        ("obs.tracing_overhead", "ratio"),
        ("coverage", "ratio"),
        ("error_ratio", "ratio"),
    ] {
        list.push((n.to_string(), u));
    }
    list
}

/// Everything a workload needs from the command line and the box.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub nproc: usize,
    pub tracer: Tracer,
    /// Scratch directory for this run's archives and shards.
    pub work: PathBuf,
}

impl Ctx {
    /// Whether the timed loop runs another job after `jobs` jobs that
    /// produced `ops` latency samples: until `--seconds` have passed,
    /// at least three jobs ran (four when traced, half of them with
    /// tracing off), and the samples support a p90 with ten beyond it.
    /// Past three times `--seconds` only the job minimum holds.
    pub fn more(&self, started: Instant, jobs: usize, ops: usize) -> bool {
        let min_jobs = if self.trace { 4 } else { 3 };
        let elapsed = started.elapsed();
        if jobs < min_jobs {
            return true;
        }
        if elapsed > self.seconds * 3 {
            if tail_percentile(ops) < Some(0.9) {
                eprintln!(
                    "bsdbench: only {ops} latency samples; op_p90_ms has fewer than 10 beyond it"
                );
            }
            return false;
        }
        elapsed < self.seconds || tail_percentile(ops) < Some(0.9)
    }

    /// Starts job number `job`: resets the peak-RSS mark, so each job's
    /// peak is its own, and switches tracing on for every other job of
    /// a traced run, so the same run also times the job untraced.
    /// Returns whether the job is traced.
    pub fn start_job(&self, job: usize) -> bool {
        meta::reset_peak_rss();
        let on = self.trace && job.is_multiple_of(2);
        self.tracer.set_on(on);
        on
    }

    /// Ends a job started with [`Ctx::start_job`]: switches tracing
    /// off and returns the job's peak RSS in MB.
    pub fn end_job(&self) -> f64 {
        self.tracer.set_on(false);
        meta::peak_rss_mb()
    }
}

/// Median wall of the traced jobs over that of the untraced ones.
pub fn tracing_overhead(walls: &[(bool, f64)]) -> f64 {
    let pick = |traced: bool| -> Vec<f64> {
        walls
            .iter()
            .filter(|w| w.0 == traced)
            .map(|w| w.1)
            .collect()
    };
    let untraced = median(&pick(false));
    if untraced == 0.0 {
        0.0
    } else {
        median(&pick(true)) / untraced
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    /// Operations attempted and failed; see each workload's docs.
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metric values by name.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metric values by name (traced runs).
    pub layers: Vec<(String, f64)>,
    /// Client threads, connections and program job counts used.
    pub params: Vec<(&'static str, String)>,
    /// Why `correct` is false, if it is.
    pub mismatches: Vec<String>,
}

impl Outcome {
    /// Records a correctness check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.push((name.to_string(), value));
    }

    /// The failed share of attempted operations.
    pub fn error_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Exits with `msg`, printing no result.
pub fn die(msg: &str) -> ! {
    eprintln!("bsdbench: {msg}");
    std::process::exit(1);
}

/// `Result` to value, or exit naming what failed.
pub fn or_die<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    r.unwrap_or_else(|e| die(&format!("{what}: {e}")))
}

/// Seconds of a duration, as a float.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| die(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(or_die(value.parse::<u64>(), "--seed")),
            "--seconds" => {
                seconds = Some(or_die(value.parse::<u64>(), "--seconds")).filter(|&s| s > 0)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => die("--trace takes 0 or 1"),
                }
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| die("missing --workload")),
        seed: seed.unwrap_or_else(|| die("missing --seed")),
        seconds: seconds.unwrap_or_else(|| die("missing or zero --seconds")),
        trace: trace.unwrap_or_else(|| die("missing --trace")),
    }
}

/// Formats a metric value with all its digits.
fn number(v: f64) -> String {
    if !v.is_finite() {
        die(&format!("non-finite metric value {v}"));
    }
    format!("{v:?}")
}

fn write_file(path: &Path, contents: &str) {
    or_die(std::fs::write(path, contents), &path.display().to_string());
}

fn main() {
    let args = parse_args();
    let out_dir = PathBuf::from(".bench_out");
    let work = out_dir.join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    or_die(std::fs::create_dir_all(&work), "create .bench_out");
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        nproc: meta::nproc(),
        tracer: Tracer::new(),
        work,
    };

    let cpu_before = meta::CpuTimes::now();
    let started = Instant::now();
    let mut outcome = match args.workload.as_str() {
        "fleet-archive" => fleet_archive::run(&ctx),
        "archive-repro" => archive_repro::run(&ctx),
        "serve" => serve::run(&ctx),
        other => die(&format!(
            "unknown workload {other} (fleet-archive, archive-repro, serve)"
        )),
    };
    let wall_s = secs(started.elapsed());
    let steal = cpu_before.steal_share(&meta::CpuTimes::now());
    let _ = std::fs::remove_dir_all(&ctx.work);
    outcome.correct = outcome.mismatches.is_empty();
    outcome.attempted = outcome.attempted.max(1);

    let run_name = format!("{}-s{}-t{}", args.workload, args.seed, u8::from(args.trace));
    let spans = ctx.tracer.spans();
    if args.trace {
        write_file(
            &out_dir.join(format!("{run_name}.spans.json")),
            &Profile::new(&spans).to_json(),
        );
    }

    let mut meta_json = String::from("{");
    let _ = write!(
        meta_json,
        "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"git_sha\": \"{}\", \"cpu_steal\": {}, \"wall_s\": {}, \"spans\": {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        ctx.nproc,
        obs::json::escape(&meta::git_sha()),
        number(steal),
        number(wall_s),
        spans.len()
    );
    for (k, v) in &outcome.params {
        let _ = write!(meta_json, ", \"{k}\": \"{}\"", obs::json::escape(v));
    }
    meta_json.push('}');
    write_file(&out_dir.join(format!("{run_name}.meta.json")), &meta_json);

    let metrics: Vec<(String, &str, f64)> = if args.trace {
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let v = outcome
                    .layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v);
                (name, unit, v)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = outcome
                    .end_to_end
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| *v)
                    .unwrap_or_else(|| die(&format!("workload did not report {name}")));
                (name.to_string(), unit, v)
            })
            .collect()
    };
    if let Some((name, _)) = outcome
        .layers
        .iter()
        .find(|(n, _)| !per_layer().iter().any(|(m, _)| m == n))
    {
        die(&format!("workload reported unlisted layer metric {name}"));
    }

    println!("# meta {meta_json}");
    for m in &outcome.mismatches {
        println!("# MISMATCH {m}");
    }
    println!(
        "# error_ratio {} ({} failed of {} attempted)",
        number(outcome.error_ratio()),
        outcome.failed,
        outcome.attempted
    );
    for (name, unit, v) in &metrics {
        println!("# {name} = {} {unit}", number(*v));
    }
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(*v)
        );
    }
    line.push_str("}}");
    println!("{line}");
    if !outcome.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in BENCHMARK.json name the same
    /// metrics with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let listed = |section: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{section}\"")).expect("section");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section end")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|entry| {
                    let name = entry[..entry.find('"').unwrap()].to_string();
                    let unit_at = entry.find("\"unit\": \"").unwrap() + 9;
                    let unit = entry[unit_at..][..entry[unit_at..].find('"').unwrap()].to_string();
                    (name, unit)
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn overhead_compares_traced_to_untraced_medians() {
        let walls = [(true, 2.2), (false, 2.0), (true, 2.4), (false, 2.0)];
        assert!((tracing_overhead(&walls) - 1.15).abs() < 1e-12);
        assert_eq!(tracing_overhead(&[(true, 1.0)]), 0.0);
    }
}
