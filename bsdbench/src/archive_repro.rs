//! `archive-repro`: the warm `repro --archive DIR` job.
//!
//! Loads the a5/e3/c4 traces from their archives through
//! `TraceSet::generate_cached` (the pipelined decoder inside
//! `bsdtrace::archive::load_trace`), then runs every
//! `bsdtrace::experiments::*::run` except `compare`, which needs live
//! file-system state that an archive cannot carry. `tracestore` reads,
//! `fsanalysis` and `cachesim` do all the work, and nothing generates.
//!
//! - Set-up: a cold `generate_cached` into an empty archive directory,
//!   three times.
//! - Job: warm load plus the sixteen experiments, rendered.
//! - Operation: one warm load. Each job times its own load and then
//!   more outside its wall, [`LOADS_PER_JOB`] in all, so the latency
//!   samples are all of one kind and the run gathers enough for a p90.
//! - Check: every job's rendered output is byte-identical to the same
//!   experiments over the in-memory traces set-up generated, and no
//!   job regenerated a trace.
//! - Attempted/failed: chunks read plus experiments run / chunks
//!   skipped as corrupt.
//!
//! The traced run adds a staged pass over the same archives that calls
//! the public stages one by one — `chunk_crc` → `decompress_into` →
//! `decode_block` → `observe_block`, and on a5 `feed_block` → `step`
//! on the 2 MB delayed-write 4 KB cell — plus `load_trace` itself and a
//! serial-versus-pipelined drain. The pass repeats at least
//! [`STAGED_MIN_PASSES`] times and for [`STAGED_SECONDS`], and each of
//! its figures is the median over the passes.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use bsdtrace::experiments;
use bsdtrace::{ReproConfig, TraceEntry, TraceSet};
use cachesim::{CacheConfig, EventExpander, Replayer, WritePolicy};
use fsanalysis::AnalysisStream;
use fstrace::block::decode_block;
use fstrace::{FillBlock, RecordBlock};
use tracestore::compress::decompress_into;
use tracestore::format::{chunk_crc, CHUNK_HEADER_LEN};
use tracestore::{Archive, Corruption};

use crate::stats::{median, per_second, quantile};
use crate::tracer::{Profile, Span, SpanId};
use crate::{die, or_die, secs, tracing_overhead, Ctx, Outcome, EXPERIMENT_NAMES};

/// Simulated hours per trace.
const HOURS: f64 = 4.0;
const SETUP_REPS: usize = 3;
/// Warm loads timed per job, the job's own included.
const LOADS_PER_JOB: usize = 5;
/// Least time, and least number of passes, the staged pass repeats for.
const STAGED_SECONDS: f64 = 3.0;
const STAGED_MIN_PASSES: usize = 5;

type Experiment = fn(&TraceSet) -> String;

/// The experiments, in [`EXPERIMENT_NAMES`] order.
const EXPERIMENTS: [Experiment; 16] = [
    |s| experiments::table1::run(s).to_string(),
    |s| experiments::table3::run(s).to_string(),
    |s| experiments::table4::run(s).to_string(),
    |s| experiments::table5::run(s).to_string(),
    |s| experiments::fig1::run(s).to_string(),
    |s| experiments::fig2::run(s).to_string(),
    |s| experiments::fig3::run(s).to_string(),
    |s| experiments::fig4::run(s).to_string(),
    |s| experiments::gaps::run(s).to_string(),
    |s| experiments::table6::run(s).to_string(),
    |s| experiments::table7::run(s).to_string(),
    |s| experiments::fig7::run(s).to_string(),
    |s| experiments::residency::run(s).to_string(),
    |s| experiments::fidelity::run(s).to_string(),
    |s| experiments::ablations::run(s).to_string(),
    |s| experiments::server::run(s).to_string(),
];

/// Renders every experiment over `set`, timing each as a span under
/// `job`.
fn render_all(ctx: &Ctx, set: &TraceSet, job: Option<SpanId>) -> String {
    let mut text = String::new();
    for (name, experiment) in EXPERIMENT_NAMES.iter().zip(EXPERIMENTS) {
        let report = ctx
            .tracer
            .span(&format!("core.experiment.{name}"), job, |_| experiment(set));
        text.push_str(&report);
        text.push('\n');
    }
    text
}

fn records(set: &TraceSet) -> u64 {
    set.entries.iter().map(|e| e.out.trace.len() as u64).sum()
}

fn counter(snap: &obs::Snapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let config = ReproConfig {
        hours: HOURS,
        seed: ctx.seed,
        ..ReproConfig::default()
    };
    cachesim::sweep::set_default_jobs(ctx.nproc);
    out.params = vec![
        ("hours", HOURS.to_string()),
        ("load_jobs", ctx.nproc.to_string()),
        ("sweep_jobs", cachesim::sweep::default_jobs().to_string()),
        ("client_threads", "1".into()),
    ];

    let dir = ctx.work.join("archive");
    let mut setup = Vec::new();
    let mut cold = None;
    for _ in 0..SETUP_REPS {
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        cold = Some(or_die(
            TraceSet::generate_cached(&config, &dir, ctx.nproc),
            "cold generate_cached",
        ));
        setup.push(secs(t.elapsed()));
    }
    let cold = cold.expect("at least one set-up");
    let cold_text = render_all(ctx, &cold, None);
    drop(cold);
    let paths: Vec<PathBuf> = ["a5", "e3", "c4"]
        .iter()
        .map(|name| bsdtrace::archive::trace_path(&dir, name, &config))
        .collect();
    let archive_bytes: u64 = paths
        .iter()
        .map(|p| or_die(std::fs::metadata(p), "stat archive").len())
        .sum();

    let before = obs::global().snapshot();
    let mut rates = Vec::new();
    let mut bytes_per_record = Vec::new();
    let mut ops = Vec::new();
    let mut walls = Vec::new();
    let mut peaks = Vec::new();
    let mut jobs = 0usize;
    let warm_load = || {
        let t = Instant::now();
        let set = or_die(
            TraceSet::generate_cached(&config, &dir, ctx.nproc),
            "warm generate_cached",
        );
        (set, secs(t.elapsed()) * 1e3)
    };
    let started = Instant::now();
    while ctx.more(started, jobs, ops.len()) {
        let traced = ctx.start_job(jobs);
        let (n, text, wall_s) = ctx.tracer.span("job", None, |job| {
            let t = Instant::now();
            let (set, load_ms) = ctx.tracer.span("core.load", job, |_| warm_load());
            ops.push(load_ms);
            let text = render_all(ctx, &set, job);
            (records(&set), text, secs(t.elapsed()))
        });
        for _ in 1..LOADS_PER_JOB {
            let (set, load_ms) = warm_load();
            ops.push(load_ms);
            out.check(records(&set) == n, || {
                format!("job {jobs}: warm loads of the same archives differ in length")
            });
        }
        peaks.push(ctx.end_job());
        out.check(text == cold_text, || {
            format!("job {jobs}: warm experiment output differs from the cold traces'")
        });
        rates.push(per_second(n, wall_s));
        bytes_per_record.push(archive_bytes as f64 / n.max(1) as f64);
        walls.push((traced, wall_s));
        jobs += 1;
    }
    let after = obs::global().snapshot();
    let diff = |name: &str| counter(&after, name) - counter(&before, name);
    let regenerated = after.span("workload.generate").map_or(0, |s| s.count)
        - before.span("workload.generate").map_or(0, |s| s.count);
    out.check(regenerated == 0, || {
        format!("warm jobs regenerated {regenerated} trace(s) instead of loading archives")
    });
    let skipped = diff("tracestore.chunks_skipped_corrupt");
    out.attempted = diff("tracestore.chunks_read") + (jobs * EXPERIMENTS.len()) as u64;
    out.failed = skipped;
    out.params.push(("jobs_run", jobs.to_string()));
    out.params.push(("op_samples", ops.len().to_string()));

    out.end_to_end = vec![
        ("setup_s", median(&setup)),
        ("records_per_s", median(&rates)),
        ("bytes_per_record", median(&bytes_per_record)),
        ("op_p50_ms", median(&ops)),
        ("op_p90_ms", quantile(&ops, 0.9)),
    ];
    if !ctx.trace {
        return out;
    }
    out.layer("peak_rss_mb", median(&peaks));

    let n_jobs = jobs as f64;
    for name in [
        "cachesim.stack.profiled_cells",
        "cachesim.stack.fallback_cells",
        "cachesim.stack.distances_recorded",
        "cachesim.replay.expansions",
    ] {
        out.layer(name, diff(name) as f64 / n_jobs);
    }
    let mut passes = Vec::new();
    let staged_started = Instant::now();
    while passes.len() < STAGED_MIN_PASSES || secs(staged_started.elapsed()) < STAGED_SECONDS {
        passes.push(staged(ctx, &paths, &mut out));
    }
    let staged_skipped: u64 = passes.iter().map(|p| p.skipped).sum();
    out.layer(
        "tracestore.chunks_skipped",
        (skipped + staged_skipped) as f64,
    );
    let pick = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    out.layer("tracestore.pipeline.wait_s", pick(|p| p.wait_s));
    out.layer(
        "tracestore.pipeline_speedup",
        pick(|p| p.serial_s) / pick(|p| p.piped_s),
    );
    // The rest of a pass's figures depend on the archives alone.
    let first = &passes[0];
    out.layer(
        "tracestore.compression_ratio",
        first.raw_len as f64 / first.stored_len.max(1) as f64,
    );
    out.layer("fsanalysis.live_sessions_peak", first.live_peak as f64);
    out.layer(
        "cachesim.events_per_record",
        first.a5.1 as f64 / first.a5.0.max(1) as f64,
    );

    let spans = ctx.tracer.spans();
    let profile = Profile::new(&spans);
    let roots = profile.roots("job");
    if roots.is_empty() {
        die("traced run recorded no job spans");
    }
    let per_job = |name: &str| -> f64 {
        median(
            &roots
                .iter()
                .map(|r| profile.busy_below(r, name))
                .collect::<Vec<_>>(),
        )
    };
    out.layer("core.load_s", per_job("core.load"));
    for name in EXPERIMENT_NAMES {
        out.layer(
            &format!("core.experiment.{name}_s"),
            per_job(&format!("core.experiment.{name}")),
        );
    }
    let staged_roots: Vec<&Span> = profile.roots("staged");
    let per_pass = |names: &[&str]| -> f64 {
        median(
            &staged_roots
                .iter()
                .map(|r| names.iter().map(|n| profile.busy_below(r, n)).sum())
                .collect::<Vec<_>>(),
        )
    };
    for (metric, span) in [
        ("tracestore.open_s", "tracestore.open"),
        ("tracestore.verify_s", "tracestore.verify"),
        ("tracestore.decompress_s", "tracestore.decompress"),
        ("fstrace.decode_s", "fstrace.decode"),
        ("fsanalysis.observe_s", "fsanalysis.observe"),
        ("cachesim.expand_s", "cachesim.expand"),
        ("cachesim.step_s", "cachesim.step"),
        ("tracestore.load_s", "tracestore.load"),
    ] {
        out.layer(metric, per_pass(&[span]));
    }
    // The job's spans are bundles (`core.*`) with no layer span below
    // them. The staged pass splits two of them into layers: the load
    // into open → verify → decompress → decode, and the shared
    // analysis pass, which table1 runs first for every experiment that
    // reads it, into observe. Each explains at most its bundle's time;
    // the cachesim-bound experiments stay unexplained.
    let load_stages = per_pass(&[
        "tracestore.open",
        "tracestore.verify",
        "tracestore.decompress",
        "fstrace.decode",
    ]);
    let observe = per_pass(&["fsanalysis.observe"]);
    let explained: Vec<f64> = roots
        .iter()
        .map(|r| {
            let load = profile.busy_below(r, "core.load").min(load_stages);
            let analysis = profile.busy_below(r, "core.experiment.table1").min(observe);
            (load + analysis) / (r.busy_ns as f64 / 1e9)
        })
        .collect();
    out.layer("coverage", median(&explained));
    out.layer("error_ratio", out.error_ratio());
    out.layer("obs.tracing_overhead", tracing_overhead(&walls));
    out
}

/// What one staged pass measured besides its spans.
struct Pass {
    /// Chunks whose CRC did not match.
    skipped: u64,
    raw_len: u64,
    stored_len: u64,
    live_peak: usize,
    /// a5's records and replay events.
    a5: (u64, u64),
    /// The serial and pipelined drains, and the pipelined consumer's
    /// time blocked in `fill_next`, summed over the archives.
    serial_s: f64,
    piped_s: f64,
    wait_s: f64,
}

/// One staged pass over the archives at `paths` (a5 first): the stages
/// as spans under one `staged` root, then the drains, untraced.
fn staged(ctx: &Ctx, paths: &[PathBuf], out: &mut Outcome) -> Pass {
    let tracer = &ctx.tracer;
    let cell = CacheConfig {
        cache_bytes: 2 << 20,
        block_size: 4096,
        write_policy: WritePolicy::DelayedWrite,
        ..CacheConfig::default()
    };
    let mut pass = Pass {
        skipped: 0,
        raw_len: 0,
        stored_len: 0,
        live_peak: 0,
        a5: (0, 0),
        serial_s: 0.0,
        piped_s: 0.0,
        wait_s: 0.0,
    };
    tracer.set_on(true);
    tracer.span("staged", None, |root| {
        for (i, path) in paths.iter().enumerate() {
            let archive = tracer.span("tracestore.open", root, |_| {
                or_die(Archive::open(path), "open archive")
            });
            let bytes = or_die(std::fs::read(path), "read archive");
            let mut verify = tracer.acc("tracestore.verify", root);
            let mut decompress = tracer.acc("tracestore.decompress", root);
            let mut decode = tracer.acc("fstrace.decode", root);
            let mut observe = tracer.acc("fsanalysis.observe", root);
            let mut expand = tracer.acc("cachesim.expand", root);
            let mut step = tracer.acc("cachesim.step", root);
            let mut stream = AnalysisStream::new(&TraceEntry::WINDOW_SECS);
            let mut replay = (i == 0).then(|| (EventExpander::new(&cell), Replayer::new(&cell)));
            let mut scratch = Vec::new();
            let mut block = RecordBlock::new();
            let mut events = Vec::new();
            for info in archive.chunks() {
                pass.raw_len += info.raw_len as u64;
                pass.stored_len += info.stored_len as u64;
                let at = info.offset as usize + CHUNK_HEADER_LEN;
                let payload = &bytes[at..at + info.stored_len as usize];
                if verify.time(|| chunk_crc(info, payload)) != info.crc {
                    pass.skipped += 1;
                    continue;
                }
                let raw: &[u8] = if info.compressed {
                    or_die(
                        decompress
                            .time(|| decompress_into(payload, info.raw_len as usize, &mut scratch)),
                        "decompress chunk",
                    );
                    &scratch
                } else {
                    payload
                };
                let mut pos = 0usize;
                or_die(
                    decode
                        .time(|| decode_block(raw, &mut pos, 0, raw.len(), usize::MAX, &mut block)),
                    "decode chunk",
                );
                out.check(
                    pos == raw.len() && block.len() == info.records as usize,
                    || format!("{}: chunk at {} decodes short", path.display(), info.offset),
                );
                observe.time(|| stream.observe_block(&block));
                if let Some((expander, replayer)) = &mut replay {
                    events.clear();
                    expand.time(|| expander.feed_block(&block, &mut |ev| events.push(ev)));
                    step.time(|| events.iter().for_each(|ev| replayer.step(ev)));
                    pass.a5.0 += block.len() as u64;
                    pass.a5.1 += events.len() as u64;
                }
            }
            for acc in [verify, decompress, decode, observe, expand, step] {
                acc.finish(tracer);
            }
            pass.live_peak = pass.live_peak.max(stream.live_sessions_peak());
            tracer.span("tracestore.load", root, |_| {
                if bsdtrace::archive::load_trace(path, ctx.nproc).is_none() {
                    die(&format!("load_trace({}) missed", path.display()));
                }
            });
        }
    });

    // Serial blocks() against the pipelined ring, each feeding the
    // analysis stream as its consumer; untraced, timed here.
    tracer.set_on(false);
    for path in paths {
        let archive = Arc::new(or_die(Archive::open(path), "open archive"));
        let mut stream = AnalysisStream::new(&TraceEntry::WINDOW_SECS);
        let t = Instant::now();
        for block in archive.blocks(Corruption::Fail) {
            stream.observe_block(&or_die(block, "serial drain"));
        }
        pass.serial_s += secs(t.elapsed());
        let serial_suite = tracestored::render_suite(&stream.finish());

        let mut stream = AnalysisStream::new(&TraceEntry::WINDOW_SECS);
        let t = Instant::now();
        let mut blocks = Arc::clone(&archive).pipelined(Corruption::Fail, ctx.nproc);
        let mut block = RecordBlock::new();
        loop {
            let w = Instant::now();
            let more = blocks.fill_next(&mut block);
            pass.wait_s += secs(w.elapsed());
            if !more {
                break;
            }
            stream.observe_block(&block);
        }
        pass.piped_s += secs(t.elapsed());
        out.check(blocks.report().is_clean(), || {
            "pipelined drain skipped chunks".into()
        });
        out.check(
            tracestored::render_suite(&stream.finish()) == serial_suite,
            || "pipelined and serial drains analyse differently".into(),
        );
    }
    pass
}
