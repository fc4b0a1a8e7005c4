//! `fleet-archive`: the `mktrace --machines N -o X.tsa` job.
//!
//! `workload::generate_fleet_into` over an a5/e3/c4 machine mix
//! streams the merged fleet into a `tracestore::ArchiveWriter` on a
//! `File`, then `sync_all`. The generator (with `bsdfs` underneath)
//! does nearly all the work and `tracestore` only writes.
//!
//! - Set-up: a short warm-up fleet into memory, three times.
//! - Job: generate → finish → `sync_all`, timed from the
//!   `generate_fleet_into` call to the `sync_all` return. Each job
//!   simulates its own fleet, seeded from the run's seed.
//! - Operation: one ten-minute interval of fleet time (the paper's
//!   interval) reaching the archive — the wall time between the first
//!   records of consecutive intervals.
//! - Check, after every job: the archive opens without a footer
//!   rebuild, every chunk verifies, the decoded count equals
//!   `FleetStats::records`, and no command failed.
//! - Attempted/failed: generated events plus verified chunks / failed
//!   commands plus skipped chunks.

use std::fs::File;
use std::io::{self, BufWriter};
use std::path::Path;
use std::time::Instant;

use fstrace::{RecordSink, TraceRecord};
use tracestore::{Archive, ArchiveOptions, ArchiveWriter, Corruption};
use workload::{generate_fleet_into, FleetConfig, FleetStats};

use crate::stats::{median, per_second, quantile};
use crate::tracer::{Acc, Profile};
use crate::{die, or_die, secs, tracing_overhead, Ctx, Outcome};

/// Machines in the fleet (the mix cycles a5, e3, c4).
const MACHINES: usize = 4;
/// Simulated hours per job.
const HOURS: f64 = 2.0;
/// Simulated span of one latency sample: ten minutes of fleet time.
const INTERVAL_MS: u64 = 600_000;
/// Simulated hours of the set-up warm-up fleet.
const WARMUP_HOURS: f64 = 0.25;
const SETUP_REPS: usize = 3;

/// The fleet of job number `job`. Each job simulates a different fleet,
/// seeded from the run's seed, so a run's medians and tail cover many
/// fleets' ten-minute intervals rather than one fleet's twelve.
fn fleet(ctx: &Ctx, job: usize, hours: f64, jobs: usize) -> FleetConfig {
    FleetConfig {
        machines: MACHINES,
        seed: workload::stream_seed(ctx.seed, job as u64),
        duration_hours: hours,
        jobs,
        ..FleetConfig::default()
    }
}

/// The archive writer as the fleet's sink, noting when each interval's
/// first record arrives and, when traced, timing each write.
struct IntervalSink {
    writer: ArchiveWriter<BufWriter<File>>,
    write: Acc,
    next_interval_ms: u64,
    mark: Instant,
    interval_walls_ms: Vec<f64>,
}

impl RecordSink for IntervalSink {
    fn write_record(&mut self, rec: &TraceRecord) -> io::Result<()> {
        let ms = rec.time.as_ms();
        if ms >= self.next_interval_ms {
            let now = Instant::now();
            self.interval_walls_ms.push(secs(now - self.mark) * 1e3);
            self.mark = now;
            self.next_interval_ms = (ms / INTERVAL_MS + 1) * INTERVAL_MS;
        }
        let writer = &mut self.writer;
        self.write.time(|| writer.write(rec))
    }
}

struct Job {
    stats: FleetStats,
    wall_s: f64,
    interval_walls_ms: Vec<f64>,
}

/// One `mktrace` job into `path`; the root span is `job`.
fn job(ctx: &Ctx, config: &FleetConfig, path: &Path) -> Job {
    let tracer = &ctx.tracer;
    tracer.span("job", None, |job| {
        let file = or_die(File::create(path), "create archive");
        let writer = or_die(
            ArchiveWriter::new(
                BufWriter::new(file),
                ArchiveOptions {
                    name: format!("fleet-{MACHINES}x"),
                    ..ArchiveOptions::default()
                },
            ),
            "write archive header",
        );
        let started = Instant::now();
        let (stats, sink) = tracer.span("workload.generate_fleet_into", job, |gen| {
            let mut sink = IntervalSink {
                writer,
                write: tracer.acc("tracestore.write", gen),
                next_interval_ms: INTERVAL_MS,
                mark: started,
                interval_walls_ms: Vec::new(),
            };
            // The partial interval after the last boundary is not a
            // sample: it holds only the trace's closing records.
            let stats = or_die(generate_fleet_into(config, &mut sink), "generate fleet");
            (stats, sink)
        });
        let IntervalSink {
            writer,
            write,
            interval_walls_ms,
            ..
        } = sink;
        write.finish(tracer);
        let file = tracer.span("tracestore.finish", job, |_| {
            let (buffered, _) = or_die(writer.finish(), "finish archive");
            or_die(
                buffered.into_inner().map_err(|e| e.into_error()),
                "flush archive",
            )
        });
        tracer.span("tracestore.fsync", job, |_| {
            or_die(file.sync_all(), "sync archive")
        });
        Job {
            stats,
            wall_s: secs(started.elapsed()),
            interval_walls_ms,
        }
    })
}

/// Chunk counts of a verified archive, and Σraw_len ÷ Σstored_len.
struct Verified {
    chunks: u64,
    skipped: u64,
    compression_ratio: f64,
}

fn verify(path: &Path, stats: &FleetStats, out: &mut Outcome) -> Verified {
    let archive = or_die(Archive::open(path), "open archive");
    out.check(!archive.footer_rebuilt(), || {
        "fleet archive footer was rebuilt".into()
    });
    let mut decoded = 0u64;
    let mut blocks = archive.blocks(Corruption::Skip);
    for block in &mut blocks {
        decoded += or_die(block, "read archive").len() as u64;
    }
    let report = blocks.report();
    out.check(report.is_clean(), || {
        format!(
            "fleet archive: {} chunk(s) skipped",
            report.chunks_skipped()
        )
    });
    out.check(decoded == stats.records, || {
        format!(
            "fleet archive decodes {decoded} records, FleetStats says {}",
            stats.records
        )
    });
    out.check(stats.total_errors() == 0, || {
        format!("fleet: {} command errors", stats.total_errors())
    });
    let raw: u64 = archive.chunks().iter().map(|c| c.raw_len as u64).sum();
    let stored: u64 = archive.chunks().iter().map(|c| c.stored_len as u64).sum();
    Verified {
        chunks: archive.chunks().len() as u64,
        skipped: report.chunks_skipped(),
        compression_ratio: raw as f64 / stored.max(1) as f64,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome {
        params: vec![
            ("machines", MACHINES.to_string()),
            ("hours", HOURS.to_string()),
            ("fleet_jobs", ctx.nproc.to_string()),
            ("client_threads", "1".into()),
        ],
        ..Outcome::default()
    };

    let warmup = fleet(ctx, 0, WARMUP_HOURS, ctx.nproc);
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            let mut sink: Vec<TraceRecord> = Vec::new();
            or_die(generate_fleet_into(&warmup, &mut sink), "warm-up fleet");
            secs(t.elapsed())
        })
        .collect();

    let path = ctx.work.join("fleet.tsa");
    let mut rates = Vec::new();
    let mut bytes_per_record = Vec::new();
    let mut intervals = Vec::new();
    let mut walls = Vec::new();
    let mut jobs: Vec<(bool, Job)> = Vec::new();
    let mut peaks = Vec::new();
    let mut compression_ratio = 0.0;
    let mut skipped = 0u64;
    let started = Instant::now();
    while ctx.more(started, jobs.len(), intervals.len()) {
        let traced = ctx.start_job(jobs.len());
        let j = job(ctx, &fleet(ctx, jobs.len(), HOURS, ctx.nproc), &path);
        peaks.push(ctx.end_job());
        let v = verify(&path, &j.stats, &mut out);
        let bytes = or_die(std::fs::metadata(&path), "stat archive").len();
        rates.push(per_second(j.stats.records, j.wall_s));
        bytes_per_record.push(bytes as f64 / j.stats.records.max(1) as f64);
        intervals.extend_from_slice(&j.interval_walls_ms);
        walls.push((traced, j.wall_s));
        compression_ratio = v.compression_ratio;
        skipped += v.skipped;
        out.attempted += j.stats.records + v.chunks;
        out.failed += j.stats.total_errors() + v.skipped;
        jobs.push((traced, j));
    }
    out.params.push(("jobs_run", jobs.len().to_string()));
    out.params
        .push(("interval_samples", intervals.len().to_string()));

    out.end_to_end = vec![
        ("setup_s", median(&setup)),
        ("records_per_s", median(&rates)),
        ("bytes_per_record", median(&bytes_per_record)),
        ("op_p50_ms", median(&intervals)),
        ("op_p90_ms", quantile(&intervals, 0.9)),
    ];
    if !ctx.trace {
        return out;
    }
    out.layer("peak_rss_mb", median(&peaks));

    // The serial twin: the first job's fleet at one generator thread.
    let serial = job(ctx, &fleet(ctx, 0, HOURS, 1), &path);
    out.layer(
        "workload.serial_records_per_s",
        per_second(serial.stats.records, serial.wall_s),
    );

    let spans = ctx.tracer.spans();
    let profile = Profile::new(&spans);
    let roots = profile.roots("job");
    if roots.is_empty() {
        die("traced run recorded no job spans");
    }
    let per_job = |f: &dyn Fn(&crate::tracer::Span) -> f64| -> f64 {
        median(&roots.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    out.layer(
        "workload.self_s",
        per_job(&|r| profile.self_below(r, "workload.generate_fleet_into")),
    );
    out.layer(
        "tracestore.write_s",
        per_job(&|r| {
            profile.busy_below(r, "tracestore.write") + profile.busy_below(r, "tracestore.finish")
        }),
    );
    out.layer(
        "tracestore.fsync_s",
        per_job(&|r| profile.busy_below(r, "tracestore.fsync")),
    );
    let stats: Vec<&FleetStats> = jobs.iter().map(|(_, j)| &j.stats).collect();
    let max = |f: &dyn Fn(&FleetStats) -> u64| stats.iter().map(|s| f(s)).max().unwrap_or(0);
    out.layer(
        "workload.fleet.ring_occupancy_peak",
        max(&|s| s.ring_occupancy_peak) as f64,
    );
    out.layer(
        "workload.fleet.merge_lag_ms_peak",
        max(&|s| s.merge_lag_ms_peak) as f64,
    );
    let per_stats = |f: &dyn Fn(&FleetStats) -> u64| {
        median(&stats.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    out.layer(
        "workload.events",
        per_stats(&|s| s.machines.iter().flat_map(|m| m.event_counts).sum()),
    );
    out.layer("workload.errors", per_stats(&|s| s.total_errors()));
    let snap = obs::global().snapshot();
    out.layer(
        "fstrace.fleet.buffered_records_peak",
        snap.gauge("fstrace.fleet.buffered_records_peak")
            .unwrap_or(0) as f64,
    );
    out.layer("tracestore.compression_ratio", compression_ratio);
    out.layer("tracestore.chunks_skipped", skipped as f64);
    out.layer("error_ratio", out.error_ratio());
    out.layer("coverage", profile.coverage("job"));
    out.layer("obs.tracing_overhead", tracing_overhead(&walls));
    out
}
