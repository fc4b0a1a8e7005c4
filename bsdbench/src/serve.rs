//! `serve`: ingest into, then query, an in-process `tracestored`.
//!
//! One process is the whole load generator, with at most `nproc`
//! connections open at once. `nproc` ingest connections each stream
//! one pre-generated `MachineSim` stream in a closed loop
//! (`send_records` + `progress` per batch, then `fin`). Then one
//! closed-loop query connection issues a seeded mix of `range` (random
//! windows), `summary`, `analyze` and `sweep`. Queries during ingest
//! would exceed the connection budget, so the live-tail path is left
//! out on purpose. Shards rotate small and are fsynced when sealed, the
//! daemon's own flush policy.
//!
//! - Set-up: materialize the machine streams (one thread per machine),
//!   three times.
//! - Job: spawn a daemon on a fresh directory, ingest every stream,
//!   run the query rounds, shut down.
//! - Ingest rate: records ÷ wall from the first connect to the last
//!   `fin` returning.
//! - Operation: one query.
//! - Check: every job's shards are byte-identical to an offline
//!   `FleetMerge` + `ShardSet` of the same streams, the daemon merged
//!   every record, and each distinct reply equals the local
//!   computation over the merged records.
//! - Attempted/failed: connections plus queries / connections the
//!   daemon killed or that failed, plus failed queries.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fstrace::{FleetMerge, IdOffsets, Trace, TraceRecord, TraceSummary};
use tracestored::{render_suite, Client, DataSnapshot, ServerConfig, ShardPolicy, ShardSet};
use workload::{FleetConfig, MachineSim};

use crate::stats::{median, per_second, quantile, SplitMix};
use crate::tracer::Profile;
use crate::{die, or_die, secs, tracing_overhead, Ctx, Outcome, QUERY_OPS};

/// Simulated hours per machine stream. Two 8 h streams hold about
/// 360k records, midway between powers of two, so no seed's data
/// crosses a vector-capacity doubling that would step peak memory.
const HOURS: f64 = 8.0;
const SETUP_REPS: usize = 3;
/// Records per `send_records` frame, as `IngestSink` batches.
const BATCH: usize = 8192;
/// Shard rotation size: small enough that every job seals many shards.
const SHARD_BYTES: u64 = 256 << 10;
/// Analyzer activity windows (seconds), as `repro` uses.
const WINDOWS: [u64; 2] = [600, 10];
/// Cache sizes of each `sweep` query, in KB.
const SWEEP_KB: [u64; 3] = [400, 2048, 8192];
/// One round of the query mix, shuffled per round. Range queries are
/// the cheapest and `analyze` the costliest here, so the mix's median
/// falls well inside the range share (60%) and its p90 inside the
/// analyze share (the top 20%), not on a boundary between two ops.
const ROUND: [Op; 10] = [
    Op::Range,
    Op::Range,
    Op::Range,
    Op::Range,
    Op::Range,
    Op::Range,
    Op::Summary,
    Op::Sweep,
    Op::Analyze,
    Op::Analyze,
];
const ROUNDS_PER_JOB: usize = 2;
/// Range windows span 5 to 30 simulated minutes.
const WINDOW_MS: (u64, u64) = (300_000, 1_800_000);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    Range,
    Summary,
    Analyze,
    Sweep,
}

impl Op {
    fn name(self) -> &'static str {
        QUERY_OPS[self as usize]
    }
}

/// A query as issued: the op and, for `range`, its window.
type Query = (Op, u64, u64);

/// One machine's stream, as the live ingest paths produce it: the
/// epoch loop of `MachineSim`, minus the network.
fn machine_stream(config: &FleetConfig, m: usize) -> Vec<TraceRecord> {
    let mut sim = or_die(MachineSim::new(&config.machine_config(m)), "machine");
    let mut out = Vec::new();
    let mut t = config.epoch_ms;
    loop {
        or_die(sim.advance(t, &mut out), "advance machine");
        or_die(sim.flush_to(t, &mut out), "flush machine");
        if sim.idle() {
            or_die(sim.seal(&mut out), "seal machine");
            return out;
        }
        t += config.epoch_ms;
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A reply reduced to what the check compares.
fn digest(records: &[TraceRecord]) -> u64 {
    let mut bytes = Vec::new();
    tracestored::protocol::encode_records(&mut bytes, records);
    fnv(&bytes)
}

fn shard_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = or_die(std::fs::read_dir(dir), "list shards")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "tsa"))
        .collect();
    files.sort();
    files
}

fn same_shards(a: &Path, b: &Path) -> bool {
    let (fa, fb) = (shard_files(a), shard_files(b));
    fa.len() == fb.len()
        && fa.iter().zip(&fb).all(|(x, y)| {
            x.file_name() == y.file_name() && std::fs::read(x).ok() == std::fs::read(y).ok()
        })
}

fn policy(dir: PathBuf) -> ShardPolicy {
    ShardPolicy {
        dir,
        name: "served".into(),
        shard_target_bytes: SHARD_BYTES,
        bucket_ms: 0,
        chunk_target_bytes: 64 << 10,
        compress: true,
    }
}

/// The offline reference: the merged records, and the same merge
/// through an identically configured shard set in `dir`.
fn offline(streams: &[Vec<TraceRecord>], offsets: &[IdOffsets], dir: PathBuf) -> Vec<TraceRecord> {
    let mut to_vec = FleetMerge::new(offsets.to_vec());
    let mut to_shards = FleetMerge::new(offsets.to_vec());
    for (i, stream) in streams.iter().enumerate() {
        for rec in stream {
            to_vec.push(i, rec);
            to_shards.push(i, rec);
        }
        for m in [&mut to_vec, &mut to_shards] {
            m.set_progress(i, u64::MAX);
            m.finish_input(i);
        }
    }
    let mut merged = Vec::new();
    or_die(to_vec.finish(&mut merged), "offline merge");
    let mut shards = or_die(ShardSet::create(policy(dir)), "offline shards");
    or_die(to_shards.finish(&mut shards), "offline merge");
    or_die(shards.finish(), "offline seal");
    merged
}

/// What one job's queries returned.
struct Reply {
    query: Query,
    latency_ms: f64,
    /// Digest of the reply, or `None` if the call failed.
    digest: Option<u64>,
    records: usize,
}

struct Job {
    dir: PathBuf,
    ingest_s: f64,
    wall_s: f64,
    replies: Vec<Reply>,
    records_merged: u64,
    failed_conns: u64,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let machines = ctx.nproc;
    let fleet = FleetConfig {
        machines,
        seed: ctx.seed,
        duration_hours: HOURS,
        ..FleetConfig::default()
    };
    out.params = vec![
        ("machines", machines.to_string()),
        ("hours", HOURS.to_string()),
        ("ingest_connections", machines.to_string()),
        ("query_connections", "1".into()),
        ("client_threads", machines.to_string()),
        ("query_jobs", ctx.nproc.to_string()),
        ("shard_flush", "fsync on seal".into()),
    ];

    let mut setup = Vec::new();
    let mut streams: Vec<Vec<TraceRecord>> = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        streams = std::thread::scope(|s| {
            let handles: Vec<_> = (0..machines)
                .map(|m| {
                    s.spawn({
                        let fleet = &fleet;
                        move || machine_stream(fleet, m)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| die("stream thread panicked")))
                .collect()
        });
        setup.push(secs(t.elapsed()));
    }
    let offsets: Vec<IdOffsets> = (0..machines).map(|m| fleet.machine_offsets(m)).collect();
    let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
    let last_ms = streams
        .iter()
        .filter_map(|s| s.last())
        .map(|r| r.time.as_ms())
        .max()
        .unwrap_or(0);

    let mut rng = SplitMix::new(ctx.seed);
    let before = obs::global().snapshot();
    let mut jobs: Vec<(bool, Job)> = Vec::new();
    let mut latencies = Vec::new();
    let mut peaks = Vec::new();
    let started = Instant::now();
    while ctx.more(started, jobs.len(), latencies.len()) {
        let traced = ctx.start_job(jobs.len());
        let mut queries = Vec::new();
        for _ in 0..ROUNDS_PER_JOB {
            let mut round = ROUND;
            rng.shuffle(&mut round);
            for op in round {
                if op == Op::Range {
                    let from = rng.range(0, last_ms.max(1));
                    queries.push((op, from, from + rng.range(WINDOW_MS.0, WINDOW_MS.1)));
                } else {
                    queries.push((op, 0, 0));
                }
            }
        }
        let dir = ctx.work.join(format!("served-{}", jobs.len()));
        let j = job(ctx, &streams, &offsets, &queries, dir);
        peaks.push(ctx.end_job());
        latencies.extend(j.replies.iter().map(|r| r.latency_ms));
        jobs.push((traced, j));
    }
    let after = obs::global().snapshot();
    let diff = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    let killed = diff("tracestored.conn.killed");

    // Checks, against references computed after the timed loop so
    // they do not count toward peak memory.
    let reference = ctx.work.join("offline");
    let merged = offline(&streams, &offsets, reference.clone());
    drop(streams);
    let local_summary = TraceSummary::compute(&Trace::from_records(merged.clone())).to_string();
    let local_analyze = render_suite(&fsanalysis::run_analyzers(merged.iter(), &WINDOWS));
    let local_sweep = or_die(
        DataSnapshot {
            shards: Vec::new(),
            tail: merged.clone(),
        }
        .sweep(&SWEEP_KB, ctx.nproc),
        "local sweep",
    );
    let text = |s: &str| fnv(s.as_bytes());
    let mut expected: HashMap<Query, u64> = HashMap::new();
    let mut failed_queries = 0u64;
    for (_, j) in &jobs {
        out.check(j.records_merged == total, || {
            format!("daemon merged {} of {total} records", j.records_merged)
        });
        out.check(same_shards(&j.dir, &reference), || {
            format!("{}: shards differ from the offline merge", j.dir.display())
        });
        for r in &j.replies {
            let Some(got) = r.digest else {
                failed_queries += 1;
                continue;
            };
            let want = *expected.entry(r.query).or_insert_with(|| match r.query {
                (Op::Range, from, to) => {
                    let lo = merged.partition_point(|x| x.time.as_ms() < from);
                    let hi = merged.partition_point(|x| x.time.as_ms() < to);
                    digest(&merged[lo..hi])
                }
                (Op::Summary, ..) => text(&local_summary),
                (Op::Analyze, ..) => text(&local_analyze),
                (Op::Sweep, ..) => text(&local_sweep),
            });
            out.check(got == want, || {
                format!("{:?} reply differs from the local computation", r.query)
            });
        }
    }
    let failed_conns: u64 = jobs.iter().map(|(_, j)| j.failed_conns).sum();
    out.attempted = (jobs.len() * machines + latencies.len()) as u64;
    out.failed = killed.max(failed_conns) + failed_queries;
    out.params.push(("jobs_run", jobs.len().to_string()));
    out.params
        .push(("query_samples", latencies.len().to_string()));

    let rates: Vec<f64> = jobs
        .iter()
        .map(|(_, j)| per_second(total, j.ingest_s))
        .collect();
    let shard_bytes: u64 = shard_files(&reference)
        .iter()
        .map(|p| or_die(std::fs::metadata(p), "stat shard").len())
        .sum();
    out.end_to_end = vec![
        ("setup_s", median(&setup)),
        ("records_per_s", median(&rates)),
        ("bytes_per_record", shard_bytes as f64 / total.max(1) as f64),
        ("op_p50_ms", median(&latencies)),
        ("op_p90_ms", quantile(&latencies, 0.9)),
    ];
    if !ctx.trace {
        return out;
    }
    out.layer("peak_rss_mb", median(&peaks));

    let n = jobs.len() as f64;
    let seal_ns = after
        .span("tracestored.shard.seal")
        .map_or(0, |s| s.total_ns)
        - before
            .span("tracestored.shard.seal")
            .map_or(0, |s| s.total_ns);
    out.layer("tracestored.seal_s", seal_ns as f64 / 1e9 / n);
    out.layer(
        "tracestored.shard.seals",
        diff("tracestored.shard.seals") as f64 / n,
    );
    out.layer("tracestored.conn.killed", killed as f64);
    for op in [Op::Range, Op::Summary, Op::Analyze, Op::Sweep] {
        let lat: Vec<f64> = jobs
            .iter()
            .flat_map(|(_, j)| &j.replies)
            .filter(|r| r.query.0 == op)
            .map(|r| r.latency_ms)
            .collect();
        out.layer(
            &format!("tracestored.query.{}_p50_ms", op.name()),
            median(&lat),
        );
        out.layer(
            &format!("tracestored.query.{}_p90_ms", op.name()),
            quantile(&lat, 0.9),
        );
        out.params
            .push((op.name(), format!("{} samples", lat.len())));
    }
    let range_records: Vec<f64> = jobs
        .iter()
        .flat_map(|(_, j)| &j.replies)
        .filter(|r| r.query.0 == Op::Range)
        .map(|r| r.records as f64)
        .collect();
    out.layer("tracestored.range_records", median(&range_records));
    // The daemon's merge alone: `after` precedes the offline reference
    // merge, which buffers whole streams.
    out.layer(
        "fstrace.fleet.buffered_records_peak",
        after
            .gauge("fstrace.fleet.buffered_records_peak")
            .unwrap_or(0) as f64,
    );

    let spans = ctx.tracer.spans();
    let profile = Profile::new(&spans);
    let roots = profile.roots("job");
    let per_conn = |name: &str| -> f64 {
        median(
            &roots
                .iter()
                .map(|r| profile.busy_below(r, name) / machines as f64)
                .collect::<Vec<_>>(),
        )
    };
    out.layer("tracestored.send_s", per_conn("tracestored.send"));
    out.layer("tracestored.fin_s", per_conn("tracestored.fin"));
    let walls: Vec<(bool, f64)> = jobs.iter().map(|(t, j)| (*t, j.wall_s)).collect();
    out.layer("coverage", profile.coverage("job"));
    out.layer("error_ratio", out.error_ratio());
    out.layer("obs.tracing_overhead", tracing_overhead(&walls));
    out
}

/// One job; the root span is `job`, and its children are the calls
/// into `tracestored`: spawn, each ingest connection (in parallel),
/// each query, and shutdown.
fn job(
    ctx: &Ctx,
    streams: &[Vec<TraceRecord>],
    offsets: &[IdOffsets],
    queries: &[Query],
    dir: PathBuf,
) -> Job {
    let tracer = &ctx.tracer;
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        dir: dir.clone(),
        shard_target_bytes: SHARD_BYTES,
        bucket_ms: 0,
        chunk_target_bytes: 64 << 10,
        compress: true,
        backpressure_records: 1 << 20,
        analysis_windows: WINDOWS.to_vec(),
        query_jobs: ctx.nproc,
    };
    let machines = streams.len();
    tracer.span("job", None, |job| {
        let started = Instant::now();
        let (addr, handle) = tracer.span("tracestored.spawn", job, |_| {
            or_die(tracestored::spawn(config), "spawn daemon")
        });
        let addr = addr.to_string();

        let ingest_started = Instant::now();
        let failed_conns: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = streams
                .iter()
                .enumerate()
                .map(|(m, stream)| {
                    let addr = &addr;
                    let offsets = offsets[m];
                    s.spawn(move || {
                        tracer.span("tracestored.conn", job, |conn| {
                            ingest_one(tracer, conn, addr, machines, m, offsets, stream)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(Ok(())) => 0,
                    Ok(Err(e)) => {
                        eprintln!("bsdbench: ingest connection failed: {e}");
                        1
                    }
                    Err(_) => die("ingest thread panicked"),
                })
                .sum()
        });
        let ingest_s = secs(ingest_started.elapsed());

        let mut client = or_die(Client::connect(&addr), "query connect");
        let replies = queries
            .iter()
            .map(|&query| {
                let t = Instant::now();
                let name = format!("tracestored.query.{}", query.0.name());
                let reply = tracer.span(&name, job, |_| match query {
                    (Op::Range, from, to) => client.range(from, to).map(|r| (digest(&r), r.len())),
                    (Op::Summary, ..) => client.summary().map(|s| (fnv(s.as_bytes()), 0)),
                    (Op::Analyze, ..) => client.analyze().map(|s| (fnv(s.as_bytes()), 0)),
                    (Op::Sweep, ..) => client.sweep(&SWEEP_KB).map(|s| (fnv(s.as_bytes()), 0)),
                });
                let latency_ms = secs(t.elapsed()) * 1e3;
                if let Err(e) = &reply {
                    eprintln!("bsdbench: {query:?} failed: {e}");
                }
                Reply {
                    query,
                    latency_ms,
                    digest: reply.as_ref().ok().map(|r| r.0),
                    records: reply.map_or(0, |r| r.1),
                }
            })
            .collect();
        let stats = tracer.span("tracestored.shutdown", job, |_| {
            or_die(client.shutdown(), "shutdown daemon");
            or_die(
                handle
                    .join()
                    .unwrap_or_else(|_| die("daemon thread panicked")),
                "daemon",
            )
        });
        Job {
            dir,
            ingest_s,
            wall_s: secs(started.elapsed()),
            replies,
            records_merged: stats.records_merged,
            failed_conns,
        }
    })
}

/// One ingest connection's closed loop.
fn ingest_one(
    tracer: &crate::tracer::Tracer,
    conn: Option<crate::tracer::SpanId>,
    addr: &str,
    machines: usize,
    m: usize,
    offsets: IdOffsets,
    stream: &[TraceRecord],
) -> std::io::Result<()> {
    let mut client = Client::connect(addr)?;
    client.hello(machines as u16, m as u16, offsets, &format!("bench-{m}"))?;
    let mut send = tracer.acc("tracestored.send", conn);
    for chunk in stream.chunks(BATCH) {
        send.time(|| {
            client.send_records(chunk)?;
            client.progress(chunk.last().expect("chunks are non-empty").time.as_ms())
        })?;
    }
    send.time(|| client.progress(u64::MAX))?;
    send.finish(tracer);
    let accepted = tracer.span("tracestored.fin", conn, |_| client.fin())?;
    if accepted != stream.len() as u64 {
        return Err(std::io::Error::other(format!(
            "machine {m}: daemon accepted {accepted} of {} records",
            stream.len()
        )));
    }
    Ok(())
}
