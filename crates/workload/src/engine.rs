//! The discrete-event engine: users, daemons, and the printer spooler
//! interleaved on a simulated clock.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::io;
use std::sync::OnceLock;

use bsdfs::{Fd, Fs, FsError, FsParams, FsResult, OpenFlags, SeekFrom};
use fstrace::{EventKind, RecordSink, ReorderBuffer, Trace, TraceEvent, TraceRecord};

use crate::apps::Ctx;
use crate::namespace::{self, Namespace};
use crate::profile::{CommandKind, MachineProfile};
use crate::rng::Sampler;

/// Parameters for one workload run.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// The machine being simulated.
    pub profile: MachineProfile,
    /// Master random seed; everything derives from it.
    pub seed: u64,
    /// Simulated duration in hours.
    pub duration_hours: f64,
    /// File system geometry (needs a data region large enough for the
    /// namespace plus churn).
    pub fs_params: FsParams,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            profile: MachineProfile::ucbarpa(),
            seed: 1985,
            duration_hours: 1.0,
            fs_params: FsParams {
                data_frags: 256 * 1024, // 256 Mbytes of data space.
                ninodes: 65_536,
                ..FsParams::bsd42()
            },
        }
    }
}

/// The product of a workload run.
pub struct GeneratedTrace {
    /// The logical trace, in time order.
    pub trace: Trace,
    /// The file system after the run — its buffer cache, name cache,
    /// and disk counters feed the Section 6.4 comparison.
    pub fs: Fs,
    /// Commands that failed (ENOSPC etc.); should be zero.
    pub errors: u64,
}

/// The product of a streaming workload run ([`generate_into`]): the
/// records themselves already went to the sink, in time order.
pub struct GeneratedStream {
    /// The file system after the run — its buffer cache, name cache,
    /// and disk counters feed the Section 6.4 comparison.
    pub fs: Fs,
    /// Commands that failed (ENOSPC etc.); should be zero.
    pub errors: u64,
    /// Records written to the sink.
    pub records: u64,
    /// Most simultaneously open files at any point in the trace.
    pub live_sessions_peak: u64,
    /// Per-kind record counts, indexed like [`EventKind::ALL`].
    pub event_counts: [u64; 7],
}

/// Why a streaming workload run stopped.
#[derive(Debug)]
pub enum GenerateError {
    /// The file system could not be set up (e.g. the disk is too small
    /// for the namespace).
    Fs(FsError),
    /// The record sink rejected a record.
    Io(io::Error),
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::Fs(e) => write!(f, "file system error: {e}"),
            GenerateError::Io(e) => write!(f, "record sink error: {e}"),
        }
    }
}

impl std::error::Error for GenerateError {}

impl From<FsError> for GenerateError {
    fn from(e: FsError) -> Self {
        GenerateError::Fs(e)
    }
}

impl From<io::Error> for GenerateError {
    fn from(e: io::Error) -> Self {
        GenerateError::Io(e)
    }
}

/// The `workload.live_sessions_peak` gauge: the most simultaneously
/// open files any workload run in this process has produced.
fn live_sessions_peak_gauge() -> &'static obs::Gauge {
    static CELL: OnceLock<obs::Gauge> = OnceLock::new();
    CELL.get_or_init(|| obs::global().gauge("workload.live_sessions_peak"))
}

/// Running tallies over one machine's record stream: totals, per-kind
/// counts, and how many files are simultaneously open as records stream
/// past in time order.
#[derive(Debug, Default)]
struct StreamCounters {
    records: u64,
    live: u64,
    peak: u64,
    events: [u64; 7],
}

impl StreamCounters {
    fn observe(&mut self, rec: &TraceRecord) {
        self.records += 1;
        let kind = rec.event.kind();
        if let Some(slot) = EventKind::ALL.iter().position(|&k| k == kind) {
            self.events[slot] += 1;
        }
        match rec.event {
            TraceEvent::Open { .. } => {
                self.live += 1;
                self.peak = self.peak.max(self.live);
            }
            TraceEvent::Close { .. } => self.live = self.live.saturating_sub(1),
            _ => {}
        }
    }
}

/// Wraps the caller's sink to update [`StreamCounters`] on the way by.
struct CountingSink<'a> {
    inner: &'a mut dyn RecordSink,
    counters: &'a mut StreamCounters,
}

impl RecordSink for CountingSink<'_> {
    fn write_record(&mut self, rec: &TraceRecord) -> io::Result<()> {
        self.counters.observe(rec);
        self.inner.write_record(rec)
    }
}

/// What a user is doing right now.
enum Phase {
    /// Between bursts.
    Idle,
    /// Executing commands; `left` remain in this burst.
    Burst { left: u32 },
    /// Inside an editor session with the temp file held open.
    Editing {
        fd: Fd,
        temp: String,
        src: String,
        writes_left: u32,
        temp_pos: u64,
    },
    /// A CAD simulation is computing; the listing lands when it wakes.
    CadRunning { deck_size: u64, left: u32 },
}

struct UserActor {
    uid: u32,
    rng: Sampler,
    phase: Phase,
}

struct StatusDaemon {
    rng: Sampler,
}

struct Spooler {
    rng: Sampler,
}

enum Actor {
    User(UserActor),
    Daemon(StatusDaemon),
    Spooler(Spooler),
}

/// Runs the workload and returns the trace plus the file system.
///
/// A thin wrapper over the streaming [`generate_into`]: records are
/// collected into a `Vec` and wrapped in a [`Trace`]. Because the
/// streaming engine already emits in time order, the result is
/// byte-identical to what the engine's event loop produces directly.
///
/// # Errors
///
/// Fails only if the initial namespace cannot be built (e.g. the
/// configured disk is too small); runtime command errors are counted in
/// [`GeneratedTrace::errors`] instead.
pub fn generate(config: &WorkloadConfig) -> FsResult<GeneratedTrace> {
    let mut records: Vec<TraceRecord> = Vec::new();
    let out = match generate_into(config, &mut records) {
        Ok(out) => out,
        Err(GenerateError::Fs(e)) => return Err(e),
        Err(GenerateError::Io(_)) => unreachable!("a Vec sink cannot fail"),
    };
    Ok(GeneratedTrace {
        trace: Trace::from_records(records),
        fs: out.fs,
        errors: out.errors,
    })
}

/// Runs the workload, streaming trace records to `sink` in time order.
///
/// This is the engine's real implementation. Actors are interleaved on
/// a scheduling heap whose wake times never decrease, and every actor
/// step emits records at or after its wake time — so records that have
/// fallen behind the scheduler's clock can be released immediately.
/// Each step's records drain from the kernel tracer into a
/// [`ReorderBuffer`] holding only the still-ambiguous tail; buffered
/// occupancy is bounded by actor concurrency, not by trace length
/// (high-water mark: the `fstrace.pipeline.buffered_records_peak`
/// gauge). The peak number of simultaneously open files is exported as
/// the `workload.live_sessions_peak` gauge.
///
/// # Errors
///
/// Fails if the initial namespace cannot be built or if `sink` rejects
/// a record; runtime command errors are counted in
/// [`GeneratedStream::errors`] instead.
pub fn generate_into(
    config: &WorkloadConfig,
    sink: &mut dyn RecordSink,
) -> Result<GeneratedStream, GenerateError> {
    let _timing = obs::global().span("workload.generate").start();
    let mut sim = MachineSim::new(config)?;
    sim.advance(u64::MAX, sink)?;
    sim.seal(sink)
}

/// One simulated machine, resumable in bounded time slices.
///
/// [`generate_into`] drives a `MachineSim` to completion in a single
/// call; the fleet runner instead interleaves many machines by
/// advancing each one epoch at a time. [`advance`](MachineSim::advance)
/// runs every actor step scheduled before a time horizon,
/// [`flush_to`](MachineSim::flush_to) releases the buffered records
/// that are final before that horizon, and [`seal`](MachineSim::seal)
/// performs the final `sync`, drains the tail, and returns the run's
/// products. Slicing never changes the output: the same config yields a
/// byte-identical record stream whether the machine is driven in one
/// call or in thousands of slices, because every record's position in
/// the stream depends only on the simulated clock, never on when the
/// caller chose to advance it.
pub struct MachineSim {
    profile: MachineProfile,
    end_ms: u64,
    fs: Fs,
    ns: Namespace,
    actors: Vec<Actor>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    buf: ReorderBuffer,
    counters: StreamCounters,
    errors: u64,
    steps: u64,
}

impl MachineSim {
    /// Builds the machine: file system, namespace, and actor schedule.
    ///
    /// # Errors
    ///
    /// Fails if the initial namespace cannot be built (e.g. the
    /// configured disk is too small for the profile's file population).
    pub fn new(config: &WorkloadConfig) -> Result<Self, GenerateError> {
        let mut fs = Fs::new(config.fs_params.clone())?;
        let mut master = Sampler::new(config.seed);
        fs.set_trace_enabled(false);
        let ns = namespace::build(&mut fs, &mut master, &config.profile)?;
        fs.sync(0);
        fs.set_trace_enabled(true);

        let end_ms = (config.duration_hours * 3_600_000.0) as u64;
        let mut actors: Vec<Actor> = Vec::new();
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        for uid in 0..config.profile.users {
            let rng = master.derive(uid as u64 + 1);
            actors.push(Actor::User(UserActor {
                uid,
                rng,
                phase: Phase::Idle,
            }));
            // Stagger user starts across the first ten minutes.
            let start = master.range(1_000, 600_000.min(end_ms.max(2_000)));
            heap.push(Reverse((start, actors.len() - 1)));
        }
        actors.push(Actor::Daemon(StatusDaemon {
            rng: master.derive(0x0dae),
        }));
        heap.push(Reverse((master.range(1_000, 30_000), actors.len() - 1)));
        actors.push(Actor::Spooler(Spooler {
            rng: master.derive(0x0590),
        }));
        heap.push(Reverse((60_000.min(end_ms), actors.len() - 1)));

        Ok(MachineSim {
            profile: config.profile.clone(),
            end_ms,
            fs,
            ns,
            actors,
            heap,
            buf: ReorderBuffer::new(),
            counters: StreamCounters::default(),
            errors: 0,
            steps: 0,
        })
    }

    /// Wake time of the next scheduled actor step, if any remain.
    pub fn next_wake(&self) -> Option<u64> {
        self.heap.peek().map(|&Reverse((t, _))| t)
    }

    /// `true` once every actor has run past the end of the trace and
    /// nothing is scheduled.
    pub fn idle(&self) -> bool {
        self.heap.is_empty()
    }

    /// End of the simulated span in milliseconds.
    pub fn end_ms(&self) -> u64 {
        self.end_ms
    }

    /// Records streamed to sinks so far.
    pub fn records(&self) -> u64 {
        self.counters.records
    }

    /// Runs every actor step scheduled strictly before `t_limit_ms`,
    /// streaming records to `sink` as they become final.
    ///
    /// Records still ambiguous at return (their times may yet be
    /// interleaved by future steps) stay buffered; pair with
    /// [`flush_to`](MachineSim::flush_to) to release the prefix that a
    /// time horizon makes final.
    ///
    /// # Errors
    ///
    /// Fails if `sink` rejects a record; runtime command errors are
    /// counted instead (see [`GeneratedStream::errors`]).
    pub fn advance(
        &mut self,
        t_limit_ms: u64,
        sink: &mut dyn RecordSink,
    ) -> Result<(), GenerateError> {
        while self.next_wake().is_some_and(|t| t < t_limit_ms) {
            let Some(Reverse((now, idx))) = self.heap.pop() else {
                unreachable!("peeked wake vanished");
            };
            self.steps += 1;
            // Wake times pop in nondecreasing order and every step
            // emits at or after its wake time, so anything buffered
            // before `now` is final and can stream out.
            self.buf.release_before(
                now,
                &mut CountingSink {
                    inner: sink,
                    counters: &mut self.counters,
                },
            )?;
            if now >= self.end_ms {
                continue;
            }
            let wake = match &mut self.actors[idx] {
                Actor::User(u) => {
                    match step_user(u, &mut self.fs, &mut self.ns, &self.profile, now) {
                        Ok(wake) => wake,
                        Err(_) => {
                            self.errors += 1;
                            u.phase = Phase::Idle; // Reset and try again later.
                            now + 60_000
                        }
                    }
                }
                Actor::Daemon(d) => {
                    match step_daemon(d, &mut self.fs, &mut self.ns, &self.profile, now) {
                        Ok(()) => now + self.profile.daemon_interval_ms,
                        Err(_) => {
                            self.errors += 1;
                            now + self.profile.daemon_interval_ms
                        }
                    }
                }
                Actor::Spooler(s) => {
                    match step_spooler(s, &mut self.fs, &mut self.ns, now) {
                        Ok(()) => {}
                        Err(_) => self.errors += 1,
                    }
                    now + 90_000
                }
            };
            self.heap.push(Reverse((wake, idx)));
            self.fs.drain_trace_into(&mut self.buf);
        }
        Ok(())
    }

    /// Releases every buffered record whose (quantized) time falls
    /// strictly before `t_limit_ms`, leaving later records buffered for
    /// the next slice.
    ///
    /// After `advance(t)` + `flush_to(t)`, everything this machine will
    /// ever emit before `t` has reached the sink — the property the
    /// fleet merge's per-machine progress watermark relies on.
    ///
    /// # Errors
    ///
    /// Fails if `sink` rejects a record.
    pub fn flush_to(&mut self, t_limit_ms: u64, sink: &mut dyn RecordSink) -> io::Result<()> {
        self.buf.release_before(
            t_limit_ms,
            &mut CountingSink {
                inner: sink,
                counters: &mut self.counters,
            },
        )
    }

    /// Ends the run: final `sync` at the trace end, tail drain, and
    /// batch export of the run's metrics to the global [`obs`]
    /// registry.
    ///
    /// # Errors
    ///
    /// Fails if `sink` rejects a record.
    pub fn seal(mut self, sink: &mut dyn RecordSink) -> Result<GeneratedStream, GenerateError> {
        debug_assert!(self.idle(), "seal before the schedule drained");
        self.fs.sync(self.end_ms);
        self.fs.drain_trace_into(&mut self.buf);
        self.buf.drain(&mut CountingSink {
            inner: sink,
            counters: &mut self.counters,
        })?;
        live_sessions_peak_gauge().record(self.counters.peak);
        // Batch-add to the global counters once per run: the hot loop
        // stays free of shared-cell traffic.
        obs::global()
            .counter("workload.actor_steps")
            .add(self.steps);
        obs::global().counter("workload.errors").add(self.errors);
        obs::global()
            .counter("workload.events")
            .add(self.counters.records);
        Ok(GeneratedStream {
            fs: self.fs,
            errors: self.errors,
            records: self.counters.records,
            live_sessions_peak: self.counters.peak,
            event_counts: self.counters.events,
        })
    }
}

/// One step of a user actor; returns the next wake time.
fn step_user(
    u: &mut UserActor,
    fs: &mut Fs,
    ns: &mut Namespace,
    profile: &MachineProfile,
    now: u64,
) -> FsResult<u64> {
    match &mut u.phase {
        Phase::Idle => {
            let left = 1 + u.rng.exp(profile.mean_burst_commands) as u32;
            u.phase = Phase::Burst { left };
            run_command(u, fs, ns, profile, now)
        }
        Phase::Burst { left } => {
            if *left == 0 {
                u.phase = Phase::Idle;
                return Ok(now + u.rng.delay_ms(profile.mean_idle_ms));
            }
            run_command(u, fs, ns, profile, now)
        }
        Phase::Editing {
            fd,
            temp,
            src,
            writes_left,
            temp_pos,
        } => {
            let fd = *fd;
            if *writes_left > 0 {
                // Editors do block-random writes within their temp file
                // (the paper's canonically non-sequential read-write
                // open).
                *writes_left -= 1;
                let size = fs.fd_size(fd)?;
                let target = if size > 2_048 && u.rng.chance(0.6) {
                    u.rng.range(0, size - 1_024)
                } else {
                    size
                };
                let mut t = now + u.rng.delay_ms(50.0);
                if target != *temp_pos {
                    fs.lseek(fd, SeekFrom::Set(target), t)?;
                    t += u.rng.delay_ms(30.0);
                }
                let mut pos = target;
                if u.rng.chance(0.4) {
                    // Page part of the buffer back in before editing it.
                    pos += fs.read(fd, u.rng.range(256, 2_048), t)?;
                    t += u.rng.delay_ms(20.0);
                }
                let n = u.rng.range(256, 4_096);
                fs.write(fd, n, t)?;
                *temp_pos = pos + n;
                return Ok(t + u.rng.delay_ms(18_000.0));
            }
            // Done editing: close the temp, rewrite the source (old
            // data dies), delete the temp.
            let temp = temp.clone();
            let src = src.clone();
            let mut t = now + u.rng.delay_ms(50.0);
            fs.close(fd, t)?;
            let new_size = u.rng.lognormal(7_000.0, 1.0, 300, 60_000);
            let mut ctx = Ctx {
                fs,
                ns,
                rng: &mut u.rng,
                uid: u.uid,
            };
            t = ctx.write_whole(&src, new_size, t)?;
            t += u.rng.delay_ms(30.0);
            fs.unlink(&temp, u.uid, t)?;
            u.phase = Phase::Burst { left: 0 };
            Ok(t + u.rng.delay_ms(profile.mean_think_ms))
        }
        Phase::CadRunning { deck_size, left } => {
            let deck_size = *deck_size;
            let left = *left;
            let mut ctx = Ctx {
                fs,
                ns,
                rng: &mut u.rng,
                uid: u.uid,
            };
            let t = ctx.cad_write_listing(deck_size, now)?;
            u.phase = Phase::Burst { left };
            Ok(t + u.rng.delay_ms(profile.mean_think_ms))
        }
    }
}

/// Picks and runs one command; returns the next wake time.
fn run_command(
    u: &mut UserActor,
    fs: &mut Fs,
    ns: &mut Namespace,
    profile: &MachineProfile,
    now: u64,
) -> FsResult<u64> {
    let Phase::Burst { left } = &mut u.phase else {
        unreachable!("run_command outside a burst");
    };
    *left = left.saturating_sub(1);
    let left_after = *left;
    let kind = profile.command_mix[u.rng.weighted(&profile.command_mix, |&(_, w)| w)].0;
    let mut ctx = Ctx {
        fs,
        ns,
        rng: &mut u.rng,
        uid: u.uid,
    };
    // Shell startup: read config files, sometimes consult the network
    // tables (positioned reads of a big administrative file).
    let mut t = ctx.read_startup_files(now)?;
    if ctx.rng.chance(0.20) {
        // An rwho/ruptime glance at who's on: many small whole reads.
        t = ctx.cmd_rwho(t)?;
    }
    if ctx.rng.chance(0.30) {
        let table = ctx.ns.admin[if ctx.rng.chance(0.5) { 0 } else { 2 }].clone();
        t = ctx.positioned_touch(&table, false, t)?;
    }
    let end = match kind {
        CommandKind::List => ctx.cmd_list(t)?,
        CommandKind::ViewDoc => ctx.cmd_view_doc(t)?,
        CommandKind::Compile => ctx.cmd_compile(t)?,
        CommandKind::Link => ctx.cmd_link(t)?,
        CommandKind::RunProgram => ctx.cmd_run_program(t)?,
        CommandKind::Mail => ctx.cmd_mail(t)?,
        CommandKind::Format => ctx.cmd_format(t)?,
        CommandKind::Admin => ctx.cmd_admin(t)?,
        CommandKind::Copy => ctx.cmd_copy(t)?,
        CommandKind::Remove => ctx.cmd_remove(t)?,
        CommandKind::Edit => {
            // Read the source, open the editor temp, switch phases.
            let src = {
                let uid = u.uid as usize;
                if ctx.rng.chance(0.25) {
                    let n = ctx.ns.sources[uid].len() as u64;
                    ctx.ns.cur_source[uid] = ctx.rng.range(0, n) as usize;
                }
                ctx.ns.sources[uid][ctx.ns.cur_source[uid]].clone()
            };
            let t = ctx.read_whole(&src, t)?;
            let temp = format!("/tmp/Ex{:05}", ctx.ns.next_serial());
            let t = t + ctx.rng.delay_ms(40.0);
            // Editors open their temp read-write: they page data back in
            // while editing, making these the paper's canonically
            // non-sequential read-write files.
            let flags = OpenFlags {
                read: true,
                write: true,
                create: true,
                truncate: true,
            };
            let fd = ctx.fs.open(&temp, flags, u.uid, t)?;
            let writes_left = 2 + ctx.rng.range(0, 7) as u32;
            u.phase = Phase::Editing {
                fd,
                temp,
                src,
                writes_left,
                temp_pos: 0,
            };
            return Ok(t + u.rng.delay_ms(18_000.0));
        }
        CommandKind::CadSimulate => {
            let (t, deck_size) = ctx.cad_read_deck(t)?;
            u.phase = Phase::CadRunning {
                deck_size,
                left: left_after,
            };
            // Circuit simulation runs for a while before output appears.
            return Ok(t + u.rng.delay_ms(90_000.0));
        }
        CommandKind::CadInspect => ctx.cmd_cad_inspect(t)?,
    };
    let end = ctx.maybe_touch_admin(profile.admin_touch_prob, end)?;
    Ok(end + u.rng.delay_ms(profile.mean_think_ms))
}

/// The network status daemon: rewrites every host file, spaced over a
/// couple of seconds, each exactly one period after its last rewrite —
/// the source of the paper's 180-second lifetime spike.
fn step_daemon(
    d: &mut StatusDaemon,
    fs: &mut Fs,
    ns: &mut Namespace,
    _profile: &MachineProfile,
    now: u64,
) -> FsResult<()> {
    let mut t = now;
    for path in &ns.status {
        t += d.rng.range(20, 120);
        // rwhod removes the stale file and writes a fresh one.
        match fs.unlink(path, 0, t) {
            Ok(()) | Err(FsError::NotFound) => {}
            Err(e) => return Err(e),
        }
        t += d.rng.range(5, 20);
        let fd = fs.open(path, OpenFlags::create_write(), 0, t)?;
        t += d.rng.range(10, 40);
        fs.write(fd, d.rng.range(300, 1_500), t)?;
        t += d.rng.range(10, 40);
        fs.close(fd, t)?;
    }
    Ok(())
}

/// The printer spooler: drains queued spool files (read whole, delete).
fn step_spooler(s: &mut Spooler, fs: &mut Fs, ns: &mut Namespace, now: u64) -> FsResult<()> {
    let ready: Vec<(String, u64)> = std::mem::take(&mut ns.spool_queue);
    let mut t = now;
    for (path, queued_at) in ready {
        if now < queued_at + 45_000 {
            ns.spool_queue.push((path, queued_at));
            continue;
        }
        t += s.rng.range(50, 300);
        let fd = match fs.open(&path, OpenFlags::read_only(), 0, t) {
            Ok(fd) => fd,
            Err(FsError::NotFound) => continue,
            Err(e) => return Err(e),
        };
        loop {
            t += s.rng.range(10, 60);
            if fs.read(fd, 8_192, t)? < 8_192 {
                break;
            }
        }
        t += s.rng.range(10, 60);
        fs.close(fd, t)?;
        t += s.rng.range(1_000, 5_000);
        fs.unlink(&path, 0, t)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstrace::EventKind;

    fn quick(profile: MachineProfile, hours: f64, seed: u64) -> GeneratedTrace {
        generate(&WorkloadConfig {
            profile,
            seed,
            duration_hours: hours,
            ..WorkloadConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn produces_a_nonempty_wellformed_trace() {
        let out = quick(MachineProfile::ucbarpa(), 0.2, 7);
        assert_eq!(out.errors, 0);
        assert!(out.trace.len() > 500, "only {} records", out.trace.len());
        assert_eq!(out.trace.sessions().anomalies(), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick(MachineProfile::ucbarpa(), 0.1, 99);
        let b = quick(MachineProfile::ucbarpa(), 0.1, 99);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn different_seeds_differ() {
        let a = quick(MachineProfile::ucbarpa(), 0.1, 1);
        let b = quick(MachineProfile::ucbarpa(), 0.1, 2);
        assert_ne!(a.trace, b.trace);
    }

    #[test]
    fn daemon_rewrites_status_files_every_period() {
        let out = quick(MachineProfile::ucbarpa(), 0.2, 3);
        // 0.2 h = 720 s → at least 3 full daemon rounds of 20 files.
        let creates = out
            .trace
            .records()
            .iter()
            .filter(|r| r.event.kind() == EventKind::Create)
            .count();
        assert!(creates >= 60, "creates = {creates}");
    }

    #[test]
    fn all_event_kinds_appear() {
        let out = quick(MachineProfile::ucbarpa(), 0.4, 5);
        let s = out.trace.summary();
        for kind in [
            EventKind::Open,
            EventKind::Create,
            EventKind::Close,
            EventKind::Seek,
            EventKind::Unlink,
            EventKind::Execve,
        ] {
            assert!(s.count(kind) > 0, "missing {:?}", kind);
        }
    }

    #[test]
    fn fs_stays_consistent() {
        let mut out = quick(MachineProfile::ucbcad(), 0.25, 11);
        out.fs.check_consistency().unwrap();
        assert_eq!(out.errors, 0);
    }

    #[test]
    fn streaming_generation_matches_materialized() {
        let config = WorkloadConfig {
            profile: MachineProfile::ucbarpa(),
            seed: 21,
            duration_hours: 0.1,
            ..WorkloadConfig::default()
        };
        let batch = generate(&config).unwrap();
        let mut records: Vec<fstrace::TraceRecord> = Vec::new();
        let stream = generate_into(&config, &mut records).unwrap();
        assert_eq!(stream.records as usize, records.len());
        assert_eq!(batch.trace.records(), records.as_slice());
        // The sink already received records in time order.
        assert_eq!(Trace::from_records(records.clone()).records(), &records[..]);
        assert!(stream.live_sessions_peak >= 1);
        assert_eq!(stream.errors, batch.errors);
    }

    #[test]
    fn streaming_generation_exports_live_session_gauge() {
        let config = WorkloadConfig {
            profile: MachineProfile::ucbarpa(),
            seed: 8,
            duration_hours: 0.05,
            ..WorkloadConfig::default()
        };
        let mut records: Vec<fstrace::TraceRecord> = Vec::new();
        let stream = generate_into(&config, &mut records).unwrap();
        let snap = obs::global().snapshot();
        assert!(snap
            .gauge("workload.live_sessions_peak")
            .is_some_and(|v| v >= stream.live_sessions_peak));
        // The reorder buffer held far fewer records than the trace:
        // memory stays bounded by actor concurrency, not trace length.
        assert!(snap
            .gauge("fstrace.pipeline.buffered_records_peak")
            .is_some_and(|v| v > 0 && v < records.len() as u64));
    }
}
