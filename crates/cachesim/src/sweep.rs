//! Parallel configuration sweeps sharing one trace expansion.
//!
//! Every experiment in Section 6 evaluates a *grid* of configurations
//! against the same trace: cache sizes × write policies (Table VI),
//! block sizes × cache sizes (Table VII), cache sizes with and without
//! paging (Figure 7). Expanding the trace into [`ReplayEvent`]s
//! dominates the setup cost of each run, yet the expansion depends on
//! only three of the configuration fields — [`CacheConfig::fidelity`],
//! [`CacheConfig::rw_handling`], and [`CacheConfig::simulate_paging`]
//! (see [`ExpansionKey`]). All other fields (cache size, block size,
//! write policy, replacement, elision, invalidation) only change how
//! the *same* event stream is consumed.
//!
//! [`run`] therefore groups the requested configurations by expansion
//! key, materializes each group's event vector **once**, and fans the
//! per-configuration simulations out over a scoped thread pool that
//! borrows the events read-only. Results come back indexed exactly like
//! the input slice, so output is deterministic regardless of the thread
//! count — and because [`Simulator::run_events`] is itself
//! deterministic, every metric is bit-identical to what a sequential
//! [`Simulator::run`] of that configuration would produce.
//!
//! [`run_source`] generalizes this to any replayable record stream —
//! e.g. an incremental trace-file reader or the k-way server merge —
//! without ever materializing the records themselves. Buffering is
//! required only when a group has **more than one** task (the expanded
//! events are consumed once per task); a single-cell group streams
//! records through the [`crate::EventExpander`] directly into its
//! simulator, holding O(open files) state.
//!
//! Within each expansion group, LRU cells sharing block size, elision,
//! and invalidation settings differ only in capacity and write policy —
//! exactly what the [`crate::stack`] profiler derives from **one**
//! replay via stack distances, at any fidelity. The engine partitions
//! each group into such profile subgroups (two or more cells each) plus
//! the remaining *direct* cells (FIFO replacement, partnerless
//! parameter combos), turning an S-size × P-policy grid from S×P
//! replays into one profiled pass plus the fallback cells. A group
//! consisting of a single profile subgroup streams records straight
//! into the profiler; mixed groups materialize the event vector once
//! and run subgroups and direct cells as separate tasks over it.
//!
//! Every group's work runs on one worker pool: streaming tasks (single
//! cells and whole-group profiles, each re-reading the source) first,
//! then the buffered groups' profiles and direct cells. The first
//! worker to reach a buffered task runs the one shared expansion pass
//! while any other worker needing it waits.
//!
//! The engine is dependency-free: plain [`std::thread::scope`] workers
//! pulling indices from an atomic counter, defaulting to
//! [`std::thread::available_parallelism`] threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

use fstrace::{Trace, TraceRecord};

use crate::config::{CacheConfig, Fidelity, RwHandling};
use crate::metrics::CacheMetrics;
use crate::replay::{EventExpander, ReplayEvent, Simulator};
use crate::stack;

/// The subset of [`CacheConfig`] that [`replay_events`] depends on.
///
/// Configurations with equal keys can share one expanded event vector;
/// any field *not* in this key is guaranteed not to affect expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpansionKey {
    /// Replay fidelity (changes the event granularity entirely).
    pub fidelity: Fidelity,
    /// How read-write runs are billed (changes which `Transfer`/`Op`
    /// events exist and their direction).
    pub rw_handling: RwHandling,
    /// Whether `execve` records expand into program-image reads.
    pub simulate_paging: bool,
}

impl ExpansionKey {
    /// Extracts the expansion-relevant fields of a configuration.
    pub fn of(config: &CacheConfig) -> Self {
        ExpansionKey {
            fidelity: config.fidelity,
            rw_handling: config.rw_handling,
            simulate_paging: config.simulate_paging,
        }
    }
}

/// Process-wide default worker count; 0 means "ask the OS".
static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default worker count used by [`run`].
///
/// `0` restores the automatic default
/// ([`std::thread::available_parallelism`]). The `repro --jobs N` flag
/// calls this once at startup so every experiment sweep picks it up.
pub fn set_default_jobs(jobs: usize) {
    DEFAULT_JOBS.store(jobs, Ordering::Relaxed);
}

/// The worker count [`run`] will use: the [`set_default_jobs`] override
/// if set, otherwise the machine's available parallelism.
pub fn default_jobs() -> usize {
    match DEFAULT_JOBS.load(Ordering::Relaxed) {
        0 => thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Simulates every configuration against the trace using
/// [`default_jobs`] worker threads. See [`run_with_jobs`].
pub fn run(trace: &Trace, configs: &[CacheConfig]) -> Vec<(CacheConfig, CacheMetrics)> {
    run_with_jobs(trace, configs, default_jobs())
}

/// Simulates every configuration against the trace on `jobs` worker
/// threads, expanding the trace once per [`ExpansionKey`] group.
///
/// The result vector is ordered exactly like `configs`, and each entry
/// is bit-identical to `Simulator::run(trace, &config)` for that
/// configuration, for any `jobs >= 1`.
pub fn run_with_jobs(
    trace: &Trace,
    configs: &[CacheConfig],
    jobs: usize,
) -> Vec<(CacheConfig, CacheMetrics)> {
    run_source(|| trace.records().iter(), configs, jobs)
}

/// Simulates every configuration against a replayable record stream on
/// `jobs` worker threads, expanding the stream once per
/// [`ExpansionKey`] group.
///
/// `source` may be called several times, from the worker threads, and
/// must yield the same records, in time order, each call: once per
/// *streaming* group (a single cell, or a group profiled whole), plus
/// at most **one** call shared by every event-materializing group —
/// their expanders all consume the same pass, so a mixed sweep never
/// re-decodes the stream per buffered group. Each buffered group's
/// event vector is materialized once and borrowed read-only by the
/// pool.
///
/// The result vector is ordered exactly like `configs`, and each entry
/// is bit-identical to `Simulator::run` of that configuration over the
/// same records, for any `jobs >= 1`.
pub fn run_source<I, F>(
    source: F,
    configs: &[CacheConfig],
    jobs: usize,
) -> Vec<(CacheConfig, CacheMetrics)>
where
    I: IntoIterator,
    I::Item: std::borrow::Borrow<TraceRecord>,
    F: Fn() -> I + Sync,
{
    let reg = obs::global();
    let _sweep_timing = reg.span("cachesim.sweep.run").start();
    // Per-cell timing handles, shared by all workers (lock-free span,
    // coarse-grained histogram — one record per simulated cell).
    let cell_span = reg.span("cachesim.sweep.cell");
    let cell_us = reg.histogram("cachesim.sweep.cell_us");

    // Group config indices by expansion key, preserving first-seen
    // order. At most 18 distinct keys exist (3 fidelities × 3
    // rw-handlings × paging), so a linear scan beats a hash map.
    let mut groups: Vec<(ExpansionKey, Vec<usize>)> = Vec::new();
    for (i, c) in configs.iter().enumerate() {
        let key = ExpansionKey::of(c);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((key, vec![i])),
        }
    }

    let mut profiled_cells = 0u64;
    let mut fallback_cells = 0u64;
    // Groups that must materialize their event vector. They are
    // collected first and then fed from ONE shared pass over the
    // source: each record fans out to every buffered group's expander,
    // so a sweep with several event-materializing groups decodes (or
    // merges, or pipelines) the record stream once, not once per group.
    struct Buffered {
        /// First config index of the group (keys the expander).
        first: usize,
        direct: Vec<usize>,
        subgroups: Vec<Vec<usize>>,
    }
    let mut streamed: Vec<Task> = Vec::new();
    let mut buffered: Vec<Buffered> = Vec::new();
    for (_, idxs) in &groups {
        if let [i] = idxs.as_slice() {
            // A lone cell consumes the expansion exactly once: stream
            // records through the expander with no event buffering. A
            // profile of one cell would save nothing, so this counts
            // as a fallback when profiling is on.
            streamed.push(Task::Direct(None, *i));
            if stack::enabled() {
                fallback_cells += 1;
            }
            continue;
        }

        // Partition the group into stack-profile subgroups (cells that
        // differ only in capacity and write policy — two or more each)
        // and the direct remainder.
        let mut direct: Vec<usize> = Vec::new();
        let mut subgroups: Vec<((u64, bool, bool), Vec<usize>)> = Vec::new();
        if stack::enabled() {
            for &i in idxs {
                let c = &configs[i];
                if stack::profilable(c) {
                    let key = (c.block_size, c.whole_block_elision, c.invalidate_on_delete);
                    match subgroups.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, cells)) => cells.push(i),
                        None => subgroups.push((key, vec![i])),
                    }
                } else {
                    direct.push(i);
                }
            }
            subgroups.retain(|(_, cells)| {
                if cells.len() >= 2 {
                    true
                } else {
                    direct.extend_from_slice(cells);
                    false
                }
            });
            direct.sort_unstable();
        } else {
            direct.clone_from(idxs);
        }
        profiled_cells += subgroups.iter().map(|(_, c)| c.len() as u64).sum::<u64>();
        fallback_cells += direct.len() as u64;

        if direct.is_empty() && subgroups.len() == 1 {
            // The whole group is one profile: stream records straight
            // through the expander into the profiler — one pass, no
            // event buffering, every capacity and policy at once.
            let (_, cells) = subgroups.pop().expect("one subgroup");
            streamed.push(Task::Profile(None, cells));
            continue;
        }

        buffered.push(Buffered {
            first: idxs[0],
            direct,
            subgroups: subgroups.into_iter().map(|(_, cells)| cells).collect(),
        });
    }

    // One expansion pass shared by every buffered group, run by the
    // first worker to reach a buffered task while the others wait:
    // each record feeds each group's expander, each expander fills its
    // own event vector for the workers to borrow read-only.
    let events: OnceLock<Vec<Vec<ReplayEvent>>> = OnceLock::new();
    let expand = || {
        let mut expanders: Vec<EventExpander> = buffered
            .iter()
            .map(|b| EventExpander::new(&configs[b.first]))
            .collect();
        let mut events: Vec<Vec<ReplayEvent>> = vec![Vec::new(); buffered.len()];
        for rec in source() {
            let rec = std::borrow::Borrow::borrow(&rec);
            for (out, ex) in events.iter_mut().zip(&mut expanders) {
                ex.feed(rec, &mut |ev| out.push(ev));
            }
        }
        events
    };

    // One task queue for the pool. Streaming tasks come first: each
    // re-reads the source on its own and starts at once. Buffered
    // profiles are the heaviest of the rest, so they start before the
    // pool fills up with quick direct cells.
    let tasks: Vec<Task> = streamed
        .into_iter()
        .chain(buffered.iter().enumerate().flat_map(|(g, b)| {
            b.subgroups
                .iter()
                .map(move |cells| Task::Profile(Some(g), cells.clone()))
        }))
        .chain(
            buffered
                .iter()
                .enumerate()
                .flat_map(|(g, b)| b.direct.iter().map(move |&i| Task::Direct(Some(g), i))),
        )
        .collect();
    let run_task = |task: &Task| -> Vec<(usize, CacheMetrics)> {
        match task {
            Task::Direct(group, i) => {
                let config = &configs[*i];
                let m = timed_cell(&cell_span, &cell_us, || match group {
                    None => Simulator::run_stream(source(), config),
                    Some(g) => Simulator::run_events(&events.get_or_init(expand)[*g], config),
                });
                vec![(*i, m)]
            }
            Task::Profile(group, cell_idxs) => {
                let cells: Vec<CacheConfig> =
                    cell_idxs.iter().map(|&i| configs[i].clone()).collect();
                let metrics = timed_cells(&cell_span, &cell_us, cells.len(), || {
                    match group {
                        None => stack::profile_stream(source(), &cells),
                        Some(g) => stack::profile_events(&events.get_or_init(expand)[*g], &cells),
                    }
                    .expect("partitioned subgroup cells are jointly profilable")
                });
                cell_idxs.iter().copied().zip(metrics).collect()
            }
        }
    };

    let mut slots: Vec<Option<CacheMetrics>> = vec![None; configs.len()];
    let workers = jobs.max(1).min(tasks.len());
    if workers <= 1 {
        for task in &tasks {
            for (i, m) in run_task(task) {
                slots[i] = Some(m);
            }
        }
    } else {
        let next = AtomicUsize::new(0);
        let done = thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut out: Vec<(usize, CacheMetrics)> = Vec::new();
                        loop {
                            let n = next.fetch_add(1, Ordering::Relaxed);
                            let Some(task) = tasks.get(n) else { break };
                            out.extend(run_task(task));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("sweep worker panicked"))
                .collect::<Vec<_>>()
        });
        for (i, m) in done {
            slots[i] = Some(m);
        }
    }
    if stack::enabled() {
        reg.counter("cachesim.stack.profiled_cells")
            .add(profiled_cells);
        reg.counter("cachesim.stack.fallback_cells")
            .add(fallback_cells);
    }

    let out: Vec<(CacheConfig, CacheMetrics)> = configs
        .iter()
        .cloned()
        .zip(slots.into_iter().map(|m| m.expect("every slot filled")))
        .collect();
    publish_sweep_totals(reg, groups.len(), &out);
    out
}

/// One unit of pool work. The group is `None` for a task that streams
/// the source itself, else the index of the buffered group whose
/// shared event vector it replays.
enum Task {
    /// A stack profile of two or more cells, by config index.
    Profile(Option<usize>, Vec<usize>),
    /// One directly simulated cell, by config index.
    Direct(Option<usize>, usize),
}

/// Runs one profiled subgroup under wall-clock timing, attributing an
/// equal share of the pass to each of its `cells` cells so per-cell
/// span counts and histograms stay comparable with direct cells.
fn timed_cells(
    span: &obs::Span,
    hist: &obs::Histogram,
    cells: usize,
    run: impl FnOnce() -> Vec<CacheMetrics>,
) -> Vec<CacheMetrics> {
    let started = std::time::Instant::now();
    let metrics = run();
    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let share = ns / cells.max(1) as u64;
    for _ in 0..cells {
        span.record_ns(share);
        hist.record(share / 1_000);
    }
    metrics
}

/// Runs one sweep cell under wall-clock timing.
fn timed_cell(
    span: &obs::Span,
    hist: &obs::Histogram,
    cell: impl FnOnce() -> CacheMetrics,
) -> CacheMetrics {
    let started = std::time::Instant::now();
    let metrics = cell();
    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    span.record_ns(ns);
    hist.record(ns / 1_000);
    metrics
}

/// Batch-adds one sweep's aggregate traffic into the global registry.
///
/// `read_misses` is derived as `logical_reads - read_hits`, which the
/// metrics-invariant suite cross-checks against `disk_reads` plus
/// elided fetches.
fn publish_sweep_totals(
    reg: &obs::Registry,
    groups: usize,
    results: &[(CacheConfig, CacheMetrics)],
) {
    reg.counter("cachesim.sweep.runs").inc();
    reg.counter("cachesim.sweep.groups").add(groups as u64);
    reg.counter("cachesim.sweep.cells")
        .add(results.len() as u64);
    let mut logical_reads = 0u64;
    let mut logical_writes = 0u64;
    let mut read_hits = 0u64;
    let mut disk_reads = 0u64;
    let mut disk_writes = 0u64;
    for (_, m) in results {
        logical_reads += m.logical_reads;
        logical_writes += m.logical_writes;
        read_hits += m.read_hits;
        disk_reads += m.disk_reads;
        disk_writes += m.disk_writes;
    }
    reg.counter("cachesim.sweep.logical_reads")
        .add(logical_reads);
    reg.counter("cachesim.sweep.logical_writes")
        .add(logical_writes);
    reg.counter("cachesim.sweep.read_hits").add(read_hits);
    reg.counter("cachesim.sweep.read_misses")
        .add(logical_reads - read_hits);
    reg.counter("cachesim.sweep.disk_reads").add(disk_reads);
    reg.counter("cachesim.sweep.disk_writes").add(disk_writes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WritePolicy;
    use fstrace::{AccessMode, TraceBuilder};

    fn small_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        for i in 0..24u64 {
            let f = b.new_file_id();
            let t = i * 500;
            let o = b.open(t, f, u, AccessMode::ReadOnly, 8_192, false);
            b.close(t + 100, o, 8_192);
            if i % 3 == 0 {
                let o = b.open(t + 200, f, u, AccessMode::WriteOnly, 8_192, false);
                b.close(t + 300, o, 4_096);
            }
            b.execve(t + 400, f, u, 16_384);
        }
        b.finish()
    }

    fn grid() -> Vec<CacheConfig> {
        let mut v = Vec::new();
        for cache_kb in [64u64, 256] {
            for policy in WritePolicy::TABLE_VI {
                v.push(CacheConfig {
                    cache_bytes: cache_kb * 1024,
                    write_policy: policy,
                    ..CacheConfig::default()
                });
            }
        }
        v
    }

    #[test]
    fn matches_sequential_runs() {
        let trace = small_trace();
        let configs = grid();
        for jobs in [1, 2, 8] {
            let swept = run_with_jobs(&trace, &configs, jobs);
            assert_eq!(swept.len(), configs.len());
            for (i, (c, m)) in swept.iter().enumerate() {
                assert_eq!(*c, configs[i], "order must match input");
                assert_eq!(*m, Simulator::run(&trace, c), "jobs={jobs} config {i}");
            }
        }
    }

    // Expansion-count sharing is asserted in tests/sharing.rs, which
    // runs in its own process: the counter is process-global, and
    // concurrent unit tests would perturb before/after diffs here.

    #[test]
    fn paging_key_differs_and_changes_results() {
        let plain = CacheConfig::default();
        let paging = CacheConfig {
            simulate_paging: true,
            ..CacheConfig::default()
        };
        assert_ne!(ExpansionKey::of(&plain), ExpansionKey::of(&paging));
        let trace = small_trace();
        let out = run_with_jobs(&trace, &[plain, paging], 2);
        assert!(out[1].1.logical_reads > out[0].1.logical_reads);
    }

    #[test]
    fn empty_and_single_config_edge_cases() {
        let trace = small_trace();
        assert!(run_with_jobs(&trace, &[], 4).is_empty());
        let one = run_with_jobs(&trace, &[CacheConfig::default()], 4);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].1, Simulator::run(&trace, &CacheConfig::default()));
    }

    #[test]
    fn run_source_matches_run_for_owned_streams() {
        let trace = small_trace();
        // A grid with a lone paging cell: exercises both the streamed
        // single-cell path and the buffered multi-cell path.
        let mut configs = grid();
        configs.push(CacheConfig {
            simulate_paging: true,
            ..CacheConfig::default()
        });
        for jobs in [1, 4] {
            let streamed = run_source(|| trace.records().iter().copied(), &configs, jobs);
            let materialized = run_with_jobs(&trace, &configs, jobs);
            assert_eq!(streamed, materialized, "jobs={jobs}");
        }
    }

    #[test]
    fn fifo_cells_fall_back_alongside_profiled_columns() {
        // LRU capacity columns profile together; FIFO cells (no
        // inclusion property) and a mismatched-elision singleton run
        // direct — all in one expansion group, all bit-identical to
        // sequential simulation.
        let trace = small_trace();
        let mut configs = Vec::new();
        for cache_kb in [32u64, 64, 256] {
            for policy in [WritePolicy::DelayedWrite, WritePolicy::WriteThrough] {
                configs.push(CacheConfig {
                    cache_bytes: cache_kb * 1024,
                    write_policy: policy,
                    ..CacheConfig::default()
                });
            }
            configs.push(CacheConfig {
                cache_bytes: cache_kb * 1024,
                replacement: crate::Replacement::Fifo,
                ..CacheConfig::default()
            });
        }
        configs.push(CacheConfig {
            whole_block_elision: false,
            ..CacheConfig::default()
        });
        for jobs in [1, 3] {
            let swept = run_with_jobs(&trace, &configs, jobs);
            for (i, (c, m)) in swept.iter().enumerate() {
                assert_eq!(*c, configs[i]);
                assert_eq!(*m, Simulator::run(&trace, c), "jobs={jobs} config {i}");
            }
        }
    }

    #[test]
    fn fidelity_joins_the_expansion_key() {
        let block = CacheConfig::default();
        let syscall = CacheConfig {
            fidelity: Fidelity::Syscall,
            ..CacheConfig::default()
        };
        assert_ne!(ExpansionKey::of(&block), ExpansionKey::of(&syscall));
    }

    #[test]
    fn mixed_fidelity_sweep_matches_sequential_runs() {
        // A grid spanning all three fidelities in one call: each
        // fidelity's plane is one expansion group profiled as a
        // streaming task — every result bit-identical to a sequential
        // run.
        let trace = small_trace();
        let mut configs = Vec::new();
        for fidelity in Fidelity::ALL {
            for cache_kb in [64u64, 256] {
                for policy in [WritePolicy::DelayedWrite, WritePolicy::WriteThrough] {
                    configs.push(CacheConfig {
                        cache_bytes: cache_kb * 1024,
                        write_policy: policy,
                        fidelity,
                        ..CacheConfig::default()
                    });
                }
            }
        }
        for jobs in [1, 4] {
            let swept = run_with_jobs(&trace, &configs, jobs);
            for (i, (c, m)) in swept.iter().enumerate() {
                assert_eq!(*c, configs[i], "order must match input");
                assert_eq!(*m, Simulator::run(&trace, c), "jobs={jobs} config {i}");
            }
        }
    }

    #[test]
    fn duplicate_configs_each_get_a_result() {
        let trace = small_trace();
        let one = CacheConfig::default();
        let configs = vec![one.clone(), one.clone(), one.clone()];
        let swept = run_with_jobs(&trace, &configs, 2);
        let want = Simulator::run(&trace, &one);
        assert_eq!(swept.len(), 3);
        for (_, m) in &swept {
            assert_eq!(*m, want);
        }
    }

    #[test]
    fn disabled_profiling_still_matches() {
        let trace = small_trace();
        let configs = grid();
        let profiled = run_with_jobs(&trace, &configs, 2);
        crate::stack::set_enabled(false);
        let direct = run_with_jobs(&trace, &configs, 2);
        crate::stack::set_enabled(true);
        assert_eq!(profiled, direct);
    }

    #[test]
    fn default_jobs_override_round_trips() {
        set_default_jobs(3);
        assert_eq!(default_jobs(), 3);
        set_default_jobs(0);
        assert!(default_jobs() >= 1);
    }
}
