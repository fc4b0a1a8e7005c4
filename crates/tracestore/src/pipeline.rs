//! Overlapped decode→replay pipeline: [`PipelinedBlocks`].
//!
//! The sequential readers ([`Archive::records`], [`Archive::blocks`])
//! interleave chunk verification, decompression, and decode with the
//! consumer's own work on one thread, so replay throughput is the *sum*
//! of both costs. This module overlaps them: a small worker pool claims
//! chunks off a shared counter, runs the verify→decompress→decode
//! stages with per-worker scratch buffers, and deposits finished
//! [`RecordBlock`]s into a bounded in-order ring the consumer drains.
//! Decode of chunk *i+1..i+k* proceeds while the consumer replays chunk
//! *i*; steady-state throughput approaches `max(decode, consume)`
//! instead of their sum.
//!
//! # Ring protocol
//!
//! The ring has `cap` slots; chunk `i` always travels through slot
//! `i % cap`. Each slot carries a `next_fill` generation counter — the
//! chunk index the slot will accept next:
//!
//! * A worker that decoded chunk `i` waits on the slot's `freed`
//!   condvar until `next_fill == i`, deposits, and signals `ready`.
//! * The consumer waits on `ready` until slot `i % cap` holds chunk
//!   `i`, takes the block, advances `next_fill` to `i + cap`, and
//!   signals `freed`.
//!
//! Workers claim chunk indices densely (atomic fetch-add), so for any
//! `cap >= 1` the worker holding the lowest undeposited chunk can
//! always deposit, the consumer always progresses, and blocks arrive in
//! exactly archive order — the backpressure bound is `cap` decoded
//! chunks plus one in-flight chunk per worker.
//!
//! # Byte identity
//!
//! Workers run the same chunk read step as the sequential readers and
//! report a damaged chunk as an opaque failure. **Only the consumer**
//! acts on it, by handing each chunk's outcome, in chunk order, to the
//! same state machine the sequential [`Archive::blocks`] reader uses:
//! it builds the [`DecodeError::CorruptChunk`], the recovery report,
//! and the counters. So the record stream (and the recovery report) is
//! byte-identical to a sequential read for any worker count, in both
//! `Skip` and `Fail` modes.
//!
//! # Allocation recycling
//!
//! Consumers that drain through [`FillBlock::fill_next`] hand their
//! spent block back to a recycle pool the workers draw from, so
//! steady-state operation reuses a bounded set of blocks and per-worker
//! decompression scratch buffers instead of allocating per chunk.
//!
//! # Stage metrics
//!
//! Cumulative per-stage time is published as the spans
//! `pipeline.read` (frame verify + CRC), `pipeline.decompress`,
//! `pipeline.decode`, and `pipeline.replay` (consumer time between
//! refills), plus the `pipeline.ring_occupancy_peak` gauge — all on
//! [`obs::global`], so `repro --metrics` exports them.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use fstrace::block::RecordBlock;
use fstrace::codec::DecodeError;
use fstrace::FillBlock;

use crate::reader::{Archive, ChunkOrder, Corruption, ReadSpans, RecoveryReport};

/// How long a blocked ring wait sleeps before re-checking shutdown.
const WAIT_TICK: Duration = Duration::from_millis(20);

struct SlotInner {
    /// The chunk index this slot accepts next (generation counter).
    next_fill: usize,
    /// The deposited result: a decoded block, or `Err(())` for a chunk
    /// that failed verification/decode (the consumer reconstructs the
    /// typed error so attribution matches the sequential reader).
    value: Option<Result<RecordBlock, ()>>,
}

struct Slot {
    inner: Mutex<SlotInner>,
    ready: Condvar,
    freed: Condvar,
}

/// State shared between the consumer and the worker pool.
struct Shared {
    archive: Arc<Archive>,
    slots: Vec<Slot>,
    /// Next chunk index a worker claims.
    next_claim: AtomicUsize,
    /// Decoded blocks resident in the ring (for the occupancy gauge).
    occupancy: AtomicUsize,
    /// Spent blocks returned by the consumer for workers to refill.
    pool: Mutex<Vec<RecordBlock>>,
    shutdown: AtomicBool,
    /// Workers still running; lets the consumer detect a dead pool
    /// instead of waiting forever on a slot nobody will fill.
    live_workers: AtomicUsize,
}

/// An iterator of decoded chunks, in archive order, produced by a
/// background worker pool — the pipelined twin of [`Archive::blocks`].
///
/// Yields `Result<RecordBlock, DecodeError>` under the same corruption
/// policy and fusing rules as the sequential reader. Also implements
/// [`FillBlock`], which is the allocation-free way to consume it: each
/// `fill_next` swaps the caller's drained block into the recycle pool.
pub struct PipelinedBlocks {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
    /// Takes every chunk, in the order the ring delivers them.
    order: ChunkOrder,
    /// When the previous block was handed out — the consumer's time
    /// until the next call is the `pipeline.replay` stage.
    last_yield: Option<Instant>,
    replay_span: obs::Span,
}

impl PipelinedBlocks {
    /// Starts `workers` decode threads over `archive` (clamped to at
    /// least 1 and at most the chunk count) with a ring of
    /// `2 * workers` slots.
    pub fn new(archive: Arc<Archive>, mode: Corruption, workers: usize) -> PipelinedBlocks {
        let total = archive.chunks().len();
        let workers = workers.max(1).min(total.max(1));
        let cap = workers * 2;
        let slots = (0..cap)
            .map(|s| Slot {
                inner: Mutex::new(SlotInner {
                    next_fill: s,
                    value: None,
                }),
                ready: Condvar::new(),
                freed: Condvar::new(),
            })
            .collect();
        let order = ChunkOrder::new(&archive, (0..total).collect(), mode);
        let shared = Arc::new(Shared {
            archive,
            slots,
            next_claim: AtomicUsize::new(0),
            occupancy: AtomicUsize::new(0),
            pool: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            live_workers: AtomicUsize::new(workers),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        PipelinedBlocks {
            shared,
            workers: handles,
            order,
            last_yield: None,
            replay_span: obs::global().span("pipeline.replay"),
        }
    }

    /// What has been skipped so far (complete once iteration ends).
    pub fn report(&self) -> &RecoveryReport {
        self.order.report()
    }

    /// Returns a drained block to the recycle pool for workers to
    /// refill. Called by the [`FillBlock`] path; harmless to skip —
    /// workers then allocate fresh blocks.
    pub fn recycle(&self, block: RecordBlock) {
        recover(self.shared.pool.lock()).push(block);
    }
}

/// Waits until slot `i % cap` holds chunk `i` and takes it. `None`
/// means the worker pool died without depositing — the consumer treats
/// the chunk as lost.
fn take(shared: &Shared, i: usize) -> Option<Result<RecordBlock, ()>> {
    let slot = &shared.slots[i % shared.slots.len()];
    let mut g = recover(slot.inner.lock());
    loop {
        if g.next_fill == i && g.value.is_some() {
            let val = g.value.take();
            g.next_fill = i + shared.slots.len();
            drop(g);
            slot.freed.notify_all();
            shared.occupancy.fetch_sub(1, Ordering::Relaxed);
            return val;
        }
        if shared.live_workers.load(Ordering::Acquire) == 0 {
            return None;
        }
        g = recover(slot.ready.wait_timeout(g, WAIT_TICK)).0;
    }
}

impl Iterator for PipelinedBlocks {
    type Item = Result<RecordBlock, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(at) = self.last_yield.take() {
            self.replay_span.record_ns(at.elapsed().as_nanos() as u64);
        }
        let shared = &self.shared;
        let item = self
            .order
            .next(&shared.archive, |i| take(shared, i).unwrap_or(Err(())))?;
        if item.is_ok() {
            self.last_yield = Some(Instant::now());
        }
        Some(item)
    }
}

impl FillBlock for PipelinedBlocks {
    /// Allocation-free consumption: the drained `out` goes back to the
    /// worker pool, the next decoded chunk takes its place. A
    /// `Fail`-mode error ends the stream (use [`Iterator::next`] to
    /// observe the error itself).
    fn fill_next(&mut self, out: &mut RecordBlock) -> bool {
        match self.next() {
            Some(Ok(block)) => {
                let spent = std::mem::replace(out, block);
                self.recycle(spent);
                true
            }
            Some(Err(_)) | None => false,
        }
    }
}

impl Drop for PipelinedBlocks {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for slot in &self.shared.slots {
            slot.ready.notify_all();
            slot.freed.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Decrements `live_workers` when the worker exits — including by
/// panic, so the consumer's dead-pool detection still fires instead of
/// waiting forever on a slot nobody will fill.
struct WorkerGuard<'a>(&'a Shared);

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        self.0.live_workers.fetch_sub(1, Ordering::Release);
    }
}

/// One worker: claim chunks, run the verify→decompress→decode stages
/// with reused scratch, deposit in ring order.
fn worker_loop(shared: &Shared) {
    let _guard = WorkerGuard(shared);
    let reg = obs::global();
    let read_spans = ReadSpans {
        read: reg.span("pipeline.read"),
        decompress: reg.span("pipeline.decompress"),
    };
    let decode_span = reg.span("pipeline.decode");
    let occupancy_peak = reg.gauge("pipeline.ring_occupancy_peak");
    let archive = &shared.archive;
    let total = archive.chunks().len();
    let mut scratch: Vec<u8> = Vec::new();
    'claims: loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let i = shared.next_claim.fetch_add(1, Ordering::Relaxed);
        if i >= total {
            break;
        }
        let mut block = recover(shared.pool.lock()).pop().unwrap_or_default();
        let res: Result<RecordBlock, ()> = (|| {
            let raw = archive
                .read_chunk(i, &mut scratch, Some(&read_spans))
                .map_err(drop)?;
            let t = Instant::now();
            archive
                .decode_chunk_from(i, raw, &mut block)
                .map_err(|_| ())?;
            decode_span.record_ns(t.elapsed().as_nanos() as u64);
            Ok(std::mem::take(&mut block))
        })();
        // Count the block in flight *before* depositing: the slot
        // mutex then orders this increment before the consumer's
        // matching decrement, so occupancy never underflows.
        let occ = shared.occupancy.fetch_add(1, Ordering::Relaxed) + 1;
        occupancy_peak.record(occ as u64);
        let slot = &shared.slots[i % shared.slots.len()];
        let mut g = recover(slot.inner.lock());
        while g.next_fill != i {
            if shared.shutdown.load(Ordering::Acquire) {
                break 'claims;
            }
            g = recover(slot.freed.wait_timeout(g, WAIT_TICK)).0;
        }
        g.value = Some(res);
        drop(g);
        slot.ready.notify_all();
    }
}

/// Ignores mutex/condvar poisoning: slot values are plain data, and a
/// panicked peer must not take the whole pipeline down with it.
fn recover<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}
