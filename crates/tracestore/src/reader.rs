//! [`Archive`]: opens, verifies, recovers, and decodes archives.
//!
//! Opening is a two-tier affair. The fast path trusts the footer: read
//! the 12-byte trailer, checksum the body, and the chunk index is
//! available without touching a single chunk. When the trailer or body
//! is missing or corrupt (a crashed writer, a truncated copy, bit rot
//! in the index itself), or the index contradicts itself (an entry no
//! chunk header could carry, a record total that is not the entries'
//! sum), [`Archive::open`] falls back to a *scan*: walk
//! the file for the chunk magic, validate each candidate frame by CRC,
//! and rebuild the index from what survives. False positives are
//! rejected by the checksum, so a successful scan recovers every intact
//! chunk and reports precisely what it could not place.
//!
//! Chunk damage at read time is handled per [`Corruption`]: `Fail`
//! surfaces the first bad chunk as a [`DecodeError::CorruptChunk`];
//! `Skip` drops exactly that chunk's records, counts them in the
//! [`RecoveryReport`], and resumes at the next chunk — the neighbours
//! are untouched because every chunk decodes independently. That rule
//! lives in one place, the private `ChunkOrder` state machine, which
//! every reader ([`ArchiveBlocks`], [`ArchiveRecords`],
//! [`crate::PipelinedBlocks`], [`Archive::read_all`]) feeds its chunk
//! outcomes through in chunk order; every reader likewise gets a
//! chunk's bytes from one read step, verify → decompress.

use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::time::Instant;

use fstrace::block::{decode_block, RecordBlock};
use fstrace::codec::{decode_from, DecodeError};
use fstrace::TraceRecord;

use crate::compress::decompress_into;
use crate::crc32::crc32;
use crate::format::{
    chunk_crc, decode_chunk_header, decode_footer, encode_chunk_header, ArchiveMeta, ChunkInfo,
    ARCHIVE_MAGIC, ARCHIVE_VERSION, CHUNK_HEADER_LEN, CHUNK_MAGIC, FOOTER_MAGIC, HEADER_LEN,
    TRAILER_LEN,
};

/// What a reader does when a chunk fails verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Surface the first bad chunk as an error and stop.
    Fail,
    /// Skip the bad chunk, count the loss, continue with the next.
    Skip,
}

/// One damaged chunk, as reported by recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadChunk {
    /// Index of the chunk in the archive's chunk sequence.
    pub index: u64,
    /// File offset of the chunk's frame.
    pub offset: u64,
    /// Records the chunk claimed to hold (all lost).
    pub records_lost: u64,
}

/// Exactly what a recovering read lost: which chunks, how many records.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Chunks skipped because they failed verification.
    pub bad_chunks: Vec<BadChunk>,
    /// Whether the footer was unusable and the index was rebuilt by
    /// scanning for chunk frames.
    pub footer_rebuilt: bool,
}

impl RecoveryReport {
    /// Number of chunks lost.
    pub fn chunks_skipped(&self) -> u64 {
        self.bad_chunks.len() as u64
    }

    /// Total records lost across all skipped chunks.
    pub fn records_lost(&self) -> u64 {
        self.bad_chunks.iter().map(|b| b.records_lost).sum()
    }

    /// True when nothing was lost and the footer was intact.
    pub fn is_clean(&self) -> bool {
        self.bad_chunks.is_empty() && !self.footer_rebuilt
    }
}

/// Errors from [`Archive::open`].
#[derive(Debug)]
pub enum ArchiveError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The file is not an archive (bad magic) or an unknown version.
    Format(DecodeError),
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::Io(e) => write!(f, "archive i/o error: {e}"),
            ArchiveError::Format(e) => write!(f, "archive format error: {e}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<std::io::Error> for ArchiveError {
    fn from(e: std::io::Error) -> Self {
        ArchiveError::Io(e)
    }
}

/// An opened archive: the raw bytes plus a verified (or rebuilt) chunk
/// index. Chunk payloads stay in their stored, possibly compressed form
/// until a read decodes them, so holding an archive costs its on-disk
/// size, not its decoded size.
pub struct Archive {
    bytes: Vec<u8>,
    meta: ArchiveMeta,
    chunks: Vec<ChunkInfo>,
    footer_rebuilt: bool,
}

impl Archive {
    /// Opens an archive file. See [`Archive::from_bytes`].
    pub fn open(path: &Path) -> Result<Archive, ArchiveError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        Archive::from_bytes(bytes)
    }

    /// Opens an archive held in memory. Fails only when the file header
    /// itself is wrong — everything after the header is subject to
    /// recovery, not rejection: a bad footer triggers a rebuilding
    /// scan, and bad chunks are dealt with at read time.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Archive, ArchiveError> {
        if bytes.len() < HEADER_LEN || bytes[..4] != ARCHIVE_MAGIC {
            return Err(ArchiveError::Format(DecodeError::BadMagic));
        }
        if bytes[4] != ARCHIVE_VERSION {
            return Err(ArchiveError::Format(DecodeError::BadVersion(bytes[4])));
        }
        let (meta, chunks, footer_rebuilt) = match read_footer(&bytes) {
            Some((meta, chunks)) => (meta, chunks, false),
            None => {
                let chunks = scan_chunks(&bytes);
                let meta = ArchiveMeta {
                    name: String::new(),
                    total_records: chunks.iter().map(|c| c.records as u64).sum(),
                    ..ArchiveMeta::default()
                };
                (meta, chunks, true)
            }
        };
        Ok(Archive {
            bytes,
            meta,
            chunks,
            footer_rebuilt,
        })
    }

    /// Per-trace metadata from the footer. After a footer rebuild the
    /// name and max-id fields are empty/zero — only chunk-derived
    /// totals are known.
    pub fn meta(&self) -> &ArchiveMeta {
        &self.meta
    }

    /// The chunk index (verified footer or rebuilt by scan).
    pub fn chunks(&self) -> &[ChunkInfo] {
        &self.chunks
    }

    /// Whether the footer was unusable and the index was rebuilt.
    pub fn footer_rebuilt(&self) -> bool {
        self.footer_rebuilt
    }

    /// Archive size in bytes as held in memory.
    pub fn byte_len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// The error every failed read of chunk `index` reports.
    fn corrupt(&self, index: usize) -> DecodeError {
        DecodeError::CorruptChunk {
            index: index as u64,
            offset: self.chunks[index].offset,
        }
    }

    /// Bounds-checks chunk `index`'s frame, re-parses the on-disk header
    /// against the index entry, and CRCs the payload. Returns the
    /// *stored* (possibly compressed) payload slice.
    fn verify_chunk(&self, index: usize) -> Result<&[u8], DecodeError> {
        let info = &self.chunks[index];
        let start = info.offset as usize;
        let payload_at = start + CHUNK_HEADER_LEN;
        let end = payload_at + info.stored_len as usize;
        let frame = self
            .bytes
            .get(start..end)
            .ok_or_else(|| self.corrupt(index))?;
        // Re-parse the on-disk header and require it to agree with the
        // index entry: a footer-sourced index must also match the file.
        let on_disk = decode_chunk_header(frame, info.offset).ok_or_else(|| self.corrupt(index))?;
        if on_disk != *info {
            return Err(self.corrupt(index));
        }
        let payload = &frame[CHUNK_HEADER_LEN..];
        if chunk_crc(info, payload) != info.crc {
            return Err(self.corrupt(index));
        }
        Ok(payload)
    }

    /// The chunk read step every reader shares: verify the frame, then
    /// decompress its payload into `scratch` (cleared and reused);
    /// passthrough chunks borrow straight from the archive. `spans`
    /// times the two stages for the pipeline's workers.
    pub(crate) fn read_chunk<'a>(
        &'a self,
        index: usize,
        scratch: &'a mut Vec<u8>,
        spans: Option<&ReadSpans>,
    ) -> Result<&'a [u8], DecodeError> {
        let info = &self.chunks[index];
        let t = Instant::now();
        let payload = self.verify_chunk(index)?;
        if let Some(s) = spans {
            s.read.record_ns(t.elapsed().as_nanos() as u64);
        }
        let t = Instant::now();
        let raw = if info.compressed {
            decompress_into(payload, info.raw_len as usize, scratch)
                .map_err(|_| self.corrupt(index))?;
            &scratch[..]
        } else {
            payload
        };
        if let Some(s) = spans {
            s.decompress.record_ns(t.elapsed().as_nanos() as u64);
        }
        Ok(raw)
    }

    /// Batched decode of a verified, decompressed payload into `out`'s
    /// columns. `out` is cleared first and left empty on error.
    pub(crate) fn decode_chunk_from(
        &self,
        index: usize,
        raw: &[u8],
        out: &mut RecordBlock,
    ) -> Result<(), DecodeError> {
        let records = self.chunks[index].records as usize;
        let mut pos = 0usize;
        out.clear();
        out.reserve(records);
        let decoded = decode_block(raw, &mut pos, 0, raw.len(), usize::MAX, out);
        if decoded.is_err() || pos != raw.len() || out.len() != records {
            out.clear();
            return Err(self.corrupt(index));
        }
        Ok(())
    }

    /// [`Archive::decode_chunk_into`] with a caller-owned decompression
    /// buffer, so a sequential pass reuses one across chunks.
    fn decode_chunk_with(
        &self,
        index: usize,
        scratch: &mut Vec<u8>,
        out: &mut RecordBlock,
    ) -> Result<(), DecodeError> {
        out.clear();
        let raw = self.read_chunk(index, scratch, None)?;
        self.decode_chunk_from(index, raw, out)
    }

    /// Verifies one chunk and decodes it into `out`'s columns in a
    /// single batched pass (the hot path). `out` is cleared first and
    /// left empty on error, so a reused block never leaks a damaged
    /// chunk's partial prefix into skip-mode reads.
    pub fn decode_chunk_into(
        &self,
        index: usize,
        out: &mut RecordBlock,
    ) -> Result<(), DecodeError> {
        self.decode_chunk_with(index, &mut Vec::new(), out)
    }

    /// Verifies and decodes one chunk record-at-a-time with the scalar
    /// codec. Kept as the reference oracle for the batched path (the
    /// property tests decode both ways) and as the baseline the
    /// `BENCH_6` decode-throughput gate measures against.
    fn decode_chunk_scalar(&self, index: usize) -> Result<Vec<TraceRecord>, DecodeError> {
        let mut scratch = Vec::new();
        let raw = self.read_chunk(index, &mut scratch, None)?;
        let mut records = Vec::with_capacity(self.chunks[index].records as usize);
        let mut pos = 0usize;
        let mut prev_ticks = 0u64;
        while pos < raw.len() {
            let (rec, ticks) =
                decode_from(raw, &mut pos, prev_ticks).map_err(|_| self.corrupt(index))?;
            prev_ticks = ticks;
            records.push(rec);
        }
        if records.len() != self.chunks[index].records as usize {
            return Err(self.corrupt(index));
        }
        Ok(records)
    }

    /// Iterates all records sequentially under the given corruption
    /// policy. The iterator's [`ArchiveRecords::report`] says what was
    /// skipped once iteration ends.
    pub fn records(&self, mode: Corruption) -> ArchiveRecords<'_> {
        ArchiveRecords::new(self.blocks(mode))
    }

    /// Iterates the records of the chunks whose time ranges intersect
    /// `[start_ticks, end_ticks]` (inclusive, in 10 ms ticks). The
    /// footer index makes this a seek: chunks outside the range are
    /// never read, let alone decoded. Records inside a selected chunk
    /// but outside the range are still yielded — chunk granularity is
    /// the contract; callers wanting exact bounds filter the tail.
    pub fn records_in_ticks(
        &self,
        start_ticks: u64,
        end_ticks: u64,
        mode: Corruption,
    ) -> ArchiveRecords<'_> {
        let selection = (0..self.chunks.len())
            .filter(|&i| self.chunks[i].overlaps_ticks(start_ticks, end_ticks))
            .collect();
        ArchiveRecords::new(ArchiveBlocks::new(self, selection, mode))
    }

    /// Iterates the archive chunk by chunk as decoded [`RecordBlock`]s
    /// under the given corruption policy — the block-level twin of
    /// [`Archive::records`] for consumers that want whole columns.
    pub fn blocks(&self, mode: Corruption) -> ArchiveBlocks<'_> {
        ArchiveBlocks::new(self, (0..self.chunks.len()).collect(), mode)
    }

    /// Starts an overlapped decode pipeline over this archive: `workers`
    /// background threads verify, decompress, and decode chunks while
    /// the returned iterator yields them in archive order — the
    /// pipelined twin of [`Archive::blocks`], byte-identical to it for
    /// any worker count. Takes `Arc<Self>` because the worker pool must
    /// share ownership with the caller-held iterator.
    pub fn pipelined(
        self: std::sync::Arc<Self>,
        mode: Corruption,
        workers: usize,
    ) -> crate::pipeline::PipelinedBlocks {
        crate::pipeline::PipelinedBlocks::new(self, mode, workers)
    }

    /// Decodes the whole archive into memory, skipping damaged chunks,
    /// and reports what was lost: a drain of
    /// [`Archive::blocks`]`(Corruption::Skip)`.
    pub fn read_all(&self) -> (Vec<TraceRecord>, RecoveryReport) {
        let mut blocks = self.blocks(Corruption::Skip);
        let mut block = RecordBlock::new();
        let mut out = Vec::new();
        // Skip mode never yields an error.
        while let Some(Ok(())) = blocks.fill(&mut block) {
            block.append_to(&mut out);
        }
        (out, blocks.order.report)
    }

    /// [`Archive::read_all`] through the scalar record-at-a-time codec.
    /// This is the decode baseline `BENCH_6` measures the batched path
    /// against, and the oracle the equivalence property tests use; it
    /// takes no part in production reads.
    pub fn read_all_scalar(&self) -> (Vec<TraceRecord>, RecoveryReport) {
        let mut order = ChunkOrder::new(self, (0..self.chunks.len()).collect(), Corruption::Skip);
        let mut out = Vec::new();
        while let Some(Ok(records)) =
            order.next(self, |i| self.decode_chunk_scalar(i).map_err(drop))
        {
            out.extend(records);
        }
        (out, order.report)
    }
}

/// The spans a pipeline worker times [`Archive::read_chunk`]'s two
/// stages with.
pub(crate) struct ReadSpans {
    pub(crate) read: obs::Span,
    pub(crate) decompress: obs::Span,
}

/// The per-chunk rule of every archive reader, kept in one place.
///
/// A reader hands it each selected chunk's outcome in chunk order; it
/// decides what the reader yields. A bad chunk goes into the
/// [`RecoveryReport`] and bumps `tracestore.chunks_skipped_corrupt`;
/// then `Skip` moves on to the next chunk while `Fail` yields
/// [`DecodeError::CorruptChunk`] once and fuses the reader. At the end
/// of the selection it publishes the pass's `tracestore.*_read`
/// counters, once. The inline, pipelined, and scalar readers differ
/// only in how they produce an outcome, so they cannot differ in what
/// the consumer observes.
pub(crate) struct ChunkOrder {
    /// Chunk indices to read, in archive order.
    selection: Vec<usize>,
    /// Position in `selection` of the next chunk to read.
    next: usize,
    mode: Corruption,
    report: RecoveryReport,
    /// Set after a `Fail`-mode error or the end of the selection.
    done: bool,
    /// Records in the chunks read intact so far.
    records: u64,
}

impl ChunkOrder {
    pub(crate) fn new(archive: &Archive, selection: Vec<usize>, mode: Corruption) -> ChunkOrder {
        ChunkOrder {
            selection,
            next: 0,
            mode,
            report: RecoveryReport {
                footer_rebuilt: archive.footer_rebuilt,
                ..RecoveryReport::default()
            },
            done: false,
            records: 0,
        }
    }

    pub(crate) fn report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Runs `read` on the next selected chunk (and, in `Skip` mode, on
    /// the ones after a bad chunk) and returns what the reader yields:
    /// `read`'s output, the fusing error, or `None` at the end.
    pub(crate) fn next<T>(
        &mut self,
        archive: &Archive,
        mut read: impl FnMut(usize) -> Result<T, ()>,
    ) -> Option<Result<T, DecodeError>> {
        while !self.done {
            let Some(&i) = self.selection.get(self.next) else {
                self.done = true;
                self.publish(archive);
                break;
            };
            self.next += 1;
            let info = &archive.chunks[i];
            match read(i) {
                Ok(out) => {
                    self.records += info.records as u64;
                    return Some(Ok(out));
                }
                Err(()) => {
                    self.report.bad_chunks.push(BadChunk {
                        index: i as u64,
                        offset: info.offset,
                        records_lost: info.records as u64,
                    });
                    obs::global()
                        .counter("tracestore.chunks_skipped_corrupt")
                        .inc();
                    if self.mode == Corruption::Fail {
                        self.done = true;
                        return Some(Err(archive.corrupt(i)));
                    }
                }
            }
        }
        None
    }

    /// Emits the pass's read counters. The bytes read are the archive
    /// less the frames of chunks outside the selection.
    fn publish(&self, archive: &Archive) {
        let all: u64 = archive.chunks.iter().map(ChunkInfo::frame_len).sum();
        let selected: u64 = self
            .selection
            .iter()
            .map(|&i| archive.chunks[i].frame_len())
            .sum();
        let unselected = all - selected;
        let reg = obs::global();
        reg.counter("tracestore.bytes_read")
            .add(archive.byte_len().saturating_sub(unselected));
        reg.counter("tracestore.chunks_read")
            .add(self.selection.len() as u64 - self.report.chunks_skipped());
        reg.counter("tracestore.records_read").add(self.records);
    }
}

/// Sequential record iterator over a chunk selection; yields
/// `Result<TraceRecord, DecodeError>`, so it is a
/// [`fstrace::source::RecordSource`].
///
/// It flattens an [`ArchiveBlocks`] reader: chunks decode batched into
/// one reused [`RecordBlock`], and `next()` walks the block's columns
/// with a cursor, materializing one record view at a time — so
/// streaming an archive allocates per chunk at most, never per record.
pub struct ArchiveRecords<'a> {
    blocks: ArchiveBlocks<'a>,
    /// Columns of the chunk being drained, reused across chunks.
    block: RecordBlock,
    /// Next unserved record in `block`.
    cursor: usize,
}

impl<'a> ArchiveRecords<'a> {
    fn new(blocks: ArchiveBlocks<'a>) -> Self {
        ArchiveRecords {
            blocks,
            block: RecordBlock::new(),
            cursor: 0,
        }
    }

    /// What has been skipped so far (complete once iteration ends).
    pub fn report(&self) -> &RecoveryReport {
        self.blocks.report()
    }
}

impl Iterator for ArchiveRecords<'_> {
    type Item = Result<TraceRecord, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.cursor < self.block.len() {
                let rec = self.block.get(self.cursor);
                self.cursor += 1;
                return Some(Ok(rec));
            }
            if let Err(e) = self.blocks.fill(&mut self.block)? {
                return Some(Err(e));
            }
            self.cursor = 0;
        }
    }
}

/// Chunk-granular block iterator: each `next()` verifies and decodes
/// one whole chunk of its selection into an owned [`RecordBlock`],
/// under the [`Corruption`] policy every reader shares.
pub struct ArchiveBlocks<'a> {
    archive: &'a Archive,
    order: ChunkOrder,
    /// Decompression buffer, reused across chunks.
    scratch: Vec<u8>,
}

impl<'a> ArchiveBlocks<'a> {
    fn new(archive: &'a Archive, selection: Vec<usize>, mode: Corruption) -> Self {
        ArchiveBlocks {
            archive,
            order: ChunkOrder::new(archive, selection, mode),
            scratch: Vec::new(),
        }
    }

    /// What has been skipped so far (complete once iteration ends).
    pub fn report(&self) -> &RecoveryReport {
        self.order.report()
    }

    /// Decodes the next chunk into `out`, reusing its column buffers.
    fn fill(&mut self, out: &mut RecordBlock) -> Option<Result<(), DecodeError>> {
        let (archive, scratch) = (self.archive, &mut self.scratch);
        self.order.next(archive, |i| {
            archive.decode_chunk_with(i, scratch, out).map_err(drop)
        })
    }
}

impl Iterator for ArchiveBlocks<'_> {
    type Item = Result<RecordBlock, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut block = RecordBlock::new();
        Some(self.fill(&mut block)?.map(|()| block))
    }
}

/// Reads and verifies the footer; `None` means "fall back to a scan".
fn read_footer(bytes: &[u8]) -> Option<(ArchiveMeta, Vec<ChunkInfo>)> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return None;
    }
    let trailer = &bytes[bytes.len() - TRAILER_LEN..];
    if trailer[8..12] != FOOTER_MAGIC {
        return None;
    }
    let body_crc = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let body_len = u32::from_le_bytes([trailer[4], trailer[5], trailer[6], trailer[7]]) as usize;
    let body_end = bytes.len() - TRAILER_LEN;
    let body_start = body_end.checked_sub(body_len)?;
    if body_start < HEADER_LEN {
        return None;
    }
    let body = &bytes[body_start..body_end];
    if crc32(body) != body_crc {
        return None;
    }
    let (meta, chunks) = decode_footer(body).ok()?;
    // The index must describe this file: entries that pass the chunk
    // header's own sanity rules, in-bounds, strictly ordered frames
    // that all land before the footer body, and a record total that is
    // their sum. A matching CRC proves only that the footer is intact,
    // not that it is honest; readers size nothing from it until each
    // chunk verifies.
    let mut prev_end = HEADER_LEN as u64;
    let mut records = 0u64;
    for c in &chunks {
        let sane = decode_chunk_header(&encode_chunk_header(c), c.offset).as_ref() == Some(c);
        let end = c.offset.checked_add(c.frame_len())?;
        if !sane || c.offset < prev_end || end > body_start as u64 {
            return None;
        }
        prev_end = end;
        records = records.checked_add(c.records as u64)?;
    }
    (meta.total_records == records).then_some((meta, chunks))
}

/// Rebuilds a chunk index by scanning for frame magics and validating
/// every candidate with its CRC. A candidate that fails validation is
/// not a chunk — the scan resumes one byte later, so a corrupt chunk's
/// bytes are combed for the *next* intact frame rather than skipped
/// blindly.
fn scan_chunks(bytes: &[u8]) -> Vec<ChunkInfo> {
    let mut chunks = Vec::new();
    let mut at = HEADER_LEN;
    while at + CHUNK_HEADER_LEN <= bytes.len() {
        // Hunt for the next magic byte-by-byte.
        let Some(rel) = find_magic(&bytes[at..], &CHUNK_MAGIC) else {
            break;
        };
        let start = at + rel;
        if start + CHUNK_HEADER_LEN > bytes.len() {
            break;
        }
        let candidate = decode_chunk_header(&bytes[start..], start as u64);
        let accepted = candidate.and_then(|info| {
            let end = start + CHUNK_HEADER_LEN + info.stored_len as usize;
            let payload = bytes.get(start + CHUNK_HEADER_LEN..end)?;
            (chunk_crc(&info, payload) == info.crc).then_some(info)
        });
        match accepted {
            Some(info) => {
                at = start + info.frame_len() as usize;
                chunks.push(info);
            }
            None => at = start + 1,
        }
    }
    chunks
}

/// First offset of `magic` in `haystack`, if any.
fn find_magic(haystack: &[u8], magic: &[u8; 4]) -> Option<usize> {
    haystack.windows(magic.len()).position(|w| w == magic)
}
