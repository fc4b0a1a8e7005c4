//! Pipeline ≡ sequential: the overlapped decode pipeline must be
//! byte-identical to [`Archive::blocks`] — same records, same order,
//! same recovery report — for any worker count, in both corruption
//! modes, on clean, damaged, and truncated archives. The whole point of
//! [`PipelinedBlocks`] is that it changes *when* chunks decode, never
//! *what* the consumer observes. The same holds for every other
//! reader over the same chunk selection: `records`, `read_all`, and
//! `records_in_ticks`.

use std::sync::Arc;

use proptest::prelude::*;

use fstrace::codec::DecodeError;
use fstrace::{
    AccessMode, FileId, FillBlock, OpenId, RecordBlock, TraceEvent, TraceRecord, UserId,
};
use tracestore::{
    Archive, ArchiveBlocks, ArchiveOptions, ArchiveRecords, ArchiveWriter, Corruption,
    PipelinedBlocks, RecoveryReport,
};

fn write_archive(records: &[TraceRecord], chunk_target_bytes: usize, compress: bool) -> Vec<u8> {
    let mut w = ArchiveWriter::new(
        Vec::new(),
        ArchiveOptions {
            chunk_target_bytes,
            compress,
            name: "pipe".into(),
        },
    )
    .expect("header write");
    for r in records {
        w.write(r).expect("record write");
    }
    w.finish().expect("finish").0
}

fn sample_records(n: u64) -> Vec<TraceRecord> {
    let mut out = Vec::new();
    for i in 0..n {
        let t = i * 30;
        out.push(TraceRecord::new(
            t,
            TraceEvent::Open {
                open_id: OpenId(i),
                file_id: FileId(i % 97),
                user_id: UserId((i % 11) as u32),
                mode: AccessMode::ReadOnly,
                size: (i % 7) * 1024,
                created: false,
            },
        ));
        out.push(TraceRecord::new(
            t + 20,
            TraceEvent::Close {
                open_id: OpenId(i),
                final_pos: (i % 7) * 1024,
            },
        ));
    }
    out
}

/// What one pass of a reader observed: the records, the recovery
/// report, and the error it stopped on, if any.
#[derive(Debug, PartialEq)]
struct Pass {
    records: Vec<TraceRecord>,
    report: RecoveryReport,
    error: Option<String>,
}

/// Drains one reader, block- or record-level, into a [`Pass`].
fn drain<I, T>(
    mut reader: I,
    report: fn(&I) -> &RecoveryReport,
    mut keep: impl FnMut(T, &mut Vec<TraceRecord>),
) -> Pass
where
    I: Iterator<Item = Result<T, DecodeError>>,
{
    let mut records = Vec::new();
    let mut error = None;
    for item in &mut reader {
        match item {
            Ok(x) => keep(x, &mut records),
            Err(e) => {
                assert!(error.is_none(), "a reader yields at most one error");
                error = Some(format!("{e:?}"));
            }
        }
    }
    Pass {
        records,
        report: report(&reader).clone(),
        error,
    }
}

fn drain_sequential(archive: &Archive, mode: Corruption) -> Pass {
    drain(archive.blocks(mode), ArchiveBlocks::report, |b, out| {
        b.append_to(out)
    })
}

fn drain_pipelined(archive: &Arc<Archive>, mode: Corruption, workers: usize) -> Pass {
    let blocks = Arc::clone(archive).pipelined(mode, workers);
    drain(blocks, PipelinedBlocks::report, |b, out| b.append_to(out))
}

fn drain_records(records: ArchiveRecords<'_>) -> Pass {
    drain(records, ArchiveRecords::report, |r, out| out.push(r))
}

/// Asserts pipeline ≡ sequential for every worker count under test.
fn assert_identical(bytes: Vec<u8>, mode: Corruption) {
    let archive = Arc::new(Archive::from_bytes(bytes).expect("open"));
    let want = drain_sequential(&archive, mode);
    for workers in [1usize, 2, 8] {
        let got = drain_pipelined(&archive, mode, workers);
        assert_eq!(got, want, "workers={workers}");
    }
}

/// What a `mode` pass over the chunks in `selected` must observe,
/// derived from `full`, a `Skip` pass over every chunk: each intact
/// chunk's records in order, each bad chunk's loss, and in `Fail` mode
/// a stop at the first bad chunk.
fn restrict(archive: &Archive, full: &Pass, selected: &[usize], mode: Corruption) -> Pass {
    let mut want = Pass {
        records: Vec::new(),
        report: RecoveryReport {
            footer_rebuilt: full.report.footer_rebuilt,
            bad_chunks: Vec::new(),
        },
        error: None,
    };
    let mut at = 0usize;
    for (i, info) in archive.chunks().iter().enumerate() {
        let bad = full.report.bad_chunks.iter().find(|b| b.index == i as u64);
        let n = if bad.is_some() {
            0
        } else {
            info.records as usize
        };
        let chunk = &full.records[at..at + n];
        at += n;
        if !selected.contains(&i) || want.error.is_some() {
            continue;
        }
        match bad {
            None => want.records.extend_from_slice(chunk),
            Some(b) => {
                want.report.bad_chunks.push(*b);
                if mode == Corruption::Fail {
                    let e = DecodeError::CorruptChunk {
                        index: b.index,
                        offset: b.offset,
                    };
                    want.error = Some(format!("{e:?}"));
                }
            }
        }
    }
    assert_eq!(at, full.records.len());
    want
}

#[test]
fn clean_archive_identical_across_worker_counts() {
    let records = sample_records(1500);
    let bytes = write_archive(&records, 512, true);
    assert_identical(bytes.clone(), Corruption::Skip);
    assert_identical(bytes, Corruption::Fail);
}

#[test]
fn fail_mode_surfaces_the_same_error_and_fuses() {
    let records = sample_records(1000);
    let mut bytes = write_archive(&records, 512, true);
    let clean = Archive::from_bytes(bytes.clone()).expect("open");
    let chunks = clean.chunks().to_vec();
    assert!(chunks.len() >= 3);
    let victim = &chunks[1];
    bytes[victim.offset as usize + tracestore::format::CHUNK_HEADER_LEN + 2] ^= 0xFF;

    let archive = Arc::new(Archive::from_bytes(bytes).expect("open damaged"));
    for workers in [1usize, 2, 8] {
        let mut pipe = Arc::clone(&archive).pipelined(Corruption::Fail, workers);
        let mut seen = 0usize;
        let err = loop {
            match pipe.next() {
                Some(Ok(b)) => seen += b.len(),
                Some(Err(e)) => break e,
                None => panic!("pipeline ended without surfacing corruption"),
            }
        };
        assert_eq!(seen, chunks[0].records as usize, "workers={workers}");
        match err {
            fstrace::codec::DecodeError::CorruptChunk { index, offset } => {
                assert_eq!(index, 1);
                assert_eq!(offset, victim.offset);
            }
            other => panic!("unexpected error: {other}"),
        }
        assert!(pipe.next().is_none(), "fail-mode pipeline must fuse");
        assert_eq!(pipe.report().chunks_skipped(), 1);
    }
}

#[test]
fn truncated_footer_archive_identical() {
    // Cut mid-way through the last chunk: the footer is gone and the
    // index is rebuilt by scanning; the pipeline must match the
    // sequential reader over the rebuilt index too.
    let records = sample_records(800);
    let bytes = write_archive(&records, 512, true);
    let clean = Archive::from_bytes(bytes.clone()).expect("open");
    let chunks = clean.chunks().to_vec();
    assert!(chunks.len() >= 3);
    let cut = chunks[chunks.len() - 1].offset as usize + tracestore::format::CHUNK_HEADER_LEN + 1;
    assert_identical(bytes[..cut].to_vec(), Corruption::Skip);
    assert_identical(bytes[..cut].to_vec(), Corruption::Fail);
}

#[test]
fn fill_block_path_recycles_and_matches() {
    // The allocation-free FillBlock path must yield the same record
    // stream as iterating owned blocks.
    let records = sample_records(1200);
    let bytes = write_archive(&records, 512, true);
    let archive = Arc::new(Archive::from_bytes(bytes).expect("open"));
    for workers in [1usize, 2, 8] {
        let mut pipe = Arc::clone(&archive).pipelined(Corruption::Skip, workers);
        let mut block = RecordBlock::new();
        let mut got = Vec::new();
        while pipe.fill_next(&mut block) {
            block.append_to(&mut got);
        }
        assert_eq!(got, records, "workers={workers}");
        assert!(pipe.report().is_clean());
    }
}

#[test]
fn empty_archive_yields_nothing() {
    let bytes = write_archive(&[], ArchiveOptions::default().chunk_target_bytes, true);
    let archive = Arc::new(Archive::from_bytes(bytes).expect("open"));
    let mut pipe = Arc::clone(&archive).pipelined(Corruption::Fail, 4);
    assert!(pipe.next().is_none());
    assert!(pipe.report().is_clean());
}

#[test]
fn dropping_mid_stream_shuts_down_cleanly() {
    // Take a few blocks, then drop the pipeline with chunks still in
    // flight: Drop must unblock and join every worker (a hang here
    // fails the test by timeout).
    let records = sample_records(2000);
    let bytes = write_archive(&records, 512, true);
    let archive = Arc::new(Archive::from_bytes(bytes).expect("open"));
    for workers in [1usize, 2, 8] {
        let mut pipe = Arc::clone(&archive).pipelined(Corruption::Skip, workers);
        let _ = pipe.next();
        let _ = pipe.next();
        drop(pipe);
    }
}

proptest! {
    /// Every reader ≡ every other over the same chunk selection, for
    /// arbitrary streams, chunk sizes, compression settings, damage to
    /// any one chunk, both corruption modes, and pipelines of 1, 2, and
    /// 4 workers: `blocks`, `pipelined`, `records`, and (in `Skip`
    /// mode) `read_all` over the whole archive, and `records_in_ticks`
    /// over the chunks overlapping a random window.
    #[test]
    fn pipelined_matches_sequential(
        records in prop::collection::vec((0u64..100_000u64, 0u64..500u64), 0..400)
            .prop_map(|mut pairs| {
                pairs.sort_by_key(|(t, _)| *t);
                pairs.into_iter().map(|(t, o)| {
                    TraceRecord::new(t, TraceEvent::Close {
                        open_id: OpenId(o),
                        final_pos: o * 512,
                    })
                }).collect::<Vec<_>>()
            }),
        chunk_kib in 0usize..3,
        compress in any::<bool>(),
        corrupt in any::<bool>(),
        victim_seed in any::<u64>(),
        byte_seed in any::<u64>(),
        flip in 1u8..=255,
        window in (0u64..10_000u64, 0u64..10_000u64),
    ) {
        let chunk = 256 << chunk_kib;
        let mut bytes = write_archive(&records, chunk, compress);
        let clean = Archive::from_bytes(bytes.clone()).expect("open");
        if corrupt && !clean.chunks().is_empty() {
            let chunks = clean.chunks();
            let info = chunks[(victim_seed % chunks.len() as u64) as usize];
            let at = info.offset + byte_seed % info.frame_len();
            bytes[at as usize] ^= flip;
        }
        let archive = Arc::new(Archive::from_bytes(bytes).expect("open"));
        let full = drain_sequential(&archive, Corruption::Skip);
        let (lo, hi) = (window.0, window.0 + window.1);
        let all: Vec<usize> = (0..archive.chunks().len()).collect();
        let selected: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| archive.chunks()[i].overlaps_ticks(lo, hi))
            .collect();
        for mode in [Corruption::Skip, Corruption::Fail] {
            let want = restrict(&archive, &full, &all, mode);
            prop_assert_eq!(&drain_sequential(&archive, mode), &want);
            prop_assert_eq!(&drain_records(archive.records(mode)), &want);
            for workers in [1usize, 2, 4] {
                prop_assert_eq!(&drain_pipelined(&archive, mode, workers), &want);
            }
            if mode == Corruption::Skip {
                let (records, report) = archive.read_all();
                let got = Pass { records, report, error: None };
                prop_assert_eq!(&got, &want);
            }
            let want = restrict(&archive, &full, &selected, mode);
            let got = drain_records(archive.records_in_ticks(lo, hi, mode));
            prop_assert_eq!(&got, &want);
        }
    }
}
