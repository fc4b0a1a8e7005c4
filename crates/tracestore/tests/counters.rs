//! The read counters every archive reader publishes.
//!
//! `tracestore.{bytes,chunks,records}_read` are published once per
//! pass, when a reader reaches the end of its chunk selection, and
//! `tracestore.chunks_skipped_corrupt` once per skipped chunk — the
//! same figures whichever reader made the pass. The counters are
//! process-global, so this binary holds a single test: parallel tests
//! in one process would see each other's reads.

use std::sync::Arc;

use fstrace::{FileId, OpenId, TraceEvent, TraceRecord, UserId};
use tracestore::{Archive, ArchiveOptions, ArchiveWriter, Corruption};

const COUNTERS: [&str; 4] = [
    "tracestore.bytes_read",
    "tracestore.chunks_read",
    "tracestore.records_read",
    "tracestore.chunks_skipped_corrupt",
];

fn sample_archive() -> Vec<u8> {
    let mut w = ArchiveWriter::new(
        Vec::new(),
        ArchiveOptions {
            chunk_target_bytes: 512,
            compress: true,
            name: "counters".into(),
        },
    )
    .expect("header write");
    for i in 0..1200u64 {
        let rec = TraceRecord::new(
            i * 25,
            TraceEvent::Unlink {
                file_id: FileId(i % 89),
                user_id: UserId((i % 7) as u32),
            },
        );
        w.write(&rec).expect("record write");
        let rec = TraceRecord::new(
            i * 25 + 10,
            TraceEvent::Close {
                open_id: OpenId(i),
                final_pos: i * 512,
            },
        );
        w.write(&rec).expect("record write");
    }
    w.finish().expect("finish").0
}

/// How much each counter moved while `pass` ran.
fn deltas(pass: impl FnOnce()) -> [u64; 4] {
    let reg = obs::global();
    let before = COUNTERS.map(|name| reg.counter(name).get());
    pass();
    let after = COUNTERS.map(|name| reg.counter(name).get());
    [0, 1, 2, 3].map(|i| after[i] - before[i])
}

fn drain(items: impl Iterator) {
    items.for_each(drop);
}

#[test]
fn every_reader_publishes_the_same_counters_once_per_pass() {
    let bytes = sample_archive();
    let archive = Arc::new(Archive::from_bytes(bytes.clone()).expect("open"));
    let chunks = archive.chunks().to_vec();
    assert!(chunks.len() >= 6, "{} chunks", chunks.len());
    let total = archive.meta().total_records;

    // A full pass: the whole file, every chunk, every record.
    let full = [archive.byte_len(), chunks.len() as u64, total, 0];
    assert_eq!(deltas(|| drain(archive.blocks(Corruption::Fail))), full);
    assert_eq!(deltas(|| drain(archive.records(Corruption::Fail))), full);
    assert_eq!(
        deltas(|| {
            archive.read_all();
        }),
        full
    );
    for workers in [1, 2, 4] {
        let pass = || drain(Arc::clone(&archive).pipelined(Corruption::Fail, workers));
        assert_eq!(deltas(pass), full, "workers={workers}");
    }

    // A time-window pass counts only the chunks it selected, and the
    // bytes of every frame outside the selection go unread.
    let (lo, hi) = (chunks[2].first_ticks, chunks[3].last_ticks);
    let selected: Vec<_> = chunks.iter().filter(|c| c.overlaps_ticks(lo, hi)).collect();
    assert!(selected.len() >= 2 && selected.len() < chunks.len());
    let unselected_frames: u64 = chunks
        .iter()
        .filter(|c| !c.overlaps_ticks(lo, hi))
        .map(|c| c.frame_len())
        .sum();
    let window = [
        archive.byte_len() - unselected_frames,
        selected.len() as u64,
        selected.iter().map(|c| c.records as u64).sum(),
        0,
    ];
    assert_eq!(
        deltas(|| drain(archive.records_in_ticks(lo, hi, Corruption::Fail))),
        window
    );

    // A pass abandoned part-way publishes nothing.
    assert_eq!(
        deltas(|| {
            let mut blocks = archive.blocks(Corruption::Fail);
            blocks.next();
        }),
        [0; 4]
    );

    // Damage one chunk: a Skip pass reads the rest and counts the skip
    // once; a Fail pass counts the skip and stops short of the end.
    let victim = chunks[chunks.len() / 2];
    let mut damaged = bytes;
    damaged[victim.offset as usize + tracestore::format::CHUNK_HEADER_LEN + 3] ^= 0x40;
    let damaged = Arc::new(Archive::from_bytes(damaged).expect("open damaged"));
    let skip = [
        damaged.byte_len(),
        chunks.len() as u64 - 1,
        total - victim.records as u64,
        1,
    ];
    assert_eq!(deltas(|| drain(damaged.blocks(Corruption::Skip))), skip);
    assert_eq!(deltas(|| drain(damaged.records(Corruption::Skip))), skip);
    assert_eq!(
        deltas(|| {
            damaged.read_all();
        }),
        skip
    );
    for workers in [1, 2, 4] {
        let pass = || drain(Arc::clone(&damaged).pipelined(Corruption::Skip, workers));
        assert_eq!(deltas(pass), skip, "workers={workers}");
        let pass = || drain(Arc::clone(&damaged).pipelined(Corruption::Fail, workers));
        assert_eq!(deltas(pass), [0, 0, 0, 1], "workers={workers}");
    }
    assert_eq!(
        deltas(|| drain(damaged.blocks(Corruption::Fail))),
        [0, 0, 0, 1]
    );
}
