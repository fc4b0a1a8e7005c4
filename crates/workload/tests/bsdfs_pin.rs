//! A pin on the file system substrate at a scale where its caches
//! evict.
//!
//! The fleet golden (`tests/fleet.rs`) runs machines for seconds of
//! simulated time with a fraction of their users, where the 400 KB
//! buffer cache barely turns over. This pin runs one full-population
//! a5 and one c4 machine for half an hour on the stock 4.2 BSD geometry
//! and records, besides the record stream, every counter of the sealed
//! file system. The allocator's block and fragment choices, the buffer
//! cache's victims, and the name and inode caches all feed these
//! counters, so a change to what `bsdfs` decides — not only to what the
//! tracer records — moves the pin. It lives in its own test binary so
//! its half second of work does not run alongside the fleet tests'
//! scheduling-sensitive bounds.

use bsdfs::disk::DiskStats;
use bsdfs::fs::NameCacheStats;
use bsdfs::inode::InodeTableStats;
use bsdfs::{BufCacheStats, FsParams};
use fstrace::{RecordSink, TraceRecord, TraceWriter};
use workload::{generate_into, MachineProfile, WorkloadConfig};

/// FNV-1a over the canonical binary encoding of a record stream (the
/// same hash as the fleet golden).
fn stream_hash(records: &[TraceRecord]) -> u64 {
    let mut w = TraceWriter::new(Vec::new()).unwrap();
    for rec in records {
        w.write_record(rec).unwrap();
    }
    let bytes = w.into_inner().unwrap();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in &bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// What [`bsdfs_pin_at_evicting_scale`] records of one machine's run:
/// the record stream plus every counter of the sealed file system.
#[derive(Debug, PartialEq, Eq)]
struct MachinePin {
    stream_hash: u64,
    disk: DiskStats,
    bcache: BufCacheStats,
    itable: InodeTableStats,
    ncache: NameCacheStats,
    free_frags: u64,
}

fn machine_pin(trace_name: &str, seed: u64) -> MachinePin {
    let config = WorkloadConfig {
        profile: MachineProfile::by_trace_name(trace_name).unwrap(),
        seed,
        duration_hours: 0.5,
        fs_params: FsParams::bsd42(),
    };
    let mut recs: Vec<TraceRecord> = Vec::new();
    let out = generate_into(&config, &mut recs).unwrap();
    assert_eq!(out.errors, 0, "{trace_name}: command errors");
    assert_eq!(out.records as usize, recs.len());
    MachinePin {
        stream_hash: stream_hash(&recs),
        disk: out.fs.disk_stats(),
        bcache: out.fs.bcache_stats(),
        itable: out.fs.itable_stats(),
        ncache: out.fs.ncache_stats(),
        free_frags: out.fs.free_frags(),
    }
}

/// Both machines' streams and sealed file systems match the pin.
/// Regenerate only for an intended change to the engine or `bsdfs`.
#[test]
fn bsdfs_pin_at_evicting_scale() {
    assert_eq!(machine_pin("a5", 1985), pinned_a5());
    assert_eq!(machine_pin("c4", 1985), pinned_c4());
}

fn pinned_a5() -> MachinePin {
    MachinePin {
        stream_hash: 0xdef7_b551_a2be_8fa7,
        disk: DiskStats {
            reads: 14969,
            writes: 6700,
            bytes_read: 50315264,
            bytes_written: 19737600,
        },
        bcache: BufCacheStats {
            logical_reads: 40976,
            logical_writes: 15928,
            read_hits: 27422,
            read_misses: 13554,
            write_fetches_elided: 7016,
            disk_reads: 14969,
            disk_writes: 6699,
            dirty_invalidated: 2259,
        },
        itable: InodeTableStats {
            hits: 34593,
            misses: 436,
        },
        ncache: NameCacheStats {
            hits: 14802,
            misses: 1543,
        },
        free_frags: 115849,
    }
}

fn pinned_c4() -> MachinePin {
    MachinePin {
        stream_hash: 0x20e8_de21_9bc9_97e5,
        disk: DiskStats {
            reads: 10384,
            writes: 6570,
            bytes_read: 35732480,
            bytes_written: 21657600,
        },
        bcache: BufCacheStats {
            logical_reads: 31800,
            logical_writes: 19059,
            read_hits: 22344,
            read_misses: 9456,
            write_fetches_elided: 8633,
            disk_reads: 10384,
            disk_writes: 6569,
            dirty_invalidated: 3328,
        },
        itable: InodeTableStats {
            hits: 24415,
            misses: 245,
        },
        ncache: NameCacheStats {
            hits: 9669,
            misses: 1113,
        },
        free_frags: 114030,
    }
}
