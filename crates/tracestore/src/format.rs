//! On-disk layout: header, chunk framing, and the footer index.
//!
//! ```text
//! archive := header chunk* footer
//! header  := "FSTA" version:u8 flags:u8                      (6 bytes)
//! chunk   := "TSCK" flags:u8 records:u32 raw_len:u32
//!            stored_len:u32 first_ticks:u64 last_ticks:u64
//!            crc:u32 payload[stored_len]                     (37-byte header)
//! footer  := body trailer
//! trailer := body_crc:u32 body_len:u32 "TSFT"                (12 bytes)
//! ```
//!
//! All fixed-width integers are little-endian. The chunk CRC covers the
//! header fields (everything between the magic and the CRC itself) plus
//! the stored payload, so a flip of *any* byte in a chunk — framing or
//! data — is detected. The payload is the records of that chunk encoded
//! with [`fstrace::codec::encode_into`] and a per-chunk delta base of
//! zero, so every chunk decodes independently of all others: that is
//! what makes chunk-parallel decoding and skip-the-damage recovery
//! possible. The footer body carries per-trace metadata (name, totals,
//! max ids for collision-free merging) and one index entry per chunk;
//! the trailer lets a reader find the body from the end of the file and
//! verify it before trusting a single offset.

use fstrace::codec::{get_varint, put_varint, DecodeError};

use crate::crc32::Crc32;

/// Archive file magic.
pub const ARCHIVE_MAGIC: [u8; 4] = *b"FSTA";
/// Current archive format version.
pub const ARCHIVE_VERSION: u8 = 1;
/// Chunk frame magic, the resynchronization marker.
pub const CHUNK_MAGIC: [u8; 4] = *b"TSCK";
/// Footer trailer magic (last four bytes of a well-formed archive).
pub const FOOTER_MAGIC: [u8; 4] = *b"TSFT";

/// Bytes of the file header.
pub const HEADER_LEN: usize = 6;
/// Bytes of a chunk header, magic through CRC.
pub const CHUNK_HEADER_LEN: usize = 37;
/// Bytes of the footer trailer.
pub const TRAILER_LEN: usize = 12;

/// Archive-level header flag: chunks may be compressed.
pub const ARCHIVE_FLAG_COMPRESS: u8 = 0b1;
/// Chunk flag: the payload is LZ-compressed (see [`crate::compress`]).
pub const CHUNK_FLAG_COMPRESSED: u8 = 0b1;

/// Upper bound on a sane chunk payload, used to reject garbage headers
/// during recovery scans.
pub const MAX_CHUNK_BYTES: u32 = 1 << 28;

/// One chunk's framing metadata, as stored in both the chunk header and
/// the footer index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkInfo {
    /// File offset of the chunk's magic.
    pub offset: u64,
    /// Records encoded in the chunk.
    pub records: u32,
    /// Un-compressed payload length in bytes.
    pub raw_len: u32,
    /// Stored (possibly compressed) payload length in bytes.
    pub stored_len: u32,
    /// Tick count of the chunk's first record.
    pub first_ticks: u64,
    /// Tick count of the chunk's last record.
    pub last_ticks: u64,
    /// Whether the stored payload is compressed.
    pub compressed: bool,
    /// CRC-32 over the header fields and stored payload.
    pub crc: u32,
}

impl ChunkInfo {
    /// Total bytes the chunk occupies on disk, header included.
    pub fn frame_len(&self) -> u64 {
        CHUNK_HEADER_LEN as u64 + self.stored_len as u64
    }

    /// Whether the chunk's time range intersects `[start_ticks,
    /// end_ticks]` (inclusive).
    pub fn overlaps_ticks(&self, start_ticks: u64, end_ticks: u64) -> bool {
        self.first_ticks <= end_ticks && self.last_ticks >= start_ticks
    }
}

/// Encodes a chunk header into 37 bytes. The CRC field must already
/// cover the header fields (see [`chunk_crc`]).
pub fn encode_chunk_header(info: &ChunkInfo) -> [u8; CHUNK_HEADER_LEN] {
    let mut h = [0u8; CHUNK_HEADER_LEN];
    h[..4].copy_from_slice(&CHUNK_MAGIC);
    h[4] = if info.compressed {
        CHUNK_FLAG_COMPRESSED
    } else {
        0
    };
    h[5..9].copy_from_slice(&info.records.to_le_bytes());
    h[9..13].copy_from_slice(&info.raw_len.to_le_bytes());
    h[13..17].copy_from_slice(&info.stored_len.to_le_bytes());
    h[17..25].copy_from_slice(&info.first_ticks.to_le_bytes());
    h[25..33].copy_from_slice(&info.last_ticks.to_le_bytes());
    h[33..37].copy_from_slice(&info.crc.to_le_bytes());
    h
}

/// Parses a chunk header at file offset `offset`. Returns `None` when
/// the magic is absent or a field fails its sanity bound — the caller
/// treats that as "not a chunk here" and keeps scanning.
pub fn decode_chunk_header(h: &[u8], offset: u64) -> Option<ChunkInfo> {
    if h.len() < CHUNK_HEADER_LEN || h[..4] != CHUNK_MAGIC {
        return None;
    }
    let flags = h[4];
    if flags & !CHUNK_FLAG_COMPRESSED != 0 {
        return None;
    }
    let le32 = |at: usize| u32::from_le_bytes([h[at], h[at + 1], h[at + 2], h[at + 3]]);
    let le64 = |at: usize| {
        u64::from_le_bytes([
            h[at],
            h[at + 1],
            h[at + 2],
            h[at + 3],
            h[at + 4],
            h[at + 5],
            h[at + 6],
            h[at + 7],
        ])
    };
    let info = ChunkInfo {
        offset,
        records: le32(5),
        raw_len: le32(9),
        stored_len: le32(13),
        first_ticks: le64(17),
        last_ticks: le64(25),
        compressed: flags & CHUNK_FLAG_COMPRESSED != 0,
        crc: le32(33),
    };
    let sane = info.raw_len <= MAX_CHUNK_BYTES
        && info.stored_len <= MAX_CHUNK_BYTES
        && info.records as u64 <= info.raw_len as u64
        && (info.records > 0) == (info.raw_len > 0)
        && info.first_ticks <= info.last_ticks
        && (info.compressed || info.stored_len == info.raw_len);
    sane.then_some(info)
}

/// The chunk CRC: header fields (magic through `last_ticks`) plus the
/// stored payload.
pub fn chunk_crc(info: &ChunkInfo, payload: &[u8]) -> u32 {
    let mut header = encode_chunk_header(info);
    header[33..37].fill(0); // The CRC field itself is not covered.
    let mut c = Crc32::new();
    c.update(&header[..33]);
    c.update(payload);
    c.finish()
}

/// Per-trace metadata stored in the footer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArchiveMeta {
    /// Trace name ("a5", "server-merged", …); informational.
    pub name: String,
    /// Total records across all chunks.
    pub total_records: u64,
    /// Greatest open id in the trace (0 when empty).
    pub max_open: u64,
    /// Greatest file id in the trace (0 when empty).
    pub max_file: u64,
    /// Greatest user id in the trace (0 when empty).
    pub max_user: u32,
}

/// Serializes the footer body: metadata plus one index entry per chunk.
pub fn encode_footer(meta: &ArchiveMeta, chunks: &[ChunkInfo]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + chunks.len() * 16);
    put_varint(&mut out, meta.name.len() as u64);
    out.extend_from_slice(meta.name.as_bytes());
    put_varint(&mut out, meta.total_records);
    put_varint(&mut out, meta.max_open);
    put_varint(&mut out, meta.max_file);
    put_varint(&mut out, meta.max_user as u64);
    put_varint(&mut out, chunks.len() as u64);
    let mut prev_offset = 0u64;
    for c in chunks {
        // Offsets are increasing; delta-encode them for compactness.
        put_varint(&mut out, c.offset - prev_offset);
        prev_offset = c.offset;
        put_varint(&mut out, c.records as u64);
        put_varint(&mut out, c.raw_len as u64);
        put_varint(&mut out, c.stored_len as u64);
        put_varint(&mut out, c.first_ticks);
        put_varint(&mut out, c.last_ticks.saturating_sub(c.first_ticks));
        put_varint(&mut out, c.compressed as u64);
        put_varint(&mut out, c.crc as u64);
    }
    out
}

/// Parses a footer body produced by [`encode_footer`].
pub fn decode_footer(body: &[u8]) -> Result<(ArchiveMeta, Vec<ChunkInfo>), DecodeError> {
    let bad = || DecodeError::BadField("archive footer");
    let mut pos = 0usize;
    let name_len = get_varint(body, &mut pos)? as usize;
    let name_bytes = body.get(pos..pos + name_len).ok_or_else(bad)?;
    let name = std::str::from_utf8(name_bytes)
        .map_err(|_| bad())?
        .to_string();
    pos += name_len;
    let total_records = get_varint(body, &mut pos)?;
    let max_open = get_varint(body, &mut pos)?;
    let max_file = get_varint(body, &mut pos)?;
    let max_user = u32::try_from(get_varint(body, &mut pos)?).map_err(|_| bad())?;
    let n = get_varint(body, &mut pos)? as usize;
    let mut chunks = Vec::with_capacity(n.min(1 << 20));
    let mut prev_offset = 0u64;
    for _ in 0..n {
        let offset = prev_offset
            .checked_add(get_varint(body, &mut pos)?)
            .ok_or_else(bad)?;
        prev_offset = offset;
        let records = u32::try_from(get_varint(body, &mut pos)?).map_err(|_| bad())?;
        let raw_len = u32::try_from(get_varint(body, &mut pos)?).map_err(|_| bad())?;
        let stored_len = u32::try_from(get_varint(body, &mut pos)?).map_err(|_| bad())?;
        let first_ticks = get_varint(body, &mut pos)?;
        let last_ticks = first_ticks
            .checked_add(get_varint(body, &mut pos)?)
            .ok_or_else(bad)?;
        let compressed = match get_varint(body, &mut pos)? {
            0 => false,
            1 => true,
            _ => return Err(bad()),
        };
        let crc = u32::try_from(get_varint(body, &mut pos)?).map_err(|_| bad())?;
        chunks.push(ChunkInfo {
            offset,
            records,
            raw_len,
            stored_len,
            first_ticks,
            last_ticks,
            compressed,
            crc,
        });
    }
    if pos != body.len() {
        return Err(bad());
    }
    Ok((
        ArchiveMeta {
            name,
            total_records,
            max_open,
            max_file,
            max_user,
        },
        chunks,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_chunk() -> ChunkInfo {
        ChunkInfo {
            offset: 6,
            records: 1000,
            raw_len: 6100,
            stored_len: 2048,
            first_ticks: 17,
            last_ticks: 90_000,
            compressed: true,
            crc: 0xDEAD_BEEF,
        }
    }

    #[test]
    fn chunk_header_roundtrip() {
        let info = sample_chunk();
        let bytes = encode_chunk_header(&info);
        assert_eq!(decode_chunk_header(&bytes, 6), Some(info));
    }

    #[test]
    fn chunk_header_rejects_garbage() {
        let mut bytes = encode_chunk_header(&sample_chunk());
        bytes[0] = b'X';
        assert_eq!(decode_chunk_header(&bytes, 0), None);
        let mut bytes = encode_chunk_header(&sample_chunk());
        bytes[4] = 0xFF; // Unknown flags.
        assert_eq!(decode_chunk_header(&bytes, 0), None);
        let huge = ChunkInfo {
            stored_len: MAX_CHUNK_BYTES + 1,
            ..sample_chunk()
        };
        assert_eq!(decode_chunk_header(&encode_chunk_header(&huge), 0), None);
        // Uncompressed chunks must have stored_len == raw_len.
        let lying = ChunkInfo {
            compressed: false,
            ..sample_chunk()
        };
        assert_eq!(decode_chunk_header(&encode_chunk_header(&lying), 0), None);
    }

    #[test]
    fn footer_roundtrip() {
        let meta = ArchiveMeta {
            name: "a5".into(),
            total_records: 12345,
            max_open: 900,
            max_file: 4000,
            max_user: 31,
        };
        let chunks = vec![
            sample_chunk(),
            ChunkInfo {
                offset: 6 + sample_chunk().frame_len(),
                compressed: false,
                stored_len: 6100,
                ..sample_chunk()
            },
        ];
        let body = encode_footer(&meta, &chunks);
        let (m, c) = decode_footer(&body).unwrap();
        assert_eq!(m, meta);
        assert_eq!(c, chunks);
    }

    #[test]
    fn footer_rejects_truncation_and_garbage() {
        let body = encode_footer(&ArchiveMeta::default(), &[sample_chunk()]);
        for cut in 0..body.len() {
            assert!(decode_footer(&body[..cut]).is_err(), "cut {cut}");
        }
        let mut noisy = body.clone();
        noisy.push(0);
        assert!(decode_footer(&noisy).is_err());
        // An offset delta that runs past u64::MAX is garbage, not a
        // panic: bump the first chunk's delta from 1 to 2 so the
        // second's lands one past the end.
        let at = |offset| ChunkInfo {
            offset,
            ..sample_chunk()
        };
        let mut overflowing = encode_footer(&ArchiveMeta::default(), &[at(1), at(u64::MAX)]);
        assert_eq!(overflowing[6], 1, "the first offset delta");
        overflowing[6] = 2;
        assert!(decode_footer(&overflowing).is_err());
    }

    #[test]
    fn chunk_crc_covers_header_and_payload() {
        let mut info = sample_chunk();
        let payload = vec![0x42u8; 64];
        let base = chunk_crc(&info, &payload);
        info.first_ticks += 1;
        assert_ne!(chunk_crc(&info, &payload), base, "header field covered");
        info.first_ticks -= 1;
        let mut tampered = payload.clone();
        tampered[10] ^= 1;
        assert_ne!(chunk_crc(&info, &tampered), base, "payload covered");
        assert_eq!(chunk_crc(&info, &payload), base);
    }
}
