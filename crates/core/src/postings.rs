//! Block-compressed (v2) `Index` posting rows.
//!
//! The fixed-width v1 layout (`tables::encode_postings`) spends 20 bytes
//! per posting. Pair postings are monotone-per-trace and written
//! trace-sorted by the indexer, so the classic inverted-index layout —
//! delta encoding + varints in fixed-size blocks, with a directory per
//! chunk — compresses them several-fold, and the directory lets every
//! reader check each block's bounds and trace range as it decodes.
//!
//! ## Row layout
//!
//! `Index` rows grow strictly by byte append (one append per batch), so a v2
//! row is a sequence of self-delimiting **chunks**, one per append:
//!
//! ```text
//! chunk := [0xF2]                          version tag
//!          [varint num_postings]           postings in this chunk (≥ 1)
//!          [varint num_blocks]             directory entries (≥ 1)
//!          [varint body_len]               bytes of block bodies
//!          directory × num_blocks          block directory
//!          body      × body_len            delta/varint-packed postings
//!
//! directory entry (per block):
//!          [varint first_trace]            trace of the block's 1st posting
//!          [varint max_trace − first_trace] largest trace in the block
//!          [varint offset_delta]           body offset − previous offset
//!                                          (first entry stores offset 0)
//!          [varint count]                  postings in the block (≥ 1)
//!
//! body (per posting, starting from (trace 0, ts_a 0) at each block start):
//!          [zigzag-varint Δtrace][zigzag-varint Δts_a][zigzag-varint ts_b − ts_a]
//! ```
//!
//! Deltas use wrapping 64-bit arithmetic, so *any* posting list round-trips
//! bit-exactly — including unsorted traces and duplicate trace ids. Block
//! size is [`V2_BLOCK_POSTINGS`] postings.
//!
//! ## One format, two oracles
//!
//! v2 is the only `Index` row encoding a store is written or read in.
//! Stores record it as `config:posting_format = v2` in `Meta`; a store
//! recording anything else, or an index config without the key, is refused
//! at open ([`crate::indexer::check_posting_format`]) and never decoded as
//! v2 — a v1 row may legitimately start with the byte `0xF2`. Two oracles
//! stay beside the serving decoder in [`crate::decode`]: the scalar
//! [`decode_postings_v2`], and the v1 codec (`tables::encode_postings` /
//! `decode_postings`) that the property suites and the auditor's
//! re-encode cross-check hold every decoded v2 row against.

use crate::error::CoreError;
use crate::tables::Posting;
use crate::Result;
use seqdet_log::TraceId;
use seqdet_storage::codec::{Dec, Enc};

/// Version tag opening every v2 chunk.
pub const V2_TAG: u8 = 0xF2;

/// Postings per compressed block (the directory granularity).
pub const V2_BLOCK_POSTINGS: usize = 128;

/// Minimum encoded bytes per posting (three single-byte varints) — the
/// decoder uses it to reject directories whose counts could not possibly
/// fit their byte span.
const MIN_POSTING_BYTES: usize = 3;

/// How a v2 row failed validation. [`decode_postings_v2`] folds both cases
/// into [`CoreError::Corrupt`]; the auditor keeps them apart so a torn or
/// inconsistent block directory gets its own finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum V2RowError {
    /// The chunk header or block directory is truncated, non-monotone, out
    /// of bounds, or inconsistent with the posting counts.
    TornDirectory(String),
    /// A block body failed to decode (truncated varint, trace overflow, or
    /// a block not ending exactly at the next directory offset).
    BadBlock(String),
}

impl V2RowError {
    fn message(&self) -> &str {
        match self {
            V2RowError::TornDirectory(m) | V2RowError::BadBlock(m) => m,
        }
    }
}

impl From<V2RowError> for CoreError {
    fn from(e: V2RowError) -> Self {
        CoreError::Corrupt { table: "Index", message: e.message().to_owned() }
    }
}

pub(crate) fn torn<T>(msg: impl Into<String>) -> std::result::Result<T, V2RowError> {
    Err(V2RowError::TornDirectory(msg.into()))
}

pub(crate) fn bad<T>(msg: impl Into<String>) -> std::result::Result<T, V2RowError> {
    Err(V2RowError::BadBlock(msg.into()))
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Encode `postings` as one v2 chunk. An empty slice encodes to an empty
/// byte string (matching v1, where no postings mean no bytes).
pub fn encode_postings_v2(postings: &[Posting]) -> Vec<u8> {
    if postings.is_empty() {
        return Vec::new();
    }
    // Encode block bodies first; the header needs the directory + body size.
    let mut body = Enc::with_capacity(postings.len() * 4);
    let mut directory = Enc::new();
    let mut prev_offset = 0u64;
    for block in postings.chunks(V2_BLOCK_POSTINGS) {
        let offset = body.len() as u64;
        let first = block[0].trace.0;
        let max = block.iter().map(|p| p.trace.0).max().unwrap_or(first);
        directory
            .varint(first as u64)
            .varint((max - first) as u64)
            .varint(offset - prev_offset)
            .varint(block.len() as u64);
        prev_offset = offset;
        let (mut prev_trace, mut prev_ts_a) = (0u32, 0u64);
        for p in block {
            body.varint_signed(p.trace.0 as i64 - prev_trace as i64)
                .varint_signed(p.ts_a.wrapping_sub(prev_ts_a) as i64)
                .varint_signed(p.ts_b.wrapping_sub(p.ts_a) as i64);
            prev_trace = p.trace.0;
            prev_ts_a = p.ts_a;
        }
    }
    let mut out = Enc::with_capacity(8 + directory.len() + body.len());
    out.u8(V2_TAG)
        .varint(postings.len() as u64)
        .varint(postings.len().div_ceil(V2_BLOCK_POSTINGS) as u64)
        .varint(body.len() as u64)
        .bytes(directory.as_slice())
        .bytes(body.as_slice());
    out.into_vec()
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// One parsed directory entry: the block's byte range within the body
/// plus its trace bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DirEntry {
    pub(crate) first_trace: u32,
    pub(crate) max_trace: u32,
    pub(crate) offset: usize,
    pub(crate) count: usize,
}

/// One parsed chunk: directory plus the body's byte range within the row.
#[derive(Debug, Clone)]
pub(crate) struct Chunk {
    pub(crate) num_postings: usize,
    pub(crate) directory: Vec<DirEntry>,
    /// Body range, as offsets into the row.
    pub(crate) body_start: usize,
    pub(crate) body_end: usize,
    /// Offset of the byte after this chunk.
    pub(crate) next_chunk: usize,
}

/// End (exclusive, relative to the body) of block `i` of `chunk`.
pub(crate) fn block_end(chunk: &Chunk, i: usize) -> usize {
    chunk.directory.get(i + 1).map(|e| e.offset).unwrap_or(chunk.body_end - chunk.body_start)
}

/// Parse and validate one chunk header + directory starting at `pos`.
pub(crate) fn parse_chunk(row: &[u8], pos: usize) -> std::result::Result<Chunk, V2RowError> {
    let mut d = Dec::new(&row[pos..]);
    match d.u8() {
        Some(V2_TAG) => {}
        Some(tag) => return torn(format!("unknown posting-row version tag 0x{tag:02X}")),
        None => return torn("empty chunk"),
    }
    let (Some(num_postings), Some(num_blocks), Some(body_len)) =
        (d.varint(), d.varint(), d.varint())
    else {
        return torn("truncated chunk header");
    };
    let (num_postings, num_blocks, body_len) =
        (num_postings as usize, num_blocks as usize, body_len as usize);
    if num_postings == 0 || num_blocks == 0 {
        return torn("chunk declares zero postings or zero blocks");
    }
    if num_blocks > num_postings {
        return torn(format!("{num_blocks} blocks for {num_postings} postings"));
    }
    if num_postings.saturating_mul(MIN_POSTING_BYTES) > body_len {
        return torn(format!("{num_postings} postings cannot fit a {body_len}-byte body"));
    }
    let mut directory = Vec::with_capacity(num_blocks.min(d.remaining()));
    let mut offset = 0usize;
    let mut total = 0usize;
    for i in 0..num_blocks {
        let (Some(first), Some(span), Some(delta), Some(count)) =
            (d.varint(), d.varint(), d.varint(), d.varint())
        else {
            return torn(format!("torn directory: entry {i} of {num_blocks} is truncated"));
        };
        let Ok(first_trace) = u32::try_from(first) else {
            return torn(format!("directory entry {i}: first trace {first} exceeds u32"));
        };
        let Some(max_trace) = first_trace.checked_add(u32::try_from(span).unwrap_or(u32::MAX))
        else {
            return torn(format!("directory entry {i}: max trace overflows u32"));
        };
        if i == 0 {
            if delta != 0 {
                return torn("directory offsets do not start at 0");
            }
        } else if delta == 0 {
            return torn(format!("directory offsets not strictly monotone at entry {i}"));
        }
        offset += delta as usize;
        if count == 0 {
            return torn(format!("directory entry {i} declares an empty block"));
        }
        let count = count as usize;
        if offset >= body_len || offset + count * MIN_POSTING_BYTES > body_len {
            return torn(format!("directory entry {i} points past the chunk body"));
        }
        total += count;
        directory.push(DirEntry { first_trace, max_trace, offset, count });
    }
    if total != num_postings {
        return torn(format!("directory counts sum to {total}, chunk declares {num_postings}"));
    }
    let header_len = (row.len() - pos) - d.remaining();
    let body_start = pos + header_len;
    if d.remaining() < body_len {
        return torn("truncated chunk body");
    }
    Ok(Chunk {
        num_postings,
        directory,
        body_start,
        body_end: body_start + body_len,
        next_chunk: body_start + body_len,
    })
}

/// Decode the `count` postings of one block. `body` is the chunk body;
/// `end` is where the block must stop (the next directory offset).
fn decode_block(
    body: &[u8],
    entry: DirEntry,
    end: usize,
) -> std::result::Result<Vec<Posting>, V2RowError> {
    if entry.offset > end || end > body.len() {
        return torn("block span exceeds the chunk body");
    }
    let mut d = Dec::new(&body[entry.offset..end]);
    let mut out = Vec::with_capacity(entry.count);
    let (mut prev_trace, mut prev_ts_a) = (0u32, 0u64);
    for i in 0..entry.count {
        let (Some(dt), Some(da), Some(db)) =
            (d.varint_signed(), d.varint_signed(), d.varint_signed())
        else {
            return bad(format!("posting {i} of a block is truncated"));
        };
        let Some(trace) = (prev_trace as i64).checked_add(dt).and_then(|t| u32::try_from(t).ok())
        else {
            return bad(format!("posting {i}: trace delta leaves the u32 range"));
        };
        let ts_a = prev_ts_a.wrapping_add(da as u64);
        let ts_b = ts_a.wrapping_add(db as u64);
        out.push(Posting { trace: TraceId(trace), ts_a, ts_b });
        prev_trace = trace;
        prev_ts_a = ts_a;
    }
    if !d.is_done() {
        return bad("block does not end at the next directory offset");
    }
    Ok(out)
}

/// Check a decoded block against its directory entry: the entry's first
/// and max trace must be the block's. Shared by every decoder, so a torn
/// directory is reported the same way whichever kernel read the row.
pub(crate) fn check_block_keys(
    entry: DirEntry,
    block: &[Posting],
) -> std::result::Result<(), V2RowError> {
    if let Some(first) = block.first() {
        if first.trace.0 != entry.first_trace {
            return torn(format!(
                "directory first-trace {} disagrees with block ({})",
                entry.first_trace, first.trace.0
            ));
        }
    }
    match block.iter().map(|p| p.trace.0).max() {
        Some(max) if max != entry.max_trace => {
            torn(format!("directory max-trace {} disagrees with block ({max})", entry.max_trace))
        }
        _ => Ok(()),
    }
}

/// Scalar whole-row walk behind [`decode_postings_v2`] and
/// [`validate_v2_row`]; `sorted_keys` adds the indexer's sorted-first-key
/// invariant on top of the codec's own checks.
fn decode_row(row: &[u8], sorted_keys: bool) -> std::result::Result<Vec<Posting>, V2RowError> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < row.len() {
        let chunk = parse_chunk(row, pos)?;
        out.reserve(chunk.num_postings);
        let Some(body) = row.get(chunk.body_start..chunk.body_end) else {
            return torn("truncated chunk body");
        };
        let mut prev_first: Option<u32> = None;
        for (i, &entry) in chunk.directory.iter().enumerate() {
            if sorted_keys && prev_first.is_some_and(|p| entry.first_trace < p) {
                return torn(format!("directory first-keys not sorted at entry {i}"));
            }
            prev_first = Some(entry.first_trace);
            let decoded = decode_block(body, entry, block_end(&chunk, i))?;
            check_block_keys(entry, &decoded)?;
            out.extend(decoded);
        }
        pos = chunk.next_chunk;
    }
    Ok(out)
}

/// Decode a whole v2 `Index` row (any number of appended chunks) — the
/// scalar reference decoder the wide kernel in [`crate::decode`] is held
/// to. The inverse of [`encode_postings_v2`], and equal, posting for
/// posting, to what [`crate::tables::decode_postings`] returns for the v1
/// encoding of the same list (the oracle relation the property suite pins
/// down).
pub fn decode_postings_v2(row: &[u8]) -> Result<Vec<Posting>> {
    Ok(decode_row(row, false)?)
}

/// Validate a v2 row the way the auditor needs it: every directory
/// invariant (offsets strictly monotone from 0, counts non-empty and
/// consistent, first/max keys matching the blocks) plus, for rows written
/// by the indexer, **first-keys sorted** across the blocks of each chunk.
/// Returns the decoded postings so callers audit content without a second
/// decode pass.
pub fn validate_v2_row(row: &[u8]) -> std::result::Result<Vec<Posting>, V2RowError> {
    decode_row(row, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::{decode_postings, encode_postings};

    fn p(trace: u32, ts_a: u64, ts_b: u64) -> Posting {
        Posting { trace: TraceId(trace), ts_a, ts_b }
    }

    fn v1_row(postings: &[Posting]) -> Vec<u8> {
        let mut row = Vec::new();
        for posting in postings {
            row.extend_from_slice(&encode_postings(posting.trace, &[(posting.ts_a, posting.ts_b)]));
        }
        row
    }

    #[test]
    fn roundtrip_matches_v1_oracle() {
        let lists: Vec<Vec<Posting>> = vec![
            vec![],
            vec![p(0, 0, 0)],
            vec![p(3, 1, 5), p(3, 9, 12), p(4, 2, 3)],
            vec![p(7, 10, 20); 5],          // duplicate traces
            vec![p(9, 5, 2)],               // ts_b < ts_a still round-trips
            vec![p(u32::MAX, u64::MAX, 0)], // extreme wrapping deltas
            (0..300).map(|i| p(i, i as u64 * 10, i as u64 * 10 + 1)).collect(), // multi-block
        ];
        for list in lists {
            let enc = encode_postings_v2(&list);
            let dec = decode_postings_v2(&enc).unwrap();
            let oracle = decode_postings(&v1_row(&list)).unwrap();
            assert_eq!(dec, oracle, "list of {} postings", list.len());
        }
    }

    #[test]
    fn appended_chunks_concatenate() {
        let a: Vec<Posting> = (0..10).map(|i| p(i, 1, 2)).collect();
        let b: Vec<Posting> = (10..150).map(|i| p(i, 3, 4)).collect();
        let mut row = encode_postings_v2(&a);
        row.extend_from_slice(&encode_postings_v2(&b));
        let dec = decode_postings_v2(&row).unwrap();
        let whole: Vec<Posting> = a.iter().chain(&b).copied().collect();
        assert_eq!(dec, whole);
        assert!(validate_v2_row(&row).is_ok());
    }

    #[test]
    fn compression_beats_v1_on_monotone_postings() {
        let list: Vec<Posting> = (0..1000).map(|i| p(i, i as u64 * 7, i as u64 * 7 + 3)).collect();
        let v2 = encode_postings_v2(&list);
        assert!(
            v2.len() * 2 < v1_row(&list).len(),
            "v2 {} bytes vs v1 {} bytes",
            v2.len(),
            v1_row(&list).len()
        );
    }

    #[test]
    fn v1_tagged_garbage_is_a_typed_error() {
        // A v1 row whose first trace is ≡ V2_TAG mod 256 would mis-sniff —
        // which is why the format is persisted config, not sniffed. Fed to
        // the v2 decoder anyway, it must fail cleanly.
        let row = v1_row(&[p(0xF2, 1, 2)]);
        assert_eq!(row[0], V2_TAG);
        assert!(decode_postings_v2(&row).is_err());
    }

    #[test]
    fn torn_directory_is_distinguished_from_bad_block() {
        let list: Vec<Posting> = (0..10).map(|i| p(i, 1, 2)).collect();
        let good = encode_postings_v2(&list);
        // Truncate inside the directory.
        let torn = &good[..4];
        assert!(matches!(validate_v2_row(torn), Err(V2RowError::TornDirectory(_))));
        // Corrupt the body: flip a byte past the directory.
        let mut bad_body = good.clone();
        let last = bad_body.len() - 1;
        bad_body[last] ^= 0x80; // turn the final varint byte into a continuation
        assert!(matches!(validate_v2_row(&bad_body), Err(V2RowError::BadBlock(_))));
    }

    #[test]
    fn validate_rejects_unsorted_first_keys_but_decode_accepts() {
        // Two blocks with descending first traces: legal for the codec
        // (round-trips), illegal for the indexer's sorted-write invariant.
        let list: Vec<Posting> =
            (0..(V2_BLOCK_POSTINGS as u32 + 1)).rev().map(|i| p(i, 1, 2)).collect();
        let row = encode_postings_v2(&list);
        assert_eq!(decode_postings_v2(&row).unwrap(), list);
        assert!(
            matches!(validate_v2_row(&row), Err(V2RowError::TornDirectory(m)) if m.contains("not sorted"))
        );
    }
}
