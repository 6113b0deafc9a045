//! Fuzz the segment record parser: [`parse_segment_bytes`] is the first
//! code to touch bytes read back from disk, so it must classify *any* input
//! — garbage, torn, bit-flipped — without panicking, and must never feed an
//! unverified record to the apply callback.

use proptest::prelude::*;
use seqdet_storage::crc::crc32;
use seqdet_storage::{
    parse_segment_bytes, replay_segment_bytes, DiskStore, SegmentEnd, StorageError, TableId,
};

/// Build one wire-format record: `[crc][op][table][klen][vlen][key][value]`.
fn record(op: u8, table: u8, key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(10 + key.len() + value.len());
    body.push(op);
    body.push(table);
    body.extend_from_slice(&(key.len() as u32).to_le_bytes());
    body.extend_from_slice(&(value.len() as u32).to_le_bytes());
    body.extend_from_slice(key);
    body.extend_from_slice(value);
    let mut rec = Vec::with_capacity(4 + body.len());
    rec.extend_from_slice(&crc32(&body).to_le_bytes());
    rec.extend_from_slice(&body);
    rec
}

/// A batch-framed segment: `batches` batches, batch `i` holding `i % 3 + 1`
/// put records, each batch wrapped in BEGIN/COMMIT control records.
/// Returns the bytes plus, per batch, `(end_offset, cumulative_records)` —
/// the byte where its COMMIT record ends and how many payload records are
/// visible once it commits.
fn batched_segment(batches: usize) -> (Vec<u8>, Vec<(usize, usize)>) {
    const OP_BATCH_BEGIN: u8 = 4;
    const OP_BATCH_COMMIT: u8 = 5;
    let mut seg = Vec::new();
    let mut boundaries = Vec::new();
    let mut total = 0usize;
    for i in 0..batches {
        let id = (i as u64 + 1).to_le_bytes();
        seg.extend_from_slice(&record(OP_BATCH_BEGIN, 0, b"", &id));
        for r in 0..(i % 3 + 1) {
            let key = (total as u32).to_le_bytes();
            seg.extend_from_slice(&record(1, (r % 5) as u8, &key, &[r as u8; 5]));
            total += 1;
        }
        seg.extend_from_slice(&record(OP_BATCH_COMMIT, 0, b"", &id));
        boundaries.push((seg.len(), total));
    }
    (seg, boundaries)
}

/// A segment of `n` small valid records (ops cycle through put/append/delete).
fn valid_segment(n: usize) -> Vec<u8> {
    const OPS: [u8; 3] = [1, 2, 3]; // OP_PUT, OP_APPEND, OP_DELETE
    let mut seg = Vec::new();
    for i in 0..n {
        let key = (i as u32).to_le_bytes();
        let value = vec![i as u8; i % 7];
        seg.extend_from_slice(&record(OPS[i % 3], (i % 5) as u8, &key, &value));
    }
    seg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes: never panic, and the callback runs exactly once per
    /// *verified* record — whatever the classification.
    #[test]
    fn arbitrary_bytes_never_panic(data in prop::collection::vec(0u8..=255, 0..512)) {
        let mut applied = 0u64;
        let records = match parse_segment_bytes(&data, |_, _, _, _| applied += 1) {
            SegmentEnd::Clean { records } => records,
            SegmentEnd::TornTail { records, .. } => records,
            SegmentEnd::Corrupt { records, .. } => records,
        };
        // `Corrupt { unknown op }` verifies the checksum but rejects the
        // record before apply, so applied may trail by at most one.
        prop_assert!(records == applied || records == applied + 1);
    }

    /// A valid segment parses clean, with every record applied.
    #[test]
    fn valid_segments_parse_clean(n in 0usize..20) {
        let seg = valid_segment(n);
        let mut applied = Vec::new();
        let end = parse_segment_bytes(&seg, |op, table, key, _| {
            applied.push((op, table, key.to_vec()));
        });
        prop_assert_eq!(end, SegmentEnd::Clean { records: n as u64 });
        prop_assert_eq!(applied.len(), n);
        for (i, (_, table, key)) in applied.iter().enumerate() {
            prop_assert_eq!(*table, TableId((i % 5) as u8));
            prop_assert_eq!(&key[..], &(i as u32).to_le_bytes());
        }
    }

    /// Truncating a valid segment anywhere never panics: a cut on a record
    /// boundary is clean, anywhere else is a torn tail — never corruption,
    /// and never applies the torn record.
    #[test]
    fn truncation_is_a_torn_tail_not_corruption(n in 1usize..12, cut_ppm in 0u32..1_000_000) {
        let seg = valid_segment(n);
        let cut = (seg.len() as u64 * cut_ppm as u64 / 1_000_000) as usize;
        match parse_segment_bytes(&seg[..cut], |_, _, _, _| {}) {
            SegmentEnd::Clean { .. } | SegmentEnd::TornTail { .. } => {}
            SegmentEnd::Corrupt { offset, reason, .. } => {
                return Err(TestCaseError(format!(
                    "truncation at {cut} misread as corruption @ {offset}: {reason}"
                )));
            }
        }
    }

    /// Arbitrary bytes through the batch-aware replayer: never panic, and
    /// the bookkeeping stays coherent (discards only happen when a batch
    /// was actually opened).
    #[test]
    fn batch_replay_of_arbitrary_bytes_never_panics(
        data in prop::collection::vec(0u8..=255, 0..512),
    ) {
        let mut applied = 0u64;
        let scan = replay_segment_bytes(&data, |_, _, _, _| applied += 1);
        prop_assert!(scan.batches_discarded <= scan.batches_committed + 1);
        if scan.batches_committed > 0 {
            prop_assert!(scan.max_batch_id.is_some());
        }
    }

    /// Cutting a batch-framed log anywhere applies exactly the records of
    /// the whole committed batches before the cut — an open batch's records
    /// are buffered, never applied, and counted as discarded.
    #[test]
    fn cuts_apply_only_whole_committed_batches(
        batches in 1usize..8,
        cut_ppm in 0u32..=1_000_000,
    ) {
        let (seg, boundaries) = batched_segment(batches);
        let cut = (seg.len() as u64 * cut_ppm as u64 / 1_000_000) as usize;
        let committed_before_cut =
            boundaries.iter().take_while(|&&(end, _)| end <= cut).count();
        let expected_records =
            if committed_before_cut == 0 { 0 } else { boundaries[committed_before_cut - 1].1 };

        let mut applied = Vec::new();
        let scan = replay_segment_bytes(&seg[..cut], |_, _, key, _| {
            applied.push(key.to_vec());
        });
        prop_assert_eq!(scan.batches_committed, committed_before_cut as u64);
        prop_assert!(scan.batches_discarded <= 1, "at most the cut-open batch discards");
        prop_assert_eq!(applied.len(), expected_records);
        // Applied records are exactly the prefix, in order.
        for (i, key) in applied.iter().enumerate() {
            prop_assert_eq!(&key[..], &(i as u32).to_le_bytes());
        }
        // A cut is never misread as corruption.
        match scan.end {
            SegmentEnd::Clean { .. } | SegmentEnd::TornTail { .. } => {}
            SegmentEnd::Corrupt { offset, reason, .. } => {
                return Err(TestCaseError(format!(
                    "cut at {cut} misread as corruption @ {offset}: {reason}"
                )));
            }
        }
    }

    /// Flipping any single bit of any record makes the parse stop at or
    /// before that record with `Corrupt` (checksum or framing damage may
    /// also surface as a torn tail when the flipped bit is in a length
    /// field) — and the damaged record's payload is never applied.
    #[test]
    fn bit_flips_never_reach_the_apply_callback(
        n in 1usize..10,
        byte_ppm in 0u32..1_000_000,
        bit in 0u8..8,
    ) {
        let mut seg = valid_segment(n);
        let idx = (seg.len() as u64 * byte_ppm as u64 / 1_000_000) as usize % seg.len();
        seg[idx] ^= 1 << bit;

        // Which record was damaged?
        let mut bounds = Vec::new();
        let mut at = 0usize;
        for i in 0..n {
            let len = record(
                [1u8, 2, 3][i % 3],
                (i % 5) as u8,
                &(i as u32).to_le_bytes(),
                &vec![i as u8; i % 7],
            )
            .len();
            bounds.push((at, at + len));
            at += len;
        }
        let damaged = bounds.iter().position(|&(s, e)| idx >= s && idx < e).unwrap_or(n);

        let mut applied = 0usize;
        let end = parse_segment_bytes(&seg, |_, _, _, _| applied += 1);
        // Every record before the damaged one is intact and must apply; the
        // damaged one must not (its checksum no longer matches its body).
        prop_assert!(applied <= damaged, "applied {applied} records, damage in #{damaged}");
        match end {
            SegmentEnd::Clean { .. } => {
                return Err(TestCaseError(
                    "bit-flipped segment parsed clean".to_string(),
                ));
            }
            SegmentEnd::TornTail { .. } | SegmentEnd::Corrupt { .. } => {}
        }
    }
}

/// An unknown op is damage, never a skippable record — including op 6, the
/// snapshot marker of pre-manifest stores, which replay does not accept: a
/// segment carrying one is refused at open with a typed error.
#[test]
fn unknown_ops_are_corruption() {
    let put = record(1, 0, b"k", b"v");
    for op in [0u8, 6, 7, 0xFF] {
        let mut seg = put.clone();
        seg.extend_from_slice(&record(op, 0, b"", b""));
        seg.extend_from_slice(&put);
        let mut applied = 0;
        let end = parse_segment_bytes(&seg, |_, _, _, _| applied += 1);
        let reason = format!("unknown op {op}");
        assert_eq!(end, SegmentEnd::Corrupt { records: 1, offset: put.len(), reason });
        assert_eq!(applied, 1, "op {op}");
        assert_eq!(replay_segment_bytes(&seg, |_, _, _, _| {}).end, end);
    }

    let dir = std::env::temp_dir().join(format!("seqdet-segfuzz-op6-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut seg = record(6, 0, b"", b"");
    seg.extend_from_slice(&put);
    std::fs::write(dir.join("seg-000000.log"), &seg).unwrap();
    match DiskStore::open(&dir) {
        Err(StorageError::CorruptSegment { offset: 0, reason, .. }) => {
            assert_eq!(reason, "unknown op 6");
        }
        Err(e) => panic!("expected CorruptSegment at offset 0, got {e}"),
        Ok(_) => panic!("a snapshot-marker segment opened"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
