//! Ignored-by-default microbenchmark for the v2 decode kinds, for running
//! by hand while tuning the kernel:
//!
//! ```text
//! cargo test --release -p seqdet-core --test decode_speed -- --ignored --nocapture
//! ```
//!
//! Uses cache-resident rows (real pair-row sizes) and interleaved samples,
//! the same methodology as the `posting_v2` bench baseline.

use seqdet_core::postings::{decode_postings_v2, encode_postings_v2};
use seqdet_core::tables::Posting;
use seqdet_core::{v2_decode_with_kind, DecodeKind, DecodeScratch};
use seqdet_log::TraceId;
use std::time::Instant;

fn row_like_pair_row(n: u32) -> Vec<Posting> {
    (0..n)
        .map(|i| {
            let base = i as u64 * 37 % 50_000;
            Posting { trace: TraceId(i / 4), ts_a: base, ts_b: base + (i as u64 % 900) }
        })
        .collect()
}

#[test]
#[ignore = "manual kernel-tuning harness, wall-clock only"]
fn decode_kind_throughput() {
    const REPS: usize = 256;
    let postings = row_like_pair_row(4096);
    let row = encode_postings_v2(&postings);
    println!("row: {} postings, {} bytes", postings.len(), row.len());
    let kinds = DecodeKind::ALL;
    let mut out = Vec::with_capacity(postings.len());
    let mut scratch = DecodeScratch::new();
    let mut times: [Vec<u64>; 2] = Default::default();
    for _ in 0..41 {
        for (k, &kind) in kinds.iter().enumerate() {
            let t = Instant::now();
            for _ in 0..REPS {
                out.clear();
                v2_decode_with_kind(kind, &row, &mut scratch, &mut out).expect("valid row");
                std::hint::black_box(&out);
            }
            times[k].push(t.elapsed().as_nanos() as u64);
        }
    }
    assert_eq!(out, decode_postings_v2(&row).unwrap());
    for (k, &kind) in kinds.iter().enumerate() {
        times[k].sort_unstable();
        let ns = times[k][times[k].len() / 2];
        let mps = (postings.len() * REPS) as f64 * 1e3 / ns as f64;
        println!("{:>10}: {mps:6.1} Mpostings/s", kind.name());
    }
}
