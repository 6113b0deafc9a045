//! Posting-row experiment: v2 delta/varint blocks over the Figure-2
//! synthetic replicas, against the fixed-width v1 record size.
//!
//! 1. **Size** — how many Index-table bytes does the block-compressed
//!    format save on the paper's synthetic datasets? v1 spends exactly
//!    [`POSTING_RECORD_BYTES`] per posting, so its column is computed,
//!    not indexed.
//! 2. **Latency** — cold (cache disabled) and warm STNM detection over a
//!    v2 store, the per-kernel decode throughput, and the candidate-join
//!    ablation (probe cascade vs bitmap intersection).
//!
//! Alongside the criterion output the bench writes a machine-readable
//! baseline to `results_posting_v2.json` at the workspace root (next to
//! the other `results_*` files).
//!
//! The baseline run also *asserts* the acceptance bars: every profile's
//! compression ratio must stay ≥ 5x, and the candidate-join orderings
//! `CandidateJoin::Auto` relies on must hold — a regression fails the
//! bench run, not just a reader squinting at the JSON.

use criterion::{criterion_group, BenchmarkId, Criterion};
use seqdet_core::postings::encode_postings_v2;
use seqdet_core::tables::{Posting, POSTING_RECORD_BYTES};
use seqdet_core::{
    active_decode_kind, v2_decode_with_kind, DecodeKind, DecodeScratch, IndexConfig, IndexStats,
    Indexer, Policy,
};
use seqdet_datagen::patterns::{pattern_batch, PatternMode};
use seqdet_datagen::DatasetProfile;
use seqdet_log::{EventLog, Pattern, TraceId};
use seqdet_query::{CandidateJoin, QueryEngine};
use seqdet_storage::MemStore;
use std::time::{Duration, Instant};

/// The Figure-2 replicas the size comparison runs over: small, medium and
/// large pair-density regimes.
const PROFILES: &[(&str, usize)] = &[("bpi_2013", 20), ("bpi_2020", 20), ("bpi_2017", 50)];

fn indexed(log: &EventLog) -> (QueryEngine<MemStore>, IndexStats) {
    let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
    ix.index_log(log).expect("valid log");
    let stats = IndexStats::collect(ix.store().as_ref()).expect("stats collect");
    (QueryEngine::new(ix.store()).expect("indexed store"), stats)
}

fn run_batch(engine: &QueryEngine<MemStore>, batch: &[Pattern]) -> usize {
    batch.iter().map(|p| engine.detect(p).expect("detect runs").total_completions()).sum()
}

fn bench_posting_v2(c: &mut Criterion) {
    let mut group = c.benchmark_group("posting_v2");
    group
        .sample_size(15)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));
    let log = DatasetProfile::by_name("bpi_2017").expect("profile exists").scaled(50).generate();
    let batch = pattern_batch(&log, 8, 25, PatternMode::Random, 13);
    let (engine, _) = indexed(&log);
    run_batch(&engine, &batch); // pre-warm the posting cache
    group.bench_with_input(BenchmarkId::new("stnm_detect", "v2"), &batch, |b, batch| {
        b.iter(|| run_batch(&engine, batch))
    });
    group.finish();
}

/// Median wall-clock nanoseconds of `samples` runs of `f`.
fn median_ns(samples: usize, mut f: impl FnMut() -> usize) -> u64 {
    let mut times: Vec<u64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Direct size + latency measurement written as the JSON baseline.
fn write_baseline() {
    let mut entries = Vec::new();

    // Size: v2 Index-table bytes per Figure-2 replica, against the exact
    // v1 size of the same postings.
    let mut min_ratio = f64::INFINITY;
    for &(name, scale) in PROFILES {
        let log = DatasetProfile::by_name(name).expect("profile exists").scaled(scale).generate();
        let (_, v2) = indexed(&log);
        let v1_bytes = v2.postings * POSTING_RECORD_BYTES;
        let ratio = v1_bytes as f64 / v2.index_bytes.max(1) as f64;
        min_ratio = min_ratio.min(ratio);
        println!(
            "posting_v2/{name}: index bytes v1 {v1_bytes} v2 {} ({ratio:.2}x smaller), {} postings",
            v2.index_bytes, v2.postings
        );
        entries.push(format!(
            "  \"{name}\": {{\"postings\": {}, \"index_bytes_v1\": {v1_bytes}, \
             \"index_bytes_v2\": {}, \"bytes_ratio\": {ratio:.3}}}",
            v2.postings, v2.index_bytes
        ));
    }

    // Latency: STNM detect cold (cache disabled: the full decode path) and
    // warm (cached), sampled interleaved so clock drift over the
    // measurement window biases both equally.
    let log = DatasetProfile::by_name("bpi_2017").expect("profile exists").scaled(50).generate();
    let batch = pattern_batch(&log, 8, 25, PatternMode::Random, 13);
    let (warm, _) = indexed(&log);
    let cold = indexed(&log).0.with_cache_capacity(0);
    run_batch(&warm, &batch); // pre-warm
    run_batch(&cold, &batch); // fault in lazily touched rows
    let mut times: [Vec<u64>; 2] = Default::default();
    for _ in 0..15 {
        for (samples, engine) in times.iter_mut().zip([&cold, &warm]) {
            let t = Instant::now();
            std::hint::black_box(run_batch(engine, &batch));
            samples.push(t.elapsed().as_nanos() as u64);
        }
    }
    let [cold_ns, warm_ns] = times.map(|mut samples| {
        samples.sort_unstable();
        samples[samples.len() / 2]
    });
    println!("posting_v2/stnm_detect/v2: cold {cold_ns} ns, warm {warm_ns} ns");
    entries
        .push(format!("  \"stnm_detect_v2\": {{\"cold_ns\": {cold_ns}, \"warm_ns\": {warm_ns}}}"));

    // Candidate-join ablation: the same v2 store and batch under a forced
    // probe cascade vs forced bitmap intersection (`Auto` takes the probe
    // cascade until the bitmaps are cache-resident, then the intersection).
    let mut join_ns = Vec::new();
    for (name, join) in [("probe", CandidateJoin::Probe), ("bitmap", CandidateJoin::Bitmap)] {
        let warm = indexed(&log).0.with_candidate_join(join);
        let cold = indexed(&log).0.with_candidate_join(join).with_cache_capacity(0);
        run_batch(&warm, &batch);
        run_batch(&cold, &batch);
        let cold_ns = median_ns(15, || run_batch(&cold, &batch));
        let warm_ns = median_ns(15, || run_batch(&warm, &batch));
        println!("posting_v2/stnm_detect/v2_{name}: cold {cold_ns} ns, warm {warm_ns} ns");
        entries.push(format!(
            "  \"stnm_detect_v2_{name}\": {{\"cold_ns\": {cold_ns}, \"warm_ns\": {warm_ns}}}"
        ));
        join_ns.push((cold_ns, warm_ns));
    }

    // Decode throughput: million postings/sec expanding one large v2 row
    // with each kernel kind (and `active` = what this host actually runs).
    let decoded = decode_throughput();
    entries.push(format!(
        "  \"decode_kind_active\": \"{:?}\",\n  \"decode_mpostings_per_sec\": {{{}}}",
        active_decode_kind(),
        decoded
            .iter()
            .map(|(name, mps)| format!("\"{name}\": {mps:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    let json = format!(
        "{{\n  \"bench\": \"posting_v2\",\n  \"pattern_len\": 8, \"batch\": 25,\n{}\n}}\n",
        entries.join(",\n")
    );
    // Workspace root, next to the other results_* baselines.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results_posting_v2.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("could not write {path}: {e}");
    }

    // Acceptance bar (asserted after the JSON lands so the numbers are
    // inspectable even when a regression fails the run): compression must
    // hold ≥ 5x.
    assert!(min_ratio >= 5.0, "v2 compression below the 5x bar: {min_ratio:.3}x (see {path})");

    // The candidate-join orderings `CandidateJoin::Auto` is built on: cold,
    // building bitmaps inline must lose to the probe cascade (which is why
    // Auto never builds them); warm, the cache-resident intersection must
    // win (which is why Auto uses bitmaps exactly when they're built). A
    // flip on either side means the Auto heuristic is leaving time on the
    // table and this bench is the place that notices.
    let ((probe_cold, probe_warm), (bitmap_cold, bitmap_warm)) = (join_ns[0], join_ns[1]);
    assert!(
        probe_cold <= bitmap_cold,
        "cold ordering flipped: probe cascade {probe_cold} ns vs inline bitmap build \
         {bitmap_cold} ns (see {path})"
    );
    assert!(
        bitmap_warm <= probe_warm,
        "warm ordering flipped: cache-resident bitmap join {bitmap_warm} ns vs probe \
         cascade {probe_warm} ns (see {path})"
    );
}

/// Million postings/sec expanding one encoded v2 row per decode kind.
/// The row shape mirrors real posting lists: many traces, a few postings
/// each, small timestamp deltas — so varints stay short and the kernels'
/// byte handling (not varint-width pathology) dominates. The row is
/// sized like a real pair row (a few thousand postings, cache-resident)
/// and decoded repeatedly per sample: a multi-megabyte row would measure
/// DRAM write bandwidth, which every kind saturates equally.
fn decode_throughput() -> Vec<(&'static str, f64)> {
    const REPS: usize = 64;
    let postings: Vec<Posting> = (0..4_096u32)
        .map(|i| {
            let base = i as u64 * 37 % 50_000;
            Posting { trace: TraceId(i / 4), ts_a: base, ts_b: base + (i as u64 % 900) }
        })
        .collect();
    let row = encode_postings_v2(&postings);
    let kinds = DecodeKind::ALL;
    let mut out = Vec::with_capacity(postings.len());
    let mut scratch = DecodeScratch::new();
    // Samples are interleaved across kinds so clock-frequency drift during
    // the run biases every kind equally instead of whichever ran last.
    let mut times: [Vec<u64>; 2] = Default::default();
    for _ in 0..25 {
        for (k, &kind) in kinds.iter().enumerate() {
            let t = Instant::now();
            for _ in 0..REPS {
                out.clear();
                v2_decode_with_kind(kind, &row, &mut scratch, &mut out).expect("valid row");
                std::hint::black_box(&out);
            }
            times[k].push(t.elapsed().as_nanos() as u64);
            assert_eq!(out.len(), postings.len());
        }
    }
    kinds
        .iter()
        .zip(&mut times)
        .map(|(kind, samples)| {
            let name = kind.name();
            samples.sort_unstable();
            let ns = samples[samples.len() / 2];
            let mps = (postings.len() * REPS) as f64 * 1e3 / ns as f64;
            println!("posting_v2/decode_throughput/{name}: {mps:.1} Mpostings/s");
            (name, mps)
        })
        .collect()
}

criterion_group!(benches, bench_posting_v2);

fn main() {
    benches();
    write_baseline();
}
