//! `ingest`: a `bpi_2017` log split by timestamp into batches, each parsed
//! with `csv::read_csv` and indexed with `Indexer::index_log` into a fresh
//! `DiskStore` (durability `batch`), then one final `flush`. Rounds repeat
//! until the measured time is used up.
//!
//! [`load`] is also how the query workloads build their fixture stores, so
//! their traced runs report the same ingest-side layer metrics.

use crate::gen::{self, Class};
use crate::serve::set;
use crate::stats::{max, median, quantile, ratio};
use crate::trace::{Recorder, Span};
use crate::{oracle, put, Config, Metric, Outcome};
use seqdet_core::Indexer;
use seqdet_query::QueryEngine;
use seqdet_storage::{DiskOptions, DiskStore, KvStore, StoreMetrics};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One batch of a load.
pub(crate) struct Batch {
    parse_ms: f64,
    index_ms: f64,
    /// `run_compactions()` advanced during this batch's `index_log`.
    compacted: bool,
    events: usize,
    new_pairs: usize,
    ok: bool,
}

/// One load of a log into a fresh store.
pub(crate) struct Round {
    setup_s: f64,
    open_ms: f64,
    batches: Vec<Batch>,
    flush_ms: f64,
    compactions: u64,
    run_bytes_written: u64,
    fsyncs: u64,
    /// Bytes in the store directory after the final flush.
    store_bytes: u64,
    /// Every batch accepted every event and the round reproduced the
    /// reference (set by the caller).
    checked: bool,
}

impl Round {
    fn busy_s(&self) -> f64 {
        (self.batches.iter().map(|b| b.parse_ms + b.index_ms).sum::<f64>() + self.flush_ms) / 1e3
    }

    fn events(&self) -> usize {
        self.batches.iter().map(|b| b.events).sum()
    }

    fn new_pairs(&self) -> usize {
        self.batches.iter().map(|b| b.new_pairs).sum()
    }

    /// Every batch indexed all of its events.
    pub(crate) fn all_ok(&self) -> bool {
        self.batches.iter().all(|b| b.ok)
    }
}

/// Store options of every store the benchmark opens: the defaults
/// (durability `batch`), a shared metrics handle, and the size's
/// compaction threshold.
pub fn options(cfg: &Config, metrics: &Arc<StoreMetrics>) -> DiskOptions {
    let mut o = DiskOptions { metrics: Some(Arc::clone(metrics)), ..DiskOptions::default() };
    if let Some(bytes) = cfg.sizes.run_flush_bytes {
        o.run_flush_bytes = Some(bytes);
    }
    o
}

/// Open a fresh store and its indexer: one `setup_s` sample. Returns the
/// store, the indexer, `setup_s` and the store open time in ms.
fn open_fresh(
    cfg: &Config,
    dir: &Path,
    period: Option<u64>,
    metrics: &Arc<StoreMetrics>,
) -> Result<(Arc<DiskStore>, Indexer<DiskStore>, f64, f64), String> {
    let t0 = Instant::now();
    let store = Arc::new(
        DiskStore::open_with(dir, options(cfg, metrics)).map_err(|e| format!("open: {e}"))?,
    );
    let opened = Instant::now();
    let ix = Indexer::with_store(Arc::clone(&store), oracle::index_config(period))
        .map_err(|e| format!("indexer: {e}"))?;
    seqdet_core::install_zone_extractor(&store);
    let ready = Instant::now();
    Ok((store, ix, (ready - t0).as_secs_f64(), (opened - t0).as_secs_f64() * 1e3))
}

/// Load `batches` into a fresh store at `dir`: `read_csv` and `index_log`
/// per batch, then one `flush`. With a recorder, each batch is an
/// `ingest.batch` span with `log.csv_parse` and `core.index_log` children;
/// the last one also has `storage.flush`.
pub(crate) fn load(
    cfg: &Config,
    dir: &Path,
    batches: &[Vec<u8>],
    period: Option<u64>,
    mut rec: Option<&mut Recorder>,
) -> Result<(Round, Arc<DiskStore>), String> {
    let metrics = Arc::new(StoreMetrics::new());
    let (store, mut ix, setup_s, open_ms) = open_fresh(cfg, dir, period, &metrics)?;
    let mut round = Round {
        setup_s,
        open_ms,
        batches: Vec::with_capacity(batches.len()),
        flush_ms: 0.0,
        compactions: 0,
        run_bytes_written: 0,
        fsyncs: 0,
        store_bytes: 0,
        checked: false,
    };
    let mut last_root = None;
    for csv in batches {
        let start = Instant::now();
        let log = seqdet_log::csv::read_csv(&csv[..]);
        let parsed = Instant::now();
        let before = metrics.run_compactions();
        let stats = log.as_ref().map_err(|e| e.to_string()).and_then(|log| {
            ix.index_log(log).map(|s| (s, log.num_events())).map_err(|e| e.to_string())
        });
        let indexed = Instant::now();
        if let Some(rec) = rec.as_deref_mut() {
            let req = rec.id();
            let root = rec.record(None, req, "ingest.batch", "", start, indexed);
            rec.record(Some(root), req, "log.csv_parse", "", start, parsed);
            rec.record(Some(root), req, "core.index_log", "", parsed, indexed);
            last_root = Some((root, req));
        }
        let (ok, events, new_pairs) = match stats {
            Ok((s, n)) => (s.skipped_events == 0 && s.new_events == n, s.new_events, s.new_pairs),
            Err(e) => {
                eprintln!("ingest batch failed: {e}");
                (false, 0, 0)
            }
        };
        round.batches.push(Batch {
            parse_ms: (parsed - start).as_secs_f64() * 1e3,
            index_ms: (indexed - parsed).as_secs_f64() * 1e3,
            compacted: metrics.run_compactions() > before,
            events,
            new_pairs,
            ok,
        });
    }
    let start = Instant::now();
    store.flush().map_err(|e| format!("flush: {e}"))?;
    let end = Instant::now();
    if let (Some(rec), Some((root, req))) = (rec, last_root) {
        rec.record(Some(root), req, "storage.flush", "", start, end);
    }
    round.flush_ms = (end - start).as_secs_f64() * 1e3;
    round.compactions = metrics.run_compactions();
    round.run_bytes_written = metrics.run_bytes_written();
    round.fsyncs = metrics.fsyncs();
    round.store_bytes = crate::dir_bytes(dir);
    Ok((round, store))
}

/// What every round must reproduce.
struct Expect {
    events: usize,
    pairs: usize,
    stats: Vec<(String, String)>,
}

/// One round into a fresh store, checked against `expect`, then deleted.
fn round(
    cfg: &Config,
    batches: &[Vec<u8>],
    expect: &Expect,
    rec: Option<&mut Recorder>,
) -> Result<Round, String> {
    let dir = crate::fresh_dir(cfg, "ingest-store");
    let (mut round, store) = load(cfg, &dir, batches, None, rec)?;
    round.checked = round.events() == expect.events
        && round.new_pairs() == expect.pairs
        && stats_match(&store, &expect.stats);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(round)
}

fn stats_match(store: &Arc<DiskStore>, expected: &[(String, String)]) -> bool {
    let Ok(engine) = QueryEngine::new(Arc::clone(store)) else { return false };
    expected.iter().all(|(text, body)| {
        seqdet_query::lang::run(&engine, text)
            .is_ok_and(|out| seqdet_server::render::render(&engine.catalog(), &out) == *body)
    })
}

/// Rounds until `seconds` of wall time have passed (at least two).
fn rounds(
    cfg: &Config,
    batches: &[Vec<u8>],
    expect: &Expect,
    seconds: f64,
    mut rec: Option<&mut Recorder>,
) -> Result<Vec<Round>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        out.push(round(cfg, batches, expect, rec.as_deref_mut())?);
    }
    Ok(out)
}

/// Run the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let log = gen::profile_log("bpi_2017", cfg.sizes.bpi_divisor, cfg.seed);
    let batches = gen::time_batches(&log, cfg.sizes.batches);
    let csv_bytes: usize = batches.iter().map(Vec::len).sum();
    // The reference indexes the same batches into a MemStore: every round
    // must write the same pair occurrences and answer STATS identically.
    let (reference, pairs) = oracle::reference_indexer(None, &batches);
    let engine = QueryEngine::new(reference.store()).map_err(|e| e.to_string())?;
    let activities: Vec<String> = log.activities().iter().map(|(_, n)| n.to_owned()).collect();
    let stats = gen::query_pool(
        activities,
        gen::Skew::Uniform,
        64,
        gen::mean_trace_len("bpi_2017"),
        cfg.seed,
    )
    .into_iter()
    .filter(|q| q.class == Class::Stats)
    .take(4)
    .map(|q| {
        let body = oracle::render_on(&engine, &q);
        (q.text, body)
    })
    .collect();
    let mut expect = Expect { events: log.num_events(), pairs, stats };
    if cfg.corrupt_expected {
        expect.pairs += 1;
    }
    drop((engine, reference, log));

    crate::release_free_memory();
    let rss_reset = crate::reset_peak_rss();
    let (phase_a, phase_b) =
        if cfg.trace { (cfg.seconds / 2.0, cfg.seconds / 2.0) } else { (cfg.seconds, 0.0) };
    // `setup_s` is cheap here, so sample it more often than once a round.
    let mut setups = Vec::new();
    for _ in 0..cfg.sizes.setups * 4 {
        let dir = crate::fresh_dir(cfg, "ingest-setup");
        let (store, ix, setup_s, _) = open_fresh(cfg, &dir, None, &Arc::new(StoreMetrics::new()))?;
        setups.push(setup_s);
        drop((ix, store));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let untraced = rounds(cfg, &batches, &expect, phase_a, None)?;
    setups.extend(untraced.iter().map(|r| r.setup_s));
    let peak_rss = crate::peak_rss_mb();
    let mut rec = Recorder::new(Instant::now(), 1);
    let traced = if cfg.trace {
        rounds(cfg, &batches, &expect, phase_b, Some(&mut rec))?
    } else {
        Vec::new()
    };

    let mut outcome = Outcome::default();
    for r in untraced.iter().chain(&traced) {
        outcome.attempted += r.batches.len() as u64;
        outcome.failed += if r.checked {
            r.batches.iter().filter(|b| !b.ok).count() as u64
        } else {
            r.batches.len() as u64
        };
    }
    if untraced.iter().all(|r| r.compactions == 0) {
        return Err("dead counter: run_compactions stayed 0 on ingest".into());
    }

    let per_round = |f: &dyn Fn(&Round) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
    let batch_ms: Vec<f64> =
        untraced.iter().flat_map(|r| r.batches.iter().map(|b| b.parse_ms + b.index_ms)).collect();
    let setup_s = median(&setups);
    let events_per_s = per_round(&|r| r.events() as f64 / r.busy_s());
    let bytes_per_event = per_round(&|r| r.store_bytes as f64 / r.events() as f64);
    let (p50, p95) = (median(&batch_ms), quantile(&batch_ms, 0.95));
    let by_position: Vec<String> = (0..batches.len())
        .map(|i| {
            let ms: Vec<f64> =
                untraced.iter().map(|r| r.batches[i].parse_ms + r.batches[i].index_ms).collect();
            let compacted = untraced.iter().filter(|r| r.batches[i].compacted).count();
            format!("{:.0}{}", median(&ms), if compacted * 2 > untraced.len() { "c" } else { "" })
        })
        .collect();

    let r = &mut outcome.report;
    r.push(format!(
        "workload ingest: bpi_2017/{} log, {} events, {csv_bytes} CSV bytes in {} timestamp \
         batches; durability batch; {} untraced rounds{}",
        cfg.sizes.bpi_divisor,
        expect.events,
        batches.len(),
        untraced.len(),
        if cfg.trace { format!(", {} traced rounds", traced.len()) } else { String::new() },
    ));
    r.push(format!(
        "  setup_s                {setup_s:.6} s (median of {} store+indexer opens)",
        setups.len()
    ));
    r.push(format!(
        "  ingest_events_per_s    {events_per_s:.1} 1/s (median of {} rounds; parse+index+flush)",
        untraced.len()
    ));
    r.push(format!("  ingest_bytes_per_event {bytes_per_event:.2} B/event"));
    r.push(format!("  batch_p50_ms           {p50:.3} ms (n={})", batch_ms.len()));
    r.push(format!("  batch_p95_ms           {p95:.3} ms (n={})", batch_ms.len()));
    r.push(format!(
        "  failed_ratio           {:.6} ({} of {} batches)",
        ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.failed,
        outcome.attempted
    ));
    r.push(format!(
        "  peak_rss_mb            {peak_rss:.1} MiB{}",
        if rss_reset { "" } else { " (VmHWM reset refused: whole-process peak)" }
    ));
    r.push(format!(
        "  batch ms by position   {} (c: compacted in most rounds)",
        by_position.join(" ")
    ));
    r.push(format!(
        "  events/s by round      {}",
        untraced
            .iter()
            .map(|r| format!(
                "{:.0} ({} compactions)",
                r.events() as f64 / r.busy_s(),
                r.compactions
            ))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    if cfg.trace {
        let spans = rec.into_spans();
        let mut lm = crate::serve::zero_layers();
        layers(&mut lm, &untraced, &traced, &spans);
        let busy = |rs: &[Round]| median(&rs.iter().map(Round::busy_s).collect::<Vec<_>>());
        set(&mut lm, "trace.overhead_ms", (busy(&traced) - busy(&untraced)) * 1e3);
        set(&mut lm, "process.peak_rss_mb", peak_rss);
        outcome.metrics = lm;
        outcome.spans = spans;
    } else {
        let m = &mut outcome.metrics;
        put(m, "setup_s", setup_s, "s");
        put(m, "ingest_events_per_s", events_per_s, "1/s");
        put(m, "ingest_bytes_per_event", bytes_per_event, "B/event");
        put(m, "batch_p50_ms", p50, "ms");
        put(m, "batch_p95_ms", p95, "ms");
        put(m, "peak_rss_mb", peak_rss, "MiB");
    }
    Ok(outcome)
}

/// Ingest-side layer metrics: counters from the `counted` loads, times
/// from the `timed` loads and their `spans`.
pub(crate) fn layers(lm: &mut [Metric], counted: &[Round], timed: &[Round], spans: &[Span]) {
    let selfs = crate::trace::self_times(spans);
    let self_ms = |name: &str| -> Vec<f64> {
        spans.iter().filter(|s| s.name == name).map(|s| selfs[&s.id] as f64 / 1e6).collect()
    };
    let index_ms = |compacted: bool| -> Vec<f64> {
        timed
            .iter()
            .flat_map(|r| r.batches.iter().filter(|b| b.compacted == compacted).map(|b| b.index_ms))
            .collect()
    };
    let med = |f: &dyn Fn(&Round) -> f64| median(&counted.iter().map(f).collect::<Vec<_>>());
    let per_event = |v: f64, r: &Round| ratio(v, r.events() as f64);
    let index_rate: Vec<f64> = timed
        .iter()
        .map(|r| ratio(r.events() as f64, r.batches.iter().map(|b| b.index_ms).sum::<f64>() / 1e3))
        .collect();
    set(lm, "log.csv_parse_ms", median(&self_ms("log.csv_parse")));
    set(lm, "core.index_batch_ms.p50", median(&index_ms(false)));
    set(lm, "core.index_batch_ms.max", max(&index_ms(false)));
    set(lm, "core.index_events_per_s", median(&index_rate));
    set(lm, "core.new_pairs_per_event", med(&|r| per_event(r.new_pairs() as f64, r)));
    set(lm, "storage.compact_batch_ms", median(&index_ms(true)));
    set(lm, "storage.compactions", med(&|r| r.compactions as f64));
    set(
        lm,
        "storage.run_bytes_written_per_event",
        med(&|r| per_event(r.run_bytes_written as f64, r)),
    );
    set(lm, "storage.fsyncs_per_batch", med(&|r| ratio(r.fsyncs as f64, r.batches.len() as f64)));
    set(lm, "storage.flush_ms", median(&self_ms("storage.flush")));
    set(lm, "storage.open_ms", med(&|r| r.open_ms));
}
