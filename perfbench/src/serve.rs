//! The served workloads: `query_hot`, `query_cold` and `mixed`.
//!
//! A fixture store is built and closed (untimed), then reopened and served
//! by an in-process `QueryServer` over loopback; `CLIENTS` closed-loop
//! keep-alive clients send pooled queries and check every answer. In
//! `mixed` a writer thread appends batches to the served store on a fixed
//! schedule (open loop) while one client reads.

use crate::client::Client;
use crate::gen::{self, Class, QuerySpec, Skew};
use crate::ingest::{load, options, Round};
use crate::oracle::{self, SaseCheck};
use crate::stats::{median, quantile, ratio};
use crate::trace::{Recorder, Span};
use crate::{put, Config, Metric, Outcome, CLIENTS};
use seqdet_core::indexer::active_index_tables;
use seqdet_core::{active_decode_kind, v2_decode_with_kind, DecodeScratch, Indexer};
use seqdet_log::Activity;
use seqdet_query::{lang, QueryEngine};
use seqdet_server::render::render;
use seqdet_server::{QueryServer, ServeConfig, ShutdownHandle};
use seqdet_storage::{DiskStore, KvStore, StoreMetrics};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The timed phase is measured in this many equal windows; `query_p95_ms`
/// is the median of their p95s.
const WINDOWS: usize = 6;

/// Window of a sample completed at `t`, for a phase of `seconds` starting
/// at `start`.
fn window_of(start: Instant, seconds: f64, t: Instant) -> usize {
    let at = t.saturating_duration_since(start).as_secs_f64();
    ((at / seconds * WINDOWS as f64) as usize).min(WINDOWS - 1)
}

/// Range `trace.accounted_share` must fall in, or the traced run fails.
/// `server.wire_ms` is a residual (round trip minus the replayed parse,
/// execute and render of the same request), so the share only shows how far
/// the medians are from adding up, not how much of the time the spans
/// cover.
const ACCOUNTED_TOLERANCE: std::ops::RangeInclusive<f64> = 0.75..=1.25;

/// Capacity of the engine's posting cache (`DEFAULT_CACHE_CAPACITY`).
const CACHE_ENTRIES: usize = seqdet_query::engine::DEFAULT_CACHE_CAPACITY;

/// A loopback segment carries up to 65483 payload bytes (MTU 65536 less
/// IP and TCP headers); smaller responses fit in one.
const LOOPBACK_SEGMENT: usize = 65_483;

/// Per-layer metric names and units, in report order. Every traced run
/// prints all of them; a layer a workload does not exercise reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("log.csv_parse_ms", "ms"),
    ("core.index_batch_ms.p50", "ms"),
    ("core.index_batch_ms.max", "ms"),
    ("core.index_events_per_s", "1/s"),
    ("core.new_pairs_per_event", "pairs/event"),
    ("core.decode_us_per_query", "us"),
    ("storage.open_ms", "ms"),
    ("storage.compact_batch_ms", "ms"),
    ("storage.compactions", "count"),
    ("storage.run_bytes_written_per_event", "B/event"),
    ("storage.fsyncs_per_batch", "count"),
    ("storage.flush_ms", "ms"),
    ("storage.get_us_per_query", "us"),
    ("storage.runs_searched_per_query", "count"),
    ("storage.runs_pruned_per_query", "count"),
    ("storage.prune_ratio", "ratio"),
    ("query.engine_open_ms", "ms"),
    ("query.parse_us", "us"),
    ("query.execute_us.detect", "us"),
    ("query.execute_us.any_match", "us"),
    ("query.execute_us.rich", "us"),
    ("query.execute_us.stats", "us"),
    ("query.execute_us.continue_fast", "us"),
    ("query.execute_us.continue_hybrid", "us"),
    ("query.execute_us.continue_accurate", "us"),
    ("query.cache_hit_ratio", "ratio"),
    ("query.cache_evictions_per_query", "count"),
    ("query.decoded_bytes_per_query", "B"),
    ("query.cursor_decodes_per_query", "count"),
    ("query.cache_invalidations", "count"),
    ("query.catalog_reloads", "count"),
    ("query.join_differs_share", "ratio"),
    ("server.render_us", "us"),
    ("server.recorded_p50_us", "us"),
    ("server.wire_ms", "ms"),
    ("server.small_response_share", "ratio"),
    ("server.shed", "count"),
    ("server.status_4xx", "count"),
    ("server.status_5xx", "count"),
    ("bench.writer_late_ms.max", "ms"),
    ("process.peak_rss_mb", "MiB"),
    ("trace.client_p50_ms", "ms"),
    ("trace.accounted_share", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// Every per-layer metric at 0.
pub fn zero_layers() -> Vec<Metric> {
    LAYER_METRICS.iter().map(|&(n, u)| Metric { name: n.to_owned(), value: 0.0, unit: u }).collect()
}

/// Set a per-layer metric by name.
pub(crate) fn set(m: &mut [Metric], name: &str, value: f64) {
    m.iter_mut()
        .find(|x| x.name == name)
        .unwrap_or_else(|| panic!("{name} is not in LAYER_METRICS"))
        .value = value;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hot,
    Cold,
    Mixed,
}

/// A running in-process server over a freshly opened store.
struct Running {
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    join: JoinHandle<std::io::Result<()>>,
    store: Arc<DiskStore>,
    metrics: Arc<StoreMetrics>,
}

impl Running {
    /// Open the store, bind the server and wait for `/health`: the
    /// `setup_s` interval. Returns the server, `setup_s` and the store open
    /// time in ms.
    fn start(cfg: &Config, dir: &Path) -> Result<(Running, f64, f64), String> {
        let metrics = Arc::new(StoreMetrics::new());
        let t0 = Instant::now();
        let store = Arc::new(
            DiskStore::open_with(dir, options(cfg, &metrics)).map_err(|e| format!("open: {e}"))?,
        );
        let open_ms = t0.elapsed().as_secs_f64() * 1e3;
        seqdet_core::install_zone_extractor(&store);
        let config = ServeConfig { workers: CLIENTS, queue_depth: 64, ..ServeConfig::default() };
        let server = QueryServer::bind_with_metrics(
            "127.0.0.1:0",
            Arc::clone(&store),
            config,
            Arc::clone(&metrics),
        )
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let shutdown = server.shutdown_handle().map_err(|e| e.to_string())?;
        let join = std::thread::spawn(move || server.serve_forever());
        let mut client = Client::new(addr);
        let health = client.get("/health").map_err(|e| format!("/health: {e}"))?;
        let setup_s = t0.elapsed().as_secs_f64();
        if health.status != 200 {
            return Err(format!("/health answered {}: {}", health.status, health.body));
        }
        client.close();
        Ok((Running { addr, shutdown, join, store, metrics }, setup_s, open_ms))
    }

    fn stop(self) -> Result<(), String> {
        self.shutdown.shutdown();
        match self.join.join() {
            Ok(r) => r.map_err(|e| format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// Counters the program exposes, read at phase boundaries.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
    decoded_bytes: u64,
    cursor_decodes: u64,
    runs_searched: u64,
    runs_pruned: u64,
    catalog_reloads: u64,
    compactions: u64,
    shed: u64,
    status_4xx: u64,
    status_5xx: u64,
}

impl Counters {
    fn read(m: &StoreMetrics) -> Self {
        let s = m.server();
        let (_, _, c4, c5) = s.status_classes();
        Self {
            hits: m.cache_hits(),
            misses: m.cache_misses(),
            evictions: m.cache_evictions(),
            invalidations: m.cache_invalidations(),
            decoded_bytes: m.decoded_bytes(),
            cursor_decodes: m.cursor_decodes(),
            runs_searched: m.runs_searched(),
            runs_pruned: m.runs_pruned(),
            catalog_reloads: s.catalog_reloads(),
            compactions: m.run_compactions(),
            shed: s.shed(),
            status_4xx: c4,
            status_5xx: c5,
        }
    }

    fn since(self, before: Self) -> Self {
        Self {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            invalidations: self.invalidations - before.invalidations,
            decoded_bytes: self.decoded_bytes - before.decoded_bytes,
            cursor_decodes: self.cursor_decodes - before.cursor_decodes,
            runs_searched: self.runs_searched - before.runs_searched,
            runs_pruned: self.runs_pruned - before.runs_pruned,
            catalog_reloads: self.catalog_reloads - before.catalog_reloads,
            compactions: self.compactions - before.compactions,
            shed: self.shed - before.shed,
            status_4xx: self.status_4xx - before.status_4xx,
            status_5xx: self.status_5xx - before.status_5xx,
        }
    }
}

/// One answered (or failed) request.
#[derive(Debug, Clone)]
struct Sample {
    class: Class,
    /// When the last body byte arrived.
    done: Instant,
    rtt_ms: f64,
    ok: bool,
    wire_bytes: usize,
    /// In-process replay (traced phase): parse, execute, render, in µs.
    replay_us: Option<[f64; 3]>,
}

/// Answer check: pool index, status, body, and the writer's
/// `(committed before send, started after answer)` batch window.
type Check<'a> = dyn Fn(usize, u16, &str, (usize, usize)) -> bool + Sync + 'a;

/// What the clients of one phase share.
struct Phase<'a> {
    addr: SocketAddr,
    pool: &'a [QuerySpec],
    check: &'a Check<'a>,
    /// Writer progress: batches committed, batches started.
    window: Option<(&'a AtomicUsize, &'a AtomicUsize)>,
    /// Traced phase: the benchmark's own engine over the served store.
    replay: Option<(&'a QueryEngine<DiskStore>, &'a DiskStore, bool)>,
    clients: usize,
    /// Per client: its next position in the pool walk (carried across
    /// phases).
    cursor: &'a [AtomicUsize],
}

/// Run `phase` for `seconds`; returns samples, spans and elapsed seconds.
fn drive(phase: &Phase<'_>, seconds: f64, epoch: Instant) -> (Vec<Sample>, Vec<Span>, f64) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<(Vec<Sample>, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..phase.clients)
            .map(|c| s.spawn(move || client_loop(phase, c, deadline, epoch)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    for (a, b) in results {
        samples.extend(a);
        spans.extend(b);
    }
    (samples, spans, elapsed)
}

fn client_loop(
    phase: &Phase<'_>,
    c: usize,
    deadline: Instant,
    epoch: Instant,
) -> (Vec<Sample>, Vec<Span>) {
    let mut client = Client::new(phase.addr);
    let mut rec = Recorder::new(epoch, 2 + c as u64);
    let mut samples = Vec::new();
    // Each client walks the (seed-shuffled) pool round-robin from its own
    // offset, so every run sends each pooled query equally often.
    let n = phase.pool.len();
    let mut next = phase.cursor[c].load(Ordering::Relaxed);
    while Instant::now() < deadline {
        let qi = next % n;
        next += 1;
        let spec = &phase.pool[qi];
        let lo = phase.window.map_or(0, |(committed, _)| committed.load(Ordering::SeqCst));
        let sent = Instant::now();
        let response = client.query(&spec.text);
        let done = Instant::now();
        let hi = phase.window.map_or(0, |(_, started)| started.load(Ordering::SeqCst));
        let (ok, wire_bytes) = match &response {
            Ok(r) => {
                let ok = (phase.check)(qi, r.status, &r.body, (lo, hi));
                if !ok {
                    eprintln!(
                        "wrong answer to {:?} (writer batches {lo}..={hi}): status {}, {:?}",
                        spec.text, r.status, r.body
                    );
                }
                (ok, r.wire_bytes)
            }
            Err(e) => {
                eprintln!("request failed: {e}");
                (false, 0)
            }
        };
        let replay_us = phase.replay.map(|(engine, store, storage)| {
            replay(&mut rec, engine, store, storage, spec, sent, done)
        });
        let rtt_ms = (done - sent).as_secs_f64() * 1e3;
        samples.push(Sample { class: spec.class, done, rtt_ms, ok, wire_bytes, replay_us });
    }
    client.close();
    phase.cursor[c].store(next, Ordering::Relaxed);
    (samples, rec.into_spans())
}

/// Replay one served request in process, recording the spans of each layer
/// boundary under its `client.request` root. Returns parse, execute and
/// render times in µs.
fn replay(
    rec: &mut Recorder,
    engine: &QueryEngine<DiskStore>,
    store: &DiskStore,
    storage: bool,
    spec: &QuerySpec,
    sent: Instant,
    done: Instant,
) -> [f64; 3] {
    let label = spec.class.name();
    let req = rec.id();
    let root = rec.record(None, req, "client.request", label, sent, done);
    let t0 = Instant::now();
    let query = lang::parse_query(&spec.text);
    let t1 = Instant::now();
    let output = query.ok().and_then(|q| lang::execute(engine, &q).ok());
    let t2 = Instant::now();
    let body = output.map(|o| render(&engine.catalog(), &o));
    let t3 = Instant::now();
    std::hint::black_box(body);
    rec.record(Some(root), req, "query.parse", label, t0, t1);
    rec.record(Some(root), req, "query.execute", label, t1, t2);
    rec.record(Some(root), req, "server.render", label, t2, t3);
    if storage {
        // The pattern's consecutive pairs, read from every active Index
        // partition and decoded, timed from outside the engine.
        let catalog = engine.catalog();
        let acts: Vec<Activity> =
            spec.positives().iter().filter_map(|n| catalog.activity(n)).collect();
        let tables = active_index_tables(store);
        let t4 = Instant::now();
        let mut rows = Vec::new();
        for w in acts.windows(2) {
            let key = seqdet_core::tables::pair_key_bytes(Activity::pair_key(w[0], w[1]));
            rows.extend(tables.iter().filter_map(|&t| store.get(t, &key)));
        }
        let t5 = Instant::now();
        let (mut scratch, mut postings) = (DecodeScratch::new(), Vec::new());
        for row in &rows {
            let _ = v2_decode_with_kind(active_decode_kind(), row, &mut scratch, &mut postings);
        }
        std::hint::black_box(&postings);
        let t6 = Instant::now();
        rec.record(Some(root), req, "storage.get", label, t4, t5);
        rec.record(Some(root), req, "core.decode", label, t5, t6);
    }
    let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
    [us(t0, t1), us(t1, t2), us(t2, t3)]
}

/// The fixture store: `batches` loaded into a fresh `DiskStore` like an
/// ingest round, then compacted into runs, flushed and closed.
fn build_fixture(
    cfg: &Config,
    dir: &Path,
    batches: &[Vec<u8>],
    period: Option<u64>,
    rec: Option<&mut Recorder>,
) -> Result<Round, String> {
    let (round, store) = load(cfg, dir, batches, period, rec)?;
    if !round.all_ok() {
        return Err("fixture batches were not fully indexed".into());
    }
    store.compact().map_err(|e| format!("compact: {e}"))?;
    store.flush().map_err(|e| format!("flush: {e}"))?;
    Ok(round)
}

/// `mixed`: batches the writer appends, and the expected bodies of the
/// pool's `DETECT` and `STATS` queries after each number of them.
struct Writes {
    batches: Vec<Vec<u8>>,
    events: Vec<usize>,
    /// `expected[k][q]`: body of pool query `q` once `k` batches committed
    /// (`None` for classes checked by shape only).
    expected: Vec<Vec<Option<String>>>,
}

fn mixed_writes(cfg: &Config, base: &[Vec<u8>], pool: &[QuerySpec], count: usize) -> Writes {
    let (mut ix, _) = oracle::reference_indexer(None, base);
    let engine = QueryEngine::new(ix.store()).expect("reference store is indexed");
    let mut batches = Vec::with_capacity(count);
    let mut events = Vec::with_capacity(count);
    let mut expected = Vec::with_capacity(count + 1);
    let exact = |c: Class| matches!(c, Class::Detect | Class::Stats);
    for k in 0..=count {
        if k > 0 {
            let log = gen::profile_log(
                "bpi_2017",
                cfg.sizes.mixed_batch_divisor,
                cfg.seed.wrapping_add(1000 + k as u64),
            );
            let csv = gen::csv(&gen::rows(&log, &format!("w{k}-")));
            oracle::extend(&mut ix, &csv);
            events.push(log.num_events());
            batches.push(csv);
        }
        // The engine follows the index generation, like the server's.
        expected.push(
            pool.iter().map(|q| exact(q.class).then(|| oracle::render_on(&engine, q))).collect(),
        );
    }
    Writes { batches, events, expected }
}

/// Shape check for the `mixed` classes whose exact body changes with every
/// batch.
fn shape_ok(class: Class, body: &str) -> bool {
    match class {
        Class::AnyMatch | Class::Rich | Class::Detect => oracle::header_counts(body).is_some(),
        Class::Stats => body.contains("pattern completions <="),
        _ => body.lines().next().is_some_and(|l| l.ends_with(" propositions")),
    }
}

/// One writer batch of `mixed`.
#[derive(Debug, Clone)]
struct WriterBatch {
    late_ms: f64,
    index_ms: f64,
    /// Parse plus index.
    busy_ms: f64,
    compacted: bool,
    events: usize,
    ok: bool,
}

/// The `mixed` writer: batch `i` is due `i × interval` after `start`; it
/// runs until `deadline`. Spans are recorded for batches due after
/// `trace_from`.
#[allow(clippy::too_many_arguments)]
fn writer(
    store: Arc<DiskStore>,
    metrics: &StoreMetrics,
    writes: &Writes,
    interval: Duration,
    start: Instant,
    deadline: Instant,
    trace_from: Option<Instant>,
    committed: &AtomicUsize,
    started: &AtomicUsize,
    epoch: Instant,
) -> (Vec<WriterBatch>, Vec<Span>) {
    let mut rec = Recorder::new(epoch, 1);
    let mut out = Vec::new();
    let Ok(mut ix) = Indexer::open(Arc::clone(&store)) else {
        eprintln!("writer: cannot open the indexer");
        return (out, Vec::new());
    };
    for (i, csv) in writes.batches.iter().enumerate() {
        let due = start + interval * i as u32;
        if due >= deadline {
            break;
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let begin = Instant::now();
        started.store(i + 1, Ordering::SeqCst);
        let before = metrics.run_compactions();
        let log = seqdet_log::csv::read_csv(&csv[..]);
        let parsed = Instant::now();
        let stats = log.as_ref().ok().map(|l| ix.index_log(l));
        let indexed = Instant::now();
        let ok = matches!(stats, Some(Ok(s)) if s.new_events == writes.events[i]);
        if ok {
            committed.store(i + 1, Ordering::SeqCst);
        }
        if trace_from.is_some_and(|t| due >= t) {
            let req = rec.id();
            let root = rec.record(None, req, "ingest.batch", "", begin, indexed);
            rec.record(Some(root), req, "log.csv_parse", "", begin, parsed);
            rec.record(Some(root), req, "core.index_log", "", parsed, indexed);
        }
        out.push(WriterBatch {
            late_ms: (begin - due).as_secs_f64() * 1e3,
            index_ms: (indexed - parsed).as_secs_f64() * 1e3,
            busy_ms: (indexed - begin).as_secs_f64() * 1e3,
            compacted: metrics.run_compactions() > before,
            events: writes.events[i],
            ok,
        });
    }
    (out, rec.into_spans())
}

/// Run a served workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let kind = match cfg.workload.as_str() {
        "query_hot" => Kind::Hot,
        "query_cold" => Kind::Cold,
        _ => Kind::Mixed,
    };
    let s = &cfg.sizes;
    let (profile, divisor, period, skew, pool_n) = match kind {
        Kind::Cold => {
            ("max_10000", s.cold_divisor, Some(crate::COLD_PARTITION_PERIOD), Skew::Uniform, s.pool)
        }
        Kind::Hot => ("bpi_2017", s.bpi_divisor, None, Skew::Zipf, s.pool),
        Kind::Mixed => ("bpi_2017", s.bpi_divisor, None, Skew::Zipf, s.pool_mixed),
    };

    // Inputs, fixture and expected answers: set-up, never timed.
    let clock = Instant::now();
    let mut prep = Vec::new();
    let mut lap = |what: &str| prep.push(format!("{what} {:.2} s", clock.elapsed().as_secs_f64()));
    let log = gen::profile_log(profile, divisor, cfg.seed);
    let batches = gen::time_batches(&log, s.fixture_batches);
    let activities: Vec<String> = log.activities().iter().map(|(_, n)| n.to_owned()).collect();
    let pool = gen::query_pool(activities, skew, pool_n, gen::mean_trace_len(profile), cfg.seed);
    let dir = crate::fresh_dir(cfg, &cfg.workload);
    lap("inputs");
    let epoch = Instant::now();
    let mut fixture_rec = Recorder::new(epoch, 1 << 20);
    let fixture =
        build_fixture(cfg, &dir, &batches, period, cfg.trace.then_some(&mut fixture_rec))?;
    lap("fixture");
    // `mixed` checks against the writer's reference states instead.
    let pool_for_oracle = if kind == Kind::Mixed { &pool[..0] } else { &pool[..] };
    let mut expected = oracle::expected_answers(&log, period, &batches, pool_for_oracle);
    lap("expected answers");
    let base_events = log.num_events();
    drop(log);
    let (phase_a, phase_b) =
        if cfg.trace { (cfg.seconds / 2.0, cfg.seconds / 2.0) } else { (cfg.seconds, 0.0) };
    let mut writes = (kind == Kind::Mixed).then(|| {
        let count = ((phase_a + phase_b) / s.mixed_interval.as_secs_f64()).ceil() as usize + 2;
        mixed_writes(cfg, &batches, &pool, count)
    });
    lap("writer batches");
    if cfg.corrupt_expected {
        if let Some(e) = expected.first_mut() {
            e.body.push('x');
        }
        if let Some(w) = writes.as_mut() {
            // The first query the client sends that is checked exactly.
            let q = (0..pool.len()).find(|&q| w.expected[0][q].is_some()).unwrap_or(0);
            for k in &mut w.expected {
                if let Some(b) = k[q].as_mut() {
                    b.push('x');
                }
            }
        }
    }
    let differs = expected.iter().filter(|e| e.sase == SaseCheck::JoinDiffers).count();
    let plain = pool.iter().filter(|q| oracle::pairwise_join(q)).count();
    let wrong_refs = expected.iter().filter(|e| e.sase == SaseCheck::Wrong).count();
    let over_limit = expected.iter().filter(|e| e.over_limit).count();
    let detections = pool.iter().filter(|q| matches!(q.class, Class::Detect | Class::Rich)).count();

    // Set-up, repeated: open the store, bind, answer /health.
    let mut setups = Vec::new();
    let mut opens = Vec::new();
    let mut running: Option<Running> = None;
    for _ in 0..s.setups.max(1) {
        if let Some(r) = running.take() {
            r.stop()?;
        }
        let (r, setup_s, open_ms) = Running::start(cfg, &dir)?;
        setups.push(setup_s);
        opens.push(open_ms);
        running = Some(r);
    }
    let server = running.expect("at least one set-up");
    let pair_rows: usize =
        active_index_tables(server.store.as_ref()).iter().map(|&t| server.store.table_len(t)).sum();
    let t = Instant::now();
    let replay_engine = QueryEngine::new(Arc::clone(&server.store)).map_err(|e| e.to_string())?;
    let engine_open_ms = t.elapsed().as_secs_f64() * 1e3;

    let check_static = |qi: usize, status: u16, body: &str, _: (usize, usize)| {
        oracle::served_ok(&expected[qi], status, body)
    };
    let check_mixed = |qi: usize, status: u16, body: &str, (lo, hi): (usize, usize)| {
        let w = writes.as_ref().expect("mixed has writes");
        if status != 200 {
            return false;
        }
        let hi = hi.min(w.expected.len() - 1);
        let lo = lo.min(hi);
        match w.expected[lo][qi] {
            Some(_) => {
                let ok = (lo..=hi).any(|k| w.expected[k][qi].as_deref() == Some(body));
                if !ok {
                    for k in lo..=hi {
                        eprintln!("  expected after {k} writer batches: {:?}", w.expected[k][qi]);
                    }
                }
                ok
            }
            None => shape_ok(pool[qi].class, body),
        }
    };
    let check: &Check<'_> = if kind == Kind::Mixed { &check_mixed } else { &check_static };
    let committed = AtomicUsize::new(0);
    let started = AtomicUsize::new(0);
    let clients = if kind == Kind::Mixed { 1 } else { CLIENTS };
    let cursor: Vec<AtomicUsize> =
        (0..clients).map(|c| AtomicUsize::new(c * pool.len() / clients)).collect();
    let mut phase = Phase {
        addr: server.addr,
        pool: &pool,
        check,
        window: None,
        replay: None,
        clients,
        cursor: &cursor,
    };

    // Warm-up: the walk's first requests, unmeasured.
    let (warm, _, _) = drive(&phase, s.warmup.as_secs_f64(), epoch);
    if kind == Kind::Mixed {
        phase.window = Some((&committed, &started));
    }

    crate::release_free_memory();
    let rss_reset = crate::reset_peak_rss();
    server.metrics.server().latency().reset();
    let before = Counters::read(&server.metrics);
    let m = &server.metrics;
    let (samples_a, samples_b, spans, elapsed_a, writer_batches, a_end, rss, start_a) =
        std::thread::scope(|sc| {
            let start = Instant::now();
            let deadline = start + Duration::from_secs_f64(phase_a + phase_b);
            let trace_from = cfg.trace.then(|| start + Duration::from_secs_f64(phase_a));
            let writer = writes.as_ref().map(|w| {
                let store = Arc::clone(&server.store);
                let (committed, started) = (&committed, &started);
                sc.spawn(move || {
                    writer(
                        store,
                        m,
                        w,
                        s.mixed_interval,
                        start,
                        deadline,
                        trace_from,
                        committed,
                        started,
                        epoch,
                    )
                })
            });
            let (a, _, elapsed_a) = drive(&phase, phase_a, epoch);
            let a_end = Counters::read(m);
            let rss = crate::peak_rss_mb();
            let (b, spans_b) = if cfg.trace {
                let storage = kind == Kind::Cold;
                let traced = Phase {
                    replay: Some((&replay_engine, server.store.as_ref(), storage)),
                    ..phase
                };
                let (b, sp, _) = drive(&traced, phase_b, epoch);
                (b, sp)
            } else {
                (Vec::new(), Vec::new())
            };
            let (wb, wspans) = match writer {
                Some(h) => h.join().expect("writer thread panicked"),
                None => (Vec::new(), Vec::new()),
            };
            let mut spans = spans_b;
            spans.extend(wspans);
            (a, b, spans, elapsed_a, wb, a_end, rss, start)
        });
    let recorded_p50_us = m.server().latency().percentile_micros(0.5) as f64;
    let end = Counters::read(m);
    let counted = a_end.since(before);
    let whole = end.since(before);
    let store_bytes = crate::dir_bytes(&dir);
    let written_events: usize = writer_batches.iter().filter(|b| b.ok).map(|b| b.events).sum();
    drop(replay_engine);
    server.stop()?;
    let _ = std::fs::remove_dir_all(&dir);

    // Failures: wrong answers, transport errors, writer batches that did
    // not commit.
    let mut outcome = Outcome::default();
    for smp in warm.iter().chain(&samples_a).chain(&samples_b) {
        outcome.attempted += 1;
        outcome.failed += u64::from(!smp.ok);
    }
    outcome.attempted += writer_batches.len() as u64;
    outcome.failed += writer_batches.iter().filter(|b| !b.ok).count() as u64;
    if kind == Kind::Cold && counted.runs_searched == 0 {
        return Err("dead counter: runs_searched stayed 0 on query_cold".into());
    }
    if kind == Kind::Cold && counted.misses == 0 {
        return Err("dead counter: cache misses stayed 0 on query_cold".into());
    }

    let rtt: Vec<f64> = samples_a.iter().map(|x| x.rtt_ms).collect();
    let p50 = median(&rtt);
    // p95 per window, then the median window: a burst of CPU steal from
    // other guests moves one window, not the figure.
    let window_p95: Vec<f64> = (0..WINDOWS)
        .map(|w| {
            let in_window: Vec<f64> = samples_a
                .iter()
                .filter(|x| window_of(start_a, phase_a, x.done) == w)
                .map(|x| x.rtt_ms)
                .collect();
            quantile(&in_window, 0.95)
        })
        .collect();
    let p95 = median(&window_p95);
    let ok_a = samples_a.iter().filter(|x| x.ok).count();
    let qps = ok_a as f64 / elapsed_a;
    let setup_s = median(&setups);
    let events = (base_events + written_events) as f64;
    let bytes_per_event = store_bytes as f64 / events;
    let queries = samples_a.len() as f64;
    let committed_busy: f64 = writer_batches.iter().filter(|b| b.ok).map(|b| b.busy_ms / 1e3).sum();
    let writer_rate = ratio(written_events as f64, committed_busy);

    let r = &mut outcome.report;
    r.push(format!(
        "workload {}: {profile}/{divisor} store, {base_events} events, {pair_rows} (partition, pair) \
         rows vs {CACHE_ENTRIES}-entry posting cache; {} pooled queries; {} client(s), {} server \
         workers, closed loop, keep-alive; durability batch",
        cfg.workload,
        pool.len(),
        clients,
        CLIENTS
    ));
    if writes.is_some() {
        r.push(format!(
            "  writer: open loop, one bpi_2017/{} batch every {} ms; {} batches, {} events committed",
            cfg.sizes.mixed_batch_divisor,
            s.mixed_interval.as_millis(),
            writer_batches.iter().filter(|b| b.ok).count(),
            written_events
        ));
        r.push(format!("  ingest_events_per_s {writer_rate:.1} 1/s (writer: parse+index)"));
    }
    let share = |c: Class| ratio(samples_a.iter().filter(|x| x.class == c).count() as f64, queries);
    r.push(format!(
        "  class shares (measured): {}",
        Class::ALL
            .iter()
            .map(|&c| format!("{} {:.3}", c.name(), share(c)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    r.push(format!(
        "  setup_s             {setup_s:.6} s (median of {} open+bind+/health)",
        setups.len()
    ));
    r.push(format!("  query_p50_ms        {p50:.3} ms (n={})", rtt.len()));
    r.push(format!(
        "  query_p95_ms        {p95:.3} ms (median of {WINDOWS} windows' p95; whole phase {:.3} ms, n={})",
        quantile(&rtt, 0.95),
        rtt.len()
    ));
    r.push(format!("  query_qps           {qps:.2} 1/s over {elapsed_a:.2} s"));
    r.push(format!(
        "  failed_ratio        {:.6} ({} of {} operations)",
        ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.failed,
        outcome.attempted
    ));
    r.push(format!(
        "  peak_rss_mb         {rss:.1} MiB{}",
        if rss_reset { "" } else { " (VmHWM reset refused: whole-process peak)" }
    ));
    r.push(format!("  store_bytes_per_event {bytes_per_event:.2} B/event"));
    let hit_share = ratio(counted.hits as f64, (counted.hits + counted.misses) as f64);
    let small =
        ratio(samples_a.iter().filter(|x| x.wire_bytes < LOOPBACK_SEGMENT).count() as f64, queries);
    r.push(format!(
        "  cache hit share {hit_share:.4}; responses below one loopback segment {small:.4}"
    ));
    if kind != Kind::Mixed {
        r.push(format!(
            "  SASE oracle: {differs} of {plain} plain-pattern DETECT queries of the pairwise join \
             differ from the oracle's greedy runs (every completion checked to embed in the \
             log); {wrong_refs} reference answers contradict the oracle; \
             {over_limit} of {detections} DETECT queries exceed their LIMIT (held against the \
             oracle uncapped)"
        ));
    }
    r.push(format!("  set-up (untimed): {}", prep.join(", ")));

    if cfg.trace {
        let mut lm = zero_layers();
        // Ingest-side layers from the fixture build; the `mixed` writer
        // overrides the batch figures below.
        let mut fixture_spans = fixture_rec.into_spans();
        crate::ingest::layers(
            &mut lm,
            std::slice::from_ref(&fixture),
            std::slice::from_ref(&fixture),
            &fixture_spans,
        );
        let per_q = |v: u64| ratio(v as f64, queries);
        set(&mut lm, "query.engine_open_ms", engine_open_ms);
        set(&mut lm, "process.peak_rss_mb", rss);
        set(&mut lm, "storage.runs_searched_per_query", per_q(counted.runs_searched));
        set(&mut lm, "storage.runs_pruned_per_query", per_q(counted.runs_pruned));
        set(
            &mut lm,
            "storage.prune_ratio",
            ratio(counted.runs_pruned as f64, (counted.runs_pruned + counted.runs_searched) as f64),
        );
        set(&mut lm, "query.cache_hit_ratio", hit_share);
        set(&mut lm, "query.cache_evictions_per_query", per_q(counted.evictions));
        set(&mut lm, "query.decoded_bytes_per_query", per_q(counted.decoded_bytes));
        set(&mut lm, "query.cursor_decodes_per_query", per_q(counted.cursor_decodes));
        set(&mut lm, "query.cache_invalidations", counted.invalidations as f64);
        set(&mut lm, "query.catalog_reloads", counted.catalog_reloads as f64);
        set(&mut lm, "query.join_differs_share", ratio(differs as f64, plain as f64));
        set(&mut lm, "server.recorded_p50_us", recorded_p50_us);
        set(&mut lm, "server.small_response_share", small);
        set(&mut lm, "server.shed", whole.shed as f64);
        set(&mut lm, "server.status_4xx", whole.status_4xx as f64);
        set(&mut lm, "server.status_5xx", whole.status_5xx as f64);

        // Spans of the traced phase.
        let selfs = crate::trace::self_times(&spans);
        let span_us = |name: &str, label: Option<&str>| -> Vec<f64> {
            spans
                .iter()
                .filter(|x| x.name == name && label.is_none_or(|l| x.label == l))
                .map(|x| selfs[&x.id] as f64 / 1e3)
                .collect()
        };
        let replayed: Vec<&Sample> = samples_b.iter().filter(|x| x.replay_us.is_some()).collect();
        let wire: Vec<f64> = replayed
            .iter()
            .map(|x| x.rtt_ms - x.replay_us.expect("filtered").iter().sum::<f64>() / 1e3)
            .collect();
        let rtt_b: Vec<f64> = replayed.iter().map(|x| x.rtt_ms).collect();
        set(&mut lm, "query.parse_us", median(&span_us("query.parse", None)));
        for c in Class::ALL {
            set(
                &mut lm,
                &format!("query.execute_us.{}", c.name()),
                median(&span_us("query.execute", Some(c.name()))),
            );
        }
        set(&mut lm, "server.render_us", median(&span_us("server.render", None)));
        set(&mut lm, "server.wire_ms", median(&wire));
        let per_request =
            |name: &str| ratio(span_us(name, None).iter().sum(), replayed.len() as f64);
        set(&mut lm, "storage.get_us_per_query", per_request("storage.get"));
        set(&mut lm, "core.decode_us_per_query", per_request("core.decode"));
        let client_p50 = median(&rtt_b);
        set(&mut lm, "trace.client_p50_ms", client_p50);
        let accounted = median(&wire)
            + (median(&span_us("query.parse", None))
                + median(&span_us("query.execute", None))
                + median(&span_us("server.render", None)))
                / 1e3;
        let accounted_share = ratio(accounted, client_p50);
        set(&mut lm, "trace.accounted_share", accounted_share);
        if !replayed.is_empty() && !ACCOUNTED_TOLERANCE.contains(&accounted_share) {
            return Err(format!(
                "trace.accounted_share {accounted_share:.3} is outside {ACCOUNTED_TOLERANCE:?}: \
                 the medians of wire, parse, execute and render do not add up to the client \
                 median"
            ));
        }
        set(&mut lm, "trace.overhead_ms", client_p50 - p50);

        // The writer (mixed).
        if kind == Kind::Mixed {
            set(&mut lm, "storage.compactions", counted.compactions as f64);
            let plain: Vec<f64> =
                writer_batches.iter().filter(|b| !b.compacted).map(|b| b.index_ms).collect();
            let compacting: Vec<f64> =
                writer_batches.iter().filter(|b| b.compacted).map(|b| b.index_ms).collect();
            set(&mut lm, "core.index_batch_ms.p50", median(&plain));
            set(&mut lm, "core.index_batch_ms.max", crate::stats::max(&plain));
            set(&mut lm, "storage.compact_batch_ms", median(&compacting));
            let busy: f64 = writer_batches.iter().filter(|b| b.ok).map(|b| b.index_ms / 1e3).sum();
            set(&mut lm, "core.index_events_per_s", ratio(written_events as f64, busy));
            set(
                &mut lm,
                "bench.writer_late_ms.max",
                crate::stats::max(&writer_batches.iter().map(|b| b.late_ms).collect::<Vec<_>>()),
            );
            let parse_ms: Vec<f64> =
                span_us("log.csv_parse", None).iter().map(|v| v / 1e3).collect();
            set(&mut lm, "log.csv_parse_ms", median(&parse_ms));
        }
        set(&mut lm, "storage.open_ms", median(&opens));
        outcome.metrics = lm;
        fixture_spans.extend(spans);
        outcome.spans = fixture_spans;
    } else {
        let mm = &mut outcome.metrics;
        put(mm, "setup_s", setup_s, "s");
        put(mm, "query_p50_ms", p50, "ms");
        put(mm, "query_p95_ms", p95, "ms");
        put(mm, "query_qps", qps, "1/s");
        put(mm, "store_bytes_per_event", bytes_per_event, "B/event");
        if kind == Kind::Mixed {
            put(mm, "ingest_events_per_s", writer_rate, "1/s");
        }
    }
    Ok(outcome)
}
