//! End-to-end and per-layer benchmark of seqdet.
//!
//! Four workloads, each generated from a seed and each answer checked:
//!
//! * `ingest` — CSV batches parsed and indexed into a fresh `DiskStore`;
//! * `query_hot` — served queries over a store whose pair rows fit the
//!   posting cache;
//! * `query_cold` — served queries over a store whose pair rows do not;
//! * `mixed` — served queries while a writer appends batches to the store.
//!
//! An untraced run reports the end-to-end metrics; a traced run (same
//! seeds) reports per-layer metrics from spans the benchmark records around
//! its own calls into each crate, plus counters the program exposes.
//! See `README.md` in this directory for every metric's definition.

pub mod client;
pub mod gen;
pub mod ingest;
pub mod oracle;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::{Path, PathBuf};
use std::time::Duration;

/// Workload names, in report order.
pub const WORKLOADS: [&str; 4] = ["ingest", "query_hot", "query_cold", "mixed"];

/// Client threads and server workers: the container's core count.
pub const CLIENTS: usize = 2;

/// Period partitioning of the `query_cold` store (positional timestamps
/// run to 80, so 10 gives 8 partitions).
pub const COLD_PARTITION_PERIOD: u64 = 10;

/// Input sizes. [`Sizes::full`] is what the benchmark measures;
/// [`Sizes::tiny`] exercises every path in a fraction of a second.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `bpi_2017` divisor of the `ingest` log and of the `query_hot` /
    /// `mixed` store.
    pub bpi_divisor: usize,
    /// Timestamp-ordered batches per ingest round.
    pub batches: usize,
    /// Timestamp-ordered batches the query fixtures are built from.
    pub fixture_batches: usize,
    /// `max_10000` divisor of the `query_cold` store.
    pub cold_divisor: usize,
    /// Distinct queries the `query_hot` and `query_cold` clients draw from.
    pub pool: usize,
    /// Distinct queries the `mixed` client draws from.
    pub pool_mixed: usize,
    /// `bpi_2017` divisor of each batch the `mixed` writer appends.
    pub mixed_batch_divisor: usize,
    /// Open-loop interval between `mixed` writer batches.
    pub mixed_interval: Duration,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Untimed warm-up of the query workloads.
    pub warmup: Duration,
    /// Store option: mutation bytes between size-triggered compactions
    /// (`None` keeps the store's default).
    pub run_flush_bytes: Option<u64>,
}

impl Sizes {
    /// The measured sizes.
    pub fn full() -> Self {
        Self {
            bpi_divisor: 8,
            batches: 8,
            fixture_batches: 8,
            cold_divisor: 4,
            pool: 400,
            pool_mixed: 60,
            mixed_batch_divisor: 200,
            mixed_interval: Duration::from_secs(1),
            setups: 5,
            warmup: Duration::from_secs(1),
            run_flush_bytes: None,
        }
    }

    /// Smoke-test sizes.
    pub fn tiny() -> Self {
        Self {
            bpi_divisor: 400,
            batches: 4,
            fixture_batches: 2,
            cold_divisor: 100,
            pool: 24,
            pool_mixed: 24,
            mixed_batch_divisor: 2000,
            mixed_interval: Duration::from_millis(100),
            setups: 2,
            warmup: Duration::from_millis(100),
            run_flush_bytes: Some(16 << 10),
        }
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory for stores and trace files.
    pub work_dir: PathBuf,
    /// Input sizes.
    pub sizes: Sizes,
    /// Test hook: corrupt one expected answer, so checking must fail.
    pub corrupt_expected: bool,
}

/// A named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Push a metric.
pub fn put(out: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    out.push(Metric { name: name.into(), value, unit });
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests or ingest batches).
    pub attempted: u64,
    /// Operations that failed: non-200, refused, timed out, wrong answer.
    pub failed: u64,
    /// Metrics of this run: end-to-end (untraced) or per-layer (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub report: Vec<String>,
    /// Recorded spans (traced runs).
    pub spans: Vec<trace::Span>,
}

/// Run one workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.work_dir).map_err(|e| format!("work dir: {e}"))?;
    match cfg.workload.as_str() {
        "ingest" => ingest::run(cfg),
        "query_hot" | "query_cold" | "mixed" => serve::run(cfg),
        other => Err(format!("unknown workload {other:?} (expected one of {WORKLOADS:?})")),
    }
}

/// A fresh, empty directory `name` under the work dir.
pub fn fresh_dir(cfg: &Config, name: &str) -> PathBuf {
    let dir = cfg.work_dir.join(format!("{name}-{}-{}", cfg.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

extern "C" {
    /// glibc: return free heap memory of every arena to the kernel.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Return the memory the allocator holds as free (set-up garbage) to the
/// kernel, so resident memory measured next is live memory.
pub fn release_free_memory() {
    // SAFETY: `malloc_trim` only releases memory the allocator holds as
    // free; it takes a plain integer and touches no memory of ours.
    unsafe {
        malloc_trim(0);
    }
}

/// Reset the process's peak-RSS mark to its current RSS, so the next
/// [`peak_rss_mb`] covers only what follows. Returns whether the kernel
/// accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Print a run's report and, as the last line, its JSON result.
pub fn print_outcome(outcome: &Outcome) {
    for line in &outcome.report {
        println!("{line}");
    }
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted, outcome.failed
    );
}

/// A finite JSON number (`-0` printed as `0`).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{}", v + 0.0)
    } else {
        "0".to_owned()
    }
}
