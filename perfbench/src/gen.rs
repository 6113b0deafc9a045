//! Seeded inputs: event logs from the paper's dataset profiles, their CSV
//! batches, and the query pools the clients draw from.
//!
//! Every generator takes the workload seed; the program under test only
//! ever sees the generated CSV bytes and query strings.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqdet_datagen::{DatasetProfile, MarkovProcess};
use seqdet_log::EventLog;
use std::fmt::Write as _;

/// Seed of the process model every log is simulated from: the one
/// `DatasetProfile::generate` uses, so the seed `0xBEEF` reproduces the
/// profile's default log exactly.
const PROCESS_SEED: u64 = 0xBEEF ^ 0x51ED;

/// Mean events per trace of a Table-4 profile, rounded.
pub fn mean_trace_len(profile: &str) -> u64 {
    let p =
        DatasetProfile::by_name(profile).expect("profile name is one of the paper's Table-4 rows");
    p.mean_len.round() as u64
}

/// A log of a Table-4 profile with `traces / divisor` traces.
///
/// The process model (which activity may follow which) is the profile's
/// fixed one; `seed` drives the simulation: trace lengths and the walks.
/// So every seed measures the same system on a fresh sample of its traffic,
/// and per-event figures do not depend on which random process a seed
/// happened to draw.
pub fn profile_log(profile: &str, divisor: usize, seed: u64) -> EventLog {
    let p = DatasetProfile::by_name(profile)
        .expect("profile name is one of the paper's Table-4 rows")
        .scaled(divisor);
    let process = MarkovProcess::generate(p.activities, PROCESS_SEED);
    // The clamped log-normal trace length of `DatasetProfile::generate_seeded`.
    let sigma: f64 = 0.6;
    let mu = p.mean_len.max(1.0).ln() - sigma * sigma / 2.0;
    let (lo, hi) = (p.min_len.max(1) as i64, p.max_len.max(1) as i64);
    process.simulate_with_lengths(p.traces, seed, move |_, rng: &mut StdRng| {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        ((mu + sigma * z).exp().round() as i64).clamp(lo, hi) as usize
    })
}

/// `(trace name, activity name, timestamp)` rows of `log`, with every trace
/// name prefixed by `prefix` (so batches of separately generated logs name
/// disjoint traces).
pub fn rows(log: &EventLog, prefix: &str) -> Vec<(String, String, u64)> {
    let mut out = Vec::with_capacity(log.num_events());
    for trace in log.traces() {
        let name = format!("{prefix}{}", log.trace_name(trace.id()).expect("trace has a name"));
        for ev in trace.events() {
            let act = log.activity_name(ev.activity).expect("activity has a name");
            out.push((name.clone(), act.to_owned(), ev.ts));
        }
    }
    out
}

/// `trace,activity,timestamp` CSV with a header row.
pub fn csv(rows: &[(String, String, u64)]) -> Vec<u8> {
    let mut s = String::with_capacity(rows.len() * 24 + 32);
    s.push_str("trace,activity,timestamp\n");
    for (t, a, ts) in rows {
        let _ = writeln!(s, "{t},{a},{ts}");
    }
    s.into_bytes()
}

/// Split `log` by timestamp into `n` CSV batches of (nearly) equal event
/// counts. A trace's events spread over several batches, so later batches
/// extend traces that earlier ones opened (Algorithm 1's LastChecked path).
pub fn time_batches(log: &EventLog, n: usize) -> Vec<Vec<u8>> {
    let mut all = rows(log, "");
    // Stable sort by timestamp keeps each trace's events in order.
    all.sort_by_key(|r| r.2);
    let per = all.len().div_ceil(n.max(1)).max(1);
    all.chunks(per).map(csv).collect()
}

/// Query classes of the served mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Plain `DETECT` (pairwise join), `LIMIT 10`.
    Detect,
    /// Plain `DETECT … ANY MATCH`.
    AnyMatch,
    /// Rich `DETECT` with `+`, `!` or `WITHIN`.
    Rich,
    /// `STATS`.
    Stats,
    /// `CONTINUE … USING fast`.
    ContinueFast,
    /// `CONTINUE … USING hybrid`.
    ContinueHybrid,
    /// `CONTINUE … USING accurate`.
    ContinueAccurate,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 7] = [
        Class::Detect,
        Class::AnyMatch,
        Class::Rich,
        Class::Stats,
        Class::ContinueFast,
        Class::ContinueHybrid,
        Class::ContinueAccurate,
    ];

    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Class::Detect => "detect",
            Class::AnyMatch => "any_match",
            Class::Rich => "rich",
            Class::Stats => "stats",
            Class::ContinueFast => "continue_fast",
            Class::ContinueHybrid => "continue_hybrid",
            Class::ContinueAccurate => "continue_accurate",
        }
    }

    /// The class of pool slot `i` of `n`. Every class gets an equal share
    /// of the pool: no source gives a mix of these query types (the paper
    /// times each type on its own), so none is weighted above another.
    fn of_slot(i: usize, n: usize) -> Class {
        Class::ALL[i * Class::ALL.len() / n.max(1)]
    }
}

/// One pattern element of a generated query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Elem {
    /// Activity name (always one present in the catalog).
    pub name: String,
    /// `!name`.
    pub negated: bool,
    /// `name+`.
    pub kleene: bool,
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Its class.
    pub class: Class,
    /// Pattern elements in order.
    pub elems: Vec<Elem>,
    /// `WITHIN` bound, rich queries only.
    pub within: Option<u64>,
    /// `LIMIT` (detect classes) — caps the reported matches/examples.
    pub limit: usize,
    /// The statement sent to the server.
    pub text: String,
}

impl QuerySpec {
    /// The positive activity names, in order.
    pub fn positives(&self) -> Vec<&str> {
        self.elems.iter().filter(|e| !e.negated).map(|e| e.name.as_str()).collect()
    }
}

/// How the pool draws activities.
#[derive(Debug, Clone, Copy)]
pub enum Skew {
    /// Zipf's law (the `k`-th most popular activity drawn with weight
    /// `1/k`, exponent 1 as Zipf stated it, not fitted to any traffic) over
    /// a fixed ranking of the activities.
    Zipf,
    /// Uniform over the activities.
    Uniform,
}

struct Sampler {
    names: Vec<String>,
    cumulative: Vec<f64>,
}

impl Sampler {
    fn new(mut names: Vec<String>, skew: Skew) -> Self {
        names.sort();
        // A fixed ranking, so every seed has the same hot activities.
        let mut rng = StdRng::seed_from_u64(PROCESS_SEED);
        for i in (1..names.len()).rev() {
            let j = rng.gen_range(0..=i);
            names.swap(i, j);
        }
        let mut acc = 0.0;
        let cumulative = (0..names.len())
            .map(|rank| {
                acc += match skew {
                    Skew::Zipf => 1.0 / (rank as f64 + 1.0),
                    Skew::Uniform => 1.0,
                };
                acc
            })
            .collect();
        Self { names, cumulative }
    }

    fn draw(&self, rng: &mut StdRng) -> String {
        let total = *self.cumulative.last().expect("catalog has activities");
        let x = rng.gen_range(0.0..total);
        let i = self.cumulative.partition_point(|&c| c <= x).min(self.names.len() - 1);
        self.names[i].clone()
    }
}

fn positive(name: String) -> Elem {
    Elem { name, negated: false, kleene: false }
}

fn arrow(elems: &[Elem]) -> String {
    elems.iter().map(|e| e.name.as_str()).collect::<Vec<_>>().join(" -> ")
}

/// A pool of `n` requests over `activities`, drawn with `skew`. Rich
/// patterns with `WITHIN` draw their window uniformly from the tightest
/// span their anchors can have up to `mean_len`, the profile's mean events
/// per trace (timestamps are event positions), so a window may cut a few
/// matches or almost none.
///
/// The pool is the same for every seed: its latency tail is set by a few
/// expensive patterns, and a per-seed draw of them would swamp what the
/// benchmark measures. `seed` only orders the pool, which sets the walk the
/// clients take through it; the data the pool runs against comes from the
/// seed too (see [`profile_log`]).
pub fn query_pool(
    activities: Vec<String>,
    skew: Skew,
    n: usize,
    mean_len: u64,
    seed: u64,
) -> Vec<QuerySpec> {
    let mut rng = StdRng::seed_from_u64(PROCESS_SEED ^ 0x5EED_0F9E);
    let sampler = Sampler::new(activities, skew);
    let mut pool = Vec::with_capacity(n);
    for slot in 0..n {
        let class = Class::of_slot(slot, n);
        let draw = |rng: &mut StdRng, len: usize| -> Vec<Elem> {
            (0..len).map(|_| positive(sampler.draw(rng))).collect()
        };
        let spec = match class {
            Class::Detect => {
                let len = rng.gen_range(2..=6usize);
                let elems = draw(&mut rng, len);
                let text = format!("DETECT {} LIMIT 10", arrow(&elems));
                QuerySpec { class, elems, within: None, limit: 10, text }
            }
            Class::AnyMatch => {
                let len = rng.gen_range(3..=4usize);
                let elems = draw(&mut rng, len);
                let text = format!("DETECT {} ANY MATCH LIMIT 3", arrow(&elems));
                QuerySpec { class, elems, within: None, limit: 3, text }
            }
            Class::Rich => rich(&mut rng, &sampler, mean_len),
            Class::Stats => {
                let len = rng.gen_range(2..=4usize);
                let elems = draw(&mut rng, len);
                let text = format!("STATS {}", arrow(&elems));
                QuerySpec { class, elems, within: None, limit: 0, text }
            }
            Class::ContinueFast | Class::ContinueHybrid | Class::ContinueAccurate => {
                let len = rng.gen_range(1..=3usize);
                let elems = draw(&mut rng, len);
                let using = match class {
                    Class::ContinueFast => "fast",
                    Class::ContinueHybrid => "hybrid K 5",
                    _ => "accurate",
                };
                let text = format!("CONTINUE {} USING {using}", arrow(&elems));
                QuerySpec { class, elems, within: None, limit: 0, text }
            }
        };
        pool.push(spec);
    }
    // Interleave the classes, so any prefix of the pool mixes them.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0F9E);
    for i in (1..pool.len()).rev() {
        let j = rng.gen_range(0..=i);
        pool.swap(i, j);
    }
    pool
}

/// A rich pattern: Kleene plus, a negation between two anchors, a window,
/// or a combination. Both windowed shapes have three positive elements, so
/// their tightest span is 2.
fn rich(rng: &mut StdRng, sampler: &Sampler, mean_len: u64) -> QuerySpec {
    let shape = rng.gen_range(0..4u32);
    let a = positive(sampler.draw(rng));
    let b = sampler.draw(rng);
    let c = positive(sampler.draw(rng));
    let (elems, within) = match shape {
        0 => (vec![a, Elem { name: b, negated: false, kleene: true }, c], None),
        1 => (vec![a, Elem { name: b, negated: true, kleene: false }, c], None),
        2 => (vec![a, positive(b), c], Some(rng.gen_range(2..=mean_len.max(2)))),
        _ => {
            let d = positive(sampler.draw(rng));
            let kleene = Elem { name: b, negated: false, kleene: true };
            let neg = Elem { name: c.name, negated: true, kleene: false };
            (vec![a, kleene, neg, d], Some(rng.gen_range(2..=mean_len.max(2))))
        }
    };
    let body = elems
        .iter()
        .map(|e| {
            let mut s = String::new();
            if e.negated {
                s.push('!');
            }
            s.push_str(&e.name);
            if e.kleene {
                s.push('+');
            }
            s
        })
        .collect::<Vec<_>>()
        .join(" ");
    let window = within.map(|w| format!(" WITHIN {w}")).unwrap_or_default();
    let text = format!("DETECT {body}{window} LIMIT 10");
    QuerySpec { class: Class::Rich, elems, within, limit: 10, text }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_profile_seed_reproduces_the_profiles_default_log() {
        let ours = profile_log("bpi_2020", 50, 0xBEEF);
        let theirs = DatasetProfile::by_name("bpi_2020").expect("profile").scaled(50).generate();
        assert_eq!(rows(&ours, ""), rows(&theirs, ""));
        assert_ne!(rows(&profile_log("bpi_2020", 50, 1), ""), rows(&ours, ""));
    }
}
