//! Expected answers, computed once during set-up and never timed.
//!
//! Two independent references check every served answer:
//!
//! * the **reference engine** — the same query code over a `MemStore`
//!   indexed from the same CSV batches. A served body must be
//!   byte-identical to `render::render` of its answer, which checks the
//!   disk store, the posting cache and the serving layer;
//! * the **SASE oracle** — a naive scan of the generated log
//!   (`detect_stnm`, `detect_rich`, `any_match_rich`), which checks the
//!   detection semantics. The reference engine answers each detection
//!   statement once more with its `LIMIT` removed, and that whole answer is
//!   held against the oracle's: in every trace the same matches (rich
//!   `DETECT`, plain `DETECT` of two activities) or the same count and
//!   examples (`ANY MATCH`). Plain `DETECT` of three or more activities,
//!   with or without `WITHIN`, runs the paper's pairwise join (Algorithm
//!   2), which chains per-pair completions and so neither finds every
//!   greedy run of the oracle (`known_pairwise_join_blind_spot_is_documented`)
//!   nor stops at them (two interleaved runs both complete). Where its
//!   answer differs from the oracle's, every completion it returns must be
//!   an embedding of the pattern in the log: the pattern's activities at
//!   strictly increasing timestamps of that trace, within the window.
//!   How often the answers differ is reported, not hidden.
//!
//! The capped body must report the uncapped count cut at the `LIMIT`.

use crate::gen::{Class, QuerySpec};
use seqdet_baselines::SaseEngine;
use seqdet_core::{IndexConfig, Indexer, Policy};
use seqdet_log::{EventLog, Pattern, PatternElem, RichPattern, Ts};
use seqdet_query::lang::{self, Query, QueryOutput};
use seqdet_query::QueryEngine;
use seqdet_server::render::render;
use seqdet_storage::MemStore;
use std::collections::BTreeMap;

/// The index configuration every store of the benchmark uses.
pub fn index_config(partition_period: Option<u64>) -> IndexConfig {
    let cfg = IndexConfig::new(Policy::SkipTillNextMatch);
    match partition_period {
        Some(p) => cfg.with_partition_period(p),
        None => cfg,
    }
}

/// A `MemStore` indexer fed the same CSV batches as the store under test,
/// and the number of pair occurrences it wrote.
pub fn reference_indexer(partition_period: Option<u64>, batches: &[Vec<u8>]) -> (Indexer, usize) {
    let mut ix = Indexer::new(index_config(partition_period));
    let mut pairs = 0;
    for b in batches {
        pairs += extend(&mut ix, b);
    }
    (ix, pairs)
}

/// Index one more CSV batch into a reference indexer; returns its new pairs.
pub fn extend(ix: &mut Indexer, csv: &[u8]) -> usize {
    let log = seqdet_log::csv::read_csv(csv).expect("generated CSV parses");
    ix.index_log(&log).expect("MemStore indexing cannot fail").new_pairs
}

/// Render `spec`'s answer on `engine` exactly as the server would.
pub fn render_on(engine: &QueryEngine<MemStore>, spec: &QuerySpec) -> String {
    let out = lang::run(engine, &spec.text)
        .unwrap_or_else(|e| panic!("generated query {:?} fails: {e}", spec.text));
    render(&engine.catalog(), &out)
}

/// The leading count of a `DETECT` body (`"N completions in M traces"`)
/// or the `(N, M)` of an `ANY MATCH` body.
pub fn header_counts(body: &str) -> Option<(u64, u64)> {
    let first = body.lines().find(|l| !l.starts_with("warning:"))?;
    let mut words = first.split_whitespace();
    let n = words.next()?.parse().ok()?;
    let _kind = words.next()?;
    let m = words.nth(1)?.parse().ok()?;
    Some((n, m))
}

/// Outcome of holding one query's reference answer against the SASE
/// oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaseCheck {
    /// Not a detection query (STATS / CONTINUE): the reference engine alone
    /// defines the answer.
    NotApplicable,
    /// The oracle's answer in every trace.
    Equal,
    /// Pairwise join of ≥ 3 activities: not the oracle's answer, but every
    /// completion is an embedding of the pattern in the log.
    JoinDiffers,
    /// A contradiction: the answer is wrong.
    Wrong,
}

/// One side's uncapped answer, per trace name: the match count, and the
/// matches' timestamps (all of them for `DETECT`, sorted; the examples for
/// `ANY MATCH`). Traces without a match are left out.
pub type PerTrace = BTreeMap<String, (u64, Vec<Vec<Ts>>)>;

fn total(answer: &PerTrace) -> u64 {
    answer.values().fold(0u64, |acc, &(c, _)| acc.saturating_add(c))
}

/// Group `(trace, timestamps)` matches by trace name.
fn per_trace(matches: impl IntoIterator<Item = (String, Vec<Ts>)>) -> PerTrace {
    let mut out = PerTrace::new();
    for (name, ts) in matches {
        let e = out.entry(name).or_default();
        e.0 += 1;
        e.1.push(ts);
    }
    for (_, ms) in out.values_mut() {
        ms.sort();
    }
    out
}

/// The reference engine's answer to `spec` with its `LIMIT` removed
/// (`ANY MATCH` counts are never capped; its `LIMIT` only caps the
/// examples, like the oracle's).
fn engine_answer(engine: &QueryEngine<MemStore>, spec: &QuerySpec) -> PerTrace {
    let mut query = lang::parse_query(&spec.text).expect("generated queries parse");
    if let Query::Detect { limit, any_match: false, .. } = &mut query {
        *limit = None;
    }
    let out = lang::execute(engine, &query)
        .unwrap_or_else(|e| panic!("generated query {:?} fails: {e}", spec.text));
    let catalog = engine.catalog();
    let name = |t| catalog.trace_name(t).expect("answered traces are in the catalog").to_owned();
    match out {
        QueryOutput::Detection(r) => {
            per_trace(r.matches.into_iter().map(|m| (name(m.trace), m.timestamps)))
        }
        QueryOutput::AnyMatch(r) => {
            r.traces.into_iter().map(|t| (name(t.trace), (t.count, t.examples))).collect()
        }
        _ => PerTrace::new(),
    }
}

/// The SASE oracle's answer to `spec` over `log`.
fn oracle_answer(log: &EventLog, spec: &QuerySpec) -> PerTrace {
    let sase = SaseEngine::new(log);
    let act = |name: &str| log.activity(name).expect("queries name activities of the log");
    let name = |t| log.trace_name(t).expect("every trace has a name").to_owned();
    let rich = || {
        let elems = spec
            .elems
            .iter()
            .map(|e| PatternElem {
                activity: act(&e.name),
                negated: e.negated,
                kleene: e.kleene,
                preds: Vec::new(),
            })
            .collect();
        RichPattern::new(elems).expect("generated rich patterns are valid")
    };
    let plain = || Pattern::new(spec.elems.iter().map(|e| act(&e.name)).collect());
    let matches = match spec.class {
        Class::Detect => sase.detect_stnm(&plain()),
        Class::Rich if legacy_window(spec) => {
            let w = spec.within.unwrap_or(u64::MAX);
            sase.detect_stnm(&plain()).into_iter().filter(|m| span(&m.timestamps) <= w).collect()
        }
        Class::Rich => sase.detect_rich(&rich(), spec.within),
        Class::AnyMatch => {
            return sase
                .any_match_rich(&rich(), None, spec.limit)
                .into_iter()
                .map(|t| (name(t.trace), (t.count, t.examples)))
                .collect();
        }
        _ => Vec::new(),
    };
    per_trace(matches.into_iter().map(|m| (name(m.trace), m.timestamps)))
}

/// Whether every match in `answer` is an embedding of `spec`'s plain
/// pattern in `log`: its activities at strictly increasing timestamps of
/// that trace, spanning at most the window.
fn all_embed(log: &EventLog, spec: &QuerySpec, answer: &PerTrace) -> bool {
    let acts: Vec<_> = spec.elems.iter().map(|e| log.activity(&e.name)).collect();
    answer.iter().all(|(name, (_, matches))| {
        let Some(trace) = log.trace_by_name(name) else { return false };
        matches.iter().all(|ts| {
            ts.len() == acts.len()
                && ts.windows(2).all(|w| w[0] < w[1])
                && span(ts) <= spec.within.unwrap_or(u64::MAX)
                && ts.iter().zip(&acts).all(|(&t, &a)| {
                    trace.events().iter().any(|ev| ev.ts == t && Some(ev.activity) == a)
                })
        })
    })
}

/// What holding one query against the SASE oracle found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaseOutcome {
    /// The verdict.
    pub check: SaseCheck,
    /// The reference engine's uncapped total.
    pub engine_total: u64,
    /// The oracle's total.
    pub oracle_total: u64,
}

/// Hold `body` (the reference engine's rendering of `spec` on `engine`)
/// against the SASE oracle over `log`.
pub fn sase_check(
    log: &EventLog,
    engine: &QueryEngine<MemStore>,
    spec: &QuerySpec,
    body: &str,
) -> SaseOutcome {
    if !matches!(spec.class, Class::Detect | Class::AnyMatch | Class::Rich) {
        return SaseOutcome { check: SaseCheck::NotApplicable, engine_total: 0, oracle_total: 0 };
    }
    let ours = engine_answer(engine, spec);
    let theirs = oracle_answer(log, spec);
    let (engine_total, oracle_total) = (total(&ours), total(&theirs));
    let header = match spec.class {
        Class::AnyMatch => (engine_total, ours.len() as u64),
        _ => (engine_total.min(spec.limit as u64), 0),
    };
    let body_agrees = header_counts(body)
        .is_some_and(|(n, m)| n == header.0 && (spec.class != Class::AnyMatch || m == header.1));
    let check = if !body_agrees {
        SaseCheck::Wrong
    } else if ours == theirs {
        SaseCheck::Equal
    } else if pairwise_join(spec) && spec.elems.len() >= 3 && all_embed(log, spec, &ours) {
        SaseCheck::JoinDiffers
    } else {
        SaseCheck::Wrong
    };
    SaseOutcome { check, engine_total, oracle_total }
}

/// A plain pattern with `WITHIN`: served by the classic pairwise join,
/// which filters the greedy completions by span (the documented legacy
/// window semantics), not by the rich matcher.
fn legacy_window(spec: &QuerySpec) -> bool {
    spec.within.is_some() && spec.elems.iter().all(|e| !e.negated && !e.kleene)
}

/// Served by the paper's pairwise join: plain `DETECT`, with or without
/// `WITHIN`.
pub fn pairwise_join(spec: &QuerySpec) -> bool {
    spec.class == Class::Detect || (spec.class == Class::Rich && legacy_window(spec))
}

fn span(ts: &[u64]) -> u64 {
    ts.last().zip(ts.first()).map_or(0, |(l, f)| l - f)
}

/// The expected answer of one pooled query.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Body the server must send, byte for byte.
    pub body: String,
    /// How the reference answer relates to the SASE oracle.
    pub sase: SaseCheck,
    /// A `DETECT` whose uncapped count exceeds its `LIMIT`: only the
    /// uncapped comparison could tell its count from the oracle's.
    pub over_limit: bool,
}

/// Expected answers for `pool` over the log indexed from `batches`.
pub fn expected_answers(
    log: &EventLog,
    partition_period: Option<u64>,
    batches: &[Vec<u8>],
    pool: &[QuerySpec],
) -> Vec<Expected> {
    if pool.is_empty() {
        return Vec::new();
    }
    let (ix, _) = reference_indexer(partition_period, batches);
    let engine = QueryEngine::new(ix.store()).expect("reference store is indexed");
    let answer = |spec: &QuerySpec| {
        let body = render_on(&engine, spec);
        let sase = sase_check(log, &engine, spec, &body);
        if sase.check == SaseCheck::Wrong {
            eprintln!(
                "answer contradicts the SASE oracle: {:?} answered {:?} ({} uncapped), oracle {}",
                spec.text,
                body.lines().next().unwrap_or(""),
                sase.engine_total,
                sase.oracle_total
            );
        }
        let over_limit = spec.class != Class::AnyMatch && sase.engine_total > spec.limit as u64;
        Expected { body, sase: sase.check, over_limit }
    };
    // Two halves on two threads: set-up time, not measured time.
    let (left, right) = pool.split_at(pool.len() / 2);
    std::thread::scope(|s| {
        let l = s.spawn(|| left.iter().map(answer).collect::<Vec<_>>());
        let mut r: Vec<Expected> = right.iter().map(answer).collect();
        let mut out = l.join().expect("expected-answer thread panicked");
        out.append(&mut r);
        out
    })
}

/// Whether a served `(status, body)` is the expected answer.
pub fn served_ok(expected: &Expected, status: u16, body: &str) -> bool {
    status == 200 && body == expected.body && expected.sase != SaseCheck::Wrong
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_counts_parse_detect_and_any_match_bodies() {
        assert_eq!(header_counts("3 completions in 2 traces\nx @ [1, 2]\n"), Some((3, 2)));
        assert_eq!(header_counts("7 embeddings in 4 traces\n"), Some((7, 4)));
        assert_eq!(header_counts("warning: narrowed\n1 completions in 1 traces\n"), Some((1, 1)));
        assert_eq!(header_counts("2 propositions\n"), None);
    }

    fn spec(class: Class, names: &[&str], limit: usize, text: &str) -> QuerySpec {
        let elems = names
            .iter()
            .map(|n| crate::gen::Elem { name: (*n).to_owned(), negated: false, kleene: false })
            .collect();
        QuerySpec { class, elems, within: None, limit, text: text.to_owned() }
    }

    #[test]
    fn the_pairwise_join_may_differ_from_the_oracle_but_must_embed() {
        // t1 = A B A C B C: the join chains A0-B1-C3 and A2-B4-C5, the
        // greedy oracle finds one run. t2 = B A B C: the documented blind
        // spot, the oracle's run A1-B2-C3 is not chained by the join.
        let mut b = seqdet_log::EventLogBuilder::new();
        for (trace, acts) in [("t1", "ABACBC"), ("t2", "BABC")] {
            for (ts, a) in acts.chars().enumerate() {
                b.add(trace, &a.to_string(), ts as u64);
            }
        }
        let log = b.build();
        let (ix, _) = reference_indexer(None, &[crate::gen::csv(&crate::gen::rows(&log, ""))]);
        let engine = QueryEngine::new(ix.store()).expect("indexed");
        let abc = spec(Class::Detect, &["A", "B", "C"], 1, "DETECT A -> B -> C LIMIT 1");
        let body = render_on(&engine, &abc);
        let out = sase_check(&log, &engine, &abc, &body);
        assert_eq!(
            out,
            SaseOutcome { check: SaseCheck::JoinDiffers, engine_total: 2, oracle_total: 2 }
        );
        // A body whose count is not the uncapped count cut at the limit.
        assert_eq!(
            sase_check(&log, &engine, &abc, "2 completions in 1 traces\n").check,
            SaseCheck::Wrong
        );
        // Two activities: the join must equal the oracle.
        let ab = spec(Class::Detect, &["A", "B"], 10, "DETECT A -> B LIMIT 10");
        let body = render_on(&engine, &ab);
        assert_eq!(sase_check(&log, &engine, &ab, &body).check, SaseCheck::Equal);
        // A completion that is no embedding fails the join's check.
        let mut answer = engine_answer(&engine, &abc);
        assert!(all_embed(&log, &abc, &answer));
        answer.get_mut("t1").expect("t1 matches").1[0] = vec![0, 1, 2];
        assert!(!all_embed(&log, &abc, &answer));
    }
}
