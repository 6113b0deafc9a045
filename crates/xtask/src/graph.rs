//! Item extraction and the workspace call graph.
//!
//! Sits on the token stream from [`crate::lexer`] and extracts, per file:
//! function definitions (with their `impl`/`trait` owner, visibility and
//! body extent), and per function body the *sites* the analyses consume —
//! calls, panic sources, lock acquisitions (with an inferred held-range),
//! and discarded `Result`s. [`Workspace::load`] runs this over every crate
//! under a root and links calls to definitions with a name-based,
//! dependency-direction-aware resolution.
//!
//! ## Resolution model (and its honesty)
//!
//! There is no type information here — resolution is by name, sharpened by
//! three filters that keep the graph useful instead of complete:
//!
//! * **dependency direction** — an edge from crate `A` into crate `B` only
//!   exists when `A` depends (transitively) on `B` per the `Cargo.toml`s,
//!   so a `storage` helper can never appear to call into `server`;
//! * **receiver shape** — `.method(…)` calls resolve only to functions
//!   with a `self` parameter, `Type::func(…)` only to items owned by
//!   `Type`, and `self.method(…)` prefers the caller's own impl block;
//! * **ambiguity cap** — a name that still matches more than
//!   [`AMBIGUITY_CAP`] definitions (`new`, `len`, …, which are mostly std
//!   methods anyway) produces *no* edges and is counted in
//!   [`Workspace::ambiguous_calls`]; a silent fan-out to everything would
//!   drown the analyses in false paths.
//!
//! The self-test fixtures under `crates/xtask/fixtures/` pin this
//! contract: each analysis must fire on its seeded violation and stay
//! quiet on the clean workspace.

use crate::lexer::{in_regions, lex, mask_via_tokens, test_regions, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;

/// Names that still resolve to more definitions than this produce no call
/// edges (counted, not silently dropped).
pub const AMBIGUITY_CAP: usize = 6;

/// Ubiquitous std method names. A `.name(…)` call through a receiver with
/// no lexical affinity to the candidate's owning type is assumed to hit
/// the std type (`map.insert`, `buf.len`, `opt.map`) and produces no edge;
/// `self.insert(…)` and `cache.insert(…)` (receiver resembling
/// `PostingCache`) still resolve. Without this, every `HashMap::insert`
/// in the workspace fabricates an edge to any workspace `insert`.
const STD_STAPLES: &[&str] = &[
    "all",
    "and_then",
    "any",
    "append",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "chunks",
    "clear",
    "clone",
    "collect",
    "contains",
    "contains_key",
    "count",
    "drain",
    "ends_with",
    "entry",
    "extend",
    "filter",
    "find",
    "first",
    "flush",
    "fold",
    "get",
    "get_mut",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "map",
    "max",
    "min",
    "next",
    "ok_or",
    "parse",
    "pop",
    "position",
    "push",
    "push_str",
    "read",
    "read_exact",
    "read_to_end",
    "recv",
    "remove",
    "retain",
    "rev",
    "seek",
    "send",
    "skip",
    "sort",
    "sort_by",
    "spawn",
    "split",
    "split_at",
    "starts_with",
    "sum",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "unwrap_or",
    "unwrap_or_else",
    "values",
    "windows",
    "write",
    "write_all",
    "zip",
];

/// Lexical receiver/owner affinity: `cache` resembles `PostingCache`,
/// `exec` resembles `Executor`, `ctx` resembles `ReadCtx`. Receivers
/// shorter than 3 bytes (guards, loop vars) never match.
fn affine(receiver: &str, owner: &str) -> bool {
    let r = receiver.to_lowercase().replace('_', "");
    let o = owner.to_lowercase();
    r.len() >= 3 && (o.contains(&r) || r.contains(&o))
}

/// What a panic source is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PanicKind {
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    Macro,
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(…)`.
    Expect,
    /// `x[i]` / `x[a..b]` — indexing and slicing panic on out-of-bounds.
    Index,
}

impl PanicKind {
    pub fn name(self) -> &'static str {
        match self {
            PanicKind::Macro => "panic-macro",
            PanicKind::Unwrap => "unwrap",
            PanicKind::Expect => "expect",
            PanicKind::Index => "indexing",
        }
    }
}

/// Which lock operation an acquisition site performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOp {
    Lock,
    Read,
    Write,
}

impl LockOp {
    pub fn name(self) -> &'static str {
        match self {
            LockOp::Lock => "lock",
            LockOp::Read => "read",
            LockOp::Write => "write",
        }
    }
}

/// One extracted site inside a function body. `pos` is the token index in
/// the file's token stream — sites within one function are ordered and
/// comparable by it.
#[derive(Debug, Clone)]
pub struct Site {
    pub kind: SiteKind,
    pub line: usize,
    pub pos: usize,
}

#[derive(Debug, Clone)]
pub enum SiteKind {
    /// A call expression. `method` marks `.name(…)` calls; `qualifier` is
    /// the `Type` of a `Type::name(…)` call; `receiver` is the last
    /// identifier of a method call's receiver chain (`self.field.lock()`
    /// → `field`).
    Call { name: String, method: bool, qualifier: Option<String>, receiver: Option<String> },
    /// A potential panic.
    Panic { what: PanicKind },
    /// A parking_lot lock acquisition. `held_to` is the token index the
    /// guard is inferred to live to: end of the enclosing block for
    /// `let guard = self.x.lock();` bindings (truncated at an explicit
    /// `drop(guard)`), end of the statement for temporaries and
    /// value-bindings (`let v = *self.x.lock();`).
    LockAcquire { lock: String, op: LockOp, held_to: usize },
    /// `let _ = <call>;` — an explicitly discarded result.
    LetUnderscore,
    /// `….ok();` — a `Result` squashed to `Option` and dropped.
    OkDrop,
}

/// One extracted function.
#[derive(Debug, Clone)]
pub struct Func {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// Crate the file belongs to (`name` from its `Cargo.toml`).
    pub crate_name: String,
    pub name: String,
    /// `impl`/`trait` block owner, if any.
    pub owner: Option<String>,
    /// 1-based definition line.
    pub line: usize,
    /// `pub` or `pub(…)`.
    pub is_pub: bool,
    /// Takes `self`.
    pub is_method: bool,
    /// Inside a `#[cfg(test)]` region / `#[test]` fn / tests dir.
    pub in_test: bool,
    /// Parameters with `Fn`/`FnMut`/`FnOnce`-shaped types (direct or via a
    /// generic bound) — user callbacks for the lock-order analysis.
    pub callback_params: Vec<String>,
    /// Sites in body order.
    pub sites: Vec<Site>,
}

impl Func {
    /// `Owner::name` or `name` — the display / finding-key form.
    pub fn qual(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The loaded workspace: all functions, the crate dependency closure, and
/// per-file sources for line-level lookups (allow-directives).
pub struct Workspace {
    pub funcs: Vec<Func>,
    /// crate name -> transitive dependency set (crate names).
    pub deps: BTreeMap<String, BTreeSet<String>>,
    /// file -> source text.
    pub sources: BTreeMap<String, String>,
    /// file -> owning crate name.
    pub file_crate: BTreeMap<String, String>,
    /// Calls dropped because their name resolved too ambiguously.
    pub ambiguous_calls: usize,
    by_name: HashMap<String, Vec<usize>>,
}

impl Workspace {
    /// Load and extract every crate under `root` (`crates/*/src/**` plus a
    /// root `src/`), skipping `target`, `vendor`, `.git` and `fixtures`
    /// trees.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut crates = discover_crates(root)?;
        // Root facade package, if present.
        if root.join("src").is_dir() {
            if let Some((name, deps)) = parse_manifest(&root.join("Cargo.toml")) {
                crates.insert("src".into(), (name, deps));
            }
        }
        let dep_closure = transitive_deps(&crates);

        let mut funcs = Vec::new();
        let mut sources = BTreeMap::new();
        let mut file_crate = BTreeMap::new();
        for (dir, (crate_name, _)) in &crates {
            let src_dir = if dir == "src" {
                root.join("src")
            } else {
                root.join("crates").join(dir).join("src")
            };
            let mut files = Vec::new();
            collect_rs(&src_dir, &mut files);
            files.sort();
            for path in files {
                let source = std::fs::read_to_string(&path)?;
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace(std::path::MAIN_SEPARATOR, "/");
                extract_file(&rel, crate_name, &source, &mut funcs);
                file_crate.insert(rel.clone(), crate_name.clone());
                sources.insert(rel, source);
            }
        }
        Ok(Workspace::assemble(funcs, dep_closure, sources, file_crate))
    }

    /// Build a workspace from in-memory sources — the harness the analyze
    /// unit tests drive synthetic multi-crate layouts through.
    /// `files` entries are `(relative path, crate name, source)`.
    pub fn from_sources(
        files: &[(&str, &str, &str)],
        deps: BTreeMap<String, BTreeSet<String>>,
    ) -> Workspace {
        let mut funcs = Vec::new();
        let mut sources = BTreeMap::new();
        let mut file_crate = BTreeMap::new();
        for (rel, crate_name, source) in files {
            extract_file(rel, crate_name, source, &mut funcs);
            file_crate.insert((*rel).to_owned(), (*crate_name).to_owned());
            sources.insert((*rel).to_owned(), (*source).to_owned());
        }
        Workspace::assemble(funcs, deps, sources, file_crate)
    }

    fn assemble(
        funcs: Vec<Func>,
        deps: BTreeMap<String, BTreeSet<String>>,
        sources: BTreeMap<String, String>,
        file_crate: BTreeMap<String, String>,
    ) -> Workspace {
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, f) in funcs.iter().enumerate() {
            if !f.in_test {
                by_name.entry(f.name.clone()).or_default().push(i);
            }
        }
        let mut ws = Workspace { funcs, deps, sources, file_crate, ambiguous_calls: 0, by_name };
        ws.count_ambiguous();
        ws
    }

    /// Resolve one call site of `caller` to candidate definitions. Empty
    /// when unknown (std / vendored) or too ambiguous.
    pub fn resolve(&self, caller: usize, site: &SiteKind) -> Vec<usize> {
        let SiteKind::Call { name, method, qualifier, receiver } = site else {
            return Vec::new();
        };
        let Some(all) = self.by_name.get(name) else { return Vec::new() };
        let cf = &self.funcs[caller];
        let mut cands: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| {
                let g = &self.funcs[i];
                g.crate_name == cf.crate_name
                    || self.deps.get(&cf.crate_name).is_some_and(|d| d.contains(&g.crate_name))
            })
            .collect();
        if *method {
            cands.retain(|&i| self.funcs[i].is_method);
            let staple = STD_STAPLES.binary_search(&name.as_str()).is_ok();
            match receiver.as_deref() {
                // `self.method(…)`: prefer the caller's own impl block. If
                // the caller's type has no such method the call goes through
                // a field/Deref we can't see; only distinctive names may
                // still resolve by name alone.
                Some("self") if cf.owner.is_some() => {
                    let own: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&i| self.funcs[i].owner == cf.owner)
                        .collect();
                    if !own.is_empty() {
                        cands = own;
                    } else if staple {
                        cands.clear();
                    }
                }
                // `recv.method(…)`: keep a candidate when the receiver name
                // resembles its owning type, or when the method name is
                // distinctive enough that a std collision is unlikely.
                Some(r) => {
                    cands.retain(|&i| {
                        let owner_affine =
                            self.funcs[i].owner.as_deref().is_some_and(|o| affine(r, o));
                        owner_affine || !staple
                    });
                }
                // Chained/expression receivers give us nothing to match on.
                None => {
                    if staple {
                        cands.clear();
                    }
                }
            }
        } else if let Some(q) = qualifier {
            let q =
                if q == "Self" { cf.owner.clone().unwrap_or_else(|| q.clone()) } else { q.clone() };
            let owned: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| self.funcs[i].owner.as_deref() == Some(q.as_str()))
                .collect();
            if !owned.is_empty() {
                cands = owned;
            }
        } else {
            // A bare `name(…)` cannot be a method call.
            cands.retain(|&i| !self.funcs[i].is_method);
        }
        if cands.len() > AMBIGUITY_CAP {
            return Vec::new();
        }
        cands
    }

    /// Call edges of `caller`: resolved callee indices paired with the
    /// call site's token position in the caller body.
    pub fn edges_of(&self, caller: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for site in &self.funcs[caller].sites {
            if matches!(site.kind, SiteKind::Call { .. }) {
                for callee in self.resolve(caller, &site.kind) {
                    out.push((callee, site.pos));
                }
            }
        }
        out
    }

    /// Count calls that resolved past [`AMBIGUITY_CAP`] (observability for
    /// the analyze report).
    fn count_ambiguous(&mut self) {
        let mut n = 0;
        for caller in 0..self.funcs.len() {
            for site in &self.funcs[caller].sites {
                if let SiteKind::Call { name, .. } = &site.kind {
                    if self.by_name.get(name).is_some_and(|all| all.len() > AMBIGUITY_CAP)
                        && self.resolve(caller, &site.kind).is_empty()
                    {
                        n += 1;
                    }
                }
            }
        }
        self.ambiguous_calls = n;
    }
}

/// `crates/<dir>` -> (crate name, direct deps) from each `Cargo.toml`.
fn discover_crates(root: &Path) -> std::io::Result<BTreeMap<String, (String, Vec<String>)>> {
    let mut out = BTreeMap::new();
    let crates_dir = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else { return Ok(out) };
    for entry in entries.flatten() {
        let path = entry.path();
        if !path.is_dir() || path.file_name().is_some_and(|n| n == "fixtures") {
            continue;
        }
        if let Some((name, deps)) = parse_manifest(&path.join("Cargo.toml")) {
            out.insert(entry.file_name().to_string_lossy().into_owned(), (name, deps));
        }
    }
    Ok(out)
}

/// Minimal `Cargo.toml` reader: package name plus `[dependencies]` keys.
fn parse_manifest(path: &Path) -> Option<(String, Vec<String>)> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut name = None;
    let mut deps = Vec::new();
    let mut section = String::new();
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix('[') {
            section = rest.trim_end_matches(']').to_owned();
            continue;
        }
        if section == "package" && name.is_none() {
            if let Some(v) = line.strip_prefix("name") {
                let v = v.trim_start_matches(['=', ' ', '\t']).trim();
                name = Some(v.trim_matches('"').to_owned());
            }
        }
        if section == "dependencies" && !line.is_empty() && !line.starts_with('#') {
            let key: String = line
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                .collect();
            if !key.is_empty() {
                deps.push(key);
            }
        }
    }
    Some((name?, deps))
}

/// Transitive closure of the crate dependency relation, keyed and valued
/// by crate *names* (non-workspace deps are dropped).
fn transitive_deps(
    crates: &BTreeMap<String, (String, Vec<String>)>,
) -> BTreeMap<String, BTreeSet<String>> {
    let names: BTreeSet<String> = crates.values().map(|(n, _)| n.clone()).collect();
    let direct: BTreeMap<String, Vec<String>> = crates
        .values()
        .map(|(n, d)| (n.clone(), d.iter().filter(|x| names.contains(*x)).cloned().collect()))
        .collect();
    let mut closure: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for name in &names {
        let mut seen = BTreeSet::new();
        let mut stack = direct.get(name).cloned().unwrap_or_default();
        while let Some(d) = stack.pop() {
            if seen.insert(d.clone()) {
                stack.extend(direct.get(&d).cloned().unwrap_or_default());
            }
        }
        closure.insert(name.clone(), seen);
    }
    closure
}

/// Recursively collect `.rs` files, skipping build/vendor/fixture trees.
fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "vendor" || name == "fixtures" {
                continue;
            }
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Keywords that, as the token before `[`, mean "not an index expression".
const NOT_INDEX_BEFORE: &[&str] = &[
    "let", "mut", "dyn", "ref", "move", "in", "as", "where", "impl", "fn", "const", "static",
    "type", "use", "pub", "return", "break", "else", "match", "if", "while", "loop", "for",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const FN_TRAITS: &[&str] = &["Fn", "FnMut", "FnOnce"];

struct RawFn {
    name_idx: usize,
    name: String,
    is_pub: bool,
    is_method: bool,
    callback_params: Vec<String>,
    returns_lock: bool,
    body_open: usize,
    body_close: usize,
}

/// Extract every function (with sites) from one file into `funcs`.
pub fn extract_file(rel: &str, crate_name: &str, source: &str, funcs: &mut Vec<Func>) {
    let toks: Vec<Tok> = lex(source).into_iter().filter(|t| t.kind != TokKind::Comment).collect();
    let masked = mask_via_tokens(source);
    let tests = test_regions(&masked);

    // Line table.
    let mut line_starts = vec![0usize];
    for (i, b) in source.bytes().enumerate() {
        if b == b'\n' {
            line_starts.push(i + 1);
        }
    }
    let line_of = move |at: usize| line_starts.partition_point(|&s| s <= at);

    // Delimiter matching over the token stream.
    let close_of = match_delims(&toks);

    // Lock names: fields/bindings/params typed `…Mutex<…>`/`…RwLock<…>`.
    // Accessor functions returning `&Mutex`/`&RwLock` are added below as
    // their signatures are parsed.
    let mut lock_names: BTreeSet<String> = BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|t| t.is_punct(b':'))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct(b':'))
            && (i == 0 || !toks[i - 1].is_punct(b':'))
        {
            // Scan a bounded window of type tokens for the lock types.
            for t in toks.iter().skip(i + 2).take(8) {
                if t.is_punct(b';') || t.is_punct(b',') || t.is_punct(b'=') || t.is_punct(b'{') {
                    break;
                }
                if t.is_ident(source, "Mutex") || t.is_ident(source, "RwLock") {
                    lock_names.insert(toks[i].text(source).to_owned());
                    break;
                }
            }
        }
    }

    // Impl/trait blocks: (open_tok, close_tok, owner).
    let mut owners: Vec<(usize, usize, String)> = Vec::new();
    let mut raws: Vec<RawFn> = Vec::new();

    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident {
            let text = toks[i].text(source);
            if (text == "impl" || text == "trait") && item_position(&toks, i, source) {
                if let Some((open, owner)) = parse_owner_header(&toks, i, source) {
                    if let Some(&close) = close_of.get(&open) {
                        owners.push((open, close, owner));
                    }
                }
            } else if text == "fn" {
                if let Some(raw) = parse_fn(&toks, i, source, &close_of) {
                    if raw.returns_lock {
                        lock_names.insert(raw.name.clone());
                    }
                    raws.push(raw);
                }
            }
        }
        i += 1;
    }

    // Body spans for nested-fn exclusion.
    let spans: Vec<(usize, usize)> = raws.iter().map(|r| (r.body_open, r.body_close)).collect();

    for raw in raws {
        let owner = owners
            .iter()
            .filter(|(o, c, _)| *o < raw.name_idx && raw.name_idx < *c)
            .max_by_key(|(o, _, _)| *o)
            .map(|(_, _, name)| name.clone());
        let at = toks[raw.name_idx].start;
        let in_test = in_regions(&tests, at) || rel.contains("/tests/");
        let sites = scan_body(
            &toks,
            source,
            raw.body_open,
            raw.body_close,
            &spans,
            &lock_names,
            &close_of,
            &line_of,
        );
        funcs.push(Func {
            file: rel.to_owned(),
            crate_name: crate_name.to_owned(),
            name: raw.name,
            owner,
            line: line_of(at),
            is_pub: raw.is_pub,
            is_method: raw.is_method,
            in_test,
            callback_params: raw.callback_params,
            sites,
        });
    }
}

/// True when the `impl`/`trait` keyword at `i` starts an item (rather than
/// appearing in a type position like `-> impl Iterator` or
/// `arg: impl Fn(…)`).
fn item_position(toks: &[Tok], i: usize, source: &str) -> bool {
    if i == 0 {
        return true;
    }
    match toks[i - 1].kind {
        TokKind::Punct(b';')
        | TokKind::Punct(b'}')
        | TokKind::Punct(b'{')
        | TokKind::Punct(b']') => true,
        TokKind::Ident => {
            matches!(toks[i - 1].text(source), "pub" | "unsafe" | "default" | "crate")
        }
        _ => false,
    }
}

/// Parse an `impl`/`trait` header at `i`: returns (body-open token, owner
/// type name). The owner is the last angle-depth-0 identifier before the
/// body (after cutting any `where` clause) — which lands on `Foo` for
/// `impl Foo<T>`, `impl Trait for Foo`, and `impl a::b::Foo`.
fn parse_owner_header(toks: &[Tok], i: usize, source: &str) -> Option<(usize, String)> {
    let mut angle = 0i32;
    let mut owner = None;
    let mut j = i + 1;
    while j < toks.len() {
        let t = &toks[j];
        match t.kind {
            TokKind::Punct(b'<') => angle += 1,
            TokKind::Punct(b'>') => angle = (angle - 1).max(0),
            TokKind::Punct(b'{') if angle == 0 => {
                return owner.map(|o| (j, o));
            }
            TokKind::Punct(b';') => return None,
            TokKind::Ident if angle == 0 => {
                let text = t.text(source);
                if text == "where" {
                    // Owner is fixed; skip ahead to the body brace.
                    let open = toks[j..].iter().position(|t| t.is_punct(b'{'))? + j;
                    return owner.map(|o| (open, o));
                }
                if !matches!(text, "for" | "mut" | "dyn" | "const") {
                    owner = Some(text.to_owned());
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Parse a `fn` at token `i` (the `fn` keyword). Returns `None` for
/// bodyless declarations (`fn get(&self) -> V;` in traits) and fn pointer
/// types (`fn(u32)` has no name token).
fn parse_fn(
    toks: &[Tok],
    i: usize,
    source: &str,
    close_of: &HashMap<usize, usize>,
) -> Option<RawFn> {
    let name_idx = i + 1;
    let name_tok = toks.get(name_idx)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let name = name_tok.text(source).to_owned();

    // Find the parameter `(` at angle-depth 0, tolerating `Fn(…) -> T`
    // inside the generics (the `>` of a `->` must not close an angle).
    let mut angle = 0i32;
    let mut j = name_idx + 1;
    let mut p_open = None;
    while j < toks.len() {
        match toks[j].kind {
            TokKind::Punct(b'<') => angle += 1,
            TokKind::Punct(b'>') if !(j > 0 && toks[j - 1].is_punct(b'-')) => {
                angle = (angle - 1).max(0);
            }
            TokKind::Punct(b'(') if angle == 0 => {
                p_open = Some(j);
                break;
            }
            TokKind::Punct(b'{') | TokKind::Punct(b';') => return None,
            _ => {}
        }
        j += 1;
    }
    let p_open = p_open?;
    let p_close = *close_of.get(&p_open)?;

    // Generic params with Fn-ish bounds (for callback detection).
    let mut fnlike: BTreeSet<String> = FN_TRAITS.iter().map(|s| (*s).to_owned()).collect();
    collect_fn_bounded(&toks[name_idx + 1..p_open], source, &mut fnlike);

    // Signature end: first `{` (body) or `;` (declaration) at paren/bracket
    // depth 0 after the params.
    let mut depth = 0i32;
    let mut k = p_close + 1;
    let mut body_open = None;
    while k < toks.len() {
        match toks[k].kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
            TokKind::Punct(b'{') if depth == 0 => {
                body_open = Some(k);
                break;
            }
            TokKind::Punct(b';') if depth == 0 => return None,
            _ => {}
        }
        k += 1;
    }
    let body_open = body_open?;
    let body_close = *close_of.get(&body_open)?;

    // Where clauses can also carry Fn bounds.
    collect_fn_bounded(&toks[p_close + 1..body_open], source, &mut fnlike);

    // `self` among the first parameter tokens makes it a method.
    let is_method =
        toks[p_open + 1..p_close.min(p_open + 5)].iter().any(|t| t.is_ident(source, "self"));

    // Callback params: `name : <type containing an Fn-ish ident>`.
    let mut callback_params = Vec::new();
    let params = &toks[p_open + 1..p_close];
    let mut pdepth = 0i32;
    for pi in 0..params.len() {
        match params[pi].kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'<') | TokKind::Punct(b'[') => pdepth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => pdepth -= 1,
            TokKind::Punct(b'>') if !(pi > 0 && params[pi - 1].is_punct(b'-')) => {
                pdepth -= 1;
            }
            TokKind::Ident
                if pdepth == 0 && params.get(pi + 1).is_some_and(|t| t.is_punct(b':')) =>
            {
                let pname = params[pi].text(source);
                // Scan this parameter's type tokens to the next
                // top-level comma.
                let mut td = 0i32;
                for t in &params[pi + 2..] {
                    match t.kind {
                        TokKind::Punct(b'(') | TokKind::Punct(b'<') | TokKind::Punct(b'[') => {
                            td += 1
                        }
                        TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'>') => {
                            td -= 1
                        }
                        TokKind::Punct(b',') if td <= 0 => break,
                        TokKind::Ident if fnlike.contains(t.text(source)) => {
                            callback_params.push(pname.to_owned());
                            break;
                        }
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }

    // Return-type lock accessor: `-> … &Mutex<…>` / `&RwLock<…>`.
    let returns_lock = toks[p_close + 1..body_open]
        .iter()
        .any(|t| t.is_ident(source, "Mutex") || t.is_ident(source, "RwLock"));

    // Visibility: walk the item prefix backwards.
    let mut is_pub = false;
    let mut b = i;
    while b > 0 {
        b -= 1;
        match toks[b].kind {
            TokKind::Ident => {
                let w = toks[b].text(source);
                if w == "pub" {
                    is_pub = true;
                    break;
                }
                if !matches!(w, "unsafe" | "const" | "extern" | "async" | "default") {
                    break;
                }
            }
            TokKind::Punct(b')') => {
                // A `pub(crate)` group: skip to its `(` and keep walking.
                let mut d = 1;
                while b > 0 && d > 0 {
                    b -= 1;
                    match toks[b].kind {
                        TokKind::Punct(b')') => d += 1,
                        TokKind::Punct(b'(') => d -= 1,
                        _ => {}
                    }
                }
            }
            TokKind::Str { .. } => {} // extern "C"
            _ => break,
        }
    }

    Some(RawFn {
        name_idx,
        name,
        is_pub,
        is_method,
        callback_params,
        returns_lock,
        body_open,
        body_close,
    })
}

/// Add to `fnlike` every generic ident bounded by an Fn trait in the token
/// window (`F: FnOnce(…)`, `F: Send + Fn(…)`).
fn collect_fn_bounded(window: &[Tok], source: &str, fnlike: &mut BTreeSet<String>) {
    for w in 0..window.len() {
        if window[w].kind == TokKind::Ident && window.get(w + 1).is_some_and(|t| t.is_punct(b':')) {
            for t in &window[w + 2..] {
                if t.is_punct(b',') || t.is_punct(b'>') || t.is_punct(b'{') {
                    break;
                }
                if t.kind == TokKind::Ident && FN_TRAITS.contains(&t.text(source)) {
                    fnlike.insert(window[w].text(source).to_owned());
                    break;
                }
            }
        }
    }
}

/// Match `() [] {}` delimiters over a token stream: open index -> close.
fn match_delims(toks: &[Tok]) -> HashMap<usize, usize> {
    let mut map = HashMap::new();
    let mut stack: Vec<(u8, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Punct(b @ (b'(' | b'[' | b'{')) => stack.push((b, i)),
            TokKind::Punct(close @ (b')' | b']' | b'}')) => {
                let open = match close {
                    b')' => b'(',
                    b']' => b'[',
                    _ => b'{',
                };
                // Pop to the matching opener, tolerating imbalance.
                while let Some((b, oi)) = stack.pop() {
                    if b == open {
                        map.insert(oi, i);
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    map
}

/// Scan one function body for sites. `spans` holds every function body in
/// the file so nested `fn` items keep their sites to themselves instead of
/// leaking them into the enclosing function.
#[allow(clippy::too_many_arguments)]
fn scan_body(
    toks: &[Tok],
    source: &str,
    body_open: usize,
    body_close: usize,
    spans: &[(usize, usize)],
    lock_names: &BTreeSet<String>,
    close_of: &HashMap<usize, usize>,
    line_of: &dyn Fn(usize) -> usize,
) -> Vec<Site> {
    let nested: Vec<(usize, usize)> =
        spans.iter().copied().filter(|&(o, c)| o > body_open && c < body_close).collect();
    let in_nested = |i: usize| nested.iter().any(|&(o, c)| i >= o && i <= c);

    let mut sites = Vec::new();
    let mut i = body_open + 1;
    while i < body_close {
        if in_nested(i) {
            i += 1;
            continue;
        }
        let t = &toks[i];
        let line = line_of(t.start);
        match t.kind {
            TokKind::Ident => {
                let text = t.text(source);
                let next = toks.get(i + 1);
                if next.is_some_and(|n| n.is_punct(b'!')) && PANIC_MACROS.contains(&text) {
                    sites.push(Site {
                        kind: SiteKind::Panic { what: PanicKind::Macro },
                        line,
                        pos: i,
                    });
                } else if next.is_some_and(|n| n.is_punct(b'(')) {
                    let prev_is_dot = i > 0 && toks[i - 1].is_punct(b'.');
                    if prev_is_dot {
                        match text {
                            "unwrap" => sites.push(Site {
                                kind: SiteKind::Panic { what: PanicKind::Unwrap },
                                line,
                                pos: i,
                            }),
                            "expect" => sites.push(Site {
                                kind: SiteKind::Panic { what: PanicKind::Expect },
                                line,
                                pos: i,
                            }),
                            _ => {}
                        }
                        let receiver = receiver_tail(toks, i, source);
                        let op = match text {
                            "lock" => Some(LockOp::Lock),
                            "read" => Some(LockOp::Read),
                            "write" => Some(LockOp::Write),
                            _ => None,
                        };
                        if let (Some(op), Some(recv)) = (op, receiver.as_deref()) {
                            if lock_names.contains(recv) {
                                let held_to =
                                    held_range(toks, source, i, body_open, body_close, close_of);
                                sites.push(Site {
                                    kind: SiteKind::LockAcquire {
                                        lock: recv.to_owned(),
                                        op,
                                        held_to,
                                    },
                                    line,
                                    pos: i,
                                });
                            }
                        }
                        // `….ok();` result drop (the `let _ =` form is
                        // reported separately, not doubly).
                        if text == "ok" {
                            if let Some(&cl) = close_of.get(&(i + 1)) {
                                let stmt = stmt_start(toks, i, body_open);
                                let is_let_underscore = toks
                                    .get(stmt)
                                    .is_some_and(|t| t.is_ident(source, "let"))
                                    && toks.get(stmt + 1).is_some_and(|t| t.is_ident(source, "_"));
                                if toks.get(cl + 1).is_some_and(|a| a.is_punct(b';'))
                                    && !is_let_underscore
                                {
                                    sites.push(Site { kind: SiteKind::OkDrop, line, pos: i });
                                }
                            }
                        }
                        if text != "unwrap" && text != "expect" {
                            sites.push(Site {
                                kind: SiteKind::Call {
                                    name: text.to_owned(),
                                    method: true,
                                    qualifier: None,
                                    receiver,
                                },
                                line,
                                pos: i,
                            });
                        }
                    } else {
                        let prev_is_fn = i > 0 && toks[i - 1].is_ident(source, "fn");
                        if !prev_is_fn {
                            let qualifier = if i >= 3
                                && toks[i - 1].is_punct(b':')
                                && toks[i - 2].is_punct(b':')
                                && toks[i - 3].kind == TokKind::Ident
                            {
                                Some(toks[i - 3].text(source).to_owned())
                            } else {
                                None
                            };
                            sites.push(Site {
                                kind: SiteKind::Call {
                                    name: text.to_owned(),
                                    method: false,
                                    qualifier,
                                    receiver: None,
                                },
                                line,
                                pos: i,
                            });
                        }
                    }
                } else if text == "let"
                    && toks.get(i + 1).is_some_and(|t| t.is_ident(source, "_"))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(b'='))
                    && !toks.get(i + 3).is_some_and(|t| t.is_punct(b'='))
                {
                    // `let _ = …;` — only when the RHS contains a call
                    // (discarding a plain value is not an error drop).
                    let mut j = i + 3;
                    let mut has_call = false;
                    while j < body_close && !toks[j].is_punct(b';') {
                        if toks[j].kind == TokKind::Ident
                            && toks.get(j + 1).is_some_and(|t| t.is_punct(b'('))
                        {
                            has_call = true;
                            break;
                        }
                        j += 1;
                    }
                    if has_call {
                        sites.push(Site { kind: SiteKind::LetUnderscore, line, pos: i });
                    }
                }
            }
            TokKind::Punct(b'[') => {
                let indexing = if i == 0 {
                    false
                } else {
                    match toks[i - 1].kind {
                        TokKind::Ident => !NOT_INDEX_BEFORE.contains(&toks[i - 1].text(source)),
                        TokKind::Punct(b')') | TokKind::Punct(b']') => true,
                        _ => false,
                    }
                };
                if indexing {
                    sites.push(Site {
                        kind: SiteKind::Panic { what: PanicKind::Index },
                        line,
                        pos: i,
                    });
                }
            }
            _ => {}
        }
        i += 1;
    }
    sites
}

/// Token index where the statement containing `i` starts (just past the
/// previous `;`, `{` or `}`).
fn stmt_start(toks: &[Tok], i: usize, body_open: usize) -> usize {
    let mut j = i;
    while j > body_open {
        if matches!(
            toks[j - 1].kind,
            TokKind::Punct(b';') | TokKind::Punct(b'{') | TokKind::Punct(b'}')
        ) {
            return j;
        }
        j -= 1;
    }
    j
}

/// Last identifier of the receiver chain of the method call at `i`
/// (`self.field.lock()` → `field`; `self.shard(k).lock()` → `shard`).
fn receiver_tail(toks: &[Tok], i: usize, source: &str) -> Option<String> {
    // toks[i - 1] is the `.`.
    if i < 2 {
        return None;
    }
    let mut j = i - 2;
    loop {
        match toks[j].kind {
            TokKind::Ident => return Some(toks[j].text(source).to_owned()),
            TokKind::Punct(close @ (b')' | b']')) => {
                let open = if close == b')' { b'(' } else { b'[' };
                let mut d = 1i32;
                while j > 0 && d > 0 {
                    j -= 1;
                    match toks[j].kind {
                        TokKind::Punct(c) if c == close => d += 1,
                        TokKind::Punct(c) if c == open => d -= 1,
                        _ => {}
                    }
                }
                if d > 0 || j == 0 {
                    return None;
                }
                j -= 1;
            }
            _ => return None,
        }
    }
}

/// Inferred guard lifetime for the lock acquisition at token `i`.
///
/// `let guard = self.x.lock();` (the call ends the statement and the RHS is
/// not deref'd into a value) holds to the end of the enclosing block,
/// truncated at an explicit `drop(guard)`. Everything else — temporaries,
/// `let v = *self.x.lock();` value bindings, guards chained into further
/// method calls — holds to the end of the statement, which for a
/// `match self.x.lock() { … }` correctly spans the arms (temporary
/// lifetime extension).
fn held_range(
    toks: &[Tok],
    source: &str,
    i: usize,
    body_open: usize,
    body_close: usize,
    close_of: &HashMap<usize, usize>,
) -> usize {
    let stmt = stmt_start(toks, i, body_open);
    let mut j = stmt;
    let binding = if toks.get(j).is_some_and(|t| t.is_ident(source, "let")) {
        j += 1;
        if toks.get(j).is_some_and(|t| t.is_ident(source, "mut")) {
            j += 1;
        }
        match toks.get(j) {
            Some(t)
                if t.kind == TokKind::Ident
                    && t.text(source) != "_"
                    && toks.get(j + 1).is_some_and(|n| n.is_punct(b'=')) =>
            {
                let derefs_value = toks.get(j + 2).is_some_and(|t| t.is_punct(b'*'));
                let call_ends_stmt = close_of
                    .get(&(i + 1))
                    .and_then(|&c| toks.get(c + 1))
                    .is_some_and(|t| t.is_punct(b';'));
                if !derefs_value && call_ends_stmt {
                    Some(t.text(source).to_owned())
                } else {
                    None
                }
            }
            _ => None,
        }
    } else {
        None
    };

    if let Some(bind) = binding {
        // Enclosing block end: the innermost `{ … }` containing `i`.
        let mut block_end = body_close;
        for (&o, &c) in close_of.iter() {
            if toks[o].is_punct(b'{') && o < stmt && c >= i && c < block_end {
                block_end = c;
            }
        }
        // Explicit early drop?
        let mut k = i;
        while k + 2 < block_end {
            if toks[k].is_ident(source, "drop")
                && toks[k + 1].is_punct(b'(')
                && toks[k + 2].is_ident(source, &bind)
            {
                return k;
            }
            k += 1;
        }
        block_end
    } else {
        // Temporary: held to the end of the statement (next `;` at depth 0)
        // or the end of the enclosing expression block. Exception: in a
        // plain `if cond { … }` / `while cond { … }` the condition's
        // temporaries drop *before* the block runs, so the range ends at
        // the `{`. (`match` and `if let` scrutinees extend through the
        // arms — temporary lifetime extension — so those scan past it.)
        let mut head = stmt;
        if toks.get(head).is_some_and(|t| t.is_ident(source, "else")) {
            head += 1;
        }
        let plain_cond = toks.get(head).is_some_and(|t| {
            (t.is_ident(source, "if") || t.is_ident(source, "while"))
                && !toks.get(head + 1).is_some_and(|n| n.is_ident(source, "let"))
        });
        let mut depth = 0i32;
        let mut k = i;
        while k < body_close {
            match toks[k].kind {
                TokKind::Punct(b'{') if depth == 0 && plain_cond => return k,
                TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'{') => depth += 1,
                TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'}') => {
                    depth -= 1;
                    if depth < 0 {
                        return k;
                    }
                }
                TokKind::Punct(b';') if depth == 0 => return k,
                _ => {}
            }
            k += 1;
        }
        body_close
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn funcs_of(rel: &str, src: &str) -> Vec<Func> {
        let mut out = Vec::new();
        extract_file(rel, "test-crate", src, &mut out);
        out
    }

    #[test]
    fn extracts_free_and_impl_fns() {
        let src =
            "pub fn free() {}\nstruct S;\nimpl S { pub(crate) fn method(&self) {} fn assoc() {} }";
        let fs = funcs_of("crates/x/src/lib.rs", src);
        assert_eq!(fs.len(), 3);
        assert_eq!(fs[0].name, "free");
        assert!(fs[0].is_pub);
        assert_eq!(fs[0].owner, None);
        let m = fs.iter().find(|f| f.name == "method").unwrap();
        assert_eq!(m.owner.as_deref(), Some("S"));
        assert!(m.is_method && m.is_pub);
        let a = fs.iter().find(|f| f.name == "assoc").unwrap();
        assert!(!a.is_method && !a.is_pub);
        assert_eq!(a.owner.as_deref(), Some("S"));
    }

    #[test]
    fn trait_impl_owner_is_the_for_type() {
        let src = "impl fmt::Display for Thing { fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { render(f) } }";
        let fs = funcs_of("crates/x/src/lib.rs", src);
        assert_eq!(fs[0].owner.as_deref(), Some("Thing"));
    }

    #[test]
    fn generic_fn_with_fn_bound_finds_callback_param() {
        let src = "fn run<F>(n: u32, f: F) -> u32 where F: Fn(u32) -> u32 { f(n) }";
        let fs = funcs_of("crates/x/src/lib.rs", src);
        assert_eq!(fs[0].callback_params, vec!["f"]);
        assert!(fs[0]
            .sites
            .iter()
            .any(|s| matches!(&s.kind, SiteKind::Call { name, .. } if name == "f")));
    }

    #[test]
    fn impl_fn_param_is_a_callback() {
        let src = "fn run(f: impl FnOnce() -> u32) -> u32 { f() }";
        let fs = funcs_of("crates/x/src/lib.rs", src);
        assert_eq!(fs[0].callback_params, vec!["f"]);
    }

    #[test]
    fn panic_sites_are_collected() {
        let src = "fn f(x: Option<u32>, v: &[u8]) -> u32 { let a = v[0]; x.unwrap() + a as u32 }";
        let fs = funcs_of("crates/x/src/lib.rs", src);
        let kinds: Vec<PanicKind> = fs[0]
            .sites
            .iter()
            .filter_map(|s| match s.kind {
                SiteKind::Panic { what } => Some(what),
                _ => None,
            })
            .collect();
        assert!(kinds.contains(&PanicKind::Index));
        assert!(kinds.contains(&PanicKind::Unwrap));
    }

    #[test]
    fn macro_and_type_brackets_are_not_indexing() {
        let src =
            "fn f() -> Vec<u8> { let v = vec![1, 2]; let t: [u8; 2] = [3, 4]; let _unused = t; v }";
        let fs = funcs_of("crates/x/src/lib.rs", src);
        assert!(!fs[0]
            .sites
            .iter()
            .any(|s| matches!(s.kind, SiteKind::Panic { what: PanicKind::Index })));
    }

    #[test]
    fn lock_acquisitions_with_held_ranges() {
        let src = "struct S { inner: Mutex<u32>, meta: RwLock<u32> }\n\
                   impl S {\n\
                   fn a(&self) { let g = self.inner.lock(); self.helper(); }\n\
                   fn b(&self) -> u32 { *self.meta.read() }\n\
                   fn helper(&self) {}\n\
                   }";
        let fs = funcs_of("crates/x/src/lib.rs", src);
        let a = fs.iter().find(|f| f.name == "a").unwrap();
        let (lock, op, held_to) = a
            .sites
            .iter()
            .find_map(|s| match &s.kind {
                SiteKind::LockAcquire { lock, op, held_to } => Some((lock.clone(), *op, *held_to)),
                _ => None,
            })
            .unwrap();
        assert_eq!(lock, "inner");
        assert_eq!(op, LockOp::Lock);
        // The helper call is inside the held range (guard binding → block
        // end).
        let call = a
            .sites
            .iter()
            .find(|s| matches!(&s.kind, SiteKind::Call { name, .. } if name == "helper"))
            .unwrap();
        assert!(call.pos < held_to, "helper at {} should precede held_to {held_to}", call.pos);

        let b = fs.iter().find(|f| f.name == "b").unwrap();
        assert!(b.sites.iter().any(
            |s| matches!(&s.kind, SiteKind::LockAcquire { lock, op: LockOp::Read, .. } if lock == "meta")
        ));
    }

    #[test]
    fn plain_read_on_non_lock_is_not_an_acquisition() {
        let src = "fn f(r: &mut dyn Reader, buf: &mut [u8]) { r.read(buf).ok(); }";
        let fs = funcs_of("crates/x/src/lib.rs", src);
        assert!(!fs[0].sites.iter().any(|s| matches!(s.kind, SiteKind::LockAcquire { .. })));
    }

    #[test]
    fn value_binding_is_held_to_statement_end_only() {
        let src = "struct S { m: Mutex<u32> }\n\
                   impl S { fn f(&self) { let v = *self.m.lock(); self.after(v); } fn after(&self, _v: u32) {} }";
        let fs = funcs_of("crates/x/src/lib.rs", src);
        let f = fs.iter().find(|f| f.name == "f").unwrap();
        let held_to = f
            .sites
            .iter()
            .find_map(|s| match &s.kind {
                SiteKind::LockAcquire { held_to, .. } => Some(*held_to),
                _ => None,
            })
            .unwrap();
        let call = f
            .sites
            .iter()
            .find(|s| matches!(&s.kind, SiteKind::Call { name, .. } if name == "after"))
            .unwrap();
        assert!(call.pos > held_to, "after() at {} must be outside held range {held_to}", call.pos);
    }

    #[test]
    fn drop_truncates_held_range() {
        let src = "struct S { m: Mutex<u32> }\n\
                   impl S { fn f(&self) { let g = self.m.lock(); drop(g); self.late(); } fn late(&self) {} }";
        let fs = funcs_of("crates/x/src/lib.rs", src);
        let f = fs.iter().find(|f| f.name == "f").unwrap();
        let held_to = f
            .sites
            .iter()
            .find_map(|s| match &s.kind {
                SiteKind::LockAcquire { held_to, .. } => Some(*held_to),
                _ => None,
            })
            .unwrap();
        let call = f
            .sites
            .iter()
            .find(|s| matches!(&s.kind, SiteKind::Call { name, .. } if name == "late"))
            .unwrap();
        assert!(call.pos > held_to, "late() at {} must be outside held range {held_to}", call.pos);
    }

    #[test]
    fn error_drops_are_collected() {
        let src = "fn f() { let _ = fallible(); also().ok(); }\n\
                   fn fallible() -> Result<(), ()> { Ok(()) }\n\
                   fn also() -> Result<(), ()> { Ok(()) }";
        let fs = funcs_of("crates/x/src/lib.rs", src);
        assert!(fs[0].sites.iter().any(|s| matches!(s.kind, SiteKind::LetUnderscore)));
        assert!(fs[0].sites.iter().any(|s| matches!(s.kind, SiteKind::OkDrop)));
    }

    #[test]
    fn let_underscore_without_call_is_ignored() {
        let src = "fn f(x: u32) { let _ = x; }";
        let fs = funcs_of("crates/x/src/lib.rs", src);
        assert!(!fs[0].sites.iter().any(|s| matches!(s.kind, SiteKind::LetUnderscore)));
    }

    #[test]
    fn test_code_is_marked() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests { fn t() { prod(); } }";
        let fs = funcs_of("crates/x/src/lib.rs", src);
        assert!(!fs.iter().find(|f| f.name == "prod").unwrap().in_test);
        assert!(fs.iter().find(|f| f.name == "t").unwrap().in_test);
    }

    #[test]
    fn nested_fn_sites_do_not_leak_to_outer() {
        let src = "fn outer() { fn inner(x: Option<u32>) -> u32 { x.unwrap() } inner(None); }";
        let fs = funcs_of("crates/x/src/lib.rs", src);
        let outer = fs.iter().find(|f| f.name == "outer").unwrap();
        assert!(!outer.sites.iter().any(|s| matches!(s.kind, SiteKind::Panic { .. })));
        let inner = fs.iter().find(|f| f.name == "inner").unwrap();
        assert!(inner.sites.iter().any(|s| matches!(s.kind, SiteKind::Panic { .. })));
    }

    #[test]
    fn qualified_calls_record_their_qualifier() {
        let src = "fn f() { Catalog::load(); helper(); }";
        let fs = funcs_of("crates/x/src/lib.rs", src);
        let quals: Vec<Option<String>> = fs[0]
            .sites
            .iter()
            .filter_map(|s| match &s.kind {
                SiteKind::Call { qualifier, .. } => Some(qualifier.clone()),
                _ => None,
            })
            .collect();
        assert!(quals.contains(&Some("Catalog".to_owned())));
        assert!(quals.contains(&None));
    }

    #[test]
    fn accessor_returning_lock_ref_is_a_lock_name() {
        let src = "struct S { shards: Vec<Mutex<u32>> }\n\
                   impl S {\n\
                   fn shard(&self) -> &Mutex<u32> { &self.shards[0] }\n\
                   fn get(&self) -> u32 { *self.shard().lock() }\n\
                   }";
        let fs = funcs_of("crates/x/src/lib.rs", src);
        let get = fs.iter().find(|f| f.name == "get").unwrap();
        assert!(get
            .sites
            .iter()
            .any(|s| matches!(&s.kind, SiteKind::LockAcquire { lock, .. } if lock == "shard")));
    }

    #[test]
    fn if_condition_temporary_drops_before_block() {
        // `if self.state.lock().crashed { … }` releases the guard before
        // the block runs; a call in the block is NOT under the lock.
        let src = "struct F { state: Mutex<bool> }\n\
                   impl F {\n\
                   fn flush(&self) { if *self.state.lock() { return; } self.inner_flush(); }\n\
                   fn inner_flush(&self) {}\n\
                   }";
        let fs = funcs_of("crates/x/src/lib.rs", src);
        let f = fs.iter().find(|x| x.name == "flush").unwrap();
        let held_to = f
            .sites
            .iter()
            .find_map(|s| match &s.kind {
                SiteKind::LockAcquire { held_to, .. } => Some(*held_to),
                _ => None,
            })
            .unwrap();
        let call_pos = f
            .sites
            .iter()
            .find_map(|s| match &s.kind {
                SiteKind::Call { name, .. } if name == "inner_flush" => Some(s.pos),
                _ => None,
            })
            .unwrap();
        assert!(
            call_pos > held_to,
            "call at {call_pos} must be outside held range ending {held_to}"
        );
    }

    #[test]
    fn match_scrutinee_temporary_spans_the_arms() {
        let src = "struct F { state: Mutex<u8> }\n\
                   impl F {\n\
                   fn go(&self) { match *self.state.lock() { 0 => self.zero(), _ => {} } }\n\
                   fn zero(&self) {}\n\
                   }";
        let fs = funcs_of("crates/x/src/lib.rs", src);
        let f = fs.iter().find(|x| x.name == "go").unwrap();
        let held_to = f
            .sites
            .iter()
            .find_map(|s| match &s.kind {
                SiteKind::LockAcquire { held_to, .. } => Some(*held_to),
                _ => None,
            })
            .unwrap();
        let call_pos = f
            .sites
            .iter()
            .find_map(|s| match &s.kind {
                SiteKind::Call { name, .. } if name == "zero" => Some(s.pos),
                _ => None,
            })
            .unwrap();
        assert!(call_pos < held_to, "match arm call must be inside the held range");
    }

    #[test]
    fn staple_method_on_foreign_receiver_does_not_resolve() {
        // `map.insert(…)` is a HashMap call, not PostingCache::insert.
        let src = "pub struct PostingCache;\n\
                   impl PostingCache { pub fn insert(&self) { let mut map = make(); map.insert(1, 2); } }\n\
                   fn make() -> u32 { 0 }";
        let ws =
            Workspace::from_sources(&[("crates/q/src/cache.rs", "seqdet-q", src)], BTreeMap::new());
        let ins = ws.funcs.iter().position(|f| f.name == "insert").unwrap();
        assert!(!ws.edges_of(ins).iter().any(|&(c, _)| c == ins));
    }

    #[test]
    fn staple_method_on_affine_receiver_resolves() {
        // `cache.insert(…)` lexically resembles PostingCache — keep the edge.
        let src = "pub struct PostingCache;\n\
                   impl PostingCache { pub fn insert(&self) {} }\n\
                   fn store(cache: &PostingCache) { cache.insert(); }";
        let ws =
            Workspace::from_sources(&[("crates/q/src/cache.rs", "seqdet-q", src)], BTreeMap::new());
        let ins = ws.funcs.iter().position(|f| f.name == "insert").unwrap();
        let store = ws.funcs.iter().position(|f| f.name == "store").unwrap();
        assert!(ws.edges_of(store).iter().any(|&(c, _)| c == ins));
    }

    #[test]
    fn distinctive_method_resolves_without_affinity() {
        let src = "pub struct Engine;\n\
                   impl Engine { pub fn detect_sequences(&self) {} }\n\
                   fn run(e: &Engine) { e.detect_sequences(); }";
        let ws =
            Workspace::from_sources(&[("crates/q/src/lib.rs", "seqdet-q", src)], BTreeMap::new());
        let det = ws.funcs.iter().position(|f| f.name == "detect_sequences").unwrap();
        let run = ws.funcs.iter().position(|f| f.name == "run").unwrap();
        assert!(ws.edges_of(run).iter().any(|&(c, _)| c == det));
    }

    #[test]
    fn self_staple_without_own_impl_does_not_resolve() {
        // `self.len()` in an impl with no `len` goes through a field/Deref;
        // Other::len must not be picked up by name alone.
        let src = "pub struct Wrap;\n\
                   impl Wrap { pub fn size(&self) -> usize { self.len() } }\n\
                   pub struct Other;\n\
                   impl Other { pub fn len(&self) -> usize { 0 } }";
        let ws =
            Workspace::from_sources(&[("crates/q/src/lib.rs", "seqdet-q", src)], BTreeMap::new());
        let size = ws.funcs.iter().position(|f| f.name == "size").unwrap();
        assert!(ws.edges_of(size).is_empty());
    }
}
