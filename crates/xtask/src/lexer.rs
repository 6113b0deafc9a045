//! A proper token stream over Rust source, and the comment/literal mask
//! the token lints run on.
//!
//! The workspace has no crates.io access, so `syn`/`proc-macro2` are not
//! options; this is a hand-rolled lexer covering exactly the surface the
//! static analyses need: identifiers (including raw `r#idents`), lifetimes
//! vs char literals, every string flavour (`"…"`, `r"…"`, `r#"…"#`, `b"…"`,
//! `br#"…"#`), nested block comments, numbers, and single-byte punctuation.
//! Multi-byte operators (`::`, `->`, `=>`) are emitted as runs of
//! single-byte [`TokKind::Punct`] tokens — the extractor matches on
//! adjacency, which keeps the lexer trivially total: any byte sequence
//! lexes.
//!
//! [`mask_via_tokens`] derives the mask from the token stream: a copy of
//! the source where every byte inside a comment, string literal, raw
//! string, byte string or char literal is a space (newlines are preserved
//! so line numbers survive). Attributes, identifiers and punctuation pass
//! through untouched — exactly the subset the lint rules match on.
//! [`test_regions`] then marks the test code within a masked file.

/// One lexed token. Offsets are byte indices into the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub start: usize,
    pub end: usize,
}

/// Token class. String-like and char literals carry the span of their
/// *interior* (between the delimiters) so the masking model knows exactly
/// which bytes to blank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw `r#idents`).
    Ident,
    /// `'a`, `'static` — a quote introducing a lifetime, not a literal.
    Lifetime,
    /// Integer or float literal (suffixes included).
    Num,
    /// Any string literal: plain, raw, byte, raw byte.
    Str { inner_start: usize, inner_end: usize },
    /// Char or byte-char literal.
    Char { inner_start: usize, inner_end: usize },
    /// Line or block comment (block comments nest).
    Comment,
    /// A single punctuation byte.
    Punct(u8),
}

impl Tok {
    /// The token's text.
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        &src[self.start..self.end]
    }

    /// True for an identifier token equal to `word`.
    pub fn is_ident(&self, src: &str, word: &str) -> bool {
        self.kind == TokKind::Ident && self.text(src) == word
    }

    /// True for the punctuation byte `p`.
    pub fn is_punct(&self, p: u8) -> bool {
        self.kind == TokKind::Punct(p)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lex `src` completely. Never fails: unterminated literals and comments
/// extend to end of input, and any unclassifiable byte becomes a
/// [`TokKind::Punct`].
pub fn lex(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        // Whitespace.
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let start = i;
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            toks.push(Tok { kind: TokKind::Comment, start, end: i });
            continue;
        }
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let start = i;
            let mut depth = 1usize;
            i += 2;
            while i < b.len() && depth > 0 {
                if i + 1 < b.len() && b[i] == b'/' && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if i + 1 < b.len() && b[i] == b'*' && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            toks.push(Tok { kind: TokKind::Comment, start, end: i });
            continue;
        }
        // Raw strings / raw identifiers / byte strings. Identifier-greedy:
        // the `r`/`b` prefix only counts when it begins a token (the
        // previous byte is not identifier-continue), mirroring rustc.
        if (c == b'r' || c == b'b') && (i == 0 || !is_ident_cont(b[i - 1])) {
            if let Some(tok) = lex_prefixed(b, i) {
                i = tok.end;
                toks.push(tok);
                continue;
            }
        }
        // Identifiers and keywords.
        if is_ident_start(c) {
            let start = i;
            while i < b.len() && is_ident_cont(b[i]) {
                i += 1;
            }
            toks.push(Tok { kind: TokKind::Ident, start, end: i });
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            let start = i;
            while i < b.len() && (is_ident_cont(b[i])) {
                i += 1;
            }
            // Float part: `1.5`, `1.5e3` — but not `1..3` or `1.method()`.
            if i + 1 < b.len() && b[i] == b'.' && b[i + 1].is_ascii_digit() {
                i += 1;
                while i < b.len() && is_ident_cont(b[i]) {
                    i += 1;
                }
            }
            toks.push(Tok { kind: TokKind::Num, start, end: i });
            continue;
        }
        // Plain strings.
        if c == b'"' {
            let tok = lex_string(b, i);
            i = tok.end;
            toks.push(tok);
            continue;
        }
        // Char literal or lifetime.
        if c == b'\'' {
            let tok = lex_quote(b, i);
            i = tok.end;
            toks.push(tok);
            continue;
        }
        toks.push(Tok { kind: TokKind::Punct(c), start: i, end: i + 1 });
        i += 1;
    }
    toks
}

/// Lex a token starting with `r` or `b` at `i`: raw string (`r"`, `r#"`),
/// byte string (`b"`), raw byte string (`br"`, `br#"`), byte char (`b'x'`),
/// or raw identifier (`r#ident`). Returns `None` when the prefix is just
/// the start of an ordinary identifier.
fn lex_prefixed(b: &[u8], i: usize) -> Option<Tok> {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
        if j < b.len() && b[j] == b'\'' {
            // Byte char literal: reuse the quote lexer, then extend start.
            let q = lex_quote(b, j);
            if let TokKind::Char { inner_start, inner_end } = q.kind {
                return Some(Tok {
                    kind: TokKind::Char { inner_start, inner_end },
                    start: i,
                    end: q.end,
                });
            }
            return None;
        }
        if j < b.len() && b[j] == b'"' {
            let s = lex_string(b, j);
            if let TokKind::Str { inner_start, inner_end } = s.kind {
                return Some(Tok {
                    kind: TokKind::Str { inner_start, inner_end },
                    start: i,
                    end: s.end,
                });
            }
            return None;
        }
    }
    if j < b.len() && b[j] == b'r' {
        j += 1;
        let mut hashes = 0usize;
        while j < b.len() && b[j] == b'#' {
            hashes += 1;
            j += 1;
        }
        if j < b.len() && b[j] == b'"' {
            // Raw (byte) string: scan for `"` followed by `hashes` hashes.
            let inner_start = j + 1;
            let mut k = inner_start;
            while k < b.len() {
                if b[k] == b'"'
                    && b.len() - k > hashes
                    && b[k + 1..=k + hashes].iter().all(|&c| c == b'#')
                {
                    return Some(Tok {
                        kind: TokKind::Str { inner_start, inner_end: k },
                        start: i,
                        end: k + 1 + hashes,
                    });
                }
                k += 1;
            }
            return Some(Tok {
                kind: TokKind::Str { inner_start, inner_end: b.len() },
                start: i,
                end: b.len(),
            });
        }
        // Raw identifier `r#ident` (only with exactly one hash and an
        // identifier start following).
        if hashes == 1 && b[i] == b'r' && j < b.len() && is_ident_start(b[j]) {
            let mut k = j;
            while k < b.len() && is_ident_cont(b[k]) {
                k += 1;
            }
            return Some(Tok { kind: TokKind::Ident, start: i, end: k });
        }
    }
    None
}

/// Lex a `"…"` string at the opening quote, honouring `\` escapes.
fn lex_string(b: &[u8], open: usize) -> Tok {
    let inner_start = open + 1;
    let mut i = inner_start;
    while i < b.len() {
        match b[i] {
            b'\\' if i + 1 < b.len() => i += 2,
            b'"' => {
                return Tok {
                    kind: TokKind::Str { inner_start, inner_end: i },
                    start: open,
                    end: i + 1,
                }
            }
            _ => i += 1,
        }
    }
    Tok { kind: TokKind::Str { inner_start, inner_end: b.len() }, start: open, end: b.len() }
}

/// Length in bytes of the UTF-8 character starting with `lead`.
fn utf8_len(lead: u8) -> usize {
    match lead {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 1,
    }
}

/// Disambiguate `'` into a char literal, a lifetime, or bare punctuation:
/// an escape or a single scalar followed by a closing quote is a char
/// literal; an identifier start is a lifetime; anything else is
/// punctuation.
fn lex_quote(b: &[u8], i: usize) -> Tok {
    if i + 1 >= b.len() {
        return Tok { kind: TokKind::Punct(b'\''), start: i, end: i + 1 };
    }
    // Escaped char literal: '\n', '\\', '\'', '\u{…}'.
    if b[i + 1] == b'\\' {
        // Skip the escaped character unconditionally (it may be `'`), then
        // scan to the closing quote.
        let mut j = i + 2;
        if j < b.len() && b[j] != b'\n' {
            j += 1;
        }
        while j < b.len() && b[j] != b'\'' && b[j] != b'\n' {
            j += 1;
        }
        let (inner_end, end) = if j < b.len() && b[j] == b'\'' { (j, j + 1) } else { (j, j) };
        return Tok {
            kind: TokKind::Char { inner_start: i + 1, inner_end },
            start: i,
            end: end.max(i + 1),
        };
    }
    // Plain char literal: exactly one scalar, closing quote at a position
    // fixed by its UTF-8 length.
    let len = utf8_len(b[i + 1]);
    let close = i + 1 + len;
    if b[i + 1] != b'\'' && close < b.len() && b[close] == b'\'' {
        return Tok {
            kind: TokKind::Char { inner_start: i + 1, inner_end: close },
            start: i,
            end: close + 1,
        };
    }
    // Lifetime: quote followed by an identifier start (and, per the check
    // above, not a `'x'` literal).
    if is_ident_start(b[i + 1]) {
        let mut j = i + 1;
        while j < b.len() && is_ident_cont(b[j]) {
            j += 1;
        }
        return Tok { kind: TokKind::Lifetime, start: i, end: j };
    }
    Tok { kind: TokKind::Punct(b'\''), start: i, end: i + 1 }
}

/// Derive the comment/literal mask from the token stream. Comments are
/// blanked wholly; string/char literals keep their delimiters and blank
/// their interiors; newlines always survive so line numbers do.
pub fn mask_via_tokens(src: &str) -> String {
    let mut out = src.as_bytes().to_vec();
    let blank = |out: &mut [u8], from: usize, to: usize| {
        for m in &mut out[from..to] {
            if *m != b'\n' {
                *m = b' ';
            }
        }
    };
    for tok in lex(src) {
        match tok.kind {
            TokKind::Comment => blank(&mut out, tok.start, tok.end),
            TokKind::Str { inner_start, inner_end } | TokKind::Char { inner_start, inner_end } => {
                blank(&mut out, inner_start, inner_end)
            }
            _ => {}
        }
    }
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Byte ranges of `source` (masked) that belong to test code: the block
/// following a `#[cfg(test)]` or `#[test]` attribute. Brace matching runs
/// on the masked text, so braces in strings/comments cannot desynchronize
/// it.
pub fn test_regions(masked: &str) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    for marker in ["#[cfg(test)]", "#[test]"] {
        let mut from = 0;
        while let Some(rel) = masked[from..].find(marker) {
            let at = from + rel;
            from = at + marker.len();
            if let Some(open_rel) = masked[from..].find('{') {
                let open = from + open_rel;
                let close = matching_brace(masked.as_bytes(), open);
                regions.push((at, close));
            }
        }
    }
    regions.sort_unstable();
    regions
}

/// Index just past the brace matching the `{` at `open` (or end of input).
fn matching_brace(b: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
    }
    b.len()
}

/// True when byte offset `at` falls inside any of `regions`.
pub fn in_regions(regions: &[(usize, usize)], at: usize) -> bool {
    regions.iter().any(|&(s, e)| at >= s && at < e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokKind> {
        lex(src).into_iter().map(|t| t.kind).collect()
    }

    fn texts(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|t| t.text(src).to_owned()).collect()
    }

    #[test]
    fn idents_keywords_and_puncts() {
        let src = "fn foo(x: u32) -> u32 { x + 1 }";
        let t = texts(src);
        assert_eq!(t[0], "fn");
        assert_eq!(t[1], "foo");
        assert!(t.contains(&"-".to_owned()) && t.contains(&">".to_owned()));
        assert!(kinds(src).contains(&TokKind::Num));
    }

    #[test]
    fn strings_carry_inner_spans() {
        let src = r#"call("ab\"cd", x)"#;
        let toks = lex(src);
        let s = toks.iter().find(|t| matches!(t.kind, TokKind::Str { .. })).unwrap();
        if let TokKind::Str { inner_start, inner_end } = s.kind {
            assert_eq!(&src[inner_start..inner_end], "ab\\\"cd");
        }
        // The identifier after the string survives.
        assert!(toks.iter().any(|t| t.is_ident(src, "x")));
    }

    #[test]
    fn raw_strings_any_hash_depth() {
        let src = r####"let s = r##"panic!("x")"## ; done"####;
        let toks = lex(src);
        let s = toks.iter().find(|t| matches!(t.kind, TokKind::Str { .. })).unwrap();
        if let TokKind::Str { inner_start, inner_end } = s.kind {
            assert_eq!(&src[inner_start..inner_end], "panic!(\"x\")");
        }
        assert!(toks.iter().any(|t| t.is_ident(src, "done")));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let src = "let a = b\"bytes\"; let c = b'x';";
        let toks = lex(src);
        assert_eq!(toks.iter().filter(|t| matches!(t.kind, TokKind::Str { .. })).count(), 1);
        assert_eq!(toks.iter().filter(|t| matches!(t.kind, TokKind::Char { .. })).count(), 1);
    }

    #[test]
    fn ident_prefix_does_not_start_raw_string() {
        // `har` is one identifier; the following string is plain.
        let src = "har\"x\"";
        let toks = lex(src);
        assert!(toks[0].is_ident(src, "har"));
        assert!(matches!(toks[1].kind, TokKind::Str { .. }));
    }

    #[test]
    fn raw_identifiers() {
        let src = "let r#type = 1;";
        let toks = lex(src);
        assert!(toks.iter().any(|t| t.kind == TokKind::Ident && t.text(src) == "r#type"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = '{'; let e = '\\n'; let q = '\\''; }";
        let toks = lex(src);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(), 2);
        assert_eq!(toks.iter().filter(|t| matches!(t.kind, TokKind::Char { .. })).count(), 3);
    }

    #[test]
    fn nested_block_comments_are_one_token() {
        let src = "a /* x /* y */ z */ b";
        let toks = lex(src);
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[1].kind, TokKind::Comment);
        assert!(toks[2].is_ident(src, "b"));
    }

    #[test]
    fn unterminated_forms_extend_to_eof() {
        assert_eq!(kinds("/* open").last(), Some(&TokKind::Comment));
        assert!(matches!(kinds("\"open").last(), Some(TokKind::Str { .. })));
        assert!(matches!(kinds("r#\"open").last(), Some(TokKind::Str { .. })));
    }

    #[test]
    fn numbers_do_not_eat_range_operators() {
        let src = "for i in 0..10 { a[i] = 1.5; }";
        let toks = lex(src);
        let nums: Vec<&str> =
            toks.iter().filter(|t| t.kind == TokKind::Num).map(|t| t.text(src)).collect();
        assert_eq!(nums, vec!["0", "10", "1.5"]);
    }

    #[test]
    fn line_comments_are_blanked() {
        let m = mask_via_tokens("let x = 1; // calls .unwrap() here\nlet y = 2;");
        assert!(!m.contains("unwrap"));
        assert!(m.contains("let y = 2;"));
        assert_eq!(m.lines().count(), 2);
    }

    #[test]
    fn nested_block_comments() {
        let m = mask_via_tokens("a /* outer /* inner */ still comment */ b");
        assert!(m.starts_with("a "));
        assert!(m.ends_with(" b"));
        assert!(!m.contains("inner"));
        assert!(!m.contains("still"));
    }

    #[test]
    fn strings_and_escapes_are_blanked() {
        let m = mask_via_tokens(r#"call("has .unwrap() and \" quote", x)"#);
        assert!(!m.contains("unwrap"));
        assert!(m.contains("call("));
        assert!(m.contains(", x)"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let m = mask_via_tokens(r##"let s = r#"panic!("inside")"# ; done"##);
        assert!(!m.contains("panic"));
        assert!(m.contains("done"));
        let m = mask_via_tokens("let s = br\"panic!()\"; done");
        assert!(!m.contains("panic"));
    }

    #[test]
    fn char_literals_masked_but_lifetimes_survive() {
        let m = mask_via_tokens("fn f<'a>(x: &'a str) { let c = '{'; let e = '\\n'; }");
        assert!(m.contains("<'a>"), "lifetime mangled: {m}");
        assert!(m.contains("&'a str"));
        assert!(!m.contains("'{'"), "char literal survived: {m}");
        // The masked brace no longer unbalances brace matching.
        assert_eq!(m.matches('{').count(), 1);
    }

    #[test]
    fn escaped_quote_char_literal() {
        // '\'' must consume the escaped quote and close on the *next* one.
        let m = mask_via_tokens(r"let q = '\''; after()");
        assert!(m.contains("after()"), "scan desynced: {m}");
        assert_eq!(m.len(), r"let q = '\''; after()".len());
        assert!(!m.contains('\\'), "escape body must be blanked: {m}");
    }

    #[test]
    fn ident_tail_r_or_b_is_not_a_literal_prefix() {
        // The `r` in `attr` / `b` in `sub` must not give the following
        // string raw-string semantics (escapes would stop working).
        let m = mask_via_tokens(r#"attr"pa\"nic", sub"un\"wrap", done"#);
        assert!(!m.contains("pa"), "{m}");
        assert!(!m.contains("nic"), "{m}");
        assert!(!m.contains("wrap"), "{m}");
        assert!(m.contains("done"), "{m}");
    }

    #[test]
    fn multiline_strings_preserve_line_numbers() {
        let src = "let s = \"line one\nline two\";\nafter();";
        let m = mask_via_tokens(src);
        assert_eq!(m.lines().count(), src.lines().count());
        assert!(m.contains("after();"));
        assert!(!m.contains("line one"));
    }

    #[test]
    fn test_region_covers_cfg_test_mod() {
        let src = "fn prod() { a.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { b.unwrap(); }\n}\nfn tail() {}";
        let masked = mask_via_tokens(src);
        let regions = test_regions(&masked);
        assert_eq!(regions.len(), 1);
        let prod_at = src.find("a.unwrap").unwrap();
        let test_at = src.find("b.unwrap").unwrap();
        let tail_at = src.find("tail").unwrap();
        assert!(!in_regions(&regions, prod_at));
        assert!(in_regions(&regions, test_at));
        assert!(!in_regions(&regions, tail_at));
    }

    #[test]
    fn test_attribute_covers_single_fn() {
        let src = "#[test]\nfn one() { x.unwrap(); }\nfn two() { y.unwrap(); }";
        let masked = mask_via_tokens(src);
        let regions = test_regions(&masked);
        assert!(in_regions(&regions, src.find("x.unwrap").unwrap()));
        assert!(!in_regions(&regions, src.find("y.unwrap").unwrap()));
    }

    #[test]
    fn braces_inside_strings_do_not_desync_regions() {
        let src = "#[cfg(test)]\nmod tests {\n let s = \"}\";\n fn t() { z.unwrap(); }\n}\nfn prod() { w.unwrap(); }";
        let masked = mask_via_tokens(src);
        let regions = test_regions(&masked);
        assert!(in_regions(&regions, src.find("z.unwrap").unwrap()));
        assert!(!in_regions(&regions, src.find("w.unwrap").unwrap()));
    }
}
