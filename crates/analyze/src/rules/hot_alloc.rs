//! Rule family 3: hot-path allocation.
//!
//! PR 5 made the steady-state backward + optimizer path perform zero
//! heap allocations, and a counting-allocator CI gate pins the measured
//! count. That gate is *dynamic*: it only sees code the benchmark
//! executes. This rule is the static complement — functions named in
//! the checked-in manifest (`crates/analyze/hotpath.manifest`: the tape
//! `backward_with`, the fused optimizers, the in-place
//! `*_acc`/`*_assign`/`*_into` kernel family) must not contain
//! allocating constructs at all, so an allocation on a branch the bench
//! never takes is still caught.
//!
//! Banned inside a manifest function body: `vec![..]`, `format!(..)`,
//! `Vec::...`, `Box::...`, `String::...`, `Matrix::zeros`/`ones`/
//! `filled`/`from_vec`/`from_elem`, and the methods `.clone()`,
//! `.collect()`, `.to_vec()`, `.to_string()`, `.to_owned()`. Arena
//! checkouts are *not* banned: recycling through the arena is the
//! sanctioned way for hot code to obtain storage.

use crate::config::ManifestEntry;
use crate::lexer::{Tok, TokKind};
use crate::report::Finding;

/// Macro and path-based constructors that always allocate.
const BANNED_PATH_ROOTS: &[&str] = &["Vec", "Box", "String"];
const BANNED_MATRIX_CTORS: &[&str] = &["zeros", "ones", "filled", "from_vec", "from_elem"];
const BANNED_MACROS: &[&str] = &["vec", "format"];
const BANNED_METHODS: &[&str] = &["clone", "collect", "to_vec", "to_string", "to_owned"];

/// Runs the hot-alloc rule over one file for the manifest entries that
/// name it.
pub fn check(file: &str, tokens: &[Tok], entries: &[&ManifestEntry]) -> Vec<Finding> {
    let toks: Vec<&Tok> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut findings = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn") && i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            if entries.iter().any(|e| e.matches(&name)) {
                if let Some((body_start, body_end)) = body_range(&toks, i + 2) {
                    scan_body(file, &name, &toks[body_start..body_end], &mut findings);
                    // Continue *after the signature*, not after the body:
                    // nested fns inside the body are their own defs, but
                    // the outer scan already covered their tokens.
                    i = body_end;
                    continue;
                }
            }
        }
        i += 1;
    }
    findings
}

/// Whether the token stream defines a `fn` that `entry` names. An
/// entry matching none is stale: it would keep nothing allocation-free.
pub fn matches_any_fn(tokens: &[Tok], entry: &ManifestEntry) -> bool {
    let toks: Vec<&Tok> = tokens.iter().filter(|t| !t.is_comment()).collect();
    toks.windows(2).any(|w| w[0].is_ident("fn") && w[1].kind == TokKind::Ident && entry.matches(&w[1].text))
}

/// Token range (exclusive of braces) of the fn body whose signature
/// starts at `from`: the first `{` outside parentheses, brace-matched
/// to its close.
fn body_range(toks: &[&Tok], from: usize) -> Option<(usize, usize)> {
    let mut paren = 0i32;
    let mut j = from;
    while j < toks.len() {
        let t = toks[j];
        if t.kind == TokKind::Punct {
            match t.ch {
                '(' => paren += 1,
                ')' => paren -= 1,
                '{' if paren == 0 => break,
                ';' if paren == 0 => return None, // trait method decl, no body
                _ => {}
            }
        }
        j += 1;
    }
    if j >= toks.len() {
        return None;
    }
    let start = j + 1;
    let mut depth = 1i32;
    let mut k = start;
    while k < toks.len() && depth > 0 {
        if toks[k].kind == TokKind::Punct {
            match toks[k].ch {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        k += 1;
    }
    Some((start, k.saturating_sub(1)))
}

fn scan_body(file: &str, fn_name: &str, body: &[&Tok], findings: &mut Vec<Finding>) {
    let mut push = |line: u32, what: String| {
        findings.push(Finding {
            file: file.to_string(),
            line,
            rule: "hot-alloc",
            message: format!(
                "{what} allocates inside hot-path fn `{fn_name}` (named in {}); \
                 use arena checkouts or in-place kernels",
                crate::config::Config::MANIFEST_PATH
            ),
        });
    };
    for i in 0..body.len() {
        let t = body[i];
        if t.kind != TokKind::Ident && !(t.kind == TokKind::Punct && t.ch == '.') {
            continue;
        }
        // `vec![`, `format!(`
        if t.kind == TokKind::Ident
            && BANNED_MACROS.contains(&t.text.as_str())
            && body.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            push(t.line, format!("`{}!`", t.text));
        }
        // `Vec::`, `Box::`, `String::`, `Matrix::zeros` etc.
        if t.kind == TokKind::Ident
            && body.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && body.get(i + 2).is_some_and(|n| n.is_punct(':'))
        {
            let callee = body.get(i + 3).map(|n| n.text.as_str()).unwrap_or("");
            if BANNED_PATH_ROOTS.contains(&t.text.as_str()) {
                push(t.line, format!("`{}::{}`", t.text, callee));
            } else if t.text == "Matrix" && BANNED_MATRIX_CTORS.contains(&callee) {
                push(t.line, format!("`Matrix::{callee}`"));
            }
        }
        // `.clone()`, `.collect()`, ...
        if t.kind == TokKind::Punct
            && t.ch == '.'
            && body.get(i + 1).is_some_and(|n| {
                n.kind == TokKind::Ident && BANNED_METHODS.contains(&n.text.as_str())
            })
            && body.get(i + 2).is_some_and(|n| n.is_punct('('))
        {
            push(body[i + 1].line, format!("`.{}()`", body[i + 1].text));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ManifestEntry;
    use crate::lexer::lex;

    fn entries() -> Vec<ManifestEntry> {
        vec![
            ManifestEntry { file: "k.rs".into(), pattern: "*_acc".into() },
            ManifestEntry { file: "k.rs".into(), pattern: "sgd_step".into() },
        ]
    }

    fn run(src: &str) -> Vec<Finding> {
        let es = entries();
        let refs: Vec<&ManifestEntry> = es.iter().collect();
        check("k.rs", &lex(src), &refs)
    }

    #[test]
    fn clone_in_manifest_fn_is_flagged() {
        let f = run("pub fn matmul_acc(d: &mut M, a: &M) {\n    let tmp = a.clone();\n    d.add(&tmp);\n}");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "hot-alloc");
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("matmul_acc"));
    }

    #[test]
    fn vec_macro_and_ctor_flagged() {
        let f = run("fn sgd_step(w: &mut M) {\n    let a = vec![0.0; 4];\n    let b = Vec::with_capacity(3);\n    let m = Matrix::zeros(2, 2);\n}");
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f[0].message.contains("`vec!`"));
        assert!(f[1].message.contains("`Vec::with_capacity`"));
        assert!(f[2].message.contains("`Matrix::zeros`"));
    }

    #[test]
    fn non_manifest_fn_may_allocate() {
        let f = run("pub fn row_dots_with(a: &M) -> M {\n    let out = Matrix::zeros(1, 1);\n    out\n}");
        assert!(f.is_empty());
    }

    #[test]
    fn in_place_body_is_clean() {
        let f = run("pub fn spmm_acc(d: &mut M, a: &M) {\n    for (o, &x) in d.data_mut().iter_mut().zip(a.data()) {\n        *o += x;\n    }\n}");
        assert!(f.is_empty());
    }

    #[test]
    fn allocation_in_comment_or_string_ignored() {
        let f = run("pub fn x_acc(d: &mut M) {\n    // the old path did a.clone() here\n    let s = \"vec![]\";\n    let _ = s;\n}");
        assert!(f.is_empty());
    }

    #[test]
    fn generic_signature_body_found() {
        let f = run("pub fn zip_acc<F: Fn(f32) -> f32>(d: &mut M, f: F) where F: Sync {\n    let t = d.clone();\n}");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn trait_method_decl_without_body_is_skipped() {
        let f = run("trait T { fn frob_acc(&mut self); }\nfn other() { let v = vec![1]; }");
        assert!(f.is_empty());
    }
}
