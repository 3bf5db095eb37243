//! The workspace lint rules.
//!
//! Six concurrency-hygiene checks over the scanner's per-line
//! code/comment streams (see `scan.rs`); `#[cfg(test)] mod` regions and
//! `tests/` / `benches/` trees are exempt. Findings are machine-readable
//! (`--format json`) and any finding fails the run — the rules encode
//! review policy, not style taste:
//!
//! * `safety-comment` — every `unsafe` token carries a `SAFETY:` comment
//!   (same line or within the 5 lines above).
//! * `ordering-comment` — every non-`SeqCst` atomic ordering
//!   (`Relaxed` / `Acquire` / `Release` / `AcqRel`) carries an
//!   `ORDERING:` comment explaining why that strength suffices. `SeqCst`
//!   is exempt: it is the conservative default, the others are claims.
//! * `server-no-panic` — no `.unwrap()` / `.expect("…")` in
//!   `crates/server/src` (the request path) or `crates/reuse/src` (the
//!   reuse cache runs inside that path): a panic there kills a
//!   connection handler, not a test.
//! * `engine-no-sleep` — no `thread::sleep` in `crates/engine/src` hot
//!   paths; blocking a pool worker stalls a whole partition.
//! * `contiguous-mask` — every literal way-mask (`WayMask::new(0x…)` or
//!   a `const …MASK… = 0x…`) is non-empty and contiguous, the CAT
//!   hardware constraint `schemata` writes must satisfy.
//! * `signal-safe` — every non-test `extern "C" fn` *definition* in the
//!   workspace (the server's SIGINT handler and anything shaped like
//!   one) carries an `// ASYNC-SIGNAL-SAFE:` comment, and its body is
//!   free of tokens that allocate, lock or panic (`format!`, `Box::new`,
//!   `.lock(`, `.unwrap()`, …) — none of which are async-signal-safe.
//!   Foreign declarations and `extern "C" fn(i32)` pointer types are not
//!   definitions.
//! * `verify-annotated` — model-check harnesses in
//!   `crates/verify/tests/` declare each step's access set with
//!   `then_accessing(…)`; a bare `then(…)` silently pins the step to
//!   "conflicts with everything", so it needs an `// UNANNOTATED:`
//!   comment justifying why no access set is declarable (the only lint
//!   scope inside a `tests/` tree — harness files are exempt from the
//!   hygiene rules above but not from this one).

use crate::scan::{scan, FileScan};
use std::fmt;
use std::path::{Path, PathBuf};

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Finding {
    /// Stable rule identifier.
    pub rule: &'static str,
    /// File the violation is in (as given to the walker).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

impl Finding {
    /// Serializes the finding as one JSON object (hand-rolled; findings
    /// contain no exotic characters beyond what `escape` covers).
    pub(crate) fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.chars()
                .flat_map(|c| match c {
                    '"' => "\\\"".chars().collect::<Vec<_>>(),
                    '\\' => "\\\\".chars().collect(),
                    '\n' => "\\n".chars().collect(),
                    c => vec![c],
                })
                .collect()
        }
        format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            self.rule,
            esc(&self.file),
            self.line,
            esc(&self.message)
        )
    }
}

/// How many *code-bearing* lines above a site an annotation comment may
/// sit; comment-only and blank lines don't consume the budget, so a
/// multi-line justification doesn't push itself out of its own window.
const ANNOTATION_WINDOW: usize = 5;

/// True when `needle` occurs in `hay` as a whole word (neither neighbor
/// is an identifier character).
fn has_word(hay: &str, needle: &str) -> bool {
    let bytes = hay.as_bytes();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let pre_ok = start == 0 || {
            let b = bytes[start - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let post_ok = end >= bytes.len() || {
            let b = bytes[end];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

/// True when a comment on `line`, or above it within
/// [`ANNOTATION_WINDOW`] code-bearing lines, contains `tag`.
fn annotated(scan: &FileScan, line: usize, tag: &str) -> bool {
    if scan.comments[line].contains(tag) {
        return true;
    }
    let mut budget = ANNOTATION_WINDOW;
    for l in (0..line).rev() {
        if scan.comments[l].contains(tag) {
            return true;
        }
        if !scan.code[l].trim().is_empty() {
            budget -= 1;
            if budget == 0 {
                return false;
            }
        }
    }
    false
}

/// Extracts the integer literal starting at `code[at..]` (skipping
/// leading whitespace); returns `None` when the next token is not a
/// literal (e.g. a variable).
fn int_literal_after(code: &str, at: usize) -> Option<u64> {
    let rest = code[at..].trim_start();
    let (radix, digits) = if let Some(h) = rest.strip_prefix("0x").or(rest.strip_prefix("0X")) {
        (16, h)
    } else if let Some(b) = rest.strip_prefix("0b") {
        (2, b)
    } else {
        (10, rest)
    };
    let tok: String = digits
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .filter(|c| *c != '_')
        .collect();
    // Strip a type suffix like `u32` if present.
    let tok = tok
        .find(|c: char| !c.is_digit(radix))
        .map(|i| &tok[..i])
        .unwrap_or(&tok);
    if tok.is_empty() {
        return None;
    }
    u64::from_str_radix(tok, radix).ok()
}

fn mask_is_contiguous(bits: u64) -> bool {
    if bits == 0 {
        return false;
    }
    let shifted = bits >> bits.trailing_zeros();
    shifted & (shifted + 1) == 0
}

/// Tokens forbidden inside a signal-handler body: each one allocates,
/// takes a lock, or can panic — all undefined behaviour (or a deadlock
/// waiting to happen) when the interrupted thread holds the allocator
/// or a mutex the handler then re-enters.
const SIGNAL_UNSAFE_TOKENS: &[&str] = &[
    "format!",
    "println!",
    "eprintln!",
    "panic!",
    "String::",
    ".to_string(",
    "Vec::",
    "vec!",
    "Box::new",
    ".lock(",
    ".unwrap()",
    ".expect(\"",
    "Mutex",
    "RwLock",
];

/// True when `code` defines an `extern "C" fn`: the ABI string and `fn`
/// followed by a name. A function-pointer type (`extern "C" fn(i32)`)
/// has no name, and a foreign declaration inside `extern "C" { … }`
/// is a plain `fn`. The scanner blanks string contents, so any ABI
/// string appears as `extern "" fn` in the code stream.
fn defines_extern_fn(code: &str) -> bool {
    code.match_indices("extern \"\" fn").any(|(at, m)| {
        let rest = &code[at + m.len()..];
        rest.starts_with(char::is_whitespace)
            && rest
                .trim_start()
                .starts_with(|c: char| c.is_alphabetic() || c == '_')
    })
}

/// The `signal-safe` rule: every `extern "C" fn` definition must be
/// annotated `// ASYNC-SIGNAL-SAFE:` (stating the argument for
/// why every operation in it is safe in signal context), and its body —
/// tracked by brace depth from the signature to the matching close —
/// must not contain any [`SIGNAL_UNSAFE_TOKENS`].
fn signal_safe_findings(path: &str, scan_result: &FileScan) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut line = 0;
    while line < scan_result.lines() {
        if scan_result.in_test[line] || !defines_extern_fn(&scan_result.code[line]) {
            line += 1;
            continue;
        }
        if !annotated(scan_result, line, "ASYNC-SIGNAL-SAFE:") {
            findings.push(Finding {
                rule: "signal-safe",
                file: path.to_string(),
                line: line + 1,
                message: "`extern \"C\" fn` without an `// ASYNC-SIGNAL-SAFE:` comment arguing \
                          every operation is legal in signal context"
                    .into(),
            });
        }
        // Walk the handler body: from the signature line to the brace
        // that closes it, every line is signal context.
        let mut depth = 0usize;
        let mut entered = false;
        let mut l = line;
        while l < scan_result.lines() {
            let body = &scan_result.code[l];
            for tok in SIGNAL_UNSAFE_TOKENS {
                if body.contains(tok) {
                    findings.push(Finding {
                        rule: "signal-safe",
                        file: path.to_string(),
                        line: l + 1,
                        message: format!(
                            "`{tok}` inside a signal handler — allocation, locking and \
                             panicking are not async-signal-safe"
                        ),
                    });
                }
            }
            for ch in body.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        entered = true;
                    }
                    '}' => depth = depth.saturating_sub(1),
                    _ => {}
                }
            }
            if entered && depth == 0 {
                break;
            }
            l += 1;
        }
        line = l + 1;
    }
    findings
}

/// The `verify-annotated` rule: a bare `.then(` in a verify harness
/// means the step's dependency footprint was never declared — DPOR then
/// serializes it against every other step. Either annotate the access
/// set with `then_accessing(…)` or justify the default with an
/// `// UNANNOTATED:` comment (steps driving real threads, for example,
/// have no declarable read/write set).
fn verify_annotated_findings(path: &str, scan_result: &FileScan) -> Vec<Finding> {
    let mut findings = Vec::new();
    for line in 0..scan_result.lines() {
        if scan_result.code[line].contains(".then(")
            && !annotated(scan_result, line, "UNANNOTATED:")
        {
            findings.push(Finding {
                rule: "verify-annotated",
                file: path.to_string(),
                line: line + 1,
                message: "bare `then(…)` in a model-check harness — declare the step's access \
                          set with `then_accessing(…)` so DPOR can exploit independence, or \
                          justify conflicts-with-everything with an `// UNANNOTATED:` comment"
                    .into(),
            });
        }
    }
    findings
}

/// Runs every rule over one scanned file. `path` decides rule scope.
pub(crate) fn lint_file(path: &str, scan_result: &FileScan) -> Vec<Finding> {
    let mut findings = Vec::new();
    let norm = path.replace('\\', "/");
    // Harness files are whole-file test code: the concurrency-hygiene
    // rules below don't apply there, the annotation discipline does.
    if norm.contains("crates/verify/tests") {
        return verify_annotated_findings(path, scan_result);
    }
    // The reuse cache executes inside the server's request path, so it
    // inherits the same no-panic discipline.
    let in_server_src = norm.contains("crates/server/src") || norm.contains("crates/reuse/src");
    let in_engine_src = norm.contains("crates/engine/src");
    findings.extend(signal_safe_findings(path, scan_result));
    let finding = |rule, line, message: String| Finding {
        rule,
        file: path.to_string(),
        line: line + 1,
        message,
    };

    for line in 0..scan_result.lines() {
        if scan_result.in_test[line] {
            continue;
        }
        let code = &scan_result.code[line];

        if has_word(code, "unsafe") && !annotated(scan_result, line, "SAFETY:") {
            findings.push(finding(
                "safety-comment",
                line,
                "`unsafe` without a `// SAFETY:` comment justifying the invariants".into(),
            ));
        }

        for ord in ["Relaxed", "Acquire", "Release", "AcqRel"] {
            if code.contains(&format!("Ordering::{ord}"))
                && !annotated(scan_result, line, "ORDERING:")
            {
                findings.push(finding(
                    "ordering-comment",
                    line,
                    format!(
                        "`Ordering::{ord}` without a `// ORDERING:` comment explaining why \
                         this strength suffices"
                    ),
                ));
                break; // one finding per line, not per ordering token
            }
        }

        if in_server_src {
            if code.contains(".unwrap()") {
                findings.push(finding(
                    "server-no-panic",
                    line,
                    "`.unwrap()` in the request path — return an error instead".into(),
                ));
            }
            // `.expect("` only: `self.expect(b'{', …)` (the JSON parser's
            // own method) takes a byte literal, not a string.
            if code.contains(".expect(\"") {
                findings.push(finding(
                    "server-no-panic",
                    line,
                    "`.expect(…)` in the request path — return an error instead".into(),
                ));
            }
        }

        if in_engine_src && code.contains("thread::sleep") {
            findings.push(finding(
                "engine-no-sleep",
                line,
                "`thread::sleep` in an engine hot path blocks a pool worker".into(),
            ));
        }

        let mut from = 0;
        while let Some(pos) = code[from..].find("WayMask::new(") {
            let at = from + pos + "WayMask::new(".len();
            if let Some(bits) = int_literal_after(code, at) {
                if !mask_is_contiguous(bits) {
                    findings.push(finding(
                        "contiguous-mask",
                        line,
                        format!(
                            "way-mask literal {bits:#x} is {} — CAT schemata masks must be \
                             one contiguous run of set bits",
                            if bits == 0 { "empty" } else { "non-contiguous" }
                        ),
                    ));
                }
            }
            from = at;
        }
        // `const PAPER_POLLUTER_MASK: u32 = 0x3;` style definitions.
        if let Some(pos) = code.find("const ") {
            let rest = &code[pos..];
            if let Some(eq) = rest.find('=') {
                let name = &rest[..eq];
                if name.contains("MASK") {
                    if let Some(bits) = int_literal_after(rest, eq + 1) {
                        if !mask_is_contiguous(bits) {
                            findings.push(finding(
                                "contiguous-mask",
                                line,
                                format!(
                                    "mask constant {bits:#x} is {} — CAT schemata masks must \
                                     be one contiguous run of set bits",
                                    if bits == 0 { "empty" } else { "non-contiguous" }
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
    findings
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", ".git", "tests", "benches"];

/// Collects every `.rs` file under `roots`, skipping [`SKIP_DIRS`].
pub(crate) fn collect_rs_files(roots: &[PathBuf]) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack: Vec<PathBuf> = roots.to_vec();
    while let Some(p) = stack.pop() {
        if p.is_dir() {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&name) && !roots.contains(&p) {
                // `crates/verify/tests` is lint scope (the
                // `verify-annotated` rule); every other tests/ tree —
                // and everything else in SKIP_DIRS — stays exempt.
                let under_verify = p
                    .parent()
                    .and_then(|d| d.file_name())
                    .and_then(|n| n.to_str())
                    == Some("verify");
                if !(name == "tests" && under_verify) {
                    continue;
                }
            }
            for entry in std::fs::read_dir(&p)? {
                stack.push(entry?.path());
            }
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    out.sort();
    Ok(out)
}

/// Lints every `.rs` file under `roots`; `Err` carries I/O problems, a
/// non-empty `Ok` carries the findings.
pub(crate) fn lint_paths(roots: &[PathBuf]) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for file in collect_rs_files(roots)? {
        let src = std::fs::read_to_string(&file)?;
        let scanned = scan(&src);
        findings.extend(lint_file(&file.display().to_string(), &scanned));
    }
    Ok(findings)
}

/// The workspace's default lint roots, relative to the repo root.
pub(crate) fn default_roots(repo_root: &Path) -> Vec<PathBuf> {
    vec![repo_root.join("crates"), repo_root.join("src")]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_src(path: &str, src: &str) -> Vec<Finding> {
        lint_file(path, &scan(src))
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let f = lint_src("crates/x/src/a.rs", "unsafe { do_it() }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "safety-comment");
    }

    #[test]
    fn unsafe_with_safety_comment_passes() {
        let f = lint_src(
            "crates/x/src/a.rs",
            "// SAFETY: the handler only calls async-signal-safe functions.\nunsafe { do_it() }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn forbid_unsafe_code_attribute_is_not_unsafe() {
        let f = lint_src("crates/x/src/a.rs", "#![forbid(unsafe_code)]\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn relaxed_ordering_needs_a_comment_but_seqcst_does_not() {
        let f = lint_src(
            "crates/x/src/a.rs",
            "x.load(Ordering::Relaxed);\ny.load(Ordering::SeqCst);\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "ordering-comment");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn ordering_comment_within_window_passes() {
        let f = lint_src(
            "crates/x/src/a.rs",
            "// ORDERING: monotone counter, no other state depends on it.\n\
             x.fetch_add(1, Ordering::Relaxed);\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unwrap_is_scoped_to_server_src() {
        let src = "let v = m.lock().unwrap();\n";
        assert_eq!(lint_src("crates/server/src/a.rs", src).len(), 1);
        assert!(lint_src("crates/engine/src/a.rs", src).is_empty());
    }

    #[test]
    fn reuse_src_inherits_the_no_panic_rule() {
        // The reuse cache runs inside the server's request path.
        let src = "let v = m.lock().unwrap();\n";
        let f = lint_src("crates/reuse/src/cache.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "server-no-panic");
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let f = lint_src(
            "crates/server/src/a.rs",
            "let v = m.lock().unwrap_or_else(PoisonError::into_inner);\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn expect_method_with_byte_arg_is_not_flagged() {
        // The JSON parser has its own `expect(b'{', …)` — not a panic.
        let f = lint_src("crates/server/src/json.rs", "self.expect(b'{')?;\n");
        assert!(f.is_empty(), "{f:?}");
        let g = lint_src(
            "crates/server/src/json.rs",
            "let v = o.expect(\"present\");\n",
        );
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].rule, "server-no-panic");
    }

    #[test]
    fn sleep_is_scoped_to_engine_src() {
        let src = "std::thread::sleep(Duration::from_millis(1));\n";
        assert_eq!(lint_src("crates/engine/src/a.rs", src).len(), 1);
        assert!(lint_src("crates/server/src/a.rs", src).is_empty());
    }

    #[test]
    fn non_contiguous_and_empty_masks_are_flagged() {
        let f = lint_src("crates/x/src/a.rs", "WayMask::new(0x5)\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "contiguous-mask");
        let g = lint_src("crates/x/src/a.rs", "WayMask::new(0x0)\n");
        assert_eq!(g.len(), 1);
        let ok = lint_src(
            "crates/x/src/a.rs",
            "WayMask::new(0x3); WayMask::new(0xfff0); WayMask::new(bits)\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn mask_constants_are_validated() {
        let f = lint_src("crates/x/src/a.rs", "pub const BAD_MASK: u32 = 0b1010;\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "contiguous-mask");
        let ok = lint_src(
            "crates/x/src/a.rs",
            "pub const PAPER_POLLUTER_MASK: u32 = 0x3;\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn unannotated_signal_handler_is_flagged_in_any_crate() {
        let src = "extern \"C\" fn on_sig(sig: i32) {\n    count(sig);\n}\n";
        for path in [
            "crates/server/src/server.rs",
            "crates/engine/src/a.rs",
            "src/lib.rs",
        ] {
            let f = lint_src(path, src);
            assert_eq!(f.len(), 1, "{path}: {f:?}");
            assert_eq!(f[0].rule, "signal-safe");
            assert!(f[0].message.contains("ASYNC-SIGNAL-SAFE"));
        }
        // `pub` and `unsafe` qualifiers do not hide a definition.
        let f = lint_src(
            "crates/x/src/a.rs",
            "pub unsafe extern \"C\" fn on_sig(_: i32) {}\n",
        );
        assert_eq!(f.iter().filter(|v| v.rule == "signal-safe").count(), 1);
    }

    #[test]
    fn annotated_clean_handler_passes() {
        let src = "// ASYNC-SIGNAL-SAFE: only a store to a static atomic.\n\
                   extern \"C\" fn on_sigint(_signum: i32) {\n    SEEN.store(true, SeqCst);\n}\n";
        let f = lint_src("crates/server/src/server.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn foreign_declaration_is_not_a_handler() {
        let src = "extern \"C\" {\n    \
                   fn signal(signum: i32, handler: extern \"C\" fn(i32)) -> usize;\n}\n";
        let f = lint_src("crates/server/src/server.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn fn_pointer_type_is_not_a_handler() {
        let src = "type Handler = extern \"C\" fn(i32);\n\
                   fn install(h: extern \"C\" fn (i32)) { let _ = format!(\"{h:?}\"); }\n";
        let f = lint_src("crates/x/src/a.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allocation_inside_handler_body_is_flagged() {
        let src = "// ASYNC-SIGNAL-SAFE: it is not, and the lint must say so.\n\
                   extern \"C\" fn on_sig(sig: i32) {\n\
                   \x20   let msg = format!(\"sig {sig}\");\n\
                   \x20   QUEUE.lock(msg);\n\
                   }\n\
                   fn after() { let ok = format!(\"outside\"); }\n";
        let f = lint_src("crates/server/src/server.rs", src);
        // format! and .lock( inside the body fire; the format! *after*
        // the closing brace does not.
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|v| v.rule == "signal-safe"));
        assert_eq!(f[0].line, 3);
        assert_eq!(f[1].line, 4);
    }

    #[test]
    fn test_regions_are_exempt() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); y.load(Ordering::Relaxed); }\n}\n";
        assert!(lint_src("crates/server/src/a.rs", src).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_false_positive() {
        let src = "let s = \"unsafe Ordering::Relaxed .unwrap()\"; // unsafe in prose\n";
        assert!(lint_src("crates/server/src/a.rs", src).is_empty());
    }

    #[test]
    fn json_output_is_well_formed() {
        let f = Finding {
            rule: "safety-comment",
            file: "a \"b\".rs".into(),
            line: 3,
            message: "needs\n`// SAFETY:`".into(),
        };
        assert_eq!(
            f.to_json(),
            "{\"rule\":\"safety-comment\",\"file\":\"a \\\"b\\\".rs\",\"line\":3,\
             \"message\":\"needs\\n`// SAFETY:`\"}"
        );
    }

    #[test]
    fn bare_then_is_flagged_in_verify_tests_only() {
        let src = "let w = Actor::new(\"w\").then(|s: &mut u64| *s += 1);\n";
        let f = lint_src("crates/verify/tests/differential.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "verify-annotated");
        // Outside the harness tree the rule is silent (and `.then(` on
        // futures/options elsewhere is none of our business).
        assert!(lint_src("crates/server/src/a.rs", src).is_empty());
    }

    #[test]
    fn tagged_or_annotated_then_passes_and_hygiene_rules_stay_out() {
        let src = "// UNANNOTATED: drives a real background thread.\n\
                   let w = Actor::new(\"w\").then(step);\n\
                   let v = Actor::new(\"v\").then_accessing(step, &[Access::Write(\"x\")]);\n\
                   x.load(Ordering::Relaxed); y.unwrap();\n";
        // The Relaxed load and unwrap would trip the hygiene rules in
        // src scope; in a harness file only the annotation rule runs.
        let f = lint_src("crates/verify/tests/differential.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn verify_tests_are_walked_despite_the_tests_skip() {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let files = collect_rs_files(&[root]).expect("fixtures readable");
        assert!(
            files
                .iter()
                .any(|p| p.to_string_lossy().contains("verify/tests")),
            "walker must descend into crates/verify/tests: {files:?}"
        );
    }

    #[test]
    fn fixtures_seeded_violations_all_fire() {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let findings = lint_paths(&[root]).expect("fixtures readable");
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        for rule in [
            "safety-comment",
            "ordering-comment",
            "server-no-panic",
            "engine-no-sleep",
            "contiguous-mask",
            "signal-safe",
            "verify-annotated",
        ] {
            assert!(
                rules.contains(&rule),
                "seeded fixture must trip `{rule}`; got {rules:?}"
            );
        }
        // The seeded handler without an annotation is caught as such, not
        // only through the tokens in the other handler's body.
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "signal-safe" && f.message.contains("without an")),
            "the unannotated fixture handler must fire: {findings:?}"
        );
    }

    #[test]
    fn fixtures_clean_file_is_clean() {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let findings = lint_paths(&[root.join("clean.rs")]).expect("fixture readable");
        assert!(findings.is_empty(), "{findings:?}");
        let harness = root.join("crates/verify/tests/clean_annotated.rs");
        let findings = lint_paths(&[harness]).expect("fixture readable");
        assert!(findings.is_empty(), "{findings:?}");
    }
}
