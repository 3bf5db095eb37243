//! A hand-rolled Rust token scanner: just enough lexing to separate
//! *code* from *comments* and blank out string/char contents, line by
//! line, without pulling in `syn` (the workspace vendors no proc-macro
//! stack and the lint only needs token-level facts).
//!
//! Handled: line comments (`//`, `///`, `//!`), nested block comments,
//! string/byte-string literals with escapes, raw strings (`r#"…"#`, any
//! hash depth), char and byte-char literals, and the lifetime-vs-char
//! ambiguity (`'a` vs `'a'`). String and char *contents* are removed
//! from the code stream but their delimiters are kept, so patterns like
//! `.expect("` remain matchable while `self.expect(b'{', …)` — a method
//! that merely shares the name — does not produce a false `"`.

/// Per-line views of one source file.
pub(crate) struct FileScan {
    /// Code with comments stripped and literal contents blanked.
    pub code: Vec<String>,
    /// Concatenated comment text per line (both `//…` and `/*…*/`).
    pub comments: Vec<String>,
    /// Lines inside a `#[cfg(test)] mod … { … }` region.
    pub in_test: Vec<bool>,
}

impl FileScan {
    /// Number of lines scanned.
    pub(crate) fn lines(&self) -> usize {
        self.code.len()
    }
}

/// Scans one file's source text.
pub(crate) fn scan(src: &str) -> FileScan {
    let chars: Vec<char> = src.chars().collect();
    let mut code: Vec<String> = vec![String::new()];
    let mut comments: Vec<String> = vec![String::new()];
    let newline = |code: &mut Vec<String>, comments: &mut Vec<String>| {
        code.push(String::new());
        comments.push(String::new());
    };

    #[derive(PartialEq)]
    enum St {
        Normal,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
        Chr,
    }
    let mut st = St::Normal;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if st == St::LineComment {
                st = St::Normal;
            }
            newline(&mut code, &mut comments);
            i += 1;
            continue;
        }
        let line = code.len() - 1;
        match st {
            St::Normal => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    st = St::LineComment;
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    st = St::BlockComment(1);
                    i += 2;
                    continue;
                }
                if c == '"' {
                    // Plain or byte string; the `b`/`r` prefix, if any, was
                    // already emitted as code.
                    code[line].push('"');
                    // `r"` / `r#"` raw strings: look back over emitted code
                    // for the prefix to learn the hash count.
                    let mut hashes = 0;
                    let mut j = i;
                    while j > 0 && chars[j - 1] == '#' {
                        hashes += 1;
                        j -= 1;
                    }
                    let is_raw = (j > 0
                        && chars[j - 1] == 'r'
                        && !(j >= 2 && (chars[j - 2].is_alphanumeric() || chars[j - 2] == '_')))
                        || (j >= 2
                            && chars[j - 1] == 'r'
                            && chars[j - 2] == 'b'
                            && !(j >= 3
                                && (chars[j - 3].is_alphanumeric() || chars[j - 3] == '_')));
                    st = if is_raw { St::RawStr(hashes) } else { St::Str };
                    i += 1;
                    continue;
                }
                if c == '\'' {
                    // Char literal or lifetime? A char literal closes with a
                    // quote after one (possibly escaped) character.
                    if next == Some('\\') {
                        code[line].push('\'');
                        st = St::Chr;
                        i += 3; // skip quote, backslash, AND the escaped
                                // char, so `'\''` closes at the right quote
                        continue;
                    }
                    if next.is_some() && chars.get(i + 2).copied() == Some('\'') {
                        code[line].push_str("''");
                        i += 3;
                        continue;
                    }
                    // Lifetime (or `'static` etc.): emit and move on.
                    code[line].push('\'');
                    i += 1;
                    continue;
                }
                code[line].push(c);
                i += 1;
            }
            St::LineComment => {
                comments[line].push(c);
                i += 1;
            }
            St::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    st = St::BlockComment(depth + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        St::Normal
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    i += 2;
                } else {
                    comments[line].push(c);
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    // A `\` before a physical newline is a line
                    // continuation; the skipped newline must still
                    // advance the line streams or every later finding
                    // points at the wrong line.
                    if chars.get(i + 1) == Some(&'\n') {
                        newline(&mut code, &mut comments);
                    }
                    i += 2; // skip the escaped char (even a quote)
                } else if c == '"' {
                    code[line].push('"');
                    st = St::Normal;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' && (0..hashes).all(|k| chars.get(i + 1 + k) == Some(&'#')) {
                    code[line].push('"');
                    st = St::Normal;
                    i += 1 + hashes;
                } else {
                    i += 1;
                }
            }
            St::Chr => {
                if c == '\\' {
                    i += 2;
                } else if c == '\'' {
                    code[line].push('\'');
                    st = St::Normal;
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }

    let in_test = mark_test_regions(&code);
    FileScan {
        code,
        comments,
        in_test,
    }
}

/// Marks the brace-matched body of every `#[cfg(test)] mod …` item (the
/// idiomatic unit-test module) so lint rules can skip test-only code.
fn mark_test_regions(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut line = 0;
    while line < code.len() {
        if !code[line].contains("#[cfg(test)]") {
            line += 1;
            continue;
        }
        // The attribute must introduce a `mod` (same line or within the
        // next two); `#[cfg(test)]` on a `use` or `fn` is left alone.
        let mod_line = (line..code.len().min(line + 3)).find(|&l| {
            code[l]
                .split(|ch: char| !ch.is_alphanumeric() && ch != '_')
                .any(|w| w == "mod")
        });
        let Some(start) = mod_line else {
            line += 1;
            continue;
        };
        // Brace-match from the module's opening brace.
        let mut depth = 0i64;
        let mut opened = false;
        let mut l = start;
        while l < code.len() {
            for ch in code[l].chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            in_test[l] = true;
            if opened && depth <= 0 {
                break;
            }
            l += 1;
        }
        in_test[line] = true;
        line = l + 1;
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_split_from_code() {
        let s = scan("let x = 1; // trailing note\n/* block */ let y = 2;\n");
        assert_eq!(s.code[0].trim(), "let x = 1;");
        assert!(s.comments[0].contains("trailing note"));
        assert_eq!(s.code[1].trim(), "let y = 2;");
        assert!(s.comments[1].contains("block"));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let s = scan("/* a /* b */ c */ let z = 3;\n");
        assert_eq!(s.code[0].trim(), "let z = 3;");
    }

    #[test]
    fn string_contents_are_blanked_but_delimiters_kept() {
        let s = scan("call(\"// not a comment\", '\\n', b'{');\n");
        assert_eq!(s.code[0], "call(\"\", '', b'');");
        assert!(s.comments[0].is_empty());
    }

    #[test]
    fn raw_strings_hide_their_contents() {
        let s = scan("let r = r#\"has \" quote and // slashes\"#; done();\n");
        assert!(s.code[0].contains("done();"));
        assert!(!s.code[0].contains("slashes"));
        assert!(s.comments[0].is_empty());
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let s = scan("fn f<'a>(x: &'a str) -> &'a str { x }\n");
        assert!(s.code[0].contains("fn f<'a>(x: &'a str)"));
    }

    #[test]
    fn escaped_quote_char_literal_does_not_derail() {
        let s = scan("let q = '\\''; after();\n");
        assert!(s.code[0].contains("after();"));
    }

    #[test]
    fn string_line_continuations_keep_line_numbers() {
        let s = scan("let m = \"a\\\n   b\\\n   c\";\nafter();\n");
        assert_eq!(s.lines(), 5); // 4 source lines + trailing empty
        assert!(s.code[3].contains("after();"));
    }

    #[test]
    fn cfg_test_mod_region_is_marked() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let s = scan(src);
        assert!(!s.in_test[0]);
        assert!(s.in_test[1] && s.in_test[2] && s.in_test[3] && s.in_test[4]);
        assert!(!s.in_test[5]);
    }

    #[test]
    fn cfg_test_on_a_use_is_not_a_region() {
        let s = scan("#[cfg(test)]\nuse std::fmt;\nfn prod() {}\n");
        assert!(!s.in_test[2]);
    }
}
