//! A lightweight Rust tokenizer for static analysis.
//!
//! The workspace builds fully offline, so `idf-lint` cannot depend on
//! `syn`/`proc-macro2`. This lexer implements just enough of the Rust
//! lexical grammar for invariant checking to be reliable:
//!
//! * line (`//`) and nested block (`/* */`) comments are captured
//!   separately from code tokens, so rules can match suppression
//!   comments without string literals confusing them;
//! * cooked, raw (`r#"…"#`), byte, and byte-raw string literals, char
//!   literals, and lifetimes are recognized, so an `eval` inside a
//!   string never registers as an identifier;
//! * every token carries its 1-based source line for findings.
//!
//! It deliberately does **not** build a syntax tree: rules operate on the
//! flat token stream plus brace matching, which is robust against the
//! subset of Rust this workspace uses and degrades loudly (token soup
//! simply fails to match a rule pattern) rather than silently.

/// Classification of one code token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers, prefix stripped).
    Ident,
    /// Lifetime such as `'g` (text excludes the quote).
    Lifetime,
    /// Numeric literal.
    Num,
    /// String literal of any flavor; `text` holds the unquoted content.
    Str,
    /// Char or byte literal; `text` holds the raw inner content.
    Char,
    /// Single punctuation character (`text` is that one char).
    Punct,
}

/// One code token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// Token text (see [`TokKind`] for per-kind conventions).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// One comment (line or block) with its covered line range.
#[derive(Debug, Clone)]
pub struct Comment {
    /// First 1-based line of the comment.
    pub line_start: u32,
    /// Last 1-based line of the comment.
    pub line_end: u32,
    /// Comment text without the `//` / `/*` framing.
    pub text: String,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub toks: Vec<Tok>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenize `src`. Never fails: unterminated literals simply consume the
/// rest of the file, which keeps the linter total on malformed fixtures.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;

    // Peek helper closures cannot borrow `i`/`line` mutably, so the loop
    // body manipulates indices directly.
    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let start = i + 2;
            let mut j = start;
            while j < n && chars[j] != '\n' {
                j += 1;
            }
            out.comments.push(Comment {
                line_start: line,
                line_end: line,
                text: chars[start..j].iter().collect(),
            });
            i = j;
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let line_start = line;
            let mut depth = 1usize;
            let mut j = i + 2;
            let mut text = String::new();
            while j < n && depth > 0 {
                if chars[j] == '/' && j + 1 < n && chars[j + 1] == '*' {
                    depth += 1;
                    j += 2;
                    text.push_str("/*");
                    continue;
                }
                if chars[j] == '*' && j + 1 < n && chars[j + 1] == '/' {
                    depth -= 1;
                    j += 2;
                    if depth > 0 {
                        text.push_str("*/");
                    }
                    continue;
                }
                if chars[j] == '\n' {
                    line += 1;
                }
                text.push(chars[j]);
                j += 1;
            }
            out.comments.push(Comment {
                line_start,
                line_end: line,
                text,
            });
            i = j;
            continue;
        }
        // Raw strings / raw identifiers / byte strings: r" r#" b" br" b' …
        if is_ident_start(c) {
            // Check literal prefixes before consuming a plain identifier.
            let rest = |k: usize| -> Option<char> { chars.get(i + k).copied() };
            let raw_string_after = |k: usize| -> bool {
                // At offset k expect `#*"` (zero or more hashes then a quote).
                let mut j = i + k;
                while j < n && chars[j] == '#' {
                    j += 1;
                }
                j < n && chars[j] == '"'
            };
            if c == 'r' && (rest(1) == Some('"') || (rest(1) == Some('#') && raw_string_after(1))) {
                let (tok, ni, nl) = lex_raw_string(&chars, i + 1, line);
                out.toks.push(tok);
                i = ni;
                line = nl;
                continue;
            }
            if c == 'r' && rest(1) == Some('#') && rest(2).is_some_and(is_ident_start) {
                // Raw identifier r#ident.
                let mut j = i + 2;
                while j < n && is_ident_continue(chars[j]) {
                    j += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text: chars[i + 2..j].iter().collect(),
                    line,
                });
                i = j;
                continue;
            }
            if (c == 'b' || c == 'c') && rest(1) == Some('"') {
                let (tok, ni, nl) = lex_cooked_string(&chars, i + 1, line);
                out.toks.push(tok);
                i = ni;
                line = nl;
                continue;
            }
            if c == 'b'
                && rest(1) == Some('r')
                && (rest(2) == Some('"') || (rest(2) == Some('#') && raw_string_after(2)))
            {
                let (tok, ni, nl) = lex_raw_string(&chars, i + 2, line);
                out.toks.push(tok);
                i = ni;
                line = nl;
                continue;
            }
            if c == 'b' && rest(1) == Some('\'') {
                let (tok, ni) = lex_char(&chars, i + 1, line);
                out.toks.push(tok);
                i = ni;
                continue;
            }
            // Plain identifier/keyword.
            let mut j = i;
            while j < n && is_ident_continue(chars[j]) {
                j += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text: chars[i..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        // Cooked string.
        if c == '"' {
            let (tok, ni, nl) = lex_cooked_string(&chars, i, line);
            out.toks.push(tok);
            i = ni;
            line = nl;
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let next = chars.get(i + 1).copied();
            let after = chars.get(i + 2).copied();
            let is_lifetime = match next {
                Some('\\') => false,
                Some(ch) if is_ident_start(ch) => after != Some('\''),
                _ => false,
            };
            if is_lifetime {
                let mut j = i + 1;
                while j < n && is_ident_continue(chars[j]) {
                    j += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: chars[i + 1..j].iter().collect(),
                    line,
                });
                i = j;
                continue;
            }
            let (tok, ni) = lex_char(&chars, i, line);
            out.toks.push(tok);
            i = ni;
            continue;
        }
        // Number.
        if c.is_ascii_digit() {
            let mut j = i;
            while j < n {
                let ch = chars[j];
                if is_ident_continue(ch) {
                    j += 1;
                    continue;
                }
                // Consume a decimal point only when followed by a digit
                // (so `0..10` stays three tokens).
                if ch == '.' && chars.get(j + 1).is_some_and(|d| d.is_ascii_digit()) {
                    j += 2;
                    continue;
                }
                break;
            }
            out.toks.push(Tok {
                kind: TokKind::Num,
                text: chars[i..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        // Single punctuation char.
        out.toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    out
}

/// Lex a cooked (escaped) string whose opening quote is at `start`.
/// Returns the token, the index past the closing quote, and the new line.
fn lex_cooked_string(chars: &[char], start: usize, mut line: u32) -> (Tok, usize, u32) {
    let tok_line = line;
    let n = chars.len();
    let mut j = start + 1;
    let mut text = String::new();
    while j < n {
        match chars[j] {
            '\\' => {
                // Keep the escaped char verbatim; rules only substring-match.
                if let Some(&e) = chars.get(j + 1) {
                    text.push(e);
                    if e == '\n' {
                        line += 1;
                    }
                }
                j += 2;
            }
            '"' => {
                j += 1;
                break;
            }
            ch => {
                if ch == '\n' {
                    line += 1;
                }
                text.push(ch);
                j += 1;
            }
        }
    }
    (
        Tok {
            kind: TokKind::Str,
            text,
            line: tok_line,
        },
        j,
        line,
    )
}

/// Lex a raw string whose hashes/quote begin at `start` (past `r`/`br`).
fn lex_raw_string(chars: &[char], start: usize, mut line: u32) -> (Tok, usize, u32) {
    let tok_line = line;
    let n = chars.len();
    let mut hashes = 0usize;
    let mut j = start;
    while j < n && chars[j] == '#' {
        hashes += 1;
        j += 1;
    }
    j += 1; // opening quote
    let content_start = j;
    let mut content_end = n;
    while j < n {
        if chars[j] == '"' {
            // Need `hashes` following '#'.
            let mut k = 0usize;
            while k < hashes && chars.get(j + 1 + k) == Some(&'#') {
                k += 1;
            }
            if k == hashes {
                content_end = j;
                j += 1 + hashes;
                break;
            }
        }
        if chars[j] == '\n' {
            line += 1;
        }
        j += 1;
    }
    (
        Tok {
            kind: TokKind::Str,
            text: chars[content_start..content_end.min(n)].iter().collect(),
            line: tok_line,
        },
        j,
        line,
    )
}

/// Lex a char/byte-char literal whose opening quote is at `start`.
fn lex_char(chars: &[char], start: usize, line: u32) -> (Tok, usize) {
    let n = chars.len();
    let mut j = start + 1;
    let mut text = String::new();
    while j < n {
        match chars[j] {
            '\\' => {
                if let Some(&e) = chars.get(j + 1) {
                    text.push(e);
                }
                j += 2;
            }
            '\'' => {
                j += 1;
                break;
            }
            ch => {
                text.push(ch);
                j += 1;
            }
        }
    }
    (
        Tok {
            kind: TokKind::Char,
            text,
            line,
        },
        j,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn keywords_in_strings_and_comments_are_not_tokens() {
        let src = r##"
            // unsafe in a comment
            /* unsafe in a block */
            let a = "unsafe in a string";
            let b = r#"unsafe in a raw string"#;
            let c = 'u';
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"unsafe".to_string()), "got {ids:?}");
        assert_eq!(ids, vec!["let", "a", "let", "b", "let", "c"]);
    }

    #[test]
    fn comments_carry_lines_and_text() {
        let src = "let x = 1;\n// SAFETY: fine\nlet y = 2;\n/* multi\nline */\n";
        let lx = lex(src);
        assert_eq!(lx.comments.len(), 2);
        assert_eq!(lx.comments[0].line_start, 2);
        assert!(lx.comments[0].text.contains("SAFETY:"));
        assert_eq!(lx.comments[1].line_start, 4);
        assert_eq!(lx.comments[1].line_end, 5);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lx = lex("fn f<'g>(x: &'g str) -> char { 'g' }");
        let lifetimes: Vec<_> = lx
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let chars: Vec<_> = lx.toks.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(chars.len(), 1);
        assert_eq!(chars[0].text, "g");
    }

    #[test]
    fn raw_strings_with_hashes_and_quotes() {
        let lx = lex(r####"let s = r##"has "quote" and # inside"##;"####);
        let strs: Vec<_> = lx.toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].text.contains("\"quote\""));
    }

    #[test]
    fn byte_strings_and_raw_idents() {
        let lx = lex(r#"let a = b"bytes"; let r#unsafe = 1;"#);
        let strs: Vec<_> = lx.toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].text, "bytes");
        // The raw identifier is an Ident token (not the `unsafe` keyword
        // as far as rules are concerned — rules see text "unsafe" though,
        // which is acceptable for this workspace: raw idents are unused).
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let lx = lex("for i in 0..10 { a[i] }");
        let nums: Vec<_> = lx
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(nums, vec!["0", "10"]);
    }

    #[test]
    fn string_values_survive_for_matching() {
        let lx = lex(r#"pub const X: &str = "core::append::encode";"#);
        let strs: Vec<_> = lx.toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs[0].text, "core::append::encode");
    }

    #[test]
    fn line_numbers_advance_through_all_literal_kinds() {
        let src = "let a = \"x\ny\";\nlet b = 1;";
        let lx = lex(src);
        let b = lx.toks.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(b.line, 3);
    }
}
