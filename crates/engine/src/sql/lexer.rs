//! SQL lexer.

use crate::error::{EngineError, Result};
use crate::types::DataType;

/// A SQL token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (uppercased keywords are matched by the
    /// parser; the original text is preserved).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal.
    Str(String),
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// A literal the plan cache lifted out of the statement (never
    /// produced by [`lex`]; see [`crate::sql::plan_cache`]).
    Param {
        /// Position in the statement's literal list.
        slot: usize,
        /// The lifted literal's type.
        data_type: DataType,
    },
    /// End of input.
    Eof,
}

/// Lex `input` into tokens (always ending with [`Token::Eof`]).
pub fn lex(input: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '-' => {
                // line comment?
                if bytes.get(i + 1) == Some(&b'-') {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                } else {
                    tokens.push(Token::Minus);
                    i += 1;
                }
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            '%' => {
                tokens.push(Token::Percent);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::NotEq);
                    i += 2;
                } else {
                    return Err(EngineError::Sql(format!("unexpected '!' at byte {i}")));
                }
            }
            '<' => match bytes.get(i + 1) {
                Some(&b'=') => {
                    tokens.push(Token::LtEq);
                    i += 2;
                }
                Some(&b'>') => {
                    tokens.push(Token::NotEq);
                    i += 2;
                }
                _ => {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::GtEq);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(EngineError::Sql("unterminated string literal".to_string()))
                        }
                        Some(&b'\'') => {
                            // '' escapes a quote
                            if bytes.get(i + 1) == Some(&b'\'') {
                                s.push('\'');
                                i += 2;
                            } else {
                                i += 1;
                                break;
                            }
                        }
                        Some(_) => {
                            // handle multi-byte UTF-8 correctly
                            let Some(ch) = input[i..].chars().next() else {
                                return Err(EngineError::Sql(
                                    "unterminated string literal".to_string(),
                                ));
                            };
                            s.push(ch);
                            i += ch.len_utf8();
                        }
                    }
                }
                tokens.push(Token::Str(s));
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let is_float = i < bytes.len()
                    && bytes[i] == b'.'
                    && bytes.get(i + 1).is_some_and(u8::is_ascii_digit);
                if is_float {
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let text = &input[start..i];
                    tokens.push(Token::Float(text.parse().map_err(|e| {
                        EngineError::Sql(format!("bad float literal {text}: {e}"))
                    })?));
                } else {
                    let text = &input[start..i];
                    tokens.push(Token::Int(text.parse().map_err(|e| {
                        EngineError::Sql(format!("bad integer literal {text}: {e}"))
                    })?));
                }
            }
            _ => {
                // Identifier start or junk. `bytes[i] as char` misreads
                // multi-byte UTF-8 (the lead byte of 'é' looks like the
                // alphabetic 'Ã'), so decode the real character and walk
                // the identifier char-wise — advancing byte-wise would
                // split a multi-byte character and panic on the slice.
                let Some(ch) = input[i..].chars().next() else {
                    return Err(EngineError::Sql(format!("invalid character at byte {i}")));
                };
                if ch.is_alphabetic() || ch == '_' {
                    let start = i;
                    for ch in input[i..].chars() {
                        if ch.is_alphanumeric() || ch == '_' {
                            i += ch.len_utf8();
                        } else {
                            break;
                        }
                    }
                    tokens.push(Token::Ident(input[start..i].to_string()));
                } else {
                    return Err(EngineError::Sql(format!(
                        "unexpected character '{ch}' at byte {i}"
                    )));
                }
            }
        }
    }
    tokens.push(Token::Eof);
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_select() {
        let t = lex("SELECT a, b FROM t WHERE a >= 10").unwrap();
        assert_eq!(t[0], Token::Ident("SELECT".into()));
        assert!(t.contains(&Token::GtEq));
        assert!(t.contains(&Token::Int(10)));
        assert_eq!(*t.last().unwrap(), Token::Eof);
    }

    #[test]
    fn lexes_strings_with_escapes() {
        let t = lex("'it''s'").unwrap();
        assert_eq!(t[0], Token::Str("it's".into()));
    }

    #[test]
    fn lexes_floats_vs_qualified_names() {
        let t = lex("1.5 t.c").unwrap();
        assert_eq!(t[0], Token::Float(1.5));
        assert_eq!(t[1], Token::Ident("t".into()));
        assert_eq!(t[2], Token::Dot);
        assert_eq!(t[3], Token::Ident("c".into()));
    }

    #[test]
    fn skips_comments() {
        let t = lex("a -- comment here\n b").unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn neq_forms() {
        assert_eq!(lex("<>").unwrap()[0], Token::NotEq);
        assert_eq!(lex("!=").unwrap()[0], Token::NotEq);
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("a ; b").is_err());
        assert!(lex("'unterminated").is_err());
    }

    #[test]
    fn unicode_in_strings() {
        let t = lex("'héllo wörld'").unwrap();
        assert_eq!(t[0], Token::Str("héllo wörld".into()));
    }

    #[test]
    fn unicode_identifiers_lex_whole() {
        // Multi-byte identifier characters must not split: the old
        // byte-wise walk panicked slicing 'é' in half.
        let t = lex("SELECT é FROM tablé").unwrap();
        assert_eq!(t[1], Token::Ident("é".into()));
        assert_eq!(t[3], Token::Ident("tablé".into()));
        // Non-alphabetic multi-byte junk is an error, not a panic.
        assert!(lex("a € b").is_err());
        assert!(lex("날짜 = 1").unwrap().contains(&Token::Eq));
    }
}
