//! A hand-rolled Rust lexer for lint-grade analysis.
//!
//! The workspace has no external crates, so no `syn`/`proc-macro2`: the
//! lint works on a token stream produced here instead of a real AST. The lexer is
//! comment-, string- and attribute-aware: banned identifiers inside
//! string literals or comments never produce findings, while comments
//! are kept (with line numbers) so suppression directives
//! (`// avis-lint: allow(...)`), `// SAFETY:` justifications and
//! `// snapshot: skip(...)` markers can be matched to the code they
//! annotate.
//!
//! The grammar subset is deliberately shallow — identifiers, punctuation
//! (one char per token), literals and comments — because every rule in
//! [`crate::rules`] is expressible as a scan over that stream plus brace
//! matching. No attempt is made to parse expressions.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `unsafe`, `HashMap`, ...).
    Ident,
    /// A single punctuation character (`::` is two `:` tokens).
    Punct,
    /// A string/char/byte/numeric literal. The text of string literals
    /// is kept verbatim (including quotes) but never scanned for
    /// identifiers.
    Literal,
    /// A `// ...` comment, including doc comments. Text excludes the
    /// trailing newline.
    LineComment,
    /// A `/* ... */` comment (nesting handled), including doc comments.
    BlockComment,
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Verbatim source text of the token.
    pub text: String,
    /// 1-based line on which the token starts.
    pub line: u32,
}

impl Token {
    /// Whether this token is a comment of either flavour.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }

    /// Whether this is the identifier `text`.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// Whether this is the punctuation character `ch`.
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokenKind::Punct
            && self.text.len() == ch.len_utf8()
            && self.text.starts_with(ch)
    }
}

/// Lexes `source` into a token stream. The lexer never fails: malformed
/// input (an unterminated string, say) is swallowed into the nearest
/// literal/comment token, which is the right degradation for a lint that
/// must not crash on in-progress code.
pub fn lex(source: &str) -> Vec<Token> {
    Lexer {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        tokens: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    tokens: Vec<Token>,
}

impl Lexer {
    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => self.string(line),
                '\'' => self.char_or_lifetime(line),
                c if c.is_ascii_digit() => self.number(line),
                c if c == '_' || c.is_alphabetic() => self.ident_or_prefixed_literal(line),
                _ => {
                    let c = self.bump();
                    self.push(TokenKind::Punct, c.to_string(), line);
                }
            }
        }
        self.tokens
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> char {
        let c = self.chars[self.pos];
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        c
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32) {
        self.tokens.push(Token { kind, text, line });
    }

    fn line_comment(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(self.bump());
        }
        self.push(TokenKind::LineComment, text, line);
    }

    fn block_comment(&mut self, line: u32) {
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push(self.bump());
                text.push(self.bump());
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push(self.bump());
                text.push(self.bump());
                if depth == 0 {
                    break;
                }
            } else {
                text.push(self.bump());
            }
        }
        self.push(TokenKind::BlockComment, text, line);
    }

    /// A `"..."` string with escape handling.
    fn string(&mut self, line: u32) {
        let mut text = String::new();
        text.push(self.bump()); // opening quote
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                text.push(self.bump());
                if self.peek(0).is_some() {
                    text.push(self.bump());
                }
            } else if c == '"' {
                text.push(self.bump());
                break;
            } else {
                text.push(self.bump());
            }
        }
        self.push(TokenKind::Literal, text, line);
    }

    /// A `r"..."` / `r#"..."#` raw string, starting at the `#`/`"` after
    /// the prefix identifier (already consumed into `text`).
    fn raw_string(&mut self, mut text: String, line: u32) {
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            text.push(self.bump());
        }
        if self.peek(0) == Some('"') {
            text.push(self.bump());
            'body: while self.peek(0).is_some() {
                let c = self.bump();
                text.push(c);
                if c == '"' {
                    for i in 0..hashes {
                        if self.peek(i) != Some('#') {
                            continue 'body;
                        }
                    }
                    for _ in 0..hashes {
                        text.push(self.bump());
                    }
                    break;
                }
            }
        }
        self.push(TokenKind::Literal, text, line);
    }

    /// Distinguishes `'a` (lifetime) from `'x'` / `'\n'` (char literal).
    fn char_or_lifetime(&mut self, line: u32) {
        let next = self.peek(1);
        let after = self.peek(2);
        let is_lifetime = match next {
            Some(c) if c == '_' || c.is_alphabetic() => after != Some('\''),
            _ => false,
        };
        if is_lifetime {
            let mut text = String::new();
            text.push(self.bump()); // '
            while let Some(c) = self.peek(0) {
                if c == '_' || c.is_alphanumeric() {
                    text.push(self.bump());
                } else {
                    break;
                }
            }
            self.push(TokenKind::Lifetime, text, line);
        } else {
            let mut text = String::new();
            text.push(self.bump()); // '
            while let Some(c) = self.peek(0) {
                if c == '\\' {
                    text.push(self.bump());
                    if self.peek(0).is_some() {
                        text.push(self.bump());
                    }
                } else if c == '\'' {
                    text.push(self.bump());
                    break;
                } else if c == '\n' {
                    break; // malformed; don't eat the rest of the file
                } else {
                    text.push(self.bump());
                }
            }
            self.push(TokenKind::Literal, text, line);
        }
    }

    /// A numeric literal; loose (suffixes and type markers are folded
    /// in, exponent signs are not) — rules never interpret numbers.
    fn number(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            let continues = c.is_alphanumeric()
                || c == '_'
                || (c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()));
            if continues {
                text.push(self.bump());
            } else {
                break;
            }
        }
        self.push(TokenKind::Literal, text, line);
    }

    /// An identifier, or — when the identifier is a literal prefix
    /// (`r`, `b`, `br`, `c`, `cr`) directly followed by a quote or raw
    /// delimiter — the prefixed literal it introduces.
    fn ident_or_prefixed_literal(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(self.bump());
            } else {
                break;
            }
        }
        match (text.as_str(), self.peek(0)) {
            ("r" | "br" | "cr", Some('"' | '#')) => self.raw_string(text, line),
            ("b" | "c", Some('"')) => {
                let mut t = text;
                t.push(self.bump());
                // Re-use the string scanner by inlining its loop.
                while let Some(c) = self.peek(0) {
                    if c == '\\' {
                        t.push(self.bump());
                        if self.peek(0).is_some() {
                            t.push(self.bump());
                        }
                    } else if c == '"' {
                        t.push(self.bump());
                        break;
                    } else {
                        t.push(self.bump());
                    }
                }
                self.push(TokenKind::Literal, t, line);
            }
            ("b", Some('\'')) => {
                let mut t = text;
                t.push(self.bump());
                while let Some(c) = self.peek(0) {
                    if c == '\\' {
                        t.push(self.bump());
                        if self.peek(0).is_some() {
                            t.push(self.bump());
                        }
                    } else if c == '\'' {
                        t.push(self.bump());
                        break;
                    } else if c == '\n' {
                        break;
                    } else {
                        t.push(self.bump());
                    }
                }
                self.push(TokenKind::Literal, t, line);
            }
            _ => self.push(TokenKind::Ident, text, line),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_in_strings_and_comments_are_not_ident_tokens() {
        let toks = kinds(r#"let x = "HashMap"; // HashMap here"#);
        let idents: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Ident)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(idents, vec!["let", "x"]);
    }

    #[test]
    fn raw_strings_swallow_their_body() {
        let toks = kinds(r##"let s = r#"Instant::now() "quoted" body"#; done"##);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Literal && t.starts_with("r#\"") && t.ends_with("\"#")));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "done"));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "Instant"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 2);
        let chars = toks
            .iter()
            .filter(|(k, t)| *k == TokenKind::Literal && t.starts_with('\''))
            .count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn nested_block_comments_terminate() {
        let toks = kinds("/* outer /* inner */ still outer */ after");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].0, TokenKind::BlockComment);
        assert!(toks[1].1 == "after");
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "a\n\"two\nlines\"\nb\n/* c\nc */\nd";
        let toks = lex(src);
        let find = |text: &str| toks.iter().find(|t| t.text == text).unwrap().line;
        assert_eq!(find("a"), 1);
        assert_eq!(find("b"), 4);
        assert_eq!(find("d"), 7);
    }

    #[test]
    fn unsafe_code_is_one_ident_not_the_unsafe_keyword() {
        let toks = kinds("#![forbid(unsafe_code)]");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "unsafe_code"));
        assert!(!toks.iter().any(|(_, t)| t == "unsafe"));
    }
}
