//! A small text query language for Garlic queries.
//!
//! The paper deliberately abstracts away "the choice of query language";
//! this parser provides a concrete one for the examples and tools:
//!
//! ```text
//! query   := or
//! or      := and ( "OR" and )*
//! and     := unary ( "AND" unary )*
//! unary   := "NOT" unary | "(" query ")" | atom
//! atom    := ident "=" value | ident "~" termlist
//! value   := quoted string | number | bare word
//! termlist:= quoted string of whitespace-separated terms
//! ```
//!
//! `=` builds a [`Target::Text`]/[`Target::Number`] atom; `~` builds a
//! [`Target::Terms`] full-text atom. Keywords are case-insensitive.
//!
//! Nesting is bounded: the recursive-descent parser rejects queries nested
//! deeper than [`MAX_NESTING_DEPTH`] with a [`ParseError`] instead of
//! recursing without limit — adversarial input like 100 000 opening
//! parentheses (or `NOT`s) must fail cleanly, not overflow the stack of
//! whichever service thread happened to parse it.
//!
//! ```
//! use garlic_middleware::parser::parse_query;
//! let q = parse_query(r#"Artist = "Beatles" AND (Color = red OR NOT Shape = round)"#).unwrap();
//! assert_eq!(q.atoms().len(), 3);
//! ```

use garlic_subsys::{AtomicQuery, Target};
use std::fmt;

use crate::query::GarlicQuery;

/// The maximum `(`/`NOT` nesting depth [`parse_query`] accepts. Deep
/// enough for any real query; shallow enough that parsing — and every
/// recursive consumer of the resulting [`GarlicQuery`] tree (NNF
/// conversion, planning, `Drop`) — stays far from stack exhaustion.
pub const MAX_NESTING_DEPTH: usize = 128;

/// A parse failure, with position and explanation.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub position: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    And,
    Or,
    Not,
    LParen,
    RParen,
    Eq,
    Tilde,
    Word(String),
    Quoted(String),
    Number(f64),
}

struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer { input, pos: 0 }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn tokens(mut self) -> Result<Vec<(usize, Token)>, ParseError> {
        let mut out = Vec::new();
        loop {
            self.skip_ws();
            let start = self.pos;
            let Some(c) = self.peek() else { break };
            let token = match c {
                '(' => {
                    self.pos += 1;
                    Token::LParen
                }
                ')' => {
                    self.pos += 1;
                    Token::RParen
                }
                '=' => {
                    self.pos += 1;
                    Token::Eq
                }
                '~' => {
                    self.pos += 1;
                    Token::Tilde
                }
                '"' => Token::Quoted(self.quoted()?),
                c if c.is_ascii_digit() || c == '-' || c == '+' => self.number()?,
                c if c.is_alphanumeric() || c == '_' => self.word(),
                other => return Err(self.error(format!("unexpected character {other:?}"))),
            };
            out.push((start, token));
        }
        Ok(out)
    }

    fn peek(&self) -> Option<char> {
        self.input[self.pos..].chars().next()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(char::is_whitespace) {
            self.pos += self.peek().map_or(0, char::len_utf8);
        }
    }

    fn quoted(&mut self) -> Result<String, ParseError> {
        debug_assert_eq!(self.peek(), Some('"'));
        self.pos += 1;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == '"' {
                let text = self.input[start..self.pos].to_owned();
                self.pos += 1;
                return Ok(text);
            }
            self.pos += c.len_utf8();
        }
        Err(self.error("unterminated string literal"))
    }

    fn number(&mut self) -> Result<Token, ParseError> {
        let start = self.pos;
        if matches!(self.peek(), Some('-' | '+')) {
            self.pos += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit() || c == '.') {
            self.pos += 1;
        }
        let text = &self.input[start..self.pos];
        text.parse::<f64>()
            .map(Token::Number)
            .map_err(|_| self.error(format!("invalid number {text:?}")))
    }

    fn word(&mut self) -> Token {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_alphanumeric() || c == '_') {
            self.pos += self.peek().map_or(0, char::len_utf8);
        }
        let text = &self.input[start..self.pos];
        match text.to_ascii_uppercase().as_str() {
            "AND" => Token::And,
            "OR" => Token::Or,
            "NOT" => Token::Not,
            _ => Token::Word(text.to_owned()),
        }
    }
}

struct Parser {
    tokens: Vec<(usize, Token)>,
    cursor: usize,
    input_len: usize,
    depth: usize,
}

impl Parser {
    /// Guards every recursion point of `unary` (both `NOT` and `(` descend
    /// through it) with the nesting bound. Depth counts the construct being
    /// entered, so a query at exactly [`MAX_NESTING_DEPTH`] still parses and
    /// the first construct past it is the one reported.
    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            Err(self.error(format!(
                "query nesting depth {} exceeds the maximum depth of {MAX_NESTING_DEPTH}",
                self.depth
            )))
        } else {
            Ok(())
        }
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.cursor).map(|(_, t)| t)
    }

    fn position(&self) -> usize {
        self.tokens
            .get(self.cursor)
            .map(|(p, _)| *p)
            .unwrap_or(self.input_len)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: self.position(),
            message: message.into(),
        }
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.cursor).map(|(_, t)| t.clone());
        if t.is_some() {
            self.cursor += 1;
        }
        t
    }

    fn expect(&mut self, token: &Token, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(token) {
            self.cursor += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {what}")))
        }
    }

    #[allow(
        clippy::expect_used,
        reason = "parts starts with one element and only grows"
    )]
    fn or_expr(&mut self) -> Result<GarlicQuery, ParseError> {
        let mut parts = vec![self.and_expr()?];
        while self.peek() == Some(&Token::Or) {
            self.cursor += 1;
            parts.push(self.and_expr()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            GarlicQuery::Or(parts)
        })
    }

    #[allow(
        clippy::expect_used,
        reason = "parts starts with one element and only grows"
    )]
    fn and_expr(&mut self) -> Result<GarlicQuery, ParseError> {
        let mut parts = vec![self.unary()?];
        while self.peek() == Some(&Token::And) {
            self.cursor += 1;
            parts.push(self.unary()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            GarlicQuery::And(parts)
        })
    }

    fn unary(&mut self) -> Result<GarlicQuery, ParseError> {
        match self.peek() {
            Some(Token::Not) => {
                self.cursor += 1;
                self.enter()?;
                let inner = self.unary();
                self.leave();
                Ok(GarlicQuery::not(inner?))
            }
            Some(Token::LParen) => {
                self.cursor += 1;
                self.enter()?;
                let inner = self.or_expr();
                self.leave();
                let inner = inner?;
                self.expect(&Token::RParen, "closing parenthesis")?;
                Ok(inner)
            }
            _ => self.atom(),
        }
    }

    fn atom(&mut self) -> Result<GarlicQuery, ParseError> {
        let attribute = match self.advance() {
            Some(Token::Word(w)) => w,
            _ => return Err(self.error("expected an attribute name")),
        };
        match self.advance() {
            Some(Token::Eq) => {
                let target = match self.advance() {
                    Some(Token::Quoted(s)) => Target::Text(s),
                    Some(Token::Word(w)) => Target::Text(w),
                    Some(Token::Number(n)) => Target::Number(n),
                    _ => return Err(self.error("expected a value after '='")),
                };
                Ok(GarlicQuery::Atom(AtomicQuery { attribute, target }))
            }
            Some(Token::Tilde) => {
                let terms = match self.advance() {
                    Some(Token::Quoted(s)) => {
                        s.split_whitespace().map(str::to_owned).collect::<Vec<_>>()
                    }
                    Some(Token::Word(w)) => vec![w],
                    _ => return Err(self.error("expected search terms after '~'")),
                };
                if terms.is_empty() {
                    return Err(self.error("empty term list"));
                }
                Ok(GarlicQuery::Atom(AtomicQuery {
                    attribute,
                    target: Target::Terms(terms),
                }))
            }
            _ => Err(self.error("expected '=' or '~' after the attribute")),
        }
    }
}

/// Parses the query language described in the module docs.
pub fn parse_query(input: &str) -> Result<GarlicQuery, ParseError> {
    let tokens = Lexer::new(input).tokens()?;
    if tokens.is_empty() {
        return Err(ParseError {
            position: 0,
            message: "empty query".into(),
        });
    }
    let mut parser = Parser {
        tokens,
        cursor: 0,
        input_len: input.len(),
        depth: 0,
    };
    let query = parser.or_expr()?;
    if parser.peek().is_some() {
        return Err(parser.error("trailing input after the query"));
    }
    Ok(query)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_atom_forms() {
        let q = parse_query(r#"Artist = "Beatles""#).unwrap();
        assert_eq!(q, GarlicQuery::atom("Artist", Target::text("Beatles")));
        let q = parse_query("Color = red").unwrap();
        assert_eq!(q, GarlicQuery::atom("Color", Target::text("red")));
        let q = parse_query("Year = 1969").unwrap();
        assert_eq!(q, GarlicQuery::atom("Year", Target::Number(1969.0)));
        let q = parse_query(r#"Review ~ "psychedelic rock""#).unwrap();
        assert_eq!(
            q,
            GarlicQuery::atom("Review", Target::terms(&["psychedelic", "rock"]))
        );
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        let q = parse_query("A = x OR B = y AND C = z").unwrap();
        match q {
            GarlicQuery::Or(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[1], GarlicQuery::And(_)));
            }
            other => panic!("expected OR at top level, got {other:?}"),
        }
    }

    #[test]
    fn parentheses_override_precedence() {
        let q = parse_query("(A = x OR B = y) AND C = z").unwrap();
        match q {
            GarlicQuery::And(parts) => {
                assert!(matches!(parts[0], GarlicQuery::Or(_)));
            }
            other => panic!("expected AND at top level, got {other:?}"),
        }
    }

    #[test]
    fn not_parses_and_nests() {
        let q = parse_query("NOT Color = red").unwrap();
        assert!(matches!(q, GarlicQuery::Not(_)));
        let q = parse_query("NOT NOT Color = red").unwrap();
        assert_eq!(q.to_nnf().literals.len(), 1);
        assert!(!q.to_nnf().literals[0].negated);
    }

    #[test]
    fn keywords_case_insensitive() {
        let a = parse_query("A = x and B = y or not C = z").unwrap();
        let b = parse_query("A = x AND B = y OR NOT C = z").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn round_trips_the_running_example() {
        let q = parse_query(r#"Artist = "Beatles" AND AlbumColor = red"#).unwrap();
        assert_eq!(
            q,
            GarlicQuery::and(
                GarlicQuery::atom("Artist", Target::text("Beatles")),
                GarlicQuery::atom("AlbumColor", Target::text("red")),
            )
        );
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_query("Artist =").unwrap_err();
        assert!(err.message.contains("value"));
        let err = parse_query(r#"Artist = "unterminated"#).unwrap_err();
        assert!(err.message.contains("unterminated"));
        let err = parse_query("").unwrap_err();
        assert!(err.message.contains("empty"));
        let err = parse_query("A = x extra").unwrap_err();
        assert!(err.message.contains("trailing") || err.message.contains("expected"));
        let err = parse_query("A = x AND").unwrap_err();
        assert!(err.message.contains("attribute"));
        let err = parse_query("@bad").unwrap_err();
        assert!(err.message.contains("unexpected character"));
    }

    #[test]
    fn numbers_with_signs_and_decimals() {
        let q = parse_query("Score = -1.5").unwrap();
        assert_eq!(q, GarlicQuery::atom("Score", Target::Number(-1.5)));
    }

    #[test]
    fn pathological_nesting_errors_instead_of_overflowing() {
        // Regression: 100k opening parens used to recurse 100k frames deep
        // and crash with a stack overflow; now it is a clean ParseError.
        let depth = 100_000;
        let deep_parens = format!("{}A = x{}", "(".repeat(depth), ")".repeat(depth));
        let err = parse_query(&deep_parens).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");

        let deep_nots = format!("{}A = x", "NOT ".repeat(depth));
        let err = parse_query(&deep_nots).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn nesting_boundary_is_exact_at_the_limit() {
        // Pin the fence at 127 / 128 / 129: everything up to and including
        // MAX_NESTING_DEPTH parses, the first depth past it is rejected,
        // and the error names the offending depth, not just the limit.
        let at = |depth: usize| format!("{}A = x{}", "(".repeat(depth), ")".repeat(depth));

        assert_eq!(
            parse_query(&at(MAX_NESTING_DEPTH - 1))
                .unwrap()
                .atoms()
                .len(),
            1,
            "depth 127 parses"
        );
        assert_eq!(
            parse_query(&at(MAX_NESTING_DEPTH)).unwrap().atoms().len(),
            1,
            "depth 128 is inside the limit, not past it"
        );

        let err = parse_query(&at(MAX_NESTING_DEPTH + 1)).unwrap_err();
        assert!(
            err.message
                .contains(&format!("depth {}", MAX_NESTING_DEPTH + 1)),
            "the error reports the offending depth: {err}"
        );
        assert!(
            err.message.contains(&MAX_NESTING_DEPTH.to_string()),
            "the error reports the limit: {err}"
        );

        // NOT NOT ... hits the same guard at the same fence.
        let nots = |depth: usize| format!("{}A = x", "NOT ".repeat(depth));
        assert_eq!(
            parse_query(&nots(MAX_NESTING_DEPTH))
                .unwrap()
                .to_nnf()
                .literals
                .len(),
            1
        );
        let err = parse_query(&nots(MAX_NESTING_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting depth"), "{err}");
    }

    #[test]
    fn depth_resets_between_siblings_not_cumulative() {
        // 200 shallow parenthesised atoms AND-ed together: depth never
        // exceeds 1, so the bound must not trip.
        let parts: Vec<String> = (0..200).map(|i| format!("(A{i} = x)")).collect();
        let q = parse_query(&parts.join(" AND ")).unwrap();
        assert_eq!(q.atoms().len(), 200);
    }
}
