//! Shared lexer and expression parser for the Fenestra DSLs.
//!
//! The state-management rule language (`fenestra-rules`) and the state
//! query language (`fenestra-query`) share one token stream and one
//! expression grammar:
//!
//! ```text
//! expr    := or
//! or      := and ("or" and)*
//! and     := not ("and" not)*
//! not     := "not" not | cmp
//! cmp     := add (("=="|"!="|"<"|"<="|">"|">=") add)?
//! add     := mul (("+"|"-") mul)*
//! mul     := unary (("*"|"/"|"%") unary)*
//! unary   := "-" unary | primary
//! primary := literal | name | func "(" args ")" | "(" expr ")"
//! name    := ident ("." ident)*        // dotted names resolve in scope
//! literal := int | float | string | duration | "true" | "false" | "null"
//! ```
//!
//! Duration literals (`500ms`, `10s`, `5m`, `2h`) lex to
//! [`Tok::Duration`]; in expression position they evaluate to their
//! millisecond count as an integer, and statement-level parsers may
//! consume them directly (e.g. `within 5m`).

use crate::error::{Error, Result};
use crate::expr::{BinOp, Expr, Func, UnOp};
use crate::symbol::Symbol;
use crate::time::Duration;
use crate::value::Value;

/// A lexical token kind.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Double-quoted string literal (interned).
    Str(Symbol),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Duration literal, in milliseconds.
    Duration(u64),
    /// Operator or punctuation (`==`, `<=`, `(`, `.`, `$`, …).
    Punct(&'static str),
}

/// A token with its source position (1-based).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// Line, 1-based.
    pub line: u32,
    /// Column, 1-based.
    pub col: u32,
}

const PUNCTS: &[&str] = &[
    "==", "!=", "<=", ">=", "->", "&&", "||", "<", ">", "=", "+", "-", "*", "/", "%", "(", ")",
    "{", "}", "[", "]", ",", ":", ".", "$", "@", "?", ";",
];

/// The character starting at byte `i` of `src` (a char boundary).
/// ASCII takes the one-byte path; anything else decodes whole.
fn char_at(src: &str, i: usize) -> char {
    let b = src.as_bytes()[i];
    if b.is_ascii() {
        b as char
    } else {
        src[i..].chars().next().expect("i is a char boundary")
    }
}

/// Tokenize `src`. Comments run from `#` to end of line.
pub fn lex(src: &str) -> Result<Vec<Token>> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line: u32 = 1;
    let mut col: u32 = 1;
    let n = bytes.len();
    while i < n {
        let c = char_at(src, i);
        if c == '\n' {
            line += 1;
            col = 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += c.len_utf8();
            col += 1;
            continue;
        }
        if c == '#' {
            while i < n && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        let (tline, tcol) = (line, col);
        if c == '"' {
            let mut s = String::new();
            i += 1;
            col += 1;
            loop {
                if i >= n {
                    return Err(Error::parse(tline, tcol, "unterminated string"));
                }
                let ch = char_at(src, i);
                i += ch.len_utf8();
                col += 1;
                match ch {
                    '"' => break,
                    '\\' => {
                        if i >= n {
                            return Err(Error::parse(tline, tcol, "unterminated escape"));
                        }
                        let esc = char_at(src, i);
                        i += esc.len_utf8();
                        col += 1;
                        s.push(match esc {
                            'n' => '\n',
                            't' => '\t',
                            '\\' => '\\',
                            '"' => '"',
                            other => {
                                return Err(Error::parse(
                                    tline,
                                    tcol,
                                    format!("unknown escape `\\{other}`"),
                                ))
                            }
                        });
                    }
                    '\n' => return Err(Error::parse(tline, tcol, "newline in string")),
                    other => s.push(other),
                }
            }
            out.push(Token {
                tok: Tok::Str(Symbol::intern(&s)),
                line: tline,
                col: tcol,
            });
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < n && (bytes[i] as char).is_ascii_digit() {
                i += 1;
                col += 1;
            }
            let mut is_float = false;
            if i + 1 < n && bytes[i] == b'.' && (bytes[i + 1] as char).is_ascii_digit() {
                is_float = true;
                i += 1;
                col += 1;
                while i < n && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                    col += 1;
                }
            }
            let text = &src[start..i];
            // Duration suffix?
            if !is_float {
                let suffix_start = i;
                while i < n && (bytes[i] as char).is_ascii_alphabetic() {
                    i += 1;
                    col += 1;
                }
                let suffix = &src[suffix_start..i];
                if !suffix.is_empty() {
                    let value: u64 = text
                        .parse()
                        .map_err(|_| Error::parse(tline, tcol, "integer overflow"))?;
                    let millis = match suffix {
                        "ms" => Duration::millis(value),
                        "s" => Duration::secs(value),
                        "m" => Duration::minutes(value),
                        "h" => Duration::hours(value),
                        other => {
                            return Err(Error::parse(
                                tline,
                                tcol,
                                format!("unknown duration suffix `{other}`"),
                            ))
                        }
                    };
                    out.push(Token {
                        tok: Tok::Duration(millis.as_millis()),
                        line: tline,
                        col: tcol,
                    });
                    continue;
                }
            }
            let tok = if is_float {
                Tok::Float(
                    text.parse()
                        .map_err(|_| Error::parse(tline, tcol, "bad float"))?,
                )
            } else {
                Tok::Int(
                    text.parse()
                        .map_err(|_| Error::parse(tline, tcol, "integer overflow"))?,
                )
            };
            out.push(Token {
                tok,
                line: tline,
                col: tcol,
            });
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < n {
                let ch = bytes[i] as char;
                if ch.is_ascii_alphanumeric() || ch == '_' {
                    i += 1;
                    col += 1;
                } else {
                    break;
                }
            }
            out.push(Token {
                tok: Tok::Ident(src[start..i].to_owned()),
                line: tline,
                col: tcol,
            });
            continue;
        }
        // Punctuation: longest match first.
        let rest = &src[i..];
        let mut matched = None;
        for p in PUNCTS {
            if rest.starts_with(p) {
                matched = Some(*p);
                break;
            }
        }
        let Some(p) = matched else {
            return Err(Error::parse(
                tline,
                tcol,
                format!("unexpected character `{c}`"),
            ));
        };
        i += p.len();
        col += p.len() as u32;
        out.push(Token {
            tok: Tok::Punct(p),
            line: tline,
            col: tcol,
        });
    }
    Ok(out)
}

/// A cursor over a token stream, shared by the DSL parsers.
pub struct Cursor<'a> {
    toks: &'a [Token],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Cursor at the start of `toks`.
    pub fn new(toks: &'a [Token]) -> Cursor<'a> {
        Cursor { toks, pos: 0 }
    }

    /// The current token, if any.
    pub fn peek(&self) -> Option<&'a Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    /// Position info of the current (or last) token, for errors.
    pub fn pos(&self) -> (u32, u32) {
        match self.toks.get(self.pos).or_else(|| self.toks.last()) {
            Some(t) => (t.line, t.col),
            None => (1, 1),
        }
    }

    /// Whether the stream is exhausted.
    pub fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// Advance and return the current token.
    #[allow(clippy::should_implement_trait)] // cursor, not an Iterator
    pub fn next(&mut self) -> Option<&'a Tok> {
        let t = self.toks.get(self.pos).map(|t| &t.tok);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Error at the current position.
    pub fn error(&self, msg: impl Into<String>) -> Error {
        let (line, col) = self.pos();
        Error::parse(line, col, msg)
    }

    /// Consume the given punctuation or fail.
    pub fn expect_punct(&mut self, p: &str) -> Result<()> {
        match self.peek() {
            Some(Tok::Punct(q)) if *q == p => {
                self.pos += 1;
                Ok(())
            }
            other => Err(self.error(format!("expected `{p}`, found {other:?}"))),
        }
    }

    /// Consume the given keyword (identifier) or fail.
    pub fn expect_kw(&mut self, kw: &str) -> Result<()> {
        match self.peek() {
            Some(Tok::Ident(s)) if s == kw => {
                self.pos += 1;
                Ok(())
            }
            other => Err(self.error(format!("expected `{kw}`, found {other:?}"))),
        }
    }

    /// Consume an identifier or fail.
    pub fn expect_ident(&mut self) -> Result<String> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                self.pos += 1;
                Ok(s.clone())
            }
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    /// If the current token is this punctuation, consume it.
    pub fn eat_punct(&mut self, p: &str) -> bool {
        matches!(self.peek(), Some(Tok::Punct(q)) if *q == p) && {
            self.pos += 1;
            true
        }
    }

    /// If the current token is this keyword, consume it.
    pub fn eat_kw(&mut self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == kw) && {
            self.pos += 1;
            true
        }
    }

    /// Parse an expression (the shared grammar).
    pub fn expression(&mut self) -> Result<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_and()?;
        while self.eat_kw("or") || self.eat_punct("||") {
            let rhs = self.parse_and()?;
            lhs = lhs.or(rhs);
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_not()?;
        while self.eat_kw("and") || self.eat_punct("&&") {
            let rhs = self.parse_not()?;
            lhs = lhs.and(rhs);
        }
        Ok(lhs)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat_kw("not") {
            Ok(self.parse_not()?.not())
        } else {
            self.parse_cmp()
        }
    }

    fn parse_cmp(&mut self) -> Result<Expr> {
        let lhs = self.parse_add()?;
        let op = match self.peek() {
            Some(Tok::Punct("==")) | Some(Tok::Punct("=")) => BinOp::Eq,
            Some(Tok::Punct("!=")) => BinOp::Ne,
            Some(Tok::Punct("<")) => BinOp::Lt,
            Some(Tok::Punct("<=")) => BinOp::Le,
            Some(Tok::Punct(">")) => BinOp::Gt,
            Some(Tok::Punct(">=")) => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.parse_add()?;
        Ok(Expr::Binary(op, Box::new(lhs), Box::new(rhs)))
    }

    fn parse_add(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Punct("+")) => BinOp::Add,
                Some(Tok::Punct("-")) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.parse_mul()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_mul(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Punct("*")) => BinOp::Mul,
                Some(Tok::Punct("/")) => BinOp::Div,
                Some(Tok::Punct("%")) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.parse_unary()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat_punct("-") {
            Ok(Expr::Unary(UnOp::Neg, Box::new(self.parse_unary()?)))
        } else if self.eat_kw("not") {
            // `not` is primarily handled looser than comparison (see
            // `parse_not`), but it is also accepted in operand
            // position, e.g. `1 + not (x)`, so printed expressions
            // always re-parse.
            Ok(self.parse_unary()?.not())
        } else {
            self.parse_primary()
        }
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.peek().cloned() {
            Some(Tok::Int(i)) => {
                self.pos += 1;
                Ok(Expr::lit(i))
            }
            Some(Tok::Float(f)) => {
                self.pos += 1;
                Ok(Expr::lit(f))
            }
            Some(Tok::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Lit(Value::Str(s)))
            }
            Some(Tok::Duration(ms)) => {
                self.pos += 1;
                Ok(Expr::lit(ms as i64))
            }
            Some(Tok::Punct("(")) => {
                self.pos += 1;
                let e = self.expression()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                match name.as_str() {
                    "true" => return Ok(Expr::lit(true)),
                    "false" => return Ok(Expr::lit(false)),
                    "null" => return Ok(Expr::Lit(Value::Null)),
                    _ => {}
                }
                // Function call?
                if matches!(self.peek(), Some(Tok::Punct("("))) {
                    if let Some(f) = Func::by_name(&name) {
                        self.pos += 1;
                        let mut args = Vec::new();
                        if !self.eat_punct(")") {
                            loop {
                                args.push(self.expression()?);
                                if self.eat_punct(")") {
                                    break;
                                }
                                self.expect_punct(",")?;
                            }
                        }
                        return Ok(Expr::Call(f, args));
                    }
                    return Err(self.error(format!("unknown function `{name}`")));
                }
                // Dotted name chain.
                let mut full = name;
                while self.eat_punct(".") {
                    let part = self.expect_ident()?;
                    full.push('.');
                    full.push_str(&part);
                }
                Ok(Expr::name(full.as_str()))
            }
            other => Err(self.error(format!("expected expression, found {other:?}"))),
        }
    }
}

/// Parse a standalone expression from source text.
pub fn parse_expr(src: &str) -> Result<Expr> {
    let toks = lex(src)?;
    let mut c = Cursor::new(&toks);
    let e = c.expression()?;
    if !c.at_end() {
        return Err(c.error("trailing input after expression"));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{EmptyScope, SliceScope};

    fn eval(src: &str) -> Value {
        parse_expr(src).unwrap().eval(&EmptyScope).unwrap()
    }

    #[test]
    fn arithmetic_precedence() {
        assert_eq!(eval("1 + 2 * 3"), Value::Int(7));
        assert_eq!(eval("(1 + 2) * 3"), Value::Int(9));
        assert_eq!(eval("10 - 4 - 3"), Value::Int(3), "left assoc");
        assert_eq!(eval("7 % 4 + 1"), Value::Int(4));
        assert_eq!(eval("-3 + 5"), Value::Int(2));
    }

    #[test]
    fn comparison_and_logic() {
        assert_eq!(eval("1 < 2 and 2 < 3"), Value::Bool(true));
        assert_eq!(eval("1 < 2 and 3 < 2"), Value::Bool(false));
        assert_eq!(eval("1 > 2 or 2 > 1"), Value::Bool(true));
        assert_eq!(eval("not (1 == 1)"), Value::Bool(false));
        assert_eq!(eval("\"a\" != \"b\""), Value::Bool(true));
        // Single `=` is accepted as equality in the DSLs.
        assert_eq!(eval("3 = 3"), Value::Bool(true));
    }

    #[test]
    fn literals() {
        assert_eq!(eval("true"), Value::Bool(true));
        assert_eq!(eval("null"), Value::Null);
        assert_eq!(eval("2.5"), Value::Float(2.5));
        assert_eq!(eval("\"hi\\n\""), Value::str("hi\n"));
        assert_eq!(eval("5s"), Value::Int(5000), "durations are millis ints");
        assert_eq!(eval("2m"), Value::Int(120_000));
        assert_eq!(eval("1h"), Value::Int(3_600_000));
        assert_eq!(eval("10ms"), Value::Int(10));
    }

    #[test]
    fn non_ascii_text_lexes_whole_characters() {
        let toks = lex("\"café ☕\" x").unwrap();
        assert_eq!(toks[0].tok, Tok::Str(Symbol::intern("café ☕")));
        // Columns count characters, not bytes.
        assert_eq!(toks[1].col, 10);
        let err = lex("x é").unwrap_err().to_string();
        assert!(err.contains("`é`"), "{err}");
        let err = lex("\"\\é\"").unwrap_err().to_string();
        assert!(err.contains("`\\é`"), "{err}");
    }

    #[test]
    fn names_and_dotted_names() {
        let e = parse_expr("user").unwrap();
        assert_eq!(e, Expr::name("user"));
        let e = parse_expr("a.user").unwrap();
        assert_eq!(e, Expr::name("a.user"));
        let bindings = vec![(Symbol::intern("a.user"), Value::str("u1"))];
        assert_eq!(
            parse_expr("a.user == \"u1\"")
                .unwrap()
                .eval(&SliceScope(&bindings))
                .unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn functions() {
        assert_eq!(eval("min(3, 5)"), Value::Int(3));
        assert_eq!(eval("abs(0 - 4)"), Value::Int(4));
        assert_eq!(eval("coalesce(null, null, 9)"), Value::Int(9));
        assert_eq!(eval("contains(\"hello\", \"ell\")"), Value::Bool(true));
        assert!(parse_expr("nope(1)").is_err());
    }

    #[test]
    fn comments_and_whitespace() {
        assert_eq!(eval("1 + # comment\n 2"), Value::Int(3));
    }

    #[test]
    fn error_positions() {
        let err = parse_expr("1 +\n  )").unwrap_err();
        match err {
            Error::Parse { line, col, .. } => {
                assert_eq!(line, 2);
                assert_eq!(col, 3);
            }
            other => panic!("expected parse error, got {other}"),
        }
        assert!(parse_expr("\"unterminated").is_err());
        assert!(parse_expr("1 2").is_err(), "trailing input");
        assert!(parse_expr("5q").is_err(), "unknown duration suffix");
    }

    #[test]
    fn lex_positions() {
        let toks = lex("a\n  bb").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }
}
