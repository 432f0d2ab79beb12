//! Recursive-descent parser for the `L≈` text syntax (grammar in the crate
//! docs).
//!
//! Lexical conventions:
//! * identifiers starting lowercase are variables, starting uppercase are
//!   predicates / constants / functions (disambiguated by position);
//! * hyphens join identifiers when followed by a letter (`Easy-to-see` is one
//!   symbol), so proportion subtraction needs surrounding spaces;
//! * approximate operators may carry a tolerance subscript (`~=_2`,
//!   `<~_3`, `->_1`); omitting it defaults to tolerance index 1.
//!
//! Nesting is capped at [`MAX_DEPTH`] levels: parentheses, negations,
//! each quantified variable, proportion bodies and conditions, function
//! arguments, right-nested `=>`, and each link of the chains that stay
//! binary in the syntax tree (`<=>`, and `+`/`-`/`*` in proportion
//! expressions). Deeper input is a positioned [`ParseError`] instead of
//! a stack overflow in the parser or in a later pass that recurses over
//! the tree. `&`/`or` chains are not capped: they build one n-ary node
//! whatever their length, so they add a single level.

use crate::ast::{CmpOp, Formula, PropExpr, Term, TolId};
use crate::vocab::{VarId, VocabError, Vocabulary};
use rw_util::Rat;
use std::fmt;

/// The deepest nesting the parser accepts. Every formula in the bundled
/// corpora nests at most three levels, and a nested level costs several
/// recursive frames here and in every later pass over the formula, so
/// the cap keeps even unoptimised builds far inside a 2 MiB thread stack.
pub const MAX_DEPTH: usize = 128;

/// The largest formula, in nodes, an `exists!` list may desugar to.
/// Each variable of `exists! x₁, …, x_k (φ)` copies the formula inside
/// it twice (once renamed, for uniqueness), so the desugared size grows
/// as `2^k · |φ|`; a longer list is a positioned [`ParseError`] before
/// anything is built. Every bundled corpus query stays far below it.
pub const MAX_EXISTS_UNIQUE_NODES: usize = 1 << 12;

/// A parse failure, with a byte offset into the source string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub pos: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

impl ParseError {
    fn new(pos: usize, message: impl Into<String>) -> ParseError {
        ParseError {
            pos,
            message: message.into(),
        }
    }

    fn from_vocab(pos: usize, e: VocabError) -> ParseError {
        ParseError::new(pos, e.to_string())
    }
}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Number(Rat),
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
    Semi,
    Amp,
    Bang,
    Underscore,
    Plus,
    Minus,
    Star,
    Slash,
    Eq,
    Neq,
    Leq,
    Implies,          // =>
    Iff,              // <=>
    Bar,              // |
    DoubleBar,        // ||
    ApproxEq(TolId),  // ~=_i
    ApproxLeq(TolId), // <~_i
    Arrow(TolId),     // ->_i  (default-rule sugar)
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn tokens(mut self) -> Result<Vec<(usize, Tok)>, ParseError> {
        let mut out = Vec::new();
        while let Some(t) = self.next_token()? {
            out.push(t);
        }
        Ok(out)
    }

    fn peek_byte(&self, off: usize) -> u8 {
        *self.src.get(self.pos + off).unwrap_or(&0)
    }

    fn subscript(&mut self) -> TolId {
        // Optional `_<digits>` following an approximate operator.
        if self.peek_byte(0) == b'_' && self.peek_byte(1).is_ascii_digit() {
            self.pos += 1;
            let start = self.pos;
            while self.peek_byte(0).is_ascii_digit() {
                self.pos += 1;
            }
            let n: u32 = std::str::from_utf8(&self.src[start..self.pos])
                .unwrap()
                .parse()
                .unwrap_or(1);
            TolId(n)
        } else {
            TolId(1)
        }
    }

    fn next_token(&mut self) -> Result<Option<(usize, Tok)>, ParseError> {
        while self.peek_byte(0).is_ascii_whitespace() {
            self.pos += 1;
        }
        let start = self.pos;
        let b = self.peek_byte(0);
        if b == 0 {
            return Ok(None);
        }
        let tok = match b {
            b'(' => {
                self.pos += 1;
                Tok::LParen
            }
            b')' => {
                self.pos += 1;
                Tok::RParen
            }
            b'{' => {
                self.pos += 1;
                Tok::LBrace
            }
            b'}' => {
                self.pos += 1;
                Tok::RBrace
            }
            b',' => {
                self.pos += 1;
                Tok::Comma
            }
            b';' => {
                self.pos += 1;
                Tok::Semi
            }
            b'&' => {
                self.pos += 1;
                Tok::Amp
            }
            b'+' => {
                self.pos += 1;
                Tok::Plus
            }
            b'*' => {
                self.pos += 1;
                Tok::Star
            }
            b'/' => {
                self.pos += 1;
                Tok::Slash
            }
            b'_' => {
                self.pos += 1;
                Tok::Underscore
            }
            b'!' => {
                if self.peek_byte(1) == b'=' {
                    self.pos += 2;
                    Tok::Neq
                } else {
                    self.pos += 1;
                    Tok::Bang
                }
            }
            b'=' => {
                if self.peek_byte(1) == b'>' {
                    self.pos += 2;
                    Tok::Implies
                } else {
                    self.pos += 1;
                    Tok::Eq
                }
            }
            b'<' => {
                if self.peek_byte(1) == b'=' && self.peek_byte(2) == b'>' {
                    self.pos += 3;
                    Tok::Iff
                } else if self.peek_byte(1) == b'=' {
                    self.pos += 2;
                    Tok::Leq
                } else if self.peek_byte(1) == b'~' {
                    self.pos += 2;
                    Tok::ApproxLeq(self.subscript())
                } else {
                    return Err(ParseError::new(start, "unexpected `<`"));
                }
            }
            b'~' => {
                if self.peek_byte(1) == b'=' {
                    self.pos += 2;
                    Tok::ApproxEq(self.subscript())
                } else {
                    return Err(ParseError::new(
                        start,
                        "unexpected `~` (did you mean `~=`?)",
                    ));
                }
            }
            b'-' => {
                if self.peek_byte(1) == b'>' {
                    self.pos += 2;
                    Tok::Arrow(self.subscript())
                } else {
                    self.pos += 1;
                    Tok::Minus
                }
            }
            b'|' => {
                if self.peek_byte(1) == b'|' {
                    self.pos += 2;
                    Tok::DoubleBar
                } else {
                    self.pos += 1;
                    Tok::Bar
                }
            }
            b'0'..=b'9' => {
                while self.peek_byte(0).is_ascii_digit() {
                    self.pos += 1;
                }
                if self.peek_byte(0) == b'.' && self.peek_byte(1).is_ascii_digit() {
                    self.pos += 1;
                    while self.peek_byte(0).is_ascii_digit() {
                        self.pos += 1;
                    }
                }
                let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
                let r = Rat::parse(text)
                    .ok_or_else(|| ParseError::new(start, format!("bad number `{text}`")))?;
                Tok::Number(r)
            }
            b'A'..=b'Z' | b'a'..=b'z' => {
                self.pos += 1;
                loop {
                    let c = self.peek_byte(0);
                    if c.is_ascii_alphanumeric() || c == b'_' {
                        self.pos += 1;
                    } else if c == b'-' && self.peek_byte(1).is_ascii_alphabetic() {
                        // Hyphenated names like `Easy-to-see`.
                        self.pos += 2;
                    } else {
                        break;
                    }
                }
                let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
                Tok::Ident(text.to_string())
            }
            other => {
                return Err(ParseError::new(
                    start,
                    format!("unexpected character `{}`", other as char),
                ))
            }
        };
        Ok(Some((start, tok)))
    }
}

struct Parser<'v> {
    toks: Vec<(usize, Tok)>,
    pos: usize,
    vocab: &'v mut Vocabulary,
    end: usize,
    /// Nesting levels entered so far ([`Parser::nested`]).
    depth: usize,
}

impl<'v> Parser<'v> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn here(&self) -> usize {
        self.toks.get(self.pos).map_or(self.end, |(p, _)| *p)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, t)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(ParseError::new(self.here(), format!("expected {what}")))
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError::new(self.here(), msg.into()))
    }

    /// Parses one nested production a level deeper, refusing past
    /// [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        production: fn(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.nested_by(1, production)
    }

    /// Parses a production that the caller wraps in `levels` nodes (a
    /// quantifier wraps its body once per variable), refusing once the
    /// total passes [`MAX_DEPTH`].
    fn nested_by<T>(
        &mut self,
        levels: usize,
        production: fn(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.deeper(levels)?;
        let out = production(self);
        self.depth -= levels;
        out
    }

    /// Enters `levels` more levels, refusing past [`MAX_DEPTH`]. A link
    /// of a left-deep binary chain (`<=>`, `+`, `-`, `*`) is one level
    /// for the rest of its chain, whose production restores the depth.
    fn deeper(&mut self, levels: usize) -> Result<(), ParseError> {
        if self.depth + levels > MAX_DEPTH {
            return self.err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.depth += levels;
        Ok(())
    }

    // formula := iff ( '->_i' iff )?
    fn formula(&mut self) -> Result<Formula, ParseError> {
        let prem = self.iff()?;
        if let Some(Tok::Arrow(tol)) = self.peek().cloned() {
            self.bump();
            let concl = self.iff()?;
            let mut vars: Vec<VarId> = crate::analysis::free_vars(&prem)
                .union(&crate::analysis::free_vars(&concl))
                .copied()
                .collect();
            vars.sort();
            if vars.is_empty() {
                return self.err("default rule `->` must mention at least one free variable");
            }
            return Ok(Formula::default_rule(prem, concl, vars, tol));
        }
        Ok(prem)
    }

    fn iff(&mut self) -> Result<Formula, ParseError> {
        let depth = self.depth;
        let mut lhs = self.implies()?;
        while self.eat(&Tok::Iff) {
            self.deeper(1)?;
            let rhs = self.implies()?;
            lhs = Formula::iff(lhs, rhs);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn implies(&mut self) -> Result<Formula, ParseError> {
        let lhs = self.or()?;
        if self.eat(&Tok::Implies) {
            let rhs = self.nested(Self::implies)?; // right associative
            return Ok(Formula::implies(lhs, rhs));
        }
        Ok(lhs)
    }

    // A whole `or`/`&` chain is collected and built with one `disjoin` /
    // `conjoin` call: one n-ary node, deduped once.
    fn or(&mut self) -> Result<Formula, ParseError> {
        let first = self.and()?;
        if !self.eat_keyword("or") {
            return Ok(first);
        }
        let mut parts = vec![first, self.and()?];
        while self.eat_keyword("or") {
            parts.push(self.and()?);
        }
        Ok(Formula::disjoin(parts))
    }

    fn and(&mut self) -> Result<Formula, ParseError> {
        let first = self.unary()?;
        if !self.eat_and() {
            return Ok(first);
        }
        let mut parts = vec![first, self.unary()?];
        while self.eat_and() {
            parts.push(self.unary()?);
        }
        Ok(Formula::conjoin(parts))
    }

    fn eat_and(&mut self) -> bool {
        self.eat(&Tok::Amp) || self.eat_keyword("and")
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        let found = matches!(self.peek(), Some(Tok::Ident(s)) if s == word);
        if found {
            self.bump();
        }
        found
    }

    fn unary(&mut self) -> Result<Formula, ParseError> {
        match self.peek() {
            Some(Tok::Bang) => {
                self.bump();
                Ok(Formula::not(self.nested(Self::unary)?))
            }
            Some(Tok::Ident(s)) if s == "not" => {
                self.bump();
                Ok(Formula::not(self.nested(Self::unary)?))
            }
            Some(Tok::Ident(s)) if s == "forall" || s == "exists" => self.quantifier(),
            _ => self.atom(),
        }
    }

    fn quantifier(&mut self) -> Result<Formula, ParseError> {
        let start = self.here();
        let kw = match self.bump() {
            Some(Tok::Ident(s)) => s,
            _ => unreachable!(),
        };
        let unique = kw == "exists" && self.eat(&Tok::Bang);
        // One or more lowercase variable names, then a parenthesized body.
        let mut vars = Vec::new();
        while let Some(Tok::Ident(name)) = self.peek() {
            if !name.chars().next().is_some_and(|c| c.is_lowercase()) {
                return self.err(format!("quantified variable `{name}` must start lowercase"));
            }
            let name = name.clone();
            self.bump();
            vars.push(self.vocab.var(&name));
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        if vars.is_empty() {
            return self.err("quantifier needs at least one variable");
        }
        self.expect(&Tok::LParen, "`(` after quantifier variables")?;
        let body = self.nested_by(vars.len(), Self::formula)?;
        self.expect(&Tok::RParen, "`)` closing quantifier body")?;
        if unique {
            // Per variable: `∃x (φ ∧ ∀y (φ[x↦y] ⇒ y = x))`, two copies of
            // φ and five new nodes.
            let mut size = 0usize;
            crate::analysis::walk_formula(&body, &mut |_| {
                size += 1;
                true
            });
            for _ in &vars {
                size = size.saturating_mul(2).saturating_add(5);
                if size > MAX_EXISTS_UNIQUE_NODES {
                    return Err(ParseError::new(
                        start,
                        format!(
                            "`exists!` over {} variables desugars to more than \
                             {MAX_EXISTS_UNIQUE_NODES} formula nodes",
                            vars.len()
                        ),
                    ));
                }
            }
        }
        let mut out = body;
        for &v in vars.iter().rev() {
            out = if kw == "forall" {
                Formula::forall(v, out)
            } else if unique {
                // No source text can name `x#uniq`, and an inner
                // `exists! x` rebinds `x`, so it is never captured. A
                // name, not a fresh variable: the same text desugars to
                // the same formula, so `S & S` is `S`.
                let name = format!("{}#uniq", self.vocab.var_name(v));
                let y = self.vocab.var(&name);
                Formula::exists_unique(v, y, out)
            } else {
                Formula::exists(v, out)
            };
        }
        Ok(out)
    }

    fn atom(&mut self) -> Result<Formula, ParseError> {
        match self.peek().cloned() {
            Some(Tok::Number(_)) | Some(Tok::DoubleBar) => self.cmp_chain(),
            Some(Tok::LParen) => {
                self.bump();
                let f = self.nested(Self::formula)?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(f)
            }
            Some(Tok::Ident(s)) if s == "true" => {
                self.bump();
                Ok(Formula::True)
            }
            Some(Tok::Ident(s)) if s == "false" => {
                self.bump();
                Ok(Formula::False)
            }
            Some(Tok::Ident(name)) => {
                let start = self.here();
                self.bump();
                let upper = name.chars().next().is_some_and(|c| c.is_uppercase());
                if upper && self.peek() == Some(&Tok::LParen) {
                    // Predicate application.
                    self.bump();
                    let mut args = Vec::new();
                    if self.peek() != Some(&Tok::RParen) {
                        loop {
                            args.push(self.term()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&Tok::RParen, "`)` closing argument list")?;
                    let p = self
                        .vocab
                        .pred(&name, args.len())
                        .map_err(|e| ParseError::from_vocab(start, e))?;
                    return Ok(Formula::Pred(p, args));
                }
                // A bare term: must be followed by = or !=, or be an arity-0
                // predicate used as a proposition.
                let lhs = self.name_to_term(&name, start)?;
                match self.peek() {
                    Some(Tok::Eq) => {
                        self.bump();
                        let rhs = self.term()?;
                        Ok(Formula::TermEq(lhs, rhs))
                    }
                    Some(Tok::Neq) => {
                        self.bump();
                        let rhs = self.term()?;
                        Ok(Formula::not(Formula::TermEq(lhs, rhs)))
                    }
                    _ => {
                        if upper {
                            // Try as an arity-0 predicate, unless already a constant.
                            if self.vocab.lookup_const(&name).is_some() {
                                return self.err(format!(
                                    "constant `{name}` cannot stand alone as a formula"
                                ));
                            }
                            let p = self
                                .vocab
                                .pred(&name, 0)
                                .map_err(|e| ParseError::from_vocab(start, e))?;
                            Ok(Formula::Pred(p, vec![]))
                        } else {
                            self.err(format!("variable `{name}` is not a formula"))
                        }
                    }
                }
            }
            _ => self.err("expected a formula"),
        }
    }

    fn name_to_term(&mut self, name: &str, start: usize) -> Result<Term, ParseError> {
        let first_upper = name.chars().next().is_some_and(|c| c.is_uppercase());
        if !first_upper {
            return Ok(Term::Var(self.vocab.var(name)));
        }
        if self.peek() == Some(&Tok::LParen) {
            // Function application in term position.
            self.bump();
            let mut args = Vec::new();
            if self.peek() != Some(&Tok::RParen) {
                loop {
                    args.push(self.nested(Self::term)?);
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
            }
            self.expect(&Tok::RParen, "`)` closing function arguments")?;
            let f = self
                .vocab
                .func(name, args.len())
                .map_err(|e| ParseError::from_vocab(start, e))?;
            return Ok(Term::App(f, args));
        }
        let c = self
            .vocab
            .constant(name)
            .map_err(|e| ParseError::from_vocab(start, e))?;
        Ok(Term::Const(c))
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        let start = self.here();
        match self.bump() {
            Some(Tok::Ident(name)) => self.name_to_term(&name, start),
            _ => Err(ParseError::new(start, "expected a term")),
        }
    }

    // cmp-chain := propexpr (op propexpr)+, conjoining adjacent comparisons.
    fn cmp_chain(&mut self) -> Result<Formula, ParseError> {
        let first = self.propexpr()?;
        let mut exprs = vec![first];
        let mut ops = Vec::new();
        loop {
            let op = match self.peek() {
                Some(Tok::ApproxEq(t)) => CmpOp::ApproxEq(*t),
                Some(Tok::ApproxLeq(t)) => CmpOp::ApproxLeq(*t),
                Some(Tok::Eq) => CmpOp::Eq,
                Some(Tok::Leq) => CmpOp::Leq,
                _ => break,
            };
            self.bump();
            ops.push(op);
            exprs.push(self.propexpr()?);
        }
        if ops.is_empty() {
            return self.err("expected a comparison operator after proportion expression");
        }
        let mut parts = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            parts.push(Formula::Cmp(exprs[i].clone(), *op, exprs[i + 1].clone()));
        }
        Ok(Formula::conjoin(parts))
    }

    // propexpr := mulexpr (('+'|'-') mulexpr)*
    fn propexpr(&mut self) -> Result<PropExpr, ParseError> {
        let depth = self.depth;
        let mut lhs = self.mulexpr()?;
        loop {
            let join = if self.eat(&Tok::Plus) {
                PropExpr::Add
            } else if self.eat(&Tok::Minus) {
                PropExpr::Sub
            } else {
                break;
            };
            self.deeper(1)?;
            let rhs = self.mulexpr()?;
            lhs = join(Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn mulexpr(&mut self) -> Result<PropExpr, ParseError> {
        let depth = self.depth;
        let mut lhs = self.prop_atom()?;
        while self.eat(&Tok::Star) {
            self.deeper(1)?;
            let rhs = self.prop_atom()?;
            lhs = PropExpr::Mul(Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn prop_atom(&mut self) -> Result<PropExpr, ParseError> {
        match self.peek().cloned() {
            Some(Tok::Number(n)) => {
                self.bump();
                // `a/b` exact fractions.
                if self.peek() == Some(&Tok::Slash) {
                    self.bump();
                    match self.bump() {
                        Some(Tok::Number(d)) if !d.is_zero() => {
                            return Ok(PropExpr::Rat(n / d));
                        }
                        _ => return self.err("expected nonzero denominator after `/`"),
                    }
                }
                Ok(PropExpr::Rat(n))
            }
            Some(Tok::LParen) => {
                self.bump();
                let e = self.nested(Self::propexpr)?;
                self.expect(&Tok::RParen, "`)` closing proportion expression")?;
                Ok(e)
            }
            Some(Tok::DoubleBar) => {
                self.bump();
                let body = self.nested(Self::formula)?;
                let cond = if self.eat(&Tok::Bar) {
                    Some(self.nested(Self::formula)?)
                } else {
                    None
                };
                self.expect(&Tok::DoubleBar, "`||` closing proportion")?;
                self.expect(&Tok::Underscore, "`_` and subscript variables after `||`")?;
                let vars = self.subscript_vars()?;
                Ok(PropExpr::Prop {
                    body: Box::new(body),
                    cond: cond.map(Box::new),
                    vars,
                })
            }
            _ => self.err("expected a proportion expression"),
        }
    }

    fn subscript_vars(&mut self) -> Result<Vec<VarId>, ParseError> {
        let mut vars = Vec::new();
        if self.eat(&Tok::LBrace) {
            loop {
                match self.bump() {
                    Some(Tok::Ident(name))
                        if name.chars().next().is_some_and(|c| c.is_lowercase()) =>
                    {
                        vars.push(self.vocab.var(&name));
                    }
                    _ => return self.err("expected a variable in proportion subscript"),
                }
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RBrace, "`}` closing subscript")?;
        } else {
            match self.bump() {
                Some(Tok::Ident(name)) if name.chars().next().is_some_and(|c| c.is_lowercase()) => {
                    vars.push(self.vocab.var(&name));
                }
                _ => return self.err("expected a variable in proportion subscript"),
            }
        }
        Ok(vars)
    }
}

/// Parses a single formula, interning symbols into `vocab`.
pub fn parse_formula(vocab: &mut Vocabulary, src: &str) -> Result<Formula, ParseError> {
    let toks = Lexer::new(src).tokens()?;
    let mut p = Parser {
        toks,
        pos: 0,
        vocab,
        end: src.len(),
        depth: 0,
    };
    let f = p.formula()?;
    if p.pos != p.toks.len() {
        return Err(ParseError::new(p.here(), "unexpected trailing input"));
    }
    Ok(f)
}

/// Parses a `;`-separated list of formulas (a knowledge base body).
pub fn parse_kb(vocab: &mut Vocabulary, src: &str) -> Result<Vec<Formula>, ParseError> {
    let toks = Lexer::new(src).tokens()?;
    let mut p = Parser {
        toks,
        pos: 0,
        vocab,
        end: src.len(),
        depth: 0,
    };
    let mut out = Vec::new();
    loop {
        // Allow trailing/duplicate semicolons.
        while p.eat(&Tok::Semi) {}
        if p.peek().is_none() {
            break;
        }
        out.push(p.formula()?);
        if p.peek().is_some() {
            p.expect(&Tok::Semi, "`;` between formulas")?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::free_vars;

    fn parse(s: &str) -> (Vocabulary, Formula) {
        let mut v = Vocabulary::new();
        let f = parse_formula(&mut v, s).unwrap();
        (v, f)
    }

    #[test]
    fn simple_atoms() {
        let (v, f) = parse("Jaun(Eric)");
        match f {
            Formula::Pred(p, args) => {
                assert_eq!(v.pred_name(p), "Jaun");
                assert_eq!(args.len(), 1);
                assert!(matches!(args[0], Term::Const(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn proportions_and_comparisons() {
        let (_, f) = parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8");
        match f {
            Formula::Cmp(
                PropExpr::Prop { cond, vars, .. },
                CmpOp::ApproxEq(TolId(1)),
                PropExpr::Rat(r),
            ) => {
                assert!(cond.is_some());
                assert_eq!(vars.len(), 1);
                assert_eq!(r, Rat::new(4, 5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn comparison_chain_conjoins() {
        let (_, f) = parse("0.7 <~_1 ||Chirps(x) | Bird(x)||_x <~_2 0.8");
        let parts = f.conjuncts();
        assert_eq!(parts.len(), 2);
        assert!(matches!(
            parts[0],
            Formula::Cmp(_, CmpOp::ApproxLeq(TolId(1)), _)
        ));
        assert!(matches!(
            parts[1],
            Formula::Cmp(_, CmpOp::ApproxLeq(TolId(2)), _)
        ));
    }

    #[test]
    fn multi_var_subscripts() {
        let (_, f) = parse("||Likes(x, y) | Elephant(x) & Zookeeper(y)||_{x,y} ~=_1 1");
        match f {
            Formula::Cmp(PropExpr::Prop { vars, .. }, _, _) => assert_eq!(vars.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn default_rule_sugar() {
        let (_, f) = parse("Bird(x) ->_2 Fly(x)");
        match f {
            Formula::Cmp(
                PropExpr::Prop { body, cond, vars },
                CmpOp::ApproxEq(TolId(2)),
                PropExpr::Rat(r),
            ) => {
                assert_eq!(r, Rat::ONE);
                assert_eq!(vars.len(), 1);
                assert!(matches!(*body, Formula::Pred(..)));
                assert!(matches!(cond.as_deref(), Some(Formula::Pred(..))));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn quantifiers_and_connectives() {
        let (_, f) = parse("forall x (Penguin(x) => Bird(x))");
        assert!(matches!(f, Formula::Forall(..)));
        let (_, g) = parse("exists y (Child(Alice, y) & Tall(y))");
        assert!(matches!(g, Formula::Exists(..)));
        let (_, h) = parse("P(x) or !Q(x) & R(x)");
        // `&` binds tighter than `or`.
        assert!(matches!(h, Formula::Or(..)));
    }

    #[test]
    fn exists_unique_desugars() {
        let (_, f) = parse("exists! x (Winner(x))");
        match &f {
            Formula::Exists(_, body) => assert!(matches!(**body, Formula::And(..))),
            other => panic!("{other:?}"),
        }
        assert!(free_vars(&f).is_empty());
    }

    #[test]
    fn long_exists_unique_lists_are_refused_before_desugaring() {
        let list = |k: usize| {
            let vars: Vec<String> = (0..k).map(|i| format!("v{i}")).collect();
            format!("exists! {} (P(v0))", vars.join(", "))
        };
        // 6·2^k − 5 nodes for an atomic body: k = 9 fits, k = 10 does not.
        assert!(parse_on_small_stack(list(9)).is_ok());
        // Only the parse is timed, inside the 2 MiB thread: not the
        // thread's spawn and join.
        let long = format!("Q(C) & {}", list(18));
        let (result, elapsed) = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let start = std::time::Instant::now();
                let result = parse_formula(&mut Vocabulary::new(), &long);
                (result, start.elapsed())
            })
            .unwrap()
            .join()
            .expect("the parser overflowed a 2 MiB stack");
        let err = result.unwrap_err();
        assert!(err.message.contains("exists!"), "{err}");
        assert_eq!(err.pos, "Q(C) & ".len(), "{err}");
        assert!(elapsed.as_millis() < 10, "refusal took {elapsed:?}");
        assert!(parse_on_small_stack(list(10)).is_err());
        // Plain `exists` lists build one node per variable: no cap.
        assert!(parse_on_small_stack(list(18).replace("exists!", "exists")).is_ok());
    }

    #[test]
    fn term_equality_and_inequality() {
        let (_, f) = parse("Ray != Drew");
        assert!(matches!(f, Formula::Not(..)));
        let (_, g) = parse("x = Eric");
        assert!(matches!(g, Formula::TermEq(Term::Var(_), Term::Const(_))));
    }

    #[test]
    fn function_terms() {
        let (v, f) = parse("Rises-late(x, Next-day(y))");
        match f {
            Formula::Pred(p, args) => {
                assert_eq!(v.pred_name(p), "Rises-late");
                assert!(matches!(args[1], Term::App(..)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nested_proportions() {
        // The bed-late default (paper Example 4.6).
        let src = "|| ||Rises-late(x,y)|Day(y)||_y ~=_1 1 | ||To-bed-late(x,z)|Day(z)||_z ~=_2 1 ||_x ~=_3 1";
        let (_, f) = parse(src);
        assert!(matches!(f, Formula::Cmp(..)));
    }

    #[test]
    fn fractions_and_arithmetic() {
        let (_, f) = parse("||P(x)||_x = 1/3");
        match f {
            Formula::Cmp(_, CmpOp::Eq, PropExpr::Rat(r)) => assert_eq!(r, Rat::new(1, 3)),
            other => panic!("{other:?}"),
        }
        let (_, g) = parse("||P(x)||_x + ||Q(x)||_x <= 1");
        assert!(matches!(g, Formula::Cmp(PropExpr::Add(..), CmpOp::Leq, _)));
        let (_, h) = parse("||P(x) & Q(x)||_x = 0.5 * ||Q(x)||_x");
        assert!(matches!(h, Formula::Cmp(_, CmpOp::Eq, PropExpr::Mul(..))));
    }

    #[test]
    fn kb_parsing_with_semicolons() {
        let mut v = Vocabulary::new();
        let fs = parse_kb(
            &mut v,
            "Bird(x) ->_1 Fly(x); Penguin(x) ->_2 !Fly(x); forall x (Penguin(x) => Bird(x));",
        )
        .unwrap();
        assert_eq!(fs.len(), 3);
    }

    #[test]
    fn errors_have_positions() {
        let mut v = Vocabulary::new();
        let err = parse_formula(&mut v, "Bird(x").unwrap_err();
        assert!(err.pos > 0);
        assert!(parse_formula(&mut v, "").is_err());
        assert!(parse_formula(&mut v, "P(x) P(y)").is_err());
        assert!(parse_formula(&mut v, "||P(x)||_x").is_err()); // missing comparison
    }

    #[test]
    fn arity_errors_surface() {
        let mut v = Vocabulary::new();
        parse_formula(&mut v, "Likes(x, y)").unwrap();
        assert!(parse_formula(&mut v, "Likes(x)").is_err());
    }

    /// Parses `src` on a thread with a 2 MiB stack, the size of a server
    /// worker's.
    fn parse_on_small_stack(src: String) -> Result<Formula, ParseError> {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse_formula(&mut Vocabulary::new(), &src))
            .unwrap()
            .join()
            .expect("the parser overflowed a 2 MiB stack")
    }

    #[test]
    fn deep_nesting_is_a_positioned_error_not_a_stack_overflow() {
        let parens = format!("{}Hep(Eric){}", "(".repeat(1000), ")".repeat(1000));
        let bangs = format!("{}Hep(Eric)", "!".repeat(10_000));
        let terms = format!("P({}C{})", "F(".repeat(10_000), ")".repeat(10_000));
        let nots = format!("{}P(C)", "not ".repeat(1000));
        let implications = vec!["P(C)"; 1000].join(" => ");
        let vars: Vec<String> = (0..5000).map(|i| format!("v{i}")).collect();
        let quantified = format!("forall {} (P(C))", vars.join(", "));
        let props = format!(
            "{}||P(x)||_x{} ~=_1 0.5",
            "(".repeat(1000),
            ")".repeat(1000)
        );
        for src in [parens, bangs, terms, nots, implications, props, quantified] {
            let head: String = src.chars().take(12).collect();
            let err = parse_on_small_stack(src).unwrap_err();
            assert!(
                err.message.contains("nesting deeper than"),
                "{head}…: {err}"
            );
            assert!(err.pos > 0, "{head}…: {err}");
        }
    }

    #[test]
    fn nesting_up_to_the_cap_still_parses() {
        // The cap's own levels, on the small stack: one for the parenthesis
        // chain, the rest for the innermost `!`.
        let src = format!(
            "{}!Hep(Eric){}",
            "(".repeat(MAX_DEPTH - 1),
            ")".repeat(MAX_DEPTH - 1)
        );
        assert!(parse_on_small_stack(src).is_ok());
        let over = format!(
            "{}!Hep(Eric){}",
            "(".repeat(MAX_DEPTH),
            ")".repeat(MAX_DEPTH)
        );
        assert!(parse_on_small_stack(over).is_err());
        let term = format!("P({}C{})", "F(".repeat(MAX_DEPTH), ")".repeat(MAX_DEPTH));
        assert!(parse_on_small_stack(term).is_ok());
        // Each quantified variable is a level, counted with the nesting
        // around it.
        let vars = |k: usize| {
            (0..k)
                .map(|i| format!("v{i}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        assert!(parse_on_small_stack(format!("forall {} (P(C))", vars(MAX_DEPTH))).is_ok());
        assert!(parse_on_small_stack(format!("forall {} (P(C))", vars(MAX_DEPTH + 1))).is_err());
        assert!(parse_on_small_stack(format!("!forall {} (P(C))", vars(MAX_DEPTH))).is_err());
    }

    #[test]
    fn binary_chain_links_count_toward_the_cap() {
        let iffs = vec!["Hep(Eric)"; 6000].join(" <=> ");
        let sums = format!("{} ~=_1 0.5", vec!["||Hep(x)||_x"; 6000].join(" + "));
        let diffs = format!("{} <= 1", vec!["||Hep(x)||_x"; 6000].join(" - "));
        let products = format!("{} <= 1", vec!["||Hep(x)||_x"; 6000].join(" * "));
        for src in [iffs, sums, diffs, products] {
            let head: String = src.chars().take(16).collect();
            let err = parse_on_small_stack(src).unwrap_err();
            assert!(
                err.message.contains("nesting deeper than"),
                "{head}…: {err}"
            );
            assert!(err.pos > 0, "{head}…: {err}");
        }
        // Each link is one level: MAX_DEPTH links parse, one more does not.
        let chain = |op: &str, links: usize| vec!["P(C)"; links + 1].join(op);
        assert!(parse_on_small_stack(chain(" <=> ", MAX_DEPTH)).is_ok());
        assert!(parse_on_small_stack(chain(" <=> ", MAX_DEPTH + 1)).is_err());
        let sum = |links: usize| format!("{} <= 1", vec!["0.5"; links + 1].join(" + "));
        assert!(parse_on_small_stack(sum(MAX_DEPTH)).is_ok());
        assert!(parse_on_small_stack(sum(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn long_and_or_chains_are_one_flat_node() {
        let atoms: Vec<String> = (0..6000).map(|i| format!("P{i}(C)")).collect();
        for (op, and) in [(" & ", true), (" and ", true), (" or ", false)] {
            let f = parse_on_small_stack(atoms.join(op)).unwrap();
            match (&f, and) {
                (Formula::And(parts), true) | (Formula::Or(parts), false) => {
                    assert_eq!(parts.len(), 6000, "{op}")
                }
                _ => panic!("`{op}` chain parsed as {f:?}"),
            }
        }
        // Parentheses regroup nothing: both nestings give the same node.
        let (_, left) = parse("(P(A) & Q(A)) & (R(A) or (S(A) or P(B)))");
        let (_, right) = parse("P(A) & (Q(A) & (R(A) or S(A) or P(B)))");
        assert_eq!(left, right);
        match &left {
            Formula::And(parts) => {
                assert_eq!(parts.len(), 3);
                assert!(matches!(&parts[2], Formula::Or(ds) if ds.len() == 3));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn keyword_operators() {
        let (_, f) = parse("P(x) and Q(x)");
        assert!(matches!(f, Formula::And(..)));
        let (_, g) = parse("not P(x)");
        assert!(matches!(g, Formula::Not(..)));
    }
}
