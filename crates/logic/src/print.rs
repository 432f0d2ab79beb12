//! Round-trippable pretty-printing of `L≈` formulas.
//!
//! Formulas store interned symbol ids, so printing needs the vocabulary;
//! [`Pretty`] pairs the two. The output re-parses to an alpha-equivalent
//! formula (verified by property tests in the parser round-trip suite).

use crate::ast::{CmpOp, Formula, PropExpr, Term};
use crate::vocab::Vocabulary;
use std::fmt;

/// A formula (or term / proportion expression) paired with its vocabulary
/// for display.
pub struct Pretty<'a, T: ?Sized> {
    pub vocab: &'a Vocabulary,
    pub item: &'a T,
}

impl<'a, T: ?Sized> Pretty<'a, T> {
    pub fn new(vocab: &'a Vocabulary, item: &'a T) -> Pretty<'a, T> {
        Pretty { vocab, item }
    }
}

// Precedence levels, loosest to tightest.
const PREC_IFF: u8 = 0;
const PREC_IMPLIES: u8 = 1;
const PREC_OR: u8 = 2;
const PREC_AND: u8 = 3;
const PREC_UNARY: u8 = 4;

fn fmt_formula(f: &Formula, v: &Vocabulary, prec: u8, out: &mut fmt::Formatter<'_>) -> fmt::Result {
    let mine = match f {
        Formula::Iff(..) => PREC_IFF,
        Formula::Implies(..) => PREC_IMPLIES,
        Formula::Or(..) => PREC_OR,
        Formula::And(..) => PREC_AND,
        _ => PREC_UNARY,
    };
    let parens = mine < prec;
    if parens {
        write!(out, "(")?;
    }
    match f {
        Formula::True => write!(out, "true")?,
        Formula::False => write!(out, "false")?,
        Formula::Pred(p, args) => {
            write!(out, "{}", v.pred_name(*p))?;
            if !args.is_empty() {
                write!(out, "(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(out, ", ")?;
                    }
                    fmt_term(a, v, out)?;
                }
                write!(out, ")")?;
            }
        }
        Formula::TermEq(a, b) => {
            fmt_term(a, v, out)?;
            write!(out, " = ")?;
            fmt_term(b, v, out)?;
        }
        Formula::Not(g) => {
            write!(out, "!")?;
            fmt_formula(g, v, PREC_UNARY + 1, out)?;
        }
        Formula::And(parts) | Formula::Or(parts) => {
            let sep = if mine == PREC_AND { " & " } else { " or " };
            for (i, g) in parts.iter().enumerate() {
                if i > 0 {
                    write!(out, "{sep}")?;
                }
                fmt_formula(g, v, mine + 1, out)?;
            }
        }
        Formula::Implies(a, b) => {
            fmt_formula(a, v, PREC_IMPLIES + 1, out)?;
            write!(out, " => ")?;
            fmt_formula(b, v, PREC_IMPLIES, out)?;
        }
        Formula::Iff(a, b) => {
            fmt_formula(a, v, PREC_IFF + 1, out)?;
            write!(out, " <=> ")?;
            fmt_formula(b, v, PREC_IFF + 1, out)?;
        }
        Formula::Forall(x, g) => {
            write!(out, "forall {} (", v.var_name(*x))?;
            fmt_formula(g, v, 0, out)?;
            write!(out, ")")?;
        }
        Formula::Exists(x, g) => {
            write!(out, "exists {} (", v.var_name(*x))?;
            fmt_formula(g, v, 0, out)?;
            write!(out, ")")?;
        }
        Formula::Cmp(l, op, r) => {
            fmt_prop(l, v, out)?;
            match op {
                CmpOp::ApproxEq(t) => write!(out, " ~=_{} ", t.0)?,
                CmpOp::ApproxLeq(t) => write!(out, " <~_{} ", t.0)?,
                CmpOp::Eq => write!(out, " = ")?,
                CmpOp::Leq => write!(out, " <= ")?,
            }
            fmt_prop(r, v, out)?;
        }
    }
    if parens {
        write!(out, ")")?;
    }
    Ok(())
}

fn fmt_term(t: &Term, v: &Vocabulary, out: &mut fmt::Formatter<'_>) -> fmt::Result {
    match t {
        Term::Var(x) => write!(out, "{}", v.var_name(*x)),
        Term::Const(c) => write!(out, "{}", v.const_name(*c)),
        Term::App(f, args) => {
            write!(out, "{}(", v.func_name(*f))?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    write!(out, ", ")?;
                }
                fmt_term(a, v, out)?;
            }
            write!(out, ")")
        }
    }
}

fn fmt_prop(e: &PropExpr, v: &Vocabulary, out: &mut fmt::Formatter<'_>) -> fmt::Result {
    fmt_prop_prec(e, v, 0, out)
}

fn fmt_prop_prec(
    e: &PropExpr,
    v: &Vocabulary,
    prec: u8,
    out: &mut fmt::Formatter<'_>,
) -> fmt::Result {
    match e {
        PropExpr::Rat(r) => write!(out, "{r}"),
        PropExpr::Prop { body, cond, vars } => {
            write!(out, "||")?;
            fmt_formula(body, v, 0, out)?;
            if let Some(c) = cond {
                write!(out, " | ")?;
                fmt_formula(c, v, 0, out)?;
            }
            write!(out, "||_")?;
            if vars.len() == 1 {
                write!(out, "{}", v.var_name(vars[0]))?;
            } else {
                write!(out, "{{")?;
                for (i, x) in vars.iter().enumerate() {
                    if i > 0 {
                        write!(out, ",")?;
                    }
                    write!(out, "{}", v.var_name(*x))?;
                }
                write!(out, "}}")?;
            }
            Ok(())
        }
        PropExpr::Add(a, b) => {
            let parens = prec > 0;
            if parens {
                write!(out, "(")?;
            }
            fmt_prop_prec(a, v, 0, out)?;
            write!(out, " + ")?;
            fmt_prop_prec(b, v, 1, out)?;
            if parens {
                write!(out, ")")?;
            }
            Ok(())
        }
        PropExpr::Sub(a, b) => {
            let parens = prec > 0;
            if parens {
                write!(out, "(")?;
            }
            fmt_prop_prec(a, v, 0, out)?;
            write!(out, " - ")?;
            fmt_prop_prec(b, v, 1, out)?;
            if parens {
                write!(out, ")")?;
            }
            Ok(())
        }
        PropExpr::Mul(a, b) => {
            fmt_prop_prec(a, v, 1, out)?;
            write!(out, " * ")?;
            fmt_prop_prec(b, v, 2, out)?;
            Ok(())
        }
    }
}

impl fmt::Display for Pretty<'_, Formula> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_formula(self.item, self.vocab, 0, f)
    }
}

impl fmt::Display for Pretty<'_, Term> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_term(self.item, self.vocab, f)
    }
}

impl fmt::Display for Pretty<'_, PropExpr> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_prop(self.item, self.vocab, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_formula;

    fn roundtrip(src: &str) {
        let mut v = Vocabulary::new();
        let f = parse_formula(&mut v, src).unwrap();
        let printed = Pretty::new(&v, &f).to_string();
        let f2 = parse_formula(&mut v, &printed)
            .unwrap_or_else(|e| panic!("reparse of `{printed}` failed: {e}"));
        assert_eq!(f, f2, "`{src}` -> `{printed}`");
    }

    #[test]
    fn roundtrips() {
        for src in [
            "Jaun(Eric)",
            "||Hep(x) | Jaun(x)||_x ~=_1 0.8",
            "forall x (Penguin(x) => Bird(x))",
            "P(x) & Q(x) or R(x)",
            "P(x) or Q(x) & R(x)",
            "!(P(x) or Q(x))",
            "P(x) => Q(x) => R(x)",
            "(P(x) => Q(x)) => R(x)",
            "x = Eric & !(y = x)",
            "||Likes(x, y) | Elephant(x) & Zookeeper(y)||_{x,y} ~=_1 1",
            "||P(x)||_x + ||Q(x)||_x <= 1",
            "||P(x) & Q(x)||_x = 0.5 * ||Q(x)||_x",
            "exists y (Child(Alice, y) & Tall(y))",
            "P(x) <=> Q(x) <=> R(x)",
            "Rises-late(x, Next-day(y))",
        ] {
            roundtrip(src);
        }
    }

    #[test]
    fn precedence_printing_is_minimal() {
        let mut v = Vocabulary::new();
        let f = parse_formula(&mut v, "P(x) & (Q(x) or R(x))").unwrap();
        assert_eq!(Pretty::new(&v, &f).to_string(), "P(x) & (Q(x) or R(x))");
        let g = parse_formula(&mut v, "(P(x) & Q(x)) or R(x)").unwrap();
        assert_eq!(Pretty::new(&v, &g).to_string(), "P(x) & Q(x) or R(x)");
    }
}
