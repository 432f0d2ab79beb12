//! The statistical first-order language `L≈` of Bacchus–Grove–Halpern–Koller
//! (Definition 4.1 of the paper), plus its exact-comparison variant `L=`.
//!
//! `L≈` augments first-order logic with *proportion expressions*:
//!
//! * `||φ(x̄)||_x̄` — the fraction of domain tuples satisfying `φ`;
//! * `||φ(x̄) | ψ(x̄)||_x̄` — the conditional fraction among tuples
//!   satisfying `ψ` (a *primitive* of the language: the paper's Example 4.2
//!   shows that "multiplying out" across approximate comparisons is unsound);
//! * rational constants, closed under `+`, `-` and `×`;
//!
//! and an infinite family of approximate comparison connectives `≈_i` / `⪯_i`
//! interpreted with a tolerance vector `τ⃗` (the subscript picks the
//! component). Statistical defaults — "birds typically fly" — are the sugar
//! `Bird(x) ->_i Fly(x)` for `||Fly(x) | Bird(x)||_x ≈_i 1` (paper §4.3).
//!
//! # Text syntax
//!
//! ```text
//! kb       := formula (';' formula)*
//! formula  := iff | iff '->_i' iff            (default-rule sugar)
//! iff      := imp ('<=>' imp)*
//! imp      := or ('=>' imp)?                  (right associative)
//! or       := and ('or' and)*
//! and      := unary (('&'|'and') unary)*
//! unary    := '!' unary | quant | atom
//! quant    := ('forall'|'exists'|'exists!') var+ '(' formula ')'
//! atom     := pred '(' term,* ')' | term ('='|'!=') term | cmp-chain
//!           | 'true' | 'false' | '(' formula ')'
//! cmp      := propexpr (op propexpr)+         (chains conjoin)
//! op       := '~=_i' | '<~_i' | '=' | '<='    (approx eq/leq, exact eq/leq)
//! propexpr := number | fraction | '||' formula ('|' formula)? '||_' vars
//!           | propexpr ('+'|'-'|'*') propexpr | '(' propexpr ')'
//! vars     := var | '{' var (',' var)* '}'
//! ```
//!
//! Identifiers starting with a lowercase letter are variables; identifiers
//! starting with an uppercase letter are predicates (when applied in formula
//! position), constants (bare in term position), or functions (applied in
//! term position).
//!
//! # Module map
//!
//! * [`ast`] / [`parser`] / [`mod@print`] — the syntax tree, the text syntax
//!   above, and round-trippable pretty-printing;
//! * [`kb`] — [`KnowledgeBase`]: a vocabulary plus asserted conjuncts;
//! * [`analysis`] — free variables, symbols, substitution: the
//!   side-condition toolkit for the theorem engine;
//! * [`canon`] — canonical formula strings and KB fingerprints: the cache
//!   keys behind `rw-core`'s answer cache ([`canon::canonical_formula`],
//!   [`canon::kb_fingerprint`]) and the one test of formula identity the
//!   theorem engine matches by ([`canon::canonical_formula_over`]);
//! * [`tolerances`] / [`vocab`] — the tolerance vector `τ⃗` and interned
//!   signatures.

pub mod analysis;
pub mod ast;
pub mod canon;
pub mod kb;
pub mod parser;
pub mod print;
pub mod tolerances;
pub mod vocab;

pub use ast::{CmpOp, Formula, PropExpr, Term, TolId};
pub use kb::KnowledgeBase;
pub use parser::{parse_formula, parse_kb, ParseError};
pub use print::Pretty;
pub use tolerances::Tolerances;
pub use vocab::{ConstId, FuncId, PredId, VarId, Vocabulary};
