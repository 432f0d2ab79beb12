//! Interned vocabularies: predicate, function, constant and variable symbols.
//!
//! A [`Vocabulary`] is the finite first-order signature `Φ` of the paper plus
//! an interner for variable names. Every AST node refers to symbols by dense
//! integer ids, which keeps formulas `Copy`-cheap to traverse and lets the
//! world engines index interpretations by `id` directly.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

define_id!(
    /// A predicate symbol (with fixed arity).
    PredId
);
define_id!(
    /// A function symbol (with fixed arity).
    FuncId
);
define_id!(
    /// A constant symbol.
    ConstId
);
define_id!(
    /// A variable name.
    VarId
);

/// Symbol-classification errors raised while interning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VocabError {
    ArityMismatch {
        name: String,
        declared: usize,
        used: usize,
    },
    KindMismatch {
        name: String,
        declared: &'static str,
        used: &'static str,
    },
}

impl fmt::Display for VocabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VocabError::ArityMismatch {
                name,
                declared,
                used,
            } => write!(
                f,
                "symbol `{name}` declared with arity {declared} but used with arity {used}"
            ),
            VocabError::KindMismatch {
                name,
                declared,
                used,
            } => {
                write!(
                    f,
                    "symbol `{name}` declared as {declared} but used as {used}"
                )
            }
        }
    }
}

impl std::error::Error for VocabError {}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SymbolKind {
    Pred(PredId),
    Func(FuncId),
    Const(ConstId),
}

/// A finite first-order signature with a variable-name interner.
///
/// Cloning is O(1): the symbol and variable tables sit behind [`Arc`]s
/// and are copied on write, so a clone shares both tables with its source
/// until one of the two interns something new into one of them (the
/// other table stays shared). Answering a query parses it against a clone
/// of the KB's vocabulary; a query over known symbols never copies a
/// table at all.
#[derive(Clone, Default)]
pub struct Vocabulary {
    symbols: Arc<SymbolTable>,
    vars: Arc<VarTable>,
    fresh_counter: u32,
}

/// Predicates, functions and constants: one namespace, three id spaces.
#[derive(Clone, Default)]
struct SymbolTable {
    pred_names: Vec<String>,
    pred_arities: Vec<usize>,
    func_names: Vec<String>,
    func_arities: Vec<usize>,
    const_names: Vec<String>,
    kinds: HashMap<String, SymbolKind>,
}

#[derive(Clone, Default)]
struct VarTable {
    names: Vec<String>,
    ids: HashMap<String, VarId>,
}

impl Vocabulary {
    pub fn new() -> Vocabulary {
        Vocabulary::default()
    }

    /// Interns a predicate symbol, checking arity consistency.
    pub fn pred(&mut self, name: &str, arity: usize) -> Result<PredId, VocabError> {
        match self.symbols.kinds.get(name) {
            Some(&SymbolKind::Pred(id)) => {
                let declared = self.symbols.pred_arities[id.index()];
                if declared != arity {
                    return Err(VocabError::ArityMismatch {
                        name: name.to_string(),
                        declared,
                        used: arity,
                    });
                }
                Ok(id)
            }
            Some(other) => Err(VocabError::KindMismatch {
                name: name.to_string(),
                declared: kind_name(*other),
                used: "predicate",
            }),
            None => {
                let t = Arc::make_mut(&mut self.symbols);
                let id = PredId(t.pred_names.len() as u32);
                t.pred_names.push(name.to_string());
                t.pred_arities.push(arity);
                t.kinds.insert(name.to_string(), SymbolKind::Pred(id));
                Ok(id)
            }
        }
    }

    /// Interns a function symbol, checking arity consistency.
    pub fn func(&mut self, name: &str, arity: usize) -> Result<FuncId, VocabError> {
        match self.symbols.kinds.get(name) {
            Some(&SymbolKind::Func(id)) => {
                let declared = self.symbols.func_arities[id.index()];
                if declared != arity {
                    return Err(VocabError::ArityMismatch {
                        name: name.to_string(),
                        declared,
                        used: arity,
                    });
                }
                Ok(id)
            }
            Some(other) => Err(VocabError::KindMismatch {
                name: name.to_string(),
                declared: kind_name(*other),
                used: "function",
            }),
            None => {
                let t = Arc::make_mut(&mut self.symbols);
                let id = FuncId(t.func_names.len() as u32);
                t.func_names.push(name.to_string());
                t.func_arities.push(arity);
                t.kinds.insert(name.to_string(), SymbolKind::Func(id));
                Ok(id)
            }
        }
    }

    /// Interns a constant symbol.
    pub fn constant(&mut self, name: &str) -> Result<ConstId, VocabError> {
        match self.symbols.kinds.get(name) {
            Some(&SymbolKind::Const(id)) => Ok(id),
            Some(other) => Err(VocabError::KindMismatch {
                name: name.to_string(),
                declared: kind_name(*other),
                used: "constant",
            }),
            None => {
                let t = Arc::make_mut(&mut self.symbols);
                let id = ConstId(t.const_names.len() as u32);
                t.const_names.push(name.to_string());
                t.kinds.insert(name.to_string(), SymbolKind::Const(id));
                Ok(id)
            }
        }
    }

    /// Interns a variable name (variables live in a separate namespace).
    pub fn var(&mut self, name: &str) -> VarId {
        if let Some(&id) = self.vars.ids.get(name) {
            return id;
        }
        let t = Arc::make_mut(&mut self.vars);
        let id = VarId(t.names.len() as u32);
        t.names.push(name.to_string());
        t.ids.insert(name.to_string(), id);
        id
    }

    /// Creates a variable guaranteed not to collide with any parsed name.
    pub fn fresh_var(&mut self, hint: &str) -> VarId {
        loop {
            self.fresh_counter += 1;
            let name = format!("{hint}#{}", self.fresh_counter);
            if !self.vars.ids.contains_key(&name) {
                return self.var(&name);
            }
        }
    }

    /// True when `self` and `other` still share both interning tables —
    /// neither has interned anything since one was cloned from the other.
    pub fn shares_tables_with(&self, other: &Vocabulary) -> bool {
        Arc::ptr_eq(&self.symbols, &other.symbols) && Arc::ptr_eq(&self.vars, &other.vars)
    }

    pub fn pred_count(&self) -> usize {
        self.symbols.pred_names.len()
    }

    pub fn func_count(&self) -> usize {
        self.symbols.func_names.len()
    }

    pub fn const_count(&self) -> usize {
        self.symbols.const_names.len()
    }

    pub fn var_count(&self) -> usize {
        self.vars.names.len()
    }

    pub fn pred_name(&self, id: PredId) -> &str {
        &self.symbols.pred_names[id.index()]
    }

    pub fn pred_arity(&self, id: PredId) -> usize {
        self.symbols.pred_arities[id.index()]
    }

    pub fn func_name(&self, id: FuncId) -> &str {
        &self.symbols.func_names[id.index()]
    }

    pub fn func_arity(&self, id: FuncId) -> usize {
        self.symbols.func_arities[id.index()]
    }

    pub fn const_name(&self, id: ConstId) -> &str {
        &self.symbols.const_names[id.index()]
    }

    pub fn var_name(&self, id: VarId) -> &str {
        &self.vars.names[id.index()]
    }

    pub fn lookup_pred(&self, name: &str) -> Option<PredId> {
        match self.symbols.kinds.get(name) {
            Some(&SymbolKind::Pred(id)) => Some(id),
            _ => None,
        }
    }

    pub fn lookup_const(&self, name: &str) -> Option<ConstId> {
        match self.symbols.kinds.get(name) {
            Some(&SymbolKind::Const(id)) => Some(id),
            _ => None,
        }
    }

    pub fn preds(&self) -> impl Iterator<Item = PredId> + '_ {
        (0..self.symbols.pred_names.len() as u32).map(PredId)
    }

    pub fn funcs(&self) -> impl Iterator<Item = FuncId> + '_ {
        (0..self.symbols.func_names.len() as u32).map(FuncId)
    }

    pub fn consts(&self) -> impl Iterator<Item = ConstId> + '_ {
        (0..self.symbols.const_names.len() as u32).map(ConstId)
    }

    /// True when the signature is unary: every predicate has arity 1 and
    /// there are no function symbols. This is the fragment where the
    /// maximum-entropy connection (paper §6) applies.
    pub fn is_unary(&self) -> bool {
        self.symbols.func_names.is_empty() && self.symbols.pred_arities.iter().all(|&a| a == 1)
    }
}

fn kind_name(kind: SymbolKind) -> &'static str {
    match kind {
        SymbolKind::Pred(_) => "predicate",
        SymbolKind::Func(_) => "function",
        SymbolKind::Const(_) => "constant",
    }
}

impl fmt::Debug for Vocabulary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vocabulary")
            .field("preds", &self.symbols.pred_names)
            .field("funcs", &self.symbols.func_names)
            .field("consts", &self.symbols.const_names)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut v = Vocabulary::new();
        let p1 = v.pred("Bird", 1).unwrap();
        let p2 = v.pred("Bird", 1).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(v.pred_name(p1), "Bird");
        assert_eq!(v.pred_arity(p1), 1);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut v = Vocabulary::new();
        v.pred("Likes", 2).unwrap();
        let err = v.pred("Likes", 1).unwrap_err();
        assert!(matches!(err, VocabError::ArityMismatch { .. }));
    }

    #[test]
    fn kind_mismatch_rejected() {
        let mut v = Vocabulary::new();
        v.constant("Eric").unwrap();
        assert!(matches!(
            v.pred("Eric", 1),
            Err(VocabError::KindMismatch { .. })
        ));
        v.pred("Bird", 1).unwrap();
        assert!(matches!(
            v.constant("Bird"),
            Err(VocabError::KindMismatch { .. })
        ));
    }

    #[test]
    fn variables_are_separate_namespace() {
        let mut v = Vocabulary::new();
        v.pred("P", 1).unwrap();
        // A variable may share its spelling with nothing else, but variables
        // never clash with symbols because they are interned separately.
        let x1 = v.var("x");
        let x2 = v.var("x");
        assert_eq!(x1, x2);
        let y = v.var("y");
        assert_ne!(x1, y);
    }

    #[test]
    fn fresh_vars_never_collide() {
        let mut v = Vocabulary::new();
        let a = v.var("u#1");
        let b = v.fresh_var("u");
        assert_ne!(a, b);
        let c = v.fresh_var("u");
        assert_ne!(b, c);
    }

    fn sample() -> Vocabulary {
        let mut v = Vocabulary::new();
        v.pred("Bird", 1).unwrap();
        v.func("Mother", 1).unwrap();
        v.constant("Tweety").unwrap();
        v.var("x");
        v
    }

    fn counts(v: &Vocabulary) -> (usize, usize, usize, usize) {
        (
            v.pred_count(),
            v.func_count(),
            v.const_count(),
            v.var_count(),
        )
    }

    #[test]
    fn clones_share_tables_until_written() {
        let v = sample();
        let mut c = v.clone();
        assert!(c.shares_tables_with(&v));
        // Re-interning known symbols is a read, not a write.
        assert_eq!(c.pred("Bird", 1).unwrap(), v.lookup_pred("Bird").unwrap());
        c.constant("Tweety").unwrap();
        c.var("x");
        assert!(c.shares_tables_with(&v));
        c.constant("Opus").unwrap();
        assert!(!c.shares_tables_with(&v));
        // A clone of the written copy shares with it, not with the source.
        let d = c.clone();
        assert!(d.shares_tables_with(&c));
        assert!(!d.shares_tables_with(&v));
    }

    #[test]
    fn writes_to_a_clone_leave_the_source_unchanged() {
        let v = sample();
        let before = counts(&v);
        type Write = fn(&mut Vocabulary);
        let writes: [(&str, Write); 5] = [
            ("pred", |c| {
                assert_eq!(c.pred("Fly", 1).unwrap(), PredId(1));
            }),
            ("func", |c| {
                assert_eq!(c.func("Father", 1).unwrap(), FuncId(1));
            }),
            ("constant", |c| {
                assert_eq!(c.constant("Opus").unwrap(), ConstId(1));
            }),
            ("var", |c| {
                assert_eq!(c.var("y"), VarId(1));
            }),
            ("fresh_var", |c| {
                assert_eq!(c.fresh_var("u"), VarId(1));
            }),
        ];
        for (what, write) in writes {
            let mut c = v.clone();
            write(&mut c);
            assert_ne!(counts(&c), before, "{what}");
            assert_eq!(counts(&v), before, "{what} leaked into the source");
            assert_eq!(v.lookup_pred("Fly"), None, "{what}");
            assert_eq!(v.lookup_const("Opus"), None, "{what}");
            assert_eq!(v.lookup_pred("Bird"), Some(PredId(0)), "{what}");
            assert_eq!(v.lookup_const("Tweety"), Some(ConstId(0)), "{what}");
            assert_eq!(v.var_name(VarId(0)), "x", "{what}");
        }
        // The source can still be written independently, with its own ids.
        let mut v = v;
        let mut c = v.clone();
        assert_eq!(c.constant("Opus").unwrap(), ConstId(1));
        assert_eq!(v.constant("Polly").unwrap(), ConstId(1));
        assert_eq!(c.const_name(ConstId(1)), "Opus");
        assert_eq!(v.const_name(ConstId(1)), "Polly");
    }

    #[test]
    fn unary_detection() {
        let mut v = Vocabulary::new();
        v.pred("P", 1).unwrap();
        v.constant("c").unwrap();
        assert!(v.is_unary());
        v.pred("R", 2).unwrap();
        assert!(!v.is_unary());
    }
}
