//! Exact `Pr_N^τ` for unary knowledge bases by weighted summation over
//! profiles.
//!
//! The outer loops enumerate the constants' equality pattern (a set
//! partition) and each block's atom; the inner loop enumerates atom-count
//! compositions of `N`. Universal conjuncts `∀x φ(x)` with quantifier-free
//! unary `φ` are pre-compiled to an *allowed atom set*: compositions placing
//! mass on a forbidden atom would fail the KB anyway, so they are skipped
//! wholesale (this is what makes the lottery examples with `∀x Ticket(x)`
//! tractable at `N` in the thousands).

use crate::atoms::{compile_atom_set, AtomSet};
use crate::profile::{Profile, ProfileEvaluator};
use rw_logic::ast::Formula;
use rw_logic::{KnowledgeBase, Tolerances, Vocabulary};
use rw_util::{Compositions, FactTable, LogWeight, SetPartitions};

/// Errors from the unary counting engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnaryError {
    /// The vocabulary has functions or non-unary predicates.
    NotUnary,
    /// The profile space exceeds the enumeration budget.
    TooManyProfiles { estimated: u128, budget: u128 },
}

impl std::fmt::Display for UnaryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnaryError::NotUnary => {
                write!(
                    f,
                    "unary engine requires a function-free, all-unary vocabulary"
                )
            }
            UnaryError::TooManyProfiles { estimated, budget } => write!(
                f,
                "profile space too large: ~{estimated} profiles exceeds budget {budget}"
            ),
        }
    }
}

impl std::error::Error for UnaryError {}

/// The unary counting engine.
#[derive(Clone, Debug)]
pub struct UnaryEngine {
    /// Budget on enumerated profiles (compositions × block assignments ×
    /// partitions).
    pub max_profiles: u128,
}

impl Default for UnaryEngine {
    fn default() -> UnaryEngine {
        UnaryEngine {
            max_profiles: 30_000_000,
        }
    }
}

/// Accumulated weights from a profile sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepTotals {
    pub kb_weight: LogWeight,
    pub query_weight: LogWeight,
}

impl UnaryEngine {
    /// Atoms allowed to be nonempty, from universal conjuncts.
    fn allowed_atoms(kb: &KnowledgeBase, atoms: usize) -> AtomSet {
        let vocab = kb.vocab();
        let mut allowed = AtomSet::full(atoms);
        for c in kb.conjuncts() {
            if let Formula::Forall(v, body) = c {
                if let Some(s) = compile_atom_set(body, *v, vocab) {
                    allowed = allowed.intersect(&s);
                }
            }
        }
        allowed
    }

    /// The number of atoms, checked before any atom set is built. The
    /// vocabulary must be unary, and an atom space past the profile
    /// budget is refused: when the KB or query names a constant, each
    /// block of constants may take any atom, so the sweep would pass the
    /// budget anyway, and without one the allowed-atom set alone would
    /// be that large.
    pub fn atom_space(&self, vocab: &Vocabulary) -> Result<usize, UnaryError> {
        if !vocab.is_unary() {
            return Err(UnaryError::NotUnary);
        }
        let estimated = 1u128
            .checked_shl(vocab.pred_count() as u32)
            .unwrap_or(u128::MAX);
        if estimated > self.max_profiles {
            return Err(UnaryError::TooManyProfiles {
                estimated,
                budget: self.max_profiles,
            });
        }
        Ok(estimated as usize)
    }

    fn estimate_profiles(n: usize, free_atoms: usize, consts: usize, atoms: usize) -> u128 {
        let partitions = rw_util::comb::bell_number(consts.min(12));
        let compositions = rw_util::comb::weak_compositions_count(n as u64, free_atoms as u64);
        // Every block can take any atom: bound blocks by the constant count.
        let assignments = (atoms as u128).saturating_pow(consts as u32);
        partitions
            .saturating_mul(assignments)
            .saturating_mul(compositions)
    }

    /// Sweeps all profiles, accumulating KB weight and KB∧query weight.
    pub fn sweep(
        &self,
        kb: &KnowledgeBase,
        query: &Formula,
        n: usize,
        tol: &Tolerances,
    ) -> Result<SweepTotals, UnaryError> {
        self.sweep_weighted(kb, query, n, tol, |_| LogWeight::ONE)
    }

    /// [`UnaryEngine::sweep`] with a per-profile weight hook.
    ///
    /// `extra_weight` receives the atom-count vector and multiplies the
    /// uniform world-counting weight. Random worlds uses the constant `1`
    /// (every world equally likely); exchangeable non-uniform priors — the
    /// random-propensities method of the paper's §7.3, Carnap's `m*` — have
    /// per-world probabilities that depend only on the atom counts, so they
    /// reuse this sweep with their own hook (see the `rw-propensity`
    /// crate).
    pub fn sweep_weighted(
        &self,
        kb: &KnowledgeBase,
        query: &Formula,
        n: usize,
        tol: &Tolerances,
        extra_weight: impl Fn(&[usize]) -> LogWeight,
    ) -> Result<SweepTotals, UnaryError> {
        let mut totals = SweepTotals {
            kb_weight: LogWeight::ZERO,
            query_weight: LogWeight::ZERO,
        };
        self.walk_profiles(kb, n, tol, |counts, mut w, ev| {
            w *= extra_weight(counts);
            totals.kb_weight += w;
            if ev.eval(query) {
                totals.query_weight += w;
            }
        })?;
        Ok(totals)
    }

    /// Walks every profile that satisfies the KB, in one fixed order: the
    /// constants' set partitions, then the block → allowed-atom odometer,
    /// then the atom-count compositions of `n`. `visit` receives each
    /// profile's atom counts, its world-counting weight (multinomial times
    /// the falling factorials that seat the blocks) and the evaluator
    /// positioned on it. When universal conjuncts forbid every atom there
    /// is nowhere to put `N ≥ 1` elements, and nothing is visited.
    fn walk_profiles(
        &self,
        kb: &KnowledgeBase,
        n: usize,
        tol: &Tolerances,
        mut visit: impl FnMut(&[usize], LogWeight, &mut ProfileEvaluator),
    ) -> Result<(), UnaryError> {
        let vocab = kb.vocab();
        let atoms = self.atom_space(vocab)?;
        let allowed = Self::allowed_atoms(kb, atoms);
        let free: Vec<usize> = allowed.iter().collect();
        let m = vocab.const_count();

        let estimated = Self::estimate_profiles(n, free.len().max(1), m, atoms);
        if estimated > self.max_profiles {
            return Err(UnaryError::TooManyProfiles {
                estimated,
                budget: self.max_profiles,
            });
        }
        if free.is_empty() {
            return Ok(());
        }

        let kb_formula = kb.as_formula();
        let fact = FactTable::new(n);
        let mut counts = vec![0usize; atoms];
        let mut partitions = SetPartitions::new(m);
        while let Some(rgs) = partitions.next() {
            let const_block = rgs.to_vec();
            let blocks = SetPartitions::block_count(&const_block);
            // Odometer over block → allowed atom assignments.
            let mut assign_idx = vec![0usize; blocks];
            loop {
                let block_atoms: Vec<usize> = assign_idx.iter().map(|&i| free[i]).collect();
                let mut ev = ProfileEvaluator::new(
                    vocab,
                    tol,
                    Profile {
                        counts: counts.clone(),
                        block_atoms: block_atoms.clone(),
                        const_block: const_block.clone(),
                    },
                );
                let mut blocks_in_atom = vec![0usize; atoms];
                for &a in &block_atoms {
                    blocks_in_atom[a] += 1;
                }

                let mut comps = Compositions::new(n, free.len());
                while let Some(comp) = comps.next() {
                    counts.fill(0);
                    for (i, &a) in free.iter().enumerate() {
                        counts[a] = comp[i];
                    }
                    // Zero-weight profiles: atom cannot host its blocks.
                    if blocks_in_atom.iter().zip(&counts).any(|(&k, &c)| k > c) {
                        continue;
                    }
                    ev.set_counts(&counts);
                    if !ev.eval(&kb_formula) {
                        continue;
                    }
                    let mut w = fact.multinomial(n, &counts);
                    for (a, &k) in blocks_in_atom.iter().enumerate() {
                        if k > 0 {
                            w *= fact.falling(counts[a], k);
                        }
                    }
                    visit(&counts, w, &mut ev);
                }

                // Advance block-atom odometer.
                if blocks == 0 {
                    break;
                }
                let mut i = 0;
                while i < blocks {
                    assign_idx[i] += 1;
                    if assign_idx[i] < free.len() {
                        break;
                    }
                    assign_idx[i] = 0;
                    i += 1;
                }
                if assign_idx.iter().all(|&x| x == 0) {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Exact `Pr_N^τ(query | KB)`; `None` when no world satisfies the KB.
    pub fn degree_of_belief_at(
        &self,
        kb: &KnowledgeBase,
        query: &Formula,
        n: usize,
        tol: &Tolerances,
    ) -> Result<Option<f64>, UnaryError> {
        let totals = self.sweep(kb, query, n, tol)?;
        if totals.kb_weight.is_zero() {
            return Ok(None);
        }
        Ok(Some(totals.query_weight.ratio(totals.kb_weight)))
    }

    /// The expected atom proportions `E[n_a / N | KB]` — the exact finite-`N`
    /// counterpart of the maximum-entropy point (paper §6).
    pub fn expected_atom_proportions(
        &self,
        kb: &KnowledgeBase,
        n: usize,
        tol: &Tolerances,
    ) -> Result<Option<Vec<f64>>, UnaryError> {
        let mut total = LogWeight::ZERO;
        let mut per_atom = vec![LogWeight::ZERO; self.atom_space(kb.vocab())?];
        self.walk_profiles(kb, n, tol, |counts, w, _| {
            total += w;
            for (a, &c) in counts.iter().enumerate() {
                if c > 0 {
                    per_atom[a] += w * LogWeight::from_value(c as f64 / n as f64);
                }
            }
        })?;
        if total.is_zero() {
            return Ok(None);
        }
        Ok(Some(per_atom.iter().map(|w| w.ratio(total)).collect()))
    }
}

/// Convenience wrapper using the default engine configuration.
pub fn degree_of_belief_at(
    kb: &KnowledgeBase,
    query: &Formula,
    n: usize,
    tol: &Tolerances,
) -> Result<Option<f64>, UnaryError> {
    UnaryEngine::default().degree_of_belief_at(kb, query, n, tol)
}

/// Convenience wrapper for [`UnaryEngine::expected_atom_proportions`].
pub fn expected_atom_proportions(
    kb: &KnowledgeBase,
    n: usize,
    tol: &Tolerances,
) -> Result<Option<Vec<f64>>, UnaryError> {
    UnaryEngine::default().expected_atom_proportions(kb, n, tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rw_util::Rat;

    fn tol(num: i128, den: i128) -> Tolerances {
        Tolerances::uniform(Rat::new(num, den))
    }

    /// Cross-validation: the unary engine must agree exactly with
    /// brute-force enumeration wherever both run.
    #[test]
    fn agrees_with_enumeration() {
        let cases = [
            ("||P(x)||_x ~=_1 0.5; Q(C)", "P(C)"),
            ("P(C) or Q(C)", "Q(C)"),
            ("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(C)", "Hep(C)"),
            ("forall x (P(x) => Q(x)); P(C)", "Q(C)"),
            ("C1 = C2 or C2 = C3 or C1 = C3", "C1 = C2"),
            ("exists! x (W(x)); forall x (W(x) => T(x)); T(C)", "W(C)"),
        ];
        for (kb_src, q_src) in cases {
            let mut kb = KnowledgeBase::parse(kb_src).unwrap();
            let q = kb.parse_query(q_src).unwrap();
            for n in 2..=4usize {
                let t = tol(1, 4);
                let exact = rw_worlds::degree_of_belief_at(&kb, &q, n, &t).unwrap();
                let unary = degree_of_belief_at(&kb, &q, n, &t).unwrap();
                match (exact, unary) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert!(
                            (a - b).abs() < 1e-9,
                            "{kb_src} ⊢ {q_src} at N={n}: {a} vs {b}"
                        )
                    }
                    other => panic!("{kb_src} ⊢ {q_src} at N={n}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn hepatitis_converges_to_point_eight() {
        // Paper Example 5.8. The order of limits matters (Definition 4.3):
        // at *fixed* τ the N → ∞ value is pulled to the entropy-preferred
        // boundary 0.8 − τ, so we check (a) Theorem 5.6's guarantee that
        // every finite value lies in [0.8 − τ, 0.8 + τ], and (b) convergence
        // to 0.8 along a diagonal where τ shrinks with N.
        let mut kb = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap();
        let q = kb.parse_query("Hep(Eric)").unwrap();
        let mut last_gap = f64::INFINITY;
        for (den, n) in [(10i128, 20usize), (20, 40), (40, 80)] {
            let t = tol(1, den);
            let d = degree_of_belief_at(&kb, &q, n, &t).unwrap().unwrap();
            let tau = 1.0 / den as f64;
            assert!(d >= 0.8 - tau - 1e-12 && d <= 0.8 + tau + 1e-12, "{d}");
            let gap = (d - 0.8).abs();
            assert!(
                gap < last_gap,
                "diagonal not converging: {gap} vs {last_gap}"
            );
            last_gap = gap;
        }
        assert!(last_gap < 0.011, "{last_gap}");
    }

    #[test]
    fn lottery_exact_winner_probability() {
        // Paper §5.5: everyone holds a ticket, exactly one winner:
        // Pr(Winner(C)) = 1/N exactly.
        let mut kb = KnowledgeBase::parse(
            "exists! x (Winner(x)); forall x (Winner(x) => Ticket(x)); forall x (Ticket(x)); Ticket(C)",
        )
        .unwrap();
        let q = kb.parse_query("Winner(C)").unwrap();
        let t = tol(1, 10);
        for n in [5usize, 20, 100] {
            let d = degree_of_belief_at(&kb, &q, n, &t).unwrap().unwrap();
            assert!((d - 1.0 / n as f64).abs() < 1e-9, "N={n}: {d}");
        }
        let someone = kb.parse_query("exists x (Winner(x))").unwrap();
        let d = degree_of_belief_at(&kb, &someone, 50, &t).unwrap().unwrap();
        assert_eq!(d, 1.0);
    }

    #[test]
    fn inconsistent_kb_yields_none() {
        let mut kb = KnowledgeBase::parse("forall x (P(x)); exists x (!P(x))").unwrap();
        let q = kb.parse_query("P(C)").unwrap();
        assert_eq!(degree_of_belief_at(&kb, &q, 5, &tol(1, 10)).unwrap(), None);
    }

    #[test]
    fn expected_proportions_match_maxent_shape() {
        // Paper §6 example: ∀x P1(x) ∧ ||P1 ∧ P2||_x ⪯ 0.3. As N grows the
        // expected proportion of P2 approaches 0.3 (the maxent point).
        let mut kb =
            KnowledgeBase::parse("forall x (P1(x)); ||P1(x) & P2(x)||_x <~_1 0.3").unwrap();
        let q = kb.parse_query("P2(C)").unwrap();
        let t = tol(1, 50);
        let d = degree_of_belief_at(&kb, &q, 120, &t).unwrap().unwrap();
        assert!((d - 0.3).abs() < 0.05, "{d}");
        let props = expected_atom_proportions(&kb, 120, &t).unwrap().unwrap();
        // Atoms without P1 must carry no mass.
        assert!(props[0] < 1e-12 && props[2] < 1e-12, "{props:?}");
    }

    /// `f64::to_bits` of both sweeps on three KBs: two named individuals
    /// under one statistic, a lottery with two ticket holders, and a
    /// disjunctive equality KB under a universal. Together they walk
    /// several set partitions, multi-block odometers and a pruned atom
    /// set, so the pinned bits fix the profile walk's visit order and its
    /// `LogWeight` accumulation order.
    #[test]
    fn sweeps_are_pinned_bit_for_bit() {
        let cases = [
            (
                "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Jaun(Tom)",
                "Hep(Eric) & Hep(Tom)",
                9usize,
                10i128,
                0x3fe37b8aa13942cc_u64,
                [
                    0x3fc91bbaddd889ac_u64,
                    0x3fc91bbaddd889ac,
                    0x3fc1205ba1029786,
                    0x3fde541751a62a5e,
                ],
            ),
            (
                "exists! x (Winner(x)); forall x (Winner(x) => Ticket(x)); Ticket(C); Ticket(D)",
                "Winner(C) or Winner(D)",
                12,
                10,
                0x3fd1111111111121,
                [
                    0x3fd918a6dfc35183,
                    0,
                    0x3fe0c901e573ac93,
                    0x3fb5555555555558,
                ],
            ),
            (
                "forall x (P1(x)); ||P1(x) & P2(x)||_x <~_1 0.3; C1 = C2 or C2 = C3 or C1 = C3",
                "P2(C1) & C1 = C2",
                14,
                20,
                0x3fb7063af6382d5b,
                [0, 0x3fe7c6eaf1351432, 0, 0x3fd0722a1d95d736],
            ),
        ];
        for (kb_src, q_src, n, den, belief, proportions) in cases {
            let mut kb = KnowledgeBase::parse(kb_src).unwrap();
            let q = kb.parse_query(q_src).unwrap();
            let t = tol(1, den);
            let d = degree_of_belief_at(&kb, &q, n, &t).unwrap().unwrap();
            assert_eq!(d.to_bits(), belief, "{kb_src} ⊢ {q_src}: {d}");
            let p = expected_atom_proportions(&kb, n, &t).unwrap().unwrap();
            let bits: Vec<u64> = p.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, proportions, "{kb_src}: {p:?}");
        }
    }

    #[test]
    fn budget_is_enforced() {
        let engine = UnaryEngine { max_profiles: 10 };
        let mut kb = KnowledgeBase::parse("||P(x)||_x ~=_1 0.5").unwrap();
        let q = kb.parse_query("P(C)").unwrap();
        let err = engine
            .degree_of_belief_at(&kb, &q, 100, &tol(1, 10))
            .unwrap_err();
        assert!(matches!(err, UnaryError::TooManyProfiles { .. }));
    }

    #[test]
    fn an_atom_space_past_the_budget_is_refused_before_it_is_built() {
        // 70 fact predicates and the query's `Hep`: 2^71 atoms, more than
        // any atom set could hold.
        let facts: Vec<String> = (0..70).map(|i| format!("Q{i}(K{i})")).collect();
        let mut kb = KnowledgeBase::parse(&facts.join("; ")).unwrap();
        let q = kb.parse_query("Hep(Eric) & Hep(Tom)").unwrap();
        let err = degree_of_belief_at(&kb, &q, 3, &tol(1, 10)).unwrap_err();
        assert_eq!(
            err,
            UnaryError::TooManyProfiles {
                estimated: 1 << 71,
                budget: UnaryEngine::default().max_profiles,
            }
        );
        let engine = UnaryEngine { max_profiles: 3 };
        let kb = KnowledgeBase::parse("P(A); Q(A)").unwrap();
        assert!(engine.atom_space(kb.vocab()).is_err());
        let engine = UnaryEngine { max_profiles: 4 };
        assert_eq!(engine.atom_space(kb.vocab()), Ok(4));
    }

    #[test]
    fn a_profile_space_past_u128_is_a_budget_error() {
        // The probe with 16 irrelevant facts: 2^18 atoms, a composition
        // count far past u128. The estimate saturates instead of
        // panicking, and the engine reports its budget.
        let facts: Vec<String> = (0..16).map(|i| format!("Q{i}(K{i})")).collect();
        let mut kb = KnowledgeBase::parse(&format!(
            "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Jaun(Tom); {}",
            facts.join("; ")
        ))
        .unwrap();
        let q = kb.parse_query("Hep(Eric) & Hep(Tom)").unwrap();
        let err = degree_of_belief_at(&kb, &q, 8, &tol(1, 4)).unwrap_err();
        assert_eq!(
            err,
            UnaryError::TooManyProfiles {
                estimated: u128::MAX,
                budget: UnaryEngine::default().max_profiles,
            }
        );
    }

    #[test]
    fn non_unary_is_rejected() {
        let mut kb = KnowledgeBase::parse("Likes(A, B)").unwrap();
        let q = kb.parse_query("Likes(B, A)").unwrap();
        assert_eq!(
            degree_of_belief_at(&kb, &q, 3, &tol(1, 10)).unwrap_err(),
            UnaryError::NotUnary
        );
    }
}
