//! The built-in pipeline stages: theorem engine, Monte-Carlo sampling,
//! maximum entropy, and exact world counting.
//!
//! Each implements [`Solver`] and is sound on its own; the default
//! [`crate::RandomWorlds`] pipeline runs them in the order above (cheapest
//! and most exact first; the sampling stage only joins when approximate
//! inference is enabled). All are plain public structs so callers can
//! reorder, omit, re-budget, or interleave them with custom solvers via
//! [`crate::RandomWorlds::with_solvers`].

use crate::belief::{Belief, Provenance};
use crate::cache::{DenomCache, DenomKey, DrawCache, DrawKey};
use crate::prepared::PreparedKb;
use crate::solver::{Budget, Diagonal, Recurse, Solver, SolverOutcome};
use crate::theorems;
use rw_logic::ast::Formula;
use rw_logic::{KnowledgeBase, Tolerances};
use rw_maxent::{LimitOutcome, MaxentError, SweepConfig};
use rw_worlds::mc::{self, McConfig};
use rw_worlds::{ScaledCount, SymmetrySpec};
use std::ops::RangeInclusive;
use std::sync::Arc;

/// Stage 1: the syntactic theorem engine (§5 of the paper).
///
/// Pattern matchers with fully checked side conditions for direct
/// inference, minimal reference classes, the strength rule, Dempster
/// combination, independence products, unique names, nested defaults,
/// and the Or rule. Exact, effectively instant, and the only stage that handles non-unary
/// KBs symbolically — but incomplete: it declines whenever no pattern
/// (soundly) matches.
#[derive(Clone, Copy, Debug, Default)]
pub struct TheoremSolver;

impl Solver for TheoremSolver {
    fn name(&self) -> &str {
        "theorems"
    }

    /// Prepares `kb` ad hoc: the analysis is built for this one query.
    fn solve(
        &self,
        kb: &KnowledgeBase,
        query: &Formula,
        budget: &Budget,
        recurse: &Recurse<'_>,
    ) -> SolverOutcome {
        self.solve_prepared(&PreparedKb::new(kb.clone()), query, budget, recurse)
    }

    fn solve_prepared(
        &self,
        prepared: &PreparedKb,
        query: &Formula,
        _budget: &Budget,
        recurse: &Recurse<'_>,
    ) -> SolverOutcome {
        let (kb, analysis) = (prepared.kb(), prepared.analysis());
        match theorems::try_classified(kb, analysis, query, recurse) {
            Some((belief, provenance)) => SolverOutcome::Answered { belief, provenance },
            None => SolverOutcome::Declined {
                reason: "no theorem pattern matched with verified side conditions".to_string(),
            },
        }
    }
}

/// Stage 2: the maximum-entropy asymptotics for unary KBs (§6).
///
/// Computes the entropy-maximizing atom distribution over a shrinking
/// τ-sweep and classifies the limit (converged / non-robust / infeasible).
/// Declines on KBs outside the essentially-propositional fragment it can
/// compile, or on numeric failure — both of which the exact counting
/// stage can still handle.
#[derive(Clone, Debug, Default)]
pub struct MaxEntSolver {
    /// The τ-sweep schedule and robustness probing configuration.
    pub sweep: SweepConfig,
}

impl MaxEntSolver {
    /// A maxent stage with the given sweep configuration.
    pub fn new(sweep: SweepConfig) -> MaxEntSolver {
        MaxEntSolver { sweep }
    }
}

impl Solver for MaxEntSolver {
    fn name(&self) -> &str {
        "maxent"
    }

    fn solve(
        &self,
        kb: &KnowledgeBase,
        query: &Formula,
        _budget: &Budget,
        _recurse: &Recurse<'_>,
    ) -> SolverOutcome {
        match rw_maxent::degree_of_belief_limit(kb, query, &self.sweep) {
            Ok(LimitOutcome::Converged(v)) => SolverOutcome::Answered {
                belief: Belief::Point(v),
                provenance: Provenance::MaxEnt,
            },
            Ok(LimitOutcome::NonRobust(vs)) => SolverOutcome::Answered {
                belief: Belief::NonRobust(vs),
                provenance: Provenance::MaxEnt,
            },
            // Infeasibility is a *semantic* answer (Definition 4.3: the KB
            // is not eventually consistent), not a failure to apply.
            Ok(LimitOutcome::Infeasible) | Err(MaxentError::Infeasible) => {
                SolverOutcome::Answered {
                    belief: Belief::Undefined,
                    provenance: Provenance::MaxEnt,
                }
            }
            Err(e @ MaxentError::Compile(_)) | Err(e @ MaxentError::Numeric(_)) => {
                SolverOutcome::Declined {
                    reason: e.to_string(),
                }
            }
        }
    }
}

/// The sampling stage: Monte-Carlo estimation of the Definition 4.2
/// fraction along an `N`-sweep, with confidence intervals.
///
/// A bounded-cost, anytime stage for queries that miss every theorem
/// pattern and would otherwise fall into the (much slower) counting
/// stage; the maxent stage answers unary KBs exactly in under a
/// millisecond, but declines everything else. Sampling is KB-aware (asserted facts forced, unary
/// statistics proposed at their nominal rates — see
/// [`rw_worlds::mc::SamplePlan`]), stops adaptively once the 95% CI
/// half-width reaches the configured target, and answers with
/// [`Belief::Approximate`] so the uncertainty is part of the answer.
/// The stage [`Budget`] caps the total draws across the sweep.
///
/// Determinism: for a fixed [`McConfig::seed`] the answer is
/// bit-identical at any [`McConfig::threads`] count.
///
/// Declines when no draw satisfied the KB within the budget — an
/// improbable KB is indistinguishable from an inconsistent one by
/// sampling, so the exact stages get their turn.
#[derive(Clone, Debug, Default)]
pub struct MonteCarloSolver {
    /// Sampler tuning (seed, threads, caps, CI target).
    pub config: McConfig,
    /// The `(τ, N)` sweep points (2–4 domain sizes; the engine passes its
    /// configured diagonal).
    pub diagonal: Diagonal,
    /// Where draws against a prepared KB are kept for its later queries
    /// ([`Self::with_draw_cache`]); without one every query draws afresh.
    pub draw_cache: Option<Arc<DrawCache>>,
}

impl MonteCarloSolver {
    /// A sampling stage with the given configuration and sweep diagonal.
    pub fn new(config: McConfig, diagonal: Diagonal) -> MonteCarloSolver {
        MonteCarloSolver {
            config,
            diagonal,
            draw_cache: None,
        }
    }

    /// Keeps the draws of queries against a prepared KB in `cache`, so
    /// later queries against it replay them instead of drawing again.
    /// Answers are identical either way, bit for bit.
    pub fn with_draw_cache(mut self, cache: Arc<DrawCache>) -> MonteCarloSolver {
        self.draw_cache = Some(cache);
        self
    }

    /// Samples the sweep, through `store` when one is given.
    fn sample(
        &self,
        kb: &KnowledgeBase,
        query: &Formula,
        cfg: &McConfig,
        store: Option<&mc::Scoped<'_, DrawKey>>,
    ) -> SolverOutcome {
        let sweep = mc::estimate_sweep_stored(kb, query, self.diagonal.points(), cfg, store);
        match sweep.value {
            Some(value) => SolverOutcome::Answered {
                belief: Belief::Approximate {
                    value,
                    ci_half_width: sweep.ci_half_width.unwrap_or(0.5),
                },
                provenance: Provenance::MonteCarlo {
                    drawn: sweep.drawn,
                    accepted: sweep.accepted,
                    n_points: sweep.points.iter().filter(|p| p.value.is_some()).count(),
                },
            },
            None => SolverOutcome::Declined {
                reason: format!(
                    "no sample satisfied the KB ({} drawn); cannot distinguish an \
                     improbable KB from an inconsistent one",
                    sweep.drawn
                ),
            },
        }
    }

    /// The configuration under `budget`: the stage budget is the hard
    /// sample cap; the config's own cap still applies if tighter.
    fn capped(&self, budget: &Budget) -> McConfig {
        let cap = u64::try_from(budget.max_count.min(u64::MAX as u128)).expect("clamped");
        McConfig {
            max_samples: self.config.max_samples.min(cap),
            ..self.config.clone()
        }
    }
}

impl Solver for MonteCarloSolver {
    fn name(&self) -> &str {
        "montecarlo"
    }

    fn solve(
        &self,
        kb: &KnowledgeBase,
        query: &Formula,
        budget: &Budget,
        _recurse: &Recurse<'_>,
    ) -> SolverOutcome {
        self.sample(kb, query, &self.capped(budget), None)
    }

    /// Replays the draws kept for `prepared` and keeps the ones drawn
    /// fresh, when there is a draw cache and the KB keeps draws
    /// ([`PreparedKb::draw_id`]); samples like [`Self::solve`] otherwise.
    fn solve_prepared(
        &self,
        prepared: &PreparedKb,
        query: &Formula,
        budget: &Budget,
        recurse: &Recurse<'_>,
    ) -> SolverOutcome {
        let (Some(cache), Some(kb_id)) = (self.draw_cache.as_deref(), prepared.draw_id()) else {
            return self.solve(prepared.kb(), query, budget, recurse);
        };
        let cfg = self.capped(budget);
        let store = cache.scope(DrawKey {
            kb_id,
            config: self.config.result_fingerprint(),
            cap: cfg.max_samples,
        });
        self.sample(prepared.kb(), query, &cfg, Some(&store))
    }
}

/// Which exact counter the enumeration stage runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Counter {
    /// Compiled branch-and-count ([`rw_worlds::count`]): formulas are
    /// lowered once per `(query, N)` into slot programs and counted by
    /// pruned search with free-slot multiplication. The budget bounds
    /// visited search nodes.
    #[default]
    BranchAndCount,
    /// Orbit counting over the unnamed-element group
    /// ([`rw_worlds::SymmetrySpec`]) where both the KB and `KB ∧ query`
    /// fall inside its fragment, branch-and-count elsewhere. The budget
    /// bounds orbit representatives.
    Orbits,
    /// The odometer oracle ([`rw_worlds::for_each_world`]) the other
    /// counters are cross-checked against: every interpretation at the
    /// two largest sizes whose interpretation count fits the budget,
    /// which bounds interpretations.
    Oracle,
}

/// Stage 3: exact world counting along the diagonal (small `N`).
///
/// The last resort for non-unary KBs: compute the Definition 4.2 ratio
/// `#(KB ∧ query) / #KB` exactly at rising domain sizes and extrapolate
/// the `O(1/N)` error term through the last two.
///
/// The [`Counter`] picks how the worlds are counted. Branch-and-count
/// (the default) reaches domain sizes and vocabularies (several binary
/// predicates, functions) that blind odometer enumeration never could;
/// orbit counting enumerates polynomially many weighted representatives
/// instead of `2^(N²)` branches, so the scan climbs toward `N ≈ 40`
/// instead of 8. Both share each `#KB` denominator across queries
/// through an optional [`DenomCache`]. Counting is bit-deterministic at
/// any [`Self::threads`] count.
#[derive(Clone, Debug)]
pub struct EnumerationDiagonalSolver {
    /// The diagonal whose finest tolerance the counts evaluate at.
    pub diagonal: Diagonal,
    /// The exact counter (default branch-and-count).
    pub counter: Counter,
    /// Smallest domain size of the rising-`N` scan (`None` = 2; values
    /// below 2 are clamped up — `N = 1` has no extrapolation line).
    pub min_n: Option<usize>,
    /// Largest domain size the scan may attempt (`None` = the counter's
    /// default: [`MAX_SYMMETRY_N`] where orbit counting applies,
    /// [`MAX_COMPILED_N`] elsewhere). The scan still stops earlier when
    /// the visited budget would not survive the next point.
    pub max_n: Option<usize>,
    /// Worker threads for compiled counting (0 = one per core). Never
    /// affects an answer or its trace counters — counting is
    /// chunk-deterministic — so it is excluded from cache fingerprints.
    pub threads: usize,
    /// Shared cache of `#worlds_N^τ(KB)` denominators, so a sweep point's
    /// denominator is counted once per KB instead of once per query.
    pub denom_cache: Option<Arc<DenomCache>>,
}

impl Default for EnumerationDiagonalSolver {
    fn default() -> EnumerationDiagonalSolver {
        EnumerationDiagonalSolver {
            diagonal: Diagonal::default(),
            counter: Counter::default(),
            min_n: None,
            max_n: None,
            threads: 1,
            denom_cache: None,
        }
    }
}

/// The largest domain size the plain compiled scan will attempt by
/// default. The rising-N scan stops earlier when the growth prediction
/// says the budget would not survive the next point.
pub const MAX_COMPILED_N: usize = 8;

/// The default ceiling of the symmetry-mode scan: representatives grow
/// polynomially, so the diagonal climbs far past [`MAX_COMPILED_N`]
/// before the budget bites.
pub const MAX_SYMMETRY_N: usize = 40;

/// Hard ceiling any configured `--max-n` is validated against (slot
/// values are `u8`, so plain counting cannot exceed `N = 254` anyway).
pub const MAX_SCAN_N: usize = 64;

/// The odometer oracle's own ceiling: blind enumeration is doubly
/// exponential, so sizes past 6 are never feasible anyway.
const MAX_ORACLE_N: usize = 6;

impl EnumerationDiagonalSolver {
    /// A counting stage over the given diagonal, with the compiled
    /// engine enabled and no shared denominator cache.
    pub fn new(diagonal: Diagonal) -> EnumerationDiagonalSolver {
        EnumerationDiagonalSolver {
            diagonal,
            ..EnumerationDiagonalSolver::default()
        }
    }

    /// Builder: attach a shared denominator cache.
    pub fn with_denom_cache(mut self, cache: Arc<DenomCache>) -> EnumerationDiagonalSolver {
        self.denom_cache = Some(cache);
        self
    }

    /// The domain sizes the rising-`N` scan counts. The configured
    /// window is clamped: the floor never drops below 2 (no
    /// extrapolation line through `N = 1`) and the ceiling never below
    /// the floor. The oracle keeps the window's two largest sizes whose
    /// interpretation count fits the budget (just `N = 2` when only it
    /// does), capped at [`MAX_ORACLE_N`]; `Err` when none fits.
    fn sizes(
        &self,
        kb: &KnowledgeBase,
        orbits: bool,
        budget: &Budget,
    ) -> Result<RangeInclusive<usize>, String> {
        let default_max = if orbits {
            MAX_SYMMETRY_N
        } else {
            MAX_COMPILED_N
        };
        let min = self.min_n.unwrap_or(2).max(2);
        let max = self.max_n.unwrap_or(default_max).max(min);
        if self.counter != Counter::Oracle {
            return Ok(min..=max);
        }
        let fits = |n: &usize| {
            rw_worlds::count_interpretations(kb.vocab(), *n).is_some_and(|c| c <= budget.max_count)
        };
        let Some(hi) = (min..=max.min(MAX_ORACLE_N).max(min)).rev().find(fits) else {
            return Err(format!(
                "even N={min} needs more than {} interpretations",
                budget.max_count
            ));
        };
        Ok(if hi > 2 { hi - 1..=hi } else { hi..=hi })
    }
}

/// What every diagonal point of one query's scan shares.
struct Scan<'a> {
    solver: &'a EnumerationDiagonalSolver,
    kb: &'a KnowledgeBase,
    query: &'a Formula,
    kb_formula: Formula,
    numerator_formula: Formula,
    tau: rw_util::Rat,
    tol: Tolerances,
    /// The stage budget in visited nodes (or representatives): every
    /// denominator's budget and the first numerator's.
    max_visited: u64,
    /// The KB's and vocabulary's fingerprints, when denominators are
    /// cached.
    fingerprints: Option<(u64, u64)>,
    /// The numerator's and the KB's orbit specs, when orbit counting
    /// applies to both; the ratio must divide counts of one method.
    specs: Option<(SymmetrySpec, SymmetrySpec)>,
}

/// A numerator's counted effort: branch-and-count's nodes or orbit
/// representatives (the odometer reports none).
#[derive(Clone, Copy, Debug, Default)]
struct Effort {
    visited: u64,
    branched: u64,
    orbits: u64,
}

impl Scan<'_> {
    /// One `(value, numerator effort)` diagonal point at domain size `n`,
    /// or the reason the scan stops there. A `None` value means the KB is
    /// unsatisfiable at this size (the degree of belief is undefined
    /// there — Definition 4.2).
    ///
    /// The numerator runs first under the (per-`N` laddered)
    /// `num_budget`; the denominator runs under the *full stage budget*
    /// and is shared through the [`DenomCache`]. Keeping the
    /// denominator's budget fixed — and part of its cache key — makes a
    /// point's outcome independent of cache warmth: a hit can only ever
    /// replace a count that would have succeeded anyway. The odometer
    /// counts both in one uncached pass under the budget its sizes were
    /// chosen by.
    fn point(&self, n: usize, num_budget: u64) -> Result<(Option<f64>, Effort), String> {
        let failed = |e: rw_worlds::CountError| format!("counting at N={n} failed: {e}");
        let options = rw_worlds::CountOptions {
            max_visited: num_budget,
            threads: self.solver.threads,
        };
        let (numerator, effort, denominator) = match (&self.specs, self.solver.counter) {
            (_, Counter::Oracle) => {
                let (both, kb_worlds) = rw_worlds::count_worlds(
                    self.kb.vocab(),
                    n,
                    &self.tol,
                    self.query,
                    &self.kb_formula,
                );
                (
                    ScaledCount::from_u128(both),
                    Effort::default(),
                    ScaledCount::from_u128(kb_worlds),
                )
            }
            (Some((num_spec, kb_spec)), _) => {
                let numerator = num_spec.count(n, &self.tol, &options).map_err(failed)?;
                let denominator = self
                    .denominator(n, true, |options| {
                        kb_spec.count(n, &self.tol, options).map(|out| out.count)
                    })
                    .map_err(failed)?;
                let effort = Effort {
                    orbits: numerator.reps,
                    ..Effort::default()
                };
                (numerator.count, effort, denominator)
            }
            (None, _) => {
                let vocab = self.kb.vocab();
                let Some(num_prog) =
                    rw_worlds::Program::compile(vocab, n, &self.tol, &self.numerator_formula)
                else {
                    return Err(format!("slot space at N={n} overflows the machine"));
                };
                let numerator = rw_worlds::count_models(&num_prog, &options).map_err(failed)?;
                let denominator = self
                    .denominator(n, false, |options| {
                        rw_worlds::count_formula_models(
                            vocab,
                            n,
                            &self.tol,
                            &self.kb_formula,
                            options,
                        )
                        .map(|out| ScaledCount::from_u128(out.count))
                    })
                    .map_err(failed)?;
                let effort = Effort {
                    visited: numerator.visited,
                    branched: numerator.branched,
                    orbits: 0,
                };
                (ScaledCount::from_u128(numerator.count), effort, denominator)
            }
        };
        Ok((ScaledCount::ratio(&numerator, &denominator), effort))
    }

    /// The `#worlds_N^τ(KB)` denominator at one sweep point: served from
    /// the [`DenomCache`] when the KB is fingerprinted and the point was
    /// counted before, else counted by `count` under the full stage
    /// budget and remembered. `orbits` keys orbit counts apart from
    /// plain ones (their budget units differ).
    fn denominator(
        &self,
        n: usize,
        orbits: bool,
        count: impl FnOnce(&rw_worlds::CountOptions) -> Result<ScaledCount, rw_worlds::CountError>,
    ) -> Result<ScaledCount, rw_worlds::CountError> {
        let key = self.fingerprints.map(|(kb_fp, vocab_fp)| DenomKey {
            kb_fingerprint: kb_fp,
            vocab_fingerprint: vocab_fp,
            n,
            tau: (self.tau.num(), self.tau.den()),
            budget: self.max_visited,
            symmetry: orbits,
        });
        let cache = self.solver.denom_cache.as_ref();
        if let Some(hit) = key.as_ref().and_then(|k| cache?.get(k)) {
            return Ok(hit);
        }
        let counted = count(&rw_worlds::CountOptions {
            max_visited: self.max_visited,
            threads: self.solver.threads,
        })?;
        if let (Some(k), Some(cache)) = (key, cache) {
            cache.insert(k, counted);
        }
        Ok(counted)
    }
}

/// Classifies the non-empty rising-`N` diagonal points `(N, value)` a
/// counting scan reached (`None` = the KB is unsatisfiable at that size).
/// Two or more points extrapolate linearly in `1/N` through the last two:
/// the dominant error term is `O(1/N)`. A single point has nothing to
/// extrapolate from — the line through `N = 1` runs off the domain — so
/// its value stands.
fn diagonal_outcome(
    points: &[(usize, Option<f64>)],
    provenance: impl Fn(usize) -> Provenance,
) -> SolverOutcome {
    let answered = |belief: Belief, n: usize| SolverOutcome::Answered {
        belief,
        provenance: provenance(n),
    };
    match points {
        [.., (n_lo, Some(v_lo)), (n_hi, Some(v_hi))] => {
            // v(N) = v∞ + c/N  ⇒
            // v∞ = v_hi + (v_hi − v_lo)·(1/N_hi)/(1/N_lo − 1/N_hi).
            let inv_lo = 1.0 / *n_lo as f64;
            let inv_hi = 1.0 / *n_hi as f64;
            let v = v_hi + (v_hi - v_lo) * inv_hi / (inv_lo - inv_hi);
            answered(Belief::Point(v.clamp(0.0, 1.0)), *n_hi)
        }
        [.., (_, None), (n, None)] | [(n, None)] => answered(Belief::Undefined, *n),
        [(n, Some(v))] => answered(Belief::Point(*v), *n),
        [.., (n_lo, _), (n_hi, _)] => SolverOutcome::Declined {
            reason: format!("inconsistent satisfiability between N={n_lo} and N={n_hi}"),
        },
        [] => unreachable!("a diagonal scan classifies at least one point"),
    }
}

impl Solver for EnumerationDiagonalSolver {
    fn name(&self) -> &str {
        "enumeration"
    }

    fn solve(
        &self,
        kb: &KnowledgeBase,
        query: &Formula,
        budget: &Budget,
        _recurse: &Recurse<'_>,
    ) -> SolverOutcome {
        let kb_formula = kb.as_formula();
        let numerator_formula = Formula::and(kb_formula.clone(), query.clone());
        let specs = match self.counter {
            Counter::Orbits => SymmetrySpec::detect(kb.vocab(), &numerator_formula)
                .zip(SymmetrySpec::detect(kb.vocab(), &kb_formula)),
            Counter::BranchAndCount | Counter::Oracle => None,
        };
        let sizes = match self.sizes(kb, specs.is_some(), budget) {
            Ok(sizes) => sizes,
            Err(reason) => return SolverOutcome::BudgetExhausted { reason },
        };
        let fingerprints = self
            .denom_cache
            .as_ref()
            .filter(|_| self.counter != Counter::Oracle)
            .map(|_| {
                (
                    rw_logic::canon::kb_fingerprint(kb),
                    rw_logic::canon::vocab_fingerprint(kb.vocab()),
                )
            });
        let tau = self.diagonal.finest_tau();
        let scan = Scan {
            solver: self,
            kb,
            query,
            kb_formula,
            numerator_formula,
            tau,
            tol: Tolerances::uniform(tau),
            max_visited: u64::try_from(budget.max_count.min(u64::MAX as u128)).expect("clamped"),
            fingerprints,
            specs,
        };

        let mut points: Vec<(usize, Option<f64>)> = Vec::new();
        let mut total = Effort::default();
        let mut failure: Option<String> = None;
        let mut prev_effort: u64 = 0;
        for n in sizes {
            // Iterative deepening up the diagonal: the first point's
            // numerator gets the whole budget, every later one a
            // generous multiple of the previous point's *measured*
            // effort. A point that blows through that allowance is
            // growing doubly-exponentially — stop with the points in
            // hand instead of burning the full budget to learn the same
            // thing. Deterministic: effort counts are thread-count
            // invariant and the (cached) denominator plays no part.
            let num_budget = if points.is_empty() {
                scan.max_visited
            } else {
                prev_effort
                    .max(64)
                    .saturating_mul(1024)
                    .min(scan.max_visited)
            };
            match scan.point(n, num_budget) {
                Ok((value, effort)) => {
                    points.push((n, value));
                    total.visited += effort.visited;
                    total.branched += effort.branched;
                    total.orbits += effort.orbits;
                    // One of the two is zero: each counter has one unit.
                    prev_effort = effort.visited + effort.orbits;
                }
                Err(reason) => {
                    failure = Some(reason);
                    break;
                }
            }
        }

        // A scan cut short right after an unsatisfiable size (or before
        // its first point) has not shown the KB unsatisfiable: the next
        // size might have had worlds. Only a scan that reaches its
        // ceiling says `undefined`.
        match failure {
            Some(reason) if !matches!(points.last(), Some((_, Some(_)))) => {
                SolverOutcome::BudgetExhausted { reason }
            }
            _ => diagonal_outcome(&points, |max_n| Provenance::Enumeration {
                max_n,
                visited: total.visited,
                branched: total.branched,
                orbits: total.orbits,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_recurse() -> impl Fn(&KnowledgeBase, &Formula) -> Option<(Belief, Provenance)> {
        |_, _| None
    }

    fn parsed(kb_src: &str, q_src: &str) -> (KnowledgeBase, Formula) {
        let mut kb = KnowledgeBase::parse(kb_src).unwrap();
        let q = kb.parse_query(q_src).unwrap();
        (kb, q)
    }

    #[test]
    fn theorem_solver_answers_direct_inference_and_declines_otherwise() {
        let s = TheoremSolver;
        let (kb, q) = parsed("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)", "Hep(Eric)");
        match s.solve(&kb, &q, &Budget::UNLIMITED, &no_recurse()) {
            SolverOutcome::Answered { belief, provenance } => {
                assert_eq!(belief.as_point(), Some(0.8));
                assert_eq!(provenance, Provenance::DirectInference);
            }
            other => panic!("{other:?}"),
        }
        let (kb, q) = parsed("||Black(x) | Bird(x)||_x ~=_1 0.2", "Black(C)");
        assert!(matches!(
            s.solve(&kb, &q, &Budget::UNLIMITED, &no_recurse()),
            SolverOutcome::Declined { .. }
        ));
    }

    #[test]
    fn maxent_solver_declines_non_unary() {
        let s = MaxEntSolver::default();
        let (kb, q) = parsed("Likes(A, B)", "Likes(B, A)");
        assert!(matches!(
            s.solve(&kb, &q, &Budget::UNLIMITED, &no_recurse()),
            SolverOutcome::Declined { .. }
        ));
    }

    fn oracle_solver() -> EnumerationDiagonalSolver {
        EnumerationDiagonalSolver {
            counter: Counter::Oracle,
            ..EnumerationDiagonalSolver::default()
        }
    }

    #[test]
    fn enumeration_single_point_fallback_when_only_n2_fits() {
        // Oracle mode, budget below the N=3 world count but above N=2:
        // the solver must use the single-point value instead of
        // extrapolating off N=1.
        let (kb, q) = parsed("||P(x)||_x ~=_1 0.5", "P(C)");
        let n2 = rw_worlds::count_interpretations(kb.vocab(), 2).unwrap();
        let n3 = rw_worlds::count_interpretations(kb.vocab(), 3).unwrap();
        assert!(n2 < n3);
        let s = oracle_solver();
        match s.solve(&kb, &q, &Budget::counting(n2), &no_recurse()) {
            SolverOutcome::Answered { belief, provenance } => {
                assert_eq!(
                    provenance,
                    Provenance::Enumeration {
                        max_n: 2,
                        visited: 0,
                        branched: 0,
                        orbits: 0
                    }
                );
                let v = belief.as_point().unwrap();
                assert!((0.0..=1.0).contains(&v), "{v}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn compiled_counting_matches_the_oracle_where_both_reach() {
        // At a budget where oracle enumeration picks the same (N-1, N)
        // pair, the compiled engine's counts are exactly equal, so the
        // extrapolated beliefs are bit-identical.
        // KBs satisfiable at *every* N (a τ-tight statistic like
        // `||P||_x ≈ 0.5` is unsatisfiable at odd N, which makes the
        // deeper compiled scan legitimately decline).
        for (kb_src, q_src) in [
            ("Likes(A, B)", "Likes(B, A)"),
            ("P(C) or Q(C)", "P(C) & Q(C)"),
        ] {
            let (kb, q) = parsed(kb_src, q_src);
            let oracle = oracle_solver();
            // Clamp both to the oracle's N=4 reach (2^18 interpretations
            // covers the Likes KB at N=4, not N=5).
            let oracle_out = oracle.solve(&kb, &q, &Budget::counting(1 << 18), &no_recurse());
            let SolverOutcome::Answered {
                belief: oracle_belief,
                provenance: Provenance::Enumeration { max_n, .. },
            } = oracle_out
            else {
                panic!("{oracle_out:?}");
            };
            let compiled = EnumerationDiagonalSolver::default();
            let compiled_out = compiled.solve(&kb, &q, &Budget::UNLIMITED, &no_recurse());
            let SolverOutcome::Answered {
                belief: compiled_belief,
                provenance:
                    Provenance::Enumeration {
                        max_n: compiled_n,
                        visited,
                        ..
                    },
            } = compiled_out
            else {
                panic!("{compiled_out:?}");
            };
            assert!(compiled_n >= max_n, "{kb_src}: {compiled_n} < {max_n}");
            assert!(visited > 0, "{kb_src}: compiled mode must report effort");
            // Both extrapolate v(N) = v∞ + c/N; deeper N can only move
            // the estimate closer to the true limit. These shapes are
            // exactly linear in 1/N, so the values agree tightly.
            let (a, b) = (
                oracle_belief.as_point().unwrap(),
                compiled_belief.as_point().unwrap(),
            );
            assert!((a - b).abs() < 1e-9, "{kb_src}: oracle {a} vs compiled {b}");
        }
    }

    #[test]
    fn compiled_counting_reaches_vocabularies_the_oracle_cannot() {
        // Three binary predicates: 3·2^(N²) interpretations put even N=2
        // beyond a 2^12 world budget, but branch-and-count answers well
        // within the same number as a *visited-node* budget.
        let (kb, q) = parsed(
            "Likes(A, B); Knows(B, C); Admires(C, A)",
            "Likes(B, A) & Knows(A, B)",
        );
        let oracle = oracle_solver();
        assert!(matches!(
            oracle.solve(&kb, &q, &Budget::counting(1 << 12), &no_recurse()),
            SolverOutcome::BudgetExhausted { .. }
        ));
        let compiled = EnumerationDiagonalSolver::default();
        match compiled.solve(&kb, &q, &Budget::counting(1 << 12), &no_recurse()) {
            SolverOutcome::Answered { belief, provenance } => {
                let Provenance::Enumeration { max_n, visited, .. } = provenance else {
                    panic!("{provenance:?}");
                };
                assert!(max_n >= 3, "{max_n}");
                // `visited` totals the numerator effort across every
                // diagonal point; each point individually respected the
                // 2^12 budget.
                assert!(visited > 0, "{visited}");
                // Independent bits: Pr(Likes(B,A) ∧ Knows(A,B)) → 1/4
                // (plus O(1/N) constant-collision terms the
                // extrapolation removes).
                let v = belief.as_point().unwrap();
                assert!((v - 0.25).abs() < 0.05, "{v}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn denominator_cache_is_filled_and_shared_across_queries() {
        let (mut kb, q) = parsed("Likes(A, B)", "Likes(B, A)");
        let cache = Arc::new(DenomCache::new());
        let s = EnumerationDiagonalSolver::default().with_denom_cache(Arc::clone(&cache));
        let first = s.solve(&kb, &q, &Budget::UNLIMITED, &no_recurse());
        assert!(matches!(first, SolverOutcome::Answered { .. }), "{first:?}");
        let filled = cache.len();
        assert!(filled >= 2, "one denominator per diagonal point: {filled}");
        // A second query against the same KB recounts nothing in the
        // denominator: the cache does not grow.
        let q2 = kb.parse_query("!Likes(B, A)").unwrap();
        let second = s.solve(&kb, &q2, &Budget::UNLIMITED, &no_recurse());
        assert!(
            matches!(second, SolverOutcome::Answered { .. }),
            "{second:?}"
        );
        assert_eq!(cache.len(), filled);
    }

    #[test]
    fn compiled_counting_is_thread_count_invariant() {
        // A bounded budget, not UNLIMITED: the visited-node budget is
        // also what stops the rising-N scan (an unbounded scan on a
        // binary statistic would try to count 2^(N²) branches).
        let budget = Budget::counting(1 << 18);
        let (kb, q) = parsed(
            "||Likes(x, y)||_{x,y} ~=_1 0.25; Likes(A, B)",
            "Likes(B, A)",
        );
        let base = EnumerationDiagonalSolver::default();
        let reference = base.solve(&kb, &q, &budget, &no_recurse());
        assert!(
            matches!(reference, SolverOutcome::Answered { .. }),
            "{reference:?}"
        );
        for threads in [2usize, 4, 0] {
            let s = EnumerationDiagonalSolver {
                threads,
                ..EnumerationDiagonalSolver::default()
            };
            let out = s.solve(&kb, &q, &budget, &no_recurse());
            assert_eq!(out, reference, "diverged at {threads} threads");
        }
    }

    #[test]
    fn montecarlo_answers_with_ci_and_counts() {
        let (kb, q) = parsed(
            "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Jaun(Tom)",
            "Hep(Eric) & Hep(Tom)",
        );
        let s = MonteCarloSolver::default();
        match s.solve(&kb, &q, &Budget::UNLIMITED, &no_recurse()) {
            SolverOutcome::Answered { belief, provenance } => {
                let Belief::Approximate {
                    value,
                    ci_half_width,
                } = belief
                else {
                    panic!("{belief:?}");
                };
                assert!((0.0..=1.0).contains(&value), "{value}");
                assert!(ci_half_width > 0.0);
                let Provenance::MonteCarlo {
                    drawn,
                    accepted,
                    n_points,
                } = provenance
                else {
                    panic!();
                };
                assert!(drawn > 0 && accepted > 0 && n_points > 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn montecarlo_budget_caps_the_draws() {
        let (kb, q) = parsed("||P(x)||_x ~=_1 0.6", "P(C)");
        let s = MonteCarloSolver::default();
        match s.solve(&kb, &q, &Budget::counting(4096), &no_recurse()) {
            SolverOutcome::Answered { provenance, .. } => match provenance {
                Provenance::MonteCarlo { drawn, .. } => assert!(drawn <= 4096, "{drawn}"),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn montecarlo_declines_on_unsatisfiable_kb() {
        let (kb, q) = parsed("P(C) & !P(C)", "P(C)");
        let s = MonteCarloSolver::default();
        match s.solve(&kb, &q, &Budget::counting(2048), &no_recurse()) {
            SolverOutcome::Declined { reason } => {
                assert!(reason.contains("no sample satisfied"), "{reason}")
            }
            other => panic!("{other:?}"),
        }
    }

    fn symmetry_solver() -> EnumerationDiagonalSolver {
        EnumerationDiagonalSolver {
            counter: Counter::Orbits,
            ..EnumerationDiagonalSolver::default()
        }
    }

    #[test]
    fn symmetry_mode_matches_plain_counting_over_the_same_scan() {
        // Clamp both modes to the same rising-N range: the counts agree
        // exactly (proved against the odometer in rw-worlds), both ratio
        // paths divide the same u128s, so the beliefs are bit-identical.
        // KBs satisfiable at *every* scanned N (a τ-tight `≈ 0.5`
        // statistic is unsatisfiable when no integer lands in the
        // interval, which makes both modes legitimately decline).
        for (kb_src, q_src) in [
            ("P(C) or Q(C)", "P(C) & Q(C)"),
            ("||P(x)||_x ~=_1 1; Likes(A, B)", "Likes(B, A) & P(A)"),
        ] {
            let (kb, q) = parsed(kb_src, q_src);
            let plain = EnumerationDiagonalSolver {
                max_n: Some(6),
                ..EnumerationDiagonalSolver::default()
            };
            let sym = EnumerationDiagonalSolver {
                max_n: Some(6),
                ..symmetry_solver()
            };
            let plain_out = plain.solve(&kb, &q, &Budget::UNLIMITED, &no_recurse());
            let sym_out = sym.solve(&kb, &q, &Budget::UNLIMITED, &no_recurse());
            let SolverOutcome::Answered {
                belief: plain_belief,
                ..
            } = plain_out
            else {
                panic!("{kb_src}: {plain_out:?}");
            };
            let SolverOutcome::Answered {
                belief: sym_belief,
                provenance: Provenance::Enumeration { orbits, .. },
            } = sym_out
            else {
                panic!("{kb_src}: {sym_out:?}");
            };
            assert!(orbits > 0, "{kb_src}: symmetry mode must report orbits");
            assert_eq!(plain_belief.as_point(), sym_belief.as_point(), "{kb_src}");
        }
    }

    #[test]
    fn symmetry_mode_reaches_deep_domains_within_the_default_budget() {
        // The acceptance bar: one unary and one unary+binary KB past
        // N = 32 under the default visited budget — domain sizes plain
        // branch-and-count cannot approach (2^(N²) branches).
        for (kb_src, q_src) in [
            ("||P(x)||_x ~=_1 0.5; P(C)", "P(C)"),
            ("||P(x)||_x ~=_1 0.5; Likes(A, B); P(A)", "Likes(B, A)"),
        ] {
            let (kb, q) = parsed(kb_src, q_src);
            let s = symmetry_solver();
            let budget = Budget::counting(rw_worlds::count::DEFAULT_MAX_VISITED.into());
            match s.solve(&kb, &q, &budget, &no_recurse()) {
                SolverOutcome::Answered { belief, provenance } => {
                    let Provenance::Enumeration { max_n, orbits, .. } = provenance else {
                        panic!("{kb_src}: {provenance:?}");
                    };
                    assert!(max_n >= 32, "{kb_src}: only reached N={max_n}");
                    assert!(orbits > 0, "{kb_src}");
                    let v = belief.as_point().unwrap();
                    assert!((0.0..=1.0).contains(&v), "{kb_src}: {v}");
                }
                other => panic!("{kb_src}: {other:?}"),
            }
        }
    }

    #[test]
    fn symmetry_mode_is_thread_count_invariant() {
        let (kb, q) = parsed("||P(x)||_x ~=_1 0.5; Likes(A, B); P(A)", "Likes(B, A)");
        let budget = Budget::counting(rw_worlds::count::DEFAULT_MAX_VISITED.into());
        let reference = symmetry_solver().solve(&kb, &q, &budget, &no_recurse());
        assert!(
            matches!(reference, SolverOutcome::Answered { .. }),
            "{reference:?}"
        );
        for threads in [2usize, 4, 0] {
            let s = EnumerationDiagonalSolver {
                threads,
                ..symmetry_solver()
            };
            let out = s.solve(&kb, &q, &budget, &no_recurse());
            assert_eq!(out, reference, "diverged at {threads} threads");
        }
    }

    #[test]
    fn symmetry_mode_falls_back_to_plain_counting_outside_the_fragment() {
        // A binary *statistic* is outside the orbit fragment: the
        // symmetry-enabled solver must produce the exact plain outcome,
        // trace counters included.
        let budget = Budget::counting(1 << 18);
        let (kb, q) = parsed(
            "||Likes(x, y)||_{x,y} ~=_1 0.25; Likes(A, B)",
            "Likes(B, A)",
        );
        let plain = EnumerationDiagonalSolver::default().solve(&kb, &q, &budget, &no_recurse());
        let sym = symmetry_solver().solve(&kb, &q, &budget, &no_recurse());
        assert_eq!(sym, plain);
    }

    #[test]
    fn scan_bounds_honor_the_configured_window() {
        let (kb, q) = parsed("Likes(A, B)", "Likes(B, A)");
        let s = EnumerationDiagonalSolver {
            min_n: Some(3),
            max_n: Some(4),
            ..EnumerationDiagonalSolver::default()
        };
        match s.solve(&kb, &q, &Budget::UNLIMITED, &no_recurse()) {
            SolverOutcome::Answered { provenance, .. } => {
                let Provenance::Enumeration { max_n, .. } = provenance else {
                    panic!("{provenance:?}");
                };
                assert_eq!(max_n, 4);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_scan_cut_short_after_an_empty_size_is_not_undefined() {
        // The statistic has no world at N ≤ 3, and each of these queries
        // blows its N = 4 allowance: the scan stops without having seen
        // the KB's worlds, so it must not report the KB unsatisfiable.
        let budget = Budget::counting(1 << 24);
        for q_src in [
            "Likes(Eric, Tom) or Likes(Tom, Eric)",
            "Likes(Eric, Tom) => Hep(Tom)",
            "exists x (Likes(x, Eric))",
        ] {
            let (kb, q) = parsed(
                "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Jaun(Tom)",
                q_src,
            );
            let out = EnumerationDiagonalSolver::default().solve(&kb, &q, &budget, &no_recurse());
            match out {
                SolverOutcome::BudgetExhausted { reason } => {
                    assert!(reason.contains("N=4"), "{q_src}: {reason}")
                }
                other => panic!("{q_src}: {other:?}"),
            }
        }
        // A KB with no world at any size still scans to its ceiling and
        // answers `undefined`.
        let (kb, q) = parsed("Likes(A, B); !Likes(A, B)", "Likes(B, A)");
        match EnumerationDiagonalSolver::default().solve(&kb, &q, &budget, &no_recurse()) {
            SolverOutcome::Answered { belief, provenance } => {
                assert_eq!(belief, Belief::Undefined);
                let Provenance::Enumeration { max_n, .. } = provenance else {
                    panic!("{provenance:?}");
                };
                assert_eq!(max_n, MAX_COMPILED_N);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn enumeration_budget_exhaustion_below_n2() {
        let (kb, q) = parsed("||P(x)||_x ~=_1 0.5", "P(C)");
        for s in [EnumerationDiagonalSolver::default(), oracle_solver()] {
            assert!(
                matches!(
                    s.solve(&kb, &q, &Budget::counting(1), &no_recurse()),
                    SolverOutcome::BudgetExhausted { .. }
                ),
                "{:?}",
                s.counter
            );
        }
    }
}
