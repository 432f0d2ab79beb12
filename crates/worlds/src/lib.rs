//! Finite possible worlds: explicit first-order models over `{1..N}` and a
//! complete model checker for `L≈`.
//!
//! This crate is the *semantic ground truth* of the workspace. The paper
//! defines `Pr_N^τ(φ|KB)` as the fraction of the worlds in `W_N(Φ)` (all
//! interpretations of the vocabulary over a domain of size `N`) that satisfy
//! `KB` which also satisfy `φ`. Everything else — the unary atom engine, the
//! maximum-entropy engine, the theorem engine — is an asymptotically faster
//! route to the same number, and each is cross-validated against the
//! enumeration implemented here on small instances.
//!
//! The number of worlds grows doubly exponentially (one binary predicate
//! alone contributes `2^(N²)`), so blind enumeration is only feasible for
//! tiny `N`; [`enumerate::count_interpretations`] reports the cost up
//! front, and [`mc`] estimates beyond it (KB-aware proposals, Wilson
//! confidence intervals, `N`-sweep extrapolation, parallel workers).
//! [`sample`] draws a single uniform world.
//!
//! The production *exact* path is [`compile`] + [`count`]: formulas are
//! lowered once into flat slot programs and counted by branch-and-count
//! search (prune on falsity, force unit literals, multiply out free
//! slots), which visits orders of magnitude fewer nodes than there are
//! interpretations. [`enumerate::for_each_world`] remains the oracle the
//! compiled counts are cross-checked against.

pub mod compile;
pub mod count;
pub mod enumerate;
pub mod eval;
pub mod mc;
pub mod sample;
pub mod symmetry;
pub mod world;

pub use compile::{PackedWorld, Program, SlotLayout};
pub use count::{count_formula_models, count_models, CountError, CountOptions, CountOutcome};
pub use enumerate::{count_interpretations, count_worlds, degree_of_belief_at, for_each_world};
pub use eval::{evaluate, evaluate_closed, PropValue};
pub use symmetry::{ScaledCount, SymmetryOutcome, SymmetrySpec};
pub use world::World;
