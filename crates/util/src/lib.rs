//! Shared numeric and enumeration primitives for the random-worlds workspace.
//!
//! The random-worlds method (Bacchus–Grove–Halpern–Koller) computes degrees of
//! belief as ratios of world counts. Four low-level facts shape this crate:
//!
//! * proportions inside a finite world are *exact rationals* `k / N^m`, and
//!   tolerance comparisons (`ζ ≈_i ζ'`) must be decided exactly — so we provide
//!   an `i128`-backed [`rat::Rat`];
//! * world counts explode past `u128` almost immediately (there are
//!   `2^(N^2)` binary relations alone), so aggregate weights live in the
//!   log domain as [`logweight::LogWeight`];
//! * the unary counting engine sums over *weak compositions* of the domain
//!   size into atoms and over *set partitions* of constants (equality
//!   patterns), so we provide allocation-free iterators for both;
//! * exact counting and Monte-Carlo sampling split into independent
//!   indexed units whose merged result must not depend on the thread
//!   count, so [`par`] provides the one deterministic worker pool they
//!   (and batch answering) share.

pub mod comb;
pub mod compositions;
pub mod logweight;
pub mod par;
pub mod partitions;
pub mod rat;
pub mod rng;

pub use comb::{ln_gamma, FactTable};
pub use compositions::Compositions;
pub use logweight::LogWeight;
pub use partitions::SetPartitions;
pub use rat::Rat;
pub use rng::{Below, Rng, StdRng};
