//! # random-worlds
//!
//! A production-quality Rust implementation of the **random-worlds method**
//! for inducing degrees of belief from statistical knowledge bases, after
//!
//! > F. Bacchus, A. J. Grove, J. Y. Halpern, D. Koller.
//! > *From Statistical Knowledge Bases to Degrees of Belief.*
//! > Artificial Intelligence 87(1–2):75–143, 1996 (PODS 2006 invited
//! > overview; arXiv:cs/0307056).
//!
//! This facade crate re-exports the workspace's public API. See the
//! README for a guided tour of the crates and the solver pipeline.
//!
//! ## Quick start
//!
//! ```
//! use random_worlds::prelude::*;
//!
//! // "80% of jaundiced patients have hepatitis; Eric has jaundice."
//! let kb = KnowledgeBase::parse(
//!     "||Hep(x) | Jaun(x)||_x ~=_1 0.8 ; Jaun(Eric)",
//! ).unwrap();
//! let engine = RandomWorlds::new();
//! let result = engine.degree_of_belief(&kb, "Hep(Eric)").unwrap();
//! assert_eq!(result.belief.as_point(), Some(0.8));
//! ```

pub use rw_core as core;
pub use rw_defaults as defaults;
pub use rw_epsilon as epsilon;
pub use rw_logic as logic;
pub use rw_maxent as maxent;
pub use rw_propensity as propensity;
pub use rw_refclass as refclass;
pub use rw_server as server;
pub use rw_temporal as temporal;
pub use rw_unary as unary;
pub use rw_util as util;
pub use rw_worlds as worlds;

/// Convenience prelude: the types most applications need.
pub mod prelude {
    pub use rw_core::{
        AnswerCache, BatchReport, Belief, EngineConfig, PreparedKb, Provenance, RandomWorlds,
        Response, Trace,
    };
    pub use rw_logic::{Formula, KnowledgeBase, PropExpr, Term, Vocabulary};
    pub use rw_util::Rat;
}
