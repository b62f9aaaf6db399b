//! Match-distance kernels of the paper.
//!
//! * [`point_match`] — Algorithm 3: the minimum point match distance
//!   `Dmpm(q, Tr)` (Definition 4), computed with the subset hash table
//!   and early termination of §V-D, plus an incremental variant used by
//!   the order-sensitive dynamic program.
//! * [`match_distance`] — `Dmm(Q, Tr)` via Lemma 1 (sum of per-point
//!   `Dmpm`), the best-match lower bound `Dbm` of Lemma 2, and
//!   [`candidate_distance`], the per-kind distance the baselines rank
//!   candidates by.
//! * [`order_match`] — Algorithm 4: the minimum order-sensitive match
//!   distance `Dmom(Q, Tr)` (Definition 7) with the Eq. (1) dynamic
//!   program, Lemma-4 monotonicity pruning and the `Dkmom` early exit,
//!   plus the MIB (matching index bound) candidate filter of §VI-B.
//! * [`witness`] — witness extraction: the matched point *sets*
//!   (`Tr.MPM`, `Tr.MM`, `Tr.MOM`), for applications that must show
//!   which venues realised a result.
//! * [`brute`] — exponential reference oracles used by the test suite
//!   to validate every kernel on small inputs.
//!
//! All kernels operate on borrowed trajectory data; index structures
//! (GAT, R-tree, …) decide *which* trajectories reach these kernels.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod brute;
pub mod match_distance;
pub mod order_match;
pub mod point_match;
pub mod witness;

pub use match_distance::{best_match_distance, candidate_distance, min_match_distance};
pub use order_match::{min_order_match_distance, order_feasible};
pub use point_match::{min_point_match_distance, CandidatePoint, IncrementalCover, QueryMask};
pub use witness::{min_match_witness, min_order_match_witness, PointMatchWitness};
