//! GAT — the Grid index for Activity Trajectories (§IV–§VI of the
//! paper), the primary contribution being reproduced.
//!
//! The index combines four components over a hierarchical grid:
//!
//! 1. **HICL** ([`hicl`]) — a hierarchical inverted cell list per
//!    activity: which cells at each grid level contain the activity.
//!    Drives the best-first descent of the candidate-retrieval loop.
//! 2. **ITL** ([`itl`]) — per leaf cell, an inverted list from activity
//!    to the trajectories that perform it inside the cell.
//! 3. **TAS** ([`tas`]) — a compact interval sketch of each
//!    trajectory's activity ids, used to discard candidates that cannot
//!    cover the query activities without touching the full data.
//! 4. **APL** ([`apl`]) — per trajectory, a posting list from activity
//!    to the point indexes carrying it; consulted only when a distance
//!    must actually be evaluated. The paper stores it on disk; this
//!    crate keeps it in memory and counts each fetch the paper would
//!    make ([`stats::IoStats`]).
//!
//! [`search`] implements Algorithm 1 (the one search loop), the
//! candidate retrieval of §V-A, the tightened lower bound of
//! Algorithm 2, and the ATSQ / OATSQ query entry points. [`sharded`]
//! runs the same loop with candidate verification split over `S`
//! lanes of one index.
//!
//! [`snapshot`] persists a built index as a versioned, checksummed
//! binary snapshot keyed by the dataset's content hash, so a server
//! restart loads in milliseconds instead of rebuilding every layer;
//! see [`snapshot::IndexCache`].

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod apl;
pub mod config;
pub mod hicl;
pub mod index;
pub mod itl;
pub mod kernel;
pub mod search;
pub mod sharded;
pub mod snapshot;
pub mod stats;
pub mod tas;

pub use config::GatConfig;
pub use index::{GatIndex, MemoryReport};
pub use kernel::{score_scalar, ScoreScratch};
pub use search::{
    atsq, atsq_range, oatsq, oatsq_range, try_atsq, try_atsq_range, try_oatsq, try_oatsq_range,
};
pub use sharded::{Partition, ShardedEngine};
pub use snapshot::{CacheOutcome, IndexCache, SnapshotInfo};
pub use stats::IoStats;
