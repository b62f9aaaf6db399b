//! GAT — the Grid index for Activity Trajectories (§IV–§VI of the
//! paper), the primary contribution being reproduced.
//!
//! The index combines four components over a hierarchical grid:
//!
//! 1. **HICL** ([`hicl`]) — hierarchical inverted cell lists: per grid
//!    level, which activities each occupied cell contains, as sorted
//!    Morton codes with offsets into one activity column. Drives the
//!    best-first descent of the candidate-retrieval loop. It is never
//!    stored: its leaf level is the ITL's keys and each coarser level
//!    merges the level below.
//! 2. **ITL** ([`itl`]) — per leaf cell, an inverted list from activity
//!    to the trajectories that perform it inside the cell, built once
//!    as sorted flat columns (cells, activities, trajectory ids).
//! 3. **TAS** ([`tas`]) — a compact interval sketch of each
//!    trajectory's activity ids, used to discard candidates that cannot
//!    cover the query activities without touching the full data.
//! 4. **APL** ([`apl`]) — per trajectory, a posting list from activity
//!    to the point indexes carrying it, as flat columns; consulted only
//!    when a distance must actually be evaluated. The paper stores it
//!    on disk; this crate derives it from the dataset, keeps it in
//!    memory and counts each fetch the paper would make
//!    ([`stats::IoStats`]).
//!
//! [`mod@search`] implements Algorithm 1 (the one search loop), the
//! candidate retrieval of §V-A and the tightened lower bound of
//! Algorithm 2 behind one fallible entry point, [`fn@search`], which
//! takes the [`QueryKind`](atsq_types::QueryKind) (ATSQ or OATSQ) and
//! the [`Goal`](atsq_types::Goal) (top-k or range). [`sharded`] runs
//! the same loop with candidate verification split over `S` lanes of
//! one index, behind [`ShardedEngine::try_search`] and the
//! [`QueryEngine`](atsq_types::QueryEngine) trait — an engine-level
//! experiment that no serving path builds.
//!
//! The index is immutable once built. [`snapshot`] persists it as a
//! versioned, checksummed binary snapshot (the configuration, grid and
//! ITL columns; the HICL, TAS and APL are derived again on load) keyed
//! by the dataset's content hash, so a server restart loads in
//! milliseconds instead of rebuilding every layer; see
//! [`snapshot::IndexCache`].

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
pub use kernel::ScoreScratch;
pub use search::search;
pub use sharded::{Partition, ShardedEngine};
pub use snapshot::{CacheOutcome, IndexCache, SnapshotInfo};
pub use stats::IoStats;
