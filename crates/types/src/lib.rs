//! Core domain types for the activity-trajectory search library.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: planar [`geo::Point`]s and [`geo::Rect`]s, interned
//! [`activity::ActivityId`] identifiers and [`activity::ActivitySet`]s, the
//! [`trajectory::Trajectory`] model of the paper (Definition 2), and the
//! [`dataset::Dataset`] container with Table-IV-style statistics.
//!
//! Everything downstream — the GAT index, the R-tree / IR-tree baselines
//! and the matching kernels — is written against these types.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod activity;
pub mod dataset;
pub mod error;
pub mod geo;
pub mod query;
pub mod trajectory;

pub use activity::{ActivityId, ActivitySet, Vocabulary};
pub use dataset::{Dataset, DatasetBuilder, DatasetStats, Fnv64};
pub use error::{Error, Result};
pub use geo::{Point, Rect};
pub use query::{rank_top_k, Query, QueryPoint, QueryResult};
pub use trajectory::{Trajectory, TrajectoryId, TrajectoryPoint};
