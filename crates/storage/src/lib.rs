//! `atsq-storage` — the byte-level encodings of the index snapshots.
//!
//! Every GAT component serializes itself through [`codec`] (varints and
//! delta-coded ascending runs), and a snapshot's payload is guarded by
//! [`crc32`].

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod codec;
pub mod crc;

pub use crc::crc32;
