//! `atsq-storage` — the byte-level encodings of the index snapshots.
//!
//! The snapshot's configuration and ITL columns serialize through
//! [`codec`] (`u64` varints), and a snapshot's payload is guarded by
//! [`crc32`].

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod codec;
pub mod crc;

pub use crc::crc32;
