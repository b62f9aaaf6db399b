//! `atsq-storage` — the byte-level encodings of the index snapshots.
//!
//! Every GAT component serializes itself through [`codec`] (varints and
//! delta-coded ascending runs), and a snapshot's payload is guarded by
//! [`crc32`]. [`page`] also holds a fixed-size, checksummed [`Page`]
//! format with its [`StorageError`].

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod codec;
pub mod error;
pub mod page;

pub use error::{StorageError, StorageResult};
pub use page::{crc32, Page, PageId, DEFAULT_PAGE_SIZE, PAGE_HEADER_LEN};
