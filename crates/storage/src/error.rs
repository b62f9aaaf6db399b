//! Storage error type.
//!
//! Kept separate from `atsq_types::Error` (which is `Clone + PartialEq`
//! for query-validation ergonomics): storage errors wrap
//! [`std::io::Error`] and carry page-level diagnostics.

use crate::page::PageId;
use std::fmt;
use std::io;

/// Errors raised when reading or verifying pages.
#[derive(Debug)]
pub enum StorageError {
    /// An operating-system I/O failure.
    Io(io::Error),
    /// A page failed its checksum or magic verification when read.
    Corrupt {
        /// The page that failed verification.
        page: PageId,
        /// Human-readable cause (bad magic, checksum mismatch, ...).
        detail: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::Corrupt { page, detail } => {
                write!(f, "page {} corrupt: {detail}", page.0)
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Convenience alias for storage operations.
pub type StorageResult<T> = Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let cases: Vec<(StorageError, &str)> = vec![
            (
                StorageError::Io(io::Error::other("disk on fire")),
                "i/o error: disk on fire",
            ),
            (
                StorageError::Corrupt {
                    page: PageId(3),
                    detail: "checksum mismatch".into(),
                },
                "page 3 corrupt: checksum mismatch",
            ),
        ];
        for (err, msg) in cases {
            assert_eq!(err.to_string(), msg);
        }
    }

    #[test]
    fn io_error_converts_and_sources() {
        let e: StorageError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(e, StorageError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
        let corrupt = StorageError::Corrupt {
            page: PageId(0),
            detail: "bad magic".into(),
        };
        assert!(std::error::Error::source(&corrupt).is_none());
    }
}
