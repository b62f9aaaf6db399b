//! Error type shared across the workspace.

use std::fmt;

/// Errors raised by dataset construction and query validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A query was structurally invalid (e.g. no query points, or a
    /// query point with an empty activity set where one is required).
    InvalidQuery(String),
    /// A dataset invariant was violated during construction.
    InvalidDataset(String),
    /// An index was configured with unusable parameters.
    InvalidConfig(String),
    /// Reading or writing an index snapshot failed: an I/O error, or a
    /// file that is corrupt, stale or for another configuration.
    Storage(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            Error::InvalidDataset(msg) => write!(f, "invalid dataset: {msg}"),
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::Storage(msg) => write!(f, "storage failure: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            Error::InvalidQuery("empty".into()).to_string(),
            "invalid query: empty"
        );
        assert_eq!(
            Error::InvalidDataset("x".into()).to_string(),
            "invalid dataset: x"
        );
        assert_eq!(
            Error::InvalidConfig("d=0".into()).to_string(),
            "invalid configuration: d=0"
        );
        assert_eq!(
            Error::Storage("page 3 corrupt".into()).to_string(),
            "storage failure: page 3 corrupt"
        );
    }
}
