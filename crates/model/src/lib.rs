//! `atsq-model` — a loom-lite exhaustive interleaving checker.
//!
//! The checker (`check`, compiled under the `check` cargo feature)
//! drives faithful ports of the workspace's critical sections —
//! single-flight loading, lease pinning, the bounded queue, counter
//! scopes — through every bounded interleaving:
//!
//! ```text
//! cargo test -p atsq-model --features check
//! ```
//!
//! What the checker models (and what it does not) is documented on
//! the `check` module.

#[cfg(feature = "check")]
pub mod check;
