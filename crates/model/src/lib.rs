//! `atsq-model` — an empty crate.
//!
//! It used to hold an exhaustive interleaving checker that explored
//! hand-written copies of the registry, queue and counter-sink
//! critical sections. Those properties are now tested on the real
//! types, by the `stress_*` tests in `atsq-tenant`, `atsq-service` and
//! `atsq-obs`, so the checker is gone.
//!
//! The crate survives only as a dependency edge: `atsq-gat`,
//! `atsq-obs`, `atsq-service` and `atsq-tenant` still name it, and the
//! benchmark package's lock file records those edges, so removing it
//! changes that lock file. The directory and the four edges go
//! together with the next change to the benchmark's lock file.
