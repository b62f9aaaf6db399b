//! GAT configuration parameters.

use atsq_types::{Error, Result};

/// Tuning knobs of the GAT index and its search loop.
///
/// Defaults follow the paper's experimental settings (§VII-A): a
/// `d = 8` grid (256×256 cells) with HICL levels 1–6 in main memory and
/// the two finest levels "on disk".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatConfig {
    /// Grid depth `d`: the finest level has `2^d × 2^d` cells.
    pub grid_level: u8,
    /// HICL levels `1..=memory_level` are counted as main-memory
    /// resident; deeper levels charge a cold fetch per access (the
    /// paper stores them on hard disk).
    pub memory_level: u8,
    /// Number of intervals `M` in each trajectory activity sketch.
    pub tas_intervals: usize,
    /// Candidate batch size `λ`: each retrieval round gathers at least
    /// this many fresh candidates before re-checking termination.
    pub lambda: usize,
    /// Number of nearest unvisited cells `m` tracked per query point
    /// for the Algorithm-2 lower bound.
    pub lb_cells: usize,
    /// Ablation switch: when false, candidates skip the TAS sketch
    /// check and go straight to the APL (always correct, just slower).
    pub use_tas: bool,
    /// Ablation switch: when false, the search uses the loose lower
    /// bound (the raw `mdist` of the priority queue's top entry, §V-B's
    /// "straightforward approach") instead of Algorithm 2.
    pub tight_lower_bound: bool,
}

impl Default for GatConfig {
    fn default() -> Self {
        GatConfig {
            grid_level: 8,
            memory_level: 6,
            tas_intervals: 4,
            lambda: 32,
            lb_cells: 8,
            use_tas: true,
            tight_lower_bound: true,
        }
    }
}

impl GatConfig {
    /// Validates parameter consistency.
    pub fn validate(&self) -> Result<()> {
        if self.grid_level == 0 || self.grid_level > 16 {
            return Err(Error::InvalidConfig(format!(
                "grid_level {} outside 1..=16",
                self.grid_level
            )));
        }
        if self.memory_level > self.grid_level {
            return Err(Error::InvalidConfig(format!(
                "memory_level {} exceeds grid_level {}",
                self.memory_level, self.grid_level
            )));
        }
        if self.tas_intervals == 0 {
            return Err(Error::InvalidConfig("tas_intervals must be ≥ 1".into()));
        }
        if self.lambda == 0 {
            return Err(Error::InvalidConfig("lambda must be ≥ 1".into()));
        }
        if self.lb_cells == 0 {
            return Err(Error::InvalidConfig("lb_cells must be ≥ 1".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = GatConfig::default();
        assert_eq!(c.grid_level, 8);
        assert_eq!(c.memory_level, 6);
        c.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let bad = [
            GatConfig {
                grid_level: 0,
                ..GatConfig::default()
            },
            GatConfig {
                memory_level: 12,
                ..GatConfig::default()
            },
            GatConfig {
                tas_intervals: 0,
                ..GatConfig::default()
            },
            GatConfig {
                lambda: 0,
                ..GatConfig::default()
            },
            GatConfig {
                lb_cells: 0,
                ..GatConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?} should be invalid");
        }
    }
}
