//! Assembling the four GAT components from a dataset.
//!
//! A [`GatIndex`] is immutable: it is built once from a dataset (or
//! loaded from a snapshot) and only read afterwards. Building collects
//! every `(leaf cell, activity, trajectory)` posting into the ITL's
//! sorted columns; build and load then derive the rest the same way:
//! the HICL from the ITL's keys, the APL from the dataset, and the TAS
//! from the APL's keys. A changed dataset means a new index.

use crate::apl::{Apl, TrajectoryPostings};
use crate::config::GatConfig;
use crate::hicl::Hicl;
use crate::itl::Itl;
use crate::stats::IoStats;
use crate::tas::Tas;
use atsq_grid::{CellId, Grid};
use atsq_types::{ActivityId, ActivitySet, Dataset, Rect, Result};

/// The complete GAT index over one dataset.
///
/// The index stores no copy of the trajectory data; query functions
/// take the [`Dataset`] alongside the index (trajectory ids are stable
/// indexes into it).
#[derive(Debug)]
pub struct GatIndex {
    config: GatConfig,
    grid: Grid,
    hicl: Hicl,
    itl: Itl,
    tas: Tas,
    apl: Apl,
    stats: IoStats,
}

impl GatIndex {
    /// Builds the index with the paper's default configuration.
    pub fn build(dataset: &Dataset) -> Result<Self> {
        Self::build_with(dataset, GatConfig::default())
    }

    /// Assembles an index from its stored components — the build's and
    /// the snapshot loader's one constructor. Derives the HICL from the
    /// ITL, the APL from `dataset` and the TAS from the APL's keys. The
    /// snapshot loader has already checked the ITL against `dataset`;
    /// the result has fresh I/O counters.
    pub(crate) fn from_parts(config: GatConfig, grid: Grid, itl: Itl, dataset: &Dataset) -> Self {
        let apl = Apl::build(dataset.trajectories());
        let tas = Tas::build(
            (0..apl.len()).map(|t| apl.trajectory(t).activities()),
            config.tas_intervals,
        );
        GatIndex {
            config,
            grid,
            hicl: Hicl::derive(&itl),
            itl,
            tas,
            apl,
            stats: IoStats::new(),
        }
    }

    /// Builds the index with an explicit configuration.
    pub fn build_with(dataset: &Dataset, config: GatConfig) -> Result<Self> {
        config.validate()?;
        let region = usable_region(dataset.bounds());
        let grid = Grid::new(region, config.grid_level);

        // One pass over all points collects the ITL postings;
        // `from_parts` derives the other three components.
        let grid_ref = &grid;
        let itl = Itl::build(
            config.grid_level,
            dataset.trajectories().iter().flat_map(|tr| {
                tr.points.iter().flat_map(move |p| {
                    let cell = grid_ref.leaf_cell_of(&p.loc);
                    p.activities.iter().map(move |a| (cell, a, tr.id))
                })
            }),
        );
        Ok(Self::from_parts(config, grid, itl, dataset))
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &GatConfig {
        &self.config
    }

    /// The hierarchical grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The hierarchical inverted cell list.
    pub fn hicl(&self) -> &Hicl {
        &self.hicl
    }

    /// The inverted trajectory lists.
    pub fn itl(&self) -> &Itl {
        &self.itl
    }

    /// The trajectory activity sketches.
    pub fn tas(&self) -> &Tas {
        &self.tas
    }

    /// The activity posting lists.
    pub fn apl(&self) -> &Apl {
        &self.apl
    }

    /// The posting lists of trajectory `idx`, charging one APL read.
    pub fn postings(&self, idx: usize) -> TrajectoryPostings<'_> {
        self.stats.record_apl_read();
        self.apl.trajectory(idx)
    }

    /// The simulated-I/O counters.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Activities present in a cell, charging a cold read when the
    /// cell lies below the memory-resident HICL levels.
    pub fn cell_activities(&self, cell: CellId) -> Option<&[ActivityId]> {
        if cell.level > self.config.memory_level {
            self.stats.record_hicl_cold_read();
        }
        self.hicl.cell_activities(cell)
    }

    /// Children of `cell` containing any wanted activity, with cold
    /// accounting as in [`GatIndex::cell_activities`]: one read per
    /// call, however many children there are.
    pub fn children_with_any<'a>(
        &'a self,
        cell: CellId,
        wanted: &'a ActivitySet,
    ) -> impl Iterator<Item = CellId> + 'a {
        if cell.level + 1 > self.config.memory_level {
            self.stats.record_hicl_cold_read();
        }
        self.hicl.children_with_any(cell, wanted)
    }

    /// Memory accounting for the Fig. 8 experiment.
    pub fn memory_report(&self) -> MemoryReport {
        let h = self.config.memory_level;
        let hicl_hot = self.hicl.memory_bytes(h);
        let hicl_total = self.hicl.memory_bytes(self.config.grid_level);
        MemoryReport {
            hicl_hot_bytes: hicl_hot,
            hicl_cold_bytes: hicl_total - hicl_hot,
            itl_bytes: self.itl.memory_bytes(),
            tas_bytes: self.tas.memory_bytes(),
            apl_disk_bytes: self.apl.disk_bytes(),
        }
    }
}

/// Byte-level footprint of the index components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryReport {
    /// HICL levels kept in main memory (`1..=h`).
    pub hicl_hot_bytes: usize,
    /// HICL levels the paper stores on disk (`h+1..=d`).
    pub hicl_cold_bytes: usize,
    /// ITL size (main memory).
    pub itl_bytes: usize,
    /// TAS size (main memory).
    pub tas_bytes: usize,
    /// APL size (disk in the paper).
    pub apl_disk_bytes: usize,
}

impl MemoryReport {
    /// Total main-memory footprint: hot HICL + ITL + TAS (the paper's
    /// Fig. 8 "memory cost" curve counts the resident components).
    pub fn main_memory_bytes(&self) -> usize {
        self.hicl_hot_bytes + self.itl_bytes + self.tas_bytes
    }

    /// Every component, including the ones the paper pages to disk
    /// (cold HICL levels, APL). This implementation keeps all of them
    /// resident, so this is what the multi-tenant memory budget charges
    /// per index.
    pub fn total_bytes(&self) -> usize {
        self.hicl_hot_bytes
            + self.hicl_cold_bytes
            + self.itl_bytes
            + self.tas_bytes
            + self.apl_disk_bytes
    }
}

/// Expands degenerate dataset bounds into a usable grid region: empty
/// datasets get a unit square, zero-extent axes get padding so cells
/// have positive area.
fn usable_region(bounds: Rect) -> Rect {
    if bounds.is_empty() {
        return Rect::from_bounds(0.0, 0.0, 1.0, 1.0);
    }
    let pad_x = if bounds.width() > 0.0 { 0.0 } else { 0.5 };
    let pad_y = if bounds.height() > 0.0 { 0.0 } else { 0.5 };
    Rect::from_bounds(
        bounds.min.x - pad_x,
        bounds.min.y - pad_y,
        bounds.max.x + pad_x,
        bounds.max.y + pad_y,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsq_types::{ActivitySet, DatasetBuilder, Point, TrajectoryId, TrajectoryPoint};

    fn small_dataset() -> Dataset {
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        let a0 = b.observe_activity("coffee");
        let a1 = b.observe_activity("art");
        let a2 = b.observe_activity("hike");
        b.push_trajectory(vec![
            TrajectoryPoint::new(Point::new(1.0, 1.0), ActivitySet::from_ids([a0])),
            TrajectoryPoint::new(Point::new(5.0, 5.0), ActivitySet::from_ids([a1])),
        ]);
        b.push_trajectory(vec![TrajectoryPoint::new(
            Point::new(9.0, 9.0),
            ActivitySet::from_ids([a2, a0]),
        )]);
        b.finish().unwrap()
    }

    #[test]
    fn build_populates_components() {
        let d = small_dataset();
        let idx = GatIndex::build_with(
            &d,
            GatConfig {
                grid_level: 4,
                memory_level: 3,
                ..GatConfig::default()
            },
        )
        .unwrap();
        assert_eq!(idx.tas().len(), 2);
        assert_eq!(idx.apl().len(), 2);
        assert_eq!(idx.hicl().levels(), 4);
        assert!(idx.itl().cell_count() >= 2);
        // The leaf cell of (9,9) holds "coffee" and "hike".
        let cell = idx.grid().leaf_cell_of(&Point::new(9.0, 9.0));
        assert_eq!(
            idx.hicl().cell_activities(cell),
            Some(&[ActivityId(0), ActivityId(2)][..])
        );
        // The cell of (1,1) contains "coffee".
        let cell = idx.grid().leaf_cell_of(&Point::new(1.0, 1.0));
        assert_eq!(
            idx.itl().trajectories(cell, ActivityId(0)),
            &[TrajectoryId(0)]
        );
    }

    #[test]
    fn cold_reads_are_counted() {
        let d = small_dataset();
        let idx = GatIndex::build_with(
            &d,
            GatConfig {
                grid_level: 4,
                memory_level: 2,
                ..GatConfig::default()
            },
        )
        .unwrap();
        let leaf = idx.grid().leaf_cell_of(&Point::new(1.0, 1.0));
        let coffee = ActivitySet::from_raw([0]);
        let _ = idx.cell_activities(leaf); // level 4 > 2 -> cold
        let _ = idx.cell_activities(leaf.ancestor_at(1)); // hot
        assert_eq!(idx.stats().snapshot().hicl_cold_reads, 1);

        // Expanding a level-2 cell reads its level-3 children: one cold
        // read per call, however many children there are.
        let _ = idx.children_with_any(leaf.ancestor_at(2), &coffee);
        assert_eq!(idx.stats().snapshot().hicl_cold_reads, 2);
        let _ = idx.children_with_any(leaf.ancestor_at(1), &coffee); // hot
        assert_eq!(idx.stats().snapshot().hicl_cold_reads, 2);

        // Each postings fetch is one APL read and never a cold read.
        assert!(idx.postings(0).contains_all(&coffee));
        let _ = idx.postings(1);
        let s = idx.stats().snapshot();
        assert_eq!((s.apl_reads, s.hicl_cold_reads), (2, 2));
    }

    #[test]
    fn memory_report_is_consistent() {
        let d = small_dataset();
        let idx = GatIndex::build_with(
            &d,
            GatConfig {
                grid_level: 4,
                memory_level: 2,
                ..GatConfig::default()
            },
        )
        .unwrap();
        let r = idx.memory_report();
        assert!(r.hicl_hot_bytes > 0);
        assert!(r.hicl_cold_bytes > 0);
        assert!(r.itl_bytes > 0);
        assert!(r.tas_bytes > 0);
        assert!(r.apl_disk_bytes > 0);
        assert_eq!(
            r.main_memory_bytes(),
            r.hicl_hot_bytes + r.itl_bytes + r.tas_bytes
        );
    }

    #[test]
    fn empty_dataset_builds() {
        let d = DatasetBuilder::new().finish().unwrap();
        let idx = GatIndex::build(&d).unwrap();
        assert_eq!(idx.tas().len(), 0);
        assert_eq!(idx.itl().cell_count(), 0);
    }

    #[test]
    fn degenerate_bounds_are_padded() {
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        let a = b.observe_activity("x");
        // All points identical: zero-extent bounds.
        b.push_trajectory(vec![TrajectoryPoint::new(
            Point::new(3.0, 3.0),
            ActivitySet::from_ids([a]),
        )]);
        let d = b.finish().unwrap();
        let idx = GatIndex::build(&d).unwrap();
        assert!(idx.grid().region().area() > 0.0);
    }
}
