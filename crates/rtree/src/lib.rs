//! An R-tree built from scratch (Guttman, SIGMOD 1984 — reference \[21\]
//! of the paper), used by the RT and IRT baselines of §III.
//!
//! The tree is generic over a [`NodeSummary`]: an aggregate carried by
//! every node that summarises the items below it. The plain R-tree uses
//! the unit summary `()`; the IR-tree of Cong et al. (reference \[22\])
//! attaches an inverted file of activities per node and is obtained by
//! instantiating this same tree with an activity summary — see the
//! `atsq-irtree` crate.
//!
//! Provided operations:
//! * [`RTree::insert`] — Guttman insertion with quadratic split,
//! * [`RTree::bulk_load`] — Sort-Tile-Recursive packing,
//! * [`RTree::search_rect`] — rectangle intersection query,
//! * [`RTree::nearest_iter`] — incremental best-first nearest-neighbour
//!   traversal with optional summary-based pruning, the primitive the
//!   k-BCT search strategy of Chen et al. \[20\] is built on.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod nn;
pub mod node;
pub mod split;
pub mod summary;

pub use nn::NearestIter;
pub use node::{LeafEntry, Node};
pub use summary::NodeSummary;

use atsq_types::{Point, Rect};

/// Maximum entries per node (`M`).
pub const MAX_ENTRIES: usize = 16;
/// Minimum entries per node after a split (`m`), 40% of `M` as Guttman
/// recommends.
pub const MIN_ENTRIES: usize = 6;

/// Splits `n` items into `ceil(n / max)` chunks of near-equal size so
/// that STR packing never produces a node with fewer than two entries
/// (a 1-child internal node would violate the tree invariants).
fn chunk_sizes(n: usize, max: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let chunks = n.div_ceil(max);
    let base = n / chunks;
    let extra = n % chunks;
    (0..chunks)
        .map(|i| if i < extra { base + 1 } else { base })
        .collect()
}

/// An in-memory R-tree mapping rectangles to payloads of type `T`,
/// with a per-node aggregate `S`.
#[derive(Debug, Clone)]
pub struct RTree<T, S: NodeSummary<T> = ()> {
    root: Option<Node<T, S>>,
    len: usize,
}

impl<T, S: NodeSummary<T>> Default for RTree<T, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, S: NodeSummary<T>> RTree<T, S> {
    /// An empty tree.
    pub fn new() -> Self {
        RTree { root: None, len: 0 }
    }

    /// Number of stored items.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree stores no items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bounding rectangle of everything stored (empty rect when empty).
    pub fn mbr(&self) -> Rect {
        self.root.as_ref().map_or_else(Rect::empty, |n| n.mbr())
    }

    /// The root node, for traversals that need raw access (tests,
    /// invariant checks).
    pub fn root(&self) -> Option<&Node<T, S>> {
        self.root.as_ref()
    }

    /// Inserts one item with its bounding rectangle.
    pub fn insert(&mut self, rect: Rect, data: T) {
        self.len += 1;
        let entry = LeafEntry { rect, data };
        match self.root.take() {
            None => {
                let mut leaf = Node::new_leaf();
                leaf.push_leaf_entry(entry);
                self.root = Some(leaf);
            }
            Some(mut root) => {
                if let Some(sibling) = root.insert(entry) {
                    // Root split: grow the tree by one level.
                    let mut new_root = Node::new_internal();
                    new_root.push_child(root);
                    new_root.push_child(sibling);
                    self.root = Some(new_root);
                } else {
                    self.root = Some(root);
                }
            }
        }
    }

    /// Builds a tree from items using Sort-Tile-Recursive packing —
    /// much faster and better-shaped than repeated insertion for bulk
    /// data.
    pub fn bulk_load(items: Vec<(Rect, T)>) -> Self {
        let len = items.len();
        if items.is_empty() {
            return Self::new();
        }
        let entries: Vec<LeafEntry<T>> = items
            .into_iter()
            .map(|(rect, data)| LeafEntry { rect, data })
            .collect();
        let root = Self::str_pack_leaves(entries);
        RTree {
            root: Some(root),
            len,
        }
    }

    fn str_pack_leaves(mut entries: Vec<LeafEntry<T>>) -> Node<T, S> {
        if entries.len() <= MAX_ENTRIES {
            let mut leaf = Node::new_leaf();
            for e in entries {
                leaf.push_leaf_entry(e);
            }
            return leaf;
        }
        // STR: sort by x-centre, slice into vertical strips, sort each
        // strip by y-centre, cut into nodes of MAX_ENTRIES.
        let n = entries.len();
        let node_count = n.div_ceil(MAX_ENTRIES);
        let strip_count = (node_count as f64).sqrt().ceil() as usize;
        let per_strip = n.div_ceil(strip_count);
        entries.sort_by(|a, b| {
            a.rect
                .center()
                .x
                .partial_cmp(&b.rect.center().x)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut leaves: Vec<Node<T, S>> = Vec::with_capacity(node_count);
        let mut rest = entries;
        for strip_len in chunk_sizes(n, per_strip) {
            let mut strip: Vec<LeafEntry<T>> = rest.drain(..strip_len).collect();
            strip.sort_by(|a, b| {
                a.rect
                    .center()
                    .y
                    .partial_cmp(&b.rect.center().y)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for take in chunk_sizes(strip.len(), MAX_ENTRIES) {
                let mut leaf = Node::new_leaf();
                for e in strip.drain(..take) {
                    leaf.push_leaf_entry(e);
                }
                leaves.push(leaf);
            }
        }
        Self::str_pack_internal(leaves)
    }

    fn str_pack_internal(mut nodes: Vec<Node<T, S>>) -> Node<T, S> {
        while nodes.len() > 1 {
            let n = nodes.len();
            if n <= MAX_ENTRIES {
                let mut parent = Node::new_internal();
                for child in nodes {
                    parent.push_child(child);
                }
                return parent;
            }
            let node_count = n.div_ceil(MAX_ENTRIES);
            let strip_count = (node_count as f64).sqrt().ceil() as usize;
            let per_strip = n.div_ceil(strip_count);
            nodes.sort_by(|a, b| {
                a.mbr()
                    .center()
                    .x
                    .partial_cmp(&b.mbr().center().x)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut next: Vec<Node<T, S>> = Vec::with_capacity(node_count);
            let mut rest = nodes;
            for strip_len in chunk_sizes(n, per_strip) {
                let mut strip: Vec<Node<T, S>> = rest.drain(..strip_len).collect();
                strip.sort_by(|a, b| {
                    a.mbr()
                        .center()
                        .y
                        .partial_cmp(&b.mbr().center().y)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                for take in chunk_sizes(strip.len(), MAX_ENTRIES) {
                    let mut parent = Node::new_internal();
                    for child in strip.drain(..take) {
                        parent.push_child(child);
                    }
                    next.push(parent);
                }
            }
            nodes = next;
        }
        nodes.pop().expect("str_pack_internal requires ≥1 node")
    }

    /// Removes the first stored item whose rectangle equals `rect` and
    /// whose payload satisfies `matches`, returning it. Underflowing
    /// nodes are condensed and their surviving entries reinserted
    /// (Guttman's CondenseTree), so the tree stays balanced.
    pub fn remove(&mut self, rect: &Rect, matches: impl Fn(&T) -> bool) -> Option<T> {
        let mut root = self.root.take()?;
        let mut orphans = Vec::new();
        let removed = root.remove(rect, &matches, &mut orphans, MIN_ENTRIES);
        if removed.is_some() {
            self.len -= 1;
        }
        // Shrink the root: an internal root with one child hands the
        // tree down a level; an empty leaf root empties the tree.
        loop {
            match root {
                Node::Internal { mut children, .. } if children.len() == 1 => {
                    root = children.pop().expect("one child");
                }
                Node::Internal { ref children, .. } if children.is_empty() => {
                    self.root = None;
                    break;
                }
                Node::Leaf { ref entries, .. } if entries.is_empty() && orphans.is_empty() => {
                    self.root = None;
                    break;
                }
                _ => {
                    self.root = Some(root);
                    break;
                }
            }
        }
        // Reinsert orphans through the normal insertion path.
        self.len -= orphans.len();
        for e in orphans {
            self.insert(e.rect, e.data);
        }
        removed
    }

    /// Collects references to every item whose rectangle intersects
    /// `query`.
    pub fn search_rect(&self, query: &Rect) -> Vec<&T> {
        let mut out = Vec::new();
        if let Some(root) = &self.root {
            root.search_rect(query, &mut out);
        }
        out
    }

    /// Visits every item (in unspecified order).
    pub fn for_each(&self, mut f: impl FnMut(&Rect, &T)) {
        if let Some(root) = &self.root {
            root.for_each(&mut f);
        }
    }

    /// Incremental best-first nearest-neighbour iteration from `q`:
    /// yields items in ascending distance order, lazily.
    pub fn nearest_iter(&self, q: Point) -> NearestIter<'_, T, S> {
        NearestIter::new(self.root.as_ref(), q)
    }

    /// As [`RTree::nearest_iter`], but skips any subtree whose summary
    /// fails `keep` — the IR-tree pruning rule of §III-C.
    pub fn nearest_iter_filtered<'a>(
        &'a self,
        q: Point,
        keep: Box<dyn Fn(&S) -> bool + 'a>,
    ) -> NearestIter<'a, T, S> {
        NearestIter::with_filter(self.root.as_ref(), q, keep)
    }

    /// Checks structural invariants, returning a description of the
    /// first violation. Used by tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let Some(root) = &self.root else {
            return if self.len == 0 {
                Ok(())
            } else {
                Err("len > 0 but no root".into())
            };
        };
        let mut count = 0usize;
        root.check(&mut count, true)?;
        if count != self.len {
            return Err(format!("len {} but counted {count}", self.len));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt_rect(x: f64, y: f64) -> Rect {
        Rect::from_point(Point::new(x, y))
    }

    #[test]
    fn empty_tree() {
        let t: RTree<u32> = RTree::new();
        assert!(t.is_empty());
        assert!(t.mbr().is_empty());
        assert!(t
            .search_rect(&Rect::from_bounds(0.0, 0.0, 1.0, 1.0))
            .is_empty());
        assert!(t.nearest_iter(Point::new(0.0, 0.0)).next().is_none());
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_and_search() {
        let mut t: RTree<u32> = RTree::new();
        for i in 0..100u32 {
            t.insert(pt_rect(f64::from(i), f64::from(i % 10)), i);
        }
        assert_eq!(t.len(), 100);
        t.check_invariants().unwrap();
        let hits = t.search_rect(&Rect::from_bounds(10.0, 0.0, 19.0, 9.0));
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|&&v| (10..20).contains(&v)));
    }

    #[test]
    fn bulk_load_matches_insert_results() {
        let items: Vec<(Rect, u32)> = (0..500u32)
            .map(|i| {
                let x = f64::from(i % 37) * 3.1;
                let y = f64::from(i % 23) * 5.7;
                (pt_rect(x, y), i)
            })
            .collect();
        let bulk: RTree<u32> = RTree::bulk_load(items.clone());
        bulk.check_invariants().unwrap();
        let mut incr: RTree<u32> = RTree::new();
        for (r, v) in items {
            incr.insert(r, v);
        }
        incr.check_invariants().unwrap();
        let q = Rect::from_bounds(10.0, 10.0, 60.0, 60.0);
        let mut a: Vec<u32> = bulk.search_rect(&q).into_iter().copied().collect();
        let mut b: Vec<u32> = incr.search_rect(&q).into_iter().copied().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn nearest_iter_orders_by_distance() {
        let mut t: RTree<u32> = RTree::new();
        for i in 0..50u32 {
            t.insert(pt_rect(f64::from(i), 0.0), i);
        }
        let q = Point::new(20.2, 0.0);
        let seq: Vec<u32> = t.nearest_iter(q).map(|n| *n.data).take(5).collect();
        assert_eq!(seq, vec![20, 21, 19, 22, 18]);
        // Distances are non-decreasing over the full iteration.
        let dists: Vec<f64> = t.nearest_iter(q).map(|n| n.dist).collect();
        assert_eq!(dists.len(), 50);
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn for_each_visits_all() {
        let mut t: RTree<u32> = RTree::new();
        for i in 0..40u32 {
            t.insert(pt_rect(f64::from(i), 1.0), i);
        }
        let mut seen = [false; 40];
        t.for_each(|_, &v| seen[v as usize] = true);
        assert!(seen.iter().all(|&s| s));
    }
}
