//! R-tree node representation and Guttman insertion.

use crate::split::split_entries;
use crate::summary::NodeSummary;
use crate::{MAX_ENTRIES, MIN_ENTRIES};
use atsq_types::Rect;

/// One leaf-level entry: a payload and its bounding rectangle.
#[derive(Debug, Clone)]
pub struct LeafEntry<T> {
    /// Bounding rectangle of the payload (a point rect for venues).
    pub rect: Rect,
    /// The payload.
    pub data: T,
}

/// An R-tree node: either a leaf holding payload entries or an internal
/// node holding child nodes. Every node caches its MBR and its payload
/// summary.
#[derive(Debug, Clone)]
pub enum Node<T, S: NodeSummary<T>> {
    /// Leaf node with payload entries.
    Leaf {
        /// Cached bounding rectangle of all entries.
        mbr: Rect,
        /// Cached summary over all entries.
        summary: S,
        /// The payload entries (≤ [`MAX_ENTRIES`]).
        entries: Vec<LeafEntry<T>>,
    },
    /// Internal node with children.
    Internal {
        /// Cached bounding rectangle of all children.
        mbr: Rect,
        /// Cached summary over all children.
        summary: S,
        /// The child nodes (≤ [`MAX_ENTRIES`]).
        children: Vec<Node<T, S>>,
    },
}

impl<T, S: NodeSummary<T>> Node<T, S> {
    /// A fresh empty leaf.
    pub fn new_leaf() -> Self {
        Node::Leaf {
            mbr: Rect::empty(),
            summary: S::default(),
            entries: Vec::with_capacity(MAX_ENTRIES + 1),
        }
    }

    /// A fresh empty internal node.
    pub fn new_internal() -> Self {
        Node::Internal {
            mbr: Rect::empty(),
            summary: S::default(),
            children: Vec::with_capacity(MAX_ENTRIES + 1),
        }
    }

    /// This node's cached bounding rectangle.
    #[inline]
    pub fn mbr(&self) -> Rect {
        match self {
            Node::Leaf { mbr, .. } | Node::Internal { mbr, .. } => *mbr,
        }
    }

    /// This node's cached summary.
    #[inline]
    pub fn summary(&self) -> &S {
        match self {
            Node::Leaf { summary, .. } | Node::Internal { summary, .. } => summary,
        }
    }

    /// Leaf entries (panics on internal nodes).
    pub fn entries(&self) -> &[LeafEntry<T>] {
        match self {
            Node::Leaf { entries, .. } => entries,
            Node::Internal { .. } => panic!("entries() on internal node"),
        }
    }

    /// Children (panics on leaf nodes).
    pub fn children(&self) -> &[Node<T, S>] {
        match self {
            Node::Internal { children, .. } => children,
            Node::Leaf { .. } => panic!("children() on leaf node"),
        }
    }

    /// Appends a leaf entry, updating MBR and summary (no split check).
    pub fn push_leaf_entry(&mut self, entry: LeafEntry<T>) {
        match self {
            Node::Leaf {
                mbr,
                summary,
                entries,
            } => {
                *mbr = mbr.union(&entry.rect);
                summary.add(&entry.data);
                entries.push(entry);
            }
            Node::Internal { .. } => panic!("push_leaf_entry on internal node"),
        }
    }

    /// Appends a child node, updating MBR and summary (no split check).
    pub fn push_child(&mut self, child: Node<T, S>) {
        match self {
            Node::Internal {
                mbr,
                summary,
                children,
            } => {
                *mbr = mbr.union(&child.mbr());
                summary.merge(child.summary());
                children.push(child);
            }
            Node::Leaf { .. } => panic!("push_child on leaf node"),
        }
    }

    /// Guttman insertion. Returns `Some(sibling)` when this node had to
    /// split; the caller links the sibling into the parent (or grows a
    /// new root).
    pub fn insert(&mut self, entry: LeafEntry<T>) -> Option<Node<T, S>> {
        match self {
            Node::Leaf {
                mbr,
                summary,
                entries,
            } => {
                *mbr = mbr.union(&entry.rect);
                summary.add(&entry.data);
                entries.push(entry);
                if entries.len() > MAX_ENTRIES {
                    let spilled = std::mem::take(entries);
                    let (left, right) = split_entries(spilled, |e| e.rect, MIN_ENTRIES);
                    let mut sibling = Node::new_leaf();
                    *mbr = Rect::empty();
                    *summary = S::default();
                    for e in left {
                        *mbr = mbr.union(&e.rect);
                        summary.add(&e.data);
                        entries.push(e);
                    }
                    for e in right {
                        sibling.push_leaf_entry(e);
                    }
                    Some(sibling)
                } else {
                    None
                }
            }
            Node::Internal {
                mbr,
                summary,
                children,
            } => {
                // ChooseLeaf: least enlargement, ties by smallest area.
                let mut best = 0usize;
                let mut best_enl = f64::INFINITY;
                let mut best_area = f64::INFINITY;
                for (i, c) in children.iter().enumerate() {
                    let enl = c.mbr().enlargement(&entry.rect);
                    let area = c.mbr().area();
                    if enl < best_enl || (enl == best_enl && area < best_area) {
                        best = i;
                        best_enl = enl;
                        best_area = area;
                    }
                }
                *mbr = mbr.union(&entry.rect);
                summary.add(&entry.data);
                let split = children[best].insert(entry);
                if let Some(new_child) = split {
                    children.push(new_child);
                    if children.len() > MAX_ENTRIES {
                        let spilled = std::mem::take(children);
                        let (left, right) = split_entries(spilled, |n| n.mbr(), MIN_ENTRIES);
                        let mut sibling = Node::new_internal();
                        *mbr = Rect::empty();
                        *summary = S::default();
                        for c in left {
                            *mbr = mbr.union(&c.mbr());
                            summary.merge(c.summary());
                            children.push(c);
                        }
                        for c in right {
                            sibling.push_child(c);
                        }
                        return Some(sibling);
                    }
                }
                None
            }
        }
    }

    /// Recomputes this node's cached MBR and summary from its direct
    /// contents (children summaries are already cached, so this is
    /// O(fanout)). Needed after removals, since summaries only grow.
    pub fn rebuild_meta(&mut self) {
        match self {
            Node::Leaf {
                mbr,
                summary,
                entries,
            } => {
                *mbr = Rect::empty();
                *summary = S::default();
                for e in entries.iter() {
                    *mbr = mbr.union(&e.rect);
                    summary.add(&e.data);
                }
            }
            Node::Internal {
                mbr,
                summary,
                children,
            } => {
                *mbr = Rect::empty();
                *summary = S::default();
                for c in children.iter() {
                    *mbr = mbr.union(&c.mbr());
                    summary.merge(c.summary());
                }
            }
        }
    }

    /// Drains every leaf entry in this subtree into `out` (used when a
    /// condensed node's survivors are reinserted).
    pub fn drain_entries(self, out: &mut Vec<LeafEntry<T>>) {
        match self {
            Node::Leaf { entries, .. } => out.extend(entries),
            Node::Internal { children, .. } => {
                for c in children {
                    c.drain_entries(out);
                }
            }
        }
    }

    /// Guttman deletion step: removes the first entry with an equal
    /// rectangle accepted by `matches`. Underflowing descendants are
    /// dissolved into `orphans` for reinsertion by the caller
    /// (CondenseTree). Returns the removed payload, if found here.
    pub fn remove(
        &mut self,
        rect: &Rect,
        matches: &impl Fn(&T) -> bool,
        orphans: &mut Vec<LeafEntry<T>>,
        min_fill: usize,
    ) -> Option<T> {
        match self {
            Node::Leaf { entries, .. } => {
                let pos = entries
                    .iter()
                    .position(|e| e.rect == *rect && matches(&e.data))?;
                let removed = entries.remove(pos);
                self.rebuild_meta();
                Some(removed.data)
            }
            Node::Internal { children, .. } => {
                let mut removed = None;
                let mut child_idx = None;
                for (i, c) in children.iter_mut().enumerate() {
                    if c.mbr().intersects(rect) {
                        if let Some(data) = c.remove(rect, matches, orphans, min_fill) {
                            removed = Some(data);
                            child_idx = Some(i);
                            break;
                        }
                    }
                }
                let data = removed?;
                let i = child_idx.expect("index recorded with removal");
                let underflow = match &children[i] {
                    Node::Leaf { entries, .. } => entries.len() < min_fill,
                    Node::Internal { children: cc, .. } => cc.len() < min_fill,
                };
                if underflow {
                    let dissolved = children.remove(i);
                    dissolved.drain_entries(orphans);
                }
                self.rebuild_meta();
                Some(data)
            }
        }
    }

    /// Recursive rectangle search.
    pub fn search_rect<'a>(&'a self, query: &Rect, out: &mut Vec<&'a T>) {
        match self {
            Node::Leaf { entries, .. } => {
                for e in entries {
                    if query.intersects(&e.rect) {
                        out.push(&e.data);
                    }
                }
            }
            Node::Internal { children, .. } => {
                for c in children {
                    if query.intersects(&c.mbr()) {
                        c.search_rect(query, out);
                    }
                }
            }
        }
    }

    /// Recursive full visit.
    pub fn for_each(&self, f: &mut impl FnMut(&Rect, &T)) {
        match self {
            Node::Leaf { entries, .. } => {
                for e in entries {
                    f(&e.rect, &e.data);
                }
            }
            Node::Internal { children, .. } => {
                for c in children {
                    c.for_each(f);
                }
            }
        }
    }

    /// Invariant check: MBRs cover contents, fanout bounds hold (root
    /// exempt from the minimum), all leaves at equal depth. Returns the
    /// subtree depth.
    pub fn check(&self, count: &mut usize, is_root: bool) -> Result<usize, String> {
        match self {
            Node::Leaf { mbr, entries, .. } => {
                if entries.is_empty() && !is_root {
                    return Err("empty non-root leaf".into());
                }
                if entries.len() > MAX_ENTRIES {
                    return Err(format!("leaf overflow: {}", entries.len()));
                }
                let mut real = Rect::empty();
                for e in entries {
                    real = real.union(&e.rect);
                }
                if !mbr.contains_rect(&real) {
                    return Err("leaf mbr does not cover entries".into());
                }
                *count += entries.len();
                Ok(1)
            }
            Node::Internal { mbr, children, .. } => {
                if children.len() < 2 {
                    return Err("internal node with < 2 children".into());
                }
                if children.len() > MAX_ENTRIES {
                    return Err(format!("internal overflow: {}", children.len()));
                }
                let mut depth = None;
                let mut real = Rect::empty();
                for c in children {
                    real = real.union(&c.mbr());
                    let d = c.check(count, false)?;
                    match depth {
                        None => depth = Some(d),
                        Some(prev) if prev != d => return Err("unbalanced subtree depths".into()),
                        _ => {}
                    }
                }
                if !mbr.contains_rect(&real) {
                    return Err("internal mbr does not cover children".into());
                }
                Ok(depth.unwrap_or(0) + 1)
            }
        }
    }
}
