//! Spans the benchmark records around its calls into each layer, and
//! the self-time arithmetic that turns them into per-layer time.
//!
//! A span's self time is its duration minus the part of its interval
//! that its child spans cover, so the self times of a tree sum to the
//! root's duration — the request's latency as the client saw it.

use atsq_service::json::{obj, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// One timed interval. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span within the same tree.
    pub parent: Option<usize>,
    /// The server's id of the request, zero for set-up work.
    pub request_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Builds one tree: the root first, then children by parent index.
#[derive(Debug)]
pub struct Tree {
    spans: Vec<Span>,
}

impl Tree {
    pub fn new(name: &'static str, start_ns: u64, end_ns: u64, request_id: u64) -> Tree {
        let root = Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            request_id,
        };
        Tree { spans: vec![root] }
    }

    /// Adds a child and returns its index.
    pub fn child(
        &mut self,
        parent: usize,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            request_id: self.spans[0].request_id,
        });
        self.spans.len() - 1
    }

    /// Adds children of known durations back to back from `start_ns`:
    /// the server reports how long its stages took, not when.
    pub fn chain(&mut self, parent: usize, start_ns: u64, parts: &[(&'static str, u64)]) {
        let mut at = start_ns;
        for &(name, ns) in parts {
            if ns > 0 {
                self.child(parent, name, at, at + ns);
                at += ns;
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span of one tree, in span order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            // Only the part inside the parent's interval counts.
            let start = span.start_ns.max(spans[p].start_ns);
            let end = span.end_ns.min(spans[p].end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let (mut covered, mut reach) = (0u64, 0u64);
            for (start, end) in intervals {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Per-layer totals over every tree of a run, plus the first trees in
/// full for the trace file (a quarter of a million requests would make
/// it hundreds of megabytes).
#[derive(Debug)]
pub struct Trace {
    kept: Vec<Span>,
    keep_trees: usize,
    trees: u64,
    /// name → (spans, self ns, total ns)
    layers: BTreeMap<&'static str, (u64, u64, u64)>,
    request_self_ns: u64,
}

impl Trace {
    pub fn new(keep_trees: usize) -> Trace {
        Trace {
            kept: Vec::new(),
            keep_trees,
            trees: 0,
            layers: BTreeMap::new(),
            request_self_ns: 0,
        }
    }

    pub fn add(&mut self, tree: &Tree) {
        let spans = tree.spans();
        for (span, own) in spans.iter().zip(self_times(spans)) {
            let layer = self.layers.entry(span.name).or_default();
            layer.0 += 1;
            layer.1 += own;
            layer.2 += span.duration_ns();
            if span.request_id != 0 {
                self.request_self_ns += own;
            }
        }
        if (self.trees as usize) < self.keep_trees {
            let base = self.kept.len();
            self.kept.extend(spans.iter().cloned().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
        self.trees += 1;
    }

    /// Summed self time of a layer in nanoseconds.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.layers.get(name).map_or(0, |l| l.1)
    }

    /// Summed self time of every span that belongs to a request: what
    /// the layers account for of the latency the clients measured.
    pub fn request_self_ns(&self) -> u64 {
        self.request_self_ns
    }

    pub fn write(&self, path: &Path, header: Vec<(&str, Value)>) -> std::io::Result<()> {
        let layers = self
            .layers
            .iter()
            .map(|(name, &(count, own, total))| {
                obj(vec![
                    ("layer", Value::Str((*name).into())),
                    ("spans", Value::Num(count as f64)),
                    ("self_ms", Value::Num(own as f64 / 1e6)),
                    ("total_ms", Value::Num(total as f64 / 1e6)),
                ])
            })
            .collect();
        let spans = self
            .kept
            .iter()
            .map(|s| {
                obj(vec![
                    ("name", Value::Str(s.name.into())),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("request_id", Value::Num(s.request_id as f64)),
                ])
            })
            .collect();
        let mut members = header;
        members.push(("trees", Value::Num(self.trees as f64)));
        members.push((
            "trees_kept",
            Value::Num(self.trees.min(self.keep_trees as u64) as f64),
        ));
        members.push(("layers", Value::Arr(layers)));
        members.push(("spans", Value::Arr(spans)));
        std::fs::write(path, obj(members).to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root_span() {
        let mut tree = Tree::new("client.request", 100, 1_100, 7);
        tree.child(0, "wire.encode_request", 100, 130);
        let roundtrip = tree.child(0, "server.roundtrip", 130, 1_000);
        tree.child(0, "wire.decode_reply", 1_000, 1_090);
        tree.chain(
            roundtrip,
            200,
            &[
                ("service.queue", 50),
                ("service.cache", 0),
                ("service.engine", 600),
            ],
        );
        let own = self_times(tree.spans());
        assert_eq!(own.iter().sum::<u64>(), 1_000, "parts sum to the root");
        assert_eq!(own[0], 10, "root keeps what no child covers");
        assert_eq!(own[roundtrip], 870 - 650, "residual of the roundtrip");
        // The zero-length stage made no span.
        assert_eq!(tree.spans().len(), 6);
        assert!(tree.spans().iter().all(|s| s.request_id == 7));
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let mut tree = Tree::new("root", 0, 100, 1);
        tree.child(0, "a", 10, 60);
        tree.child(0, "b", 40, 80);
        // Hangs over the end of its parent: only 90..100 is inside.
        tree.child(0, "c", 90, 150);
        let own = self_times(tree.spans());
        assert_eq!(own[0], 100 - 70 - 10);
    }

    #[test]
    fn trace_totals_and_keeps_the_first_trees() {
        let mut trace = Trace::new(1);
        for id in 1..=3 {
            let mut tree = Tree::new("client.request", 0, 100, id);
            tree.child(0, "server.roundtrip", 10, 90);
            trace.add(&tree);
        }
        assert_eq!(trace.self_ns("client.request"), 60);
        assert_eq!(trace.self_ns("server.roundtrip"), 240);
        assert_eq!(trace.layers["client.request"], (3, 60, 300));
        assert_eq!(trace.request_self_ns(), 300, "all of the clients' latency");
        // Set-up work belongs to no request.
        trace.add(&Tree::new("setup", 0, 1_000, 0));
        assert_eq!(trace.request_self_ns(), 300);
        assert_eq!(trace.kept.len(), 2);
    }
}
