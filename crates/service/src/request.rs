//! The request/response vocabulary of the service, and cache-key
//! canonicalisation.

use atsq_types::{Goal, Query, QueryKind, QueryResult};
use std::sync::Arc;

/// One query request: the paper's two query types plus their
//  threshold variants, behind a single enum.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Top-`k` by `Dmm` (order-insensitive).
    Atsq {
        /// The query locations and activities.
        query: Query,
        /// Result-set size.
        k: usize,
    },
    /// Top-`k` by `Dmom` (order-sensitive).
    Oatsq {
        /// The query locations and activities, in visiting order.
        query: Query,
        /// Result-set size.
        k: usize,
    },
    /// Every trajectory with `Dmm ≤ tau`.
    AtsqRange {
        /// The query locations and activities.
        query: Query,
        /// Distance threshold in km.
        tau: f64,
    },
    /// Every trajectory with `Dmom ≤ tau`.
    OatsqRange {
        /// The query locations and activities, in visiting order.
        query: Query,
        /// Distance threshold in km.
        tau: f64,
    },
}

impl Request {
    /// The query inside the request.
    pub fn query(&self) -> &Query {
        match self {
            Request::Atsq { query, .. }
            | Request::Oatsq { query, .. }
            | Request::AtsqRange { query, .. }
            | Request::OatsqRange { query, .. } => query,
        }
    }

    /// Short label for logs and stats ("atsq", "oatsq", …).
    pub fn op(&self) -> &'static str {
        match self {
            Request::Atsq { .. } => "atsq",
            Request::Oatsq { .. } => "oatsq",
            Request::AtsqRange { .. } => "atsq_range",
            Request::OatsqRange { .. } => "oatsq_range",
        }
    }

    /// What the request asks an engine for: the query kind and goal.
    pub fn plan(&self) -> (QueryKind, Goal) {
        match *self {
            Request::Atsq { k, .. } => (QueryKind::Atsq, Goal::TopK(k)),
            Request::Oatsq { k, .. } => (QueryKind::Oatsq, Goal::TopK(k)),
            Request::AtsqRange { tau, .. } => (QueryKind::Atsq, Goal::Range(tau)),
            Request::OatsqRange { tau, .. } => (QueryKind::Oatsq, Goal::Range(tau)),
        }
    }

    /// The canonical cache key for this request. Two requests that are
    /// guaranteed to produce identical results map to the same key; in
    /// particular the order-insensitive variants sort their stops, so
    /// any permutation of the same ATSQ hits the same cache line.
    pub fn cache_key(&self) -> CacheKey {
        let (kind, goal) = self.plan();
        let (range, param) = match goal {
            Goal::TopK(k) => (false, k as u64),
            Goal::Range(tau) => (true, tau.to_bits()),
        };
        let mut stops: Vec<CanonicalStop> = self
            .query()
            .points
            .iter()
            .map(|p| {
                // Activity ids inside an ActivitySet are already sorted.
                CanonicalStop {
                    x: p.loc.x.to_bits(),
                    y: p.loc.y.to_bits(),
                    acts: p.activities.iter().map(|a| a.0).collect(),
                }
            })
            .collect();
        if kind == QueryKind::Atsq {
            stops.sort_unstable();
        }
        CacheKey {
            kind,
            range,
            param,
            stops,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct CanonicalStop {
    x: u64,
    y: u64,
    acts: Vec<u32>,
}

/// Canonicalised request identity: hashable/equatable, with
/// location coordinates compared bit-exactly and order-insensitive
/// request kinds normalised to a sorted stop list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    kind: QueryKind,
    /// Whether `param` is a radius rather than `k`.
    range: bool,
    /// `k` for top-k requests, `tau.to_bits()` for range requests.
    param: u64,
    stops: Vec<CanonicalStop>,
}

/// The service's answer to one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request executed (or was answered from the cache).
    Ok {
        /// Ranked results, ascending by distance.
        results: Arc<Vec<QueryResult>>,
        /// Whether the answer came from the result cache.
        cached: bool,
    },
    /// The deadline passed before a worker picked the request up.
    Expired,
    /// Execution panicked; the service stayed up and the panic is
    /// reported instead of propagated.
    Failed {
        /// The panic message.
        error: String,
    },
}

impl Response {
    /// The results when the response is `Ok`.
    pub fn results(&self) -> Option<&[QueryResult]> {
        match self {
            Response::Ok { results, .. } => Some(results),
            Response::Expired | Response::Failed { .. } => None,
        }
    }

    /// Whether the response was served from the cache.
    pub fn is_cached(&self) -> bool {
        matches!(self, Response::Ok { cached: true, .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsq_types::{ActivitySet, Point, QueryPoint};

    fn qp(x: f64, y: f64, acts: &[u32]) -> QueryPoint {
        QueryPoint::new(
            Point::new(x, y),
            ActivitySet::from_raw(acts.iter().copied()),
        )
    }

    fn q(points: Vec<QueryPoint>) -> Query {
        Query::new(points).unwrap()
    }

    #[test]
    fn atsq_key_is_stop_order_insensitive() {
        let a = Request::Atsq {
            query: q(vec![qp(0.0, 0.0, &[1, 2]), qp(5.0, 5.0, &[3])]),
            k: 4,
        };
        let b = Request::Atsq {
            query: q(vec![qp(5.0, 5.0, &[3]), qp(0.0, 0.0, &[1, 2])]),
            k: 4,
        };
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn oatsq_key_is_stop_order_sensitive() {
        let a = Request::Oatsq {
            query: q(vec![qp(0.0, 0.0, &[1]), qp(5.0, 5.0, &[3])]),
            k: 4,
        };
        let b = Request::Oatsq {
            query: q(vec![qp(5.0, 5.0, &[3]), qp(0.0, 0.0, &[1])]),
            k: 4,
        };
        assert_ne!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn k_kind_and_tau_separate_keys() {
        let query = q(vec![qp(1.0, 2.0, &[7])]);
        let k5 = Request::Atsq {
            query: query.clone(),
            k: 5,
        };
        let k9 = Request::Atsq {
            query: query.clone(),
            k: 9,
        };
        let o5 = Request::Oatsq {
            query: query.clone(),
            k: 5,
        };
        let r = Request::AtsqRange {
            query: query.clone(),
            tau: 5.0,
        };
        let r2 = Request::AtsqRange { query, tau: 6.0 };
        assert_ne!(k5.cache_key(), k9.cache_key());
        assert_ne!(k5.cache_key(), o5.cache_key());
        assert_ne!(k5.cache_key(), r.cache_key());
        assert_ne!(r.cache_key(), r2.cache_key());
    }

    #[test]
    fn ops_are_labelled() {
        let query = q(vec![qp(0.0, 0.0, &[1])]);
        assert_eq!(
            Request::Atsq {
                query: query.clone(),
                k: 1
            }
            .op(),
            "atsq"
        );
        assert_eq!(
            Request::Oatsq {
                query: query.clone(),
                k: 1
            }
            .op(),
            "oatsq"
        );
        assert_eq!(
            Request::AtsqRange {
                query: query.clone(),
                tau: 1.0
            }
            .op(),
            "atsq_range"
        );
        assert_eq!(Request::OatsqRange { query, tau: 1.0 }.op(), "oatsq_range");
    }
}
