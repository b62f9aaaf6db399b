//! Reproduction of the paper's worked examples: the Fig. 1 running
//! example (distance matrices, minimum matches, and the motivating
//! Dbm-vs-Dmm inversion), the Table II `Dmpm` trace, and the Table III
//! `Dmom` dynamic-program matrix.
//!
//! The paper gives distances as matrices rather than coordinates (the
//! matrices are not exactly realisable in the plane), so these tests
//! drive the distance kernels through their mask/distance interface —
//! `CandidatePoint` — which is precisely what the engines feed them.

use atsq_matching::point_match::{dmpm_from_sorted, CandidatePoint, IncrementalCover, QueryMask};
use atsq_types::ActivitySet;

/// Activities a..f as ids 0..5.
fn acts(ids: &[u32]) -> ActivitySet {
    ActivitySet::from_raw(ids.iter().copied())
}

/// Fig. 1 query: q1 {a,b}, q2 {c,d}, q3 {e}.
fn query_activities() -> [ActivitySet; 3] {
    [acts(&[0, 1]), acts(&[2, 3]), acts(&[4])]
}

/// Fig. 1 Tr1 point activities: p1,1 {d}, p1,2 {a,c}, p1,3 {b},
/// p1,4 {c}, p1,5 {d,e}.
fn tr1_activities() -> [ActivitySet; 5] {
    [
        acts(&[3]),
        acts(&[0, 2]),
        acts(&[1]),
        acts(&[2]),
        acts(&[3, 4]),
    ]
}

/// Fig. 1 Tr2 point activities: p2,1 {a}, p2,2 {b,c}, p2,3 {c,d},
/// p2,4 {e}, p2,5 {f}.
fn tr2_activities() -> [ActivitySet; 5] {
    [
        acts(&[0]),
        acts(&[1, 2]),
        acts(&[2, 3]),
        acts(&[4]),
        acts(&[5]),
    ]
}

/// Fig. 1 distance matrix for Tr1 (rows q1..q3, columns p1..p5).
const TR1_DIST: [[f64; 5]; 3] = [
    [2.0, 8.0, 16.0, 24.0, 32.0],
    [14.0, 6.0, 3.0, 11.0, 20.0],
    [33.0, 25.0, 17.0, 8.0, 1.0],
];

/// Fig. 1 distance matrix for Tr2.
const TR2_DIST: [[f64; 5]; 3] = [
    [6.0, 8.0, 17.0, 26.0, 31.0],
    [14.0, 13.0, 4.0, 13.0, 20.0],
    [32.0, 28.0, 16.0, 7.0, 3.0],
];

/// `Dmpm(qi, Tr)` from one matrix row and the point activity sets.
fn dmpm_row(q_acts: &ActivitySet, row: &[f64; 5], points: &[ActivitySet; 5]) -> Option<f64> {
    let qm = QueryMask::new(q_acts);
    let mut cp: Vec<CandidatePoint> = row
        .iter()
        .zip(points.iter())
        .filter_map(|(&dist, p)| {
            let mask = qm.cover_mask(p.ids());
            (mask != 0).then_some(CandidatePoint { dist, mask })
        })
        .collect();
    cp.sort_by(|a, b| a.dist.partial_cmp(&b.dist).unwrap());
    dmpm_from_sorted(&qm, &cp)
}

#[test]
fn fig1_minimum_point_matches() {
    let q = query_activities();
    let tr1 = tr1_activities();
    let tr2 = tr2_activities();

    // Tr1: q1 -> {p1,2, p1,3} = 8 + 16 = 24; q2 -> {p1,1, p1,2} =
    // 14 + 6 = 20; q3 -> {p1,5} = 1 (as in §II's discussion).
    assert_eq!(dmpm_row(&q[0], &TR1_DIST[0], &tr1), Some(24.0));
    assert_eq!(dmpm_row(&q[1], &TR1_DIST[1], &tr1), Some(20.0));
    assert_eq!(dmpm_row(&q[2], &TR1_DIST[2], &tr1), Some(1.0));

    // Tr2: q1 -> {p2,1, p2,2} = 14; q2 -> {p2,3} = 4; q3 -> {p2,4} = 7.
    assert_eq!(dmpm_row(&q[0], &TR2_DIST[0], &tr2), Some(14.0));
    assert_eq!(dmpm_row(&q[1], &TR2_DIST[1], &tr2), Some(4.0));
    assert_eq!(dmpm_row(&q[2], &TR2_DIST[2], &tr2), Some(7.0));
}

#[test]
fn fig1_tr2_beats_tr1_on_dmm_but_loses_on_dbm() {
    let q = query_activities();
    let tr1 = tr1_activities();
    let tr2 = tr2_activities();

    // Dmm by Lemma 1.
    let dmm_tr1: f64 = (0..3)
        .map(|i| dmpm_row(&q[i], &TR1_DIST[i], &tr1).unwrap())
        .sum();
    let dmm_tr2: f64 = (0..3)
        .map(|i| dmpm_row(&q[i], &TR2_DIST[i], &tr2).unwrap())
        .sum();
    assert_eq!(dmm_tr1, 45.0);
    assert_eq!(dmm_tr2, 25.0);
    assert!(dmm_tr2 < dmm_tr1, "Tr2 must win under activity awareness");

    // Best match distance ignores activities: Tr1 wins geometrically,
    // which is exactly the paper's motivating failure of k-BCT.
    let dbm_tr1: f64 = TR1_DIST
        .iter()
        .map(|row| row.iter().cloned().fold(f64::INFINITY, f64::min))
        .sum();
    let dbm_tr2: f64 = TR2_DIST
        .iter()
        .map(|row| row.iter().cloned().fold(f64::INFINITY, f64::min))
        .sum();
    assert_eq!(dbm_tr1, 6.0);
    assert_eq!(dbm_tr2, 13.0);
    assert!(dbm_tr1 < dbm_tr2);

    // Lemma 2 holds on both.
    assert!(dbm_tr1 <= dmm_tr1);
    assert!(dbm_tr2 <= dmm_tr2);
}

/// Eq. (1) dynamic program over the matrix interface — the same
/// recurrence `atsq_matching::order_match` implements over planar
/// points, driven here by the paper's exact distances to reproduce
/// Table III.
#[allow(clippy::needless_range_loop)]
fn dmom_matrix(
    queries: &[ActivitySet],
    dist: &[[f64; 5]; 3],
    points: &[ActivitySet; 5],
) -> Vec<Vec<f64>> {
    let n = points.len();
    let mut g_prev = vec![0.0f64; n + 1];
    let mut table = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let qm = QueryMask::new(q);
        let masks: Vec<u32> = points.iter().map(|p| qm.cover_mask(p.ids())).collect();
        let mut g_curr = vec![f64::INFINITY; n + 1];
        for j in 1..=n {
            let mut cover = IncrementalCover::new(&qm);
            let mut best = f64::INFINITY;
            for k in (1..=j).rev() {
                if g_prev[k].is_infinite() {
                    break;
                }
                cover.add_point(CandidatePoint {
                    dist: dist[i][k - 1],
                    mask: masks[k - 1],
                });
                if let Some(d) = cover.full_cover_cost() {
                    best = best.min(g_prev[k] + d);
                }
            }
            g_curr[j] = best;
        }
        table.push(g_curr[1..].to_vec());
        g_prev = g_curr;
    }
    table
}

#[test]
fn table_iii_dmom_matrix() {
    let q = query_activities();
    let tr1 = tr1_activities();
    let g = dmom_matrix(&q, &TR1_DIST, &tr1);
    let inf = f64::INFINITY;
    assert_eq!(g[0], vec![inf, inf, 24.0, 24.0, 24.0]);
    assert_eq!(g[1], vec![inf, inf, inf, inf, 55.0]);
    assert_eq!(g[2], vec![inf, inf, inf, inf, 56.0]);
    // Dmom(Q, Tr1) = G(3, 5) = 56, strictly above Dmm = 45 (Lemma 3).
    assert!(g[2][4] > 45.0);
}

#[test]
fn table_iii_order_sensitive_match_for_tr2_equals_dmm() {
    // §VI-A: "Tr2.MOM(Q) is the same as Tr2.MM(Q)" — the minimum
    // matches already comply with the order.
    let q = query_activities();
    let tr2 = tr2_activities();
    let g = dmom_matrix(&q, &TR2_DIST, &tr2);
    assert_eq!(g[2][4], 25.0);
}

#[test]
fn table_ii_dmpm_trace() {
    // Replayed here at the integration level (the unit test inside
    // atsq-matching checks intermediate hash states too).
    let qm = QueryMask::new(&acts(&[0, 1, 2, 3]));
    let points = vec![
        CandidatePoint {
            dist: 10.0,
            mask: 0b0001,
        },
        CandidatePoint {
            dist: 11.0,
            mask: 0b0110,
        },
        CandidatePoint {
            dist: 13.0,
            mask: 0b0011,
        },
        CandidatePoint {
            dist: 15.0,
            mask: 0b1000,
        },
        CandidatePoint {
            dist: 17.0,
            mask: 0b1100,
        },
        CandidatePoint {
            dist: 26.0,
            mask: 0b0111,
        },
        CandidatePoint {
            dist: 31.0,
            mask: 0b1111,
        },
    ];
    assert_eq!(dmpm_from_sorted(&qm, &points), Some(30.0));
}
