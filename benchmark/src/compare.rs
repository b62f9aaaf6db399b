//! `spine compare A… -- B…`: two sets of result files, one row per
//! metric and workload, judged with the bounds of `BENCHMARK.json`.

use crate::report::{Kind, METRICS};
use crate::stats::{median, quartiles};
use atsq_service::json::{parse, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// Bound for layer metrics, which `BENCHMARK.json` gives none: they
/// are reported, and a row is only a pointer to where to look.
const LAYER_BOUND: f64 = 0.10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The runs of one side spread wider than the bound, and the two
    /// sides overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values).abs();
    if q3 == q1 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

/// By how much of A's median B's median is worse; negative is better.
pub fn worse_by(a: &[f64], b: &[f64], higher_is_better: bool) -> f64 {
    let (ma, mb) = (median(a), median(b));
    let delta = if higher_is_better { ma - mb } else { mb - ma };
    if delta == 0.0 {
        0.0
    } else {
        delta / ma.abs()
    }
}

pub fn verdict(a: &[f64], b: &[f64], bound: f64, higher_is_better: bool) -> Verdict {
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    if spread(a).max(spread(b)) > bound {
        // Too noisy for medians; only a clean separation counts.
        return if b.iter().all(|&y| a.iter().all(|&x| better(y, x))) {
            Verdict::Better
        } else if b.iter().all(|&y| a.iter().all(|&x| better(x, y))) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let w = worse_by(a, b, higher_is_better);
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// (workload, metric) → values, from the files of one side. End-to-end
/// metrics are taken from untraced runs and layer metrics from traced
/// ones, as the benchmark itself reports them.
type Side = BTreeMap<(String, &'static str), Vec<f64>>;

fn load(paths: &[String]) -> Result<Side, String> {
    let mut side = Side::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = parse(text.trim()).map_err(|e| format!("{path}: {e}"))?;
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: no `workload`"))?;
        let traced = doc.get("trace").and_then(Value::as_bool).unwrap_or(false);
        for def in METRICS {
            if (def.kind == Kind::Layer) != traced {
                continue;
            }
            let value = doc
                .get("metrics")
                .and_then(|m| m.get(def.name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{path}: no metric `{}`", def.name))?;
            side.entry((workload.to_owned(), def.name))
                .or_default()
                .push(value);
        }
    }
    Ok(side)
}

/// End-to-end bounds by metric name.
fn bounds(benchmark_json: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let doc = parse(text.trim()).map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no `end_to_end`")?;
    Ok(metrics
        .iter()
        .filter_map(|m| {
            let name = m.get("name").and_then(Value::as_str)?;
            Some((name.to_owned(), m.get("bound").and_then(Value::as_f64)?))
        })
        .collect())
}

/// Prints the comparison; `Ok(true)` when no end-to-end row is worse.
pub fn compare(
    a_paths: &[String],
    b_paths: &[String],
    benchmark_json: &Path,
) -> Result<bool, String> {
    if a_paths.is_empty() || b_paths.is_empty() {
        return Err("usage: spine compare A.json… -- B.json…".into());
    }
    let (a, b) = (load(a_paths)?, load(b_paths)?);
    let bounds = bounds(benchmark_json)?;
    println!(
        "{:<14} {:<30} {:>12} {:>8} {:>12} {:>8} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "A iqr%", "B median", "B iqr%", "worse%", "bound%"
    );
    let mut clean = true;
    for ((workload, metric), av) in &a {
        let Some(bv) = b.get(&(workload.clone(), *metric)) else {
            continue;
        };
        let def = METRICS
            .iter()
            .find(|m| m.name == *metric)
            .expect("from METRICS");
        let bound = match def.kind {
            Kind::EndToEnd => *bounds
                .get(*metric)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for `{metric}`"))?,
            Kind::Layer => LAYER_BOUND,
        };
        let exact = av.iter().chain(bv).all(|v| v.to_bits() == av[0].to_bits());
        if def.kind == Kind::Layer && exact && av[0] == 0.0 {
            continue; // a layer this workload does not exercise
        }
        let v = verdict(av, bv, bound, def.higher_is_better);
        clean &= !(def.kind == Kind::EndToEnd && v == Verdict::Worse);
        println!(
            "{:<14} {:<30} {:>12.4} {:>8.2} {:>12.4} {:>8.2} {:>+9.2} {:>6.0}  {}{}",
            workload,
            metric,
            median(av),
            spread(av) * 100.0,
            median(bv),
            spread(bv) * 100.0,
            worse_by(av, bv, def.higher_is_better) * 100.0,
            bound * 100.0,
            v.name(),
            if exact {
                " (identical in every run)"
            } else {
                ""
            },
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_direction() {
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            verdict(&a, &[10.2, 10.3, 10.1, 10.2], 0.10, false),
            Verdict::Same
        );
        assert_eq!(
            verdict(&a, &[12.0, 12.1, 11.9, 12.0], 0.10, false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[8.0, 8.1, 7.9, 8.0], 0.10, false),
            Verdict::Better
        );
        // The same numbers for a metric where higher is better.
        assert_eq!(
            verdict(&a, &[12.0, 12.1, 11.9, 12.0], 0.10, true),
            Verdict::Better
        );
        assert_eq!(
            verdict(&a, &[8.0, 8.1, 7.9, 8.0], 0.10, true),
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_separated() {
        let noisy = [10.0, 14.0, 8.0, 12.0, 9.0];
        assert!(spread(&noisy) > 0.10);
        assert_eq!(
            verdict(&noisy, &[11.0, 9.5, 13.0, 10.0, 12.0], 0.10, false),
            Verdict::Unresolved
        );
        // Every run of B beats every run of A: noise cannot explain it.
        assert_eq!(
            verdict(&noisy, &[5.0, 7.0, 6.0, 4.0, 7.5], 0.10, false),
            Verdict::Better
        );
        assert_eq!(
            verdict(&noisy, &[15.0, 17.0, 16.0, 19.0, 15.5], 0.10, false),
            Verdict::Worse
        );
    }

    #[test]
    fn zeros_and_single_runs_compare() {
        assert_eq!(verdict(&[0.0], &[0.0], 0.10, false), Verdict::Same);
        assert_eq!(verdict(&[5.0], &[5.2], 0.10, false), Verdict::Same);
        assert_eq!(verdict(&[5.0], &[6.0], 0.10, false), Verdict::Worse);
        assert_eq!(worse_by(&[4.0], &[5.0], false), 0.25);
        assert_eq!(worse_by(&[4.0], &[5.0], true), -0.25);
    }
}
