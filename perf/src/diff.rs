//! `perf --diff A.json… -- B.json…`: compare two sets of runs metric
//! by metric against the bounds in `BENCHMARK.json`.

use crate::metrics::{RunRecord, EXACT};
use crate::stats::{quartiles, spread};
use serde::Value;
use std::collections::BTreeMap;

/// An end-to-end metric's regression rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// True when a larger value is better.
    pub higher_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// Parse the `end_to_end` list of a `BENCHMARK.json` document.
pub fn bounds_from_benchmark(text: &str) -> Result<Vec<Bound>, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let Some(Value::Array(list)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no `end_to_end` list".into());
    };
    list.iter()
        .map(|m| {
            let (Some(Value::Str(name)), Some(Value::Str(better)), Some(Value::Num(bound))) =
                (m.get("name"), m.get("better"), m.get("bound"))
            else {
                return Err("an end_to_end entry lacks name, better or bound".to_string());
            };
            Ok(Bound {
                name: name.clone(),
                higher_is_better: better == "higher",
                bound: *bound,
            })
        })
        .collect()
}

/// Outcome of comparing side B against side A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound.
    Better,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The medians differ by at most the bound.
    Within,
    /// A side's own quartile spread exceeds the bound, so the runs
    /// cannot resolve a change of that size.
    Unresolved,
}

impl Verdict {
    /// Lower-case name as printed.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B against A for one metric.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    if a.is_empty() || b.is_empty() || spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (quartiles(a)[1], quartiles(b)[1]);
    if ma == 0.0 {
        return Verdict::Unresolved;
    }
    let gain = (mb - ma) / ma.abs() * if higher_is_better { 1.0 } else { -1.0 };
    if gain > bound {
        Verdict::Better
    } else if gain < -bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// One-sided two-proportion z-test: is B's failure rate higher than
/// A's at p < 0.01, pooling every run of each side?
pub fn more_failures(a_failed: u64, a_attempted: u64, b_failed: u64, b_attempted: u64) -> bool {
    if a_attempted == 0 || b_attempted == 0 {
        return false;
    }
    let (na, nb) = (a_attempted as f64, b_attempted as f64);
    let pooled = (a_failed + b_failed) as f64 / (na + nb);
    if pooled == 0.0 || pooled == 1.0 {
        return false;
    }
    let se = (pooled * (1.0 - pooled) * (1.0 / na + 1.0 / nb)).sqrt();
    let z = (b_failed as f64 / nb - a_failed as f64 / na) / se;
    // Upper 1% point of the standard normal.
    z > 2.326_347_874
}

fn load(paths: &[String]) -> Result<Vec<RunRecord>, String> {
    let mut out = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let v: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
        let items = match v {
            Value::Array(items) => items,
            one => vec![one],
        };
        for item in &items {
            out.push(RunRecord::from_value(item).map_err(|e| format!("{path}: {e}"))?);
        }
    }
    Ok(out)
}

fn by_workload(runs: &[RunRecord]) -> BTreeMap<&str, Vec<&RunRecord>> {
    let mut map: BTreeMap<&str, Vec<&RunRecord>> = BTreeMap::new();
    for r in runs {
        map.entry(r.workload.as_str()).or_default().push(r);
    }
    map
}

fn values(runs: &[&RunRecord], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.get(metric).map(|s| s.value))
        .collect()
}

/// Print the comparison; returns the process exit code (1 when any
/// metric or the failure count got worse).
pub fn run(a_paths: &[String], b_paths: &[String], bounds: &[Bound]) -> Result<i32, String> {
    let (a_runs, b_runs) = (load(a_paths)?, load(b_paths)?);
    let (a_map, b_map) = (by_workload(&a_runs), by_workload(&b_runs));
    let mut worse = false;
    for (workload, a) in &a_map {
        let Some(b) = b_map.get(workload) else {
            println!("{workload}: only in A");
            continue;
        };
        for bound in bounds {
            let (va, vb) = (values(a, &bound.name), values(b, &bound.name));
            let v = verdict(&va, &vb, bound.higher_is_better, bound.bound);
            worse |= v == Verdict::Worse;
            let [a1, a2, a3] = quartiles(&va);
            let [b1, b2, b3] = quartiles(&vb);
            println!(
                "{workload} {} A {a2:.6} [{a1:.6}, {a3:.6}] B {b2:.6} [{b1:.6}, {b3:.6}] bound {:.0}% {}",
                bound.name,
                bound.bound * 100.0,
                v.name()
            );
        }
        let sum = |runs: &[&RunRecord]| {
            runs.iter()
                .fold((0, 0), |(f, n), r| (f + r.failed, n + r.attempted))
        };
        let ((af, an), (bf, bn)) = (sum(a), sum(b));
        let failures_worse = more_failures(af, an, bf, bn);
        worse |= failures_worse;
        println!(
            "{workload} failed A {af}/{an} B {bf}/{bn} {}",
            if failures_worse { "worse" } else { "within" }
        );
        // Exact counts repeat for a seed, so compare runs seed by seed.
        for name in EXACT {
            for ra in a {
                let Some(rb) = b.iter().find(|r| r.seed == ra.seed) else {
                    continue;
                };
                if let (Some(x), Some(y)) = (ra.metrics.get(*name), rb.metrics.get(*name)) {
                    if x.value != y.value {
                        println!(
                            "{workload} {name} changed at seed {}: A {} B {}",
                            ra.seed, x.value, y.value
                        );
                    }
                }
            }
        }
    }
    Ok(i32::from(worse))
}
