//! Read the JSON emitted by figure binaries and print a paper-style
//! comparison: per experiment and problem size, which algorithm wins
//! and the percentage gap to the classical baseline. This is the table
//! generator behind EXPERIMENTS.md.

use serde::Deserialize;
use std::collections::BTreeMap;

#[derive(Deserialize)]
struct Row {
    experiment: String,
    algorithm: String,
    p: usize,
    q: usize,
    r: usize,
    threads: usize,
    effective_gflops: f64,
}

/// Element-type tag of a measurement row: the `[tag]` the measure
/// helpers append to non-f64 algorithm names, `"f64"` when absent.
fn dtype_of(algorithm: &str) -> String {
    algorithm
        .find('[')
        .and_then(|open| {
            let rest = &algorithm[open + 1..];
            rest.find(']').map(|close| rest[..close].to_string())
        })
        .unwrap_or_else(|| "f64".into())
}

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: summarize <results.json>…");
        std::process::exit(2);
    }
    let mut rows: Vec<Row> = Vec::new();
    for p in &paths {
        let text = std::fs::read_to_string(p).expect("read json");
        let batch: Vec<Row> = serde_json::from_str(&text).expect("parse json");
        rows.extend(batch);
    }
    // (experiment, dtype, p, q, r, threads) → [(alg, gflops)]. The
    // dtype comes from the `[f32]`-style tag the measure helpers append
    // to non-f64 algorithm names; grouping on it keeps an f32 winner
    // from being scored against the f64 classical baseline (or vice
    // versa) when result files of both dtypes are summarized together.
    type Groups = BTreeMap<(String, String, usize, usize, usize, usize), Vec<(String, f64)>>;
    let mut groups: Groups = BTreeMap::new();
    for row in rows {
        let dtype = dtype_of(&row.algorithm);
        groups
            .entry((row.experiment, dtype, row.p, row.q, row.r, row.threads))
            .or_default()
            .push((row.algorithm, row.effective_gflops));
    }
    println!(
        "{:<14} {:>22} {:>3}T  {:<22} {:>8}  {:>12}",
        "experiment", "problem", "", "winner", "GFLOPS", "vs classical"
    );
    for ((exp, _dtype, p, q, r, threads), algs) in groups {
        let classical = algs
            .iter()
            .find(|(name, _)| name.starts_with("classical"))
            .map(|&(_, g)| g);
        let (best_name, best_g) = algs
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .cloned()
            .unwrap();
        let vs = classical
            .map(|c| format!("{:+.1}%", (best_g / c - 1.0) * 100.0))
            .unwrap_or_else(|| "n/a".into());
        println!(
            "{:<14} {:>22} {:>3}T  {:<22} {:>8.2}  {:>12}",
            exp,
            format!("{p}x{q}x{r}"),
            threads,
            best_name,
            best_g,
            vs
        );
    }
}
