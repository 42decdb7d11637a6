//! Summary statistics shared by the run report and `--diff`.

/// First, second and third quartile by Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spreads `--diff` reports match the ones the acceptance check
/// computes. One value gives that value three times; none gives zeros.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    match len {
        0 => return [0.0; 3],
        1 => return [data[0]; 3],
        _ => {}
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Median (the interpolating one: mean of the two middle values for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Interquartile range as a share of the median; 0 for a zero median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Percentile `q` under the workspace's one percentile rule
/// ([`fmm_trace::percentile_sorted`]); 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    fmm_trace::percentile_sorted(&sorted, q)
}

/// Median of `reps` timed runs of `f`, in seconds.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}
