//! Seeded inputs: shape sets, per-caller operation order and the
//! open-loop arrival schedule. The same seed always gives the same
//! inputs; the program under test only ever sees what these produce.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An RNG for stream `stream` of `seed` (splitmix64-mixed, so nearby
/// seeds and streams give unrelated sequences).
pub fn rng(seed: u64, stream: u64) -> StdRng {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// `count` shapes with each dimension log-uniform in `[lo, hi]`.
pub fn log_uniform_shapes(
    seed: u64,
    count: usize,
    lo: usize,
    hi: usize,
) -> Vec<(usize, usize, usize)> {
    let mut r = rng(seed, 0);
    let (lo_ln, hi_ln) = ((lo as f64).ln(), (hi as f64).ln());
    let mut dim = || (r.gen_range(lo_ln..hi_ln).exp().round() as usize).clamp(lo, hi);
    (0..count).map(|_| (dim(), dim(), dim())).collect()
}

/// Endless sequence of shape indices: one seeded permutation of
/// `0..shapes` after another, so every full cycle runs the same mix.
pub struct Cycler {
    rng: StdRng,
    perm: Vec<usize>,
    pos: usize,
}

impl Cycler {
    /// The order stream of caller `caller` under `seed`.
    pub fn new(seed: u64, caller: usize, shapes: usize) -> Self {
        Cycler {
            rng: rng(seed, 1000 + caller as u64),
            perm: (0..shapes).collect(),
            pos: shapes,
        }
    }

    /// Next shape index, and whether it closes a cycle.
    pub fn next_shape(&mut self) -> (usize, bool) {
        if self.pos == self.perm.len() {
            for i in (1..self.perm.len()).rev() {
                let j = self.rng.gen_range(0..i + 1);
                self.perm.swap(i, j);
            }
            self.pos = 0;
        }
        let shape = self.perm[self.pos];
        self.pos += 1;
        (shape, self.pos == self.perm.len())
    }
}

/// One open-loop request: when it is due (seconds after the window
/// opens) and which shape it multiplies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Due time, seconds from the window start.
    pub due_s: f64,
    /// Index into the workload's shape list.
    pub shape: usize,
}

/// Poisson arrivals at `rate` per second over `seconds`, conditioned on
/// their expected count: `round(rate·seconds)` due times drawn uniformly
/// and sorted. Conditioning keeps the offered load identical across
/// seeds, so the seed moves only the burst pattern and the shape order.
pub fn open_loop(seed: u64, rate: f64, seconds: f64, shapes: usize) -> Vec<Arrival> {
    let mut r = rng(seed, 7);
    let count = ((rate * seconds).round() as usize).max(1);
    let mut due: Vec<f64> = (0..count)
        .map(|_| r.gen_range(0.0..seconds.max(1e-9)))
        .collect();
    due.sort_by(f64::total_cmp);
    due.into_iter()
        .map(|due_s| Arrival {
            due_s,
            shape: r.gen_range(0..shapes),
        })
        .collect()
}
