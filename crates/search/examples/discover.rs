//! Development tool: random-restart ALS search for the Table-2 base
//! cases, writing any verified decomposition to `crates/algo/data/` in
//! the workspace's `.alg` text format:
//!
//! ```text
//! m k n rank
//! <mk rows of U, rank columns each, whitespace-separated>
//! <kn rows of V>
//! <mn rows of W>
//! ```
//!
//! Usage: `discover <m> <k> <n> <rank> <restarts> [seed0]`

use fmm_algo::serialize;
use fmm_search::{polish_to_exact, search, AlsOptions};
use std::time::Instant;

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let mut border = false;
    let mut snap = false;
    args.retain(|a| {
        if a == "--border" {
            border = true;
            false
        } else if a == "--snap" {
            snap = true;
            false
        } else {
            true
        }
    });
    if args.len() < 6 {
        eprintln!("usage: discover [--border] [--snap] <m> <k> <n> <rank> <restarts> [seed0]");
        std::process::exit(2);
    }
    let m: usize = args[1].parse().unwrap();
    let k: usize = args[2].parse().unwrap();
    let n: usize = args[3].parse().unwrap();
    let rank: usize = args[4].parse().unwrap();
    let restarts: usize = args[5].parse().unwrap();
    let seed0: u64 = args.get(6).map_or(1, |s| s.parse().unwrap());

    let mut opts = AlsOptions::default();
    if snap {
        opts.snap_every = 150;
        opts.max_sweeps = 2500;
    }
    if border {
        // Border-rank (APA) fit: accept a small-but-nonzero residual and
        // write the best floating-point instantiation found.
        opts.target_residual = 2e-3;
        opts.max_sweeps = 6000;
        let mut best: Option<fmm_tensor::Decomposition> = None;
        let mut best_res = f64::INFINITY;
        for attempt in 0..restarts {
            let (cand, report) =
                fmm_search::als_from_random(m, k, n, rank, seed0 + attempt as u64, &opts);
            if report.residual < best_res {
                best_res = report.residual;
                best = Some(cand);
                eprintln!("  attempt {attempt}: residual {best_res:.3e}");
            }
            if best_res < opts.target_residual {
                break;
            }
        }
        if let Some(dec) = best {
            let path = format!("crates/algo/data/apa_{m}{k}{n}_{rank}.alg");
            let comment = format!("APA border-rank fit, residual {best_res:.3e}");
            std::fs::write(&path, serialize(&dec, Some(&comment))).unwrap();
            println!("APA ⟨{m},{k},{n}⟩ rank {rank}: residual {best_res:.3e} → wrote {path}");
        }
        return;
    }
    let t0 = Instant::now();
    let res = search(m, k, n, rank, restarts, seed0, &opts);
    match res {
        Some(r) if r.residual < 1e-9 => {
            let polished = polish_to_exact(&r.decomposition, 12).unwrap_or(r.decomposition);
            let discrete = polished.is_discrete(1e-9);
            println!(
                "FOUND ⟨{m},{k},{n}⟩ rank {rank}: residual {:.3e} discrete {} after {} restarts [{:.1?}]",
                polished.residual(),
                discrete,
                r.restarts_used,
                t0.elapsed()
            );
            let path = format!("crates/algo/data/searched_{m}{k}{n}_{rank}.alg");
            std::fs::write(&path, serialize(&polished, None)).unwrap();
            println!("wrote {path}");
        }
        Some(r) => {
            println!(
                "best float residual {:.3e} after {} restarts (not accepted) [{:.1?}]",
                r.residual,
                r.restarts_used,
                t0.elapsed()
            );
        }
        None => println!("NOT FOUND in {restarts} restarts [{:.1?}]", t0.elapsed()),
    }
}
