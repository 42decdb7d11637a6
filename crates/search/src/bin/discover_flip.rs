//! `discover-flip`: certified flip-graph scheme discovery.
//!
//! Runs the seeded parallel flip-graph exploration of
//! [`fmm_search::explore()`] against one or more base cases and emits
//! every goal-reaching scheme as a `.alg` coefficient file — but only
//! after [`fmm_verify::certify_exact`] has proved all Brent equations
//! identically in ℚ. An uncertified scheme is never written and fails
//! the run; acceptance is by proof, not by a float residual.
//!
//! With no `--base`, the driver runs the two Table-2 gap targets the
//! catalog historically lacked at the paper's ranks:
//! `⟨3,3,3⟩ → rank 23` and `⟨2,3,3⟩ → rank 15`. Outputs land in
//! `crates/algo/data/` by default (picked up by the catalog at the
//! next build) and are reproducible from the seed alone:
//!
//! ```text
//! cargo run --release -p fmm-search --bin discover-flip -- --seed 1
//! cargo run --release -p fmm-search --bin discover-flip -- \
//!     --seed 1 --base 2,2,2 --goal 7 --max-steps 50000 --out /tmp/smoke
//! ```

use fmm_search::{explore, FlipOptions, IntScheme};
use fmm_verify::certify_exact;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    seed: u64,
    targets: Vec<(usize, usize, usize, usize)>,
    walkers: usize,
    max_steps: u64,
    restart_after: u64,
    kick_after: u64,
    headroom: usize,
    coeff_limit: i32,
    start: StartFrom,
    out: PathBuf,
}

/// Where each walk (and restart) begins.
#[derive(Clone, Copy, PartialEq)]
enum StartFrom {
    /// The classical mkn-term scheme — the cold start.
    Classical,
    /// The best scheme the catalog already holds for the base — a warm
    /// start, e.g. hunting ⟨3,3,3⟩:23 from the rank-24 ⟨1,3,3⟩ ⊕ ⟨2,3,3⟩
    /// direct sum instead of descending all 27 ranks from scratch.
    Catalog,
}

fn usage() -> ! {
    eprintln!(
        "usage: discover-flip [--seed S] [--base m,k,n --goal R]... [--walkers W]\n\
         \x20                  [--max-steps N] [--restart-after N] [--kick-after N]\n\
         \x20                  [--headroom H] [--coeff-limit L] [--start classical|catalog]\n\
         \x20                  [--out DIR]\n\
         defaults: the Table-2 gap targets <3,3,3>:23 and <2,3,3>:15 into crates/algo/data"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let defaults = FlipOptions::default();
    let mut args = Args {
        seed: 1,
        targets: Vec::new(),
        walkers: defaults.walkers,
        max_steps: defaults.max_steps,
        restart_after: defaults.restart_after,
        kick_after: defaults.kick_after,
        headroom: defaults.headroom,
        coeff_limit: defaults.coeff_limit,
        start: StartFrom::Classical,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("../algo/data"),
    };
    let mut pending_base: Option<(usize, usize, usize)> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--base" => {
                let v = value();
                let dims: Vec<usize> = v
                    .split(',')
                    .map(|t| t.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                let [m, k, n] = dims.as_slice() else { usage() };
                pending_base = Some((*m, *k, *n));
            }
            "--goal" => {
                let goal: usize = value().parse().unwrap_or_else(|_| usage());
                let Some((m, k, n)) = pending_base.take() else {
                    eprintln!("--goal must follow --base");
                    usage();
                };
                args.targets.push((m, k, n, goal));
            }
            "--walkers" => args.walkers = value().parse().unwrap_or_else(|_| usage()),
            "--max-steps" => args.max_steps = value().parse().unwrap_or_else(|_| usage()),
            "--restart-after" => args.restart_after = value().parse().unwrap_or_else(|_| usage()),
            "--kick-after" => args.kick_after = value().parse().unwrap_or_else(|_| usage()),
            "--headroom" => args.headroom = value().parse().unwrap_or_else(|_| usage()),
            "--coeff-limit" => args.coeff_limit = value().parse().unwrap_or_else(|_| usage()),
            "--start" => {
                args.start = match value().as_str() {
                    "classical" => StartFrom::Classical,
                    "catalog" => StartFrom::Catalog,
                    _ => usage(),
                }
            }
            "--out" => args.out = PathBuf::from(value()),
            _ => usage(),
        }
    }
    if pending_base.is_some() {
        eprintln!("--base without a following --goal");
        usage();
    }
    if args.targets.is_empty() {
        args.targets = vec![(3, 3, 3, 23), (2, 3, 3, 15)];
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut failures = 0usize;
    for &(m, k, n, goal) in &args.targets {
        let start = match args.start {
            StartFrom::Classical => None,
            StartFrom::Catalog => {
                match IntScheme::from_decomposition(&fmm_algo::by_base(m, k, n).dec) {
                    Ok(s) => Some(s),
                    Err(e) => {
                        eprintln!("<{m},{k},{n}>: catalog scheme is not integer ({e}); skipping");
                        failures += 1;
                        continue;
                    }
                }
            }
        };
        let opts = FlipOptions {
            seed: args.seed,
            goal,
            walkers: args.walkers,
            max_steps: args.max_steps,
            restart_after: args.restart_after,
            kick_after: args.kick_after,
            headroom: args.headroom,
            coeff_limit: args.coeff_limit,
            start,
            ..FlipOptions::default()
        };
        println!(
            "<{m},{k},{n}> goal rank {goal}: seed {}, {} walkers x {} steps (limit {}, {} start)",
            opts.seed,
            opts.walkers,
            opts.max_steps,
            opts.coeff_limit,
            match opts.start {
                Some(ref s) => format!("catalog rank-{}", s.rank()),
                None => "classical".to_string(),
            }
        );
        let report = explore(m, k, n, &opts);
        println!(
            "  best rank {} (walker {}, {} steps, {} restarts, {} revisits)",
            report.best.rank(),
            report.walker,
            report.steps,
            report.restarts,
            report.revisits
        );
        if !report.reached_goal {
            eprintln!("  MISSED goal {goal}; nothing emitted");
            failures += 1;
            continue;
        }
        // Certify-before-accept: the walker states are valid over ℤ by
        // construction, but emission is gated on the independent exact
        // ℚ proof — a buggy move implementation cannot ship a scheme.
        let dec = report.best.to_decomposition();
        let cert = match certify_exact(&dec) {
            Ok(cert) => cert,
            Err(e) => {
                eprintln!("  UNCERTIFIED scheme (refusing to emit): {e}");
                failures += 1;
                continue;
            }
        };
        println!("  certified: {cert}");
        let comment = format!(
            "flip-graph discovery (fmm-search discover-flip)\n\
             seed {} walker {} steps {} restarts {} coeff-limit {} start {}\n\
             certified exact in Q: {} Brent equations, max denominator {}",
            opts.seed,
            report.walker,
            report.steps,
            report.restarts,
            opts.coeff_limit,
            if args.start == StartFrom::Catalog {
                "catalog"
            } else {
                "classical"
            },
            cert.equations,
            cert.max_denominator,
        );
        let text = fmm_algo::serialize(&dec, Some(&comment));
        let file = args
            .out
            .join(format!("searched_{m}{k}{n}_{}.alg", report.best.rank()));
        if let Err(e) = std::fs::create_dir_all(&args.out) {
            eprintln!("  cannot create {}: {e}", args.out.display());
            failures += 1;
            continue;
        }
        match std::fs::write(&file, text) {
            Ok(()) => println!("  wrote {}", file.display()),
            Err(e) => {
                eprintln!("  cannot write {}: {e}", file.display());
                failures += 1;
            }
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
