//! Workspace maintenance gate: `cargo run -p xtask -- <command>`.
//!
//! Commands:
//!
//! * `lint` — static repository checks, wired into CI as a blocking
//!   gate:
//!   * every `unsafe` block or impl carries a `// SAFETY:` comment on
//!     the same line or within the five preceding lines;
//!   * `unsafe` code only appears in the audited allowlist (the
//!     work-stealing deque/job/registry, the strided matrix views, the
//!     AVX-512 gemm tile and the two allocation tests' counting
//!     allocators) — new unsafe anywhere else fails the build until it
//!     is reviewed and allowlisted here;
//!   * every shipped `.alg` coefficient file is internally consistent:
//!     header dims match the filename, exact files pass exact ℚ
//!     certification, APA files declare a residual that matches the
//!     recomputed Brent residual;
//!   * the vendored `rayon` facade re-exports exactly the pinned API
//!     surface (so its rayon-1.x-compatible surface cannot silently
//!     drift).
//! * `certify` — run exact ℚ certification over every exact scheme the
//!   catalog can produce, the APA acceptance checks, and the ℚ\[ε\]
//!   border-rank certification of the Schönhage τ construction.
//! * `trace-check <file>` — validate a Chrome trace JSON produced by
//!   the tracing stack (`perf --trace-out` or
//!   `fmm_trace::TraceSink::export_chrome_json`): parseable, non-empty,
//!   and covering the deterministic span kinds end to end.
//!
//! Exit status is non-zero when any check fails; every failure is
//! reported, not just the first.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fmm_verify::Certify;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str);
    let result = match cmd {
        Some("lint") => lint(),
        Some("certify") => certify(&args[1..]),
        Some("trace-check") => match args.get(1) {
            Some(path) => trace_check(path),
            None => {
                eprintln!("usage: cargo run -p xtask -- trace-check <trace.json>");
                return ExitCode::from(2);
            }
        },
        _ => {
            eprintln!("usage: cargo run -p xtask -- <lint|certify [file.alg ...]|trace-check>");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(failures) => {
            eprintln!("xtask {}: {} failure(s)", cmd.unwrap(), failures.len());
            for f in &failures {
                eprintln!("  - {f}");
            }
            ExitCode::FAILURE
        }
    }
}

/// Workspace root (the directory holding the top-level `Cargo.toml`),
/// derived from this crate's own manifest dir so the tool runs from
/// anywhere.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}

// ---------------------------------------------------------------------
// lint
// ---------------------------------------------------------------------

/// Source files allowed to contain `unsafe` code. Everything here has
/// been audited and carries `// SAFETY:` comments (which the lint also
/// enforces); any other file containing `unsafe` fails the gate.
const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/runtime/src/deque.rs",
    "crates/runtime/src/job.rs",
    "crates/runtime/src/registry.rs",
    "crates/matrix/src/view.rs",
    "crates/gemm/src/avx512.rs",
    "crates/gemm/tests/no_alloc.rs",
    "crates/core/tests/no_alloc.rs",
];

/// The only `crates/gemm` files allowed in [`UNSAFE_ALLOWLIST`]: the
/// AVX-512 register tile (`std::arch` intrinsics behind a CPU-feature
/// token) and the allocation test, whose counting `#[global_allocator]`
/// must implement the `GlobalAlloc` trait.
const GEMM_KW_FILES: &[&str] = &["crates/gemm/src/avx512.rs", "crates/gemm/tests/no_alloc.rs"];

/// Items the vendored `rayon` facade must re-export from
/// `fmm_runtime` — the exact rayon-1.x-compatible surface the
/// workspace is written against. Changing this surface is a deliberate
/// act: update the facade, this pin, and the real-rayon swap note in
/// `vendor/rayon/src/lib.rs` together.
const RAYON_FACADE_EXPORTS: &[&str] = &[
    "current_num_threads",
    "join",
    "scope",
    "Scope",
    "ThreadPool",
    "ThreadPoolBuildError",
    "ThreadPoolBuilder",
];

fn lint() -> Result<String, Vec<String>> {
    let root = workspace_root();
    let mut failures = Vec::new();
    let mut summary = String::new();

    let sources = collect_rust_sources(&root);
    let (checked, annotated) = audit_kw_sites(&root, &sources, &mut failures);
    let kw = ["un", "safe"].concat();
    let _ = writeln!(
        summary,
        "{kw} audit: {checked} source files scanned, {annotated} {kw} sites annotated"
    );

    let n_alg = lint_alg_data(&root, &mut failures);
    let _ = writeln!(summary, "alg data: {n_alg} coefficient files validated");

    lint_rayon_facade(&root, &mut failures);
    let _ = writeln!(
        summary,
        "vendor facade: rayon re-exports match the pinned surface"
    );

    let n_serve = lint_serve_stays_safe(&sources, &mut failures);
    let _ = writeln!(
        summary,
        "serving tier: {n_serve} crates/serve sources scanned, none allowlisted"
    );

    let n_trace = lint_trace_stays_safe(&sources, &mut failures);
    let _ = writeln!(
        summary,
        "tracing: {n_trace} crates/trace sources scanned, none allowlisted"
    );

    let n_gf2 = lint_gf2_stays_safe(&sources, &mut failures);
    let _ = writeln!(
        summary,
        "gf2 backend: {n_gf2} crates/gf2 sources scanned, none allowlisted"
    );

    let n_gemm = lint_gemm_kw_stays_in_its_tile(&sources, &mut failures);
    let _ = writeln!(
        summary,
        "gemm: {n_gemm} crates/gemm sources scanned, only the AVX-512 tile and the allocation test allowlisted"
    );

    let n_hot = lint_no_raw_clocks_in_hot_paths(&root, &sources, &mut failures);
    let _ = writeln!(
        summary,
        "hot paths: {n_hot} executor/gemm/m4rm sources free of raw Instant reads"
    );

    if failures.is_empty() {
        let _ = write!(summary, "lint: OK");
        Ok(summary)
    } else {
        Err(failures)
    }
}

/// All `.rs` files under the workspace (skipping build output and VCS
/// internals), as root-relative paths.
fn collect_rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path.strip_prefix(root).expect("under root").to_path_buf());
            }
        }
    }
    out.sort();
    out
}

/// True for lines that are entirely a comment (`//`, `///`, `//!`).
fn is_comment_line(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

/// Enforce the unsafe allowlist and the `// SAFETY:` comment rule.
/// Returns (files scanned, annotated unsafe sites found).
fn audit_kw_sites(root: &Path, sources: &[PathBuf], failures: &mut Vec<String>) -> (usize, usize) {
    // Build the needles at runtime so this file never trips its own
    // token scan.
    let kw = ["un", "safe"].concat();
    let kw_fn = format!("{kw} fn");
    // `#![forbid(unsafe_code)]` and friends assert the *absence* of
    // such code; the lint-name form is never a code site.
    let kw_lint_name = format!("{kw}_code");
    let marker = ["SAFE", "TY:"].concat();

    let mut annotated = 0usize;
    for rel in sources {
        let text = match std::fs::read_to_string(root.join(rel)) {
            Ok(t) => t,
            Err(e) => {
                failures.push(format!("{}: unreadable: {e}", rel.display()));
                continue;
            }
        };
        let allowlisted = UNSAFE_ALLOWLIST.iter().any(|a| Path::new(a) == rel);
        let lines: Vec<&str> = text.lines().collect();
        let mut file_has_kw = false;
        for (i, line) in lines.iter().enumerate() {
            if is_comment_line(line) || !line.contains(&kw) {
                continue;
            }
            if line.contains(&kw_lint_name) && !line.replace(&kw_lint_name, "").contains(&kw) {
                continue;
            }
            file_has_kw = true;
            // Declarations and fn-pointer types carry their contract in
            // `# Safety` docs; the comment rule targets blocks & impls.
            if line.contains(&kw_fn) {
                continue;
            }
            let covered = line.contains(&marker)
                || lines[i.saturating_sub(5)..i]
                    .iter()
                    .any(|prev| is_comment_line(prev) && prev.contains(&marker));
            if covered {
                annotated += 1;
            } else {
                failures.push(format!(
                    "{}:{}: {kw} without a `// {marker}` comment on the same or \
                     one of the 5 preceding lines",
                    rel.display(),
                    i + 1,
                ));
            }
        }
        if file_has_kw && !allowlisted {
            failures.push(format!(
                "{}: contains {kw} code but is not in the xtask allowlist \
                 (audit it, annotate it, and add it to UNSAFE_ALLOWLIST)",
                rel.display(),
            ));
        }
    }
    (sources.len(), annotated)
}

/// The serving tier (`crates/serve`) handles untrusted bytes off a
/// socket, so it is pinned to safe Rust end to end: its files must
/// never enter the allowlist, and they must actually be present in the
/// source scan (a crate rename that dropped them from the walk would
/// silently void the pin). Returns the number of serve sources seen.
fn lint_serve_stays_safe(sources: &[PathBuf], failures: &mut Vec<String>) -> usize {
    if let Some(entry) = UNSAFE_ALLOWLIST
        .iter()
        .find(|a| Path::new(a).starts_with("crates/serve"))
    {
        failures.push(format!(
            "{entry}: crates/serve must stay free of allowlisted {} code \
             (it parses untrusted wire bytes); remove the entry",
            ["un", "safe"].concat(),
        ));
    }
    let n_serve = sources
        .iter()
        .filter(|p| p.starts_with("crates/serve"))
        .count();
    if n_serve == 0 {
        failures.push(
            "crates/serve: no sources found in the scan — the safe-Rust pin \
             on the serving tier is not being enforced"
                .to_string(),
        );
    }
    n_serve
}

/// The tracing crate (`crates/trace`) is compiled into every hot path
/// in the workspace and is pinned to safe Rust (`#![forbid]` in the
/// crate root, re-asserted here): its files must never enter the
/// allowlist, and they must be present in the scan. Returns the number
/// of trace sources seen.
fn lint_trace_stays_safe(sources: &[PathBuf], failures: &mut Vec<String>) -> usize {
    if let Some(entry) = UNSAFE_ALLOWLIST
        .iter()
        .find(|a| Path::new(a).starts_with("crates/trace"))
    {
        failures.push(format!(
            "{entry}: crates/trace must stay free of allowlisted {} code \
             (it is linked into every hot path); remove the entry",
            ["un", "safe"].concat(),
        ));
    }
    let n_trace = sources
        .iter()
        .filter(|p| p.starts_with("crates/trace"))
        .count();
    if n_trace == 0 {
        failures.push(
            "crates/trace: no sources found in the scan — the safe-Rust pin \
             on the tracing crate is not being enforced"
                .to_string(),
        );
    }
    n_trace
}

/// The GF(2) backend (`crates/gf2`) is pinned to safe Rust
/// (`#![forbid]` in the crate root, re-asserted here): packed word ops
/// are all expressible with slice indexing, so its files must never
/// enter the allowlist, and they must be present in the scan. Returns
/// the number of gf2 sources seen.
fn lint_gf2_stays_safe(sources: &[PathBuf], failures: &mut Vec<String>) -> usize {
    if let Some(entry) = UNSAFE_ALLOWLIST
        .iter()
        .find(|a| Path::new(a).starts_with("crates/gf2"))
    {
        failures.push(format!(
            "{entry}: crates/gf2 must stay free of allowlisted {} code \
             (packed word ops are expressible in safe slice indexing); remove the entry",
            ["un", "safe"].concat(),
        ));
    }
    let n_gf2 = sources
        .iter()
        .filter(|p| p.starts_with("crates/gf2"))
        .count();
    if n_gf2 == 0 {
        failures.push(
            "crates/gf2: no sources found in the scan — the safe-Rust pin \
             on the GF(2) backend is not being enforced"
                .to_string(),
        );
    }
    n_gf2
}

/// The gemm crate (`crates/gemm`) keeps its `unsafe` code to the files
/// of [`GEMM_KW_FILES`]: every other gemm source must stay out of the
/// allowlist, so SIMD work for a new tile or element type cannot spread
/// it through the packing and blocking code, and the gemm sources must
/// be present in the scan. Returns the number of gemm sources seen.
fn lint_gemm_kw_stays_in_its_tile(sources: &[PathBuf], failures: &mut Vec<String>) -> usize {
    for entry in UNSAFE_ALLOWLIST
        .iter()
        .filter(|a| Path::new(a).starts_with("crates/gemm") && !GEMM_KW_FILES.contains(a))
    {
        failures.push(format!(
            "{entry}: crates/gemm keeps {} code to {}; remove the entry",
            ["un", "safe"].concat(),
            GEMM_KW_FILES.join(" and "),
        ));
    }
    let n_gemm = sources
        .iter()
        .filter(|p| p.starts_with("crates/gemm"))
        .count();
    if n_gemm == 0 {
        failures.push(
            "crates/gemm: no sources found in the scan — the pin on the gemm \
             crate's allowlisted files is not being enforced"
                .to_string(),
        );
    }
    n_gemm
}

/// The executor and gemm hot paths must take timestamps only through
/// the trace clock (`fmm_trace::now_ns`/`now_if`, whose gate check is
/// hoisted out of leaf loops) — a raw `Instant::now()` there is an
/// unconditional clock read on every leaf, exactly the overhead the
/// tracing design avoids. Returns the number of files scanned.
fn lint_no_raw_clocks_in_hot_paths(
    root: &Path,
    sources: &[PathBuf],
    failures: &mut Vec<String>,
) -> usize {
    // Built at runtime so this file never trips its own scan.
    let needle = ["Instant", "::now()"].concat();
    let hot: Vec<&PathBuf> = sources
        .iter()
        .filter(|p| {
            *p == Path::new("crates/core/src/executor.rs")
                || p.starts_with("crates/gemm/src")
                || *p == Path::new("crates/gf2/src/m4rm.rs")
        })
        .collect();
    if hot.is_empty() {
        failures
            .push("hot-path clock lint: no executor/gemm sources found in the scan".to_string());
        return 0;
    }
    for rel in &hot {
        let Ok(text) = std::fs::read_to_string(root.join(rel)) else {
            failures.push(format!("{}: unreadable", rel.display()));
            continue;
        };
        for (i, line) in text.lines().enumerate() {
            if !is_comment_line(line) && line.contains(&needle) {
                failures.push(format!(
                    "{}:{}: raw `{needle}` in a hot path — use the fmm-trace \
                     clock (`now_if` with a hoisted gate) instead",
                    rel.display(),
                    i + 1,
                ));
            }
        }
    }
    hot.len()
}

/// Validate every shipped `.alg` coefficient file: parseable, filename
/// consistent with the header, exact files exactly certified, APA files
/// carrying an accurate machine-checked residual in their header.
fn lint_alg_data(root: &Path, failures: &mut Vec<String>) -> usize {
    let data_dir = root.join("crates/algo/data");
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(&data_dir) {
        Ok(rd) => rd
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "alg"))
            .collect(),
        Err(e) => {
            failures.push(format!("{}: unreadable: {e}", data_dir.display()));
            return 0;
        }
    };
    paths.sort();
    if paths.is_empty() {
        failures.push(format!("{}: no .alg files found", data_dir.display()));
    }
    let mut integer_coeff: Vec<String> = Vec::new();
    for path in &paths {
        let name = path
            .file_stem()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        let label = format!("crates/algo/data/{name}.alg");
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                failures.push(format!("{label}: unreadable: {e}"));
                continue;
            }
        };
        let dec = match fmm_algo::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                failures.push(format!("{label}: parse error: {e}"));
                continue;
            }
        };
        // Filename tokens: a 3-digit token pins ⟨m,k,n⟩; for APA files
        // the trailing token pins the rank.
        let tokens: Vec<&str> = name.split('_').collect();
        if let Some(dims) = tokens
            .iter()
            .find(|t| t.len() == 3 && t.chars().all(|c| c.is_ascii_digit()))
        {
            let d: Vec<usize> = dims.chars().map(|c| c as usize - '0' as usize).collect();
            if dec.base() != (d[0], d[1], d[2]) {
                failures.push(format!(
                    "{label}: filename says <{},{},{}> but header says {:?}",
                    d[0],
                    d[1],
                    d[2],
                    dec.base()
                ));
            }
        } else {
            failures.push(format!(
                "{label}: filename lacks a 3-digit <mkn> dims token"
            ));
        }
        if name.starts_with("apa_") {
            if let Some(rank_tok) = tokens.last().and_then(|t| t.parse::<usize>().ok()) {
                if dec.rank() != rank_tok {
                    failures.push(format!(
                        "{label}: filename says rank {rank_tok} but file has rank {}",
                        dec.rank()
                    ));
                }
            }
            let Some(declared) = fmm_algo::declared_residual(&text) else {
                failures.push(format!(
                    "{label}: APA file must declare `residual <value>` in its header comment"
                ));
                continue;
            };
            if let Err(e) = fmm_verify::check_apa_fit(&dec, declared) {
                failures.push(format!("{label}: {e}"));
            }
        } else if let Err(e) = dec.certify() {
            failures.push(format!("{label}: exact certification failed: {e}"));
        }
        // GF(2)-executability is a property of the file contents: all
        // three factors integer-coefficient ⟺ the mod-2 lift (odd → 1,
        // even → 0, fractional → plan error) accepts the scheme. The
        // lint derives the set from the shipped coefficients and
        // cross-checks it against the actual `fmm-gf2` planner both
        // ways, so a new `.alg` drop (e.g. from a flip-graph search)
        // is classified automatically and any drift between the two
        // notions of "integer scheme" is caught here.
        let all_integer = [&dec.u, &dec.v, &dec.w].iter().all(|m| {
            m.as_slice()
                .iter()
                .all(|c| c.fract() == 0.0 && c.is_finite())
        });
        let lift = fmm_gf2::Gf2Planner::new()
            .shape(64, 64, 64)
            .algorithm(&dec)
            .steps(1)
            .plan();
        match (all_integer, lift) {
            (true, Err(e)) => failures.push(format!(
                "{label}: all-integer coefficients but the GF(2) mod-2 lift \
                 rejects it: {e}"
            )),
            (false, Ok(_)) => failures.push(format!(
                "{label}: fractional coefficients yet the GF(2) mod-2 lift \
                 accepted it — the lift must reject non-integer schemes"
            )),
            _ => {}
        }
        if all_integer {
            integer_coeff.push(name.clone());
        }
    }
    if !integer_coeff.iter().any(|n| n == "strassen_222") {
        failures.push(
            "crates/algo/data/strassen_222.alg: the catalog must always ship at \
             least Strassen as a GF(2)-executable integer scheme"
                .to_string(),
        );
    }
    paths.len()
}

/// Parse the facade's `pub use fmm_runtime::{...}` list and compare it
/// against the pinned rayon-compatible surface.
fn lint_rayon_facade(root: &Path, failures: &mut Vec<String>) {
    let path = root.join("vendor/rayon/src/lib.rs");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            failures.push(format!("vendor/rayon/src/lib.rs: unreadable: {e}"));
            return;
        }
    };
    let Some(start) = text.find("pub use fmm_runtime::{") else {
        failures.push(
            "vendor/rayon/src/lib.rs: missing `pub use fmm_runtime::{...}` re-export".to_string(),
        );
        return;
    };
    let after = &text[start + "pub use fmm_runtime::{".len()..];
    let Some(end) = after.find('}') else {
        failures.push("vendor/rayon/src/lib.rs: unterminated re-export list".to_string());
        return;
    };
    let mut exported: Vec<&str> = after[..end]
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    exported.sort_unstable();
    let mut expected: Vec<&str> = RAYON_FACADE_EXPORTS.to_vec();
    expected.sort_unstable();
    if exported != expected {
        failures.push(format!(
            "vendor/rayon facade drift: re-exports {exported:?} but the pinned \
             rayon-compatible surface is {expected:?}"
        ));
    }
}

// ---------------------------------------------------------------------
// certify
// ---------------------------------------------------------------------

/// Exact ℚ certification over everything the catalog ships, APA
/// acceptance checks, and a ℚ\[ε\] border-rank certification exercising
/// the degeneration machinery. With explicit `.alg` paths, certify
/// exactly those files instead (the seam CI's `search-smoke` job uses
/// to gate freshly discovered schemes before they reach the catalog).
fn certify(files: &[String]) -> Result<String, Vec<String>> {
    let mut failures = Vec::new();
    let mut summary = String::new();

    if !files.is_empty() {
        let mut equations = 0usize;
        for path in files {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    failures.push(format!("{path}: unreadable: {e}"));
                    continue;
                }
            };
            let dec = match fmm_algo::parse(&text) {
                Ok(d) => d,
                Err(e) => {
                    failures.push(format!("{path}: parse error: {e}"));
                    continue;
                }
            };
            match dec.certify() {
                Ok(cert) => {
                    equations += cert.equations;
                    let _ = writeln!(
                        summary,
                        "{path}: <{},{},{}> rank {} certified in Q ({cert})",
                        dec.m,
                        dec.k,
                        dec.n,
                        dec.rank()
                    );
                }
                Err(e) => failures.push(format!("{path}: exact certification failed: {e}")),
            }
        }
        return if failures.is_empty() {
            let _ = write!(
                summary,
                "certify: OK ({} file(s), {equations} Brent equations proved identically)",
                files.len()
            );
            Ok(summary)
        } else {
            Err(failures)
        };
    }

    // Exact schemes: the hand-coded/derived catalog, the §5.2 composed
    // schedule, and every exact embedded coefficient file.
    let mut exact: Vec<(String, fmm_tensor::Decomposition)> = fmm_algo::catalog()
        .into_iter()
        .map(|a| (a.name.clone(), a.dec))
        .collect();
    for (i, dec) in fmm_algo::schedule_54().into_iter().enumerate() {
        exact.push((format!("schedule_54[{i}]"), dec));
    }
    for (name, text) in fmm_algo::embedded_files() {
        if !name.starts_with("apa_") {
            match fmm_algo::parse(text) {
                Ok(dec) => exact.push(((*name).to_string(), dec)),
                Err(e) => failures.push(format!("{name}: parse error: {e}")),
            }
        }
    }
    let mut equations = 0usize;
    for (name, dec) in &exact {
        match dec.certify() {
            Ok(cert) => equations += cert.equations,
            Err(e) => failures.push(format!("{name}: exact certification failed: {e}")),
        }
    }
    let _ = writeln!(
        summary,
        "exact: {} schemes certified in Q ({} Brent equations proved identically)",
        exact.len(),
        equations
    );

    // APA entries: principled acceptance (rank deficit + unambiguous
    // rounding + header agreement).
    for label in ["bini", "schonhage"] {
        match fmm_algo::by_name(label) {
            Some(alg) => {
                let fmm_algo::Provenance::Apa(residual) = alg.provenance else {
                    failures.push(format!("{label}: expected APA provenance"));
                    continue;
                };
                let _ = writeln!(
                    summary,
                    "apa: {label} rank {} < classical {} (residual {residual:.3e})",
                    alg.dec.rank(),
                    alg.dec.classical_rank()
                );
            }
            None => failures.push(format!("{label}: failed APA acceptance checks")),
        }
    }

    // Border-rank certification: Schönhage's τ-theorem construction,
    // certified term-by-term in Q[eps].
    for (k, n) in [(2usize, 2usize), (3, 3)] {
        let scheme = fmm_verify::schonhage_tau_scheme(k, n);
        let target = fmm_verify::schonhage_tau_target(k, n);
        match fmm_verify::certify_border(&scheme, &target, Some(2)) {
            Ok(cert) => {
                let _ = writeln!(summary, "border: tau({k},{n}) {cert}");
            }
            Err(e) => failures.push(format!("tau({k},{n}): border certification failed: {e}")),
        }
    }

    if failures.is_empty() {
        let _ = write!(summary, "certify: OK");
        Ok(summary)
    } else {
        Err(failures)
    }
}

// ---------------------------------------------------------------------
// trace-check
// ---------------------------------------------------------------------

/// Validate a Chrome trace JSON document produced by the tracing
/// stack: it must parse, be a non-empty event array, and contain every
/// span kind a traced fleet run deterministically produces.
/// Shape-dependent (`peel_gemm`) and scheduler-race-dependent
/// (`steal`) kinds are reported but not required.
fn trace_check(path: &str) -> Result<String, Vec<String>> {
    use fmm_trace::SpanKind;

    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return Err(vec![format!("{path}: unreadable: {e}")]),
    };
    let value: serde::Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => return Err(vec![format!("{path}: not valid JSON: {e}")]),
    };
    // Our exporter writes the bare-array form; the object-with-
    // traceEvents form (what a Perfetto re-save produces) also passes.
    let events = match &value {
        serde::Value::Array(events) => events,
        serde::Value::Object(fields) => {
            match fields
                .iter()
                .find(|(k, _)| k == "traceEvents")
                .map(|(_, v)| v)
            {
                Some(serde::Value::Array(events)) => events,
                _ => return Err(vec![format!("{path}: missing `traceEvents` array")]),
            }
        }
        _ => return Err(vec![format!("{path}: expected a Chrome trace event array")]),
    };
    if events.is_empty() {
        return Err(vec![format!("{path}: trace contains no events")]);
    }

    let mut failures = Vec::new();
    let mut counts: Vec<(SpanKind, u64)> = SpanKind::ALL.iter().map(|&k| (k, 0u64)).collect();
    let mut processes = std::collections::BTreeSet::new();
    for ev in events {
        let name = match ev.get("name") {
            Some(serde::Value::Str(s)) => s.as_str(),
            _ => {
                failures.push(format!("{path}: event without a string `name`"));
                continue;
            }
        };
        if name == "process_name" {
            if let Some(serde::Value::Str(label)) = ev.get("args").and_then(|args| args.get("name"))
            {
                processes.insert(label.clone());
            }
        }
        if let Some(kind) = SpanKind::from_name(name) {
            counts
                .iter_mut()
                .find(|(k, _)| *k == kind)
                .expect("counts cover all kinds")
                .1 += 1;
        }
    }

    let optional = [SpanKind::PeelGemm, SpanKind::Steal];
    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "{path}: {} events from {} process(es): {}",
        events.len(),
        processes.len(),
        processes.iter().cloned().collect::<Vec<_>>().join(", ")
    );
    for (kind, n) in &counts {
        let required = !optional.contains(kind);
        let _ = writeln!(
            summary,
            "  {:<20} {n:>7}{}",
            kind.name(),
            if required { "" } else { "  (optional)" }
        );
        if required && *n == 0 {
            failures.push(format!(
                "{path}: no `{}` spans — a traced fleet run must produce them",
                kind.name()
            ));
        }
    }

    if failures.is_empty() {
        let _ = write!(summary, "trace-check: OK");
        Ok(summary)
    } else {
        Err(failures)
    }
}
