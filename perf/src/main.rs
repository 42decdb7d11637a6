fn main() {
    std::process::exit(fmm_perf::cli::main());
}
