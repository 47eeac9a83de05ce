//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <oneshot|registry|drift> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one context line (`{"context": …}`) and, last, the result line
//! `{"correct", "attempted", "failed", "metrics"}`. Traced runs also write
//! their spans to `.bench_out/` in the working directory.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match nbwp_perfbench::Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = nbwp_perfbench::run(&opts);
    for f in report.failures.iter().take(20) {
        eprintln!("perfbench: FAILED {f}");
    }
    if let Some(spans) = &report.spans {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{{\"context\": {}}}", report.context);
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
