//! # nbwp-bench — harnesses regenerating the paper's tables and figures
//!
//! One binary per artifact (see `DESIGN.md`'s experiment index):
//! `table1`, `table2`, `fig1`, `fig3` … `fig9`. Each accepts
//! `--scale <f>` (dataset scale, default 0.02), `--seed <u64>`, and
//! `--json <path>` to dump rows for EXPERIMENTS.md regeneration.

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::path::PathBuf;

use nbwp_core::prelude::*;
use nbwp_datasets::Dataset;

pub mod alloc_meter {
    //! A counting global allocator for the whole bench suite.
    //!
    //! Every harness binary linking this crate allocates through a thin
    //! [`System`] wrapper that keeps two relaxed atomic counters, so
    //! profile-build allocation traffic can be reported (`bench_eval`) and
    //! gated (`bench_profile`) without changing how anything allocates.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// [`System`], plus relaxed counters for allocation calls and bytes.
    pub struct CountingAlloc;

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    /// Cumulative `(allocation calls, allocated bytes)` since process start.
    #[must_use]
    pub fn snapshot() -> (u64, u64) {
        (
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        )
    }

    /// Runs `f` and returns `(result, allocation calls, allocated bytes)`
    /// attributed to it. Attribution is process-wide: run measured sections
    /// single-threaded for exact counts.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
        let (a0, b0) = snapshot();
        let out = f();
        let (a1, b1) = snapshot();
        (out, a1 - a0, b1 - b0)
    }
}

pub mod harness {
    //! Shared plumbing of the gate harnesses (`bench_eval`,
    //! `bench_profile`, `bench_serve`, `bench_drift`):
    //! argument parsing, min-of-K timing, percentiles, estimate digests,
    //! report writing and exit handling, and the enforce-or-skip gate
    //! convention.
    //!
    //! The convention (ROADMAP, PR 2): **bitwise parity gates are always
    //! enforced** — any mismatch exits nonzero in every mode. **Wall-clock
    //! ratio gates are enforced in full mode and skipped in `--quick`**,
    //! where input sizes are small enough that timer noise could flake CI;
    //! a skipped gate is still measured and lands in the JSON with its
    //! skip reason, so regressions stay visible even when not enforced.

    use std::path::{Path, PathBuf};
    use std::time::Instant;

    use nbwp_core::prelude::{SamplingEstimate, SimTime};
    use serde::Serialize;

    /// Parsed command-line options shared by the gate harnesses:
    /// `--quick`, `--out <path>`, `--seed <u64>`, plus any harness-specific
    /// path-valued flags registered at parse time.
    pub struct GateOpts {
        /// Quick mode: smaller inputs, wall-clock gates skipped.
        pub quick: bool,
        /// JSON report output path.
        pub out: PathBuf,
        /// Input-generation seed.
        pub seed: u64,
        extra: Vec<(&'static str, PathBuf)>,
    }

    impl GateOpts {
        /// Parses `std::env::args()`. `extra_paths` registers additional
        /// path-valued flags as `(flag, default)` pairs (e.g.
        /// `("--audit-out", "BENCH_serve_audit.jsonl")`).
        ///
        /// # Panics
        /// Panics with a usage message on malformed arguments.
        #[must_use]
        pub fn parse(bin: &str, default_out: &str, extra_paths: &[(&'static str, &str)]) -> Self {
            let mut opts = GateOpts {
                quick: false,
                out: PathBuf::from(default_out),
                seed: 42,
                extra: extra_paths
                    .iter()
                    .map(|&(flag, default)| (flag, PathBuf::from(default)))
                    .collect(),
            };
            let mut args = std::env::args().skip(1);
            'args: while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--quick" => opts.quick = true,
                    "--out" => opts.out = PathBuf::from(args.next().expect("--out needs a path")),
                    "--seed" => {
                        let v = args.next().expect("--seed needs a value");
                        opts.seed = v.parse().expect("--seed must be an integer");
                    }
                    "--help" | "-h" => {
                        let extra: String = opts
                            .extra
                            .iter()
                            .map(|(flag, _)| format!(" [{flag} path]"))
                            .collect();
                        eprintln!("usage: {bin} [--quick] [--out path]{extra} [--seed u64]");
                        std::process::exit(0);
                    }
                    other => {
                        for (flag, slot) in &mut opts.extra {
                            if *flag == other {
                                *slot =
                                    PathBuf::from(args.next().expect("path flag needs a value"));
                                continue 'args;
                            }
                        }
                        panic!("unknown argument {other}; try --help");
                    }
                }
            }
            opts
        }

        /// The value of a registered extra path flag.
        ///
        /// # Panics
        /// Panics if `flag` was not registered in [`GateOpts::parse`].
        #[must_use]
        pub fn path(&self, flag: &str) -> &Path {
            self.extra
                .iter()
                .find(|(f, _)| *f == flag)
                .map(|(_, p)| p.as_path())
                .unwrap_or_else(|| panic!("flag {flag} was not registered"))
        }
    }

    /// Hardware threads available to this process (1 when undetectable) —
    /// recorded in every gate report so single-core containers are legible.
    #[must_use]
    pub fn available_parallelism() -> usize {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }

    /// Best-of-`reps` wall-clock of `f`, in milliseconds (min-of-K filters
    /// scheduler noise; K interleaves naturally when callers alternate the
    /// compared variants).
    pub fn best_ms(reps: usize, mut f: impl FnMut()) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let started = Instant::now();
            f();
            best = best.min(started.elapsed().as_secs_f64() * 1e3);
        }
        best
    }

    /// Nearest-rank percentile over a copy of `values` (`q` in `[0, 1]`).
    #[must_use]
    pub fn percentile(values: &[f64], q: f64) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    /// Bitwise digest of a full estimate (decision + accounting) for the
    /// exactness-contract comparisons.
    #[must_use]
    pub fn estimate_bits(e: &SamplingEstimate) -> (u64, u64, SimTime, usize, usize, usize) {
        (
            e.threshold.to_bits(),
            e.sample_threshold.to_bits(),
            e.overhead,
            e.evaluations,
            e.sample_size,
            e.grad_probes,
        )
    }

    /// Outcome of one wall-clock gate under the enforce-or-skip
    /// convention, serialized into the harness JSON.
    #[derive(Clone, Debug, Serialize)]
    pub struct GateResult {
        /// Gate label (stable across runs; scripts key on it).
        pub gate: String,
        /// Measured value (a ratio for speedup/overhead gates).
        pub measured: f64,
        /// Threshold the measurement is held to.
        pub required: f64,
        /// `"min"` (measured must be ≥ required) or `"max"` (≤).
        pub direction: &'static str,
        /// Whether a violation fails the run.
        pub enforced: bool,
        /// Whether the measurement met the threshold (recorded even when
        /// the gate is skipped).
        pub passed: bool,
        /// Why the gate was not enforced, when it was not.
        pub skipped: Option<String>,
    }

    /// Checks `measured >= required`, failing the run via `mismatches`
    /// only when `enforce` is set; a skipped gate records `skip_reason`.
    pub fn gate_min(
        gate: &str,
        measured: f64,
        required: f64,
        enforce: bool,
        skip_reason: &str,
        mismatches: &mut Vec<String>,
    ) -> GateResult {
        let passed = measured >= required;
        if enforce && !passed {
            mismatches.push(format!(
                "{gate}: measured x{measured:.2} is below the required x{required:.2}"
            ));
        }
        GateResult {
            gate: gate.to_string(),
            measured,
            required,
            direction: "min",
            enforced: enforce,
            passed,
            skipped: (!enforce).then(|| skip_reason.to_string()),
        }
    }

    /// Checks `measured <= required`, failing the run via `mismatches`
    /// only when `enforce` is set; a skipped gate records `skip_reason`.
    pub fn gate_max(
        gate: &str,
        measured: f64,
        required: f64,
        enforce: bool,
        skip_reason: &str,
        mismatches: &mut Vec<String>,
    ) -> GateResult {
        let passed = measured <= required;
        if enforce && !passed {
            mismatches.push(format!(
                "{gate}: measured x{measured:.3} exceeds the allowed x{required:.3}"
            ));
        }
        GateResult {
            gate: gate.to_string(),
            measured,
            required,
            direction: "max",
            enforced: enforce,
            passed,
            skipped: (!enforce).then(|| skip_reason.to_string()),
        }
    }

    /// Writes the report as pretty JSON (newline-terminated, the committed
    /// format) and announces the path.
    ///
    /// # Panics
    /// Panics if serialization or the write fails.
    pub fn write_report<T: Serialize>(path: &Path, report: &T) {
        let json = serde_json::to_string_pretty(report).expect("report serializes");
        std::fs::write(path, json + "\n").expect("failed to write report");
        eprintln!("wrote {}", path.display());
    }

    /// Prints every violation under `label` and exits nonzero if there are
    /// any; otherwise prints `success`.
    pub fn finish(mismatches: &[String], label: &str, success: &str) {
        if !mismatches.is_empty() {
            for m in mismatches {
                eprintln!("{label}: {m}");
            }
            std::process::exit(1);
        }
        eprintln!("{success}");
    }
}

/// Default dataset scale for harness binaries: large enough that device
/// ratios are representative, small enough that a full figure regenerates
/// in tens of seconds.
pub const DEFAULT_SCALE: f64 = 0.02;

/// Parsed command-line options shared by all harness binaries.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Dataset scale in `(0, 1]` (1.0 = the paper's published sizes).
    pub scale: f64,
    /// Sampling seed.
    pub seed: u64,
    /// Optional JSON output path.
    pub json: Option<PathBuf>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: DEFAULT_SCALE,
            seed: 42,
            json: None,
        }
    }
}

impl Opts {
    /// Parses `std::env::args()`.
    ///
    /// # Panics
    /// Panics with a usage message on malformed arguments.
    #[must_use]
    pub fn parse() -> Self {
        let mut opts = Opts::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = args.next().expect("--scale needs a value");
                    opts.scale = v.parse().expect("--scale must be a float");
                    assert!(
                        opts.scale > 0.0 && opts.scale <= 1.0,
                        "--scale must be in (0, 1]"
                    );
                }
                "--seed" => {
                    let v = args.next().expect("--seed needs a value");
                    opts.seed = v.parse().expect("--seed must be an integer");
                }
                "--json" => {
                    opts.json = Some(PathBuf::from(args.next().expect("--json needs a path")));
                }
                "--help" | "-h" => {
                    eprintln!("usage: <bin> [--scale f] [--seed u64] [--json path]");
                    std::process::exit(0);
                }
                other => panic!("unknown argument {other}; try --help"),
            }
        }
        opts
    }

    /// The experiment platform: the paper's K40c + Xeon, scaled for the
    /// chosen dataset scale (see `Platform::scaled_for`).
    #[must_use]
    pub fn platform(&self) -> Platform {
        Platform::k40c_xeon_e5_2650().scaled_for(self.scale)
    }

    /// Writes `rows` as JSON if `--json` was given.
    ///
    /// # Panics
    /// Panics if the file cannot be written.
    pub fn maybe_dump<T: serde::Serialize>(&self, rows: &T) {
        if let Some(path) = &self.json {
            let json = nbwp_core::report::to_json(rows).expect("serialization cannot fail");
            std::fs::write(path, json).expect("failed to write JSON output");
            eprintln!("wrote {}", path.display());
        }
    }
}

/// One workload per dataset, `new` building it on the scaled platform.
fn suite<W>(
    opts: &Opts,
    datasets: impl IntoIterator<Item = &'static Dataset>,
    new: impl Fn(&Dataset, Platform) -> W,
) -> Vec<(&'static str, W)> {
    let platform = opts.platform();
    datasets
        .into_iter()
        .map(|d| (d.name, new(d, platform)))
        .collect()
}

/// Builds the CC workload for every Table II dataset.
#[must_use]
pub fn cc_suite(opts: &Opts) -> Vec<(&'static str, CcWorkload)> {
    suite(opts, Dataset::all(), |d, p| {
        CcWorkload::new(d.graph(opts.scale, opts.seed), p)
    })
}

/// Builds the spmm workload for every Table II dataset (`A × A`).
#[must_use]
pub fn spmm_suite(opts: &Opts) -> Vec<(&'static str, SpmmWorkload)> {
    suite(opts, Dataset::all(), |d, p| {
        SpmmWorkload::new(d.matrix(opts.scale, opts.seed), p)
    })
}

/// Builds the HH workload for the scale-free subset (paper §V).
#[must_use]
pub fn hh_suite(opts: &Opts) -> Vec<(&'static str, HhWorkload)> {
    suite(opts, Dataset::scale_free_suite(), |d, p| {
        HhWorkload::new(d.matrix(opts.scale, opts.seed), p)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> Opts {
        Opts {
            scale: 0.002,
            seed: 7,
            json: None,
        }
    }

    #[test]
    fn suites_cover_the_registry() {
        let opts = tiny_opts();
        assert_eq!(cc_suite(&opts).len(), 15);
        assert_eq!(spmm_suite(&opts).len(), 15);
        assert_eq!(hh_suite(&opts).len(), 9);
    }

    #[test]
    fn corpus_rows_fill_naive_average() {
        let opts = tiny_opts();
        let suite: Vec<_> = cc_suite(&opts).into_iter().take(2).collect();
        let rows = run_corpus(&suite, &ExperimentConfig::cc(opts.seed));
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.naive_average_t.is_some()));
        assert!(rows.iter().all(|r| r.time_naive_average_ms.is_some()));
    }

    #[test]
    fn platform_is_scaled() {
        let opts = tiny_opts();
        let p = opts.platform();
        let full = Platform::k40c_xeon_e5_2650();
        assert!(p.cpu.llc_bytes < full.cpu.llc_bytes);
        assert!(p.gpu.launch_overhead_us < full.gpu.launch_overhead_us);
    }
}
