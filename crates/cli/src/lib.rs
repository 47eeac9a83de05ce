//! # nbwp-cli — command-line interface
//!
//! `nbwp` brings the sampling-based partitioner to the shell: generate the
//! synthetic Table II datasets as Matrix Market files, and estimate
//! CPU/GPU work-split thresholds for any Matrix Market input.
//!
//! ```text
//! nbwp datasets
//! nbwp gen --dataset cant --scale 0.02 --out cant.mtx
//! nbwp estimate cc   --input cant.mtx
//! nbwp estimate spmm --input cant.mtx --seed 7
//! nbwp estimate hh   --input web.mtx
//! # Partition across a k-way device topology (per-device work fractions):
//! nbwp estimate spmm --input cant.mtx --devices dual-cpu-dual-gpu
//! # Serve many requests through the fingerprint-deduped batch path with
//! # a shared threshold cache (one Matrix Market path per line):
//! nbwp estimate spmm --batch requests.txt --cache-size 64
//! # Capture a Chrome trace of the whole pipeline and check it:
//! nbwp estimate cc --input cant.mtx --trace-out cc-trace.json --metrics
//! nbwp trace cc-trace.json
//! ```
//!
//! `--trace-out` writes Chrome trace-event JSON (open it in Perfetto or
//! `chrome://tracing`); a path ending in `.jsonl` selects the JSONL stream
//! format instead. `--metrics` prints the metrics/summary view to stdout.
//! `nbwp trace <file>` validates a captured Chrome trace structurally
//! (used by CI).
//!
//! The binary is a thin shell over [`run`], which is unit-tested directly.

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use nbwp_core::prelude::*;
use nbwp_datasets::Dataset;
use nbwp_graph::delta::GraphDelta;
use nbwp_graph::Graph;
use nbwp_sim::PcieModel;
use nbwp_sparse::delta::{CsrDelta, RowOp};
use nbwp_sparse::{io, Csr};

/// A CLI failure with a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the Table II registry.
    Datasets,
    /// Generate a dataset to a Matrix Market file.
    Gen {
        /// Registry name.
        dataset: String,
        /// Scale in (0, 1].
        scale: f64,
        /// Seed.
        seed: u64,
        /// Output path.
        out: String,
    },
    /// Estimate a threshold for a Matrix Market input.
    Estimate {
        /// Case study: "cc", "spmm", or "hh".
        workload: String,
        /// Input path (exactly one of `input` / `batch`).
        input: Option<String>,
        /// Batch request file: one Matrix Market path per line (blank lines
        /// and `#` comments skipped). Served through
        /// `ProfiledEstimator::run_batch` behind a shared threshold cache.
        batch: Option<String>,
        /// Capacity of the threshold cache used in batch mode (default
        /// [`ThresholdCache::default`]'s).
        cache_size: Option<usize>,
        /// Sampling seed.
        seed: u64,
        /// Compare against the exhaustive best (slower).
        exhaustive: bool,
        /// Identify strategy by name (`exhaustive`, `coarse_to_fine`,
        /// `race_then_fine`, `gradient_descent`, `analytic`); `None` picks
        /// the per-workload default.
        strategy: Option<String>,
        /// Shorthand for `--strategy analytic` (subgradient descent on the
        /// profiled cost curve).
        analytic: bool,
        /// Write a trace of the estimation pipeline to this path (Chrome
        /// trace-event JSON, or JSONL when the path ends in `.jsonl`).
        trace_out: Option<String>,
        /// Print the metrics / summary view to stdout.
        metrics: bool,
        /// Write a machine-readable metrics snapshot to this path
        /// (Prometheus text exposition when the path ends in `.prom`,
        /// versioned JSON otherwise).
        metrics_out: Option<String>,
        /// Record every served request in a flight recorder and dump the
        /// audit log (JSONL) to this path.
        audit_out: Option<String>,
        /// Replay a JSONL delta script against `--input` through the
        /// incremental drift server, printing one decision line per step
        /// (patched / nudged / rebuilt, probes saved, staleness regret).
        drift: Option<String>,
        /// Device topology: a preset name (`cpu-gpu`, `dual-cpu-dual-gpu`,
        /// `quad-cpu-quad-gpu`) or a `.json` topology file with per-link
        /// transfer models. The canonical pair keeps the scalar pipeline
        /// (it only widens the cache key); larger sets run the k-way
        /// analytic partition search — per-device work fractions on a
        /// single `--input`, partition-aware cache serving with `--batch`,
        /// and warm cut-vector serving with `--drift`.
        devices: Option<Box<DeviceSet>>,
    },
    /// Validate a captured artifact: a Chrome trace from `--trace-out`, an
    /// audit JSONL log from `--audit-out`, or a `.prom` metrics export from
    /// `--metrics-out`.
    Trace {
        /// Path of the trace JSON / audit JSONL / Prometheus text file.
        input: String,
    },
    /// Render an audit log (and optionally a metrics snapshot) as a text
    /// dashboard: hit/miss mix, latency and shadow-regret percentiles per
    /// workload kind.
    Report {
        /// Path of the audit JSONL log.
        audit: String,
        /// Optional metrics snapshot (`.prom` or JSON) to fold in.
        metrics: Option<String>,
    },
}

/// Parses an argument vector (without the program name).
///
/// # Errors
/// Returns a usage message on malformed input.
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let sub = it.next().ok_or_else(|| err(USAGE))?;
    match sub.as_str() {
        "datasets" => Ok(Command::Datasets),
        "gen" => {
            let mut dataset = None;
            let mut scale = 0.02;
            let mut seed = 42;
            let mut out = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--dataset" => dataset = Some(next_val(&mut it, flag)?),
                    "--scale" => scale = parse_num(&next_val(&mut it, flag)?)?,
                    "--seed" => seed = parse_num(&next_val(&mut it, flag)?)?,
                    "--out" => out = Some(next_val(&mut it, flag)?),
                    other => return Err(err(format!("unknown flag {other}\n{USAGE}"))),
                }
            }
            Ok(Command::Gen {
                dataset: dataset.ok_or_else(|| err("gen requires --dataset"))?,
                scale,
                seed,
                out: out.ok_or_else(|| err("gen requires --out"))?,
            })
        }
        "estimate" => {
            let workload = it
                .next()
                .ok_or_else(|| err("estimate requires a workload: cc | spmm | hh"))?
                .clone();
            if !matches!(workload.as_str(), "cc" | "spmm" | "hh") {
                return Err(err(format!(
                    "unknown workload {workload}; use cc | spmm | hh"
                )));
            }
            let mut input = None;
            let mut batch = None;
            let mut cache_size = None;
            let mut seed = 42;
            let mut exhaustive = false;
            let mut strategy = None;
            let mut analytic = false;
            let mut trace_out = None;
            let mut metrics = false;
            let mut metrics_out = None;
            let mut audit_out = None;
            let mut drift = None;
            let mut devices = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--input" => input = Some(next_val(&mut it, flag)?),
                    "--batch" => batch = Some(next_val(&mut it, flag)?),
                    "--cache-size" => cache_size = Some(parse_num(&next_val(&mut it, flag)?)?),
                    "--seed" => seed = parse_num(&next_val(&mut it, flag)?)?,
                    "--exhaustive" => exhaustive = true,
                    "--strategy" => strategy = Some(next_val(&mut it, flag)?),
                    "--analytic" => analytic = true,
                    "--trace-out" => trace_out = Some(next_val(&mut it, flag)?),
                    "--metrics" => metrics = true,
                    "--metrics-out" => metrics_out = Some(next_val(&mut it, flag)?),
                    "--audit-out" => audit_out = Some(next_val(&mut it, flag)?),
                    "--drift" => drift = Some(next_val(&mut it, flag)?),
                    "--devices" => {
                        let name = next_val(&mut it, flag)?;
                        // 1-based position of the value in the argument
                        // vector, so a typo in a long command line is easy
                        // to find.
                        let pos = args.len() - it.len();
                        let set = if name.ends_with(".json") {
                            load_device_set_json(&name)
                        } else {
                            name.parse::<DeviceSet>().map_err(|e| e.to_string())
                        }
                        .map_err(|e| err(format!("argument {pos} (--devices): {e}\n{USAGE}")))?;
                        devices = Some(Box::new(set));
                    }
                    other => return Err(err(format!("unknown flag {other}\n{USAGE}"))),
                }
            }
            if input.is_some() == batch.is_some() {
                return Err(err("estimate requires exactly one of --input or --batch"));
            }
            if cache_size.is_some() && batch.is_none() {
                return Err(err("--cache-size requires --batch"));
            }
            if exhaustive && batch.is_some() {
                return Err(err("--exhaustive applies to a single --input"));
            }
            if drift.is_some() && batch.is_some() {
                return Err(err("--drift replays against a single --input"));
            }
            if drift.is_some() && (exhaustive || strategy.is_some() || analytic) {
                return Err(err("--drift serves through the incremental drift server; \
                     it takes no --exhaustive/--strategy/--analytic"));
            }
            if exhaustive && devices.as_ref().is_some_and(|s| !s.is_canonical_pair()) {
                return Err(err(
                    "--exhaustive sweeps the scalar threshold; it takes no k-way --devices",
                ));
            }
            Ok(Command::Estimate {
                workload,
                input,
                batch,
                cache_size,
                seed,
                exhaustive,
                strategy,
                analytic,
                trace_out,
                metrics,
                metrics_out,
                audit_out,
                drift,
                devices,
            })
        }
        "trace" => {
            let input = it
                .next()
                .ok_or_else(|| err("trace requires a file: nbwp trace <trace.json>"))?
                .clone();
            if let Some(extra) = it.next() {
                return Err(err(format!("unexpected argument {extra}\n{USAGE}")));
            }
            Ok(Command::Trace { input })
        }
        "report" => {
            let audit = it
                .next()
                .ok_or_else(|| err("report requires a file: nbwp report <audit.jsonl>"))?
                .clone();
            let mut metrics = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--metrics" => metrics = Some(next_val(&mut it, flag)?),
                    other => return Err(err(format!("unknown flag {other}\n{USAGE}"))),
                }
            }
            Ok(Command::Report { audit, metrics })
        }
        "--help" | "-h" | "help" => Err(err(USAGE)),
        other => Err(err(format!("unknown subcommand {other}\n{USAGE}"))),
    }
}

/// CLI usage text.
pub const USAGE: &str = "usage:
  nbwp datasets
  nbwp gen --dataset <name> [--scale f] [--seed u64] --out <file.mtx>
  nbwp estimate <cc|spmm|hh> (--input <file.mtx> | --batch <requests.txt>)
                [--cache-size N] [--seed u64] [--exhaustive]
                [--strategy <exhaustive|coarse_to_fine|race_then_fine|gradient_descent|analytic>]
                [--analytic] [--trace-out <trace.json|trace.jsonl>] [--metrics]
                [--metrics-out <metrics.json|metrics.prom>] [--audit-out <audit.jsonl>]
                [--drift <deltas.jsonl>]
                [--devices <cpu-gpu|dual-cpu-dual-gpu|quad-cpu-quad-gpu|topology.json>]
  nbwp trace <trace.json | audit.jsonl | metrics.prom>
  nbwp report <audit.jsonl> [--metrics <metrics.json|metrics.prom>]";

fn next_val<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<String, CliError> {
    it.next()
        .cloned()
        .ok_or_else(|| err(format!("{flag} needs a value")))
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, CliError> {
    s.parse().map_err(|_| err(format!("bad numeric value {s}")))
}

/// Loads a device topology from a JSON file:
///
/// ```json
/// {"name": "my-rig", "devices": [
///   {"kind": "cpu"},
///   {"kind": "cpu", "speed": 0.5},
///   {"kind": "gpu", "link": "platform-pcie"},
///   {"kind": "gpu", "speed": 0.75, "link": {"latency_us": 5.0, "bw_gbs": 8.0}}
/// ]}
/// ```
///
/// `name` defaults to the file stem, `speed` to `1.0`, and `link` to
/// `"host"` for CPUs and `"platform-pcie"` for GPUs; an object link is a
/// dedicated transfer model (a second PCIe slot, or a NIC-attached remote
/// accelerator). Every structural error names the offending device
/// position (`devices[i]: ...`), including the ordering and range rules
/// enforced by [`DeviceSet::try_new`].
fn load_device_set_json(path: &str) -> Result<DeviceSet, String> {
    let text =
        std::fs::read_to_string(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))?;
    let v: serde_json::Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let name = match v.get("name") {
        None => Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("custom")
            .to_string(),
        Some(n) => n
            .as_str()
            .ok_or_else(|| "\"name\" must be a string".to_string())?
            .to_string(),
    };
    let list = v
        .get("devices")
        .and_then(serde_json::Value::as_array)
        .ok_or_else(|| format!("{path}: a topology needs a \"devices\" array"))?;
    let mut devices = Vec::with_capacity(list.len());
    for (i, d) in list.iter().enumerate() {
        let kind = d
            .get("kind")
            .and_then(serde_json::Value::as_str)
            .ok_or_else(|| format!("devices[{i}]: \"kind\" must be \"cpu\" or \"gpu\""))?;
        let mut dev = match kind {
            "cpu" => Device::cpu(),
            "gpu" => Device::gpu(),
            other => {
                return Err(format!(
                    "devices[{i}]: unknown kind \"{other}\" (expected \"cpu\" or \"gpu\")"
                ))
            }
        };
        if let Some(s) = d.get("speed") {
            // Range rules live in `try_new`, which reports them with the
            // same position; only the type is checked here.
            dev.speed = s
                .as_f64()
                .ok_or_else(|| format!("devices[{i}]: \"speed\" must be a number"))?;
        }
        if let Some(l) = d.get("link") {
            dev.link = parse_link_json(l, i)?;
        }
        devices.push(dev);
    }
    DeviceSet::try_new(name, devices)
}

/// One device's `link` field: a preset name or a `{latency_us, bw_gbs}`
/// transfer model.
fn parse_link_json(v: &serde_json::Value, i: usize) -> Result<Link, String> {
    if let Some(name) = v.as_str() {
        return match name {
            "host" => Ok(Link::Host),
            "platform-pcie" => Ok(Link::PlatformPcie),
            other => Err(format!(
                "devices[{i}]: unknown link \"{other}\" (expected \"host\", \
                 \"platform-pcie\", or {{\"latency_us\", \"bw_gbs\"}})"
            )),
        };
    }
    let field = |key: &str| {
        v.get(key)
            .and_then(serde_json::Value::as_f64)
            .ok_or_else(|| format!("devices[{i}]: a link object needs a numeric \"{key}\""))
    };
    Ok(Link::Pcie(PcieModel {
        latency_us: field("latency_us")?,
        bw_gbs: field("bw_gbs")?,
    }))
}

/// Executes a command, returning the text to print.
///
/// # Errors
/// Returns a [`CliError`] on I/O or input problems.
pub fn run(cmd: &Command) -> Result<String, CliError> {
    match cmd {
        Command::Datasets => Ok(list_datasets()),
        Command::Gen {
            dataset,
            scale,
            seed,
            out,
        } => gen_dataset(dataset, *scale, *seed, out),
        Command::Estimate {
            workload,
            input,
            batch,
            cache_size,
            seed,
            exhaustive,
            strategy,
            analytic,
            trace_out,
            metrics,
            metrics_out,
            audit_out,
            drift,
            devices,
        } => {
            let sinks = Sinks {
                trace_out: trace_out.as_deref(),
                metrics: *metrics,
                metrics_out: metrics_out.as_deref(),
                audit_out: audit_out.as_deref(),
            };
            match (input, batch) {
                (Some(input), None) => match drift {
                    Some(ops) => drift_cmd(workload, input, ops, devices.as_deref(), &sinks),
                    None => estimate_cmd(
                        workload,
                        input,
                        *seed,
                        *exhaustive,
                        strategy.as_deref(),
                        *analytic,
                        devices.as_deref(),
                        &sinks,
                    ),
                },
                (None, Some(batch)) => batch_cmd(
                    workload,
                    batch,
                    *cache_size,
                    *seed,
                    strategy.as_deref(),
                    *analytic,
                    devices.as_deref(),
                    &sinks,
                ),
                _ => Err(err("estimate requires exactly one of --input or --batch")),
            }
        }
        Command::Trace { input } => trace_cmd(input),
        Command::Report { audit, metrics } => report_cmd(audit, metrics.as_deref()),
    }
}

/// Where `estimate` routes its observability artifacts (shared by the
/// single-input and batch paths).
struct Sinks<'a> {
    trace_out: Option<&'a str>,
    metrics: bool,
    metrics_out: Option<&'a str>,
    audit_out: Option<&'a str>,
}

impl Sinks<'_> {
    /// A span recorder is needed whenever anything reads its trace/metrics.
    fn recorder(&self) -> Recorder {
        if self.trace_out.is_some() || self.metrics || self.metrics_out.is_some() {
            Recorder::new()
        } else {
            Recorder::disabled()
        }
    }

    /// A flight recorder is needed only when the audit log is requested.
    fn flight_recorder(&self) -> FlightRecorder {
        if self.audit_out.is_some() {
            FlightRecorder::new()
        } else {
            FlightRecorder::disabled()
        }
    }

    /// Writes the requested artifacts (trace, metrics snapshot, audit log)
    /// and appends one confirmation line per file. `audit.flush_metrics`
    /// must already have run — this consumes a finished trace.
    fn write(
        &self,
        out: &mut String,
        trace: &Trace,
        audit: &FlightRecorder,
    ) -> Result<(), CliError> {
        if self.metrics {
            out.push('\n');
            out.push_str(&trace.summary(60));
        }
        if let Some(path) = self.trace_out {
            let text = if path.ends_with(".jsonl") {
                trace.to_jsonl()
            } else {
                trace.to_chrome_trace()
            };
            std::fs::write(Path::new(path), text)
                .map_err(|e| err(format!("cannot write trace to {path}: {e}")))?;
            let _ = writeln!(out, "wrote trace ({} spans) to {path}", trace.spans.len());
        }
        if let Some(path) = self.metrics_out {
            let text = if path.ends_with(".prom") {
                nbwp_trace::prometheus_text(&trace.metrics)
            } else {
                nbwp_trace::metrics_json(&trace.metrics)
            };
            std::fs::write(Path::new(path), text)
                .map_err(|e| err(format!("cannot write metrics to {path}: {e}")))?;
            let _ = writeln!(
                out,
                "wrote metrics ({} counters, {} histograms) to {path}",
                trace.metrics.counters.len(),
                trace.metrics.histograms.len()
            );
        }
        if let Some(path) = self.audit_out {
            std::fs::write(Path::new(path), audit.to_jsonl())
                .map_err(|e| err(format!("cannot write audit log to {path}: {e}")))?;
            let _ = writeln!(
                out,
                "wrote audit log ({} events, {} requests) to {path}",
                audit.len(),
                audit.totals().requests
            );
        }
        Ok(())
    }
}

fn list_datasets() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>10} {:>11} {:>8} {:>6}",
        "name", "n", "nnz", "family", "SF?"
    );
    for d in Dataset::all() {
        let _ = writeln!(
            out,
            "{:<18} {:>10} {:>11} {:>8} {:>6}",
            d.name,
            d.paper_n,
            d.paper_nnz,
            format!("{:?}", d.family),
            if d.scale_free { "yes" } else { "no" }
        );
    }
    out
}

fn gen_dataset(name: &str, scale: f64, seed: u64, out: &str) -> Result<String, CliError> {
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(err(format!("--scale must be in (0, 1], got {scale}")));
    }
    let d = Dataset::by_name(name)
        .ok_or_else(|| err(format!("unknown dataset {name}; run `nbwp datasets`")))?;
    let m = d.matrix(scale, seed);
    let file =
        File::create(Path::new(out)).map_err(|e| err(format!("cannot create {out}: {e}")))?;
    io::write_matrix_market(&m, BufWriter::new(file))
        .map_err(|e| err(format!("write failed: {e}")))?;
    Ok(format!(
        "wrote {} ({} rows, {} nonzeros, scale {scale}, seed {seed})\n",
        out,
        m.rows(),
        m.nnz()
    ))
}

fn load_matrix(path: &str) -> Result<Csr, CliError> {
    let file = File::open(Path::new(path)).map_err(|e| err(format!("cannot open {path}: {e}")))?;
    io::read_matrix_market(BufReader::new(file)).map_err(|e| err(format!("parse failed: {e}")))
}

fn load_square(path: &str) -> Result<Csr, CliError> {
    let a = load_matrix(path)?;
    if a.rows() != a.cols() {
        return Err(err(format!(
            "{path} is {}x{}; the case studies need a square matrix",
            a.rows(),
            a.cols()
        )));
    }
    Ok(a)
}

/// Resolves the Identify strategy for a workload from the CLI flags:
/// `--analytic` and `--strategy <name>` override the per-workload default
/// (cc → coarse-to-fine, spmm → race-then-fine, hh → gradient descent).
fn resolve_strategy(
    workload: &str,
    strategy: Option<&str>,
    analytic: bool,
) -> Result<Strategy, CliError> {
    if analytic && strategy.is_some() {
        return Err(err("--analytic and --strategy are mutually exclusive"));
    }
    if analytic {
        return Ok(Strategy::Analytic { step: None });
    }
    match strategy {
        Some(name) => name
            .parse::<Strategy>()
            .map_err(|e| err(format!("{e}\n{USAGE}"))),
        None => Ok(match workload {
            "cc" => Strategy::CoarseToFine,
            "spmm" => Strategy::RaceThenFine,
            _ => Strategy::GradientDescent {
                max_evals: DEFAULT_GRADIENT_EVALS,
            },
        }),
    }
}

/// Resolves the strategy of one `estimate` invocation and splits off a
/// k-way device set. A k-way set routes through the analytic partition
/// search (it prices bands off the cost curve), so an explicit
/// non-analytic strategy conflicts with it; the canonical pair keeps the
/// scalar pipeline.
fn resolve_serving<'d>(
    workload: &str,
    strategy: Option<&str>,
    analytic: bool,
    devices: Option<&'d DeviceSet>,
) -> Result<(Strategy, Option<&'d DeviceSet>), CliError> {
    let resolved = resolve_strategy(workload, strategy, analytic)?;
    match devices.filter(|s| !s.is_canonical_pair()) {
        Some(set) if strategy.is_some() && !matches!(resolved, Strategy::Analytic { .. }) => {
            Err(err(format!(
                "--devices {} prices bands from the cost curve; \
                 use --analytic (or drop --strategy)",
                set.name()
            )))
        }
        Some(set) => Ok((Strategy::Analytic { step: None }, Some(set))),
        None => Ok((resolved, None)),
    }
}

/// Serves one request through the profiled estimator. No cache is
/// attached, so it runs cold; with an enabled flight recorder it records
/// one audit event — the estimate itself is identical either way.
fn run_estimator<W>(
    w: &W,
    strategy: Strategy,
    seed: u64,
    rec: &Recorder,
    audit: &FlightRecorder,
) -> SamplingEstimate
where
    W: Sampleable + Fingerprinted,
    W::Sample: Profilable,
{
    Estimator::new(strategy)
        .seed(seed)
        .recorder(rec)
        .audit(audit)
        .profiled()
        .run_cached(w)
}

#[allow(clippy::too_many_arguments)]
fn estimate_cmd(
    workload: &str,
    input: &str,
    seed: u64,
    exhaustive: bool,
    strategy: Option<&str>,
    analytic: bool,
    devices: Option<&DeviceSet>,
    sinks: &Sinks<'_>,
) -> Result<String, CliError> {
    let a = load_square(input)?;
    let (strategy, kway) = resolve_serving(workload, strategy, analytic, devices)?;
    let platform = Platform::k40c_xeon_e5_2650();
    let rec = sinks.recorder();
    let audit = sinks.flight_recorder();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{input}: {} rows, {} nonzeros — {} ({}) on the simulated K40c + Xeon",
        a.rows(),
        a.nnz(),
        workload,
        strategy.name()
    );
    match (workload, kway) {
        ("cc", Some(set)) => {
            let w = CcWorkload::new(Graph::from_matrix(&a), platform);
            report_partition(&mut out, &w, set, seed, &rec, &audit);
        }
        ("spmm", Some(set)) => {
            let w = SpmmWorkload::new(a, platform);
            report_partition(&mut out, &w, set, seed, &rec, &audit);
        }
        ("hh", Some(set)) => {
            return Err(err(format!(
                "hh partitions rows by a density predicate, not by contiguous \
                 spans; --devices {} supports cc | spmm",
                set.name()
            )));
        }
        ("cc", None) => {
            let w = CcWorkload::new(Graph::from_matrix(&a), platform);
            let est = run_estimator(&w, strategy, seed, &rec, &audit);
            report_scalar(&mut out, &w, &est, "CPU vertex share %", exhaustive, &rec);
        }
        ("spmm", None) => {
            let w = SpmmWorkload::new(a, platform);
            let est = run_estimator(&w, strategy, seed, &rec, &audit);
            report_scalar(&mut out, &w, &est, "CPU work share %", exhaustive, &rec);
        }
        ("hh", None) => {
            let w = HhWorkload::new(a, platform);
            let est = run_estimator(&w, strategy, seed, &rec, &audit);
            report_scalar(
                &mut out,
                &w,
                &est,
                "row-density threshold",
                exhaustive,
                &rec,
            );
        }
        (other, _) => return Err(err(format!("unknown workload {other}"))),
    }
    audit.flush_metrics(&rec);
    let trace = rec.finish();
    sinks.write(&mut out, &trace, &audit)?;
    Ok(out)
}

/// Runs the k-way analytic partition search over the full input and
/// appends the cut vector plus one work-fraction row per device. The
/// fractions are also exported as `partition.fraction.d<i>` gauges, which
/// `nbwp report --metrics` renders as a dedicated row. The request goes
/// through the partition serving path (`run_partition_cached`; no cache
/// attached, so it runs cold); with an enabled flight recorder it records
/// one arity-`k` audit event — the partition is identical either way.
fn report_partition<W: Profilable + Fingerprinted>(
    out: &mut String,
    w: &W,
    set: &DeviceSet,
    seed: u64,
    rec: &Recorder,
    audit: &FlightRecorder,
) {
    let o = Estimator::new(Strategy::Analytic { step: None })
        .seed(seed)
        .recorder(rec)
        .audit(audit)
        .devices(set)
        .profiled()
        .run_partition_cached(w);
    let _ = writeln!(
        out,
        "k-way partition over {} (k = {}): predicted total {}\n  cut thresholds [{}] — {} curve probes, {} descent sweeps",
        set.name(),
        set.len(),
        o.total,
        fmt_cuts(&o.cuts),
        o.probes,
        o.sweeps
    );
    for (i, (d, f)) in set.devices().iter().zip(&o.fractions).enumerate() {
        let kind = match d.kind {
            DeviceKind::Cpu => "cpu",
            DeviceKind::Gpu => "gpu",
        };
        let _ = writeln!(
            out,
            "  device {i} ({kind} ×{:.2}): {:.1}% of the work",
            d.speed,
            f * 100.0
        );
        rec.gauge_set(&format!("partition.fraction.d{i}"), f * 100.0);
    }
}

/// Serves every workload in `ws` through [`ProfiledEstimator::run_batch`]
/// behind `cache`, appending one line per request plus the cache totals.
#[allow(clippy::too_many_arguments)]
fn serve_batch<W>(
    out: &mut String,
    paths: &[String],
    ws: &[W],
    strategy: Strategy,
    seed: u64,
    devices: Option<&DeviceSet>,
    cache: &ThresholdCache,
    rec: &Recorder,
    audit: &FlightRecorder,
    unit: &str,
) where
    W: Sampleable + Fingerprinted,
    W::Sample: Profilable,
{
    // No recorder on the estimator: `run_batch` would flush (reset) the
    // cache counters into it before the summary below reads them. The
    // totals are read first, then flushed to the metrics view by hand.
    let mut e = Estimator::new(strategy)
        .seed(seed)
        .cache(cache)
        .audit(audit);
    if let Some(set) = devices {
        e = e.devices(set);
    }
    let ests = e.profiled().run_batch(ws);
    for (path, est) in paths.iter().zip(&ests) {
        let _ = writeln!(
            out,
            "{path}: threshold {:.1} ({unit}), sample size {}, estimation cost {}",
            est.threshold, est.sample_size, est.overhead
        );
    }
    // Duplicates inside one batch are deduped by fingerprint before the
    // cache is consulted, so they never show up in the hit/miss counters.
    let st = cache.stats();
    let served = st.exact_hits + st.near_hits + st.misses;
    let _ = writeln!(
        out,
        "cache: {} exact hits, {} warm starts, {} misses; {} of {} requests deduped in-batch",
        st.exact_hits,
        st.near_hits,
        st.misses,
        paths.len() as u64 - served,
        paths.len()
    );
    cache.flush_metrics(rec);
    audit.flush_metrics(rec);
}

/// Serves every workload in `ws` through the partition-aware cache
/// (`run_partition_cached`) against a k-way device set, appending one cut
/// vector per request plus the k-way cache totals. Unlike the scalar
/// batch path there is no in-batch dedup: repeated inputs hit the cache
/// as exact partition hits and return the stored cut vector bitwise.
#[allow(clippy::too_many_arguments)]
fn serve_batch_kway<W>(
    out: &mut String,
    paths: &[String],
    ws: &[W],
    set: &DeviceSet,
    seed: u64,
    cache: &ThresholdCache,
    rec: &Recorder,
    audit: &FlightRecorder,
) where
    W: Profilable + Fingerprinted,
{
    let served = Estimator::new(Strategy::Analytic { step: None })
        .seed(seed)
        .cache(cache)
        .audit(audit)
        .devices(set)
        .profiled();
    for (path, w) in paths.iter().zip(ws) {
        let o = served.run_partition_cached(w);
        let _ = writeln!(
            out,
            "{path}: cuts [{}] (k = {}), predicted total {}, {} curve probes",
            fmt_cuts(&o.cuts),
            set.len(),
            o.total,
            o.probes
        );
    }
    let st = cache.stats();
    let _ = writeln!(
        out,
        "cache: {} k-way exact hits, {} warm starts, {} misses; {} probes saved",
        st.kway_exact_hits, st.kway_near_hits, st.kway_misses, st.probes_saved
    );
    cache.flush_metrics(rec);
    audit.flush_metrics(rec);
}

/// `estimate --batch`: one Matrix Market path per line, served through the
/// fingerprint-deduped batch path with a shared threshold cache.
#[allow(clippy::too_many_arguments)]
fn batch_cmd(
    workload: &str,
    batch: &str,
    cache_size: Option<usize>,
    seed: u64,
    strategy: Option<&str>,
    analytic: bool,
    devices: Option<&DeviceSet>,
    sinks: &Sinks<'_>,
) -> Result<String, CliError> {
    let text = std::fs::read_to_string(Path::new(batch))
        .map_err(|e| err(format!("cannot read {batch}: {e}")))?;
    let paths: Vec<String> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect();
    if paths.is_empty() {
        return Err(err(format!("{batch} lists no inputs")));
    }
    let (strategy, kway) = resolve_serving(workload, strategy, analytic, devices)?;
    let platform = Platform::k40c_xeon_e5_2650();
    let cache = cache_size.map_or_else(ThresholdCache::default, ThresholdCache::new);
    let rec = sinks.recorder();
    let audit = sinks.flight_recorder();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{batch}: {} requests — {} ({}) on the simulated K40c + Xeon",
        paths.len(),
        workload,
        strategy.name()
    );
    let mats = paths
        .iter()
        .map(|p| load_square(p))
        .collect::<Result<Vec<_>, _>>()?;
    match (workload, kway) {
        ("cc", Some(set)) => {
            let ws: Vec<CcWorkload> = mats
                .into_iter()
                .map(|a| CcWorkload::new(Graph::from_matrix(&a), platform))
                .collect();
            serve_batch_kway(&mut out, &paths, &ws, set, seed, &cache, &rec, &audit);
        }
        ("spmm", Some(set)) => {
            let ws: Vec<SpmmWorkload> = mats
                .into_iter()
                .map(|a| SpmmWorkload::new(a, platform))
                .collect();
            serve_batch_kway(&mut out, &paths, &ws, set, seed, &cache, &rec, &audit);
        }
        ("hh", Some(set)) => {
            return Err(err(format!(
                "hh partitions rows by a density predicate, not by contiguous \
                 spans; --devices {} supports cc | spmm",
                set.name()
            )));
        }
        ("cc", None) => {
            let ws: Vec<CcWorkload> = mats
                .into_iter()
                .map(|a| CcWorkload::new(Graph::from_matrix(&a), platform))
                .collect();
            serve_batch(
                &mut out,
                &paths,
                &ws,
                strategy,
                seed,
                devices,
                &cache,
                &rec,
                &audit,
                "CPU vertex share %",
            );
        }
        ("spmm", None) => {
            let ws: Vec<SpmmWorkload> = mats
                .into_iter()
                .map(|a| SpmmWorkload::new(a, platform))
                .collect();
            serve_batch(
                &mut out,
                &paths,
                &ws,
                strategy,
                seed,
                devices,
                &cache,
                &rec,
                &audit,
                "CPU work share %",
            );
        }
        ("hh", None) => {
            let ws: Vec<HhWorkload> = mats
                .into_iter()
                .map(|a| HhWorkload::new(a, platform))
                .collect();
            serve_batch(
                &mut out,
                &paths,
                &ws,
                strategy,
                seed,
                devices,
                &cache,
                &rec,
                &audit,
                "row-density threshold",
            );
        }
        (other, _) => return Err(err(format!("unknown workload {other}"))),
    }
    let trace = rec.finish();
    sinks.write(&mut out, &trace, &audit)?;
    Ok(out)
}

/// `estimate --drift`: replay a JSONL delta script against one input
/// through the incremental [`DriftServer`], one decision line per step.
///
/// Script format — one JSON object per line (blank lines and `#` comments
/// skipped):
/// - cc: `{"insert": [[u, v], ...], "delete": [[u, v], ...]}` (either key
///   optional; duplicate inserts and absent deletes are legal no-ops)
/// - spmm: `{"replace": [{"row": r, "cols": [...], "vals": [...]}, ...],
///   "scale": [{"row": r, "factor": f}, ...]}` (either key optional;
///   `vals` defaults to ones; replaces apply before scales within a line)
fn drift_cmd(
    workload: &str,
    input: &str,
    ops: &str,
    devices: Option<&DeviceSet>,
    sinks: &Sinks<'_>,
) -> Result<String, CliError> {
    let a = load_square(input)?;
    let text = std::fs::read_to_string(Path::new(ops))
        .map_err(|e| err(format!("cannot read {ops}: {e}")))?;
    let platform = Platform::k40c_xeon_e5_2650();
    let rec = sinks.recorder();
    let audit = sinks.flight_recorder();
    // The cache is the metrics sink for patched/nudged/rebuilt counters and
    // the shadow-regret histogram; the drift server bumps its generation.
    let cache = ThresholdCache::default();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{input}: {} rows, {} nonzeros — {workload} drift replay of {ops} on the simulated K40c + Xeon",
        a.rows(),
        a.nnz()
    );
    match workload {
        "cc" => {
            let deltas = parse_graph_deltas(&text)?;
            let w = CcWorkload::new(Graph::from_matrix(&a), platform);
            replay_drift(
                &mut out,
                w,
                &deltas,
                devices,
                &cache,
                &audit,
                "CPU vertex share %",
            );
        }
        "spmm" => {
            let deltas = parse_csr_deltas(&text)?;
            let w = SpmmWorkload::new(a, platform);
            replay_drift(
                &mut out,
                w,
                &deltas,
                devices,
                &cache,
                &audit,
                "CPU work share %",
            );
        }
        other => {
            return Err(err(format!(
                "--drift supports cc | spmm (got {other}: hh has no delta form)"
            )))
        }
    }
    cache.flush_metrics(&rec);
    audit.flush_metrics(&rec);
    let trace = rec.finish();
    sinks.write(&mut out, &trace, &audit)?;
    Ok(out)
}

/// Serves `deltas` through a [`DriftServer`] with cache + audit hooks
/// attached, appending one line per step and a decision summary. A k-way
/// `devices` set swaps the scalar threshold column for the served cut
/// vector; every step also carries its patch-vs-rebuild reason (the
/// delta's span fraction against the policy's crossover estimate).
fn replay_drift<W: DriftWorkload>(
    out: &mut String,
    w: W,
    deltas: &[W::Delta],
    devices: Option<&DeviceSet>,
    cache: &ThresholdCache,
    audit: &FlightRecorder,
    unit: &str,
) {
    let mut server = DriftServer::new(w).with_cache(cache).with_audit(audit);
    if let Some(set) = devices {
        server = server.with_devices(set.clone());
    }
    let kway = server.devices().len() > 2;
    if kway {
        let _ = writeln!(
            out,
            "base: cuts [{}] over {} (k = {}), predicted total {}",
            fmt_cuts(server.cuts()),
            server.devices().name(),
            server.devices().len(),
            server.total()
        );
    } else {
        let _ = writeln!(
            out,
            "base: threshold {:.1} ({unit}), predicted total {}",
            server.threshold(),
            server.total()
        );
    }
    for (i, d) in deltas.iter().enumerate() {
        let step = server.apply(d);
        let position = if kway {
            format!("cuts [{}]", fmt_cuts(&step.cuts))
        } else {
            format!("threshold {:.1}", step.threshold)
        };
        let _ = writeln!(
            out,
            "step {i:>3}: {:<8} span {}..{} ({} units, {:.1}% vs crossover {:.1}%), {position}, total {}, probes saved {}, staleness regret {:.2}%",
            step.decision.name(),
            step.span.start,
            step.span.end,
            step.span.len(),
            100.0 * step.span_fraction,
            100.0 * step.crossover_estimate,
            step.total,
            step.probes_saved,
            step.regret_pct
        );
    }
    let st = cache.stats();
    let _ = writeln!(
        out,
        "drift: {} steps — {} patched, {} nudged, {} rebuilt; {} probes saved, {} stale cache entries evicted",
        server.steps(),
        st.patched_hits,
        st.patched_nudges,
        st.patched_rebuilds,
        st.probes_saved,
        st.stale_evictions
    );
}

/// Formats a cut-threshold vector as `a, b, c` with one decimal.
fn fmt_cuts(cuts: &[f64]) -> String {
    let v: Vec<String> = cuts.iter().map(|c| format!("{c:.1}")).collect();
    v.join(", ")
}

/// Parses the payload lines of a delta script (blanks / `#` comments out).
fn script_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
}

/// One parsed JSONL line, with the line number folded into any error.
fn script_value(lineno: usize, line: &str) -> Result<serde_json::Value, CliError> {
    serde_json::from_str(line).map_err(|e| err(format!("drift script line {lineno}: {e}")))
}

/// Extracts `key` as an array, defaulting to empty when absent.
fn script_list<'v>(
    v: &'v serde_json::Value,
    key: &str,
    lineno: usize,
) -> Result<&'v [serde_json::Value], CliError> {
    match v.get(key) {
        None => Ok(&[]),
        Some(serde_json::Value::Array(items)) => Ok(items),
        Some(_) => Err(err(format!(
            "drift script line {lineno}: \"{key}\" must be an array"
        ))),
    }
}

fn script_u64(v: &serde_json::Value, what: &str, lineno: usize) -> Result<u64, CliError> {
    v.as_u64().ok_or_else(|| {
        err(format!(
            "drift script line {lineno}: {what} must be an integer"
        ))
    })
}

/// `{"insert": [[u, v], ...], "delete": [[u, v], ...]}` per line.
fn parse_graph_deltas(text: &str) -> Result<Vec<GraphDelta>, CliError> {
    let pair = |v: &serde_json::Value, lineno: usize| -> Result<(u32, u32), CliError> {
        match v.as_array() {
            Some([u, v]) => Ok((
                script_u64(u, "edge endpoint", lineno)? as u32,
                script_u64(v, "edge endpoint", lineno)? as u32,
            )),
            _ => Err(err(format!(
                "drift script line {lineno}: edges must be [u, v] pairs"
            ))),
        }
    };
    script_lines(text)
        .map(|(lineno, line)| {
            let v = script_value(lineno, line)?;
            let mut d = GraphDelta::default();
            for e in script_list(&v, "insert", lineno)? {
                d.insert.push(pair(e, lineno)?);
            }
            for e in script_list(&v, "delete", lineno)? {
                d.delete.push(pair(e, lineno)?);
            }
            Ok(d)
        })
        .collect()
}

/// `{"replace": [{"row", "cols", "vals"?}], "scale": [{"row", "factor"}]}`
/// per line.
fn parse_csr_deltas(text: &str) -> Result<Vec<CsrDelta>, CliError> {
    script_lines(text)
        .map(|(lineno, line)| {
            let v = script_value(lineno, line)?;
            let mut ops = Vec::new();
            for r in script_list(&v, "replace", lineno)? {
                let row = script_u64(
                    r.get("row").unwrap_or(&serde_json::Value::Null),
                    "replace.row",
                    lineno,
                )? as usize;
                let cols = script_list(r, "cols", lineno)?
                    .iter()
                    .map(|c| script_u64(c, "replace.cols", lineno).map(|c| c as u32))
                    .collect::<Result<Vec<_>, _>>()?;
                let vals = match r.get("vals") {
                    None => vec![1.0; cols.len()],
                    Some(_) => script_list(r, "vals", lineno)?
                        .iter()
                        .map(|x| {
                            x.as_f64().ok_or_else(|| {
                                err(format!(
                                    "drift script line {lineno}: replace.vals must be numbers"
                                ))
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                };
                if vals.len() != cols.len() {
                    return Err(err(format!(
                        "drift script line {lineno}: replace row {row} has {} cols but {} vals",
                        cols.len(),
                        vals.len()
                    )));
                }
                ops.push(RowOp::Replace { row, cols, vals });
            }
            for s in script_list(&v, "scale", lineno)? {
                let row = script_u64(
                    s.get("row").unwrap_or(&serde_json::Value::Null),
                    "scale.row",
                    lineno,
                )? as usize;
                let factor = s
                    .get("factor")
                    .and_then(serde_json::Value::as_f64)
                    .ok_or_else(|| {
                        err(format!(
                            "drift script line {lineno}: scale.factor must be a number"
                        ))
                    })?;
                ops.push(RowOp::Scale { row, factor });
            }
            Ok(CsrDelta { ops })
        })
        .collect()
}

/// Lane and pipeline span names every `estimate --trace-out` capture must
/// contain (checked by `nbwp trace`, exercised in CI).
const REQUIRED_SPANS: [&str; 11] = [
    "estimate",
    "sample",
    "identify",
    "identify.eval",
    "extrapolate",
    "partition",
    "transfer_in",
    "cpu_compute",
    "gpu_compute",
    "transfer_out",
    "merge",
];

fn trace_cmd(input: &str) -> Result<String, CliError> {
    let text = std::fs::read_to_string(Path::new(input))
        .map_err(|e| err(format!("cannot read {input}: {e}")))?;
    // Dispatch on content, not just extension: audit logs are JSONL whose
    // header is typed, and Prometheus exports are `# TYPE`-led text.
    if is_audit_log(&text) {
        let check = nbwp_trace::validate_audit_jsonl(&text)
            .map_err(|e| err(format!("{input}: invalid audit log: {e}")))?;
        let t = check.totals;
        return Ok(format!(
            "{input}: valid audit log — {} events retained of {} requests \
             ({} exact hits, {} drift-patched, {} warm starts, {} cold, {} shadow runs, \
             {} dropped)\n",
            check.events.len(),
            t.requests,
            t.exact_hits,
            t.patched,
            t.near_hits,
            t.cold,
            t.shadow_runs,
            t.dropped
        ));
    }
    if input.ends_with(".prom") {
        let check = nbwp_trace::validate_prometheus(&text)
            .map_err(|e| err(format!("{input}: invalid Prometheus exposition: {e}")))?;
        return Ok(format!(
            "{input}: valid Prometheus exposition — {} metric families, {} samples\n",
            check.families.len(),
            check.samples
        ));
    }
    let check = nbwp_trace::validate_chrome_trace(&text)
        .map_err(|e| err(format!("{input}: invalid trace: {e}")))?;
    let missing: Vec<&str> = REQUIRED_SPANS
        .iter()
        .copied()
        .filter(|name| check.count(name) == 0)
        .collect();
    if !missing.is_empty() {
        return Err(err(format!(
            "{input}: structurally valid but missing expected spans: {}",
            missing.join(", ")
        )));
    }
    Ok(format!(
        "{input}: valid Chrome trace — {} events, {} spans, {} candidate evaluations\n",
        check.events,
        check.complete_spans,
        check.count("identify.eval")
    ))
}

/// Whether a captured file is an audit JSONL log: its first line is the
/// typed header written by the flight recorder.
fn is_audit_log(text: &str) -> bool {
    text.lines()
        .next()
        .is_some_and(|l| l.contains("\"type\":\"audit\""))
}

/// Nearest-rank percentile of an unsorted sample; 0.0 on an empty one.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if q <= 0.0 {
        return sorted[0];
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Per-workload-kind accumulator for the `report` dashboard.
#[derive(Default)]
struct KindAgg {
    requests: u64,
    exact: u64,
    patched: u64,
    near: u64,
    cold: u64,
    latencies: Vec<f64>,
    regrets: Vec<f64>,
    sim_cost_ms: f64,
}

/// `nbwp report`: renders an audit log (validated + replayed first) and an
/// optional metrics snapshot as a text dashboard.
fn report_cmd(audit_path: &str, metrics_path: Option<&str>) -> Result<String, CliError> {
    let text = std::fs::read_to_string(Path::new(audit_path))
        .map_err(|e| err(format!("cannot read {audit_path}: {e}")))?;
    let check = nbwp_trace::validate_audit_jsonl(&text)
        .map_err(|e| err(format!("{audit_path}: invalid audit log: {e}")))?;
    let t = check.totals;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "audit: {} requests — {} exact hits, {} drift-patched, {} warm starts, {} cold ({} events retained, {} dropped)",
        t.requests, t.exact_hits, t.patched, t.near_hits, t.cold, check.events.len(), t.dropped
    );
    let served = t.requests.max(1) as f64;
    let _ = writeln!(
        out,
        "  hit rate {:.1}% exact / {:.1}% patched / {:.1}% warm; {} evaluations, {} curve probes across the stream",
        100.0 * t.exact_hits as f64 / served,
        100.0 * t.patched as f64 / served,
        100.0 * t.near_hits as f64 / served,
        t.evaluations,
        t.grad_probes
    );

    // Aggregate the retained window per workload kind (sorted for output).
    let mut kinds: std::collections::BTreeMap<String, KindAgg> = std::collections::BTreeMap::new();
    for ev in &check.events {
        let agg = kinds.entry(ev.kind.clone()).or_default();
        agg.requests += 1;
        match ev.decision {
            CacheDecision::ExactHit => agg.exact += 1,
            CacheDecision::Patched => agg.patched += 1,
            CacheDecision::NearHit => agg.near += 1,
            CacheDecision::Cold => agg.cold += 1,
        }
        if let Some(l) = ev.latency_us {
            agg.latencies.push(l);
        }
        if let Some(r) = ev.shadow_regret_pct {
            agg.regrets.push(r);
        }
        agg.sim_cost_ms += ev.sim_cost_ms;
    }
    let _ = writeln!(
        out,
        "\n{:<6} {:>6} {:>6} {:>5} {:>5} {:>5} {:>11} {:>11} {:>11} {:>11}",
        "kind",
        "reqs",
        "exact",
        "patch",
        "warm",
        "cold",
        "lat p50 µs",
        "lat p95 µs",
        "lat max µs",
        "sim ms"
    );
    for (kind, agg) in &kinds {
        let _ = writeln!(
            out,
            "{:<6} {:>6} {:>6} {:>5} {:>5} {:>5} {:>11.2} {:>11.2} {:>11.2} {:>11.3}",
            kind,
            agg.requests,
            agg.exact,
            agg.patched,
            agg.near,
            agg.cold,
            percentile(&agg.latencies, 0.5),
            percentile(&agg.latencies, 0.95),
            percentile(&agg.latencies, 1.0),
            agg.sim_cost_ms
        );
    }

    // Drift steps carry their patch-vs-rebuild reason: the delta's span
    // fraction against the policy's crossover estimate at decision time.
    // Rebuilds are rare enough to explain individually.
    let reasons: Vec<(f64, f64, CacheDecision, u64)> = check
        .events
        .iter()
        .filter_map(|ev| {
            Some((
                ev.span_fraction?,
                ev.crossover_estimate.unwrap_or(f64::NAN),
                ev.decision,
                ev.arity,
            ))
        })
        .collect();
    if !reasons.is_empty() {
        let spans: Vec<f64> = reasons.iter().map(|r| 100.0 * r.0).collect();
        let _ = writeln!(
            out,
            "\ndrift decisions ({} audited steps): span fraction p50 {:.1}% / max {:.1}%",
            reasons.len(),
            percentile(&spans, 0.5),
            percentile(&spans, 1.0)
        );
        let mut rebuilds = 0;
        for (span, crossover, decision, arity) in &reasons {
            if *decision == CacheDecision::Cold {
                rebuilds += 1;
                let _ = writeln!(
                    out,
                    "  rebuild (arity {arity}): span {:.1}% of the input exceeded the \
                     crossover estimate {:.1}%",
                    100.0 * span,
                    100.0 * crossover
                );
            }
        }
        if rebuilds == 0 {
            let _ = writeln!(
                out,
                "  no rebuilds: every span stayed under the crossover estimate"
            );
        }
    }

    let all_regrets: Vec<f64> = kinds.values().flat_map(|a| a.regrets.clone()).collect();
    if all_regrets.is_empty() {
        let _ = writeln!(out, "\nshadow regret: no samples in the retained window");
    } else {
        let _ = writeln!(
            out,
            "\nshadow regret ({} samples): p50 {:.2}% p95 {:.2}% max {:.2}%",
            all_regrets.len(),
            percentile(&all_regrets, 0.5),
            percentile(&all_regrets, 0.95),
            percentile(&all_regrets, 1.0)
        );
    }

    if let Some(path) = metrics_path {
        let mtext = std::fs::read_to_string(Path::new(path))
            .map_err(|e| err(format!("cannot read {path}: {e}")))?;
        if path.ends_with(".prom") {
            let check = nbwp_trace::validate_prometheus(&mtext)
                .map_err(|e| err(format!("{path}: invalid Prometheus exposition: {e}")))?;
            let _ = writeln!(
                out,
                "\nmetrics: {} — {} families, {} samples (Prometheus text)",
                path,
                check.families.len(),
                check.samples
            );
        } else {
            let snap = nbwp_trace::parse_metrics_json(&mtext)
                .map_err(|e| err(format!("{path}: invalid metrics snapshot: {e}")))?;
            let _ = writeln!(out, "\nmetrics: {path}");
            for (name, v) in &snap.counters {
                let _ = writeln!(out, "  {name} = {v}");
            }
            // The k-way estimate path exports per-device work fractions as
            // `partition.fraction.d<i>` gauges; render them as one row.
            let fractions: Vec<String> = snap
                .gauges
                .iter()
                .filter_map(|(name, v)| {
                    name.strip_prefix("partition.fraction.")
                        .map(|d| format!("{d} {v:.1}%"))
                })
                .collect();
            if !fractions.is_empty() {
                let _ = writeln!(out, "  work fractions: {}", fractions.join("  "));
            }
            for (name, h) in &snap.histograms {
                let _ = writeln!(
                    out,
                    "  {name}: n={} p50={:.2} p95={:.2} max={:.2}",
                    h.count,
                    h.quantile(0.5),
                    h.quantile(0.95),
                    h.max
                );
            }
        }
    }
    Ok(out)
}

fn report_scalar<W: PartitionedWorkload>(
    out: &mut String,
    w: &W,
    est: &SamplingEstimate,
    unit: &str,
    exhaustive: bool,
    rec: &Recorder,
) {
    let _ = writeln!(
        out,
        "estimated threshold: {:.1} ({unit})\n  sample size {}, {} miniature runs, estimation cost {}",
        est.threshold, est.sample_size, est.evaluations, est.overhead
    );
    let _ = writeln!(
        out,
        "  run at estimated threshold: {}",
        w.time_at(est.threshold)
    );
    if exhaustive {
        let step = if w.space().logarithmic { 1.15 } else { 1.0 };
        let best = Searcher::new(Strategy::Exhaustive { step: Some(step) }).run(w);
        rec.gauge_set("threshold.diff_pct", (est.threshold - best.best_t).abs());
        let _ = writeln!(
            out,
            "  exhaustive best: {:.1} → {} ({} full runs; penalty of the estimate: {:.1}%)",
            best.best_t,
            best.best_time,
            best.evaluations(),
            w.time_at(est.threshold).pct_diff_from(best.best_time)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_all_subcommands() {
        assert_eq!(parse_args(&args("datasets")).unwrap(), Command::Datasets);
        let g = parse_args(&args(
            "gen --dataset cant --scale 0.01 --seed 7 --out /tmp/x.mtx",
        ))
        .unwrap();
        assert_eq!(
            g,
            Command::Gen {
                dataset: "cant".into(),
                scale: 0.01,
                seed: 7,
                out: "/tmp/x.mtx".into()
            }
        );
        let e = parse_args(&args("estimate spmm --input /tmp/x.mtx --exhaustive")).unwrap();
        assert_eq!(
            e,
            Command::Estimate {
                workload: "spmm".into(),
                input: Some("/tmp/x.mtx".into()),
                batch: None,
                cache_size: None,
                seed: 42,
                exhaustive: true,
                strategy: None,
                analytic: false,
                trace_out: None,
                metrics: false,
                metrics_out: None,
                audit_out: None,
                drift: None,
                devices: None
            }
        );
        let t = parse_args(&args(
            "estimate cc --input x.mtx --trace-out t.json --metrics",
        ))
        .unwrap();
        assert_eq!(
            t,
            Command::Estimate {
                workload: "cc".into(),
                input: Some("x.mtx".into()),
                batch: None,
                cache_size: None,
                seed: 42,
                exhaustive: false,
                strategy: None,
                analytic: false,
                trace_out: Some("t.json".into()),
                metrics: true,
                metrics_out: None,
                audit_out: None,
                drift: None,
                devices: None
            }
        );
        assert_eq!(
            parse_args(&args("trace t.json")).unwrap(),
            Command::Trace {
                input: "t.json".into()
            }
        );
    }

    #[test]
    fn parse_strategy_flags() {
        let e = parse_args(&args(
            "estimate cc --input x.mtx --strategy gradient_descent",
        ))
        .unwrap();
        assert_eq!(
            e,
            Command::Estimate {
                workload: "cc".into(),
                input: Some("x.mtx".into()),
                batch: None,
                cache_size: None,
                seed: 42,
                exhaustive: false,
                strategy: Some("gradient_descent".into()),
                analytic: false,
                trace_out: None,
                metrics: false,
                metrics_out: None,
                audit_out: None,
                drift: None,
                devices: None
            }
        );
        let a = parse_args(&args("estimate spmm --input x.mtx --analytic")).unwrap();
        assert_eq!(
            a,
            Command::Estimate {
                workload: "spmm".into(),
                input: Some("x.mtx".into()),
                batch: None,
                cache_size: None,
                seed: 42,
                exhaustive: false,
                strategy: None,
                analytic: true,
                trace_out: None,
                metrics: false,
                metrics_out: None,
                audit_out: None,
                drift: None,
                devices: None
            }
        );
    }

    #[test]
    fn resolve_strategy_defaults_names_and_conflicts() {
        assert_eq!(
            resolve_strategy("cc", None, false).unwrap(),
            Strategy::CoarseToFine
        );
        assert_eq!(
            resolve_strategy("spmm", None, false).unwrap(),
            Strategy::RaceThenFine
        );
        assert_eq!(
            resolve_strategy("hh", None, false).unwrap(),
            Strategy::GradientDescent {
                max_evals: DEFAULT_GRADIENT_EVALS
            }
        );
        assert_eq!(
            resolve_strategy("cc", Some("analytic"), false).unwrap(),
            Strategy::Analytic { step: None }
        );
        assert_eq!(
            resolve_strategy("cc", None, true).unwrap(),
            Strategy::Analytic { step: None }
        );
        let conflict = resolve_strategy("cc", Some("exhaustive"), true).unwrap_err();
        assert!(conflict.0.contains("mutually exclusive"), "{}", conflict.0);
        let unknown = resolve_strategy("cc", Some("simulated_annealing"), false).unwrap_err();
        assert!(unknown.0.contains("simulated_annealing"), "{}", unknown.0);
    }

    #[test]
    fn parse_batch_flags() {
        let b = parse_args(&args("estimate spmm --batch reqs.txt --cache-size 64")).unwrap();
        assert_eq!(
            b,
            Command::Estimate {
                workload: "spmm".into(),
                input: None,
                batch: Some("reqs.txt".into()),
                cache_size: Some(64),
                seed: 42,
                exhaustive: false,
                strategy: None,
                analytic: false,
                trace_out: None,
                metrics: false,
                metrics_out: None,
                audit_out: None,
                drift: None,
                devices: None
            }
        );
        // --input and --batch are mutually exclusive; one is required.
        assert!(parse_args(&args("estimate cc --input x.mtx --batch b.txt")).is_err());
        assert!(parse_args(&args("estimate cc")).is_err());
        // --cache-size and --exhaustive are single/batch specific.
        assert!(parse_args(&args("estimate cc --input x.mtx --cache-size 8")).is_err());
        assert!(parse_args(&args("estimate cc --batch b.txt --exhaustive")).is_err());
    }

    #[test]
    fn parse_drift_flags() {
        let d = parse_args(&args("estimate cc --input x.mtx --drift ops.jsonl")).unwrap();
        assert_eq!(
            d,
            Command::Estimate {
                workload: "cc".into(),
                input: Some("x.mtx".into()),
                batch: None,
                cache_size: None,
                seed: 42,
                exhaustive: false,
                strategy: None,
                analytic: false,
                trace_out: None,
                metrics: false,
                metrics_out: None,
                audit_out: None,
                drift: Some("ops.jsonl".into()),
                devices: None,
            }
        );
        // --drift replays one input and owns the search path.
        assert!(parse_args(&args("estimate cc --batch b.txt --drift ops.jsonl")).is_err());
        assert!(parse_args(&args(
            "estimate cc --input x.mtx --drift o.jsonl --exhaustive"
        ))
        .is_err());
        assert!(parse_args(&args(
            "estimate cc --input x.mtx --drift o.jsonl --analytic"
        ))
        .is_err());
        assert!(parse_args(&args(
            "estimate cc --input x.mtx --drift o.jsonl --strategy analytic"
        ))
        .is_err());
    }

    /// End-to-end `estimate --drift`: replay JSONL delta scripts for cc and
    /// spmm, check the per-step decision lines and summary, round-trip the
    /// audit log through `nbwp trace` + `nbwp report`, and fail loudly on
    /// malformed scripts and unsupported workloads.
    #[test]
    fn drift_replay_reports_decisions() {
        let dir = std::env::temp_dir().join("nbwp_cli_drift_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("rma10.mtx");
        run(&Command::Gen {
            dataset: "rma10".into(),
            scale: 0.005,
            seed: 3,
            out: mtx.to_str().unwrap().into(),
        })
        .unwrap();
        let estimate = |workload: &str, drift: &std::path::Path, audit: Option<String>| {
            run(&Command::Estimate {
                workload: workload.into(),
                input: Some(mtx.to_str().unwrap().into()),
                batch: None,
                cache_size: None,
                seed: 3,
                exhaustive: false,
                strategy: None,
                analytic: false,
                trace_out: None,
                metrics: false,
                metrics_out: None,
                audit_out: audit,
                drift: Some(drift.to_str().unwrap().into()),
                devices: None,
            })
        };

        // cc: local edge edits, a deletion, and an empty step (a no-op the
        // server must still serve as a patched decision).
        let cc_ops = dir.join("cc.jsonl");
        std::fs::write(
            &cc_ops,
            "# cc deltas\n{\"insert\": [[1, 2], [2, 3]]}\n\n{\"delete\": [[1, 2]]}\n{}\n",
        )
        .unwrap();
        let text = estimate("cc", &cc_ops, None).unwrap();
        assert!(text.contains("drift replay"), "{text}");
        assert!(text.contains("base: threshold"), "{text}");
        assert_eq!(text.matches("step ").count(), 3, "{text}");
        assert!(text.contains("3 steps"), "{text}");
        assert!(text.contains("patched"), "{text}");

        // spmm: replaces (vals defaulting to ones) and a value-only scale;
        // the audit log round-trips through trace validation + report.
        let sp_ops = dir.join("spmm.jsonl");
        std::fs::write(
            &sp_ops,
            "{\"replace\": [{\"row\": 1, \"cols\": [0, 2], \"vals\": [1.5, 2.0]}]}\n\
             {\"replace\": [{\"row\": 4, \"cols\": [1]}], \"scale\": [{\"row\": 0, \"factor\": 2.0}]}\n",
        )
        .unwrap();
        let audit = dir.join("drift.jsonl");
        let text = estimate("spmm", &sp_ops, Some(audit.to_str().unwrap().into())).unwrap();
        assert_eq!(text.matches("step ").count(), 2, "{text}");
        assert!(text.contains("wrote audit log (2 events"), "{text}");
        let checked = run(&Command::Trace {
            input: audit.to_str().unwrap().into(),
        })
        .unwrap();
        assert!(checked.contains("valid audit log"), "{checked}");
        let report = run(&Command::Report {
            audit: audit.to_str().unwrap().into(),
            metrics: None,
        })
        .unwrap();
        assert!(report.contains("drift-patched"), "{report}");
        assert!(report.contains("spmm"), "{report}");

        // Malformed scripts name the offending line; hh has no delta form.
        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "{\"insert\": [[1, 2]]}\nnonsense\n").unwrap();
        let e = estimate("cc", &bad, None).unwrap_err();
        assert!(e.0.contains("line 2"), "{}", e.0);
        let e = estimate("hh", &cc_ops, None).unwrap_err();
        assert!(e.0.contains("no delta form"), "{}", e.0);

        for f in [&mtx, &cc_ops, &sp_ops, &audit, &bad] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn batch_estimate_serves_and_reports_cache_totals() {
        let dir = std::env::temp_dir().join("nbwp_cli_batch_test");
        std::fs::create_dir_all(&dir).unwrap();
        let m1 = dir.join("rma10.mtx");
        let m2 = dir.join("cant.mtx");
        for (name, path) in [("rma10", &m1), ("cant", &m2)] {
            run(&Command::Gen {
                dataset: name.into(),
                scale: 0.005,
                seed: 3,
                out: path.to_str().unwrap().into(),
            })
            .unwrap();
        }
        // Duplicates, blank lines, and comments in the request file.
        let reqs = dir.join("reqs.txt");
        let (p1, p2) = (m1.to_str().unwrap(), m2.to_str().unwrap());
        std::fs::write(&reqs, format!("# batch\n{p1}\n\n{p2}\n{p1}\n{p1}\n")).unwrap();

        for analytic in [false, true] {
            let text = run(&Command::Estimate {
                workload: "spmm".into(),
                input: None,
                batch: Some(reqs.to_str().unwrap().into()),
                cache_size: Some(8),
                seed: 3,
                exhaustive: false,
                strategy: None,
                analytic,
                trace_out: None,
                metrics: false,
                metrics_out: None,
                audit_out: None,
                drift: None,
                devices: None,
            })
            .unwrap();
            assert!(text.contains("4 requests"), "{text}");
            assert_eq!(text.matches("threshold").count(), 4, "{text}");
            // Two distinct inputs → two misses; the two duplicate requests
            // are deduped inside the batch before the cache is consulted.
            assert!(text.contains("2 misses"), "{text}");
            assert!(text.contains("2 of 4 requests deduped in-batch"), "{text}");
        }

        // An unreadable request file and an empty one both fail loudly.
        assert!(run(&Command::Estimate {
            workload: "spmm".into(),
            input: None,
            batch: Some(dir.join("nope.txt").to_str().unwrap().into()),
            cache_size: None,
            seed: 3,
            exhaustive: false,
            strategy: None,
            analytic: false,
            trace_out: None,
            metrics: false,
            metrics_out: None,
            audit_out: None,
            drift: None,
            devices: None
        })
        .is_err());
        let empty = dir.join("empty.txt");
        std::fs::write(&empty, "# nothing\n\n").unwrap();
        assert!(run(&Command::Estimate {
            workload: "spmm".into(),
            input: None,
            batch: Some(empty.to_str().unwrap().into()),
            cache_size: None,
            seed: 3,
            exhaustive: false,
            strategy: None,
            analytic: false,
            trace_out: None,
            metrics: false,
            metrics_out: None,
            audit_out: None,
            drift: None,
            devices: None
        })
        .is_err());
        for f in [&m1, &m2, &reqs, &empty] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn parse_observability_flags_and_report() {
        let e = parse_args(&args(
            "estimate cc --input x.mtx --metrics-out m.prom --audit-out a.jsonl",
        ))
        .unwrap();
        assert_eq!(
            e,
            Command::Estimate {
                workload: "cc".into(),
                input: Some("x.mtx".into()),
                batch: None,
                cache_size: None,
                seed: 42,
                exhaustive: false,
                strategy: None,
                analytic: false,
                trace_out: None,
                metrics: false,
                metrics_out: Some("m.prom".into()),
                audit_out: Some("a.jsonl".into()),
                drift: None,
                devices: None,
            }
        );
        assert_eq!(
            parse_args(&args("report a.jsonl")).unwrap(),
            Command::Report {
                audit: "a.jsonl".into(),
                metrics: None
            }
        );
        assert_eq!(
            parse_args(&args("report a.jsonl --metrics m.json")).unwrap(),
            Command::Report {
                audit: "a.jsonl".into(),
                metrics: Some("m.json".into())
            }
        );
        assert!(parse_args(&args("report")).is_err());
        assert!(parse_args(&args("report a.jsonl --frob x")).is_err());
    }

    /// The full observability loop: capture audit + metrics from single and
    /// batch estimates, validate every artifact through `nbwp trace`, and
    /// render the dashboard with `nbwp report`.
    #[test]
    fn audit_and_metrics_artifacts_round_trip() {
        let dir = std::env::temp_dir().join("nbwp_cli_audit_test");
        std::fs::create_dir_all(&dir).unwrap();
        let m1 = dir.join("rma10.mtx");
        let m2 = dir.join("cant.mtx");
        for (name, path) in [("rma10", &m1), ("cant", &m2)] {
            run(&Command::Gen {
                dataset: name.into(),
                scale: 0.005,
                seed: 3,
                out: path.to_str().unwrap().into(),
            })
            .unwrap();
        }
        let (p1, p2) = (m1.to_str().unwrap(), m2.to_str().unwrap());

        // Single estimate: one cold request in the audit log, metrics in
        // both export formats.
        let audit = dir.join("single.jsonl");
        let prom = dir.join("single.prom");
        let text = run(&Command::Estimate {
            workload: "cc".into(),
            input: Some(p1.into()),
            batch: None,
            cache_size: None,
            seed: 3,
            exhaustive: false,
            strategy: None,
            analytic: false,
            trace_out: None,
            metrics: false,
            metrics_out: Some(prom.to_str().unwrap().into()),
            audit_out: Some(audit.to_str().unwrap().into()),
            drift: None,
            devices: None,
        })
        .unwrap();
        assert!(text.contains("wrote audit log (1 events"), "{text}");
        assert!(text.contains("wrote metrics"), "{text}");
        for artifact in [&audit, &prom] {
            let report = run(&Command::Trace {
                input: artifact.to_str().unwrap().into(),
            })
            .unwrap();
            assert!(report.contains("valid"), "{report}");
        }
        let report = run(&Command::Trace {
            input: audit.to_str().unwrap().into(),
        })
        .unwrap();
        assert!(report.contains("1 cold"), "{report}");

        // Batch estimate: duplicates are deduped, so the audit log records
        // one event per distinct class; the dashboard renders both files.
        let reqs = dir.join("reqs.txt");
        std::fs::write(&reqs, format!("{p1}\n{p2}\n{p1}\n{p1}\n")).unwrap();
        let baudit = dir.join("batch.jsonl");
        let bmetrics = dir.join("batch.json");
        let text = run(&Command::Estimate {
            workload: "spmm".into(),
            input: None,
            batch: Some(reqs.to_str().unwrap().into()),
            cache_size: Some(8),
            seed: 3,
            exhaustive: false,
            strategy: None,
            analytic: true,
            trace_out: None,
            metrics: false,
            metrics_out: Some(bmetrics.to_str().unwrap().into()),
            audit_out: Some(baudit.to_str().unwrap().into()),
            drift: None,
            devices: None,
        })
        .unwrap();
        assert!(text.contains("wrote audit log (2 events"), "{text}");
        let dash = run(&Command::Report {
            audit: baudit.to_str().unwrap().into(),
            metrics: Some(bmetrics.to_str().unwrap().into()),
        })
        .unwrap();
        assert!(dash.contains("audit: 2 requests"), "{dash}");
        assert!(dash.contains("spmm"), "{dash}");
        assert!(dash.contains("audit.requests = 2"), "{dash}");
        // Tampering with the log is caught by the replay validator.
        let good = std::fs::read_to_string(&baudit).unwrap();
        std::fs::write(&baudit, good.replace("\"cold\":2", "\"cold\":3")).unwrap();
        assert!(run(&Command::Report {
            audit: baudit.to_str().unwrap().into(),
            metrics: None,
        })
        .is_err());

        for f in [&m1, &m2, &audit, &prom, &reqs, &baudit, &bmetrics] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn parse_devices_flag() {
        let e = parse_args(&args(
            "estimate spmm --input x.mtx --devices dual-cpu-dual-gpu",
        ))
        .unwrap();
        match e {
            Command::Estimate { devices, .. } => {
                assert_eq!(devices, Some(Box::new(DeviceSet::dual_cpu_dual_gpu())));
            }
            other => panic!("parsed {other:?}"),
        }
        // Underscores are accepted interchangeably with hyphens.
        let e = parse_args(&args("estimate cc --input x.mtx --devices cpu_gpu")).unwrap();
        match e {
            Command::Estimate { devices, .. } => {
                assert_eq!(devices, Some(Box::new(DeviceSet::cpu_gpu())));
            }
            other => panic!("parsed {other:?}"),
        }

        // An unknown preset names its argument position and the valid names.
        let bad = parse_args(&args("estimate spmm --input x.mtx --devices warp-pool")).unwrap_err();
        assert!(bad.0.contains("argument 6 (--devices)"), "{}", bad.0);
        assert!(bad.0.contains("warp-pool"), "{}", bad.0);
        assert!(bad.0.contains("dual-cpu-dual-gpu"), "{}", bad.0);
        let bad =
            parse_args(&args("estimate spmm --seed 9 --input x.mtx --devices nope")).unwrap_err();
        assert!(bad.0.contains("argument 8 (--devices)"), "{}", bad.0);

        // k-way sets ride along with --batch (partition-aware cache
        // serving) and --drift (warm cut-vector serving); only the scalar
        // --exhaustive sweep still conflicts.
        assert!(parse_args(&args(
            "estimate spmm --batch b.txt --devices dual-cpu-dual-gpu"
        ))
        .is_ok());
        assert!(parse_args(&args(
            "estimate cc --input x.mtx --drift o.jsonl --devices quad-cpu-quad-gpu"
        ))
        .is_ok());
        assert!(parse_args(&args(
            "estimate spmm --input x.mtx --devices dual-cpu-dual-gpu --exhaustive"
        ))
        .is_err());
        assert!(parse_args(&args("estimate spmm --batch b.txt --devices cpu-gpu")).is_ok());
    }

    /// Renders a [`DeviceSet`] in the `--devices <file.json>` topology
    /// format (the test-side inverse of `load_device_set_json`).
    fn device_set_to_json(set: &DeviceSet) -> String {
        let devices: Vec<String> = set
            .devices()
            .iter()
            .map(|d| {
                let kind = match d.kind {
                    DeviceKind::Cpu => "cpu",
                    DeviceKind::Gpu => "gpu",
                };
                let link = match d.link {
                    Link::Host => "\"host\"".to_string(),
                    Link::PlatformPcie => "\"platform-pcie\"".to_string(),
                    Link::Pcie(m) => format!(
                        "{{\"latency_us\": {}, \"bw_gbs\": {}}}",
                        m.latency_us, m.bw_gbs
                    ),
                };
                format!(
                    "{{\"kind\": \"{kind}\", \"speed\": {}, \"link\": {link}}}",
                    d.speed
                )
            })
            .collect();
        format!(
            "{{\"name\": \"{}\", \"devices\": [{}]}}",
            set.name(),
            devices.join(", ")
        )
    }

    /// `--devices <file.json>`: a serialized topology loads back equal
    /// (round trip through the JSON format), defaults apply, and every
    /// structural error names the argument position and the offending
    /// device index.
    #[test]
    fn device_set_json_round_trips_and_validates() {
        let dir = std::env::temp_dir().join("nbwp_cli_devices_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let parse_with = |path: &std::path::Path| {
            parse_args(&args(&format!(
                "estimate spmm --input x.mtx --devices {}",
                path.to_str().unwrap()
            )))
        };
        let loaded = |cmd: Command| match cmd {
            Command::Estimate { devices, .. } => *devices.expect("--devices parsed"),
            other => panic!("parsed {other:?}"),
        };

        // Round trip: custom speeds and a dedicated NIC-style link survive
        // serialization → file → loader bitwise (DeviceSet is PartialEq).
        let set = DeviceSet::new(
            "bench-rig",
            vec![
                Device::cpu(),
                Device::cpu().with_speed(0.5),
                Device::gpu(),
                Device::gpu()
                    .with_speed(0.75)
                    .with_link(Link::Pcie(PcieModel {
                        latency_us: 5.0,
                        bw_gbs: 8.0,
                    })),
            ],
        );
        let rig = dir.join("rig.json");
        std::fs::write(&rig, device_set_to_json(&set)).unwrap();
        assert_eq!(loaded(parse_with(&rig).unwrap()), set);

        // Defaults: name falls back to the file stem, speed to 1.0, link to
        // host (CPU) / platform PCIe (GPU).
        let pairish = dir.join("pairish.json");
        std::fs::write(
            &pairish,
            "{\"devices\": [{\"kind\": \"cpu\"}, {\"kind\": \"gpu\"}]}",
        )
        .unwrap();
        assert_eq!(
            loaded(parse_with(&pairish).unwrap()),
            DeviceSet::new("pairish", vec![Device::cpu(), Device::gpu()])
        );

        // Structural errors carry the argument position and the device
        // index (the loader's own checks and `DeviceSet::try_new`'s alike).
        let bad = dir.join("bad.json");
        let cases = [
            (
                "{\"devices\": [{\"kind\": \"cpu\"}, {\"kind\": \"tpu\"}]}",
                "devices[1]: unknown kind \"tpu\"",
            ),
            (
                "{\"devices\": [{\"kind\": \"cpu\", \"speed\": -1}, {\"kind\": \"gpu\"}]}",
                "devices[0]: speed must be finite and positive",
            ),
            (
                "{\"devices\": [{\"kind\": \"gpu\"}, {\"kind\": \"cpu\"}]}",
                "devices[1]: CPU-class devices must precede GPU-class",
            ),
            (
                "{\"devices\": [{\"kind\": \"cpu\"}, {\"kind\": \"gpu\", \
                 \"link\": {\"latency_us\": 5.0}}]}",
                "devices[1]: a link object needs a numeric \"bw_gbs\"",
            ),
            ("{\"name\": \"x\"}", "needs a \"devices\" array"),
        ];
        for (text, needle) in cases {
            std::fs::write(&bad, text).unwrap();
            let e = parse_with(&bad).unwrap_err();
            assert!(e.0.contains("(--devices)"), "{}", e.0);
            assert!(e.0.contains(needle), "{needle} not in: {}", e.0);
        }
        let e = parse_with(&dir.join("missing.json")).unwrap_err();
        assert!(e.0.contains("cannot read"), "{}", e.0);

        for f in [&rig, &pairish, &bad] {
            std::fs::remove_file(f).ok();
        }
    }

    /// End-to-end warm k-way serving through the CLI: `--batch` with a
    /// k-way set serves repeats as exact partition hits from the cache,
    /// and `--drift` with a k-way set serves cut vectors with per-step
    /// patch-vs-rebuild reasons that `nbwp report` renders.
    #[test]
    fn kway_batch_and_drift_serve_partitions() {
        let dir = std::env::temp_dir().join("nbwp_cli_kway_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let m1 = dir.join("rma10.mtx");
        let m2 = dir.join("cant.mtx");
        for (name, path) in [("rma10", &m1), ("cant", &m2)] {
            run(&Command::Gen {
                dataset: name.into(),
                scale: 0.005,
                seed: 3,
                out: path.to_str().unwrap().into(),
            })
            .unwrap();
        }
        let (p1, p2) = (m1.to_str().unwrap(), m2.to_str().unwrap());

        // Batch: the duplicate request returns the cached partition as an
        // exact hit (no dedup on this path — the cache itself serves it).
        let reqs = dir.join("reqs.txt");
        std::fs::write(&reqs, format!("{p1}\n{p1}\n{p2}\n")).unwrap();
        let batch = |workload: &str| {
            run(&Command::Estimate {
                workload: workload.into(),
                input: None,
                batch: Some(reqs.to_str().unwrap().into()),
                cache_size: Some(8),
                seed: 3,
                exhaustive: false,
                strategy: None,
                analytic: false,
                trace_out: None,
                metrics: false,
                metrics_out: None,
                audit_out: None,
                drift: None,
                devices: Some(Box::new(DeviceSet::dual_cpu_dual_gpu())),
            })
        };
        let text = batch("spmm").unwrap();
        assert_eq!(text.matches("cuts [").count(), 3, "{text}");
        assert!(text.contains("(k = 4)"), "{text}");
        assert!(text.contains("1 k-way exact hits"), "{text}");
        let e = batch("hh").unwrap_err();
        assert!(e.0.contains("cc | spmm"), "{}", e.0);

        // Drift: k-way steps print the served cut vector and the decision
        // reason; the audit log feeds the report's drift-decision section.
        let ops = dir.join("cc.jsonl");
        std::fs::write(
            &ops,
            "{\"insert\": [[1, 2], [2, 3]]}\n{\"delete\": [[1, 2]]}\n",
        )
        .unwrap();
        let audit = dir.join("kway-drift.jsonl");
        let text = run(&Command::Estimate {
            workload: "cc".into(),
            input: Some(p1.into()),
            batch: None,
            cache_size: None,
            seed: 3,
            exhaustive: false,
            strategy: None,
            analytic: false,
            trace_out: None,
            metrics: false,
            metrics_out: None,
            audit_out: Some(audit.to_str().unwrap().into()),
            drift: Some(ops.to_str().unwrap().into()),
            devices: Some(Box::new(DeviceSet::dual_cpu_dual_gpu())),
        })
        .unwrap();
        assert!(text.contains("base: cuts ["), "{text}");
        assert!(text.contains("(k = 4)"), "{text}");
        assert_eq!(text.matches("vs crossover").count(), 2, "{text}");
        assert!(text.contains("2 steps"), "{text}");
        let report = run(&Command::Report {
            audit: audit.to_str().unwrap().into(),
            metrics: None,
        })
        .unwrap();
        assert!(
            report.contains("drift decisions (2 audited steps)"),
            "{report}"
        );
        assert!(report.contains("span fraction p50"), "{report}");

        for f in [&m1, &m2, &reqs, &ops, &audit] {
            std::fs::remove_file(f).ok();
        }
    }

    /// End-to-end `estimate --devices`: the k-way analytic path prints the
    /// cut vector and one work-fraction row per device, exports the
    /// fractions as gauges, and `nbwp report --metrics` renders them as a
    /// dedicated row. hh has no contiguous-span curve and fails loudly.
    #[test]
    fn kway_estimate_reports_per_device_fractions() {
        let dir = std::env::temp_dir().join("nbwp_cli_kway_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("rma10.mtx");
        run(&Command::Gen {
            dataset: "rma10".into(),
            scale: 0.005,
            seed: 3,
            out: mtx.to_str().unwrap().into(),
        })
        .unwrap();
        let estimate =
            |workload: &str, set: DeviceSet, audit: Option<String>, m: Option<String>| {
                run(&Command::Estimate {
                    workload: workload.into(),
                    input: Some(mtx.to_str().unwrap().into()),
                    batch: None,
                    cache_size: None,
                    seed: 3,
                    exhaustive: false,
                    strategy: None,
                    analytic: false,
                    trace_out: None,
                    metrics: false,
                    metrics_out: m,
                    audit_out: audit,
                    drift: None,
                    devices: Some(Box::new(set)),
                })
            };

        let metrics = dir.join("kway.json");
        let text = estimate(
            "spmm",
            DeviceSet::dual_cpu_dual_gpu(),
            None,
            Some(metrics.to_str().unwrap().into()),
        )
        .unwrap();
        assert!(
            text.contains("k-way partition over dual-cpu-dual-gpu (k = 4)"),
            "{text}"
        );
        assert!(text.contains("cut thresholds ["), "{text}");
        for row in [
            "device 0 (cpu ×1.00)",
            "device 1 (cpu ×0.50)",
            "device 2 (gpu ×1.00)",
            "device 3 (gpu ×0.75)",
        ] {
            assert!(text.contains(row), "{text}");
        }
        assert_eq!(text.matches("% of the work").count(), 4, "{text}");

        // cc prices bands too (k = 8 preset).
        let text = estimate("cc", DeviceSet::quad_cpu_quad_gpu(), None, None).unwrap();
        assert_eq!(text.matches("% of the work").count(), 8, "{text}");

        // The gauges landed in the snapshot and the dashboard renders the
        // dedicated work-fraction row (needs an audit log for the report).
        let audit = dir.join("kway-audit.jsonl");
        estimate(
            "spmm",
            DeviceSet::cpu_gpu(), // canonical: serving path records audit
            Some(audit.to_str().unwrap().into()),
            None,
        )
        .unwrap();
        let dash = run(&Command::Report {
            audit: audit.to_str().unwrap().into(),
            metrics: Some(metrics.to_str().unwrap().into()),
        })
        .unwrap();
        assert!(dash.contains("work fractions: d0"), "{dash}");
        assert!(dash.contains("d3"), "{dash}");

        // hh partitions by a predicate, not contiguous spans.
        let e = estimate("hh", DeviceSet::dual_cpu_dual_gpu(), None, None).unwrap_err();
        assert!(e.0.contains("cc | spmm"), "{}", e.0);
        // An explicit non-analytic strategy conflicts with a k-way set.
        let e = run(&Command::Estimate {
            workload: "spmm".into(),
            input: Some(mtx.to_str().unwrap().into()),
            batch: None,
            cache_size: None,
            seed: 3,
            exhaustive: false,
            strategy: Some("coarse_to_fine".into()),
            analytic: false,
            trace_out: None,
            metrics: false,
            metrics_out: None,
            audit_out: None,
            drift: None,
            devices: Some(Box::new(DeviceSet::dual_cpu_dual_gpu())),
        })
        .unwrap_err();
        assert!(e.0.contains("--analytic"), "{}", e.0);

        for f in [&mtx, &metrics, &audit] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_args(&args("frobnicate")).is_err());
        assert!(parse_args(&args("estimate sorting --input x")).is_err());
        assert!(
            parse_args(&args("gen --dataset cant")).is_err(),
            "missing --out"
        );
        assert!(parse_args(&args("gen --scale abc --out x --dataset cant")).is_err());
        assert!(parse_args(&args("trace")).is_err(), "trace needs a file");
        assert!(parse_args(&args("trace a.json b.json")).is_err());
        assert!(parse_args(&args("estimate cc --input x --trace-out")).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn datasets_listing_contains_the_registry() {
        let text = run(&Command::Datasets).unwrap();
        assert!(text.contains("cant"));
        assert!(text.contains("asia_osm"));
        assert!(text.lines().count() >= 16);
    }

    #[test]
    fn gen_then_estimate_roundtrip() {
        let dir = std::env::temp_dir().join("nbwp_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rma10.mtx");
        let path_s = path.to_str().unwrap().to_string();
        let msg = run(&Command::Gen {
            dataset: "rma10".into(),
            scale: 0.005,
            seed: 3,
            out: path_s.clone(),
        })
        .unwrap();
        assert!(msg.contains("wrote"));

        for wl in ["cc", "spmm", "hh"] {
            let text = run(&Command::Estimate {
                workload: wl.into(),
                input: Some(path_s.clone()),
                batch: None,
                cache_size: None,
                seed: 3,
                exhaustive: false,
                strategy: None,
                analytic: false,
                trace_out: None,
                metrics: false,
                metrics_out: None,
                audit_out: None,
                drift: None,
                devices: None,
            })
            .unwrap();
            assert!(text.contains("estimated threshold"), "{wl}: {text}");
        }

        // Analytic descent routes through the profiled estimator and reports
        // its strategy name in the header.
        for wl in ["cc", "spmm", "hh"] {
            let text = run(&Command::Estimate {
                workload: wl.into(),
                input: Some(path_s.clone()),
                batch: None,
                cache_size: None,
                seed: 3,
                exhaustive: false,
                strategy: None,
                analytic: true,
                trace_out: None,
                metrics: false,
                metrics_out: None,
                audit_out: None,
                drift: None,
                devices: None,
            })
            .unwrap();
            assert!(text.contains("(analytic)"), "{wl}: {text}");
            assert!(text.contains("estimated threshold"), "{wl}: {text}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn estimate_traces_validate_and_are_deterministic() {
        let dir = std::env::temp_dir().join("nbwp_cli_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("cant.mtx");
        let mtx_s = mtx.to_str().unwrap().to_string();
        run(&Command::Gen {
            dataset: "cant".into(),
            scale: 0.004,
            seed: 5,
            out: mtx_s.clone(),
        })
        .unwrap();

        let capture = |trace_path: &std::path::Path, wl: &str| -> String {
            let text = run(&Command::Estimate {
                workload: wl.into(),
                input: Some(mtx_s.clone()),
                batch: None,
                cache_size: None,
                seed: 5,
                exhaustive: false,
                strategy: None,
                analytic: false,
                trace_out: Some(trace_path.to_str().unwrap().into()),
                metrics: true,
                metrics_out: None,
                audit_out: None,
                drift: None,
                devices: None,
            })
            .unwrap();
            assert!(text.contains("wrote trace"), "{text}");
            std::fs::read_to_string(trace_path).unwrap()
        };

        for wl in ["cc", "spmm", "hh"] {
            let t1 = dir.join(format!("{wl}-1.json"));
            let t2 = dir.join(format!("{wl}-2.json"));
            let first = capture(&t1, wl);
            let second = capture(&t2, wl);
            // Same seed, same input ⇒ byte-identical traces.
            assert_eq!(first, second, "{wl} trace not reproducible");
            // The capture passes the structural validator and contains all
            // pipeline + lane spans.
            let report = run(&Command::Trace {
                input: t1.to_str().unwrap().into(),
            })
            .unwrap();
            assert!(report.contains("valid Chrome trace"), "{wl}: {report}");
            std::fs::remove_file(&t1).ok();
            std::fs::remove_file(&t2).ok();
        }

        // JSONL flavor writes one object per line.
        let jl = dir.join("cc.jsonl");
        capture(&jl, "cc");
        let text = std::fs::read_to_string(&jl).unwrap();
        assert!(text.lines().count() > 3);
        assert!(text.lines().next().unwrap().contains("\"type\":\"trace\""));
        std::fs::remove_file(&jl).ok();
        std::fs::remove_file(&mtx).ok();
    }

    #[test]
    fn trace_cmd_rejects_invalid_and_incomplete_traces() {
        let dir = std::env::temp_dir().join("nbwp_cli_trace_reject");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "not json").unwrap();
        assert!(run(&Command::Trace {
            input: bad.to_str().unwrap().into()
        })
        .is_err());
        // Structurally valid but missing the pipeline spans.
        std::fs::write(
            &bad,
            r#"[{"name":"a","ph":"X","pid":0,"tid":0,"ts":0.0,"dur":1.0}]"#,
        )
        .unwrap();
        let e = run(&Command::Trace {
            input: bad.to_str().unwrap().into(),
        })
        .unwrap_err();
        assert!(e.0.contains("missing expected spans"), "{e}");
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn gen_rejects_unknown_dataset_and_bad_scale() {
        assert!(run(&Command::Gen {
            dataset: "nope".into(),
            scale: 0.01,
            seed: 1,
            out: "/tmp/x.mtx".into()
        })
        .is_err());
        assert!(run(&Command::Gen {
            dataset: "cant".into(),
            scale: 2.0,
            seed: 1,
            out: "/tmp/x.mtx".into()
        })
        .is_err());
    }

    #[test]
    fn estimate_rejects_missing_file() {
        assert!(run(&Command::Estimate {
            workload: "cc".into(),
            input: Some("/nonexistent/file.mtx".into()),
            batch: None,
            cache_size: None,
            seed: 1,
            exhaustive: false,
            strategy: None,
            analytic: false,
            trace_out: None,
            metrics: false,
            metrics_out: None,
            audit_out: None,
            drift: None,
            devices: None
        })
        .is_err());
    }
}
