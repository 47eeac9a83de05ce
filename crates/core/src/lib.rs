//! # nbwp-core — nearly balanced work partitioning
//!
//! Reproduction of *"Nearly Balanced Work Partitioning for Heterogeneous
//! Algorithms"* (ICPP 2017): a sampling-based technique for choosing the
//! work-split threshold of hand-crafted heterogeneous (CPU+GPU) algorithms.
//!
//! The pipeline is **Sample → Identify → Extrapolate** (§II of the paper):
//!
//! 1. [`framework::Sampleable::sample`] builds a miniature input by uniform
//!    random sampling;
//! 2. a [`search`] strategy (coarse-to-fine, device race, or gradient
//!    descent) finds the best threshold *on the sample*;
//! 3. an [`extrapolate::Extrapolator`] maps it back to the full input.
//!
//! Four workloads implement the framework: hybrid graph connected
//! components, row-row spmm, scale-free spmm (Algorithm HH-CPU), and dense
//! GEMM — see [`workloads`]. Baselines (NaiveStatic, NaiveAverage,
//! GPU-only, Qilin-style history, Boyer-style chunked-dynamic) live in
//! [`baselines`], and [`experiment`] drives the paper's figures and tables.
//!
//! ```
//! use nbwp_core::prelude::*;
//! use nbwp_graph::gen;
//!
//! let g = gen::web(4_000, 6, 42);
//! let w = CcWorkload::new(g, Platform::k40c_xeon_e5_2650());
//! // Estimate the CC threshold with the paper's method:
//! let est = Estimator::new(Strategy::CoarseToFine).seed(7).run(&w);
//! assert!((0.0..=100.0).contains(&est.threshold));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod baselines;
pub mod drift;
pub mod energy;
pub mod estimator;
pub mod evalcache;
pub mod experiment;
pub mod extrapolate;
pub mod fingerprint;
pub mod framework;
pub mod profile;
pub mod report;
pub mod search;
pub mod threshold_cache;
pub mod workloads;

/// One-stop imports for examples, tests and harnesses.
pub mod prelude {
    pub use crate::baselines::{self, naive_average, naive_static};
    pub use crate::drift::{
        DriftDecision, DriftServer, DriftStep, DriftWorkload, PATCH_CROSSOVER_FRACTION,
    };
    pub use crate::energy::{exhaustive_energy, EnergySweep, PowerModel};
    pub use crate::estimator::{
        Estimator, IdentifyStrategy, ProfiledEstimator, SamplingEstimate, DEFAULT_SHADOW_RATE,
    };
    pub use crate::evalcache::EvalCache;
    pub use crate::experiment::{
        fill_naive_average, run_corpus, run_one, run_one_with, sensitivity, sensitivity_resampled,
        summarize, ExperimentConfig, ExperimentRow, SensitivityPoint, Summary,
    };
    pub use crate::extrapolate::{calibrate_extrapolator, fit_power, Extrapolator};
    pub use crate::fingerprint::{DensityClass, Fingerprint, FingerprintDelta, Fingerprinted};
    pub use crate::framework::{PartitionedWorkload, SampleSpec, Sampleable, ThresholdSpace};
    pub use crate::profile::{Profilable, ProfiledWorkload, Resampleable};
    pub use crate::search::{
        candidate_splits, minimize_partition, PartitionMinimum, PartitionOutcome, ProfiledSearcher,
        SearchOutcome, Searcher, Strategy, UnknownStrategy, DEFAULT_GRADIENT_EVALS,
    };
    pub use crate::threshold_cache::{CacheStats, ThresholdCache, SHADOW_REGRET_CAPACITY};
    pub use crate::workloads::{
        CcSampler, CcWorkload, DenseGemmWorkload, HhSampler, HhWorkload, ListRankingWorkload,
        MultiPlatform, MultiRunReport, MultiSpmmWorkload, Shares, SortWorkload, SpmmWorkload,
        SpmvWorkload,
    };
    pub use nbwp_par::Pool;
    pub use nbwp_sim::{
        CurveEval, Device, DeviceKind, DeviceSet, Link, Partition, Platform, SimTime,
    };
    pub use nbwp_trace::{
        validate_audit_jsonl, AuditCheck, AuditEvent, AuditTotals, CacheDecision, FlightRecorder,
        Recorder, Trace,
    };
}
