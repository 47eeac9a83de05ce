//! # nbwp-sim — heterogeneous platform simulator
//!
//! Substrate crate for the *Nearly Balanced Work Partitioning* reproduction.
//! The paper's experiments ran on a Tesla K40c + dual Xeon E5-2650; this
//! crate replaces that hardware with deterministic analytic cost models so
//! the whole study is reproducible on any host (see `DESIGN.md`,
//! "Hardware substitution").
//!
//! The flow is:
//!
//! 1. Algorithms in `nbwp-sparse` / `nbwp-graph` / `nbwp-dense` execute for
//!    real on the host and report [`KernelStats`] counters.
//! 2. A [`Platform`] (CPU model + GPU model + PCIe model) converts the same
//!    counters into device-specific [`SimTime`].
//! 3. Each device's share of a run is a [`BandWork`] (counters plus link
//!    bytes). [`BandWork::time_on`] prices it on any [`Device`], and
//!    [`RunReport::two_way`] composes a CPU+GPU run's phases into a
//!    [`RunBreakdown`], overlapping the two device sides like the paper's
//!    Algorithms 1–3 do.
//!
//! ```
//! use nbwp_sim::{KernelStats, Platform};
//!
//! let platform = Platform::k40c_xeon_e5_2650();
//! let kernel = KernelStats {
//!     flops: 1_000_000_000,
//!     simd_padded_flops: 1_000_000_000,
//!     parallel_items: 1 << 20,
//!     kernel_launches: 1,
//!     ..KernelStats::default()
//! };
//! // The K40c is ~7.6x the Xeon on regular flops:
//! assert!(platform.gpu_time(&kernel) < platform.cpu_time(&kernel));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod counters;
mod cpu;
pub mod curve;
pub mod device;
mod gpu;
mod pcie;
mod platform;
pub mod profile;
pub mod scratch;
pub mod sketch;
mod time;

pub use counters::{warp_padded_cost, KernelStats};
pub use cpu::CpuModel;
pub use curve::{percent_split, two_way_report, CurveEval};
pub use device::{Device, DeviceKind, DeviceSet, Link, Partition, UnknownPreset};
pub use gpu::GpuModel;
pub use pcie::PcieModel;
pub use platform::{BandWork, Lane, Platform, RunBreakdown, RunReport};
pub use profile::{PrefixCurve, WarpPadCurve};
pub use scratch::{AlignedU64s, ProfileScratch};
pub use sketch::{degree_moments, log2_bucket, DegreeSketch, Digest};
pub use time::SimTime;
