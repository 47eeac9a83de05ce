//! Workload adapters, each implementing [`crate::framework`]'s traits: the
//! paper's three case studies (`cc`, `spmm`, and scale-free spmm in
//! `scalefree`), the dense-GEMM motivating workload (`dense`), and three
//! case studies beyond the paper (`spmv`, hybrid sorting in `sort`, and
//! list ranking in `list`). Multi-device splits need no workload of their
//! own: the cost curves of `cc`, `spmm` and `dense` price k-way device
//! bands.

use nbwp_par::Pool;
use nbwp_sim::{CurveEval, Platform, ProfileScratch, RunReport};

use crate::framework::PartitionedWorkload;
use crate::profile::Profilable;

pub mod cc;
pub mod dense;
pub mod list;
pub mod scalefree;
pub mod sort;
pub mod spmm;
pub mod spmv;

pub use cc::{CcSampler, CcWorkload};
pub use dense::DenseGemmWorkload;
pub use list::ListRankingWorkload;
pub use scalefree::{HhProfile, HhSampler, HhWorkload};
pub use sort::SortWorkload;
pub use spmm::{SpmmProfile, SpmmWorkload};
pub use spmv::SpmvWorkload;

/// A workload whose run depends on its threshold only through how many of
/// its `size()` units go to the CPU (list ranking, sorting, SpMV). Its
/// `run(t)` is `report_at(split_for(t))` and its curve prices every split
/// with that same `report_at`, so it is [`Profilable`] with an empty
/// profile and exact by construction.
pub(crate) trait SplitIndexed: PartitionedWorkload {
    /// The CPU unit count at `t`; panics where the run at `t` does.
    fn split_for(&self, t: f64) -> usize;

    /// The run with `split` units on the CPU.
    fn report_at(&self, split: usize) -> RunReport;
}

/// The cost curve of a [`SplitIndexed`] workload.
struct SplitCurve<'w, W>(&'w W);

impl<W: SplitIndexed> CurveEval for SplitCurve<'_, W> {
    fn splits(&self) -> usize {
        self.0.size() + 1
    }

    fn split_for(&self, t: f64) -> usize {
        self.0.split_for(t)
    }

    fn report_at(&self, split: usize) -> RunReport {
        assert!(split < self.splits(), "split {split} out of range");
        self.0.report_at(split)
    }

    fn platform(&self) -> &Platform {
        self.0.platform()
    }
}

impl<W: SplitIndexed> Profilable for W {
    type Profile = ();

    fn build_profile_in(&self, _pool: &Pool, _scratch: &mut ProfileScratch) {}

    fn curve<'p>(&'p self, (): &'p ()) -> Option<Box<dyn CurveEval + 'p>> {
        Some(Box::new(SplitCurve(self)))
    }
}
