//! Energy-aware partitioning — the related-work direction the paper cites
//! as \[30\] (Wang & Ren, "Power-efficient work distribution method for
//! CPU-GPU heterogeneous system").
//!
//! A simple activity-based energy model on top of the simulated timing:
//! each device burns its busy power while computing and an idle fraction
//! while the other device finishes. Because the GPU is faster *and* hotter,
//! the energy-optimal threshold generally differs from the time-optimal one
//! — the trade-off \[30\] studies.

use nbwp_sim::{RunReport, SimTime};
use serde::{Deserialize, Serialize};

use crate::framework::PartitionedWorkload;

/// Busy/idle power ratings for a platform (watts).
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// CPU package power while busy.
    pub cpu_busy_w: f64,
    /// CPU package power while idle.
    pub cpu_idle_w: f64,
    /// GPU board power while busy.
    pub gpu_busy_w: f64,
    /// GPU board power while idle.
    pub gpu_idle_w: f64,
}

impl PowerModel {
    /// The paper's platform: dual Xeon E5-2650 (2 × 95 W TDP) + Tesla K40c
    /// (235 W board power), with conventional ~30% idle floors.
    #[must_use]
    pub fn k40c_xeon_e5_2650() -> Self {
        PowerModel {
            cpu_busy_w: 190.0,
            cpu_idle_w: 60.0,
            gpu_busy_w: 235.0,
            gpu_idle_w: 25.0,
        }
    }

    /// Energy (joules) of one heterogeneous run: each side burns busy power
    /// for its own span and idle power while waiting for the slower side;
    /// serial phases (partition, merge) burn CPU-busy + GPU-idle.
    #[must_use]
    pub fn energy_of(&self, report: &RunReport) -> f64 {
        let b = report.breakdown;
        let gpu_side = b.transfer_in + b.gpu_compute + b.transfer_out;
        let span = b.cpu_compute.max(gpu_side);
        let cpu_energy = self.cpu_busy_w * b.cpu_compute.as_secs()
            + self.cpu_idle_w * (span - b.cpu_compute).as_secs();
        let gpu_energy =
            self.gpu_busy_w * gpu_side.as_secs() + self.gpu_idle_w * (span - gpu_side).as_secs();
        let serial = b.partition + b.merge;
        cpu_energy + gpu_energy + serial.as_secs() * (self.cpu_busy_w + self.gpu_idle_w)
    }
}

/// Result of an exhaustive energy sweep.
#[derive(Clone, Debug)]
pub struct EnergySweep {
    /// Energy-optimal threshold.
    pub best_t: f64,
    /// Energy at `best_t`, joules.
    pub best_joules: f64,
    /// Time-optimal threshold over the same grid (for comparison).
    pub time_best_t: f64,
    /// Energy at the *time*-optimal threshold, joules.
    pub joules_at_time_best: f64,
}

/// Sweeps the threshold grid minimizing energy instead of time.
///
/// # Panics
/// Panics if `step` is not positive (or ≤ 1 on logarithmic spaces).
#[must_use]
pub fn exhaustive_energy<W: PartitionedWorkload>(
    w: &W,
    power: &PowerModel,
    step: f64,
) -> EnergySweep {
    let grid = w.space().grid(step);

    let mut best = (grid[0], f64::INFINITY);
    let mut time_best = (grid[0], SimTime::from_secs(f64::MAX / 2.0));
    let mut energies = std::collections::HashMap::new();
    for &t in &grid {
        let report = w.run(t);
        let joules = power.energy_of(&report);
        let total = report.total();
        energies.insert(t.to_bits(), joules);
        if joules < best.1 {
            best = (t, joules);
        }
        if total < time_best.1 {
            time_best = (t, total);
        }
    }
    EnergySweep {
        best_t: best.0,
        best_joules: best.1,
        time_best_t: time_best.0,
        joules_at_time_best: energies[&time_best.0.to_bits()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SpmmWorkload;
    use nbwp_sim::{Platform, RunBreakdown};
    use nbwp_sparse::gen;

    #[test]
    fn energy_accounting_basics() {
        let p = PowerModel::k40c_xeon_e5_2650();
        // 1 s CPU busy, GPU idle the whole time.
        let report = RunReport {
            breakdown: RunBreakdown {
                cpu_compute: SimTime::from_secs(1.0),
                ..RunBreakdown::default()
            },
            ..RunReport::default()
        };
        let j = p.energy_of(&report);
        assert!((j - (190.0 + 25.0)).abs() < 1e-9, "j = {j}");
    }

    #[test]
    fn balanced_run_burns_both_busy_powers() {
        let p = PowerModel::k40c_xeon_e5_2650();
        let report = RunReport {
            breakdown: RunBreakdown {
                cpu_compute: SimTime::from_secs(2.0),
                gpu_compute: SimTime::from_secs(2.0),
                ..RunBreakdown::default()
            },
            ..RunReport::default()
        };
        let j = p.energy_of(&report);
        assert!((j - 2.0 * (190.0 + 235.0)).abs() < 1e-9, "j = {j}");
    }

    #[test]
    fn energy_sweep_runs_and_energy_optimum_is_no_worse_in_joules() {
        let a = gen::uniform_random(1500, 10, 3);
        let w = SpmmWorkload::new(a, Platform::k40c_xeon_e5_2650().scaled_for(0.05));
        let power = PowerModel::k40c_xeon_e5_2650();
        let sweep = exhaustive_energy(&w, &power, 2.0);
        assert!(sweep.best_joules <= sweep.joules_at_time_best + 1e-12);
        assert!((0.0..=100.0).contains(&sweep.best_t));
        assert!((0.0..=100.0).contains(&sweep.time_best_t));
    }

    #[test]
    fn idle_power_is_charged_to_the_waiting_device() {
        let with_idle = PowerModel::k40c_xeon_e5_2650();
        let no_idle = PowerModel {
            cpu_idle_w: 0.0,
            gpu_idle_w: 0.0,
            ..with_idle
        };
        let lopsided = RunReport {
            breakdown: RunBreakdown {
                cpu_compute: SimTime::from_secs(4.0),
                gpu_compute: SimTime::from_secs(0.5),
                ..RunBreakdown::default()
            },
            ..RunReport::default()
        };
        let diff = with_idle.energy_of(&lopsided) - no_idle.energy_of(&lopsided);
        // The GPU idles for 3.5 s at 25 W.
        assert!((diff - 3.5 * 25.0).abs() < 1e-9, "diff = {diff}");
    }
}
