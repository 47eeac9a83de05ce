//! Heterogeneous platform: one CPU + one GPU + the link between them.

use serde::{Deserialize, Serialize};

use crate::device::{Device, DeviceKind};
use crate::{CpuModel, GpuModel, KernelStats, PcieModel, SimTime};

/// A heterogeneous CPU+GPU computing platform.
///
/// The paper's exposition assumes "a simple heterogeneous system with one
/// CPU attached to one GPU" (§II); so does this type. Extension to a vector
/// of devices would generalize [`Platform::overlap`] to a max over devices.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    /// The multi-core CPU model.
    pub cpu: CpuModel,
    /// The discrete GPU model.
    pub gpu: GpuModel,
    /// The host-device interconnect model.
    pub pcie: PcieModel,
}

impl Platform {
    /// The paper's experimental platform (§III-B.1): Tesla K40c attached to
    /// a dual-socket Xeon E5-2650 over PCIe 3.0.
    #[must_use]
    pub fn k40c_xeon_e5_2650() -> Self {
        Platform {
            cpu: CpuModel::xeon_e5_2650_dual(),
            gpu: GpuModel::tesla_k40c(),
            pcie: PcieModel::gen3_x16(),
        }
    }

    /// A deliberately balanced platform (CPU ≈ GPU peak) for tests and
    /// ablations where the optimal split should sit near 50%.
    #[must_use]
    pub fn balanced() -> Self {
        let mut cpu = CpuModel::xeon_e5_2650_dual();
        let gpu = GpuModel::integrated_small();
        // Match CPU peak to the small GPU's (256 Gflop/s).
        cpu.cores = 16;
        cpu.freq_ghz = 2.0;
        cpu.flops_per_cycle = 8.0;
        Platform {
            cpu,
            gpu,
            pcie: PcieModel::gen3_x16(),
        }
    }

    /// Weak CPU + strong GPU (skews optima toward the GPU).
    #[must_use]
    pub fn gpu_heavy() -> Self {
        Platform {
            cpu: CpuModel::laptop_quad(),
            gpu: GpuModel::tesla_k40c(),
            pcie: PcieModel::gen3_x16(),
        }
    }

    /// Strong CPU + weak GPU over a slow link (skews optima toward the CPU).
    #[must_use]
    pub fn cpu_heavy() -> Self {
        Platform {
            cpu: CpuModel::xeon_e5_2650_dual(),
            gpu: GpuModel::integrated_small(),
            pcie: PcieModel::gen2_x16(),
        }
    }

    /// Scales the platform's *capacity and fixed-overhead* parameters for a
    /// `scale`-sized replica of a full-size input (scaled-down simulation):
    /// cache capacity, kernel-launch overhead, PCIe latency, and parallel
    /// region overhead all shrink by `scale`, while rates (bandwidths,
    /// FLOPS, latencies per access) stay put. This keeps the device time
    /// *ratios* of a miniature input representative of the full-size run —
    /// see `DESIGN.md`.
    ///
    /// # Panics
    /// Panics if `scale` is not in `(0, 1]`.
    #[must_use]
    pub fn scaled_for(mut self, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        // Extensive parameters (capacity, throughput, fixed overheads)
        // scale; intensive ones (frequencies, latencies, widths) stay.
        self.cpu.llc_bytes = ((self.cpu.llc_bytes as f64 * scale) as u64).max(1 << 14);
        self.cpu.parallel_region_overhead_us *= scale;
        self.cpu.rate_scale *= scale;
        self.gpu.launch_overhead_us *= scale;
        self.gpu.rate_scale *= scale;
        self.pcie.latency_us *= scale;
        self.pcie.bw_gbs *= scale;
        self
    }

    /// Scales only the *fixed-cost and capacity* parameters (kernel-launch
    /// overhead, PCIe latency, parallel-region overhead, cache capacity,
    /// occupancy denominator) by `ratio`, leaving all throughputs alone.
    ///
    /// This is how sample runs are priced during the Identify step: a
    /// `ratio`-sized miniature then sees the same *relative* cost landscape
    /// as the full input (no fixed-cost floor drowning the signal), while
    /// its absolute run time still shrinks only linearly with its size — so
    /// the estimation-cost-vs-sample-size trade-off of the paper's
    /// sensitivity studies (Figs. 4/6/9) is preserved.
    ///
    /// # Panics
    /// Panics if `ratio` is not in `(0, 1]`.
    #[must_use]
    pub fn sample_scaled(mut self, ratio: f64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
        self.cpu.llc_bytes = ((self.cpu.llc_bytes as f64 * ratio) as u64).max(1 << 8);
        self.cpu.parallel_region_overhead_us *= ratio;
        self.gpu.launch_overhead_us *= ratio;
        self.gpu.latency_hiding_factor *= ratio;
        self.pcie.latency_us *= ratio;
        self
    }

    /// Stable 64-bit [`Digest`](crate::Digest) of every platform parameter,
    /// taken over the derived `Debug` rendering. Two platforms digest
    /// equally iff they are bitwise-equal, so the digest can key caches of
    /// platform-dependent decisions (threshold estimates must never be
    /// served across platforms).
    #[must_use]
    pub fn digest(&self) -> u64 {
        // All fields are plain numbers, so the derived `Debug` rendering is a
        // canonical byte representation that covers every field by
        // construction (f64 formatting is shortest-roundtrip and injective
        // on non-NaN values).
        crate::Digest::default()
            .bytes(format!("{self:?}").as_bytes())
            .finish()
    }

    /// Fraction of total spec-sheet FLOPS contributed by the GPU, in
    /// `[0, 1]`. This is what the paper's *NaiveStatic* partitioner uses.
    #[must_use]
    pub fn gpu_flops_share(&self) -> f64 {
        let g = self.gpu.peak_gflops();
        let c = self.cpu.peak_gflops();
        g / (g + c)
    }

    /// CPU time for a kernel using all cores.
    #[must_use]
    pub fn cpu_time(&self, stats: &KernelStats) -> SimTime {
        self.cpu.time(stats, self.cpu.cores)
    }

    /// GPU time for a kernel.
    #[must_use]
    pub fn gpu_time(&self, stats: &KernelStats) -> SimTime {
        self.gpu.time(stats)
    }

    /// Host → device (or back) transfer time.
    #[must_use]
    pub fn transfer(&self, bytes: u64) -> SimTime {
        self.pcie.transfer(bytes)
    }

    /// Overlapped execution of two device-resident phases: both devices run
    /// concurrently, so the platform finishes when the slower one does.
    #[must_use]
    pub fn overlap(cpu: SimTime, gpu: SimTime) -> SimTime {
        cpu.max(gpu)
    }
}

/// Timing breakdown of one heterogeneous run, mirroring the phase structure
/// of the paper's Algorithms 1–3: a partitioning prologue, an overlapped
/// compute phase (CPU side incl. its share of transfers vs GPU side), and a
/// merge/combine epilogue.
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunBreakdown {
    /// Phase I: computing and applying the partition (includes threshold
    /// estimation time when the sampling method is used).
    pub partition: SimTime,
    /// Host → GPU input transfer (serial with GPU compute).
    pub transfer_in: SimTime,
    /// CPU-side compute of Phase II.
    pub cpu_compute: SimTime,
    /// GPU-side compute of Phase II.
    pub gpu_compute: SimTime,
    /// GPU → host result transfer.
    pub transfer_out: SimTime,
    /// Phase III/IV: merging per-device results.
    pub merge: SimTime,
}

/// One of the six timing lanes of a [`RunBreakdown`], in pipeline order.
///
/// A lane names *where* a slice of a heterogeneous run's time goes; the
/// companion [`RunBreakdown::lanes`] method gives each lane its start offset
/// and duration so observability layers can lay the run out on a timeline
/// without re-deriving the overlap structure.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Lane {
    /// Phase I: computing and applying the partition (host side).
    Partition,
    /// Host → GPU input transfer.
    TransferIn,
    /// CPU-side compute of Phase II.
    CpuCompute,
    /// GPU-side compute of Phase II.
    GpuCompute,
    /// GPU → host result transfer.
    TransferOut,
    /// Phase III/IV: merging per-device results (host side).
    Merge,
}

impl Lane {
    /// All six lanes in pipeline order.
    pub const ALL: [Lane; 6] = [
        Lane::Partition,
        Lane::TransferIn,
        Lane::CpuCompute,
        Lane::GpuCompute,
        Lane::TransferOut,
        Lane::Merge,
    ];

    /// Stable snake_case name (used as the span name in trace exports).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Lane::Partition => "partition",
            Lane::TransferIn => "transfer_in",
            Lane::CpuCompute => "cpu_compute",
            Lane::GpuCompute => "gpu_compute",
            Lane::TransferOut => "transfer_out",
            Lane::Merge => "merge",
        }
    }

    /// Whether this lane occupies the GPU side of the pipeline (transfers
    /// ride the GPU side because they serialize with GPU compute).
    #[must_use]
    pub fn on_gpu(self) -> bool {
        matches!(
            self,
            Lane::TransferIn | Lane::GpuCompute | Lane::TransferOut
        )
    }
}

impl RunBreakdown {
    /// End-to-end simulated time: partition, then CPU work overlapped with
    /// (transfer in → GPU work → transfer out), then merge.
    #[must_use]
    pub fn total(&self) -> SimTime {
        let gpu_side = self.transfer_in + self.gpu_compute + self.transfer_out;
        self.partition + Platform::overlap(self.cpu_compute, gpu_side) + self.merge
    }

    /// Time of Phase II alone (the overlapped heterogeneous computation),
    /// used by the paper's Figure 3(b) secondary axis.
    #[must_use]
    pub fn phase2(&self) -> SimTime {
        let gpu_side = self.transfer_in + self.gpu_compute + self.transfer_out;
        Platform::overlap(self.cpu_compute, gpu_side)
    }

    /// Lays the six lanes out on a timeline relative to the run's start:
    /// `(lane, start offset, duration)`, in [`Lane::ALL`] order.
    ///
    /// Encodes the same overlap structure as [`RunBreakdown::total`]: the
    /// CPU compute and the transfer-in → GPU compute → transfer-out chain
    /// both start when partitioning ends, and the merge starts when the
    /// slower of the two sides finishes.
    #[must_use]
    pub fn lanes(&self) -> [(Lane, SimTime, SimTime); 6] {
        let phase2_start = self.partition;
        let gpu_compute_start = phase2_start + self.transfer_in;
        let transfer_out_start = gpu_compute_start + self.gpu_compute;
        let merge_start = phase2_start + self.phase2();
        [
            (Lane::Partition, SimTime::ZERO, self.partition),
            (Lane::TransferIn, phase2_start, self.transfer_in),
            (Lane::CpuCompute, phase2_start, self.cpu_compute),
            (Lane::GpuCompute, gpu_compute_start, self.gpu_compute),
            (Lane::TransferOut, transfer_out_start, self.transfer_out),
            (Lane::Merge, merge_start, self.merge),
        ]
    }

    /// Imbalance between device sides as a fraction of the slower side:
    /// `0.0` means perfectly balanced. A "nearly balanced work partition"
    /// (the paper's goal) keeps this small.
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let gpu_side = self.transfer_in + self.gpu_compute + self.transfer_out;
        let slow = self.cpu_compute.max(gpu_side);
        if slow.is_zero() {
            return 0.0;
        }
        let fast = self.cpu_compute.min(gpu_side);
        1.0 - fast / slow
    }
}

/// Complete record of one heterogeneous run: timing plus the counters each
/// device executed. Workload adapters in `nbwp-core` return this.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Per-phase timing.
    pub breakdown: RunBreakdown,
    /// Counters executed on the CPU side.
    pub cpu_stats: KernelStats,
    /// Counters executed on the GPU side.
    pub gpu_stats: KernelStats,
}

impl RunReport {
    /// The scalar report of a CPU+GPU run: the CPU executes `cpu_stats`
    /// host-resident, the GPU executes `gpu` behind the platform's PCIe.
    /// With [`BandWork::time_on`] this is the whole lane rule: at the
    /// canonical device pair the CPU lane is the CPU band's `time_on`
    /// and the transfer-in + GPU compute + transfer-out chain is the GPU
    /// band's, bitwise.
    #[must_use]
    pub fn two_way(
        platform: &Platform,
        partition: SimTime,
        cpu_stats: KernelStats,
        gpu: BandWork,
        merge: SimTime,
    ) -> RunReport {
        RunReport {
            breakdown: RunBreakdown {
                partition,
                transfer_in: platform.transfer(gpu.bytes_in),
                cpu_compute: platform.cpu_time(&cpu_stats),
                gpu_compute: platform.gpu_time(&gpu.stats),
                transfer_out: platform.transfer(gpu.bytes_out),
                merge,
            },
            cpu_stats,
            gpu_stats: gpu.stats,
        }
    }

    /// End-to-end simulated time.
    #[must_use]
    pub fn total(&self) -> SimTime {
        self.breakdown.total()
    }
}

/// What one device's share of a run does before it is priced: the kernel
/// counters it executes and the bytes it ships over its host link in each
/// direction. Workloads count; [`BandWork::time_on`] and
/// [`RunReport::two_way`] price.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BandWork {
    /// Counters of the band's kernel.
    pub stats: KernelStats,
    /// Bytes shipped host → device before the kernel runs.
    pub bytes_in: u64,
    /// Bytes shipped device → host after it finishes.
    pub bytes_out: u64,
}

impl BandWork {
    /// The band's price on `device`: the platform model of the device's
    /// class scaled by its speed, plus, on GPU-class devices, the link
    /// transfers around it. CPU-class devices are host-resident and ship
    /// nothing.
    #[must_use]
    pub fn time_on(&self, device: &Device, platform: &Platform) -> SimTime {
        match device.kind {
            DeviceKind::Cpu => device.scale(platform.cpu_time(&self.stats)),
            DeviceKind::Gpu => {
                device.transfer(platform, self.bytes_in)
                    + device.scale(platform.gpu_time(&self.stats))
                    + device.transfer(platform, self.bytes_out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DeviceSet, Partition};
    use crate::{two_way_report, CurveEval};
    use proptest::prelude::*;

    #[test]
    fn overlap_is_max() {
        let a = SimTime::from_millis(3.0);
        let b = SimTime::from_millis(5.0);
        assert_eq!(Platform::overlap(a, b), b);
        assert!(Platform::overlap(a, b) <= a + b);
    }

    #[test]
    fn k40c_platform_flops_share() {
        let p = Platform::k40c_xeon_e5_2650();
        let share = p.gpu_flops_share() * 100.0;
        assert!((87.0..90.0).contains(&share), "share = {share}");
    }

    #[test]
    fn balanced_platform_is_roughly_even() {
        let p = Platform::balanced();
        let share = p.gpu_flops_share();
        assert!((0.4..0.6).contains(&share), "share = {share}");
    }

    #[test]
    fn breakdown_total_composes_phases() {
        let b = RunBreakdown {
            partition: SimTime::from_millis(1.0),
            transfer_in: SimTime::from_millis(2.0),
            cpu_compute: SimTime::from_millis(10.0),
            gpu_compute: SimTime::from_millis(5.0),
            transfer_out: SimTime::from_millis(1.0),
            merge: SimTime::from_millis(0.5),
        };
        // GPU side = 2 + 5 + 1 = 8 < CPU 10, so phase2 = 10.
        assert_eq!(b.phase2(), SimTime::from_millis(10.0));
        assert_eq!(b.total(), SimTime::from_millis(11.5));
    }

    #[test]
    fn imbalance_metric() {
        let balanced = RunBreakdown {
            cpu_compute: SimTime::from_millis(4.0),
            gpu_compute: SimTime::from_millis(4.0),
            ..RunBreakdown::default()
        };
        assert!(balanced.imbalance().abs() < 1e-12);

        let skewed = RunBreakdown {
            cpu_compute: SimTime::from_millis(1.0),
            gpu_compute: SimTime::from_millis(4.0),
            ..RunBreakdown::default()
        };
        assert!((skewed.imbalance() - 0.75).abs() < 1e-12);

        assert_eq!(RunBreakdown::default().imbalance(), 0.0);
    }

    #[test]
    fn lanes_cover_the_breakdown_geometry() {
        let b = RunBreakdown {
            partition: SimTime::from_millis(1.0),
            transfer_in: SimTime::from_millis(2.0),
            cpu_compute: SimTime::from_millis(10.0),
            gpu_compute: SimTime::from_millis(5.0),
            transfer_out: SimTime::from_millis(1.0),
            merge: SimTime::from_millis(0.5),
        };
        let lanes = b.lanes();
        // Pipeline order, names stable.
        let names: Vec<&str> = lanes.iter().map(|&(l, _, _)| l.name()).collect();
        assert_eq!(
            names,
            [
                "partition",
                "transfer_in",
                "cpu_compute",
                "gpu_compute",
                "transfer_out",
                "merge"
            ]
        );
        // Every lane ends no later than the run ends, and the latest lane
        // end *is* the run end.
        let total = b.total();
        let latest = lanes
            .iter()
            .map(|&(_, start, dur)| start + dur)
            .max()
            .unwrap();
        assert_eq!(latest, total);
        // GPU chain is contiguous: in → compute → out.
        assert_eq!(lanes[3].1, lanes[1].1 + lanes[1].2);
        assert_eq!(lanes[4].1, lanes[3].1 + lanes[3].2);
        // Merge starts when the slower side (CPU here) finishes.
        assert_eq!(lanes[5].1, lanes[2].1 + lanes[2].2);
        // Device assignment.
        assert!(!Lane::Partition.on_gpu() && !Lane::CpuCompute.on_gpu());
        assert!(Lane::TransferIn.on_gpu() && Lane::TransferOut.on_gpu());
    }

    #[test]
    fn platform_digest_separates_platforms() {
        let a = Platform::k40c_xeon_e5_2650();
        let b = Platform::balanced();
        assert_eq!(a.digest(), Platform::k40c_xeon_e5_2650().digest());
        assert_ne!(a.digest(), b.digest());
        // Any parameter change moves the digest.
        let scaled = a.scaled_for(0.5);
        assert_ne!(a.digest(), scaled.digest());
    }

    #[test]
    fn cpu_heavy_vs_gpu_heavy_shift_shares() {
        assert!(Platform::cpu_heavy().gpu_flops_share() < 0.6);
        assert!(Platform::gpu_heavy().gpu_flops_share() > 0.9);
    }

    /// A one-unit curve whose CPU and GPU bands are fixed works, priced
    /// by the k-way rule.
    struct FixedBands {
        platform: Platform,
        cpu: BandWork,
        gpu: BandWork,
        partition: SimTime,
        merge: SimTime,
    }

    impl CurveEval for FixedBands {
        fn splits(&self) -> usize {
            2
        }
        fn split_for(&self, _t: f64) -> usize {
            1
        }
        fn report_at(&self, split: usize) -> RunReport {
            two_way_report(self, split, self.merge)
        }
        fn platform(&self) -> &Platform {
            &self.platform
        }
        fn band_work(&self, kind: DeviceKind, _lo: usize, _hi: usize) -> Option<BandWork> {
            Some(match kind {
                DeviceKind::Cpu => self.cpu,
                DeviceKind::Gpu => self.gpu,
            })
        }
        fn partition_overhead(&self) -> SimTime {
            self.partition
        }
        fn merge_cost(&self, _set: &DeviceSet, _p: &Partition) -> SimTime {
            self.merge
        }
    }

    fn platform_by_index(i: usize) -> Platform {
        match i {
            0 => Platform::k40c_xeon_e5_2650(),
            1 => Platform::balanced(),
            2 => Platform::cpu_heavy().scaled_for(0.05),
            _ => Platform::gpu_heavy().sample_scaled(0.3),
        }
    }

    fn band_work(counters: &[u64], bytes_in: u64, bytes_out: u64) -> BandWork {
        let c = |i: usize| counters[i];
        BandWork {
            stats: KernelStats {
                flops: c(0),
                int_ops: c(1),
                mem_read_bytes: c(2),
                mem_write_bytes: c(3),
                irregular_bytes: c(4).min(c(2) + c(3)),
                simd_padded_flops: c(0) + c(5),
                kernel_launches: c(6) % 64,
                sync_rounds: c(7) % 64,
                atomic_ops: c(8),
                parallel_items: c(9),
                working_set_bytes: c(10),
            },
            bytes_in,
            bytes_out,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The scalar report and the k-way price of the canonical pair
        /// are one rule: the shared composition is `RunReport::two_way`
        /// over the band works, with equal totals, bitwise, for any works.
        #[test]
        fn two_way_total_is_the_canonical_partition_total(
            cpu in proptest::collection::vec(0u64..1 << 36, 11),
            gpu in proptest::collection::vec(0u64..1 << 36, 11),
            bytes in (0u64..1 << 34, 0u64..1 << 34, 0u64..1 << 34, 0u64..1 << 34),
            partition_s in 0.0f64..1.0,
            merge_s in 0.0f64..1.0,
            which in 0usize..4,
        ) {
            let platform = platform_by_index(which);
            let curve = FixedBands {
                platform,
                cpu: band_work(&cpu, bytes.0, bytes.1),
                gpu: band_work(&gpu, bytes.2, bytes.3),
                partition: SimTime::from_secs(partition_s),
                merge: SimTime::from_secs(merge_s),
            };
            let scalar = RunReport::two_way(
                &platform,
                curve.partition,
                curve.cpu.stats,
                curve.gpu,
                curve.merge,
            );
            prop_assert_eq!(&curve.report_at(1), &scalar);
            let kway = curve
                .partition_total(&DeviceSet::cpu_gpu(), &Partition::two_way(1, 1))
                .expect("fixed bands price on every device");
            prop_assert_eq!(scalar.total().as_secs().to_bits(), kway.as_secs().to_bits());
        }

        /// Device speed divides the kernel term and nothing else: a
        /// host-resident band's price at speed `s` is its speed-1 price
        /// over `s`, and a GPU band's transfers are speed-independent.
        #[test]
        fn time_on_divides_the_kernel_by_device_speed(
            counters in proptest::collection::vec(0u64..1 << 36, 11),
            bytes in (0u64..1 << 34, 0u64..1 << 34),
            speed in 0.05f64..8.0,
            which in 0usize..4,
        ) {
            let platform = platform_by_index(which);
            let work = band_work(&counters, bytes.0, bytes.1);
            let cpu = Device::cpu();
            prop_assert_eq!(
                work.time_on(&cpu.with_speed(speed), &platform),
                work.time_on(&cpu, &platform) / speed
            );
            let kernel = BandWork { bytes_in: 0, bytes_out: 0, ..work };
            let gpu = Device::gpu();
            prop_assert_eq!(
                kernel.time_on(&gpu.with_speed(speed), &platform),
                kernel.time_on(&gpu, &platform) / speed
            );
            prop_assert_eq!(
                work.time_on(&gpu.with_speed(speed), &platform),
                platform.transfer(work.bytes_in)
                    + platform.gpu_time(&work.stats) / speed
                    + platform.transfer(work.bytes_out)
            );
        }
    }
}
