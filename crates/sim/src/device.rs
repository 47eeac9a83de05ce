//! Device topology descriptors and partition vectors for k-way splits.
//!
//! The paper's exposition — and this repo's original pipeline — assume one
//! CPU attached to one GPU, so a single scalar threshold describes the
//! whole partition. This module generalizes that to a [`DeviceSet`] (an
//! ordered list of [`Device`]s, each a CPU- or GPU-class executor with a
//! relative speed and its own [`Link`] to the host) and a [`Partition`] (a
//! vector of ordered, contiguous device spans over the unit domain).
//!
//! The two-device canonical set [`DeviceSet::cpu_gpu`] reproduces the
//! original scalar pipeline **bitwise**: its CPU is the platform CPU at
//! speed 1 with no link cost, its GPU the platform GPU at speed 1 over the
//! platform PCIe — so every per-band price collapses to exactly the same
//! float operations the scalar `RunBreakdown` pricing performs. Larger
//! presets model multi-CPU + multi-GPU nodes with asymmetric PCIe/NIC
//! links, the deployment shape of Tzovas & Predari's experimental study
//! (see PAPERS.md).
//!
//! Ordering convention: CPU-class devices come first, then GPU-class
//! devices, and a partition assigns them contiguous bands left to right.
//! This mirrors the scalar convention (CPU prefix, GPU suffix) and is what
//! lets kernel crates price CPU bands with prefix-style replay machinery
//! and GPU bands with suffix-style machinery.

use std::fmt;
use std::str::FromStr;

use crate::{PcieModel, Platform, SimTime};

/// Which class of executor a [`Device`] is. The class selects the pricing
/// model (CPU multicore model vs GPU throughput model) and, for irregular
/// workloads, which banded kernel variant the device runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DeviceKind {
    /// Multicore CPU-class executor, priced by the platform's CPU model.
    Cpu,
    /// Throughput GPU-class executor, priced by the platform's GPU model.
    Gpu,
}

/// How a [`Device`] is attached to the host.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Link {
    /// Host-resident: no transfer cost (the canonical CPU).
    Host,
    /// The pricing platform's own PCIe model — whatever `Platform::pcie`
    /// says. The canonical GPU uses this, which is what makes two-device
    /// band pricing bitwise equal to the scalar pipeline.
    PlatformPcie,
    /// A dedicated link with its own model (a second PCIe slot, or a
    /// NIC-attached remote accelerator).
    Pcie(PcieModel),
}

/// One executor in a [`DeviceSet`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Device {
    /// Executor class (selects the pricing model).
    pub kind: DeviceKind,
    /// Relative speed against the platform's model of this class. Compute
    /// time for a band is the platform model's time divided by `speed`;
    /// `1.0` is the platform device itself (division by 1.0 is an IEEE
    /// bitwise identity, preserving scalar parity).
    pub speed: f64,
    /// Host attachment for this device's transfers.
    pub link: Link,
}

impl Device {
    /// The canonical host CPU: platform CPU model, speed 1, no link cost.
    #[must_use]
    pub fn cpu() -> Self {
        Device {
            kind: DeviceKind::Cpu,
            speed: 1.0,
            link: Link::Host,
        }
    }

    /// The canonical GPU: platform GPU model, speed 1, platform PCIe.
    #[must_use]
    pub fn gpu() -> Self {
        Device {
            kind: DeviceKind::Gpu,
            speed: 1.0,
            link: Link::PlatformPcie,
        }
    }

    /// This device at a different relative speed.
    ///
    /// # Panics
    /// Panics if `speed` is not finite and positive.
    #[must_use]
    pub fn with_speed(mut self, speed: f64) -> Self {
        assert!(
            speed.is_finite() && speed > 0.0,
            "device speed must be finite and positive"
        );
        self.speed = speed;
        self
    }

    /// This device behind a different host link.
    #[must_use]
    pub fn with_link(mut self, link: Link) -> Self {
        self.link = link;
        self
    }

    /// Scales a platform-model compute time by this device's speed.
    /// Speed 1.0 returns `t` bitwise (IEEE division identity).
    #[must_use]
    pub fn scale(&self, t: SimTime) -> SimTime {
        t / self.speed
    }

    /// Transfer time for `bytes` over this device's link.
    #[must_use]
    pub fn transfer(&self, platform: &Platform, bytes: u64) -> SimTime {
        match self.link {
            Link::Host => SimTime::ZERO,
            Link::PlatformPcie => platform.transfer(bytes),
            Link::Pcie(model) => model.transfer(bytes),
        }
    }
}

/// Error for [`DeviceSet::from_str`]: the name matched no preset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownPreset(pub String);

impl fmt::Display for UnknownPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown device preset '{}' (expected one of: {})",
            self.0,
            DeviceSet::preset_names().join(", ")
        )
    }
}

impl std::error::Error for UnknownPreset {}

/// An ordered heterogeneous topology: the devices a [`Partition`] assigns
/// bands to, CPU-class first, then GPU-class.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSet {
    name: String,
    devices: Vec<Device>,
    /// [`DeviceSet::digest`], computed once by [`DeviceSet::try_new`].
    digest: u64,
}

impl DeviceSet {
    /// Builds a set from an ordered device list.
    ///
    /// # Panics
    /// Panics if fewer than two devices are given or a CPU-class device
    /// follows a GPU-class one (the ordering convention above).
    #[must_use]
    pub fn new(name: impl Into<String>, devices: Vec<Device>) -> Self {
        match DeviceSet::try_new(name, devices) {
            Ok(set) => set,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`DeviceSet::new`] for loaders of user-supplied topologies
    /// (the CLI's `--devices file.json`): every structural rule is reported
    /// as an error naming the offending device position instead of
    /// panicking.
    pub fn try_new(name: impl Into<String>, devices: Vec<Device>) -> Result<Self, String> {
        if devices.len() < 2 {
            return Err(format!(
                "a device set needs at least 2 devices, got {}",
                devices.len()
            ));
        }
        for (i, d) in devices.iter().enumerate() {
            if !(d.speed.is_finite() && d.speed > 0.0) {
                return Err(format!(
                    "devices[{i}]: speed must be finite and positive, got {}",
                    d.speed
                ));
            }
            if let Link::Pcie(model) = d.link {
                if !(model.bw_gbs.is_finite() && model.bw_gbs > 0.0) {
                    return Err(format!(
                        "devices[{i}]: link bandwidth must be finite and positive, got {}",
                        model.bw_gbs
                    ));
                }
                if !(model.latency_us.is_finite() && model.latency_us >= 0.0) {
                    return Err(format!(
                        "devices[{i}]: link latency must be finite and non-negative, got {}",
                        model.latency_us
                    ));
                }
            }
        }
        let first_gpu = devices
            .iter()
            .position(|d| d.kind == DeviceKind::Gpu)
            .unwrap_or(devices.len());
        if let Some(off) = devices[first_gpu..]
            .iter()
            .position(|d| d.kind == DeviceKind::Cpu)
        {
            return Err(format!(
                "devices[{}]: CPU-class devices must precede GPU-class devices",
                first_gpu + off
            ));
        }
        let digest = crate::Digest::default()
            .bytes(format!("{devices:?}").as_bytes())
            .finish();
        Ok(DeviceSet {
            name: name.into(),
            devices,
            digest,
        })
    }

    /// The canonical two-device set: the scalar CPU+GPU pipeline as a
    /// degenerate topology. Band pricing under this set is bitwise equal
    /// to the scalar threshold pipeline.
    #[must_use]
    pub fn cpu_gpu() -> Self {
        DeviceSet::new("cpu-gpu", vec![Device::cpu(), Device::gpu()])
    }

    /// The process-wide shared [`DeviceSet::cpu_gpu`] instance, for hot
    /// paths (cache-key construction, drift serving) that must not
    /// allocate a fresh set per request.
    #[must_use]
    pub fn cpu_gpu_static() -> &'static DeviceSet {
        static CANONICAL: std::sync::OnceLock<DeviceSet> = std::sync::OnceLock::new();
        CANONICAL.get_or_init(DeviceSet::cpu_gpu)
    }

    /// k=4 preset: two CPUs (the platform CPU plus a half-speed sibling)
    /// and two GPUs (the platform GPU plus a 3/4-speed card on its own
    /// PCIe 2.0 slot).
    #[must_use]
    pub fn dual_cpu_dual_gpu() -> Self {
        DeviceSet::new(
            "dual-cpu-dual-gpu",
            vec![
                Device::cpu(),
                Device::cpu().with_speed(0.5),
                Device::gpu(),
                Device::gpu()
                    .with_speed(0.75)
                    .with_link(Link::Pcie(PcieModel::gen2_x16())),
            ],
        )
    }

    /// k=8 preset: four CPUs and four GPUs with mixed speeds and links,
    /// including a NIC-attached remote accelerator — the heterogeneous
    /// cluster node shape of Tzovas & Predari's study.
    #[must_use]
    pub fn quad_cpu_quad_gpu() -> Self {
        DeviceSet::new(
            "quad-cpu-quad-gpu",
            vec![
                Device::cpu(),
                Device::cpu().with_speed(0.8),
                Device::cpu().with_speed(0.5),
                Device::cpu().with_speed(0.25),
                Device::gpu(),
                Device::gpu().with_speed(0.75),
                Device::gpu()
                    .with_speed(0.6)
                    .with_link(Link::Pcie(PcieModel::gen2_x16())),
                Device::gpu()
                    .with_speed(0.5)
                    .with_link(Link::Pcie(PcieModel::nic_10g())),
            ],
        )
    }

    /// Names accepted by [`DeviceSet::from_str`], for error messages and
    /// CLI help.
    #[must_use]
    pub fn preset_names() -> Vec<&'static str> {
        vec!["cpu-gpu", "dual-cpu-dual-gpu", "quad-cpu-quad-gpu"]
    }

    /// The preset (or constructor-given) name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of devices (the partition arity `k`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Always false — sets hold at least two devices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The ordered devices.
    #[must_use]
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// True when this set is the canonical scalar pipeline: exactly the
    /// platform CPU and the platform GPU at speed 1 over their canonical
    /// links. Search layers use this to route k=2 through the scalar code
    /// path, which is what pins bitwise parity by construction.
    #[must_use]
    pub fn is_canonical_pair(&self) -> bool {
        self.devices.len() == 2
            && self.devices[0] == Device::cpu()
            && self.devices[1] == Device::gpu()
    }

    /// Stable 64-bit [`Digest`](crate::Digest) of the device list, taken
    /// over its `Debug` rendering (which covers every device field by
    /// construction, as [`Platform::digest`](crate::Platform::digest)
    /// does). Two sets digest equally iff their device lists are bitwise
    /// equal, so the digest can key caches: a k=2 and a k=4 estimate for
    /// the same input must never alias. Computed once at construction, so
    /// the serving paths that key every request on it never allocate.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Proportional-balancing weights for seeding a k-way split, in device
    /// order: each device's relative speed, with GPU-class devices scaled
    /// by the platform's GPU:CPU peak ratio (`gpu_flops_share` in `[0,1)`,
    /// as from `Platform::gpu_flops_share`). This is the closed-form
    /// Lagrangian proportional seed of Cérin et al. / the DSAGAnalysis
    /// partition solver: work fractions proportional to device rates.
    ///
    /// # Panics
    /// Panics if `gpu_flops_share` is not in `[0, 1)`.
    #[must_use]
    pub fn weights(&self, gpu_flops_share: f64) -> Vec<f64> {
        assert!(
            (0.0..1.0).contains(&gpu_flops_share),
            "gpu_flops_share must be in [0, 1)"
        );
        let gpu_rate = gpu_flops_share / (1.0 - gpu_flops_share);
        self.devices
            .iter()
            .map(|d| match d.kind {
                DeviceKind::Cpu => d.speed,
                DeviceKind::Gpu => d.speed * gpu_rate,
            })
            .collect()
    }
}

impl FromStr for DeviceSet {
    type Err = UnknownPreset;

    /// Parses a preset by name (hyphens and underscores interchangeable).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.replace('_', "-").as_str() {
            "cpu-gpu" => Ok(DeviceSet::cpu_gpu()),
            "dual-cpu-dual-gpu" => Ok(DeviceSet::dual_cpu_dual_gpu()),
            "quad-cpu-quad-gpu" => Ok(DeviceSet::quad_cpu_quad_gpu()),
            _ => Err(UnknownPreset(s.to_string())),
        }
    }
}

/// An ordered k-way split of `units` contiguous work units: device `i` of
/// the companion [`DeviceSet`] takes the band between interior cut `i-1`
/// and interior cut `i` (with the domain edges as the outer cuts). A
/// two-device partition is exactly the scalar split index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    units: usize,
    /// The `k - 1` interior cuts, non-decreasing, each in `0..=units`.
    cuts: Vec<usize>,
}

impl Partition {
    /// Builds a partition from its interior cuts.
    ///
    /// # Panics
    /// Panics if `cuts` is empty, decreasing anywhere, or exceeds `units`.
    #[must_use]
    pub fn new(units: usize, cuts: Vec<usize>) -> Self {
        assert!(!cuts.is_empty(), "a partition needs at least one cut");
        assert!(
            cuts.windows(2).all(|w| w[0] <= w[1]),
            "cuts must be non-decreasing"
        );
        assert!(
            *cuts.last().expect("non-empty") <= units,
            "cuts must not exceed the unit count"
        );
        Partition { units, cuts }
    }

    /// The scalar two-device split: units `0..split` to the first device,
    /// `split..units` to the second.
    #[must_use]
    pub fn two_way(units: usize, split: usize) -> Self {
        Partition::new(units, vec![split])
    }

    /// Seeds a partition with band sizes proportional to `weights`
    /// (cumulative rounding, so cuts are non-decreasing by construction).
    ///
    /// # Panics
    /// Panics if `weights` has fewer than two entries or a non-finite or
    /// negative entry, or all weights are zero.
    #[must_use]
    pub fn proportional(units: usize, weights: &[f64]) -> Self {
        assert!(weights.len() >= 2, "need at least two device weights");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut cuts = Vec::with_capacity(weights.len() - 1);
        let mut acc = 0.0;
        for w in &weights[..weights.len() - 1] {
            acc += w;
            let cut = ((units as f64) * (acc / total)).round() as usize;
            let floor = cuts.last().copied().unwrap_or(0);
            cuts.push(cut.clamp(floor, units));
        }
        Partition { units, cuts }
    }

    /// Number of work units the partition covers.
    #[must_use]
    pub fn units(&self) -> usize {
        self.units
    }

    /// Partition arity `k` (number of bands / devices).
    #[must_use]
    pub fn arity(&self) -> usize {
        self.cuts.len() + 1
    }

    /// The interior cuts (length `k - 1`).
    #[must_use]
    pub fn cuts(&self) -> &[usize] {
        &self.cuts
    }

    /// The `(lo, hi)` unit range of band `i`.
    ///
    /// # Panics
    /// Panics if `i >= arity()`.
    #[must_use]
    pub fn band(&self, i: usize) -> (usize, usize) {
        assert!(i < self.arity(), "band index out of range");
        let lo = if i == 0 { 0 } else { self.cuts[i - 1] };
        let hi = if i == self.cuts.len() {
            self.units
        } else {
            self.cuts[i]
        };
        (lo, hi)
    }

    /// Iterates the `(lo, hi)` ranges of all `k` bands in device order.
    pub fn bands(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.arity()).map(|i| self.band(i))
    }

    /// Per-device band fractions: band length over `units`, i.e. the
    /// share of the *units* (rows for spmm, vertices for cc), not of the
    /// work. All-zero when the partition covers zero units.
    #[must_use]
    pub fn fractions(&self) -> Vec<f64> {
        self.bands()
            .map(|(lo, hi)| {
                if self.units == 0 {
                    0.0
                } else {
                    (hi - lo) as f64 / self.units as f64
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_pair_is_the_scalar_pipeline() {
        let set = DeviceSet::cpu_gpu();
        assert!(set.is_canonical_pair());
        assert_eq!(set.len(), 2);
        assert!(!DeviceSet::dual_cpu_dual_gpu().is_canonical_pair());
        // A re-speeded pair is not canonical even at arity 2.
        let tweaked = DeviceSet::new("t", vec![Device::cpu().with_speed(2.0), Device::gpu()]);
        assert!(!tweaked.is_canonical_pair());
    }

    #[test]
    fn presets_parse_by_name_and_reject_unknown() {
        for name in DeviceSet::preset_names() {
            let set: DeviceSet = name.parse().expect(name);
            assert_eq!(set.name(), name);
            let underscored: DeviceSet = name.replace('-', "_").parse().expect(name);
            assert_eq!(underscored, set);
        }
        let err = "warehouse-scale".parse::<DeviceSet>().unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("warehouse-scale") && msg.contains("cpu-gpu"),
            "{msg}"
        );
    }

    #[test]
    fn digests_separate_topologies() {
        let k2 = DeviceSet::cpu_gpu();
        let k4 = DeviceSet::dual_cpu_dual_gpu();
        let k8 = DeviceSet::quad_cpu_quad_gpu();
        assert_eq!(k2.digest(), DeviceSet::cpu_gpu().digest());
        assert_ne!(k2.digest(), k4.digest());
        assert_ne!(k4.digest(), k8.digest());
        // Any parameter change moves the digest.
        let tweaked = DeviceSet::new("t", vec![Device::cpu(), Device::gpu().with_speed(0.99)]);
        assert_ne!(tweaked.digest(), k2.digest());
    }

    #[test]
    #[should_panic(expected = "precede GPU-class")]
    fn rejects_gpu_before_cpu() {
        let _ = DeviceSet::new("bad", vec![Device::gpu(), Device::cpu()]);
    }

    #[test]
    fn try_new_reports_position_numbered_errors() {
        let err = DeviceSet::try_new("tiny", vec![Device::cpu()]).unwrap_err();
        assert!(err.contains("at least 2"), "{err}");
        let err = DeviceSet::try_new("bad", vec![Device::cpu(), Device::gpu(), Device::cpu()])
            .unwrap_err();
        assert!(err.contains("devices[2]"), "{err}");
        let mut slow = Device::gpu();
        slow.speed = -1.0;
        let err = DeviceSet::try_new("bad", vec![Device::cpu(), slow]).unwrap_err();
        assert!(err.contains("devices[1]") && err.contains("speed"), "{err}");
        let dead_link = Device::gpu().with_link(Link::Pcie(PcieModel {
            latency_us: 10.0,
            bw_gbs: 0.0,
        }));
        let err = DeviceSet::try_new("bad", vec![Device::cpu(), dead_link]).unwrap_err();
        assert!(
            err.contains("devices[1]") && err.contains("bandwidth"),
            "{err}"
        );
        let ok = DeviceSet::try_new("pair", vec![Device::cpu(), Device::gpu()]).unwrap();
        assert_eq!(
            ok,
            DeviceSet::new("pair", vec![Device::cpu(), Device::gpu()])
        );
    }

    #[test]
    fn speed_one_scale_is_bitwise_identity() {
        let t = SimTime::from_secs(0.123_456_789_012_345_6);
        assert_eq!(Device::cpu().scale(t), t);
        assert_eq!(Device::gpu().scale(t), t);
        assert_ne!(Device::cpu().with_speed(2.0).scale(t), t);
    }

    #[test]
    fn link_transfers() {
        let p = Platform::k40c_xeon_e5_2650();
        assert_eq!(Device::cpu().transfer(&p, 1 << 20), SimTime::ZERO);
        assert_eq!(Device::gpu().transfer(&p, 1 << 20), p.transfer(1 << 20));
        let slow = Device::gpu().with_link(Link::Pcie(PcieModel::gen2_x16()));
        assert!(slow.transfer(&p, 1 << 20) > p.transfer(1 << 20));
        let nic = Device::gpu().with_link(Link::Pcie(PcieModel::nic_10g()));
        assert!(nic.transfer(&p, 1 << 20) > slow.transfer(&p, 1 << 20));
    }

    #[test]
    fn partition_bands_tile_the_domain() {
        let p = Partition::new(100, vec![10, 10, 60]);
        assert_eq!(p.arity(), 4);
        let bands: Vec<_> = p.bands().collect();
        assert_eq!(bands, vec![(0, 10), (10, 10), (10, 60), (60, 100)]);
        // Bands tile: each starts where the previous ended.
        for w in bands.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        assert_eq!(bands[0].0, 0);
        assert_eq!(bands.last().unwrap().1, 100);
        let f = p.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(f[1], 0.0); // empty band
    }

    #[test]
    fn two_way_partition_is_the_scalar_split() {
        let p = Partition::two_way(500, 123);
        assert_eq!(p.arity(), 2);
        assert_eq!(p.band(0), (0, 123));
        assert_eq!(p.band(1), (123, 500));
    }

    #[test]
    fn proportional_seed_tracks_weights() {
        let p = Partition::proportional(1000, &[1.0, 1.0, 2.0]);
        assert_eq!(p.cuts(), &[250, 500]);
        let f = p.fractions();
        assert!((f[2] - 0.5).abs() < 1e-9);
        // Zero-weight devices get empty bands.
        let z = Partition::proportional(10, &[0.0, 1.0]);
        assert_eq!(z.cuts(), &[0]);
    }

    #[test]
    fn weights_scale_gpus_by_flops_share() {
        let set = DeviceSet::cpu_gpu();
        let w = set.weights(0.8);
        assert_eq!(w[0], 1.0);
        assert!((w[1] - 4.0).abs() < 1e-12);
        let quad = DeviceSet::quad_cpu_quad_gpu().weights(0.5);
        assert_eq!(quad.len(), 8);
        assert!(quad[3] < quad[0]); // slower CPU, smaller weight
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_decreasing_cuts() {
        let _ = Partition::new(10, vec![5, 3]);
    }
}
