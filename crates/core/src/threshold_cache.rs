//! Bounded-LRU cache of partitioning decisions, keyed by input fingerprint.
//!
//! The cache serves two kinds of decision — the scalar [`SamplingEstimate`]
//! of the canonical CPU+GPU pair and the k-way [`PartitionOutcome`] — from
//! one tier each. A tier is two maps, each bounded by the same per-map
//! capacity (both are [`EvalCache`]s):
//!
//! * **exact** — [`CacheKey`] (fingerprint [`ExactKey`] + estimator
//!   [`ConfigKey`]) → the full decision, stamped with its drift generation.
//!   A hit is served as a clone, **bitwise-identical** to what the cold
//!   path would compute, because equal exact keys certify interchangeable
//!   inputs under an identical estimator configuration.
//! * **near** — the input's quantized fingerprint class ([`NearKey`], plus
//!   the strategy discriminant in a [`NearCacheKey`] or the topology in a
//!   [`PartitionNearKey`]) → the hint the decision left: its split in
//!   sample space ([`WarmHint`]) or its cut vector ([`PartitionHint`]), plus
//!   the cold probe count. A hit does *not* skip the pipeline; it
//!   warm-starts `Strategy::Analytic` from the hint, which measurably
//!   reduces probes.
//!
//! The two kinds differ only in what the crate-private `Decision` trait
//! names — tier, counters, hint, probe count and audit fields — so lookup,
//! insertion and the estimator's serving path are written once over it.
//! [`ThresholdCache::len`] and [`ThresholdCache::is_empty`] count scalar
//! exact entries only.
//!
//! Hit/miss/probe-savings counters are lock-free atomics, flushed to the
//! `nbwp-trace` metrics registry by [`ThresholdCache::flush_metrics`]
//! (reset-on-flush, so repeated flushes never double-count).

use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use nbwp_sim::DeviceSet;
use nbwp_trace::Recorder;

use crate::estimator::SamplingEstimate;
use crate::evalcache::EvalCache;
use crate::fingerprint::{ExactKey, NearKey};
use crate::framework::SampleSpec;
use crate::search::{PartitionOutcome, Strategy};

/// Default entry budget per map. Decisions are tiny (a few hundred bytes),
/// so this comfortably covers a serving mix while bounding memory.
pub const DEFAULT_CAPACITY: usize = 256;

/// Bound on retained shadow-regret observations. Older observations are
/// overwritten ring-style once the buffer is full; the running count keeps
/// going.
pub const SHADOW_REGRET_CAPACITY: usize = 4096;

/// Estimator-configuration component of a cache key: everything besides the
/// input that determines the estimate (strategy + parameters, sample spec,
/// seed, repeat count). Two runs with equal [`ExactKey`] and equal
/// `ConfigKey` are the same computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConfigKey {
    strategy_disc: u8,
    strategy_bits: u64,
    factor_bits: u64,
    seed: u64,
    repeats: usize,
    /// Partition arity (device count) the estimate targets. A k=2 and a
    /// k=4 run over the same input are different computations and must
    /// never alias.
    arity: u8,
    /// [`DeviceSet::digest`] of the topology, so two distinct sets of the
    /// same arity (say, different link speeds) key separately too.
    devices_digest: u64,
}

/// Stable discriminant for a [`Strategy`] (parameters excluded).
fn strategy_disc(strategy: Strategy) -> u8 {
    match strategy {
        Strategy::Exhaustive { .. } => 0,
        Strategy::CoarseToFine => 1,
        Strategy::RaceThenFine => 2,
        Strategy::GradientDescent { .. } => 3,
        Strategy::Analytic { .. } => 4,
    }
}

impl ConfigKey {
    /// Builds the key for one estimator configuration over a device
    /// topology. The key carries the partition arity and the set's digest,
    /// so estimates for different topologies — even of equal arity — can
    /// never alias.
    #[must_use]
    pub fn with_devices(
        strategy: Strategy,
        spec: SampleSpec,
        seed: u64,
        repeats: usize,
        set: &DeviceSet,
    ) -> ConfigKey {
        let strategy_bits = match strategy {
            Strategy::Exhaustive { step } | Strategy::Analytic { step } => {
                step.unwrap_or(f64::NAN).to_bits()
            }
            Strategy::GradientDescent { max_evals } => max_evals as u64,
            Strategy::CoarseToFine | Strategy::RaceThenFine => 0,
        };
        ConfigKey {
            strategy_disc: strategy_disc(strategy),
            strategy_bits,
            factor_bits: spec.factor.to_bits(),
            seed,
            repeats,
            arity: u8::try_from(set.len()).expect("device sets are tiny"),
            devices_digest: set.digest(),
        }
    }
}

/// Exact-identity cache key: input fingerprint identity + configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Fingerprint exact key of the input.
    pub input: ExactKey,
    /// Estimator configuration.
    pub config: ConfigKey,
}

/// Similarity cache key: quantized fingerprint class + strategy kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NearCacheKey {
    /// Quantized fingerprint class of the input.
    pub input: NearKey,
    /// Strategy discriminant (warm starts only transfer within a strategy).
    pub strategy_disc: u8,
}

impl NearCacheKey {
    /// Builds the near key for one input class + strategy.
    #[must_use]
    pub fn of(input: NearKey, strategy: Strategy) -> NearCacheKey {
        NearCacheKey {
            input,
            strategy_disc: strategy_disc(strategy),
        }
    }
}

/// What a near-key hit supplies: a warm-start hint and the cold cost it
/// replaces.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WarmHint {
    /// Cached split threshold in *sample space* — the bracket center the
    /// analytic search descends from.
    pub sample_threshold: f64,
    /// `grad_probes` the cold search spent for this class, the baseline for
    /// probe-savings accounting.
    pub cold_probes: usize,
}

/// Similarity key for k-way partition hints: quantized fingerprint class +
/// the topology identity. Warm cut vectors only transfer between requests
/// for the *same* device set — a k=4 vector cannot seed a k=8 descent, and
/// two k=4 topologies with different link speeds have different optima.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PartitionNearKey {
    /// Quantized fingerprint class of the input.
    pub input: NearKey,
    /// Partition arity (device count).
    pub arity: u8,
    /// [`DeviceSet::digest`] of the topology.
    pub devices_digest: u64,
}

impl PartitionNearKey {
    /// Builds the near key for one input class + topology.
    #[must_use]
    pub fn of(input: NearKey, set: &DeviceSet) -> PartitionNearKey {
        PartitionNearKey {
            input,
            arity: u8::try_from(set.len()).expect("device sets are tiny"),
            devices_digest: set.digest(),
        }
    }
}

/// What a k-way partition near-hit supplies: the cached cut vector (a
/// single-seed warm start for `minimize_partition`, which skips the coarse
/// odometer sweep) and the cold probe count it replaces.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionHint {
    /// Cached cut thresholds (`k − 1` of them, ascending).
    pub cuts: Vec<f64>,
    /// Probes the cold multi-seed search spent for this class — the
    /// baseline for probe-savings accounting.
    pub cold_probes: usize,
}

/// One cache tier: the exact decisions of one kind, each stamped with the
/// drift generation it was computed at, and the warm hints they left.
pub(crate) struct Tier<D: Decision> {
    exact: EvalCache<(D, u64), CacheKey>,
    near: EvalCache<D::Hint, D::Near>,
}

impl<D: Decision> Tier<D> {
    fn new(capacity: usize) -> Self {
        Tier {
            exact: EvalCache::new(capacity),
            near: EvalCache::new(capacity),
        }
    }
}

pub(crate) struct CacheInner {
    /// Monotone drift epoch: bumped by [`ThresholdCache::advance_generation`]
    /// whenever a workload delta lands. Exact entries stamped with an older
    /// generation are invalid — generations only grow, so a stale entry can
    /// never become fresh again.
    generation: u64,
    scalar: Tier<SamplingEstimate>,
    kway: Tier<PartitionOutcome>,
}

/// What an audit event records of one served decision.
pub(crate) struct AuditFields {
    /// The threshold (k-way: the first cut).
    pub threshold: f64,
    /// Candidate runs the search spent.
    pub evaluations: u64,
    /// Simulated cost of the search, in milliseconds.
    pub sim_cost_ms: f64,
    /// Partition arity (device count).
    pub arity: u64,
}

/// A kind of served decision: the scalar [`SamplingEstimate`] or the k-way
/// [`PartitionOutcome`]. The kinds differ only in what this trait names;
/// [`ThresholdCache`]'s lookups and the estimator's serving path are
/// written once over it.
pub(crate) trait Decision: Clone {
    /// Similarity key of this kind's near map.
    type Near: Copy + Eq + Hash;
    /// What a near hit hands the warm start.
    type Hint: Clone;
    /// Counter of exact hits.
    const EXACT_HITS: Counter;
    /// Counter of near hits.
    const NEAR_HITS: Counter;
    /// Counter of exact-key misses, warm starts included.
    const MISSES: Counter;
    /// This kind's tier.
    fn tier(inner: &mut CacheInner) -> &mut Tier<Self>;
    /// Builds the near key of an input class for the configured strategy
    /// and topology.
    fn near_key(input: NearKey, strategy: Strategy, set: &DeviceSet) -> Self::Near;
    /// The warm hint this decision leaves under its near key.
    fn hint(&self) -> Self::Hint;
    /// Probes the search that left `hint` spent.
    fn cold_probes(hint: &Self::Hint) -> usize;
    /// Probes this decision's search spent.
    fn probes(&self) -> usize;
    /// The fields this decision's audit events carry.
    fn audit_fields(&self) -> AuditFields;
}

impl Decision for SamplingEstimate {
    type Near = NearCacheKey;
    type Hint = WarmHint;
    const EXACT_HITS: Counter = Counter::ExactHits;
    const NEAR_HITS: Counter = Counter::NearHits;
    const MISSES: Counter = Counter::Misses;

    fn tier(inner: &mut CacheInner) -> &mut Tier<Self> {
        &mut inner.scalar
    }

    fn near_key(input: NearKey, strategy: Strategy, _set: &DeviceSet) -> NearCacheKey {
        NearCacheKey::of(input, strategy)
    }

    fn hint(&self) -> WarmHint {
        WarmHint {
            sample_threshold: self.sample_threshold,
            cold_probes: self.grad_probes,
        }
    }

    fn cold_probes(hint: &WarmHint) -> usize {
        hint.cold_probes
    }

    fn probes(&self) -> usize {
        self.grad_probes
    }

    fn audit_fields(&self) -> AuditFields {
        AuditFields {
            threshold: self.threshold,
            evaluations: self.evaluations as u64,
            sim_cost_ms: self.overhead.as_millis(),
            // A scalar estimate is a two-way split regardless of the cache
            // key's configured topology.
            arity: 2,
        }
    }
}

impl Decision for PartitionOutcome {
    type Near = PartitionNearKey;
    type Hint = PartitionHint;
    const EXACT_HITS: Counter = Counter::KwayExactHits;
    const NEAR_HITS: Counter = Counter::KwayNearHits;
    const MISSES: Counter = Counter::KwayMisses;

    fn tier(inner: &mut CacheInner) -> &mut Tier<Self> {
        &mut inner.kway
    }

    fn near_key(input: NearKey, _strategy: Strategy, set: &DeviceSet) -> PartitionNearKey {
        PartitionNearKey::of(input, set)
    }

    fn hint(&self) -> PartitionHint {
        PartitionHint {
            cuts: self.cuts.clone(),
            cold_probes: self.probes,
        }
    }

    fn cold_probes(hint: &PartitionHint) -> usize {
        hint.cold_probes
    }

    fn probes(&self) -> usize {
        self.probes
    }

    fn audit_fields(&self) -> AuditFields {
        let scalar = self.scalar.as_ref();
        AuditFields {
            threshold: self.cuts.first().copied().unwrap_or(f64::NAN),
            evaluations: scalar.map_or(0, |s| s.evaluations() as u64),
            sim_cost_ms: scalar.map_or(0.0, |s| s.search_cost.as_millis()),
            arity: self.cuts.len() as u64 + 1,
        }
    }
}

/// Index of one counter in [`ThresholdCache`]'s counter array, in
/// [`CacheStats`] field order.
#[derive(Clone, Copy)]
pub(crate) enum Counter {
    ExactHits,
    NearHits,
    Misses,
    Insertions,
    ProbesSaved,
    ShadowRuns,
    PatchedHits,
    PatchedNudges,
    PatchedRebuilds,
    StaleEvictions,
    KwayExactHits,
    KwayNearHits,
    KwayMisses,
}

/// Metric name of each counter, indexed by [`Counter`].
const METRIC_NAMES: [&str; 13] = [
    "threshold_cache.hit",
    "threshold_cache.near_hit",
    "threshold_cache.miss",
    "threshold_cache.insert",
    "threshold_cache.probes_saved",
    "threshold_cache.shadow_runs",
    "threshold_cache.patched_hit",
    "threshold_cache.patched_nudge",
    "threshold_cache.patched_rebuild",
    "threshold_cache.stale_evictions",
    "threshold_cache.kway_hit",
    "threshold_cache.kway_near_hit",
    "threshold_cache.kway_miss",
];

/// Aggregate counter snapshot (see [`ThresholdCache::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact-key hits served bitwise-identically from cache.
    pub exact_hits: u64,
    /// Near-key hits that warm-started an analytic search.
    pub near_hits: u64,
    /// Exact-key misses, warm starts included.
    pub misses: u64,
    /// Decisions inserted.
    pub insertions: u64,
    /// `grad_probes` avoided by warm starts (cold − warm, summed).
    pub probes_saved: u64,
    /// Warm hits that were shadow-priced against the cold path.
    pub shadow_runs: u64,
    /// Drift servings where the patched curve kept the cached threshold.
    pub patched_hits: u64,
    /// Drift servings where the warm hill-descent nudged the threshold.
    pub patched_nudges: u64,
    /// Drift servings rebuilt with a cold search. Nothing produces them
    /// any more (every drift step patches its span), so this reads 0.
    pub patched_rebuilds: u64,
    /// Exact entries dropped by a generation advance (lazily, on lookup).
    pub stale_evictions: u64,
    /// K-way exact hits: cached partitions served bitwise-identically.
    pub kway_exact_hits: u64,
    /// K-way near hits: warm cut vectors that seeded a single-seed descent.
    pub kway_near_hits: u64,
    /// K-way exact-key misses, warm starts included.
    pub kway_misses: u64,
}

/// Bounded-LRU decision cache shared across estimator runs. Thread-safe:
/// the tiers sit behind one mutex (critical sections are O(1) amortized)
/// and the counters are lock-free atomics, so `run_batch` workers hit it
/// concurrently without serializing their actual work.
pub struct ThresholdCache {
    inner: Mutex<CacheInner>,
    counters: [AtomicU64; METRIC_NAMES.len()],
    shadow_tick: AtomicU64,
    regrets: Mutex<Vec<f64>>,
}

impl Default for ThresholdCache {
    fn default() -> Self {
        ThresholdCache::new(DEFAULT_CAPACITY)
    }
}

impl ThresholdCache {
    /// Creates a cache holding at most `capacity` entries per map
    /// (clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> ThresholdCache {
        let capacity = capacity.max(1);
        ThresholdCache {
            inner: Mutex::new(CacheInner {
                generation: 0,
                scalar: Tier::new(capacity),
                kway: Tier::new(capacity),
            }),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            shadow_tick: AtomicU64::new(0),
            regrets: Mutex::new(Vec::new()),
        }
    }

    /// The tiers, locked. A panic under the lock may have left a tier
    /// half-written, so a poisoned lock is recovered by emptying both
    /// tiers (keeping the drift generation) and clearing the poison: the
    /// cache then serves cold, as a new cache would, instead of every
    /// later request panicking.
    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|poisoned| {
            let mut inner = poisoned.into_inner();
            let capacity = inner.scalar.exact.capacity();
            inner.scalar = Tier::new(capacity);
            inner.kway = Tier::new(capacity);
            self.inner.clear_poison();
            inner
        })
    }

    /// The retained shadow regrets, locked. Each is one pushed or
    /// overwritten `f64`, so a panic under the lock leaves no torn entry
    /// and a poisoned ring is used as it stands.
    fn regrets(&self) -> MutexGuard<'_, Vec<f64>> {
        self.regrets.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn count(&self, counter: Counter, n: u64) -> u64 {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed)
    }

    /// Current drift generation (0 until the first delta lands).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.lock().generation
    }

    /// Advances the drift generation, returning the new value. Exact
    /// entries stamped with an older generation become permanently invalid
    /// (dropped lazily on their next lookup); near-key warm hints survive —
    /// they are advisory starting points, not served results, so a slightly
    /// stale hint still saves probes while the pipeline recomputes the
    /// decision on the patched curves.
    pub fn advance_generation(&self) -> u64 {
        let mut inner = self.lock();
        inner.generation += 1;
        inner.generation
    }

    /// Exact-key lookup of either kind: a hit refreshes recency and
    /// returns a clone of the cached decision; an entry stamped with an
    /// older drift generation is dropped instead of served.
    pub(crate) fn lookup<D: Decision>(&self, key: &CacheKey) -> Option<D> {
        let mut inner = self.lock();
        let generation = inner.generation;
        let exact = &mut D::tier(&mut inner).exact;
        let (decision, stamp) = exact.get(*key)?;
        if stamp < generation {
            exact.remove(*key);
            drop(inner);
            self.count(Counter::StaleEvictions, 1);
            return None;
        }
        drop(inner);
        self.count(D::EXACT_HITS, 1);
        Some(decision)
    }

    /// Near-key lookup of either kind: a hit refreshes recency and returns
    /// the warm hint.
    pub(crate) fn near<D: Decision>(&self, key: &D::Near) -> Option<D::Hint> {
        let hint = D::tier(&mut self.lock()).near.get(*key)?;
        self.count(D::NEAR_HITS, 1);
        Some(hint)
    }

    /// Inserts a freshly computed decision under both keys, stamped with
    /// the current drift generation.
    pub(crate) fn store<D: Decision>(&self, key: CacheKey, near: D::Near, decision: &D) {
        let mut inner = self.lock();
        let generation = inner.generation;
        let tier = D::tier(&mut inner);
        tier.exact.insert(key, (decision.clone(), generation));
        tier.near.insert(near, decision.hint());
        drop(inner);
        self.count(Counter::Insertions, 1);
    }

    /// Records an exact-key miss of either kind.
    pub(crate) fn miss<D: Decision>(&self) {
        self.count(D::MISSES, 1);
    }

    /// Exact-key lookup. A hit refreshes recency and returns a clone of the
    /// cached estimate — bitwise-identical to the cold-path result. Entries
    /// stamped with an older drift generation than the cache's current one
    /// are dropped here instead of served (monotone invalidation).
    #[must_use]
    pub fn get_exact(&self, key: &CacheKey) -> Option<SamplingEstimate> {
        self.lookup(key)
    }

    /// Near-key lookup. A hit refreshes recency and returns the warm-start
    /// hint for `Strategy::Analytic`.
    #[must_use]
    pub fn get_near(&self, key: &NearCacheKey) -> Option<WarmHint> {
        self.near::<SamplingEstimate>(key)
    }

    /// K-way exact lookup. A hit refreshes recency and returns a clone of
    /// the cached [`PartitionOutcome`] — bitwise-identical to the cold
    /// `minimize_partition` result that populated it. Stale-generation
    /// entries are dropped here, same monotone invalidation as
    /// [`ThresholdCache::get_exact`].
    #[must_use]
    pub fn get_partition(&self, key: &CacheKey) -> Option<PartitionOutcome> {
        self.lookup(key)
    }

    /// K-way near lookup. A hit refreshes recency and returns the cached
    /// cut vector, which seeds `minimize_partition` as a single warm seed —
    /// coordinate descent starts from the hint instead of sweeping the
    /// coarse odometer grid.
    #[must_use]
    pub fn get_partition_hint(&self, key: &PartitionNearKey) -> Option<PartitionHint> {
        self.near::<PartitionOutcome>(key)
    }

    /// Inserts a freshly computed k-way partition under both keys, stamped
    /// with the current drift generation.
    pub fn insert_partition(&self, key: CacheKey, near: PartitionNearKey, out: &PartitionOutcome) {
        self.store(key, near, out);
    }

    /// Records a k-way exact-key miss (warm starts included).
    pub fn record_kway_miss(&self) {
        self.miss::<PartitionOutcome>();
    }

    /// Records a scalar exact-key miss (warm starts included).
    pub fn record_miss(&self) {
        self.miss::<SamplingEstimate>();
    }

    /// Records `grad_probes` avoided by a warm start.
    pub fn record_probes_saved(&self, saved: u64) {
        self.count(Counter::ProbesSaved, saved);
    }

    /// Deterministic stride gate for the shadow-regret sampler: advances
    /// the shadow tick and reports whether this warm hit should also run
    /// the cold path. A `rate` of `r` samples every `round(1/r)`-th warm
    /// hit, starting with the first (so even short streams produce at least
    /// one observation); `rate ≤ 0` never samples, `rate ≥ 1` always does.
    #[must_use]
    pub fn shadow_due(&self, rate: f64) -> bool {
        if rate <= 0.0 || rate.is_nan() {
            return false;
        }
        if rate >= 1.0 {
            self.shadow_tick.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        let stride = (1.0 / rate).round().max(1.0) as u64;
        let tick = self.shadow_tick.fetch_add(1, Ordering::Relaxed);
        tick.is_multiple_of(stride)
    }

    /// Records one observed shadow regret (percent, warm over cold minus
    /// one). Retains at most [`SHADOW_REGRET_CAPACITY`] observations,
    /// overwriting the oldest ring-style.
    pub fn record_shadow(&self, regret_pct: f64) {
        let count = self.count(Counter::ShadowRuns, 1);
        let mut regrets = self.regrets();
        if regrets.len() < SHADOW_REGRET_CAPACITY {
            regrets.push(regret_pct);
        } else {
            regrets[(count as usize) % SHADOW_REGRET_CAPACITY] = regret_pct;
        }
    }

    /// Clones the retained shadow-regret observations (recording order up
    /// to [`SHADOW_REGRET_CAPACITY`], ring-overwritten past it).
    #[must_use]
    pub fn shadow_regrets(&self) -> Vec<f64> {
        self.regrets().clone()
    }

    /// Records how a drift serving resolved (see [`CacheStats`]).
    pub fn record_patched_hit(&self) {
        self.count(Counter::PatchedHits, 1);
    }

    /// Records a drift serving whose warm hill-descent moved the threshold.
    pub fn record_patched_nudge(&self) {
        self.count(Counter::PatchedNudges, 1);
    }

    /// Records a drift serving rebuilt with a cold search. The drift
    /// server no longer calls it: every step patches its span.
    pub fn record_patched_rebuild(&self) {
        self.count(Counter::PatchedRebuilds, 1);
    }

    /// Inserts a freshly computed decision under both keys, stamped with
    /// the current drift generation.
    pub fn insert(&self, key: CacheKey, near: NearCacheKey, est: &SamplingEstimate) {
        self.store(key, near, est);
    }

    /// Current counter values (no reset).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let get = |counter: Counter| self.counters[counter as usize].load(Ordering::Relaxed);
        CacheStats {
            exact_hits: get(Counter::ExactHits),
            near_hits: get(Counter::NearHits),
            misses: get(Counter::Misses),
            insertions: get(Counter::Insertions),
            probes_saved: get(Counter::ProbesSaved),
            shadow_runs: get(Counter::ShadowRuns),
            patched_hits: get(Counter::PatchedHits),
            patched_nudges: get(Counter::PatchedNudges),
            patched_rebuilds: get(Counter::PatchedRebuilds),
            stale_evictions: get(Counter::StaleEvictions),
            kway_exact_hits: get(Counter::KwayExactHits),
            kway_near_hits: get(Counter::KwayNearHits),
            kway_misses: get(Counter::KwayMisses),
        }
    }

    /// Number of scalar exact entries currently held (k-way entries and
    /// near hints are not counted).
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().scalar.exact.len()
    }

    /// Whether the cache holds no scalar exact entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flushes the counters to the metrics registry and resets them, so a
    /// later flush only reports activity since this one. Counter names:
    /// `threshold_cache.hit`, `threshold_cache.near_hit`,
    /// `threshold_cache.miss`, `threshold_cache.insert`,
    /// `threshold_cache.probes_saved`, `threshold_cache.shadow_runs`,
    /// `threshold_cache.patched_hit`, `threshold_cache.patched_nudge`,
    /// `threshold_cache.patched_rebuild`, `threshold_cache.stale_evictions`,
    /// `threshold_cache.kway_hit`, `threshold_cache.kway_near_hit`,
    /// `threshold_cache.kway_miss`; retained shadow-regret observations
    /// drain into the `threshold_cache.regret_pct` histogram. A disabled
    /// recorder keeps nothing, so flushing into one is a no-op: the
    /// counters and the retained regrets stay for [`ThresholdCache::stats`]
    /// and [`ThresholdCache::shadow_regrets`].
    pub fn flush_metrics(&self, rec: &Recorder) {
        if !rec.is_enabled() {
            return;
        }
        for (name, counter) in METRIC_NAMES.iter().zip(&self.counters) {
            rec.counter_add(name, counter.swap(0, Ordering::Relaxed));
        }
        let drained = std::mem::take(&mut *self.regrets());
        for regret in drained {
            rec.histogram_record("threshold_cache.regret_pct", regret);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::DensityClass;
    use nbwp_sim::SimTime;

    fn exact(digest: u64) -> ExactKey {
        ExactKey {
            kind: "test",
            n: 100,
            m: 500,
            digest,
        }
    }

    fn near(cv_q: i64) -> NearKey {
        NearKey {
            kind: "test",
            log2_n: 7,
            log2_m: 9,
            cv_q,
            density: DensityClass::Moderate,
        }
    }

    fn key(digest: u64) -> CacheKey {
        CacheKey {
            input: exact(digest),
            config: ConfigKey::with_devices(
                Strategy::CoarseToFine,
                SampleSpec::default(),
                7,
                1,
                DeviceSet::cpu_gpu_static(),
            ),
        }
    }

    fn est(threshold: f64) -> SamplingEstimate {
        SamplingEstimate {
            threshold,
            sample_threshold: threshold / 2.0,
            overhead: SimTime::from_millis(1.0),
            evaluations: 9,
            sample_size: 10,
            grad_probes: 5,
        }
    }

    fn partition_out(cuts: Vec<f64>) -> PartitionOutcome {
        let fractions = vec![1.0 / (cuts.len() + 1) as f64; cuts.len() + 1];
        PartitionOutcome {
            cuts,
            fractions,
            partition: None,
            total: SimTime::from_millis(3.0),
            probes: 120,
            sweeps: 4,
            scalar: None,
        }
    }

    fn kway_key(digest: u64, set: &DeviceSet) -> CacheKey {
        CacheKey {
            input: exact(digest),
            config: ConfigKey::with_devices(
                Strategy::Analytic { step: None },
                SampleSpec::default(),
                7,
                1,
                set,
            ),
        }
    }

    #[test]
    fn partition_roundtrip_is_bitwise_and_keys_by_topology() {
        let cache = ThresholdCache::new(8);
        let k4 = DeviceSet::dual_cpu_dual_gpu();
        let k8 = DeviceSet::quad_cpu_quad_gpu();
        let out = partition_out(vec![10.0, 30.0, 55.0]);
        assert!(cache.get_partition(&kway_key(1, &k4)).is_none());
        cache.insert_partition(kway_key(1, &k4), PartitionNearKey::of(near(4), &k4), &out);
        assert_eq!(cache.get_partition(&kway_key(1, &k4)), Some(out.clone()));
        // Same input under a different topology never aliases.
        assert!(cache.get_partition(&kway_key(1, &k8)).is_none());
        let s = cache.stats();
        assert_eq!((s.kway_exact_hits, s.insertions), (1, 1));
    }

    #[test]
    fn partition_hint_transfers_within_topology_only() {
        let cache = ThresholdCache::new(8);
        let k4 = DeviceSet::dual_cpu_dual_gpu();
        let k8 = DeviceSet::quad_cpu_quad_gpu();
        let out = partition_out(vec![12.5, 25.0, 62.5]);
        cache.insert_partition(kway_key(1, &k4), PartitionNearKey::of(near(4), &k4), &out);
        let hint = cache
            .get_partition_hint(&PartitionNearKey::of(near(4), &k4))
            .expect("near hit");
        assert_eq!(hint.cuts, out.cuts);
        assert_eq!(hint.cold_probes, 120);
        // A k=8 request for the same input class misses.
        assert!(cache
            .get_partition_hint(&PartitionNearKey::of(near(4), &k8))
            .is_none());
        cache.record_kway_miss();
        let s = cache.stats();
        assert_eq!((s.kway_near_hits, s.kway_misses), (1, 1));
        let rec = Recorder::new();
        cache.flush_metrics(&rec);
        let m = rec.finish().metrics;
        assert_eq!(m.counter("threshold_cache.kway_near_hit"), Some(1));
        assert_eq!(m.counter("threshold_cache.kway_miss"), Some(1));
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn partition_entries_invalidate_on_generation_advance() {
        let cache = ThresholdCache::new(8);
        let k4 = DeviceSet::dual_cpu_dual_gpu();
        let nk = PartitionNearKey::of(near(4), &k4);
        cache.insert_partition(kway_key(1, &k4), nk, &partition_out(vec![10.0, 30.0, 55.0]));
        cache.advance_generation();
        // The served partition is stale; the advisory cut vector survives.
        assert!(cache.get_partition(&kway_key(1, &k4)).is_none());
        assert!(cache.get_partition_hint(&nk).is_some());
        assert_eq!(cache.stats().stale_evictions, 1);
    }

    #[test]
    fn exact_roundtrip_is_bitwise() {
        let cache = ThresholdCache::new(8);
        assert!(cache.get_exact(&key(1)).is_none());
        let e = est(42.0);
        cache.insert(
            key(1),
            NearCacheKey::of(near(4), Strategy::CoarseToFine),
            &e,
        );
        assert_eq!(cache.get_exact(&key(1)), Some(e));
        assert!(cache.get_exact(&key(2)).is_none());
        let s = cache.stats();
        assert_eq!((s.exact_hits, s.insertions), (1, 1));
    }

    #[test]
    fn near_hit_returns_hint() {
        let cache = ThresholdCache::new(8);
        let nk = NearCacheKey::of(near(4), Strategy::Analytic { step: None });
        cache.insert(key(1), nk, &est(42.0));
        let hint = cache.get_near(&nk).expect("near hit");
        assert_eq!(hint.sample_threshold, 21.0);
        assert_eq!(hint.cold_probes, 5);
        // Different strategy kind → different near key.
        assert!(cache
            .get_near(&NearCacheKey::of(near(4), Strategy::CoarseToFine))
            .is_none());
    }

    #[test]
    fn lru_evicts_oldest_exact_entry() {
        let cache = ThresholdCache::new(2);
        let nk = NearCacheKey::of(near(0), Strategy::CoarseToFine);
        cache.insert(key(1), nk, &est(1.0));
        cache.insert(key(2), nk, &est(2.0));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get_exact(&key(1)).is_some());
        cache.insert(key(3), nk, &est(3.0));
        assert!(cache.get_exact(&key(1)).is_some());
        assert!(cache.get_exact(&key(2)).is_none());
        assert!(cache.get_exact(&key(3)).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_evicts_oldest_entry_in_every_map() {
        // Each map evicts by its own recency: touching an entry in one map
        // never protects its sibling in another.
        let cache = ThresholdCache::new(2);
        let nk = |q| NearCacheKey::of(near(q), Strategy::Analytic { step: None });
        cache.insert(key(1), nk(1), &est(1.0));
        cache.insert(key(2), nk(2), &est(2.0));
        // Touch the near hint of 1 only: the exact victim stays key 1, the
        // near victim becomes hint 2.
        assert!(cache.get_near(&nk(1)).is_some());
        cache.insert(key(3), nk(3), &est(3.0));
        assert!(cache.get_near(&nk(1)).is_some());
        assert!(cache.get_near(&nk(2)).is_none());
        assert!(cache.get_near(&nk(3)).is_some());
        assert!(cache.get_exact(&key(1)).is_none());
        assert!(cache.get_exact(&key(2)).is_some());
        assert!(cache.get_exact(&key(3)).is_some());

        let k4 = DeviceSet::dual_cpu_dual_gpu();
        let pk = |q| PartitionNearKey::of(near(q), &k4);
        let out = partition_out(vec![10.0, 30.0, 55.0]);
        cache.insert_partition(kway_key(1, &k4), pk(1), &out);
        cache.insert_partition(kway_key(2, &k4), pk(2), &out);
        // Touch exact 1 and hint 2: the victims are exact 2 and hint 1.
        assert!(cache.get_partition(&kway_key(1, &k4)).is_some());
        assert!(cache.get_partition_hint(&pk(2)).is_some());
        cache.insert_partition(kway_key(3, &k4), pk(3), &out);
        assert!(cache.get_partition(&kway_key(1, &k4)).is_some());
        assert!(cache.get_partition(&kway_key(2, &k4)).is_none());
        assert!(cache.get_partition(&kway_key(3, &k4)).is_some());
        assert!(cache.get_partition_hint(&pk(1)).is_none());
        assert!(cache.get_partition_hint(&pk(2)).is_some());
        assert!(cache.get_partition_hint(&pk(3)).is_some());
        // The k-way tier never evicted a scalar entry.
        assert_eq!(cache.len(), 2);
        assert!(cache.get_exact(&key(3)).is_some());
    }

    #[test]
    fn generation_advance_invalidates_exact_entries_monotonically() {
        let cache = ThresholdCache::new(8);
        let nk = NearCacheKey::of(near(4), Strategy::Analytic { step: None });
        cache.insert(key(1), nk, &est(42.0));
        assert_eq!(cache.generation(), 0);
        assert!(cache.get_exact(&key(1)).is_some());

        // A delta lands: the stale exact entry is dropped on lookup, but
        // the advisory near-key hint survives as a warm start.
        assert_eq!(cache.advance_generation(), 1);
        assert!(cache.get_exact(&key(1)).is_none());
        assert!(cache.get_exact(&key(1)).is_none()); // stays gone
        assert!(cache.get_near(&nk).is_some());
        assert_eq!(cache.stats().stale_evictions, 1);

        // Re-inserting stamps the current generation; a further advance
        // invalidates again — staleness is monotone, never reversible.
        cache.insert(key(1), nk, &est(43.0));
        assert!(cache.get_exact(&key(1)).is_some());
        cache.advance_generation();
        cache.advance_generation();
        assert!(cache.get_exact(&key(1)).is_none());
        assert_eq!(cache.stats().stale_evictions, 2);
    }

    #[test]
    fn patched_counters_flush_as_metrics() {
        let cache = ThresholdCache::new(4);
        cache.record_patched_hit();
        cache.record_patched_hit();
        cache.record_patched_nudge();
        cache.record_patched_rebuild();
        let s = cache.stats();
        assert_eq!(
            (s.patched_hits, s.patched_nudges, s.patched_rebuilds),
            (2, 1, 1)
        );
        let rec = Recorder::new();
        cache.flush_metrics(&rec);
        assert_eq!(cache.stats(), CacheStats::default());
        let m = rec.finish().metrics;
        assert_eq!(m.counter("threshold_cache.patched_hit"), Some(2));
        assert_eq!(m.counter("threshold_cache.patched_nudge"), Some(1));
        assert_eq!(m.counter("threshold_cache.patched_rebuild"), Some(1));
    }

    #[test]
    fn config_key_separates_configurations() {
        let spec = SampleSpec::default();
        let pair = DeviceSet::cpu_gpu_static();
        let k = |s, spec, seed, reps| ConfigKey::with_devices(s, spec, seed, reps, pair);
        let base = k(Strategy::CoarseToFine, spec, 7, 1);
        assert_eq!(base, k(Strategy::CoarseToFine, spec, 7, 1));
        assert_ne!(base, k(Strategy::CoarseToFine, spec, 8, 1));
        assert_ne!(base, k(Strategy::CoarseToFine, spec, 7, 3));
        assert_ne!(base, k(Strategy::RaceThenFine, spec, 7, 1));
        assert_ne!(
            k(Strategy::Analytic { step: None }, spec, 7, 1),
            k(Strategy::Analytic { step: Some(1.0) }, spec, 7, 1)
        );
        assert_ne!(
            base,
            k(Strategy::CoarseToFine, SampleSpec { factor: 2.0 }, 7, 1)
        );
    }

    #[test]
    fn config_key_separates_device_topologies() {
        // Regression: the key must carry partition arity AND the set digest,
        // so k=2 and k>2 estimates (or two different k=4 topologies) can
        // never alias in the exact map.
        let spec = SampleSpec::default();
        let s = Strategy::Analytic { step: None };
        let pair = ConfigKey::with_devices(s, spec, 7, 1, DeviceSet::cpu_gpu_static());
        let dual = ConfigKey::with_devices(s, spec, 7, 1, &DeviceSet::dual_cpu_dual_gpu());
        let quad = ConfigKey::with_devices(s, spec, 7, 1, &DeviceSet::quad_cpu_quad_gpu());
        assert_ne!(pair, dual);
        assert_ne!(pair, quad);
        assert_ne!(dual, quad);
    }

    #[test]
    fn flush_resets_counters() {
        let cache = ThresholdCache::new(4);
        cache.record_miss();
        cache.record_probes_saved(12);
        cache.record_shadow(2.5);
        let rec = Recorder::new();
        cache.flush_metrics(&rec);
        assert_eq!(cache.stats(), CacheStats::default());
        assert!(cache.shadow_regrets().is_empty());
        let m = rec.finish().metrics;
        assert_eq!(m.counter("threshold_cache.shadow_runs"), Some(1));
        let h = m
            .histogram("threshold_cache.regret_pct")
            .expect("regret histogram");
        assert_eq!((h.count, h.min, h.max), (1, 2.5, 2.5));
        let again = Recorder::new();
        cache.flush_metrics(&again);
        // Second flush reports nothing new.
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(
            again
                .finish()
                .metrics
                .counter("threshold_cache.shadow_runs"),
            Some(0)
        );
    }

    #[test]
    fn flush_into_a_disabled_recorder_keeps_counters_and_regrets() {
        // A disabled recorder drops every counter it is handed, so a flush
        // into one must leave the counters and the shadow-regret ring for
        // a later flush (or `stats()`) to read.
        let cache = ThresholdCache::new(4);
        cache.record_miss();
        cache.record_probes_saved(12);
        cache.record_shadow(2.5);
        let before = cache.stats();
        cache.flush_metrics(&Recorder::disabled());
        assert_eq!(cache.stats(), before);
        assert_eq!(cache.shadow_regrets(), vec![2.5]);
    }

    #[test]
    fn shadow_gate_follows_the_sampling_stride() {
        let cache = ThresholdCache::new(4);
        let due: Vec<bool> = (0..8).map(|_| cache.shadow_due(0.25)).collect();
        assert_eq!(due, [true, false, false, false, true, false, false, false]);
        let never = ThresholdCache::new(4);
        assert!((0..8).all(|_| !never.shadow_due(0.0)));
        assert!((0..8).all(|_| !never.shadow_due(-1.0)));
        let always = ThresholdCache::new(4);
        assert!((0..8).all(|_| always.shadow_due(1.0)));
    }

    #[test]
    fn shadow_regrets_are_bounded_ring_style() {
        let cache = ThresholdCache::new(4);
        for i in 0..(SHADOW_REGRET_CAPACITY + 10) {
            cache.record_shadow(i as f64);
        }
        let regrets = cache.shadow_regrets();
        assert_eq!(regrets.len(), SHADOW_REGRET_CAPACITY);
        // The newest observations overwrote the oldest slots.
        assert_eq!(regrets[0], SHADOW_REGRET_CAPACITY as f64);
        assert_eq!(regrets[9], (SHADOW_REGRET_CAPACITY + 9) as f64);
        assert_eq!(regrets[10], 10.0);
        assert_eq!(
            cache.stats().shadow_runs,
            (SHADOW_REGRET_CAPACITY + 10) as u64
        );
    }

    /// Panics on a scoped thread while it holds `lock`, as a request
    /// panicking inside the cache would.
    fn poison<T: Send>(lock: &Mutex<T>) {
        std::thread::scope(|s| {
            let request = s.spawn(|| {
                let _guard = lock.lock();
                panic!("request panicked while holding the cache lock");
            });
            assert!(request.join().is_err());
        });
        assert!(lock.is_poisoned());
    }

    #[test]
    fn a_poisoned_cache_serves_cold_instead_of_panicking() {
        use crate::estimator::Estimator;
        use crate::workloads::CcWorkload;
        let w = CcWorkload::new(
            nbwp_graph::gen::web(200, 4, 5),
            nbwp_sim::Platform::k40c_xeon_e5_2650(),
        );
        let bits = |e: &SamplingEstimate| {
            (
                e.threshold.to_bits(),
                e.sample_threshold.to_bits(),
                e.overhead,
                e.evaluations,
                e.grad_probes,
            )
        };
        let est = Estimator::new(Strategy::CoarseToFine).seed(3);
        let cold = est.profiled().run(&w);
        let cache = ThresholdCache::new(8);
        let cached = est.cache(&cache).profiled();
        assert_eq!(bits(&cached.run_cached(&w)), bits(&cold));
        assert_eq!(cache.advance_generation(), 1);
        assert_eq!(bits(&cached.run_cached(&w)), bits(&cold));
        assert_eq!(cache.len(), 1);

        poison(&cache.inner);
        let before = cache.stats();
        // The lost entry is a miss, served cold and cached again.
        assert_eq!(bits(&cached.run_cached(&w)), bits(&cold));
        assert!(!cache.inner.is_poisoned());
        let after = cache.stats();
        assert_eq!(after.misses, before.misses + 1);
        assert_eq!(after.exact_hits, before.exact_hits);
        assert_eq!(bits(&cached.run_cached(&w)), bits(&cold));
        assert_eq!(cache.stats().exact_hits, after.exact_hits + 1);
        // The drift generation survives the recovery.
        assert_eq!(cache.generation(), 1);
        assert_eq!(cache.advance_generation(), 2);

        poison(&cache.regrets);
        cache.record_shadow(2.5);
        assert_eq!(cache.shadow_regrets(), vec![2.5]);
        assert_eq!(cache.stats().shadow_runs, 1);
    }
}
