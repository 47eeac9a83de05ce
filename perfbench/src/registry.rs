//! `registry`: a registry of known inputs requested with a skewed repeat
//! distribution, served like `nbwp estimate --analytic --batch` behind one
//! shared `ThresholdCache` and `FlightRecorder` (at the default shadow
//! rate). About one request in five is a drifted sibling of a registry
//! input (same near key, so it warm-starts), and a trickle of never-seen
//! inputs miss. Exact hits, in-batch dedup, warm starts, audit and shadow
//! pricing do most of the work; sampling and profiling do little.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::time::Instant;

use nbwp_core::prelude::*;
use nbwp_core::threshold_cache::{CacheKey, ConfigKey, NearCacheKey, PartitionNearKey};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::inputs::{Family, Input, Zipf};
use crate::serve::{self, Served};
use crate::trace::{Tracer, REQUEST};
use crate::{guarded, ms_since, with_input, Bench, Round};

/// Registry input sizes per scalar family (all in one `log2 n` class, so
/// same-family inputs share near keys).
pub const REGISTRY_SIZES: [usize; 3] = [10_000, 12_000, 14_000];
/// k-way registry inputs, sized like `oneshot`'s so spmm and cc k-way
/// requests cost about the same.
pub const KWAY_REGISTRY: [(Family, usize); 6] = [
    (Family::SpmmFem, 24_000),
    (Family::SpmmFem, 32_000),
    (Family::SpmmFem, 40_000),
    (Family::CcWeb, 3_000),
    (Family::CcRoad, 6_000),
    (Family::CcRoad, 9_000),
];
/// Never-seen input sizes: outside the registry's size classes, so they
/// miss the near keys as well.
pub const NEVER_SEEN_SIZES: [usize; 2] = [3_000, 24_000];
/// Never-seen k-way inputs, outside the k-way registry's size classes.
pub const KWAY_NEVER_SEEN: [(Family, usize); 2] =
    [(Family::SpmmFem, 12_000), (Family::CcWeb, 2_000)];
/// Scalar requests per `run_batch` call.
pub const BATCH: usize = 8;
/// Drifted siblings per registry input. Every sibling's first request is a
/// warm start, and every 16th warm start is shadow-priced; with several
/// shadows a round, their cost no longer hinges on which input drew one.
pub const SIBLINGS: usize = 3;
/// Scalar batches per round. With this many, about a fifth of the batches
/// hold a new input, so the median batch is all exact hits and p90 falls
/// among the batches that did work.
pub const BATCHES: usize = 216;
/// k = 4 requests per round (enough that each k-way sibling is requested).
pub const KWAY_REQUESTS: usize = 120;
/// Share of requests for a drifted sibling.
pub const SIBLING_SHARE: f64 = 0.2;
/// Share of requests for a never-seen input; the rest go to the registry.
pub const NEVER_SEEN_SHARE: f64 = 0.05;
/// Zipf exponent of the repeat distribution.
pub const ZIPF_S: f64 = 1.1;

/// The workload kinds a scalar batch can hold (`run_batch` takes one).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Kind {
    Cc,
    Spmm,
    Hh,
}

/// Where an input comes from.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Origin {
    Registry,
    Sibling,
    NeverSeen,
}

struct Entry {
    family: Family,
    origin: Origin,
    kway: bool,
    input: Input,
}

/// One call to the estimator: a scalar batch or one k-way request.
#[derive(Clone)]
enum Call {
    Batch(Vec<usize>),
    Kway(usize),
}

/// Set-up state of the `registry` workload.
pub struct Registry {
    inputs: Vec<Entry>,
    calls: Vec<Call>,
    set: DeviceSet,
    by_digest: HashMap<u64, usize>,
    oracles: BTreeMap<usize, Served>,
    /// What the warm-up pass served each registry input, in insertion
    /// order: the warm cache state every round starts from.
    warm: Vec<(usize, Served)>,
    first_round: Option<Vec<(usize, Served)>>,
    /// Direct `run(t)` wall time per registry input, measured in traced
    /// rounds.
    direct_run_ms: Vec<f64>,
}

fn kind_of(f: Family) -> Kind {
    match f {
        Family::CcWeb | Family::CcRoad => Kind::Cc,
        Family::SpmmFem => Kind::Spmm,
        Family::HhPowerLaw => Kind::Hh,
    }
}

/// Registry + cache + recorder state for one round.
struct Live {
    cache: ThresholdCache,
    audit: FlightRecorder,
}

impl Registry {
    /// Generates the registry, siblings, never-seen inputs and the request
    /// stream from `seed`, then runs the warm-up pass.
    pub fn setup(seed: u64) -> Registry {
        let mut inputs = Vec::new();
        let mut gen_seed = seed.wrapping_mul(1000);
        let mut push = |inputs: &mut Vec<Entry>, family: Family, n: usize, kway: bool| {
            gen_seed += 1;
            inputs.push(Entry {
                family,
                origin: Origin::Registry,
                kway,
                input: family.generate(n, gen_seed),
            });
        };
        for family in Family::ALL {
            for &n in &REGISTRY_SIZES {
                push(&mut inputs, family, n, false);
            }
        }
        for (family, n) in KWAY_REGISTRY {
            push(&mut inputs, family, n, true);
        }
        let registry_len = inputs.len();
        for i in 0..registry_len {
            for k in 0..SIBLINGS {
                let e = &inputs[i];
                let sibling = e.input.sibling(seed ^ ((i * SIBLINGS + k + 1) as u64) << 8);
                inputs.push(Entry {
                    family: e.family,
                    origin: Origin::Sibling,
                    kway: e.kway,
                    input: sibling,
                });
            }
        }
        for family in Family::ALL {
            for &n in &NEVER_SEEN_SIZES {
                gen_seed += 1;
                inputs.push(Entry {
                    family,
                    origin: Origin::NeverSeen,
                    kway: false,
                    input: family.generate(n, gen_seed),
                });
            }
        }
        for (family, n) in KWAY_NEVER_SEEN {
            gen_seed += 1;
            inputs.push(Entry {
                family,
                origin: Origin::NeverSeen,
                kway: true,
                input: family.generate(n, gen_seed),
            });
        }
        let calls = stream(&inputs, seed);
        let by_digest = inputs
            .iter()
            .enumerate()
            .map(|(i, e)| (e.input.fingerprint().digest, i))
            .collect();
        let mut reg = Registry {
            inputs,
            calls,
            set: serve::kway_set(),
            by_digest,
            oracles: BTreeMap::new(),
            warm: Vec::new(),
            first_round: None,
            direct_run_ms: Vec::new(),
        };
        // The warm-up pass is part of set-up.
        reg.warm = reg.warm_up().into_iter().collect();
        let restored = reg.restore();
        for (i, served) in &reg.warm {
            let key = reg.inputs[*i].input.fingerprint().exact_key();
            let hit = match served {
                Served::Scalar(_) => restored
                    .cache
                    .get_exact(&CacheKey {
                        input: key,
                        config: reg.config(false),
                    })
                    .map(Served::Scalar),
                Served::Kway(_) => restored
                    .cache
                    .get_partition(&CacheKey {
                        input: key,
                        config: reg.config(true),
                    })
                    .map(Served::Kway),
            };
            assert!(
                hit.as_ref() == Some(served),
                "restored cache misses input {i}"
            );
        }
        reg
    }

    /// Wall time of one direct `run(t)` — the pricing call a scalar shadow
    /// makes twice — per scalar registry input, at its served threshold.
    fn direct_runs(&self) -> Vec<f64> {
        let mut v = Vec::new();
        for (i, served) in &self.warm {
            if let Served::Scalar(est) = served {
                let t = Instant::now();
                with_input!(&self.inputs[*i].input, w => std::hint::black_box(w.run(est.threshold)));
                v.push(ms_since(t));
            }
        }
        v
    }

    /// The estimator configuration component of the cache keys.
    fn config(&self, kway: bool) -> ConfigKey {
        let set = if kway {
            &self.set
        } else {
            DeviceSet::cpu_gpu_static()
        };
        ConfigKey::with_devices(
            serve::STRATEGY,
            SampleSpec::default(),
            serve::EST_SEED,
            1,
            set,
        )
    }

    /// A fresh cache holding the warm-up pass's decisions, inserted in the
    /// order the pass inserted them, and a fresh recorder.
    fn restore(&self) -> Live {
        let live = Live {
            cache: ThresholdCache::default(),
            audit: FlightRecorder::with_capacity(1 << 14),
        };
        for (i, served) in &self.warm {
            let fp = self.inputs[*i].input.fingerprint();
            match served {
                Served::Scalar(est) => live.cache.insert(
                    CacheKey {
                        input: fp.exact_key(),
                        config: self.config(false),
                    },
                    NearCacheKey::of(fp.near_key(), serve::STRATEGY),
                    est,
                ),
                Served::Kway(out) => live.cache.insert_partition(
                    CacheKey {
                        input: fp.exact_key(),
                        config: self.config(true),
                    },
                    PartitionNearKey::of(fp.near_key(), &self.set),
                    out,
                ),
            }
        }
        live
    }

    /// Fingerprint digests of every input, in generation order.
    pub fn digests(&self) -> Vec<u64> {
        self.inputs
            .iter()
            .map(|e| e.input.fingerprint().digest)
            .collect()
    }

    /// The request stream of one round, as input indices per call.
    pub fn stream(&self) -> Vec<Vec<usize>> {
        self.calls
            .iter()
            .map(|c| match c {
                Call::Batch(items) => items.clone(),
                Call::Kway(i) => vec![*i],
            })
            .collect()
    }

    /// The warm-up pass: every registry input served once, through a fresh
    /// cache and recorder and the same paths the requests take. Returns
    /// what each registry input was served.
    fn warm_up(&self) -> BTreeMap<usize, Served> {
        let live = Live {
            cache: ThresholdCache::default(),
            audit: FlightRecorder::with_capacity(1 << 14),
        };
        let mut served = BTreeMap::new();
        for kind in [Kind::Cc, Kind::Spmm, Kind::Hh] {
            let items: Vec<usize> = (0..self.inputs.len())
                .filter(|&i| {
                    let e = &self.inputs[i];
                    e.origin == Origin::Registry && !e.kway && kind_of(e.family) == kind
                })
                .collect();
            for chunk in items.chunks(BATCH) {
                let objs: Vec<Input> = chunk
                    .iter()
                    .map(|&i| self.inputs[i].input.clone())
                    .collect();
                let ests = self.serve_batch(&live, &objs);
                served.extend(
                    chunk
                        .iter()
                        .copied()
                        .zip(ests.into_iter().map(Served::Scalar)),
                );
            }
        }
        for (i, e) in self.inputs.iter().enumerate() {
            if e.origin == Origin::Registry && e.kway {
                served.insert(i, Served::Kway(self.serve_kway(&live, &e.input)));
            }
        }
        served
    }

    fn serve_batch(&self, live: &Live, objs: &[Input]) -> Vec<SamplingEstimate> {
        let e = serve::estimator()
            .cache(&live.cache)
            .audit(&live.audit)
            .shadow_rate(DEFAULT_SHADOW_RATE)
            .profiled();
        macro_rules! batch {
            ($variant:ident) => {{
                let ws: Vec<_> = objs
                    .iter()
                    .map(|o| match o {
                        Input::$variant(w) => w.clone(),
                        _ => unreachable!("batches hold one workload kind"),
                    })
                    .collect();
                e.run_batch(&ws)
            }};
        }
        match &objs[0] {
            Input::Cc(_) => batch!(Cc),
            Input::Spmm(_) => batch!(Spmm),
            Input::Hh(_) => batch!(Hh),
        }
    }

    fn serve_kway(&self, live: &Live, obj: &Input) -> PartitionOutcome {
        let e = serve::estimator()
            .cache(&live.cache)
            .audit(&live.audit)
            .devices(&self.set)
            .profiled();
        with_input!(obj, w => e.run_partition_cached(w))
    }

    fn oracle(&mut self, i: usize) -> Served {
        let set = &self.set;
        let e = &self.inputs[i];
        self.oracles
            .entry(i)
            .or_insert_with(|| {
                if e.kway {
                    Served::Kway(with_input!(&e.input, w => serve::oracle_kway(w, set)))
                } else {
                    Served::Scalar(with_input!(&e.input, w => serve::oracle_scalar(w)))
                }
            })
            .clone()
    }
}

/// The seeded request stream of one round. Its composition is fixed per
/// workload kind: [`SIBLING_SHARE`] of the requests go to the siblings,
/// [`NEVER_SEEN_SHARE`] to the never-seen inputs, shared out evenly, and
/// the rest to registry inputs drawn from the Zipf distribution. A new
/// input's requests arrive together — its batches hold only it and
/// registry repeats — so every seed has the same number of batches that do
/// work, and they are shuffled among the all-hit batches. k-way requests
/// alternate spmm / cc.
fn stream(inputs: &[Entry], seed: u64) -> Vec<Call> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7e9);
    let mut calls = Vec::new();
    let of = |o: Origin, keep: &dyn Fn(&Entry) -> bool| -> Vec<usize> {
        (0..inputs.len())
            .filter(|&i| inputs[i].origin == o && keep(&inputs[i]))
            .collect()
    };
    // Requests per input when `n` of them are shared out over `among`.
    let share = |among: &[usize], n: usize| -> Vec<(usize, usize)> {
        let k = among.len();
        among
            .iter()
            .enumerate()
            .map(|(j, &i)| (i, n / k + usize::from(j < n % k)))
            .collect()
    };
    for kind in [Kind::Cc, Kind::Spmm, Kind::Hh] {
        let keep = move |e: &Entry| !e.kway && kind_of(e.family) == kind;
        let n = BATCHES / 3 * BATCH;
        let registry = of(Origin::Registry, &keep);
        let zipf = Zipf::new(registry.len(), ZIPF_S);
        let draw = |rng: &mut SmallRng| registry[zipf.sample(rng)];
        let mut fresh = share(
            &of(Origin::Sibling, &keep),
            (n as f64 * SIBLING_SHARE).round() as usize,
        );
        fresh.extend(share(
            &of(Origin::NeverSeen, &keep),
            (n as f64 * NEVER_SEEN_SHARE).round() as usize,
        ));
        let mut batches: Vec<Vec<usize>> = Vec::new();
        for (i, count) in fresh {
            let mut left = count;
            while left > 0 {
                let take = left.min(BATCH);
                let mut b = vec![i; take];
                b.extend((take..BATCH).map(|_| draw(&mut rng)));
                b.shuffle(&mut rng);
                batches.push(b);
                left -= take;
            }
        }
        while batches.len() < BATCHES / 3 {
            batches.push((0..BATCH).map(|_| draw(&mut rng)).collect());
        }
        calls.extend(batches.into_iter().map(Call::Batch));
    }
    let mut kway = |keep: &dyn Fn(&Entry) -> bool, n: usize| -> Vec<usize> {
        let registry = of(Origin::Registry, keep);
        let zipf = Zipf::new(registry.len(), ZIPF_S);
        let mut v: Vec<usize> = share(
            &of(Origin::Sibling, keep),
            (n as f64 * SIBLING_SHARE).round() as usize,
        )
        .into_iter()
        .chain(share(
            &of(Origin::NeverSeen, keep),
            (n as f64 * NEVER_SEEN_SHARE).round() as usize,
        ))
        .flat_map(|(i, count)| std::iter::repeat_n(i, count))
        .collect();
        v.extend((v.len()..n).map(|_| registry[zipf.sample(&mut rng)]));
        v.shuffle(&mut rng);
        v
    };
    let spmm = kway(
        &|e: &Entry| e.kway && e.family == Family::SpmmFem,
        KWAY_REQUESTS / 2,
    );
    let cc = kway(
        &|e: &Entry| e.kway && e.family != Family::SpmmFem,
        KWAY_REQUESTS / 2,
    );
    calls.extend(
        spmm.into_iter()
            .zip(cc)
            .flat_map(|(a, b)| [Call::Kway(a), Call::Kway(b)]),
    );
    calls.shuffle(&mut rng);
    calls
}

fn stats_delta(after: &CacheStats, before: &CacheStats) -> CacheStats {
    CacheStats {
        exact_hits: after.exact_hits - before.exact_hits,
        near_hits: after.near_hits - before.near_hits,
        misses: after.misses - before.misses,
        insertions: after.insertions - before.insertions,
        probes_saved: after.probes_saved - before.probes_saved,
        shadow_runs: after.shadow_runs - before.shadow_runs,
        patched_hits: after.patched_hits - before.patched_hits,
        patched_nudges: after.patched_nudges - before.patched_nudges,
        patched_rebuilds: after.patched_rebuilds - before.patched_rebuilds,
        stale_evictions: after.stale_evictions - before.stale_evictions,
        kway_exact_hits: after.kway_exact_hits - before.kway_exact_hits,
        kway_near_hits: after.kway_near_hits - before.kway_near_hits,
        kway_misses: after.kway_misses - before.kway_misses,
    }
}

impl Bench for Registry {
    fn round(&mut self, tracer: &mut Tracer) -> Round {
        let mut r = Round::default();
        // Untimed: a warm registry, and fresh objects for the inputs the
        // server has not seen before (one per distinct input per round;
        // repeats within the round share its sketch).
        let live = self.restore();
        let mut first_seen: BTreeMap<usize, Served> = self.warm.iter().cloned().collect();
        let objs: Vec<Input> = self
            .inputs
            .iter()
            .map(|e| match e.origin {
                Origin::Registry => e.input.clone(),
                Origin::Sibling | Origin::NeverSeen => e.input.fresh(),
            })
            .collect();
        let fresh_used: BTreeSet<usize> = self
            .calls
            .iter()
            .flat_map(|c| match c {
                Call::Batch(items) => items.clone(),
                Call::Kway(i) => vec![*i],
            })
            .filter(|&i| self.inputs[i].origin != Origin::Registry)
            .collect();
        r.count("fingerprint.calls", fresh_used.len() as f64);

        let base = live.cache.stats();
        let base_audit = live.audit.totals();
        let mut served: Vec<(usize, Served)> = Vec::new();
        for (req, call) in self.calls.iter().enumerate() {
            let req = req as u64;
            let before = live.cache.stats();
            let batch: Vec<Input> = match call {
                Call::Batch(items) => items.iter().map(|&i| objs[i].clone()).collect(),
                Call::Kway(i) => vec![objs[*i].clone()],
            };
            let t = Instant::now();
            tracer.open(req, REQUEST);
            if tracer.enabled() {
                tracer.open(req, "fingerprint");
                for o in &batch {
                    std::hint::black_box(o.fingerprint());
                }
                tracer.close();
            }
            tracer.open(req, "estimator");
            let out = guarded(&mut r.failures, "request", || match call {
                Call::Batch(_) => self
                    .serve_batch(&live, &batch)
                    .into_iter()
                    .map(Served::Scalar)
                    .collect::<Vec<_>>(),
                Call::Kway(_) => vec![Served::Kway(self.serve_kway(&live, &batch[0]))],
            });
            tracer.close();
            tracer.close();
            let ms = ms_since(t);
            r.call_ms.push(ms);
            let d = stats_delta(&live.cache.stats(), &before);
            match call {
                Call::Batch(items) => {
                    r.requests += items.len() as u64;
                    r.scalar_ms.extend(std::iter::repeat_n(ms, items.len()));
                    let classes: HashSet<_> =
                        batch.iter().map(|o| o.fingerprint().exact_key()).collect();
                    r.count("estimator.batch_classes", classes.len() as f64);
                }
                Call::Kway(_) => {
                    r.requests += 1;
                    r.kway_ms.push(ms);
                    if let Some(v) = &out {
                        if d.kway_exact_hits == 0 {
                            if let Some(Served::Kway(o)) = v.first() {
                                r.count("search.kway_probes", o.probes as f64);
                                r.count("search.kway_sweeps", o.sweeps as f64);
                            }
                        }
                    }
                }
            }
            // `misses` count warm-started misses too; cold = the rest.
            let cold = d.misses + d.kway_misses - d.near_hits - d.kway_near_hits;
            if d.shadow_runs > 0 {
                r.class("estimator.shadow_request_ms", ms);
            } else if cold == 0 {
                if d.near_hits + d.kway_near_hits > 0 {
                    r.class("estimator.near_hit_ms", ms);
                } else {
                    r.class("threshold_cache.exact_hit_us", ms * 1e3);
                }
            }
            let items: Vec<usize> = match call {
                Call::Batch(items) => items.clone(),
                Call::Kway(i) => vec![*i],
            };
            if let Some(v) = out {
                served.extend(items.into_iter().zip(v));
            }
        }

        // Untimed: counters, then checks.
        let d = stats_delta(&live.cache.stats(), &base);
        for (name, v) in [
            ("threshold_cache.exact_hits", d.exact_hits),
            ("threshold_cache.near_hits", d.near_hits),
            ("threshold_cache.misses", d.misses),
            ("threshold_cache.kway_exact_hits", d.kway_exact_hits),
            ("threshold_cache.kway_near_hits", d.kway_near_hits),
            ("threshold_cache.kway_misses", d.kway_misses),
            ("threshold_cache.probes_saved", d.probes_saved),
            ("estimator.shadow_runs", d.shadow_runs),
        ] {
            r.count(name, v as f64);
        }
        r.count(
            "profile.builds",
            (d.misses + d.kway_misses + d.shadow_runs) as f64,
        );
        let totals = live.audit.totals();
        let expected_events = r
            .counts
            .get("estimator.batch_classes")
            .copied()
            .unwrap_or(0.0) as u64
            + KWAY_REQUESTS as u64;
        r.count(
            "audit.events",
            (totals.requests - base_audit.requests) as f64,
        );
        r.count("audit.dropped", totals.dropped as f64);
        r.count(
            "search.evaluations",
            (totals.evaluations - base_audit.evaluations) as f64,
        );
        r.count(
            "search.grad_probes",
            (totals.grad_probes - base_audit.grad_probes) as f64,
        );
        match validate_audit_jsonl(&live.audit.to_jsonl()) {
            Ok(c) if c.totals.dropped == 0 && c.totals.requests == expected_events => {}
            Ok(c) => r.failures.push(format!("audit log: {:?}", c.totals)),
            Err(e) => r.failures.push(format!("audit log invalid: {e}")),
        }

        // Cold decisions must equal the silent run; every later serve of an
        // input must equal its first (the exact-hit contract).
        for ev in live.audit.events() {
            if ev.decision != CacheDecision::Cold || ev.arity != 2 {
                continue;
            }
            let i = self.by_digest[&ev.digest];
            match self.oracle(i) {
                Served::Scalar(o) if o.threshold == ev.threshold => {}
                _ => r
                    .failures
                    .push(format!("input {i}: cold serve differs from the silent run")),
            }
        }
        for (i, out) in &served {
            match first_seen.get(i) {
                Some(first) if first != out => r
                    .failures
                    .push(format!("input {i}: repeat serve differs from its first")),
                Some(_) => {}
                None => {
                    first_seen.insert(*i, out.clone());
                }
            }
            if let Served::Kway(o) = out {
                if self.inputs[*i].origin == Origin::NeverSeen && self.oracle(*i) != *out {
                    r.failures
                        .push(format!("k-way input {i}: cold serve differs"));
                }
                if !o.cuts.iter().all(|c| c.is_finite()) {
                    r.failures.push(format!("k-way input {i}: non-finite cut"));
                }
            }
        }
        if tracer.enabled() {
            if self.direct_run_ms.is_empty() {
                self.direct_run_ms = self.direct_runs();
            }
            for &ms in &self.direct_run_ms {
                r.class("workloads.direct_run_ms", ms);
            }
        }
        if self.first_round.is_none() && served.len() as u64 == r.requests {
            self.first_round = Some(served);
        }
        r
    }

    /// Every serve of an input equals its first (checked each round), so
    /// the distinct decisions are one per input served; each is priced
    /// once, unweighted by how often the Zipf head repeats it.
    fn cost_ratios(&mut self) -> (Vec<f64>, Vec<String>) {
        let Some(first) = &self.first_round else {
            return (Vec::new(), vec!["no complete round to price".to_string()]);
        };
        let mut seen = BTreeSet::new();
        let items: Vec<(&Input, &Served)> = first
            .iter()
            .filter(|(i, _)| seen.insert(*i))
            .map(|(i, served)| (&self.inputs[*i].input, served))
            .collect();
        (serve::cost_ratios(&items, &self.set), Vec::new())
    }

    fn context(&self) -> Vec<(&'static str, String)> {
        let count = |o: Origin, kway: bool| {
            self.inputs
                .iter()
                .filter(|e| e.origin == o && e.kway == kway)
                .count()
        };
        let parents = self
            .inputs
            .iter()
            .filter(|e| e.origin == Origin::Registry)
            .count();
        let near_shared = (0..parents * SIBLINGS)
            .filter(|&k| {
                let near = |i: usize| self.inputs[i].input.fingerprint().near_key();
                near(k / SIBLINGS) == near(parents + k)
            })
            .count();
        vec![
            ("batch_size", BATCH.to_string()),
            ("siblings_sharing_parent_near_key", near_shared.to_string()),
            ("scalar_requests_per_round", (BATCH * BATCHES).to_string()),
            ("kway_requests_per_round", KWAY_REQUESTS.to_string()),
            (
                "scalar_inputs_registry_sibling_never",
                format!(
                    "[{}, {}, {}]",
                    count(Origin::Registry, false),
                    count(Origin::Sibling, false),
                    count(Origin::NeverSeen, false)
                ),
            ),
            (
                "kway_inputs_registry_sibling_never",
                format!(
                    "[{}, {}, {}]",
                    count(Origin::Registry, true),
                    count(Origin::Sibling, true),
                    count(Origin::NeverSeen, true)
                ),
            ),
            ("registry_sizes", format!("{REGISTRY_SIZES:?}")),
            (
                "kway_registry",
                format!(
                    "{:?}",
                    KWAY_REGISTRY.map(|(f, n)| format!("{} {n}", f.name()))
                ),
            ),
            ("never_seen_sizes", format!("{NEVER_SEEN_SIZES:?}")),
            ("zipf_s", ZIPF_S.to_string()),
        ]
    }
}
