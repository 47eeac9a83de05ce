//! `oneshot`: every request is cold. Each wraps a fresh workload object
//! around an input from a pool generated in set-up, so fingerprint, sample,
//! profile, search and extrapolate all run, while the cache and the shadow
//! sampler never do. Served like `nbwp estimate --analytic --audit-out`:
//! `run_cached` / `run_partition_cached` with a flight recorder attached
//! and no cache.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use nbwp_core::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::inputs::{Family, Input};
use crate::serve::{self, Served};
use crate::trace::Tracer;
use crate::{guarded, ms_since, with_input, Bench, Round};

/// Scalar pool: input sizes generated per family.
pub const SCALAR_SIZES: [usize; 5] = [10_000, 13_000, 16_000, 19_000, 22_000];
/// Scalar requests per pool input per round.
pub const SCALAR_REPEATS: usize = 6;
/// k = 4 pool: spmm input sizes, large enough that spmm and cc k-way
/// requests cost about the same and their latencies form one cluster.
pub const KWAY_SPMM_SIZES: [usize; 12] = [
    20_000, 22_000, 24_000, 26_000, 28_000, 30_000, 32_000, 34_000, 36_000, 38_000, 40_000, 42_000,
];
/// k = 4 pool: cc inputs. Web graphs cost several times more per unit than
/// road graphs, so they get the small slots and no family dominates.
pub const KWAY_CC: [(Family, usize); 12] = [
    (Family::CcWeb, 2_000),
    (Family::CcWeb, 2_500),
    (Family::CcWeb, 3_000),
    (Family::CcWeb, 3_500),
    (Family::CcRoad, 4_500),
    (Family::CcRoad, 5_000),
    (Family::CcRoad, 5_500),
    (Family::CcRoad, 6_000),
    (Family::CcRoad, 7_000),
    (Family::CcRoad, 8_000),
    (Family::CcRoad, 9_000),
    (Family::CcRoad, 10_000),
];
/// k = 4 requests per pool input per round.
pub const KWAY_REPEATS: usize = 5;

#[derive(Copy, Clone)]
enum Kind {
    Scalar,
    Kway,
}

/// One pool input.
struct Entry {
    family: Family,
    kind: Kind,
    input: Input,
}

/// Set-up state of the `oneshot` workload.
pub struct Oneshot {
    pool: Vec<Entry>,
    /// Pool index of each request in one round, in serving order.
    stream: Vec<usize>,
    set: DeviceSet,
    oracles: BTreeMap<usize, Served>,
    first_round: Option<Vec<Served>>,
    /// Timed ms and request count per (family, k-way?).
    family_ms: BTreeMap<(Family, bool), (f64, u64)>,
}

impl Oneshot {
    /// Generates the input pool and the request order from `seed`.
    pub fn setup(seed: u64) -> Oneshot {
        let mut pool = Vec::new();
        for (fi, family) in Family::ALL.into_iter().enumerate() {
            for (si, &n) in SCALAR_SIZES.iter().enumerate() {
                let s = seed.wrapping_mul(1000) + (fi * 10 + si) as u64;
                pool.push(Entry {
                    family,
                    kind: Kind::Scalar,
                    input: family.generate(n, s),
                });
            }
        }
        let kway = KWAY_SPMM_SIZES.iter().map(|&n| (Family::SpmmFem, n));
        for (family, n) in kway.chain(KWAY_CC) {
            let s = seed.wrapping_mul(1000) + 500 + pool.len() as u64;
            pool.push(Entry {
                family,
                kind: Kind::Kway,
                input: family.generate(n, s),
            });
        }
        let mut stream: Vec<usize> = Vec::new();
        for (i, e) in pool.iter().enumerate() {
            let repeats = match e.kind {
                Kind::Scalar => SCALAR_REPEATS,
                Kind::Kway => KWAY_REPEATS,
            };
            stream.extend(std::iter::repeat_n(i, repeats));
        }
        stream.shuffle(&mut SmallRng::seed_from_u64(seed ^ 0x5eed));
        Oneshot {
            pool,
            stream,
            set: serve::kway_set(),
            oracles: BTreeMap::new(),
            first_round: None,
            family_ms: BTreeMap::new(),
        }
    }

    /// Fingerprint digests of the pool inputs, in pool order.
    pub fn digests(&self) -> Vec<u64> {
        self.pool
            .iter()
            .map(|e| e.input.fingerprint().digest)
            .collect()
    }

    /// Pool index of each request in one round.
    pub fn stream(&self) -> &[usize] {
        &self.stream
    }

    /// The silent reference result for pool input `i`.
    fn oracle(&mut self, i: usize) -> &Served {
        let set = &self.set;
        let e = &self.pool[i];
        self.oracles.entry(i).or_insert_with(|| match e.kind {
            Kind::Scalar => Served::Scalar(with_input!(&e.input, w => serve::oracle_scalar(w))),
            Kind::Kway => Served::Kway(with_input!(&e.input, w => serve::oracle_kway(w, set))),
        })
    }

    /// Checks one served result against the silent reference; k-way
    /// totals are also re-priced on the full input's curve (once per
    /// input).
    fn check(&mut self, i: usize, served: &Served) -> Result<(), String> {
        let first_sight = !self.oracles.contains_key(&i);
        let set = self.set.clone();
        let oracle = self.oracle(i).clone();
        match (served, &oracle) {
            (Served::Scalar(a), Served::Scalar(b)) if a == b => Ok(()),
            (Served::Kway(a), Served::Kway(b)) if a == b => {
                if first_sight {
                    let priced =
                        with_input!(&self.pool[i].input, w => serve::reprice_kway(w, &set, a));
                    if priced != Some(a.total) {
                        return Err(format!(
                            "k-way input {i}: total {} re-prices to {priced:?}",
                            a.total
                        ));
                    }
                }
                Ok(())
            }
            _ => Err(format!(
                "input {i}: served result differs from the silent run"
            )),
        }
    }
}

impl Bench for Oneshot {
    fn round(&mut self, tracer: &mut Tracer) -> Round {
        let mut r = Round::default();
        let audit = FlightRecorder::with_capacity(self.stream.len().max(1));
        let scalar = serve::estimator().audit(&audit).profiled();
        let kway = serve::estimator()
            .audit(&audit)
            .devices(&self.set)
            .profiled();
        let mut served = Vec::with_capacity(self.stream.len());
        for (req, &i) in self.stream.iter().enumerate() {
            let req = req as u64;
            let kind = self.pool[i].kind;
            // A fresh workload object, built untimed: the request
            // fingerprints from scratch.
            let fresh = self.pool[i].input.fresh();
            let input = &fresh;
            let t = Instant::now();
            let out = guarded(&mut r.failures, "request", || {
                match (kind, tracer.enabled()) {
                    (Kind::Scalar, false) => {
                        let est = with_input!(input, w => scalar.run_cached(w));
                        (Served::Scalar(est), ms_since(t))
                    }
                    (Kind::Kway, false) => {
                        let out = with_input!(input, w => kway.run_partition_cached(w));
                        (Served::Kway(out), ms_since(t))
                    }
                    (Kind::Scalar, true) => {
                        let (est, ms) =
                            with_input!(input, w => serve::traced_scalar(w, req, tracer));
                        (Served::Scalar(est), ms)
                    }
                    (Kind::Kway, true) => {
                        let (out, ms) =
                            with_input!(input, w => serve::traced_kway(w, &self.set, req, tracer));
                        (Served::Kway(out), ms)
                    }
                }
            });
            let (out, ms) = match out {
                Some((served, ms)) => (Some(served), ms),
                None => (None, ms_since(t)),
            };
            r.call_ms.push(ms);
            r.requests += 1;
            let slot = self
                .family_ms
                .entry((self.pool[i].family, matches!(kind, Kind::Kway)))
                .or_insert((0.0, 0));
            slot.0 += ms;
            slot.1 += 1;
            match kind {
                Kind::Scalar => r.scalar_ms.push(ms),
                Kind::Kway => r.kway_ms.push(ms),
            }
            served.push(out);
        }

        // Untimed: checks and per-round counts.
        for (&i, out) in self.stream.clone().iter().zip(&served) {
            let Some(out) = out else { continue };
            if let Err(e) = self.check(i, out) {
                r.failures.push(e);
            }
            r.count("fingerprint.calls", 1.0);
            r.count("profile.builds", 1.0);
            match out {
                Served::Scalar(est) => {
                    r.count("sample.units", est.sample_size as f64);
                    r.count("search.evaluations", est.evaluations as f64);
                    r.count("search.grad_probes", est.grad_probes as f64);
                }
                Served::Kway(o) => {
                    r.count("search.kway_probes", o.probes as f64);
                    r.count("search.kway_sweeps", o.sweeps as f64);
                }
            }
        }
        if !tracer.enabled() {
            let totals = audit.totals();
            r.count("audit.events", totals.requests as f64);
            r.count("audit.dropped", totals.dropped as f64);
            match validate_audit_jsonl(&audit.to_jsonl()) {
                Ok(c) if c.totals.dropped == 0 && c.totals.requests == r.requests => {}
                Ok(c) => r.failures.push(format!("audit log: {:?}", c.totals)),
                Err(e) => r.failures.push(format!("audit log invalid: {e}")),
            }
        }
        if self.first_round.is_none() && served.iter().all(Option::is_some) {
            self.first_round = Some(served.into_iter().flatten().collect());
        }
        r
    }

    /// Every request for a pool input is served its silent-run decision
    /// (checked each round), so each pool input is priced once.
    fn cost_ratios(&mut self) -> (Vec<f64>, Vec<String>) {
        let Some(first) = &self.first_round else {
            return (Vec::new(), vec!["no complete round to price".to_string()]);
        };
        let mut seen = BTreeSet::new();
        let items: Vec<(&Input, &Served)> = self
            .stream
            .iter()
            .zip(first)
            .filter(|(i, _)| seen.insert(**i))
            .map(|(&i, served)| (&self.pool[i].input, served))
            .collect();
        (serve::cost_ratios(&items, &self.set), Vec::new())
    }

    fn context(&self) -> Vec<(&'static str, String)> {
        let sizes = |kind: fn(&Kind) -> bool| {
            let v: Vec<String> = self
                .pool
                .iter()
                .filter(|e| kind(&e.kind))
                .map(|e| {
                    format!(
                        "[\"{}\", {}, {}]",
                        e.family.name(),
                        e.input.size(),
                        e.input.work()
                    )
                })
                .collect();
            format!("[{}]", v.join(", "))
        };
        let total: f64 = self.family_ms.values().map(|v| v.0).sum();
        let mut by_family: BTreeMap<Family, f64> = BTreeMap::new();
        for ((f, _), (ms, _)) in &self.family_ms {
            *by_family.entry(*f).or_insert(0.0) += ms;
        }
        let shares: Vec<String> = by_family
            .iter()
            .map(|(f, ms)| format!("\"{}\": {:.3}", f.name(), ms / total.max(1e-9)))
            .collect();
        let means: Vec<String> = self
            .family_ms
            .iter()
            .map(|((f, k), (ms, n))| {
                let kind = if *k { "kway" } else { "scalar" };
                format!("\"{}/{kind}\": {:.3}", f.name(), ms / (*n).max(1) as f64)
            })
            .collect();
        vec![
            ("requests_per_round", self.stream.len().to_string()),
            (
                "scalar_inputs_family_n_work",
                sizes(|k| matches!(k, Kind::Scalar)),
            ),
            (
                "kway_inputs_family_n_work",
                sizes(|k| matches!(k, Kind::Kway)),
            ),
            (
                "timed_share_by_family",
                format!("{{{}}}", shares.join(", ")),
            ),
            ("mean_ms_by_family", format!("{{{}}}", means.join(", "))),
        ]
    }
}
