//! `drift`: `DriftServer`s replay windowed delta scripts on banded-FEM cc
//! and spmm inputs, at k = 2 and k = 4, with a cache and a flight recorder
//! attached — `nbwp estimate --drift`. Delta apply, fingerprint chaining,
//! span patching and warm re-descent do the work; from-scratch
//! fingerprinting, sampling and cache lookups do none.

use std::time::Instant;

use nbwp_core::prelude::*;
use nbwp_sim::ProfileScratch;

use crate::inputs::{self, DRIFT_FRACTIONS};
use crate::trace::{Tracer, REQUEST};
use crate::{guarded, ms_since, Bench, Round, REPLICA};

/// The cc servers: base input units (vertices) and whether the server
/// serves k = 4. Two inputs per arity, so no one input's step costs set a
/// percentile. A cc k = 4 step costs about ten spmm k = 4 steps at equal
/// size; the sizes even out the step costs within each request kind, so its
/// latencies form one cluster.
pub const CC_SERVERS: [(usize, bool); 4] = [
    (10_000, false),
    (8_000, false),
    (4_000, true),
    (3_000, true),
];
/// The spmm servers: base input rows and whether the server serves k = 4.
pub const SPMM_SERVERS: [(usize, bool); 4] = [
    (10_000, false),
    (12_000, false),
    (40_000, true),
    (32_000, true),
];
/// Deltas each server applies per round (the window fraction cycles
/// through 0.1%, 1% and 10%).
pub const STEPS: usize = 30;
/// In the first round, every `PROFILE_CHECK_STRIDE`-th step of each server
/// compares its patched profile with a fresh build.
pub const PROFILE_CHECK_STRIDE: usize = 2;

/// Bitwise comparison of a patched profile with a fresh build.
trait ProfileEq: DriftWorkload {
    fn profile_eq(a: &Self::Profile, b: &Self::Profile) -> bool;
}

impl ProfileEq for CcWorkload {
    fn profile_eq(a: &Self::Profile, b: &Self::Profile) -> bool {
        a.raw_curves() == b.raw_curves()
    }
}

impl ProfileEq for SpmmWorkload {
    fn profile_eq(a: &Self::Profile, b: &Self::Profile) -> bool {
        a.curves() == b.curves() && a.partition() == b.partition()
    }
}

/// One server's script and its first-round results.
struct Lane<W: DriftWorkload> {
    base: W,
    kway: bool,
    script: Vec<W::Delta>,
    /// The server built in set-up, handed to the first round.
    prebuilt: Option<DriftServer<'static, W>>,
    first_round: Option<Vec<DriftStep>>,
    /// Served total over the cold optimum, per first-round step.
    ratios: Vec<f64>,
}

impl<W: ProfileEq + Clone> Lane<W> {
    fn new(base: W, kway: bool, script: Vec<W::Delta>) -> Self {
        let server = build(&base, kway);
        Lane {
            base,
            kway,
            script,
            prebuilt: Some(server),
            first_round: None,
            ratios: Vec::new(),
        }
    }

    fn set(&self) -> DeviceSet {
        if self.kway {
            DeviceSet::dual_cpu_dual_gpu()
        } else {
            DeviceSet::cpu_gpu_static().clone()
        }
    }
}

fn build<'a, W: DriftWorkload + Clone>(base: &W, kway: bool) -> DriftServer<'a, W> {
    let server = DriftServer::new(base.clone());
    if kway {
        server.with_devices(DeviceSet::dual_cpu_dual_gpu())
    } else {
        server
    }
}

/// The benchmark's own copy of a server's pipeline, driven through the
/// public layer calls in traced rounds: it must reach the same cuts.
struct Replica<W: DriftWorkload> {
    workload: W,
    profile: W::Profile,
    scratch: ProfileScratch,
    cuts: Vec<f64>,
}

/// One lane's live state in a round.
struct Live<'a, W: DriftWorkload> {
    server: DriftServer<'a, W>,
    replica: Option<Replica<W>>,
    steps: Vec<DriftStep>,
}

/// Set-up state of the `drift` workload.
pub struct Drift {
    cc: Vec<Lane<CcWorkload>>,
    spmm: Vec<Lane<SpmmWorkload>>,
    /// Timed ms per server (cc servers, then spmm servers) and rounds.
    lane_ms: Vec<f64>,
    rounds: u64,
}

impl Drift {
    /// Generates the inputs and scripts from `seed` and builds the servers.
    pub fn setup(seed: u64) -> Drift {
        let s = |k: usize| seed.wrapping_mul(1000) + k as u64;
        let cc = CC_SERVERS.iter().enumerate().map(|(j, &(n, kway))| {
            Lane::new(
                inputs::fem_graph(n, s(j)),
                kway,
                inputs::cc_script(n, STEPS, s(100 + j)),
            )
        });
        let spmm = SPMM_SERVERS.iter().enumerate().map(|(j, &(n, kway))| {
            let script = inputs::spmm_script(n, STEPS, s(200 + j));
            Lane::new(inputs::fem_matrix(n, s(10 + j)), kway, script)
        });
        Drift {
            cc: cc.collect(),
            spmm: spmm.collect(),
            lane_ms: vec![0.0; CC_SERVERS.len() + SPMM_SERVERS.len()],
            rounds: 0,
        }
    }

    /// Fingerprint digests of the base inputs, then the fingerprint
    /// digests each server's script chains through — the seeded identity of
    /// a run.
    pub fn digests(&self) -> Vec<u64> {
        let mut v = Vec::new();
        for lane in &self.cc {
            v.extend(chain(&lane.base, &lane.script));
        }
        for lane in &self.spmm {
            v.extend(chain(&lane.base, &lane.script));
        }
        v
    }
}

/// The base digest and the chained digest after each delta of `script`.
fn chain<W: DriftWorkload>(base: &W, script: &[W::Delta]) -> Vec<u64> {
    let mut v = vec![base.fingerprint().digest];
    let mut w = base.apply_delta(&script[0]).0;
    v.push(w.fingerprint().digest);
    for d in &script[1..] {
        w = w.apply_delta(d).0;
        v.push(w.fingerprint().digest);
    }
    v
}

fn live<'a, W: ProfileEq + Clone>(
    lane: &mut Lane<W>,
    cache: &'a ThresholdCache,
    audit: &'a FlightRecorder,
    traced: bool,
) -> Live<'a, W> {
    let server = lane
        .prebuilt
        .take()
        .unwrap_or_else(|| build(&lane.base, lane.kway));
    let server = server.with_cache(cache).with_audit(audit);
    let replica = traced.then(|| {
        let mut scratch = ProfileScratch::new();
        let profile = lane.base.build_profile_in(Pool::global(), &mut scratch);
        Replica {
            workload: lane.base.clone(),
            profile,
            scratch,
            cuts: server.cuts().to_vec(),
        }
    });
    Live {
        server,
        replica,
        steps: Vec::new(),
    }
}

/// Serves step `i` of one lane; returns its latency in ms.
fn step<W: ProfileEq + Clone>(
    lane: &Lane<W>,
    live: &mut Live<'_, W>,
    i: usize,
    req: u64,
    tracer: &mut Tracer,
    r: &mut Round,
) -> f64 {
    let delta = &lane.script[i];
    let t = Instant::now();
    tracer.open(req, REQUEST);
    let out = guarded(&mut r.failures, "drift step", || live.server.apply(delta));
    tracer.close();
    let ms = ms_since(t);
    let Some(s) = out else { return ms };
    if let Some(rep) = live.replica.as_mut() {
        let set = lane.set();
        tracer.open(req, REPLICA);
        tracer.open(req, "drift.apply_delta");
        let (next, _) = rep.workload.apply_delta(delta);
        tracer.close();
        tracer.open(req, "drift.patch");
        next.patch_profile(&mut rep.profile, s.span.clone(), &mut rep.scratch);
        tracer.close();
        tracer.open(req, "search");
        let space = next.space();
        let warm = (s.decision != DriftDecision::Rebuilt).then_some(rep.cuts.as_slice());
        let m = next
            .curve(&rep.profile)
            .and_then(|c| minimize_partition(c.as_ref(), &set, &space, space.fine_step, warm));
        tracer.close();
        tracer.close();
        match m {
            Some(m) if m.thresholds == s.cuts && m.total == s.total => rep.cuts = m.thresholds,
            _ => r
                .failures
                .push(format!("step {i}: layer replica differs from the server")),
        }
        rep.workload = next;
    }
    live.steps.push(s);
    ms
}

/// First-round checks of one step, against the drifted input rebuilt from
/// scratch: the patched profile equals a fresh build (on every
/// [`PROFILE_CHECK_STRIDE`]-th step), and the served total is priced over
/// the cold full-input optimum.
fn first_round_check<W: ProfileEq + Clone>(
    lane: &mut Lane<W>,
    live: &Live<'_, W>,
    i: usize,
    r: &mut Round,
) {
    let w = live.server.workload();
    let fresh = w.build_profile(Pool::global());
    if i.is_multiple_of(PROFILE_CHECK_STRIDE) && !W::profile_eq(live.server.profile(), &fresh) {
        r.failures.push(format!(
            "step {i}: patched profile differs from a fresh build"
        ));
    }
    let space = w.space();
    let set = lane.set();
    let cold = w
        .curve(&fresh)
        .and_then(|c| minimize_partition(c.as_ref(), &set, &space, space.fine_step, None));
    match (cold, live.steps.last()) {
        (Some(cold), Some(s)) => lane.ratios.push(crate::ratio(s.total, cold.total)),
        _ => r
            .failures
            .push(format!("step {i}: no cold optimum to price against")),
    }
}

fn finish<W: ProfileEq + Clone>(lane: &mut Lane<W>, live: Live<'_, W>, r: &mut Round) {
    for s in &live.steps {
        r.count("drift.span_units", s.span.len() as f64);
        r.count("drift.probes", s.probes as f64);
        let decision = match s.decision {
            DriftDecision::Patched => "drift.patched",
            DriftDecision::Nudged => "drift.nudged",
            DriftDecision::Rebuilt => "drift.rebuilt",
        };
        r.count(decision, 1.0);
        if lane.kway {
            r.count("search.kway_probes", s.probes as f64);
        }
    }
    match &lane.first_round {
        None if live.steps.len() == lane.script.len() => lane.first_round = Some(live.steps),
        Some(first) if *first != live.steps => r
            .failures
            .push("drift replay differs from the first round".to_string()),
        _ => {}
    }
}

/// Serves step `i` of every lane in `lanes`, in order.
#[allow(clippy::too_many_arguments)]
fn step_all<W: ProfileEq + Clone>(
    lanes: &mut [Lane<W>],
    lives: &mut [Live<'_, W>],
    lane_ms: &mut [f64],
    i: usize,
    first: bool,
    req: &mut u64,
    tracer: &mut Tracer,
    r: &mut Round,
) {
    for ((lane, live), acc) in lanes.iter_mut().zip(lives).zip(lane_ms) {
        let ms = step(lane, live, i, *req, tracer, r);
        *req += 1;
        *acc += ms;
        r.call_ms.push(ms);
        if lane.kway {
            r.kway_ms.push(ms);
        } else {
            r.scalar_ms.push(ms);
        }
        if first {
            first_round_check(lane, live, i, r);
        }
    }
}

impl Bench for Drift {
    fn round(&mut self, tracer: &mut Tracer) -> Round {
        let mut r = Round::default();
        let cache = ThresholdCache::default();
        let lanes = self.cc.len() + self.spmm.len();
        let audit = FlightRecorder::with_capacity(lanes * STEPS);
        let traced = tracer.enabled();
        let first = self.cc[0].first_round.is_none();
        let mut cc: Vec<_> = self
            .cc
            .iter_mut()
            .map(|l| live(l, &cache, &audit, traced))
            .collect();
        let mut spmm: Vec<_> = self
            .spmm
            .iter_mut()
            .map(|l| live(l, &cache, &audit, traced))
            .collect();
        let base = cache.stats();
        let (cc_ms, spmm_ms) = self.lane_ms.split_at_mut(self.cc.len());
        let mut req = 0u64;
        for i in 0..STEPS {
            step_all(
                &mut self.cc,
                &mut cc,
                cc_ms,
                i,
                first,
                &mut req,
                tracer,
                &mut r,
            );
            step_all(
                &mut self.spmm,
                &mut spmm,
                spmm_ms,
                i,
                first,
                &mut req,
                tracer,
                &mut r,
            );
        }
        self.rounds += 1;
        r.requests = req;
        let saved = cache.stats().probes_saved - base.probes_saved;
        r.count("threshold_cache.probes_saved", saved as f64);
        for (lane, live) in self.cc.iter_mut().zip(cc) {
            finish(lane, live, &mut r);
        }
        for (lane, live) in self.spmm.iter_mut().zip(spmm) {
            finish(lane, live, &mut r);
        }
        let totals = audit.totals();
        r.count("audit.events", totals.requests as f64);
        r.count("audit.dropped", totals.dropped as f64);
        match validate_audit_jsonl(&audit.to_jsonl()) {
            Ok(c) if c.totals.dropped == 0 && c.totals.requests == req => {}
            Ok(c) => r.failures.push(format!("audit log: {:?}", c.totals)),
            Err(e) => r.failures.push(format!("audit log invalid: {e}")),
        }
        r
    }

    fn cost_ratios(&mut self) -> (Vec<f64>, Vec<String>) {
        let cc = self.cc.iter().flat_map(|l| l.ratios.iter());
        let spmm = self.spmm.iter().flat_map(|l| l.ratios.iter());
        (cc.chain(spmm).copied().collect(), Vec::new())
    }

    fn context(&self) -> Vec<(&'static str, String)> {
        let per_round = self.rounds.max(1) as f64 * STEPS as f64;
        vec![
            (
                "cc_servers_units_kway",
                format!("{CC_SERVERS:?}")
                    .replace('(', "[")
                    .replace(')', "]"),
            ),
            (
                "spmm_servers_units_kway",
                format!("{SPMM_SERVERS:?}")
                    .replace('(', "[")
                    .replace(')', "]"),
            ),
            ("steps_per_server_per_round", STEPS.to_string()),
            ("window_fractions", format!("{DRIFT_FRACTIONS:?}")),
            (
                "mean_step_ms_by_server",
                format!(
                    "{:?}",
                    self.lane_ms
                        .iter()
                        .map(|ms| ms / per_round)
                        .collect::<Vec<_>>()
                ),
            ),
        ]
    }
}
