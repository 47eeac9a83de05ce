//! Pool-invariance properties for the `nbwp-par` execution layer: every
//! search strategy and the trace exports must produce *identical* simulated
//! results for any worker count, and a search prices every candidate on
//! the calling thread whatever pool it is given. Threads pay at the job
//! grain only (corpus datasets, sweep factors, estimate repeats).

use std::sync::Mutex;
use std::thread::ThreadId;

use nbwp_core::prelude::*;
use nbwp_core::search::Strategy as SearchStrategy;
use nbwp_sparse::gen as sparse_gen;
use nbwp_trace::{chrome_trace, jsonl};
use proptest::prelude::*;

/// Bitwise digest of a search outcome: thresholds as raw bits plus the full
/// evaluation log, so reordering or any numeric drift is caught exactly.
fn digest(out: &SearchOutcome) -> (u64, SimTime, SimTime, Vec<(u64, SimTime)>) {
    (
        out.best_t.to_bits(),
        out.best_time,
        out.search_cost,
        out.evals
            .iter()
            .map(|&(t, time)| (t.to_bits(), time))
            .collect(),
    )
}

fn spmm_workload(rows: usize, seed: u64) -> SpmmWorkload {
    SpmmWorkload::new(
        sparse_gen::uniform_random(rows, 8, seed),
        Platform::k40c_xeon_e5_2650(),
    )
}

#[test]
fn every_strategy_is_thread_count_invariant() {
    let w = spmm_workload(3_000, 7);
    let rec = Recorder::disabled();
    let serial = Pool::new(1);
    let strategies = [
        ("exhaustive", SearchStrategy::Exhaustive { step: Some(1.0) }),
        ("coarse_to_fine", SearchStrategy::CoarseToFine),
        ("race_then_fine", SearchStrategy::RaceThenFine),
        (
            "gradient_descent",
            SearchStrategy::GradientDescent { max_evals: 20 },
        ),
    ];
    for threads in [2, 4, 8] {
        let pool = Pool::new(threads);
        for (name, s) in strategies {
            let base = Searcher::new(s).recorder(&rec);
            assert_eq!(
                digest(&base.pool(&serial).run(&w)),
                digest(&base.pool(&pool).run(&w)),
                "{name}, {threads} threads"
            );
        }
    }
}

#[test]
fn estimate_traces_are_byte_identical_across_pools() {
    let w = spmm_workload(2_000, 11);
    let exports = |threads: usize| {
        let rec = Recorder::new();
        let pool = Pool::new(threads);
        let est = Estimator::new(SearchStrategy::CoarseToFine)
            .seed(42)
            .recorder(&rec)
            .pool(&pool)
            .run(&w);
        let trace = rec.finish();
        (est.threshold.to_bits(), chrome_trace(&trace), jsonl(&trace))
    };
    let (t1, chrome1, jsonl1) = exports(1);
    let (t4, chrome4, jsonl4) = exports(4);
    assert_eq!(t1, t4, "estimated threshold must not depend on the pool");
    assert_eq!(chrome1, chrome4, "Chrome trace must be byte-identical");
    assert_eq!(jsonl1, jsonl4, "JSONL trace must be byte-identical");
}

/// Records the thread of every candidate run of the wrapped workload.
struct ThreadLog<W> {
    inner: W,
    threads: Mutex<Vec<ThreadId>>,
}

impl<W: PartitionedWorkload> PartitionedWorkload for ThreadLog<W> {
    fn run(&self, t: f64) -> nbwp_sim::RunReport {
        self.threads
            .lock()
            .expect("no run panics")
            .push(std::thread::current().id());
        self.inner.run(t)
    }
    fn space(&self) -> ThresholdSpace {
        self.inner.space()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn platform(&self) -> &Platform {
        self.inner.platform()
    }
}

#[test]
fn every_strategy_prices_its_candidates_on_the_calling_thread() {
    let pool = Pool::new(4);
    let caller = std::thread::current().id();
    for s in [
        SearchStrategy::Exhaustive { step: Some(1.0) },
        SearchStrategy::CoarseToFine,
        SearchStrategy::RaceThenFine,
        SearchStrategy::GradientDescent { max_evals: 20 },
    ] {
        let w = ThreadLog {
            inner: spmm_workload(1_000, 5),
            threads: Mutex::new(Vec::new()),
        };
        let out = Searcher::new(s).pool(&pool).run(&w);
        let threads = w.threads.into_inner().expect("no run panics");
        assert!(threads.len() >= out.evaluations(), "{}", s.name());
        assert!(
            threads.iter().all(|&id| id == caller),
            "{}: a candidate ran off the calling thread",
            s.name()
        );
    }
}

/// Constant-time workload: every threshold ties, so the winner must be the
/// lowest threshold regardless of evaluation order (serial or pooled).
/// Regression test for the `from_evals` tie-breaking rule.
#[test]
fn ties_break_toward_the_lowest_threshold() {
    use nbwp_sim::{KernelStats, RunBreakdown, RunReport};

    struct Flat(Platform);
    impl PartitionedWorkload for Flat {
        fn run(&self, _t: f64) -> RunReport {
            RunReport {
                breakdown: RunBreakdown {
                    partition: SimTime::from_millis(1.0),
                    ..RunBreakdown::default()
                },
                cpu_stats: KernelStats::default(),
                gpu_stats: KernelStats::default(),
            }
        }
        fn space(&self) -> ThresholdSpace {
            ThresholdSpace::percentage()
        }
        fn size(&self) -> usize {
            100
        }
        fn platform(&self) -> &Platform {
            &self.0
        }
    }

    let w = Flat(Platform::k40c_xeon_e5_2650());
    let rec = Recorder::disabled();
    for threads in [1, 4] {
        let pool = Pool::new(threads);
        let out = Searcher::new(SearchStrategy::Exhaustive { step: Some(1.0) })
            .recorder(&rec)
            .pool(&pool)
            .run(&w);
        assert_eq!(out.best_t, 0.0, "{threads} threads");
        let out = Searcher::new(SearchStrategy::CoarseToFine)
            .recorder(&rec)
            .pool(&pool)
            .run(&w);
        assert_eq!(out.best_t, 0.0, "{threads} threads");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn exhaustive_search_parity_on_random_matrices(
        rows in 64usize..512,
        seed in 0u64..1_000,
        threads in 2usize..9,
    ) {
        let w = spmm_workload(rows, seed);
        let rec = Recorder::disabled();
        let base = Searcher::new(SearchStrategy::Exhaustive { step: Some(5.0) }).recorder(&rec);
        let (p1, pn) = (Pool::new(1), Pool::new(threads));
        let serial = digest(&base.pool(&p1).run(&w));
        let pooled = digest(&base.pool(&pn).run(&w));
        prop_assert_eq!(serial, pooled);
    }
}
