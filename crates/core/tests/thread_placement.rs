//! Where the threaded engines run.  Every engine draws its threads from
//! one per-evaluation worker set: at one worker, round, cascade and ybw
//! touch only the calling thread; at `k` workers, at most `k` distinct
//! threads.  Values, round counts and leaf counts stay equal to the
//! sequential and model references whatever the worker count.

use gt_core::engine::{CascadeEngine, RoundEngine, YbwEngine};
use gt_tree::gen::UniformSource;
use gt_tree::minimax::{minimax_value, nor_value, seq_alphabeta, seq_solve};
use gt_tree::{TreeSource, Value};
use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::{self, ThreadId};

/// A source that records the thread of every query it answers.
struct Recorder<S> {
    inner: S,
    threads: Mutex<HashSet<ThreadId>>,
}

impl<S: TreeSource> Recorder<S> {
    fn new(inner: S) -> Self {
        Recorder {
            inner,
            threads: Mutex::new(HashSet::new()),
        }
    }

    fn note(&self) {
        self.threads.lock().unwrap().insert(thread::current().id());
    }

    /// The threads seen since the last call, forgetting them.
    fn take(&self) -> HashSet<ThreadId> {
        std::mem::take(&mut *self.threads.lock().unwrap())
    }
}

impl<S: TreeSource> TreeSource for Recorder<S> {
    fn arity(&self, path: &[u32]) -> u32 {
        self.note();
        self.inner.arity(path)
    }

    fn leaf_value(&self, path: &[u32]) -> Value {
        self.note();
        self.inner.leaf_value(path)
    }
}

/// Assert where the last run went: only the caller at one worker, at
/// most `k` threads at `k`.
fn assert_placement<S: TreeSource>(src: &Recorder<S>, k: u32, what: &str) {
    let seen = src.take();
    assert!(!seen.is_empty(), "{what}: no query recorded");
    if k == 1 {
        let me = thread::current().id();
        assert_eq!(seen, HashSet::from([me]), "{what}: left the calling thread");
    } else {
        assert!(seen.len() <= k as usize, "{what}: {} threads", seen.len());
    }
}

const WORKERS: [u32; 4] = [1, 2, 3, 4];

#[test]
fn round_engine_is_model_exact_on_any_worker_count() {
    for seed in 0..4 {
        let nor = Recorder::new(UniformSource::nor_iid(2, 9, 0.5, seed));
        let mm = Recorder::new(UniformSource::minmax_iid(3, 5, -50, 50, seed));
        for w in [1u32, 2] {
            let nor_model = gt_sim::parallel_solve(&nor.inner, w, false);
            let mm_model = gt_sim::parallel_alphabeta(&mm.inner, w, false);
            for k in WORKERS {
                let e = RoundEngine::with_width(w).with_workers(k);
                let r = e.solve_nor(&nor);
                assert_placement(&nor, k, "round nor");
                assert_eq!(r.value, nor_value(&nor.inner));
                assert_eq!(r.rounds, nor_model.steps, "seed {seed} w {w} k {k}");
                assert_eq!(r.leaves_evaluated, nor_model.total_work);
                let r = e.solve_minmax(&mm);
                assert_placement(&mm, k, "round minmax");
                assert_eq!(r.value, minimax_value(&mm.inner));
                assert_eq!(r.rounds, mm_model.steps, "seed {seed} w {w} k {k}");
                assert_eq!(r.leaves_evaluated, mm_model.total_work);
                let r = e.solve_nor_expansion(&nor);
                assert_placement(&nor, k, "round expansion");
                let model = gt_sim::n_parallel_solve(&nor.inner, w, false);
                assert_eq!((r.value, r.rounds), (model.value, model.steps));
            }
        }
    }
}

#[test]
fn cascade_engine_is_exact_on_any_worker_count() {
    for seed in 0..4 {
        let nor = Recorder::new(UniformSource::nor_iid(2, 10, 0.5, seed));
        let mm = Recorder::new(UniformSource::minmax_iid(3, 6, -50, 50, seed));
        let seq_nor = seq_solve(&nor.inner, false).leaves_evaluated;
        let seq_mm = seq_alphabeta(&mm.inner, false).leaves_evaluated;
        for w in [0u32, 1, 2] {
            for k in WORKERS {
                let e = CascadeEngine::with_width(w).with_workers(k);
                let r = e.solve_nor(&nor);
                assert_placement(&nor, k, "cascade nor");
                assert_eq!(r.value, nor_value(&nor.inner), "seed {seed} w {w} k {k}");
                if k == 1 {
                    // Inline batches speculate nothing.
                    assert_eq!(r.leaves_evaluated, seq_nor, "seed {seed} w {w}");
                }
                let r = e.solve_minmax(&mm);
                assert_placement(&mm, k, "cascade minmax");
                assert_eq!(r.value, minimax_value(&mm.inner), "seed {seed} w {w} k {k}");
                if k == 1 {
                    assert_eq!(r.leaves_evaluated, seq_mm, "seed {seed} w {w}");
                }
            }
        }
    }
}

#[test]
fn ybw_engine_is_exact_on_any_worker_count() {
    for seed in 0..4 {
        let mm = Recorder::new(UniformSource::minmax_iid(3, 6, -50, 50, seed));
        let seq = seq_alphabeta(&mm.inner, false).leaves_evaluated;
        for cutoff in [0u32, 3] {
            for k in WORKERS {
                let e = YbwEngine::with_cutoff(cutoff).with_workers(k);
                let r = e.solve_minmax(&mm);
                assert_placement(&mm, k, "ybw");
                assert_eq!(r.value, minimax_value(&mm.inner), "seed {seed} k {k}");
                if k == 1 {
                    // Brothers in order, each in the narrowed window:
                    // exactly sequential alpha-beta's leaves.
                    assert_eq!(r.leaves_evaluated, seq, "seed {seed}");
                }
            }
        }
    }
}

#[test]
fn the_calling_thread_may_be_any_thread() {
    // One-worker runs stay on whichever thread calls them.
    let src = Recorder::new(UniformSource::minmax_iid(2, 8, 0, 99, 7));
    thread::scope(|s| {
        s.spawn(|| {
            CascadeEngine::with_width(1).solve_minmax(&src);
            YbwEngine::default().solve_minmax(&src);
            RoundEngine::with_width(1).solve_minmax(&src);
            assert_placement(&src, 1, "engines on a spawned caller");
        });
    });
}
