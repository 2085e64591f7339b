//! Young Brothers Wait (YBW): the classical parallel α-β scheme that
//! grew out of this line of work (Feldmann et al.), as an ablation
//! baseline against the paper-faithful engines.
//!
//! YBW's rule: search the *eldest* child of a node first (sequentially
//! with respect to its siblings — it establishes the window), then
//! search all the *younger brothers* in parallel with the narrowed
//! window, aborting them on a cutoff.  Compared to the paper's width-1
//! cascade, YBW offers every younger brother to the evaluation's idle
//! workers instead of a fixed-width look-ahead; brothers no idle worker
//! takes run in order on the forking thread, so at one worker YBW is
//! sequential α-β.

use gt_tree::{TreeSource, Value};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

use super::cascade::{fold_atomic, narrow, run_batch, Cancelled};
use super::round::EngineResult;
use super::workers::{with_workers, Workers};

/// Young-Brothers-Wait parallel α-β.
#[derive(Debug, Clone, Copy)]
pub struct YbwEngine {
    /// Below this remaining depth the search runs sequentially (tiny
    /// subtrees are not worth forking).  Depth here means path length
    /// from the root; 0 disables the cutoff.
    pub sequential_below: u32,
    /// Threads the evaluation may use, the calling thread included.
    pub workers: u32,
}

impl Default for YbwEngine {
    fn default() -> Self {
        YbwEngine {
            sequential_below: 0,
            workers: 1,
        }
    }
}

impl YbwEngine {
    /// Engine with a sequential cutoff at the given depth-from-root, on
    /// one worker.
    pub fn with_cutoff(sequential_below: u32) -> Self {
        YbwEngine {
            sequential_below,
            ..Default::default()
        }
    }

    /// The same engine on `workers` threads (0 counts as 1).
    pub fn with_workers(self, workers: u32) -> Self {
        YbwEngine { workers, ..self }
    }

    /// Evaluate a MIN/MAX tree (root MAX).
    pub fn solve_minmax<S: TreeSource>(&self, source: &S) -> EngineResult {
        let never = AtomicBool::new(false);
        self.solve_minmax_cancellable(source, &never)
            .expect("unset flag cannot cancel")
    }

    /// Like [`YbwEngine::solve_minmax`], but aborts when `cancel`
    /// becomes `true` (checked at every node entry; in-flight brothers
    /// observe the same flag).
    pub fn solve_minmax_cancellable<S: TreeSource>(
        &self,
        source: &S,
        cancel: &AtomicBool,
    ) -> Result<EngineResult, Cancelled> {
        let start = Instant::now();
        let leaves = AtomicU64::new(0);
        let v = with_workers(self.workers, |w| {
            self.ab(
                source,
                &mut Vec::new(),
                Value::MIN,
                Value::MAX,
                true,
                cancel,
                &leaves,
                w,
            )
        })
        .ok_or(Cancelled)?;
        Ok(EngineResult {
            value: v,
            rounds: 0,
            leaves_evaluated: leaves.load(Ordering::Relaxed),
            max_round_size: 0,
            elapsed: start.elapsed(),
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn ab<S: TreeSource>(
        &self,
        src: &S,
        path: &mut Vec<u32>,
        alpha: Value,
        beta: Value,
        maximizing: bool,
        cancel: &AtomicBool,
        leaves: &AtomicU64,
        workers: &Workers<'_>,
    ) -> Option<Value> {
        if cancel.load(Ordering::Relaxed) {
            return None;
        }
        let d = src.arity(path);
        if d == 0 {
            leaves.fetch_add(1, Ordering::Relaxed);
            return Some(src.leaf_value(path));
        }
        // Eldest brother first, full window.
        path.push(0);
        let first = self.ab(src, path, alpha, beta, !maximizing, cancel, leaves, workers);
        path.pop();
        let first = first?;
        let (alpha, beta) = narrow(maximizing, alpha, beta, first);
        if alpha >= beta || d == 1 {
            return Some(first);
        }
        // Small subtrees keep their younger brothers on this thread.
        let deep = self.sequential_below > 0 && path.len() as u32 >= self.sequential_below;
        let brothers = if deep { &Workers::INLINE } else { workers };
        // Younger brothers, in parallel where a worker is idle, each
        // inside the window the brothers settled so far have narrowed.
        // A cutoff by any brother skips those not yet started (in-flight
        // ones run to completion: a cheap best-effort abort without
        // chaining a new flag per node).
        let cutoff = AtomicBool::new(false);
        let best = AtomicI64::new(first);
        run_batch(brothers, 1, d, path, &|i, p| {
            if cancel.load(Ordering::Relaxed) || cutoff.load(Ordering::Relaxed) {
                return;
            }
            let (a, b) = narrow(maximizing, alpha, beta, best.load(Ordering::Relaxed));
            // Empty: a brother has cut the node but not yet raised the flag.
            if a >= b {
                return;
            }
            p.push(i);
            let r = self.ab(src, p, a, b, !maximizing, cancel, leaves, brothers);
            p.pop();
            if let Some(v) = r {
                fold_atomic(maximizing, &best, v);
                // Fail-high (fail-low for MIN) triggers a cutoff.
                let cuts = if maximizing { v >= beta } else { v <= alpha };
                if cuts {
                    cutoff.store(true, Ordering::Relaxed);
                }
            }
        });
        if cancel.load(Ordering::Relaxed) {
            return None;
        }
        // Every brother that ran is folded in.  Brothers skipped by a
        // cutoff cannot change the result: the node already fails high.
        Some(best.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_tree::gen::UniformSource;
    use gt_tree::minimax::minimax_value;
    use gt_tree::ExplicitTree;

    /// Worker counts every test runs at: the inline path and two
    /// concurrent ones.
    const WORKERS: [u32; 3] = [1, 2, 4];

    #[test]
    fn exact_on_random_uniform_trees() {
        for seed in 0..15 {
            let s = UniformSource::minmax_iid(3, 5, -100, 100, seed);
            let truth = minimax_value(&s);
            for k in WORKERS {
                let e = YbwEngine::default().with_workers(k);
                assert_eq!(e.solve_minmax(&s).value, truth, "seed {seed} k={k}");
                let e = YbwEngine::with_cutoff(2).with_workers(k);
                assert_eq!(
                    e.solve_minmax(&s).value,
                    truth,
                    "seed {seed} k={k} with cutoff"
                );
            }
        }
    }

    #[test]
    fn exact_with_duplicate_leaf_values() {
        for seed in 0..10 {
            let s = UniformSource::minmax_iid(2, 7, 0, 3, seed);
            for k in WORKERS {
                assert_eq!(
                    YbwEngine::default().with_workers(k).solve_minmax(&s).value,
                    minimax_value(&s),
                    "seed {seed} k={k}"
                );
            }
        }
    }

    #[test]
    fn exact_on_ordered_extremes() {
        let best = UniformSource::minmax_best_ordered(2, 8, 5);
        let worst = UniformSource::minmax_worst_ordered(2, 8);
        for k in WORKERS {
            let e = YbwEngine::default().with_workers(k);
            assert_eq!(e.solve_minmax(&best).value, 5, "k={k}");
            assert_eq!(e.solve_minmax(&worst).value, minimax_value(&worst), "k={k}");
        }
    }

    #[test]
    fn single_leaf_and_irregular_trees() {
        let t = ExplicitTree::internal(vec![
            ExplicitTree::leaf(4),
            ExplicitTree::internal(vec![ExplicitTree::leaf(6), ExplicitTree::leaf(2)]),
            ExplicitTree::leaf(5),
        ]);
        for k in WORKERS {
            let e = YbwEngine::default().with_workers(k);
            assert_eq!(e.solve_minmax(&ExplicitTree::leaf(9)).value, 9);
            assert_eq!(e.solve_minmax(&t).value, minimax_value(&t), "k={k}");
        }
    }

    #[test]
    fn cancellation_aborts_and_unset_flag_is_invisible() {
        let s = UniformSource::minmax_iid(3, 5, -100, 100, 7);
        for k in WORKERS {
            let e = YbwEngine::default().with_workers(k);
            let flag = AtomicBool::new(true);
            assert!(matches!(
                e.solve_minmax_cancellable(&s, &flag),
                Err(Cancelled)
            ));
            flag.store(false, Ordering::Relaxed);
            let r = e.solve_minmax_cancellable(&s, &flag).unwrap();
            assert_eq!(r.value, minimax_value(&s), "k={k}");
        }
    }

    #[test]
    fn mid_flight_cancellation_from_another_thread() {
        let s = UniformSource::minmax_worst_ordered(2, 26);
        for k in WORKERS {
            let engine = YbwEngine::default().with_workers(k);
            let flag = AtomicBool::new(false);
            std::thread::scope(|scope| {
                let h = scope.spawn(|| engine.solve_minmax_cancellable(&s, &flag));
                std::thread::sleep(std::time::Duration::from_millis(20));
                flag.store(true, Ordering::Relaxed);
                assert!(matches!(h.join().unwrap(), Err(Cancelled)), "k={k}");
            });
        }
    }

    #[test]
    fn eldest_first_keeps_speculation_bounded_on_best_ordered() {
        // With perfect ordering the eldest brother always causes the
        // cutoff, so YBW's total work stays close to sequential on any
        // number of workers.
        let s = UniformSource::minmax_best_ordered(2, 10, 0);
        let seq = gt_tree::minimax::seq_alphabeta(&s, false).leaves_evaluated;
        for k in WORKERS {
            let ybw = YbwEngine::default()
                .with_workers(k)
                .solve_minmax(&s)
                .leaves_evaluated;
            assert!(
                ybw <= 2 * seq,
                "YBW speculation too high on ordered tree: {ybw} vs {seq} (k={k})"
            );
        }
    }
}
