//! Fork-join cascade engine: the top-down view of Parallel SOLVE /
//! Parallel α-β (programs `P-SOLVE` / `P-SOLVE*` in the paper), on the
//! evaluation's worker set with cooperative cancellation.
//!
//! At every node, up to `width + 1` consecutive children form a batch:
//! the leftmost with the full width budget (it may fork further below —
//! the paper's "parallel on left subtree"), and the `j`-th look-ahead
//! sibling with budget `width − j` (budget 0 is a pure sequential
//! search — the paper's `S-SOLVE` look-ahead).  A batch member runs
//! concurrently only when an idle worker takes it; otherwise it runs
//! after its elder on the same thread, inside the window its elders
//! already narrowed.  When a child's result decides the node (a `1`
//! child of a NOR node, an `α ≥ β` cutoff of a MIN/MAX node), the
//! remaining in-flight siblings are aborted through a shared flag — the
//! paper's pre-emption.
//!
//! The paper's algorithm *re-budgets* pruning numbers dynamically as
//! siblings die; this engine assigns budgets statically per batch, which
//! keeps it lock-free and allocation-light.  The exact dynamic semantics
//! (and the paper's step counts) live in `gt-sim` / [`super::round`];
//! this engine trades a small amount of model fidelity for practical
//! fork-join performance.  Root values are always exact.

use gt_tree::{TreeSource, Value};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

use super::round::EngineResult;
use super::workers::{with_workers, Workers};

/// Marker returned when a search was pre-empted — the workspace-wide
/// [`gt_tree::Cancelled`], re-exported here because engine signatures
/// carry it in their `Err` case.
pub use gt_tree::Cancelled;

/// A chain of cancellation flags: a task is cancelled when any flag on
/// its path to the root is set.
#[derive(Clone, Copy)]
struct CancelChain<'a> {
    flag: &'a AtomicBool,
    parent: Option<&'a CancelChain<'a>>,
}

impl<'a> CancelChain<'a> {
    fn root(flag: &'a AtomicBool) -> Self {
        CancelChain { flag, parent: None }
    }

    fn child(&'a self, flag: &'a AtomicBool) -> CancelChain<'a> {
        CancelChain {
            flag,
            parent: Some(self),
        }
    }

    fn is_cancelled(&self) -> bool {
        let mut cur = Some(self);
        while let Some(c) = cur {
            if c.flag.load(Ordering::Relaxed) {
                return true;
            }
            cur = c.parent;
        }
        false
    }
}

/// Fork-join engine with the paper's width parameter.
#[derive(Debug, Clone, Copy)]
pub struct CascadeEngine {
    /// Width `w`: batches of up to `w+1` sibling searches per node.
    pub width: u32,
    /// Threads the evaluation may use, the calling thread included.
    pub workers: u32,
}

impl Default for CascadeEngine {
    fn default() -> Self {
        CascadeEngine {
            width: 1,
            workers: 1,
        }
    }
}

impl CascadeEngine {
    /// Engine with the given width (0 = fully sequential), on one
    /// worker.
    pub fn with_width(width: u32) -> Self {
        CascadeEngine { width, workers: 1 }
    }

    /// The same engine on `workers` threads (0 counts as 1).
    pub fn with_workers(self, workers: u32) -> Self {
        CascadeEngine { workers, ..self }
    }

    /// Evaluate a NOR tree.
    pub fn solve_nor<S: TreeSource>(&self, source: &S) -> EngineResult {
        let never = AtomicBool::new(false);
        self.solve_nor_cancellable(source, &never)
            .expect("unset flag cannot cancel")
    }

    /// Evaluate a MIN/MAX tree (root is MAX).
    pub fn solve_minmax<S: TreeSource>(&self, source: &S) -> EngineResult {
        let never = AtomicBool::new(false);
        self.solve_minmax_cancellable(source, &never)
            .expect("unset flag cannot cancel")
    }

    /// Like [`CascadeEngine::solve_nor`], but aborts when `cancel`
    /// becomes `true` (set it from another thread — a deadline watcher,
    /// a serving layer shedding load, a user interrupt).  The flag is
    /// checked at every node entry and between sibling batches.
    pub fn solve_nor_cancellable<S: TreeSource>(
        &self,
        source: &S,
        cancel: &AtomicBool,
    ) -> Result<EngineResult, Cancelled> {
        let start = Instant::now();
        let leaves = AtomicU64::new(0);
        let chain = CancelChain::root(cancel);
        let v = with_workers(self.workers, |w| {
            self.nor(source, &mut Vec::new(), self.width, chain, &leaves, w)
        })
        .ok_or(Cancelled)?;
        Ok(self.result(Value::from(v), &leaves, start))
    }

    /// Like [`CascadeEngine::solve_minmax`], but aborts when `cancel`
    /// becomes `true`.
    pub fn solve_minmax_cancellable<S: TreeSource>(
        &self,
        source: &S,
        cancel: &AtomicBool,
    ) -> Result<EngineResult, Cancelled> {
        let start = Instant::now();
        let leaves = AtomicU64::new(0);
        let chain = CancelChain::root(cancel);
        let v = self
            .ab_root(source, Value::MIN, Value::MAX, true, chain, &leaves)
            .ok_or(Cancelled)?;
        Ok(self.result(v, &leaves, start))
    }

    fn result(&self, value: Value, leaves: &AtomicU64, start: Instant) -> EngineResult {
        EngineResult {
            value,
            rounds: 0, // not a round-synchronous engine
            leaves_evaluated: leaves.load(Ordering::Relaxed),
            max_round_size: self.width + 1,
            elapsed: start.elapsed(),
        }
    }

    /// Alpha-beta search of the subtree at the source's root with an
    /// explicit window and orientation — the building block move
    /// selection uses (`Err(Cancelled)` can only occur for non-root
    /// calls, so callers passing a fresh window never see it).
    pub fn alphabeta_window<S: TreeSource>(
        &self,
        source: &S,
        alpha: Value,
        beta: Value,
        maximizing: bool,
    ) -> Result<Value, Cancelled> {
        self.alphabeta_window_counted(source, alpha, beta, maximizing)
            .map(|(v, _)| v)
    }

    /// Like [`CascadeEngine::alphabeta_window`] but also reports the
    /// number of leaves evaluated — used by the iterative-deepening
    /// driver to account for search effort.
    pub fn alphabeta_window_counted<S: TreeSource>(
        &self,
        source: &S,
        alpha: Value,
        beta: Value,
        maximizing: bool,
    ) -> Result<(Value, u64), Cancelled> {
        let leaves = AtomicU64::new(0);
        let never = AtomicBool::new(false);
        let chain = CancelChain::root(&never);
        self.ab_root(source, alpha, beta, maximizing, chain, &leaves)
            .map(|v| (v, leaves.load(Ordering::Relaxed)))
            .ok_or(Cancelled)
    }

    fn ab_root<S: TreeSource>(
        &self,
        source: &S,
        alpha: Value,
        beta: Value,
        maximizing: bool,
        cancel: CancelChain<'_>,
        leaves: &AtomicU64,
    ) -> Option<Value> {
        with_workers(self.workers, |w| {
            self.ab(
                source,
                &mut Vec::new(),
                alpha,
                beta,
                maximizing,
                self.width,
                cancel,
                leaves,
                w,
            )
        })
    }

    /// NOR search.  `None` = pre-empted.
    fn nor<S: TreeSource>(
        &self,
        src: &S,
        path: &mut Vec<u32>,
        width: u32,
        cancel: CancelChain<'_>,
        leaves: &AtomicU64,
        workers: &Workers<'_>,
    ) -> Option<bool> {
        if cancel.is_cancelled() {
            return None;
        }
        let d = src.arity(path);
        if d == 0 {
            let v = src.leaf_value(path);
            leaves.fetch_add(1, Ordering::Relaxed);
            return Some(v != 0);
        }
        let mut i: u32 = 0;
        while i < d {
            if cancel.is_cancelled() {
                return None;
            }
            let k = (width + 1).min(d - i);
            if k == 1 {
                path.push(i);
                let r = self.nor(src, path, width, cancel, leaves, workers);
                path.pop();
                match r? {
                    true => return Some(false),
                    false => i += 1,
                }
            } else {
                // The batch flag is set exactly when a member returns 1,
                // which decides the node and pre-empts the rest.
                let decided = AtomicBool::new(false);
                let chain = cancel.child(&decided);
                run_batch(workers, i, i + k, path, &|c, p| {
                    p.push(c);
                    let r = self.nor(src, p, width - (c - i), chain, leaves, workers);
                    p.pop();
                    if r == Some(true) {
                        decided.store(true, Ordering::Relaxed);
                    }
                });
                if cancel.is_cancelled() {
                    return None;
                }
                if decided.load(Ordering::Relaxed) {
                    return Some(false);
                }
                i += k;
            }
        }
        Some(true)
    }

    /// Fail-soft alpha-beta.  `None` = pre-empted.
    #[allow(clippy::too_many_arguments)]
    fn ab<S: TreeSource>(
        &self,
        src: &S,
        path: &mut Vec<u32>,
        mut alpha: Value,
        mut beta: Value,
        maximizing: bool,
        width: u32,
        cancel: CancelChain<'_>,
        leaves: &AtomicU64,
        workers: &Workers<'_>,
    ) -> Option<Value> {
        if cancel.is_cancelled() {
            return None;
        }
        let d = src.arity(path);
        if d == 0 {
            let v = src.leaf_value(path);
            leaves.fetch_add(1, Ordering::Relaxed);
            return Some(v);
        }
        let mut best = if maximizing { Value::MIN } else { Value::MAX };
        let mut i: u32 = 0;
        while i < d {
            if cancel.is_cancelled() {
                return None;
            }
            let k = (width + 1).min(d - i);
            if k == 1 {
                path.push(i);
                let v = self.ab(
                    src,
                    path,
                    alpha,
                    beta,
                    !maximizing,
                    width,
                    cancel,
                    leaves,
                    workers,
                );
                path.pop();
                best = fold(maximizing, best, v?);
            } else {
                let cut = AtomicBool::new(false);
                let chain = cancel.child(&cut);
                let running = AtomicI64::new(best);
                let (snap_a, snap_b) = (alpha, beta);
                run_batch(workers, i, i + k, path, &|c, p| {
                    // Each member searches inside the window its settled
                    // elders have narrowed so far.
                    let cur = running.load(Ordering::Relaxed);
                    let (a, b) = narrow(maximizing, snap_a, snap_b, cur);
                    // An empty window means a sibling has already decided
                    // the node (its flag may not be set yet): a search in
                    // it would only fold a meaningless bound.
                    if a >= b {
                        return;
                    }
                    p.push(c);
                    let r = self.ab(
                        src,
                        p,
                        a,
                        b,
                        !maximizing,
                        width - (c - i),
                        chain,
                        leaves,
                        workers,
                    );
                    p.pop();
                    if let Some(v) = r {
                        fold_atomic(maximizing, &running, v);
                        // A fail-high (fail-low for MIN) decides the node.
                        let decides = if maximizing { v >= snap_b } else { v <= snap_a };
                        if decides {
                            cut.store(true, Ordering::Relaxed);
                        }
                    }
                });
                if cancel.is_cancelled() {
                    return None;
                }
                best = running.load(Ordering::Relaxed);
            }
            (alpha, beta) = narrow(maximizing, alpha, beta, best);
            if alpha >= beta {
                return Some(best);
            }
            i += k;
        }
        Some(best)
    }
}

/// `best` folded with a child's value `v` at a MAX (or MIN) node.
fn fold(maximizing: bool, best: Value, v: Value) -> Value {
    if maximizing {
        best.max(v)
    } else {
        best.min(v)
    }
}

/// [`fold`] into a value shared by concurrent siblings.
pub(super) fn fold_atomic(maximizing: bool, best: &AtomicI64, v: Value) {
    if maximizing {
        best.fetch_max(v, Ordering::Relaxed);
    } else {
        best.fetch_min(v, Ordering::Relaxed);
    }
}

/// The window `(alpha, beta)` narrowed by a MAX (or MIN) node's running
/// `best`.
pub(super) fn narrow(maximizing: bool, alpha: Value, beta: Value, best: Value) -> (Value, Value) {
    if maximizing {
        (alpha.max(best), beta)
    } else {
        (alpha, beta.min(best))
    }
}

/// Run children `lo..hi` of the node at `path`, in order on this
/// thread except where an idle worker takes the younger half of a
/// range.  `f` gets the child index and a path buffer holding the
/// node's path; it must leave the buffer as it found it.  A handed-off
/// range gets its own copy of the path — the only allocation a fork
/// makes, and only when it really forks.
pub(super) fn run_batch<F>(workers: &Workers<'_>, lo: u32, hi: u32, path: &mut Vec<u32>, f: &F)
where
    F: Fn(u32, &mut Vec<u32>) + Sync,
{
    if hi - lo == 1 {
        return f(lo, path);
    }
    let mid = lo + (hi - lo) / 2;
    workers.join_with(
        path,
        |p| run_batch(workers, lo, mid, p, f),
        |p| run_batch(workers, mid, hi, p, f),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_tree::gen::UniformSource;
    use gt_tree::minimax::{minimax_value, nor_value, seq_alphabeta_windowed};
    use gt_tree::ExplicitTree;

    /// Worker counts every test runs at: the inline path and two
    /// concurrent ones.
    const WORKERS: [u32; 3] = [1, 2, 4];

    #[test]
    fn nor_value_exact_for_all_widths() {
        for seed in 0..10 {
            let s = UniformSource::nor_iid(2, 9, 0.5, seed);
            let truth = nor_value(&s);
            for w in [0u32, 1, 2, 3] {
                for k in WORKERS {
                    let r = CascadeEngine::with_width(w).with_workers(k).solve_nor(&s);
                    assert_eq!(r.value, truth, "w={w} k={k} seed={seed}");
                }
            }
        }
    }

    #[test]
    fn minmax_value_exact_for_all_widths() {
        for seed in 0..10 {
            let s = UniformSource::minmax_iid(3, 5, -100, 100, seed);
            let truth = minimax_value(&s);
            for w in [0u32, 1, 2, 3] {
                for k in WORKERS {
                    let r = CascadeEngine::with_width(w)
                        .with_workers(k)
                        .solve_minmax(&s);
                    assert_eq!(r.value, truth, "w={w} k={k} seed={seed}");
                }
            }
        }
    }

    #[test]
    fn width_zero_evaluates_exactly_the_sequential_leaf_set() {
        for seed in 0..10 {
            let s = UniformSource::nor_iid(2, 8, 0.5, seed);
            let r = CascadeEngine::with_width(0).solve_nor(&s);
            let seq = gt_tree::minimax::seq_solve(&s, false);
            assert_eq!(r.leaves_evaluated, seq.leaves_evaluated, "seed {seed}");
            let s = UniformSource::minmax_iid(2, 6, 0, 50, seed);
            let r = CascadeEngine::with_width(0).solve_minmax(&s);
            let seq = gt_tree::minimax::seq_alphabeta(&s, false);
            assert_eq!(r.leaves_evaluated, seq.leaves_evaluated, "seed {seed}");
        }
    }

    #[test]
    fn speculation_is_bounded_overhead() {
        // Corollary 1: total work of the width-1 algorithm is within a
        // constant factor of sequential.  The cascade engine speculates
        // when workers run batch members concurrently, so check a
        // generous factor on random instances.
        for seed in 0..10 {
            let s = UniformSource::nor_iid(2, 10, 0.5, seed);
            let seq = gt_tree::minimax::seq_solve(&s, false).leaves_evaluated;
            for k in WORKERS {
                let par = CascadeEngine::with_width(1)
                    .with_workers(k)
                    .solve_nor(&s)
                    .leaves_evaluated;
                assert!(
                    par <= 6 * seq + 16,
                    "speculative blow-up {par} vs {seq} (k={k} seed {seed})"
                );
            }
        }
    }

    #[test]
    fn alphabeta_window_orientation() {
        // MIN at the root of the subtree: value is the min of leaves.
        let t = ExplicitTree::internal(vec![ExplicitTree::leaf(5), ExplicitTree::leaf(2)]);
        for k in WORKERS {
            let e = CascadeEngine::with_width(1).with_workers(k);
            let v = e
                .alphabeta_window(&t, Value::MIN, Value::MAX, false)
                .unwrap();
            assert_eq!(v, 2);
            let v = e
                .alphabeta_window(&t, Value::MIN, Value::MAX, true)
                .unwrap();
            assert_eq!(v, 5);
        }
    }

    #[test]
    fn narrow_windows_give_fail_soft_bounds_on_any_worker_count() {
        // Inside the window the value is exact; outside it the result is
        // a bound on the correct side of both the window and the truth.
        // At one worker it is sequential α-β's own result.
        for seed in 0..12 {
            let s = UniformSource::minmax_iid(3, 6, -20, 20, seed);
            for maximizing in [true, false] {
                let truth =
                    seq_alphabeta_windowed(&s, false, Value::MIN, Value::MAX, maximizing).value;
                for (alpha, beta) in [(-3, 3), (-1, 0), (0, 1), (5, 6), (-6, -5), (-30, 30)] {
                    let seq = seq_alphabeta_windowed(&s, false, alpha, beta, maximizing).value;
                    for w in [1u32, 2] {
                        for k in WORKERS {
                            let e = CascadeEngine::with_width(w).with_workers(k);
                            let v = e.alphabeta_window(&s, alpha, beta, maximizing).unwrap();
                            let ctx = format!(
                                "seed={seed} max={maximizing} ({alpha},{beta}) w={w} k={k}"
                            );
                            if k == 1 {
                                assert_eq!(v, seq, "{ctx}");
                            }
                            if truth <= alpha {
                                assert!(truth <= v && v <= alpha, "{ctx}: fail-low {v} vs {truth}");
                            } else if truth >= beta {
                                assert!(beta <= v && v <= truth, "{ctx}: fail-high {v} vs {truth}");
                            } else {
                                assert_eq!(v, truth, "{ctx}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn single_leaf_and_unary_chain() {
        let e = CascadeEngine::default();
        assert_eq!(e.solve_nor(&ExplicitTree::leaf(1)).value, 1);
        let chain =
            ExplicitTree::internal(vec![ExplicitTree::internal(vec![ExplicitTree::leaf(0)])]);
        // NOR(NOR(0)) = NOR(1) = 0.
        assert_eq!(e.solve_nor(&chain).value, 0);
    }

    #[test]
    fn pre_set_cancel_flag_aborts_immediately() {
        let flag = AtomicBool::new(true);
        for k in WORKERS {
            let e = CascadeEngine::with_width(1).with_workers(k);
            let s = UniformSource::nor_worst_case(2, 12);
            assert_eq!(e.solve_nor_cancellable(&s, &flag).unwrap_err(), Cancelled);
            let s = UniformSource::minmax_iid(2, 8, 0, 9, 1);
            assert_eq!(
                e.solve_minmax_cancellable(&s, &flag).unwrap_err(),
                Cancelled
            );
        }
    }

    #[test]
    fn unset_cancel_flag_matches_plain_solve() {
        let flag = AtomicBool::new(false);
        for k in WORKERS {
            let s = UniformSource::nor_iid(2, 9, 0.5, 4);
            let e = CascadeEngine::with_width(1).with_workers(k);
            let plain = e.solve_nor(&s);
            let cancellable = e.solve_nor_cancellable(&s, &flag).unwrap();
            assert_eq!(cancellable.value, plain.value, "k={k}");
            let s = UniformSource::minmax_iid(3, 5, -50, 50, 4);
            let e = CascadeEngine::with_width(2).with_workers(k);
            let plain = e.solve_minmax(&s);
            let cancellable = e.solve_minmax_cancellable(&s, &flag).unwrap();
            assert_eq!(cancellable.value, plain.value, "k={k}");
        }
    }

    #[test]
    fn mid_flight_cancellation_from_another_thread() {
        // A deliberately huge worst-case tree; cancel shortly after
        // launch and require the engine to come back with Err quickly.
        let nor = UniformSource::nor_worst_case(2, 26);
        let mm = UniformSource::minmax_worst_ordered(2, 26);
        for k in WORKERS {
            let engine = CascadeEngine::with_width(1).with_workers(k);
            for minmax in [false, true] {
                let flag = AtomicBool::new(false);
                std::thread::scope(|scope| {
                    let h = scope.spawn(|| {
                        if minmax {
                            engine.solve_minmax_cancellable(&mm, &flag)
                        } else {
                            engine.solve_nor_cancellable(&nor, &flag)
                        }
                    });
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    flag.store(true, Ordering::Relaxed);
                    assert!(
                        matches!(h.join().unwrap(), Err(Cancelled)),
                        "k={k} minmax={minmax}"
                    );
                });
            }
        }
    }

    #[test]
    fn worst_case_tree_parallel_still_exact() {
        let s = UniformSource::nor_worst_case(2, 10);
        for k in WORKERS {
            let r = CascadeEngine::with_width(2).with_workers(k).solve_nor(&s);
            assert_eq!(r.value, 1, "k={k}");
            // The worst-case ordering forces the *sequential* algorithm
            // to visit every leaf; speculative siblings racing each other
            // can cancel in-flight work, so the engine may do less on
            // several workers.  The count never exceeds the tree.
            assert!(r.leaves_evaluated > 0 && r.leaves_evaluated <= 1 << 10);
        }
    }
}
