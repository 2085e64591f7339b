//! The per-evaluation worker set: the only source of engine threads.
//!
//! An engine run on `k` workers opens one [`Workers`] for the whole
//! evaluation ([`with_workers`]): `k − 1` helper threads spawned once in
//! a `std::thread::scope` and joined before the evaluation returns.  At
//! `k = 1` there are no helpers, and every fork below is a plain call on
//! the calling thread — no spawn, no allocation, no syscall.  The
//! serving tier hands the executor's thread grant through as `k`, so an
//! engine never holds more threads than it was granted.
//!
//! Fork rule: [`Workers::join`] hands its second arm to a helper only if
//! one is idle, and otherwise runs it inline after the first.  A thread
//! only ever waits for a helper it handed work to while that helper was
//! idle, so the waits-for graph is a tree: no deadlock, and no global
//! budget to keep.
//!
//! Handing a stack-borrowed arm to a long-lived helper needs the one
//! `unsafe` below.  A scoped spawn per fork would not, but it measured
//! up to 2.5× slower on the round engine and on Connect Four (E12 in
//! EXPERIMENTS.md), and it would spread one evaluation over many more
//! than `k` threads.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread;

/// Run `body` with `workers` threads: the calling thread plus
/// `workers − 1` helpers, all joined before this returns.
pub(crate) fn with_workers<R>(workers: u32, body: impl FnOnce(&Workers<'_>) -> R) -> R {
    if workers <= 1 {
        return body(&Workers::INLINE);
    }
    let helpers: Vec<Helper> = (1..workers).map(|_| Helper::new()).collect();
    thread::scope(|s| {
        for h in &helpers {
            s.spawn(move || h.serve());
        }
        let out = panic::catch_unwind(AssertUnwindSafe(|| {
            body(&Workers {
                helpers: &helpers[..],
            })
        }));
        // Every fork was joined inside `body`, so each helper is idle.
        for h in &helpers {
            h.close();
        }
        out.unwrap_or_else(|p| panic::resume_unwind(p))
    })
}

/// The helpers of one evaluation (empty at one worker).
pub(crate) struct Workers<'a> {
    helpers: &'a [Helper],
}

impl Workers<'_> {
    /// No helpers: every fork runs inline.
    pub(crate) const INLINE: Workers<'static> = Workers { helpers: &[] };

    /// Run `a` on this thread and `b` on an idle helper if there is
    /// one, otherwise inline after `a`; return both results.
    pub(crate) fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA,
        B: FnOnce() -> RB + Send,
        RB: Send,
    {
        match self.idle_helper() {
            Some(helper) => helper.fork(a, b),
            None => (a(), b()),
        }
    }

    /// [`Workers::join`] for two arms that each leave `scratch` as they
    /// found it: inline they take turns on it, and a handed-off `b`
    /// gets its own clone — the only allocation a fork makes, and only
    /// when it really forks.
    pub(crate) fn join_with<S, A, B>(&self, scratch: &mut S, a: A, b: B)
    where
        S: Clone + Send,
        A: FnOnce(&mut S),
        B: FnOnce(&mut S) + Send,
    {
        match self.idle_helper() {
            Some(helper) => {
                let mut own = scratch.clone();
                helper.fork(|| a(scratch), move || b(&mut own));
            }
            None => {
                a(scratch);
                b(scratch);
            }
        }
    }

    fn idle_helper(&self) -> Option<Claim<'_>> {
        self.helpers.iter().find_map(Helper::try_claim)
    }

    /// Map `items` through `f` into `out` (cleared first), in order,
    /// splitting the slice across idle helpers.
    pub(crate) fn map_into<T: Sync, U: Send>(
        &self,
        items: &[T],
        out: &mut Vec<U>,
        f: impl Fn(&T) -> U + Sync,
    ) {
        out.clear();
        if self.helpers.is_empty() {
            out.extend(items.iter().map(f));
        } else {
            out.extend(self.map_part(items, &f, self.helpers.len() + 1));
        }
    }

    fn map_part<T: Sync, U: Send>(
        &self,
        items: &[T],
        f: &(impl Fn(&T) -> U + Sync),
        parts: usize,
    ) -> Vec<U> {
        if parts <= 1 || items.len() < 2 {
            return items.iter().map(f).collect();
        }
        let (left, right) = items.split_at(items.len() / 2);
        let (mut l, r) = self.join(
            || self.map_part(left, f, parts / 2),
            || self.map_part(right, f, parts - parts / 2),
        );
        l.extend(r);
        l
    }
}

/// A forked arm on the forking thread's stack, run by a helper.
trait Arm {
    fn run(&self);
}

struct StackArm<F, R> {
    f: Mutex<Option<F>>,
    out: Mutex<Option<thread::Result<R>>>,
}

impl<F: FnOnce() -> R + Send, R: Send> Arm for StackArm<F, R> {
    fn run(&self) {
        let f = self
            .f
            .lock()
            .expect("arm lock is never held across a panic")
            .take()
            .expect("an arm runs once");
        let r = panic::catch_unwind(AssertUnwindSafe(f));
        *self
            .out
            .lock()
            .expect("arm lock is never held across a panic") = Some(r);
    }
}

/// A pointer to a forked arm, its lifetime erased for the hand-off.
struct ArmPtr(*const (dyn Arm + 'static));

// SAFETY: an `ArmPtr` is only made (in `Claim::fork`) from a
// `StackArm<F, R>` with `F: Send` and `R: Send`: its closure and result
// may move to the helper thread, and both sit behind mutexes, so the
// helper may share `&StackArm` with the forker.
unsafe impl Send for ArmPtr {}

enum State {
    Idle,
    /// Claimed by a forker that is about to hand over its arm.
    Claimed,
    Assigned(ArmPtr),
    Running,
    Done,
    Closed,
}

struct Helper {
    state: Mutex<State>,
    /// Signalled when work arrives or the set closes.
    work: Condvar,
    /// Signalled when an arm finishes.
    done: Condvar,
}

/// The right to hand one arm to an idle helper: only a successful
/// [`Helper::try_claim`] makes one, and [`Claim::fork`] consumes it.
struct Claim<'a>(&'a Helper);

impl Helper {
    fn new() -> Helper {
        Helper {
            state: Mutex::new(State::Idle),
            work: Condvar::new(),
            done: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // Arms run outside the lock and under `catch_unwind`, so no
        // panic ever happens while it is held.
        self.state.lock().expect("helper lock is never poisoned")
    }

    /// Claim this helper if it is idle.  Never blocks on a busy one.
    fn try_claim(&self) -> Option<Claim<'_>> {
        let mut st = self.state.try_lock().ok()?;
        if !matches!(*st, State::Idle) {
            return None;
        }
        *st = State::Claimed;
        Some(Claim(self))
    }

    fn close(&self) {
        *self.lock() = State::Closed;
        self.work.notify_one();
    }

    /// The helper thread's loop: run assigned arms until closed.
    fn serve(&self) {
        let mut st = self.lock();
        loop {
            match std::mem::replace(&mut *st, State::Running) {
                State::Assigned(ArmPtr(ptr)) => {
                    drop(st);
                    // SAFETY: the forker keeps the arm alive until it
                    // sees `Done`, which is set only after this returns.
                    unsafe { (*ptr).run() };
                    st = self.lock();
                    *st = State::Done;
                    self.done.notify_one();
                }
                State::Closed => return,
                other => {
                    *st = other;
                    st = self.work.wait(st).expect("helper lock is never poisoned");
                }
            }
        }
    }
}

impl Claim<'_> {
    /// Run `b` on the claimed helper while `a` runs on the caller.
    fn fork<A, B, RA, RB>(self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA,
        B: FnOnce() -> RB + Send,
        RB: Send,
    {
        let helper = self.0;
        let arm = StackArm {
            f: Mutex::new(Some(b)),
            out: Mutex::new(None),
        };
        let ptr: *const (dyn Arm + '_) = &arm;
        // SAFETY: only the lifetime changes.  The helper dereferences the
        // pointer between `Assigned` and `Done`, and this frame, which owns
        // `arm`, neither returns nor unwinds before it has seen `Done`.
        let ptr = unsafe {
            std::mem::transmute::<*const (dyn Arm + '_), *const (dyn Arm + 'static)>(ptr)
        };
        *helper.lock() = State::Assigned(ArmPtr(ptr));
        helper.work.notify_one();
        let ra = panic::catch_unwind(AssertUnwindSafe(a));
        let mut st = helper.lock();
        while !matches!(*st, State::Done) {
            st = helper.done.wait(st).expect("helper lock is never poisoned");
        }
        *st = State::Idle;
        drop(st);
        let rb = arm
            .out
            .into_inner()
            .expect("arm lock is never held across a panic")
            .expect("a finished arm stores its result");
        match (ra, rb) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            (Err(p), _) | (_, Err(p)) => panic::resume_unwind(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn one_worker_runs_everything_on_the_caller() {
        let me = thread::current().id();
        with_workers(1, |w| {
            let (a, b) = w.join(|| thread::current().id(), || thread::current().id());
            assert_eq!((a, b), (me, me));
            let mut out = Vec::new();
            w.map_into(&[1, 2, 3], &mut out, |_| thread::current().id());
            assert!(out.iter().all(|t| *t == me));
        });
    }

    #[test]
    fn join_hands_the_second_arm_to_an_idle_helper() {
        let me = thread::current().id();
        with_workers(2, |w| {
            let (a, b) = w.join(|| thread::current().id(), || thread::current().id());
            assert_eq!(a, me);
            assert_ne!(b, me, "an idle helper must take the arm");
        });
    }

    #[test]
    fn nested_joins_stay_on_at_most_k_threads_and_keep_order() {
        fn tree(w: &Workers<'_>, depth: u32, seen: &Mutex<HashSet<thread::ThreadId>>) -> u64 {
            seen.lock().unwrap().insert(thread::current().id());
            if depth == 0 {
                return 1;
            }
            let (a, b) = w.join(|| tree(w, depth - 1, seen), || tree(w, depth - 1, seen));
            a + b
        }
        for k in 1..=4u32 {
            let seen = Mutex::new(HashSet::new());
            let leaves = with_workers(k, |w| tree(w, 10, &seen));
            assert_eq!(leaves, 1 << 10);
            let used = seen.lock().unwrap().len();
            assert!(used <= k as usize, "k={k} used {used} threads");
            let v: Vec<usize> = (0..1000).collect();
            let mut out = Vec::new();
            with_workers(k, |w| w.map_into(&v, &mut out, |x| x * 2));
            assert!(out.iter().enumerate().all(|(i, x)| *x == 2 * i));
        }
    }

    #[test]
    fn a_panicking_arm_propagates_after_both_arms_settle() {
        let finished = AtomicUsize::new(0);
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            with_workers(2, |w| {
                w.join(
                    || {
                        thread::sleep(std::time::Duration::from_millis(5));
                        finished.fetch_add(1, Ordering::SeqCst);
                    },
                    || panic!("arm failed"),
                )
            })
        }));
        assert!(r.is_err());
        assert_eq!(finished.load(Ordering::SeqCst), 1);
    }
}
