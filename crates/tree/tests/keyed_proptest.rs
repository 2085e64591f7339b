//! Property tests for the per-node key contract
//! ([`TreeSource::root_key`] / [`TreeSource::child_key`] /
//! [`TreeSource::leaf_value_keyed`]).
//!
//! The sequential searches carry the key down the recursion and read
//! leaves through `leaf_value_keyed`, and start subtrees in place from a
//! pre-filled root path.  Both shortcuts must be invisible: for every
//! generator family the keyed leaf value equals the plain one, and a
//! subtree search reports exactly what the same search reports through
//! a wrapper that hides the keys — value, leaves, nodes expanded,
//! cutoffs and the leaf paths themselves.  The exact counters are what
//! keep `S(T)` (and the service's `leaves_per_eval`) unchanged.

use gt_tree::minimax::{seq_alphabeta_at, seq_solve_at, SeqStats};
use gt_tree::{Cancelled, GenSpec, TreeSource, Value};
use proptest::prelude::*;
use std::sync::atomic::AtomicBool;

const KINDS: [&str; 8] = [
    "nor",
    "crit",
    "worst",
    "allones",
    "minmax",
    "minmax-best",
    "minmax-worst",
    "minmax-corr",
];

/// The spec text for one generated case.  Minmax leaf values are kept
/// in a narrow band so random windows actually bite.
fn spec_text(kind: &str, d: u32, n: u32, seed: u64) -> String {
    if kind == "minmax" {
        format!("{kind}:d={d},n={n},seed={seed},lo=-16,hi=16")
    } else {
        format!("{kind}:d={d},n={n},seed={seed}")
    }
}

/// Forwards only `arity` and `leaf_value`, so the key methods take
/// their defaults and every leaf is read through its whole path.
struct Unkeyed<S>(S);

impl<S: TreeSource> TreeSource for Unkeyed<S> {
    fn arity(&self, path: &[u32]) -> u32 {
        self.0.arity(path)
    }
    fn leaf_value(&self, path: &[u32]) -> Value {
        self.0.leaf_value(path)
    }
}

/// The key of the node at `path`, folded from the root.
fn fold_key<S: TreeSource>(source: &S, path: &[u32]) -> u64 {
    path.iter()
        .fold(source.root_key(), |k, &i| source.child_key(k, i))
}

/// An in-range path of `len` steps in a `d`-ary tree, from raw digits.
fn path_from(raw: &[u32], d: u32, len: usize) -> Vec<u32> {
    raw[..len].iter().map(|&r| r % d).collect()
}

/// The search the service runs on a subtree: windowed α-β with the
/// player by depth parity for minmax families, SOLVE for NOR ones.
fn search<S: TreeSource>(
    source: &S,
    minmax: bool,
    root: &[u32],
    alpha: Value,
    beta: Value,
    cancel: &AtomicBool,
) -> Result<SeqStats, Cancelled> {
    if minmax {
        let maximizing = root.len().is_multiple_of(2);
        seq_alphabeta_at(source, root, true, alpha, beta, maximizing, cancel)
    } else {
        seq_solve_at(source, root, true, cancel)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every family's keyed leaf value equals its plain leaf value when
    /// the key is folded along the leaf's path.
    #[test]
    fn keyed_leaf_value_equals_leaf_value_for_every_family(
        kind_ix in 0usize..8,
        d in 1u32..6,
        n in 0u32..14,
        seed in any::<u64>(),
        raw in prop::collection::vec(any::<u32>(), 14),
    ) {
        let kind = KINDS[kind_ix];
        let spec = GenSpec::parse(&spec_text(kind, d, n, seed % 100_000)).unwrap();
        let source = spec.build().unwrap();
        let leaf = path_from(&raw, d, n as usize);
        prop_assert_eq!(source.arity(&leaf), 0);
        prop_assert_eq!(
            source.leaf_value_keyed(&leaf, fold_key(&source, &leaf)),
            source.leaf_value(&leaf),
            "{} at {:?}", kind, leaf
        );
    }

    /// A search started in place at a random subtree root, under a
    /// random window, reports exactly what the same search reports
    /// with the keys hidden.
    #[test]
    fn subtree_searches_match_the_unkeyed_search(
        kind_ix in 0usize..8,
        d in 2u32..4,
        n in 1u32..7,
        seed in 0u64..1000,
        raw in prop::collection::vec(any::<u32>(), 7),
        depth in 0usize..7,
        full_window in any::<bool>(),
        lo in -24i64..24,
        width in 1i64..48,
    ) {
        let kind = KINDS[kind_ix];
        let spec = GenSpec::parse(&spec_text(kind, d, n, seed)).unwrap();
        let source = spec.build().unwrap();
        let root = path_from(&raw, d, depth.min(n as usize));
        let (alpha, beta) = if full_window {
            (Value::MIN, Value::MAX)
        } else {
            (lo, lo + width)
        };
        let never = AtomicBool::new(false);
        let keyed = search(&source, spec.is_minmax(), &root, alpha, beta, &never).unwrap();
        let plain =
            search(&Unkeyed(&source), spec.is_minmax(), &root, alpha, beta, &never).unwrap();
        prop_assert_eq!(
            keyed, plain,
            "{} at {:?} under {}..{}", kind, root, alpha, beta
        );
    }
}

#[test]
fn preset_cancellation_stops_a_subtree_search_before_any_leaf() {
    let set = AtomicBool::new(true);
    for kind in KINDS {
        let spec = GenSpec::parse(&spec_text(kind, 2, 12, 5)).unwrap();
        let source = spec.build().unwrap();
        let root = [1, 0, 1];
        assert_eq!(
            search(&source, spec.is_minmax(), &root, -4, 4, &set),
            Err(Cancelled),
            "{kind}"
        );
        assert_eq!(
            search(&Unkeyed(&source), spec.is_minmax(), &root, -4, 4, &set),
            Err(Cancelled),
            "{kind}"
        );
    }
}
