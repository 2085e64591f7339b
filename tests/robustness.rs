//! Robustness checks outside the comfortable regime: very deep chains,
//! degenerate arities, extreme values, and Othello's irregular trees
//! through the full stack.

use karp_zhang::core::engine::{best_move, CascadeEngine, SearchConfig};
use karp_zhang::games::{Game, GameTreeSource, Othello};
use karp_zhang::sim::{parallel_alphabeta, parallel_solve};
use karp_zhang::tree::gen::{ConstLeaf, LeafValues, UniformSource};
use karp_zhang::tree::minimax::{minimax_value, nor_value, seq_alphabeta, seq_solve};
use karp_zhang::tree::{TreeSource, Value};

/// A unary chain of the given height ending in one leaf.
struct Chain {
    height: u32,
    leaf: Value,
}

impl TreeSource for Chain {
    fn arity(&self, path: &[u32]) -> u32 {
        if (path.len() as u32) < self.height {
            1
        } else {
            0
        }
    }
    fn leaf_value(&self, _path: &[u32]) -> Value {
        self.leaf
    }
    fn height_hint(&self) -> Option<u32> {
        Some(self.height)
    }
}

#[test]
fn deep_unary_chains_are_handled() {
    // Recursion depth equals tree height; 2000 frames is far beyond any
    // instance the experiments use and comfortably within stack limits.
    for height in [0u32, 1, 500, 2000] {
        let c = Chain { height, leaf: 1 };
        let seq = seq_solve(&c, false);
        assert_eq!(seq.leaves_evaluated, 1, "height {height}");
        let par = parallel_solve(&c, 1, false);
        // NOR of a chain alternates with height parity.
        assert_eq!(par.value, nor_value(&c), "height {height}");
        assert_eq!(par.steps, 1);
    }
}

#[test]
fn extreme_leaf_values_do_not_overflow_windows() {
    // Near-extremal i64 leaves exercise the ±infinity window arithmetic.
    struct Extremes;
    impl LeafValues for Extremes {
        fn value(&self, path: &[u32]) -> Value {
            if path.iter().sum::<u32>() % 2 == 0 {
                Value::MAX - 1
            } else {
                Value::MIN + 1
            }
        }
    }
    let s = UniformSource::new(2, 6, Extremes);
    let truth = minimax_value(&s);
    assert_eq!(seq_alphabeta(&s, false).value, truth);
    assert_eq!(parallel_alphabeta(&s, 1, false).value, truth);
    for k in [1u32, 2, 4] {
        let cascade = CascadeEngine::with_width(1).with_workers(k);
        assert_eq!(cascade.solve_minmax(&s).value, truth, "k={k}");
    }
}

#[test]
fn all_equal_minmax_tree_collapses_fast() {
    let s = UniformSource::new(3, 6, ConstLeaf(7));
    let st = parallel_alphabeta(&s, 1, false);
    assert_eq!(st.value, 7);
    // The α ≥ β rule fires aggressively on equal values: far fewer
    // leaves than the full 729.
    assert!(st.total_work < 200, "{}", st.total_work);
}

#[test]
fn othello_full_stack() {
    // Depth-4 opening search through simulators and engines.
    let src = GameTreeSource::from_initial(Othello, 4);
    let truth = minimax_value(&src);
    assert_eq!(seq_alphabeta(&src, false).value, truth);
    for w in 0..3 {
        assert_eq!(parallel_alphabeta(&src, w, false).value, truth, "w={w}");
    }
    for k in [1u32, 2, 4] {
        let cascade = CascadeEngine::with_width(2).with_workers(k);
        assert_eq!(cascade.solve_minmax(&src).value, truth, "k={k}");
    }
}

#[test]
fn othello_move_selection_is_stable_across_widths() {
    let g = Othello;
    let seq = best_move(&g, &g.initial(), SearchConfig { depth: 4, width: 0 }).unwrap();
    let par = best_move(&g, &g.initial(), SearchConfig { depth: 4, width: 2 }).unwrap();
    assert_eq!(seq.1, par.1, "values must agree");
    assert_eq!(seq.0, par.0, "tie-breaking must agree");
}

#[test]
fn othello_self_play_terminates() {
    let g = Othello;
    let mut s = g.initial();
    let mut plies = 0;
    while g.num_moves(&s) > 0 && plies < 64 {
        let (mv, _) = best_move(&g, &s, SearchConfig { depth: 3, width: 1 }).unwrap();
        s = g.apply(&s, mv);
        plies += 1;
    }
    assert!(s.is_terminal(), "game did not finish in 64 plies");
    // A finished 6x6 game's discs never exceed the board.
    assert!(s.black.count_ones() + s.white.count_ones() <= 36);
}
