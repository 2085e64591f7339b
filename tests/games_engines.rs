//! Engines on real games with exact oracles: Nim has a closed-form
//! winner (Bouton's theorem), Tic-Tac-Toe a known game value, so the
//! full engine stack can be checked against theory rather than against
//! another implementation.

use karp_zhang::core::engine::{
    best_move, iterative_best_move, CascadeEngine, DeepeningConfig, RoundEngine, SearchConfig,
};
use karp_zhang::games::{Game, GameTreeSource, Nim, NimState, TicTacToe};
use karp_zhang::sim::parallel_alphabeta;
use karp_zhang::tree::minimax::seq_alphabeta;

fn nim_theory_value(s: &NimState) -> i64 {
    // evaluate() convention: +1 = first player wins under perfect play.
    let mover_wins = s.mover_wins(None);
    match (s.first_to_move, mover_wins) {
        (true, true) | (false, false) => 1,
        _ => -1,
    }
}

#[test]
fn all_engines_agree_with_bouton_on_nim() {
    let g = Nim::default();
    for piles in [
        vec![1, 2],
        vec![2, 2],
        vec![1, 2, 3],
        vec![3, 1],
        vec![2, 3, 1],
    ] {
        let s = NimState::new(piles.clone());
        let depth: u32 = piles.iter().sum::<u32>() + 1;
        let src = GameTreeSource::new(g, s.clone(), depth);
        let theory = nim_theory_value(&s);
        assert_eq!(seq_alphabeta(&src, false).value, theory, "{piles:?} seq");
        assert_eq!(
            parallel_alphabeta(&src, 1, false).value,
            theory,
            "{piles:?} model w1"
        );
        for k in [1u32, 2, 4] {
            assert_eq!(
                CascadeEngine::with_width(2)
                    .with_workers(k)
                    .solve_minmax(&src)
                    .value,
                theory,
                "{piles:?} cascade k={k}"
            );
            assert_eq!(
                RoundEngine::with_width(1)
                    .with_workers(k)
                    .solve_minmax(&src)
                    .value,
                theory,
                "{piles:?} round k={k}"
            );
        }
    }
}

#[test]
fn nim_engine_plays_perfectly_from_winning_positions() {
    // From any XOR≠0 position, the engine must find a move to XOR=0.
    let g = Nim::default();
    for piles in [vec![1, 2], vec![1, 2, 3, 1], vec![4, 1]] {
        let s = NimState::new(piles.clone());
        if !s.mover_wins(None) {
            continue;
        }
        let depth: u32 = piles.iter().sum::<u32>() + 1;
        let (mv, val) = best_move(&g, &s, SearchConfig { depth, width: 1 }).unwrap();
        assert_eq!(val, 1, "winning position must stay won: {piles:?}");
        let after = g.apply(&s, mv);
        assert!(
            !after.mover_wins(None),
            "perfect move must hand over a lost position: {piles:?} -> {:?}",
            after.piles
        );
    }
}

#[test]
fn iterative_deepening_converges_on_tictactoe() {
    let out = iterative_best_move(
        &TicTacToe,
        &TicTacToe.initial(),
        DeepeningConfig {
            max_depth: 9,
            width: 1,
            aspiration: None,
        },
    )
    .unwrap();
    assert_eq!(out.value, 0, "perfect play is a draw");
    // Values stabilize at the horizon where the game is fully resolved.
    let deep = out.per_depth.last().unwrap();
    assert_eq!(deep.depth, 9);
}

#[test]
fn deepening_effort_is_dominated_by_the_last_iteration() {
    // Geometric growth means the final iteration dominates; iterative
    // deepening's total cost must stay within a small factor of it.
    let out = iterative_best_move(
        &TicTacToe,
        &TicTacToe.initial(),
        DeepeningConfig {
            max_depth: 7,
            width: 0,
            aspiration: None,
        },
    )
    .unwrap();
    let last = out.per_depth.last().unwrap().leaves;
    assert!(
        out.total_leaves() <= 4 * last,
        "total {} vs last {last}",
        out.total_leaves()
    );
}

#[test]
fn nim_tree_is_highly_irregular_and_still_correct() {
    // Arities shrink as stones disappear — a strong test of the
    // non-uniform code paths.
    let g = Nim::default();
    let s = NimState::new(vec![3, 2]);
    let src = GameTreeSource::new(g, s.clone(), 6);
    let theory = nim_theory_value(&s);
    for w in 0..3 {
        assert_eq!(parallel_alphabeta(&src, w, false).value, theory, "w={w}");
    }
}
