//! Move selection for real games using the parallel engines.
//!
//! This is the "game-playing program" layer the paper hopes its
//! algorithms will speed up (Section 8): depth-limited search over a
//! [`gt_games::Game`], each root move scored by a cascade-parallel α-β
//! search of its subtree on the host's workers ([`super::host_workers`]),
//! with the root window narrowing left to right exactly as sequential
//! α-β would.

use super::cascade::CascadeEngine;
use gt_games::{Game, GameTreeSource};
use gt_tree::Value;

/// Search parameters for [`best_move`].
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Search horizon in plies (≥ 1).
    pub depth: u32,
    /// Parallel width of the engine (0 = sequential search).
    pub width: u32,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig { depth: 6, width: 1 }
    }
}

/// Pick the best move for the side to move in `state`.
///
/// Returns `None` on terminal positions, otherwise `(move_index, value)`
/// where the value is from the first player's (absolute) perspective.
pub fn best_move<G: Game + Clone>(
    game: &G,
    state: &G::State,
    config: SearchConfig,
) -> Option<(u32, Value)> {
    assert!(config.depth >= 1, "need at least one ply to pick a move");
    let n = game.num_moves(state);
    if n == 0 {
        return None;
    }
    let maximizing = game.first_player_to_move(state);
    let engine = CascadeEngine::with_width(config.width).with_workers(super::host_workers());
    let mut alpha = Value::MIN;
    let mut beta = Value::MAX;
    let mut best: Option<(u32, Value)> = None;
    for i in 0..n {
        let child = game.apply(state, i);
        let src = GameTreeSource::new(game.clone(), child, config.depth - 1);
        let v = engine
            .alphabeta_window(&src, alpha, beta, !maximizing)
            .expect("root-level search is never pre-empted");
        let better = match best {
            None => true,
            Some((_, bv)) => {
                if maximizing {
                    v > bv
                } else {
                    v < bv
                }
            }
        };
        if better {
            best = Some((i, v));
        }
        if maximizing {
            alpha = alpha.max(v);
        } else {
            beta = beta.min(v);
        }
        if alpha >= beta {
            break;
        }
    }
    best
}

/// Play a full game between two configurations; returns the final state
/// and the move list.  Used by examples and integration tests.
pub fn play_out<G: Game + Clone>(
    game: &G,
    first: SearchConfig,
    second: SearchConfig,
    max_plies: u32,
) -> (G::State, Vec<u32>) {
    let mut state = game.initial();
    let mut moves = Vec::new();
    for ply in 0..max_plies {
        let cfg = if ply % 2 == 0 { first } else { second };
        match best_move(game, &state, cfg) {
            Some((m, _)) => {
                state = game.apply(&state, m);
                moves.push(m);
            }
            None => break,
        }
    }
    (state, moves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_games::tictactoe::Board;
    use gt_games::{Connect4, TicTacToe};

    #[test]
    fn terminal_position_has_no_move() {
        let won = Board {
            x: 0b000_000_111,
            o: 0b000_011_000,
        };
        assert!(best_move(&TicTacToe, &won, SearchConfig::default()).is_none());
    }

    #[test]
    fn finds_immediate_win() {
        // X has two in a row (cells 0,1); cell 2 wins.
        let b = Board {
            x: 0b000_000_011,
            o: 0b000_011_000,
        };
        let (mv, v) = best_move(&TicTacToe, &b, SearchConfig { depth: 2, width: 1 }).unwrap();
        // Empty cells ascending: 2,6,7,8 → index 0 is cell 2.
        assert_eq!(mv, 0);
        assert!(v > 0);
    }

    #[test]
    fn blocks_opponent_win_as_minimizer() {
        // O to move; X threatens at cell 2 (has 0,1).  O must block.
        let b = Board {
            x: 0b000_000_011,
            o: 0b000_010_000,
        };
        assert!(!TicTacToe.first_player_to_move(&b));
        let (mv, _) = best_move(&TicTacToe, &b, SearchConfig { depth: 4, width: 1 }).unwrap();
        assert_eq!(mv, 0, "O must take cell 2 (index 0 of empties)");
    }

    #[test]
    fn perfect_tictactoe_self_play_is_a_draw() {
        let cfg = SearchConfig { depth: 9, width: 1 };
        let (final_state, moves) = play_out(&TicTacToe, cfg, cfg, 9);
        assert_eq!(final_state.outcome(), Some(0), "moves: {moves:?}");
        assert_eq!(moves.len(), 9);
    }

    #[test]
    fn sequential_and_parallel_choose_equal_valued_moves() {
        for depth in [3u32, 5] {
            let seqv = best_move(
                &TicTacToe,
                &TicTacToe.initial(),
                SearchConfig { depth, width: 0 },
            )
            .unwrap()
            .1;
            let parv = best_move(
                &TicTacToe,
                &TicTacToe.initial(),
                SearchConfig { depth, width: 2 },
            )
            .unwrap()
            .1;
            assert_eq!(seqv, parv, "depth {depth}");
        }
    }

    #[test]
    fn connect4_sequential_and_parallel_agree_on_value() {
        let g = Connect4::default();
        let seq = best_move(&g, &g.initial(), SearchConfig { depth: 5, width: 0 }).unwrap();
        let par = best_move(&g, &g.initial(), SearchConfig { depth: 5, width: 2 }).unwrap();
        assert!(seq.0 < 7 && par.0 < 7);
        assert_eq!(seq.1, par.1, "root values must agree");
        assert_eq!(seq.0, par.0, "deterministic tie-breaking must agree");
    }
}
