//! Iterative deepening with root move ordering.
//!
//! The paper closes hoping its algorithms "will suggest some efficient
//! parallel programs for evaluating the game trees occurring in
//! practice" (Section 8).  Practical programs search iteratively: depth
//! 1, 2, … up to a budget, re-ordering moves by the previous
//! iteration's scores so that α-β (sequential *or* parallel) sees the
//! likely-best move first and prunes harder.  This driver implements
//! that loop on top of the cascade engine, searching each root move's
//! subtree with the width-`w` parallel α-β on the host's workers.

use super::cascade::CascadeEngine;
use gt_games::{Game, GameTreeSource};
use gt_tree::Value;

/// Configuration for [`iterative_best_move`].
#[derive(Debug, Clone, Copy)]
pub struct DeepeningConfig {
    /// Final search depth (iterations run 1..=max_depth).
    pub max_depth: u32,
    /// Parallel width of the per-move subtree searches.
    pub width: u32,
    /// Aspiration half-window: when `Some(delta)`, each iteration after
    /// the first searches inside `(prev − delta, prev + delta)` first
    /// and re-searches with a full window only if the result falls
    /// outside — the classical trick for deepening searches.  `None`
    /// always uses full windows.
    pub aspiration: Option<Value>,
}

impl Default for DeepeningConfig {
    fn default() -> Self {
        DeepeningConfig {
            max_depth: 6,
            width: 1,
            aspiration: None,
        }
    }
}

/// Statistics for one deepening iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthStats {
    /// The iteration's depth.
    pub depth: u32,
    /// Best move index (into the *original* move numbering).
    pub best_move: u32,
    /// Value from the first player's perspective.
    pub value: Value,
    /// Leaves evaluated during this iteration.
    pub leaves: u64,
}

/// Outcome of an iterative-deepening search.
#[derive(Debug, Clone)]
pub struct DeepeningOutcome {
    /// Final best move and value (from the deepest iteration).
    pub best_move: u32,
    /// Final value.
    pub value: Value,
    /// Per-iteration records.
    pub per_depth: Vec<DepthStats>,
}

impl DeepeningOutcome {
    /// Total leaves across all iterations.
    pub fn total_leaves(&self) -> u64 {
        self.per_depth.iter().map(|d| d.leaves).sum()
    }
}

/// Search `state` by iterative deepening, re-ordering root moves by the
/// previous iteration's scores.  Returns `None` on terminal positions.
pub fn iterative_best_move<G: Game + Clone>(
    game: &G,
    state: &G::State,
    config: DeepeningConfig,
) -> Option<DeepeningOutcome> {
    assert!(config.max_depth >= 1);
    let n = game.num_moves(state);
    if n == 0 {
        return None;
    }
    let maximizing = game.first_player_to_move(state);
    let engine = CascadeEngine::with_width(config.width).with_workers(super::host_workers());
    // Current root move order (indices into the original numbering).
    let mut order: Vec<u32> = (0..n).collect();
    let mut per_depth = Vec::new();
    let mut prev_value: Option<Value> = None;
    for depth in 1..=config.max_depth {
        // One root pass over `order` with the given starting window.
        let search_root = |alpha0: Value, beta0: Value, order: &[u32]| {
            let mut alpha = alpha0;
            let mut beta = beta0;
            let mut leaves = 0u64;
            let mut scored: Vec<(u32, Value)> = Vec::with_capacity(n as usize);
            let mut best: Option<(u32, Value)> = None;
            for &mv in order {
                let child = game.apply(state, mv);
                let src = GameTreeSource::new(game.clone(), child, depth - 1);
                let (v, l) = engine
                    .alphabeta_window_counted(&src, alpha, beta, !maximizing)
                    .expect("root-level search is never pre-empted");
                leaves += l;
                scored.push((mv, v));
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
                    best = Some((mv, v));
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
            (scored, best, leaves)
        };
        // Aspiration: start from a window around the previous
        // iteration's value; re-search with the full window if the
        // result escapes it (fail-low or fail-high).
        let (asp_alpha, asp_beta) = match (config.aspiration, prev_value) {
            (Some(delta), Some(pv)) => (pv.saturating_sub(delta), pv.saturating_add(delta)),
            _ => (Value::MIN, Value::MAX),
        };
        let (mut scored, mut best, mut leaves) = search_root(asp_alpha, asp_beta, &order);
        if let Some((_, v)) = best {
            let escaped = v <= asp_alpha || v >= asp_beta;
            let windowed = asp_alpha != Value::MIN || asp_beta != Value::MAX;
            if windowed && escaped {
                let (s2, b2, l2) = search_root(Value::MIN, Value::MAX, &order);
                scored = s2;
                best = b2;
                leaves += l2;
            }
        }
        // Moves not searched this iteration (window closed) keep their
        // old relative order behind the searched ones.
        let searched: Vec<u32> = scored.iter().map(|&(m, _)| m).collect();
        let mut next_order: Vec<u32> = {
            let mut s = scored.clone();
            // Best-first for the mover.
            s.sort_by_key(|&(_, v)| if maximizing { -v } else { v });
            s.into_iter().map(|(m, _)| m).collect()
        };
        for &mv in &order {
            if !searched.contains(&mv) {
                next_order.push(mv);
            }
        }
        order = next_order;
        let (best_move, value) = best.expect("at least one move searched");
        prev_value = Some(value);
        per_depth.push(DepthStats {
            depth,
            best_move,
            value,
            leaves,
        });
    }
    let last = *per_depth.last().unwrap();
    Some(DeepeningOutcome {
        best_move: last.best_move,
        value: last.value,
        per_depth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{best_move, SearchConfig};
    use gt_games::tictactoe::Board;
    use gt_games::{Connect4, TicTacToe};

    #[test]
    fn terminal_position_returns_none() {
        let won = Board {
            x: 0b000_000_111,
            o: 0b000_011_000,
        };
        assert!(iterative_best_move(&TicTacToe, &won, DeepeningConfig::default()).is_none());
    }

    #[test]
    fn final_value_matches_direct_search() {
        for depth in [3u32, 5, 9] {
            let id = iterative_best_move(
                &TicTacToe,
                &TicTacToe.initial(),
                DeepeningConfig {
                    max_depth: depth,
                    width: 1,
                    aspiration: None,
                },
            )
            .unwrap();
            let direct = best_move(
                &TicTacToe,
                &TicTacToe.initial(),
                SearchConfig { depth, width: 1 },
            )
            .unwrap();
            assert_eq!(id.value, direct.1, "depth {depth}");
        }
    }

    #[test]
    fn per_depth_records_every_iteration() {
        let id = iterative_best_move(
            &TicTacToe,
            &TicTacToe.initial(),
            DeepeningConfig {
                max_depth: 4,
                width: 0,
                aspiration: None,
            },
        )
        .unwrap();
        assert_eq!(id.per_depth.len(), 4);
        for (i, d) in id.per_depth.iter().enumerate() {
            assert_eq!(d.depth as usize, i + 1);
            assert!(d.leaves > 0);
        }
        assert!(id.total_leaves() >= id.per_depth.last().unwrap().leaves);
    }

    #[test]
    fn finds_immediate_win_at_depth_one() {
        let b = Board {
            x: 0b000_000_011,
            o: 0b000_011_000,
        };
        let id = iterative_best_move(
            &TicTacToe,
            &b,
            DeepeningConfig {
                max_depth: 2,
                width: 1,
                aspiration: None,
            },
        )
        .unwrap();
        assert_eq!(id.best_move, 0, "cell 2 completes the row");
        assert!(id.value > 0);
    }

    #[test]
    fn move_ordering_reduces_final_iteration_effort() {
        // The last iteration of an ordered deepening search should cost
        // no more leaves than a cold search at the same depth with the
        // default move order (this is the entire point of deepening).
        let g = Connect4::default();
        let depth = 5u32;
        let id = iterative_best_move(
            &g,
            &g.initial(),
            DeepeningConfig {
                max_depth: depth,
                width: 0,
                aspiration: None,
            },
        )
        .unwrap();
        let last = id.per_depth.last().unwrap().leaves;
        // Cold search at the same depth: sum of per-root-move costs with
        // the default order.
        let cold = {
            let mut total = 0u64;
            let engine = CascadeEngine::with_width(0);
            let mut alpha = Value::MIN;
            for mv in 0..g.num_moves(&g.initial()) {
                let child = g.apply(&g.initial(), mv);
                let src = GameTreeSource::new(g, child, depth - 1);
                let (v, l) = engine
                    .alphabeta_window_counted(&src, alpha, Value::MAX, false)
                    .unwrap();
                alpha = alpha.max(v);
                total += l;
            }
            total
        };
        assert!(
            last <= cold,
            "ordered final iteration ({last}) should not exceed cold search ({cold})"
        );
    }

    #[test]
    fn aspiration_windows_preserve_the_value() {
        let g = Connect4::default();
        for delta in [1i64, 5, 50] {
            let plain = iterative_best_move(
                &g,
                &g.initial(),
                DeepeningConfig {
                    max_depth: 5,
                    width: 0,
                    aspiration: None,
                },
            )
            .unwrap();
            let asp = iterative_best_move(
                &g,
                &g.initial(),
                DeepeningConfig {
                    max_depth: 5,
                    width: 0,
                    aspiration: Some(delta),
                },
            )
            .unwrap();
            assert_eq!(asp.value, plain.value, "delta {delta}");
            assert_eq!(asp.best_move, plain.best_move, "delta {delta}");
        }
    }

    #[test]
    fn tight_aspiration_on_stable_values_saves_leaves() {
        // Tic-Tac-Toe values stabilize early (0 throughout), so a tight
        // window prunes aggressively and never needs a re-search.
        let plain = iterative_best_move(
            &TicTacToe,
            &TicTacToe.initial(),
            DeepeningConfig {
                max_depth: 6,
                width: 0,
                aspiration: None,
            },
        )
        .unwrap();
        let asp = iterative_best_move(
            &TicTacToe,
            &TicTacToe.initial(),
            DeepeningConfig {
                max_depth: 6,
                width: 0,
                aspiration: Some(3),
            },
        )
        .unwrap();
        assert_eq!(asp.value, plain.value);
        assert!(
            asp.total_leaves() <= plain.total_leaves(),
            "aspiration {} vs plain {}",
            asp.total_leaves(),
            plain.total_leaves()
        );
    }

    #[test]
    fn width_does_not_change_the_value() {
        let g = Connect4::default();
        let a = iterative_best_move(
            &g,
            &g.initial(),
            DeepeningConfig {
                max_depth: 4,
                width: 0,
                aspiration: None,
            },
        )
        .unwrap();
        let b = iterative_best_move(
            &g,
            &g.initial(),
            DeepeningConfig {
                max_depth: 4,
                width: 2,
                aspiration: None,
            },
        )
        .unwrap();
        assert_eq!(a.value, b.value);
        assert_eq!(a.best_move, b.best_move);
    }
}
