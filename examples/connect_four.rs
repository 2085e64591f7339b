//! Connect Four with the cascade-parallel α-β engine: the "wide and
//! shallow" game trees Section 8 contrasts with the paper's deep-tree
//! asymptotics.
//!
//! ```text
//! cargo run --release --example connect_four [depth]
//! ```

use karp_zhang::core::engine::{best_move, host_workers, CascadeEngine, SearchConfig};
use karp_zhang::games::{Connect4, Game, GameTreeSource};
use karp_zhang::tree::minimax::seq_alphabeta;
use std::time::Instant;

fn render(p: &karp_zhang::games::connect4::Position) -> String {
    let mut s = String::new();
    for row in (0..6).rev() {
        for col in 0..7 {
            let bit = 1u64 << (col * 7 + row);
            s.push(if p.first & bit != 0 {
                'X'
            } else if p.second() & bit != 0 {
                'O'
            } else {
                '.'
            });
            s.push(' ');
        }
        s.push('\n');
    }
    s.push_str("0 1 2 3 4 5 6\n");
    s
}

fn main() {
    let depth: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(7);
    let game = Connect4::default();

    // Compare sequential vs cascade-parallel search of the opening tree.
    let src = GameTreeSource::from_initial(game, depth);
    let t0 = Instant::now();
    let seq = seq_alphabeta(&src, false);
    let t_seq = t0.elapsed();
    let engine = CascadeEngine::with_width(2).with_workers(host_workers());
    let par = engine.solve_minmax(&src);
    assert_eq!(par.value, seq.value);
    println!("Connect Four opening search, depth {depth}:");
    println!(
        "  sequential: value {}, {} leaves, {t_seq:?}",
        seq.value, seq.leaves_evaluated
    );
    println!(
        "  cascade w2: value {}, {} leaves, {:?}  (wall-clock speed-up {:.2})",
        par.value,
        par.leaves_evaluated,
        par.elapsed,
        t_seq.as_secs_f64() / par.elapsed.as_secs_f64()
    );

    // Short self-play demo (first 10 plies).
    println!("\nself-play, first 10 plies (depth-{depth} search per move):");
    let mut state = game.initial();
    for _ in 0..10 {
        let Some((mv, _)) = best_move(&game, &state, SearchConfig { depth, width: 2 }) else {
            break;
        };
        state = game.apply(&state, mv);
    }
    println!("{}", render(&state));
    if let Some(v) = state.outcome() {
        println!("game over early, outcome {v}");
    }
}
