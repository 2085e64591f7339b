//! The three workloads' request streams, made from the seed alone.
//!
//! Request `i` of a stream is a pure function of `(workload, seed, i)`,
//! so any phase can take any slice of the stream and the oracle can
//! regenerate what was sent from the id alone.

use gt_serve::workload::{self, AlgoSpec};
use gt_tree::split::split_value_reference;
use gt_tree::{GenSpec, SubtreeSpec, Value};
use std::sync::atomic::AtomicBool;

/// Which traffic mix a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zipf repeats over a small keyspace that fits the fleet caches.
    HotCached,
    /// Distinct keys across every served engine family, below the
    /// split threshold.
    ColdMixed,
    /// Distinct large minmax trees above the split threshold.
    SplitLarge,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "hot_cached" => Ok(Workload::HotCached),
            "cold_mixed" => Ok(Workload::ColdMixed),
            "split_large" => Ok(Workload::SplitLarge),
            other => Err(format!(
                "unknown workload {other:?} (hot_cached, cold_mixed, split_large)"
            )),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotCached => "hot_cached",
            Workload::ColdMixed => "cold_mixed",
            Workload::SplitLarge => "split_large",
        }
    }
}

/// One eval request: a generator spec and a served algorithm.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Req {
    pub spec: String,
    pub algo: &'static str,
}

impl Req {
    /// The NDJSON request line (with its newline) under id `id`.
    pub fn line(&self, id: u64) -> String {
        format!(
            "{{\"id\":\"{id}\",\"spec\":\"{}\",\"algo\":\"{}\"}}\n",
            self.spec, self.algo
        )
    }

    /// Estimated leaf count, the quantity the router's `--split-cost`
    /// and the replica's cost classes compare against.
    pub fn cost(&self) -> u64 {
        let spec = GenSpec::parse(&self.spec).expect("generated spec parses");
        let algo = AlgoSpec::parse(self.algo).expect("generated algo parses");
        workload::estimated_cost(&spec, &algo)
    }
}

/// Keys in the `hot_cached` keyspace: about half per replica, well
/// inside the fleet's per-replica cache capacity.
pub const HOT_KEYS: usize = 512;
/// Zipf exponent of `hot_cached` key popularity.
const ZIPF_S: f64 = 0.8;

/// `cold_mixed` requests per block of [`COLD_BLOCK`], with the spec
/// family each algorithm runs on: 35/20/20/10/10/2.5/2.5 %.  `round`
/// and `ybw` together are 5%, far from the 1% tail the p99 reads, so
/// the p99 sits inside the slow group instead of on its boundary.
pub const COLD_MIX: &[(u64, &str, &str)] = &[
    (14, "alphabeta", "minmax:d=4,n=8"),
    (8, "par-alphabeta", "minmax:d=4,n=8"),
    (8, "seq-solve", "crit:d=2,n=16"),
    (4, "parallel-solve:w=1", "minmax:d=4,n=6"),
    (4, "cascade:w=1", "crit:d=2,n=16"),
    (1, "round:w=1", "minmax:d=4,n=5"),
    (1, "ybw", "minmax:d=4,n=5"),
];
/// Every block of this many consecutive `cold_mixed` requests holds
/// the mix exactly, in a seeded order: a window's share of slow
/// requests does not drift from run to run with the draw.
const COLD_BLOCK: u64 = 40;

/// Index into [`COLD_MIX`] of `cold_mixed` request `i`: slot `i mod
/// COLD_BLOCK` of a seeded shuffle of its block.
fn cold_slot(seed: u64, i: u64) -> usize {
    let mut deck: Vec<usize> = COLD_MIX
        .iter()
        .enumerate()
        .flat_map(|(k, (n, _, _))| std::iter::repeat_n(k, *n as usize))
        .collect();
    let block = i / COLD_BLOCK;
    for j in (1..deck.len()).rev() {
        let r = mix64(mix64(seed ^ 0xc01d) ^ (block << 8) ^ j as u64) % (j as u64 + 1);
        deck.swap(j, r as usize);
    }
    deck[(i % COLD_BLOCK) as usize]
}

/// The `split_large` trees, all above the fleet's split cost: `3^12`
/// leaves, and in one seeded slot of every [`SPLIT_BLOCK`] requests a
/// `3^15`-leaf tree with about ten times the work.  A `3^12` eval takes
/// a few ms, less than a host scheduling stall, so the p99 of those
/// alone is set by which requests a stall hit.  At 5% of requests the
/// large trees hold the p99 inside their group, away from its edge.
const SPLIT_FAMILY: &str = "minmax:d=3,n=12";
const SPLIT_LARGE_FAMILY: &str = "minmax:d=3,n=15";
const SPLIT_BLOCK: u64 = 20;

/// splitmix64 finaliser: a bijective 64-bit mix.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` keyed by `(seed, stream, i)`.
fn unit(seed: u64, stream: u64, i: u64) -> f64 {
    let h = mix64(mix64(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f)) ^ i);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A per-request tree seed that no other request of any run with the
/// same benchmark seed shares.
fn tree_seed(seed: u64, i: u64) -> u64 {
    mix64(seed) ^ i
}

/// One workload's request stream.
pub struct Mix {
    pub workload: Workload,
    seed: u64,
    keys: Vec<Req>,
    zipf_cdf: Vec<f64>,
}

impl Mix {
    pub fn new(workload: Workload, seed: u64) -> Mix {
        let keys = if workload == Workload::HotCached {
            hot_keyspace(seed)
        } else {
            Vec::new()
        };
        let mut zipf_cdf = Vec::with_capacity(keys.len());
        let mut acc = 0.0;
        for rank in 1..=keys.len() {
            acc += 1.0 / (rank as f64).powf(ZIPF_S);
            zipf_cdf.push(acc);
        }
        for c in &mut zipf_cdf {
            *c /= acc;
        }
        Mix {
            workload,
            seed,
            keys,
            zipf_cdf,
        }
    }

    /// The `hot_cached` keyspace, sent once during set-up as the
    /// warm-up pass; empty for the other workloads.
    pub fn keyspace(&self) -> &[Req] {
        &self.keys
    }

    /// Request `i` of the stream.
    pub fn request(&self, i: u64) -> Req {
        let u = unit(self.seed, 1, i);
        match self.workload {
            Workload::HotCached => {
                let rank = self.zipf_cdf.partition_point(|&c| c <= u);
                self.keys[rank.min(self.keys.len() - 1)].clone()
            }
            Workload::ColdMixed => {
                let (_, algo, family) = COLD_MIX[cold_slot(self.seed, i)];
                Req {
                    spec: format!("{family},seed={}", tree_seed(self.seed, i)),
                    algo,
                }
            }
            Workload::SplitLarge => {
                // One seeded slot of each block holds the large tree.
                let block = i / SPLIT_BLOCK;
                let slot = mix64(mix64(self.seed ^ 0x5b1d) ^ block) % SPLIT_BLOCK;
                let family = if i % SPLIT_BLOCK == slot {
                    SPLIT_LARGE_FAMILY
                } else {
                    SPLIT_FAMILY
                };
                Req {
                    spec: format!("{family},seed={}", tree_seed(self.seed, i)),
                    algo: "alphabeta",
                }
            }
        }
    }
}

/// `HOT_KEYS` distinct small specs: minmax α-β, critical NOR trees
/// under seq-solve, small work-stealing minmax evals, and the
/// deterministic worst-case NOR family.
fn hot_keyspace(seed: u64) -> Vec<Req> {
    let mut keys = Vec::with_capacity(HOT_KEYS);
    let mut seen = std::collections::HashSet::new();
    let mut k = 0u64;
    while keys.len() < HOT_KEYS {
        let u = unit(seed, 2, k);
        let n_pick = mix64(seed ^ mix64(k)) % 5;
        let s = tree_seed(seed, k);
        let req = if u < 0.4 {
            Req {
                spec: format!("minmax:d=3,n={},seed={s}", 3 + n_pick % 4),
                algo: "alphabeta",
            }
        } else if u < 0.8 {
            Req {
                spec: format!("crit:d=2,n={},seed={s}", 6 + n_pick),
                algo: "seq-solve",
            }
        } else if u < 0.95 {
            Req {
                spec: format!("minmax:d=2,n={},seed={s}", 4 + n_pick),
                algo: "par-alphabeta",
            }
        } else {
            Req {
                spec: format!("worst:d=2,n={}", 6 + n_pick),
                algo: "seq-solve",
            }
        };
        if seen.insert(req.clone()) {
            keys.push(req);
        }
        k += 1;
    }
    keys
}

/// The sequential reference value for `req`: α-β for minmax families,
/// seq-solve for NOR families, and the in-order split → sub-evaluate →
/// aggregate reference for trees the fleet splits.
pub fn reference(req: &Req, split_cost: u64) -> Result<Value, String> {
    let spec = GenSpec::parse(&req.spec)?;
    if req.cost() > split_cost {
        return split_value_reference(&SubtreeSpec::whole(spec), 1).map(|(v, _)| v);
    }
    let algo = AlgoSpec::parse(if spec.is_minmax() {
        "alphabeta"
    } else {
        "seq-solve"
    })?;
    workload::evaluate(&spec, &algo, &AtomicBool::new(false))
        .map(|o| o.value)
        .map_err(|e| format!("{e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(w: Workload, seed: u64, n: u64) -> Vec<Req> {
        let mix = Mix::new(w, seed);
        (0..n).map(|i| mix.request(i)).collect()
    }

    #[test]
    fn same_seed_same_stream_new_seed_new_stream() {
        for w in [
            Workload::HotCached,
            Workload::ColdMixed,
            Workload::SplitLarge,
        ] {
            assert_eq!(stream(w, 7, 2000), stream(w, 7, 2000), "{w:?}");
            assert_ne!(stream(w, 7, 2000), stream(w, 8, 2000), "{w:?}");
        }
    }

    #[test]
    fn hot_keyspace_is_distinct_and_repeats() {
        let mix = Mix::new(Workload::HotCached, 3);
        assert_eq!(mix.keyspace().len(), HOT_KEYS);
        let uniq: std::collections::HashSet<_> = mix.keyspace().iter().collect();
        assert_eq!(uniq.len(), HOT_KEYS);
        let reqs = stream(Workload::HotCached, 3, 5000);
        let hits = reqs.iter().filter(|r| **r == mix.keyspace()[0]).count();
        assert!(hits > 150, "rank-1 key drawn {hits} times in 5000");
    }

    #[test]
    fn cold_keys_are_distinct_and_follow_the_mix() {
        let reqs = stream(Workload::ColdMixed, 11, 20_000);
        let uniq: std::collections::HashSet<_> = reqs.iter().collect();
        assert_eq!(uniq.len(), reqs.len());
        assert_eq!(COLD_MIX.iter().map(|m| m.0).sum::<u64>(), COLD_BLOCK);
        for block in reqs.chunks(COLD_BLOCK as usize) {
            for (n, algo, _) in COLD_MIX {
                let got = block.iter().filter(|r| r.algo == *algo).count() as u64;
                assert_eq!(got, *n, "{algo}");
            }
        }
    }

    #[test]
    fn split_keys_are_distinct_with_one_large_tree_per_block() {
        let reqs = stream(Workload::SplitLarge, 11, 2000);
        let uniq: std::collections::HashSet<_> = reqs.iter().collect();
        assert_eq!(uniq.len(), reqs.len());
        for block in reqs.chunks(SPLIT_BLOCK as usize) {
            let large = block
                .iter()
                .filter(|r| r.spec.starts_with(SPLIT_LARGE_FAMILY))
                .count();
            assert_eq!(large, 1);
        }
    }

    #[test]
    fn every_stream_validates_and_sits_on_its_side_of_the_split_cost() {
        let split_cost = 200_000;
        for w in [
            Workload::HotCached,
            Workload::ColdMixed,
            Workload::SplitLarge,
        ] {
            for r in stream(w, 5, 300) {
                workload::validate(&r.spec, r.algo).unwrap();
                assert_eq!(w == Workload::SplitLarge, r.cost() > split_cost, "{r:?}");
            }
        }
    }
}
