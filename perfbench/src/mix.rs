//! The seeded request mix of the `serve_mix` workload.
//!
//! The mix is drawn as plain data (indices, permutations, edge masks)
//! so it depends on the seed alone; `serve.rs` turns each draw into a
//! request path using the served catalogue.

use crate::util::Rng;
use crate::N;

/// Order of the graphs sent down the live-classification path: absent
/// from an order-9 catalogue by construction.
pub const LIVE_ORDER: usize = 8;

/// One drawn request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `/classify` of the canonical key at this position of the sorted
    /// key table (~70 %).
    Classify { index: u64 },
    /// `/classify` of the same stored graph under a random vertex
    /// relabelling (~10 %): the canonicalize-and-retry path.
    Relabel { index: u64, perm: [u8; N] },
    /// `/record/{index}` of the engine-order table (~10 %).
    Record { index: u64 },
    /// `/classify` of a random connected order-8 graph, given as the
    /// bit mask of its upper-triangle pairs (~5 %): live classification.
    Live { mask: u32 },
    /// The startup-cached `/grid?spec=paper` (~2.5 %).
    GridPaper,
    /// `/healthz` (~2.5 %).
    Healthz,
}

impl Op {
    /// The name latencies are reported under.
    pub fn route(&self) -> &'static str {
        match self {
            Op::Classify { .. } => "classify",
            Op::Relabel { .. } => "relabel",
            Op::Record { .. } => "record",
            Op::Live { .. } => "live",
            Op::GridPaper => "grid",
            Op::Healthz => "healthz",
        }
    }
}

/// The routes in report order.
pub const ROUTES: [&str; 6] = ["classify", "relabel", "record", "live", "grid", "healthz"];

/// `count` requests for client `client` from `seed`, over a key table
/// and an engine-order table of `table_len` records each.
pub fn draw(seed: u64, client: u64, count: usize, table_len: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed, client + 1);
    (0..count)
        .map(|_| match rng.below(1000) {
            0..=699 => Op::Classify {
                index: rng.below(table_len),
            },
            700..=799 => {
                let mut perm = [0u8; N];
                for (i, p) in perm.iter_mut().enumerate() {
                    *p = i as u8;
                }
                rng.shuffle(&mut perm);
                Op::Relabel {
                    index: rng.below(table_len),
                    perm,
                }
            }
            800..=899 => Op::Record {
                index: rng.below(table_len),
            },
            900..=949 => Op::Live {
                mask: connected_mask(&mut rng),
            },
            950..=974 => Op::GridPaper,
            _ => Op::Healthz,
        })
        .collect()
}

/// The upper-triangle pairs of an order-`LIVE_ORDER` graph, in mask
/// bit order.
pub fn live_pairs() -> Vec<(usize, usize)> {
    (0..LIVE_ORDER)
        .flat_map(|u| (u + 1..LIVE_ORDER).map(move |v| (u, v)))
        .collect()
}

/// A uniform random connected graph on `LIVE_ORDER` vertices (each pair
/// present with probability 1/2, redrawn until connected).
fn connected_mask(rng: &mut Rng) -> u32 {
    let pairs = live_pairs();
    loop {
        let mask = (rng.next_u64() & ((1u64 << pairs.len()) - 1)) as u32;
        let mut parent: Vec<usize> = (0..LIVE_ORDER).collect();
        fn root(parent: &mut [usize], mut v: usize) -> usize {
            while parent[v] != v {
                parent[v] = parent[parent[v]];
                v = parent[v];
            }
            v
        }
        for (bit, &(u, v)) in pairs.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                let (ru, rv) = (root(&mut parent, u), root(&mut parent, v));
                parent[ru] = rv;
            }
        }
        let r0 = root(&mut parent, 0);
        if (1..LIVE_ORDER).all(|v| root(&mut parent, v) == r0) {
            return mask;
        }
    }
}

/// The distinct uncached `/grid` specs of the closing phase: small
/// linear grids, so each request costs one streamed replay plus a short
/// fold.
pub fn grid_specs(seed: u64, count: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, 0x0061_21D5);
    let mut specs: Vec<String> = Vec::with_capacity(count);
    while specs.len() < count {
        let lo = 1 + rng.below(8);
        let hi = lo + 1 + rng.below(56);
        let steps = 3 + rng.below(4);
        let spec = format!("linear:{lo}/4:{hi}:{steps}");
        if !specs.contains(&spec) {
            specs.push(spec);
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_for_a_seed() {
        assert_eq!(draw(11, 0, 5000, 261_080), draw(11, 0, 5000, 261_080));
        assert_ne!(draw(11, 0, 5000, 261_080), draw(12, 0, 5000, 261_080));
        assert_ne!(draw(11, 0, 5000, 261_080), draw(11, 1, 5000, 261_080));
        assert_eq!(grid_specs(3, 12), grid_specs(3, 12));
    }

    #[test]
    fn mix_has_the_stated_shares() {
        let ops = draw(5, 0, 100_000, 261_080);
        let share = |route: &str| {
            ops.iter().filter(|o| o.route() == route).count() as f64 / ops.len() as f64
        };
        assert!((share("classify") - 0.70).abs() < 0.01);
        assert!((share("relabel") - 0.10).abs() < 0.01);
        assert!((share("record") - 0.10).abs() < 0.01);
        assert!((share("live") - 0.05).abs() < 0.01);
        assert!((share("grid") + share("healthz") - 0.05).abs() < 0.01);
        assert!(ops.iter().all(|o| match o {
            Op::Classify { index } | Op::Record { index } | Op::Relabel { index, .. } =>
                *index < 261_080,
            _ => true,
        }));
    }

    #[test]
    fn grid_specs_are_distinct_and_uncached() {
        let specs = grid_specs(9, 12);
        let mut sorted = specs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 12);
        assert!(specs.iter().all(|s| s != "paper"));
    }
}
