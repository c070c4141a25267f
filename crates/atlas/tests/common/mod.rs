//! Record generators shared by the codec suites: a seeded random
//! record rigged toward the encodings' corner cases, and a hand-picked
//! block of the corners themselves.

#![allow(dead_code)]

use bnf_core::{ClosedInterval, LowerBound, StabilityWindow, Threshold, WindowRecord};
use bnf_games::Ratio;
use rand::{rngs::StdRng, Rng};

/// Graph6 printable alphabet (0x3F..=0x7E), the only bytes real keys
/// contain — but the codec must take any UTF-8, so a few seeds also
/// get plain ASCII letters.
fn random_key(rng: &mut StdRng) -> String {
    // Max-order shape: n = 11 canonical keys are 1 + ceil(55 / 6) = 11
    // characters; stretch a little past that.
    let len = 1 + rng.gen_range(0..14usize);
    (0..len)
        .map(|_| char::from(63 + rng.gen_range(0..64usize) as u8))
        .collect()
}

fn random_ratio(rng: &mut StdRng) -> Ratio {
    Ratio::new(
        rng.gen_range(0..2000usize) as i64,
        1 + rng.gen_range(0..200usize) as i64,
    )
}

fn random_threshold(rng: &mut StdRng) -> Threshold {
    if rng.gen_range(0..4usize) == 0 {
        Threshold::Infinite
    } else {
        Threshold::Finite(random_ratio(rng))
    }
}

pub fn random_record(rng: &mut StdRng, ordinal: usize) -> WindowRecord {
    let extreme = rng.gen_range(0..8usize) == 0;
    WindowRecord {
        // The ordinal suffix keeps keys unique within a batch without
        // disturbing the shared-prefix distribution the codec exploits.
        key: format!("{}{ordinal}", random_key(rng)),
        order: if extreme {
            u32::MAX
        } else {
            rng.gen_range(0..12usize) as u32
        },
        edges: if extreme {
            u64::MAX
        } else {
            rng.gen_range(0..56usize) as u64
        },
        total_distance: if extreme {
            u64::MAX - rng.gen_range(0..9usize) as u64
        } else {
            rng.gen_range(0..4000usize) as u64
        },
        stability: (rng.gen_range(0..3usize) > 0).then(|| StabilityWindow {
            lower: LowerBound {
                value: random_ratio(rng),
                inclusive: rng.gen_range(0..2usize) == 0,
            },
            upper: random_threshold(rng),
        }),
        transfer: (rng.gen_range(0..3usize) > 0).then(|| ClosedInterval {
            lo: random_ratio(rng),
            hi: random_threshold(rng),
        }),
        ucg_support: (0..rng.gen_range(0..4usize))
            .map(|_| ClosedInterval {
                lo: random_ratio(rng),
                hi: random_threshold(rng),
            })
            .collect(),
    }
}

/// One record per encoding corner: everything absent, an unbounded
/// final interval, full-width maxima, and full-width descents back to
/// zero.
pub fn corner_records() -> Vec<WindowRecord> {
    vec![
        // Everything absent: the all-zeros bitmap path.
        WindowRecord {
            key: "D?{".into(),
            order: 4,
            edges: 3,
            total_distance: 10,
            stability: None,
            transfer: None,
            ucg_support: Vec::new(),
        },
        // Unbounded final interval + inclusive-false lower bound.
        WindowRecord {
            key: "D]w".into(),
            order: 4,
            edges: 5,
            total_distance: 8,
            stability: Some(StabilityWindow {
                lower: LowerBound {
                    value: Ratio::new(1, 3),
                    inclusive: false,
                },
                upper: Threshold::Infinite,
            }),
            transfer: Some(ClosedInterval {
                lo: Ratio::new(0, 1),
                hi: Threshold::Finite(Ratio::new(7, 2)),
            }),
            ucg_support: vec![
                ClosedInterval {
                    lo: Ratio::new(1, 2),
                    hi: Threshold::Finite(Ratio::new(2, 1)),
                },
                ClosedInterval {
                    lo: Ratio::new(5, 1),
                    hi: Threshold::Infinite,
                },
            ],
        },
        // Max-order key shape and maximal numeric fields: the deltas
        // against the previous row wrap the full u64 width.
        WindowRecord {
            key: "J~~~~~~~~~~".into(),
            order: u32::MAX,
            edges: u64::MAX,
            total_distance: u64::MAX,
            stability: None,
            transfer: Some(ClosedInterval {
                lo: Ratio::new(0, 1),
                hi: Threshold::Infinite,
            }),
            ucg_support: Vec::new(),
        },
        // Back down from the maxima: negative deltas of full width.
        WindowRecord {
            key: "C~".into(),
            order: 0,
            edges: 0,
            total_distance: 0,
            stability: Some(StabilityWindow {
                lower: LowerBound {
                    value: Ratio::new(0, 1),
                    inclusive: true,
                },
                upper: Threshold::Finite(Ratio::new(0, 1)),
            }),
            transfer: None,
            ucg_support: vec![ClosedInterval {
                lo: Ratio::new(0, 1),
                hi: Threshold::Infinite,
            }],
        },
    ]
}
