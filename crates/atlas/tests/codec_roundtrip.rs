//! Seeded round-trip property test for the v4 columnar block codec:
//! randomly generated records — skewed hard toward the encodings'
//! corner cases — must survive `encode_block` → `decode_block` exactly,
//! and a store holding a full block plus a single-record tail block
//! must replay losslessly.
//!
//! The corners the generator is rigged to hit:
//!
//! * empty `ucg_support` (the common case for unstable topologies);
//! * an unbounded (`Threshold::Infinite`) final interval, exercising
//!   the 1-byte infinity tag at the end of a column;
//! * `None` stability / transfer, exercising the presence bitmaps at
//!   every density from all-absent to all-present;
//! * max-order-shaped keys (11+ graph6 characters) and maximal
//!   numeric fields (`u32::MAX` order, `u64::MAX` counters), whose
//!   zigzag deltas wrap the full width;
//! * single-record blocks (count = 1, every delta against the
//!   zero-initialized previous row).

mod common;

use bnf_atlas::codec::{decode_block, encode_block};
use bnf_atlas::{ClassificationAtlas, BLOCK_RECORDS};
use bnf_core::WindowRecord;
use common::random_record;
use rand::{rngs::StdRng, SeedableRng};

#[test]
fn seeded_blocks_round_trip_exactly() {
    let mut payload = Vec::new();
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        // Odd sizes on purpose: 1 hits the all-deltas-from-zero row,
        // 257 spans several bitmap bytes with a ragged tail bit.
        for count in [1usize, 2, 7, 64, 257] {
            let records: Vec<WindowRecord> =
                (0..count).map(|i| random_record(&mut rng, i)).collect();
            let refs: Vec<&WindowRecord> = records.iter().collect();
            payload.clear();
            encode_block(&refs, &mut payload);
            let decoded = decode_block(&payload)
                .unwrap_or_else(|e| panic!("seed {seed}, count {count}: {e}"));
            assert_eq!(decoded, records, "seed {seed}, count {count}");
        }
    }
}

#[test]
fn handpicked_corner_records_round_trip_in_one_block() {
    let records = common::corner_records();
    let refs: Vec<&WindowRecord> = records.iter().collect();
    let mut payload = Vec::new();
    encode_block(&refs, &mut payload);
    assert_eq!(decode_block(&payload).unwrap(), records);
}

#[test]
fn full_block_plus_single_record_tail_replays_from_disk() {
    let path = std::env::temp_dir().join(format!("bnf-codec-tail-{}.bnfatlas", std::process::id()));
    std::fs::remove_file(&path).ok();
    let mut rng = StdRng::seed_from_u64(0xb10c);
    let records: Vec<WindowRecord> = (0..BLOCK_RECORDS + 1)
        .map(|i| random_record(&mut rng, i))
        .collect();
    {
        let mut atlas = ClassificationAtlas::open(&path).unwrap();
        assert_eq!(atlas.append_records(&records).unwrap(), records.len());
    }
    // Two block frames on disk: a full 4096 and a single-record tail.
    let bytes = std::fs::read(&path).unwrap();
    let mut frames = 0;
    let mut at = 12;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        assert_eq!(bytes[at + 4], 4, "frame at {at} is not a columnar block");
        frames += 1;
        at += 4 + len;
    }
    assert_eq!(frames, 2);

    let reopened = ClassificationAtlas::open(&path).unwrap();
    assert_eq!(reopened.len(), records.len());
    for rec in &records {
        assert_eq!(
            reopened.get(&rec.key).unwrap().as_ref(),
            Some(rec),
            "key {:?}",
            rec.key
        );
    }
    std::fs::remove_file(&path).ok();
}
