//! Seeded mutation property test for the v4 block walker: real blocks
//! (the order-7 catalogue as a store writes it) and the corner-case
//! blocks of `codec_roundtrip.rs`, put through bit flips, byte
//! overwrites, inserts, deletes and truncations. Most mutants get a
//! recomputed CRC, so the column parser is what judges them.
//!
//! For every mutant the two entry points must agree:
//! `decode_block_record(b, k)` fails exactly when `decode_block(b)`
//! fails, for every ordinal `k < count`, and otherwise returns
//! `decode_block(b)?[k]`; an ordinal past the block is an error; and
//! neither ever panics. Also checked here: the slicing-by-8 `crc32`
//! against a bitwise reference at every length and alignment.

mod common;

use bnf_atlas::codec::{crc32, decode_block, decode_block_record, encode_block};
use bnf_atlas::ClassificationAtlas;
use bnf_core::WindowRecord;
use bnf_graph::BfsScratch;
use rand::{rngs::StdRng, SeedableRng};

/// SplitMix64: the mutation stream, seeded and dependency-free.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Block bodies (frame payloads after the tag byte) of an order-7
/// catalogue store, appended in 40-record batches so each frame is a
/// small block: every ordinal of every mutant stays cheap to check.
fn n7_store_blocks() -> Vec<Vec<u8>> {
    let mut scratch = BfsScratch::new();
    let mut records = Vec::new();
    bnf_stream::for_each_connected(7, |g, _| {
        records.push(WindowRecord::classify(&g, &mut scratch));
    });
    assert_eq!(records.len(), 853);
    let path = std::env::temp_dir().join(format!(
        "bnf-codec-mutation-{}.bnfatlas",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    {
        let mut atlas = ClassificationAtlas::open_with_version(&path, 4).unwrap();
        for batch in records.chunks(40) {
            atlas.append_records(batch).unwrap();
        }
    }
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mut blocks = Vec::new();
    let mut at = 12;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let frame = &bytes[at + 4..at + 4 + len];
        if frame[0] == 4 {
            blocks.push(frame[1..].to_vec());
        }
        at += 4 + len;
    }
    assert_eq!(blocks.len(), 853usize.div_ceil(40));
    blocks
}

/// The corner-case blocks: the hand-picked corners, and seeded random
/// corner-rigged records at a few block sizes.
fn corner_blocks() -> Vec<Vec<u8>> {
    let mut sets = vec![common::corner_records()];
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for count in [1usize, 9, 33] {
        sets.push(
            (0..count)
                .map(|i| common::random_record(&mut rng, i))
                .collect(),
        );
    }
    sets.iter()
        .map(|records| {
            let refs: Vec<&WindowRecord> = records.iter().collect();
            let mut body = Vec::new();
            encode_block(&refs, &mut body);
            body
        })
        .collect()
}

/// Applies one random mutation; returns its description.
fn mutate(body: &mut Vec<u8>, mix: &mut Mix) -> String {
    let len = body.len();
    match mix.below(5) {
        0 if len > 0 => {
            let (at, bit) = (mix.below(len), mix.below(8));
            body[at] ^= 1 << bit;
            format!("flip bit {bit} of byte {at}")
        }
        1 if len > 0 => {
            let (at, byte) = (mix.below(len), mix.next() as u8);
            body[at] = byte;
            format!("overwrite byte {at} with {byte:#04x}")
        }
        2 => {
            let (at, byte) = (mix.below(len + 1), mix.next() as u8);
            body.insert(at, byte);
            format!("insert {byte:#04x} at {at}")
        }
        3 if len > 0 => {
            let at = mix.below(len);
            body.remove(at);
            format!("delete byte {at}")
        }
        _ => {
            let keep = mix.below(len + 1);
            body.truncate(keep);
            format!("truncate to {keep} bytes")
        }
    }
}

/// Restamps the CRC over the mutated body, so the walker is reached.
fn restamp(body: &mut [u8]) {
    if body.len() >= 6 {
        let crc = crc32(&body[6..]).to_le_bytes();
        body[2..6].copy_from_slice(&crc);
    }
}

/// Asserts the agreement property on one block; returns
/// `decode_block`'s verdict.
fn assert_walks_agree(body: &[u8], what: &str) -> Result<(), String> {
    let full = decode_block(body);
    let count = if body.len() >= 2 {
        usize::from(u16::from_le_bytes([body[0], body[1]]))
    } else {
        0
    };
    if let Ok(records) = &full {
        assert_eq!(records.len(), count, "{what}");
    }
    for k in 0..count {
        match (&full, decode_block_record(body, k)) {
            (Ok(records), Ok(record)) => assert_eq!(record, records[k], "{what}, ordinal {k}"),
            (Err(_), Err(_)) => {}
            (full, one) => panic!(
                "{what}, ordinal {k}: decode_block is {:?} but decode_block_record is {:?}",
                full.as_ref().map(Vec::len),
                one.map(|r| r.key)
            ),
        }
    }
    for past in [count, count + 1, usize::MAX] {
        assert!(
            decode_block_record(body, past).is_err(),
            "{what}: ordinal {past} of a {count}-record block"
        );
    }
    full.map(|_| ())
}

#[test]
fn mutated_blocks_decode_the_same_through_both_walks() {
    let mut mix = Mix(0x0b10_c5ee_d000_0001);
    let originals: Vec<Vec<u8>> = n7_store_blocks()
        .into_iter()
        .chain(corner_blocks())
        .collect();
    let (mut accepted, mut crc_rejected, mut walker_rejected) = (0, 0, 0);
    for (b, original) in originals.iter().enumerate() {
        assert_walks_agree(original, &format!("block {b} unmutated")).unwrap();
        for m in 0..48 {
            let mut body = original.clone();
            let mut what = format!("block {b}, mutant {m}:");
            for _ in 0..1 + mix.below(3) {
                what.push(' ');
                what.push_str(&mutate(&mut body, &mut mix));
            }
            // One mutant in eight keeps its stale CRC, so the checksum
            // gate itself stays under test.
            if mix.below(8) != 0 {
                restamp(&mut body);
            }
            match assert_walks_agree(&body, &what) {
                Ok(()) => accepted += 1,
                Err(e) if e.contains("CRC") => crc_rejected += 1,
                Err(_) => walker_rejected += 1,
            }
        }
    }
    // The mutants must exercise every outcome: some survive as valid
    // blocks, some die at the CRC, and most reach the column parser.
    assert!(
        accepted > 0 && crc_rejected > 0 && walker_rejected > accepted,
        "accepted {accepted}, CRC-rejected {crc_rejected}, walker-rejected {walker_rejected}"
    );
}

/// The textbook bit-at-a-time CRC-32/IEEE, independent of any table.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    c ^ 0xFFFF_FFFF
}

#[test]
fn slicing_by_8_crc_matches_the_bitwise_reference() {
    let mut mix = Mix(0xC3C3_2002);
    for _ in 0..4 {
        let buf: Vec<u8> = (0..257 + 8).map(|_| mix.next() as u8).collect();
        for start in 0..8 {
            for len in 0..=257 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "start {start}, length {len}"
                );
            }
        }
    }
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}
