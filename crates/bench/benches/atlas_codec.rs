//! The v4 block codec on the served catalogue's read path: decoding a
//! whole block (`decode_block/full`, what a sequential replay pays per
//! block) against validating a block and materializing one record
//! (`decode_block/one`, what a point lookup pays).
//!
//! The blocks are the n = 8 catalogue in engine order, cut every
//! [`BLOCK_RECORDS`] records — the block frames a default-path
//! `--atlas` n = 8 store holds (two full blocks and a 2 925-record
//! tail). One iteration touches every block once.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bnf_atlas::codec::{decode_block, decode_block_record, encode_block};
use bnf_atlas::BLOCK_RECORDS;
use bnf_core::WindowRecord;
use bnf_empirics::WindowSweep;

fn bench_atlas_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("atlas_codec");
    group.sample_size(10);
    let catalogue = WindowSweep::run(8, bnf_empirics::default_threads(), None);
    let blocks: Vec<Vec<u8>> = catalogue
        .records
        .chunks(BLOCK_RECORDS)
        .map(|chunk| {
            let refs: Vec<&WindowRecord> = chunk.iter().collect();
            let mut body = Vec::new();
            encode_block(&refs, &mut body);
            body
        })
        .collect();
    group.bench_function("decode_block/full", |b| {
        b.iter(|| {
            for body in &blocks {
                black_box(decode_block(black_box(body)).expect("valid block"));
            }
        })
    });
    // A different ordinal per iteration, so no one record position is
    // favoured; the walk cost is the same wherever the record sits.
    let tail = catalogue.records.len() % BLOCK_RECORDS;
    let mut ordinal = 0usize;
    group.bench_function("decode_block/one", |b| {
        b.iter(|| {
            ordinal = (ordinal + 997) % tail;
            for body in &blocks {
                black_box(decode_block_record(black_box(body), ordinal).expect("valid block"));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_atlas_codec);
criterion_main!(benches);
