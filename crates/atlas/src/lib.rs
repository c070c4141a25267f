//! Named graphs, graph families, and the persistent classification
//! atlas for the bilateral network-formation reproduction.
//!
//! Provides every concrete graph the paper reasons about: the Figure 1
//! gallery (Petersen, McGee, octahedron, Clebsch, Hoffman–Singleton,
//! star), the cages and Moore graphs behind Proposition 3's lower bound,
//! the link-convexity pair (Desargues / dodecahedron) of Section 4.1, the
//! elementary families (stars, cycles, complete and complete multipartite
//! graphs).
//!
//! The [`store`] module adds the *other* kind of atlas: a persistent
//! append-only store of per-graph classification records
//! ([`bnf_core::WindowRecord`]) keyed by canonical graph6 string, so
//! exhaustive sweeps can skip re-classifying topologies they have
//! already seen (`--atlas <path>` on the sweep binaries). The store is
//! read one way: every whole-store reader goes through one frame
//! walker and decodes each block once, and every ordered read sorts by
//! one engine key. Two handles sit on top:
//!
//! * [`ClassificationAtlas`] — the writer: appends, merges, coverage
//!   declarations, warm replays. It keeps no records, only a
//!   key-hash → location table (8 bytes of location per record) and
//!   the commit state; a lookup reads its record from disk.
//! * [`MappedAtlas`] — the indexed reader: after a one-time
//!   [`build_index`] pass (the `atlas_index` binary) writes a
//!   `<store>.idx` sidecar, point lookups are O(log N) positioned
//!   reads and warm sweeps stream in engine order without any table in
//!   memory. This is what `bnf-serve` serves from.
//!
//! Only v4 stores are opened; a v3 row store from an older build is
//! readable only by [`compact_store`] (the `atlas_compact` binary),
//! which migrates it to v4.
//!
//! Both handles, the index build, compaction and the segment merge
//! report every failure as one [`AtlasError`], and every strict reader
//! ends its walk through one rule: a file torn inside its 12-byte
//! header is [`AtlasError::BadMagic`], a torn tail is
//! [`AtlasError::Corrupt`] at the last clean frame boundary, and only
//! [`ClassificationAtlas::open_recovering`] truncates a tear away.
//!
//! See `docs/ATLAS_FORMAT.md` for the byte-level store and sidecar
//! formats and the compatibility/invalidation rules.
//!
//! ```no_run
//! use bnf_atlas::{build_index, MappedAtlas};
//!
//! build_index("sweeps.bnfatlas")?;
//! let atlas = MappedAtlas::open("sweeps.bnfatlas")?;
//! if let Some(rec) = atlas.lookup("D?{")? {
//!     println!("{} edges, distance {}", rec.edges, rec.total_distance);
//! }
//! # Ok::<(), bnf_atlas::AtlasError>(())
//! ```
//!
//! # Examples
//!
//! ```
//! use bnf_atlas::named::petersen;
//!
//! let p = petersen();
//! assert_eq!(p.srg_params().map(|s| (s.n, s.k, s.lambda, s.mu)), Some((10, 3, 0, 1)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod compact;
pub mod families;
pub mod index;
pub mod lcf;
pub mod mapped;
pub mod merge;
pub mod named;
mod shard;
pub mod store;

pub use codec::BLOCK_RECORDS;
pub use compact::{compact_store, CompactSummary};
pub use families::{
    circulant, complete, complete_bipartite, complete_multipartite, cycle, grid, hypercube, path,
    star, wheel,
};
pub use index::{build_index, index_path, IndexSummary, INDEX_MAGIC, INDEX_VERSION};
pub use lcf::{lcf, try_lcf};
pub use mapped::MappedAtlas;
pub use merge::{
    merge_segments, merge_segments_recovering, render_shard_report, MergeReport, SegmentError,
};
pub use shard::{ShardMeta, ShardPartition};
pub use store::{
    AtlasError, ClassificationAtlas, MergeOutcome, RecoveredAtlas, RecoveryReport, ShardCoverage,
    ATLAS_MAGIC, ATLAS_VERSION, MAX_BLOCK_FRAME_LEN,
};
