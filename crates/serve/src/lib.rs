//! `bnf-serve` — a std-only threaded HTTP/1.1 JSON server over the
//! indexed classification atlas.
//!
//! The atlas answers "what are the equilibrium windows of this
//! topology?" once per canonical graph; this crate puts that answer
//! behind a socket. The server opens a store through
//! [`bnf_atlas::MappedAtlas`] (the index sidecar built by
//! `atlas_index`), so point lookups are a binary search over `pread`
//! calls — resident memory stays near the sidecar size even when the
//! store is multiple gigabytes. The record itself comes from one read
//! of its v4 block, validated whole (CRC and every column) but with
//! only the requested record materialized: 0.2–0.3 ms per full
//! 4 096-record block of the n = 9 catalogue (78 KB) on a 2 vCPU Xeon,
//! under half the cost of materializing every record of it. A handler that panics is answered
//! `500` and counted in the `serve_panics` counter; the worker keeps
//! serving.
//!
//! # Endpoints
//!
//! | Endpoint | Response |
//! |---|---|
//! | `GET /healthz` | `{"status":"ok","atlas":…,"records":N,"orders":[{"order":9,"count":261080}],"default_order":9,"live_order_cap":10,"peak_rss_kb":N}` |
//! | `GET /metrics` | Process recorder snapshot: `{"counters":{…},"spans_ms":{…},"histograms":{"serve_ns/classify":{"count":…,"min":…,"max":…,"mean":…,"p50":…,"p99":…}},"peak_rss_kb":N}` |
//! | `GET /classify/{graph6}` | `{"source":"atlas"\|"live","record":{…}}` — index lookup first (raw key, then canonicalized); graphs outside the store are classified live when connected and of order ≤ the cap (default 10). `400` bad graph6, `422` out of live range or disconnected. |
//! | `GET /record/{idx}?order=N` | `{"order":N,"index":idx,"record":{…}}` — the idx-th record of the order-N engine table (enumeration order); `order` defaults to the largest complete order. `404` out of range. |
//! | `GET /grid?spec=paper\|linear:lo:hi:steps\|log2:lo:hi:per_octave` | `{"n":N,"spec":…,"alphas":[…],"bilateral":[…],"unilateral":[…],"transfer":[…]}` — the Figure 2/3 α-grid post-pass over the largest complete order, f64-identical to the CSV artifact: the store's engine-order stream is folded straight into per-α accumulators, so memory is O(\|grid\|). `400` for a malformed spec or one of more than 65 536 points. The paper grid is precomputed at startup and cached. |
//!
//! The record object is rendered by [`render::push_record`]:
//!
//! ```json
//! {"key":"D?{","order":5,"edges":4,"total_distance":32,
//!  "stability":{"lower":"0","lower_inclusive":false,"upper":"inf"},
//!  "transfer":{"lo":"0","hi":"1"},
//!  "ucg_support":[{"lo":"0","hi":"1"}]}
//! ```
//!
//! Exact rationals are strings (`"5/4"`, `"inf"`); only the grid's
//! aggregate statistics are JSON numbers (`NaN` → `null`).
//!
//! # Binaries
//!
//! * `bnf_serve --atlas store.bnfatlas [--addr 127.0.0.1:7878]
//!   [--threads N] [--live-cap K]` — build the sidecar first with
//!   `atlas_index --atlas store.bnfatlas`.
//! * `serve_bench --atlas store.bnfatlas [--clients C] [--requests R]
//!   [--seed S] [--report-json out.json]` — in-process load harness;
//!   reports p50/p99 latency and throughput as gateable manifest
//!   metrics.
//!
//! # In-process use
//!
//! ```no_run
//! use std::sync::Arc;
//! use bnf_atlas::MappedAtlas;
//! use bnf_serve::{AppState, MiniClient, Server, DEFAULT_LIVE_ORDER_CAP};
//!
//! let atlas = MappedAtlas::open("runs/atlas-n9.bnfatlas")?;
//! let state = Arc::new(AppState::new(atlas, DEFAULT_LIVE_ORDER_CAP));
//! state.warm_paper_grid().expect("store has declared coverage");
//! let server = Server::start(state, "127.0.0.1:0", 4)?;
//! let mut client = MiniClient::connect(server.addr())?;
//! let (status, body) = client.get("/classify/D%3F%7B")?; // "D?{", percent-coded
//! assert_eq!(status, 200);
//! println!("{body}");
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod http;
pub mod render;
pub mod server;

pub use http::{
    percent_decode, percent_encode, MiniClient, ParseError, Request, MAX_REQUEST_BYTES,
};
pub use server::{AppState, Response, Server, DEFAULT_LIVE_ORDER_CAP};
