//! The serving daemon: open an indexed atlas, warm the paper grid, and
//! answer queries until killed.
//!
//! Usage: `bnf_serve --atlas store.bnfatlas [--addr 127.0.0.1:7878]
//! [--threads N] [--live-cap K]`
//!
//! Build the sidecar first (`atlas_index --atlas store.bnfatlas`);
//! `MappedAtlas::open` refuses to start on a missing or stale index
//! rather than serving wrong offsets.

use std::process::ExitCode;
use std::sync::Arc;

use bnf_atlas::MappedAtlas;
use bnf_obs::cli::Flags;
use bnf_serve::{AppState, Server, DEFAULT_LIVE_ORDER_CAP};

const USAGE: &str =
    "bnf_serve --atlas store.bnfatlas [--addr 127.0.0.1:7878] [--threads N] [--live-cap K]";

fn main() -> ExitCode {
    let known = ["--atlas", "--addr", "--threads", "--live-cap"];
    let (flags, _) = Flags::parse(&known, &[], false, USAGE);
    let store = flags.require("--atlas");
    let addr = flags.get("--addr").unwrap_or("127.0.0.1:7878");
    let threads: usize = flags.number("--threads", bnf_engine::default_threads());
    if threads == 0 {
        flags.fail("--threads must be a positive integer, got 0");
    }
    let live_cap = flags.number("--live-cap", DEFAULT_LIVE_ORDER_CAP);
    let atlas = match MappedAtlas::open(store) {
        Ok(atlas) => atlas,
        Err(e) => {
            eprintln!(
                "error: cannot open indexed atlas {store}: {e} \
                 (build or refresh the sidecar with: atlas_index --atlas {store})"
            );
            return ExitCode::FAILURE;
        }
    };
    let records = atlas.len();
    let state = Arc::new(AppState::new(atlas, live_cap));
    match state.warm_paper_grid() {
        Ok(()) => eprintln!("paper grid warmed for order {:?}", state.default_order()),
        // A store without declared coverage still serves point lookups.
        Err(e) => eprintln!("paper grid unavailable: {e}"),
    }
    let server = match Server::start(state, addr, threads) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "bnf-serve listening on http://{} ({records} records, {threads} workers, peak rss {} kB)",
        server.addr(),
        bnf_obs::peak_rss_kb().unwrap_or(0)
    );
    // Serve until the process is killed; workers never return.
    loop {
        std::thread::park();
    }
}
