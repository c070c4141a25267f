//! The serve load harness: start the server in-process, hammer it from
//! N keep-alive clients with a seeded query mix, and report latency
//! quantiles plus throughput as gateable manifest metrics.
//!
//! Usage: `serve_bench --atlas store.bnfatlas [--clients C] [--requests R]
//! [--threads N] [--seed S] [--report-json report.json]`
//!
//! The mix per request (seeded xorshift, deterministic for a given
//! `--seed` and client count): 80% `/classify` hits on keys sampled
//! from the index, 10% `/record`, 5% `/grid?spec=paper` (cached after
//! the first), 3% `/classify` of a tiny out-of-store graph (the live
//! path), 2% `/healthz`. Clients run on the `bnf-engine` executor;
//! p50/p99 are exact order statistics over the merged per-request
//! nanosecond samples, not histogram estimates.
//!
//! Manifest metrics (gate with `bench_gate` against
//! `MANIFEST_BASELINE.json`): `manifest/serve_classify_p99_ns/{n}`,
//! `manifest/serve_ns_per_query/{n}`, `manifest/serve_qps/{n}`.

use std::process::ExitCode;
use std::sync::Arc;

use bnf_atlas::MappedAtlas;
use bnf_engine::parallel_map;
use bnf_obs::cli::Flags;
use bnf_serve::{percent_encode, AppState, MiniClient, Server, DEFAULT_LIVE_ORDER_CAP};

const USAGE: &str = "serve_bench --atlas store.bnfatlas [--clients C] [--requests R] \
     [--threads N] [--seed S] [--report-json report.json]";

/// How many stored keys the hit mix samples from.
const KEY_SAMPLE: u64 = 1024;

/// xorshift64*: tiny, seedable, good enough to spread a query mix.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// One measured request: mix bucket tag plus latency in nanoseconds.
struct Sample {
    kind: u8,
    ns: u64,
}

const KIND_CLASSIFY_HIT: u8 = 0;
const KIND_RECORD: u8 = 1;
const KIND_GRID: u8 = 2;
const KIND_CLASSIFY_LIVE: u8 = 3;
const KIND_HEALTHZ: u8 = 4;

fn quantile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn main() -> ExitCode {
    let known = [
        "--atlas",
        "--clients",
        "--requests",
        "--threads",
        "--seed",
        "--report-json",
    ];
    let (flags, _) = Flags::parse(&known, &[], false, USAGE);
    match run(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One load run. Every flag is read and checked before the store is
/// opened, so a usage error (exit 2) never starts the server.
fn run(flags: &Flags) -> Result<(), String> {
    let store = flags.require("--atlas");
    let clients: usize = flags.number("--clients", 4);
    let requests: usize = flags.number("--requests", 2000);
    for (name, value) in [("--clients", clients), ("--requests", requests)] {
        if value == 0 {
            flags.fail(&format!("{name} must be at least 1"));
        }
    }
    let threads: usize = flags.number("--threads", bnf_engine::default_threads());
    let seed: u64 = flags.number("--seed", 1);
    let report_json = flags.get("--report-json");

    bnf_obs::Recorder::global().take();
    let atlas = MappedAtlas::open(store).map_err(|e| format!("cannot open {store}: {e}"))?;
    if atlas.is_empty() {
        return Err(format!("{store} has no records to query"));
    }
    // Sample the hit keys up front (percent-coded once, ready to splice
    // into request paths).
    let mut rng = seed | 1;
    let mut hit_paths = Vec::with_capacity(KEY_SAMPLE.min(atlas.len()) as usize);
    for _ in 0..KEY_SAMPLE.min(atlas.len()) {
        let i = xorshift(&mut rng) % atlas.len();
        let key = atlas.key_at(i).map_err(|e| e.to_string())?;
        hit_paths.push(format!("/classify/{}", percent_encode(&key)));
    }
    let state = Arc::new(AppState::new(atlas, DEFAULT_LIVE_ORDER_CAP));
    state.warm_paper_grid()?;
    let order = state
        .default_order()
        .ok_or("the index has no engine-order table; declare coverage and rebuild")?;
    let record_count = state_record_count(&state, order);
    let server = Server::start(Arc::clone(&state), "127.0.0.1:0", threads)
        .map_err(|e| format!("cannot start server: {e}"))?;
    let addr = server.addr();
    // A connected order-2 graph (K2): never in an order-n store, so it
    // exercises the live-classification path on every draw.
    let live_path = format!("/classify/{}", percent_encode("A_"));

    let client_ids: Vec<u64> = (0..clients as u64).collect();
    let started = std::time::Instant::now();
    let per_client: Vec<Result<Vec<Sample>, String>> = parallel_map(&client_ids, clients, |&id| {
        let mut client = MiniClient::connect(addr).map_err(|e| e.to_string())?;
        let mut rng = seed.wrapping_add(id.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
        let mut samples = Vec::with_capacity(requests);
        for _ in 0..requests {
            let roll = xorshift(&mut rng) % 100;
            let (kind, path, want): (u8, &str, u16) = if roll < 80 {
                let i = (xorshift(&mut rng) % hit_paths.len() as u64) as usize;
                (KIND_CLASSIFY_HIT, hit_paths[i].as_str(), 200)
            } else if roll < 90 {
                let i = xorshift(&mut rng) % record_count;
                samples.push(get_timed(
                    &mut client,
                    KIND_RECORD,
                    &format!("/record/{i}"),
                    200,
                )?);
                continue;
            } else if roll < 95 {
                (KIND_GRID, "/grid?spec=paper", 200)
            } else if roll < 98 {
                (KIND_CLASSIFY_LIVE, live_path.as_str(), 200)
            } else {
                (KIND_HEALTHZ, "/healthz", 200)
            };
            samples.push(get_timed(&mut client, kind, path, want)?);
        }
        Ok(samples)
    });
    let elapsed = started.elapsed();
    server.shutdown();

    let mut samples = Vec::with_capacity(clients * requests);
    for result in per_client {
        samples.extend(result?);
    }
    let total = samples.len() as u64;
    let total_ns: u64 = samples.iter().map(|s| s.ns).sum();
    let ns_per_query = total_ns as f64 / total as f64;
    let qps = total as f64 / elapsed.as_secs_f64();
    let mut hit_ns: Vec<u64> = samples
        .iter()
        .filter(|s| s.kind == KIND_CLASSIFY_HIT)
        .map(|s| s.ns)
        .collect();
    hit_ns.sort_unstable();
    let p50 = quantile_ns(&hit_ns, 0.50);
    let p99 = quantile_ns(&hit_ns, 0.99);

    println!(
        "serve_bench: {total} requests from {clients} clients in {:.2}s against order-{order} \
         index ({} classify hits)",
        elapsed.as_secs_f64(),
        hit_ns.len()
    );
    println!("  classify p50 {p50} ns, p99 {p99} ns");
    println!("  overall {ns_per_query:.0} ns/query, {qps:.0} queries/s");
    for (kind, label) in [
        (KIND_CLASSIFY_HIT, "classify/hit"),
        (KIND_RECORD, "record"),
        (KIND_GRID, "grid"),
        (KIND_CLASSIFY_LIVE, "classify/live"),
        (KIND_HEALTHZ, "healthz"),
    ] {
        let n = samples.iter().filter(|s| s.kind == kind).count();
        println!("  mix {label}: {n}");
    }

    if let Some(path) = report_json {
        let mut manifest = bnf_obs::RunManifest::new("serve_bench", u32::from(order), store);
        manifest.emitted = total;
        manifest.elapsed_ms = elapsed.as_millis() as u64;
        manifest.peak_rss_kb = bnf_obs::peak_rss_kb();
        manifest.set_counter("bench_clients", clients as u64);
        manifest.set_counter("bench_requests_per_client", requests as u64);
        manifest.set_counter("bench_seed", seed);
        manifest.push_metric(
            &format!("manifest/serve_classify_p99_ns/{order}"),
            p99 as f64,
        );
        manifest.push_metric(
            &format!("manifest/serve_ns_per_query/{order}"),
            ns_per_query,
        );
        manifest.push_metric(&format!("manifest/serve_qps/{order}"), qps);
        manifest
            .write(path)
            .map_err(|e| format!("cannot write run manifest to {path}: {e}"))?;
    }
    Ok(())
}

fn get_timed(client: &mut MiniClient, kind: u8, path: &str, want: u16) -> Result<Sample, String> {
    let t0 = std::time::Instant::now();
    let (status, body) = client.get(path).map_err(|e| format!("GET {path}: {e}"))?;
    let ns = t0.elapsed().as_nanos() as u64;
    if status != want {
        return Err(format!("GET {path}: expected {want}, got {status}: {body}"));
    }
    Ok(Sample { kind, ns })
}

fn state_record_count(state: &AppState, order: u16) -> u64 {
    // The /record mix draws uniformly over the engine-order table.
    state
        .orders_snapshot()
        .into_iter()
        .find(|&(o, _)| o == order)
        .map_or(1, |(_, count)| count.max(1))
}
