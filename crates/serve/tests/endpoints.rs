//! End-to-end tests over a real socket: build a tiny indexed atlas,
//! start the server, and drive every endpoint through `MiniClient`.
//!
//! The load-bearing assertion is byte equivalence: the `/classify`
//! body must equal the locally computed `WindowRecord` rendered
//! through the same serializer, so the served answer can never drift
//! from `classify_with_key`.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use bnf_atlas::{build_index, ClassificationAtlas, MappedAtlas};
use bnf_core::WindowRecord;
use bnf_empirics::grid::{self, GridSpec, MAX_GRID_POINTS};
use bnf_empirics::sweep::WindowSweep;
use bnf_games::GameKind;
use bnf_graph::{BfsScratch, Graph};
use bnf_obs::json::Json;
use bnf_serve::{
    percent_encode, AppState, MiniClient, Server, DEFAULT_LIVE_ORDER_CAP, MAX_REQUEST_BYTES,
};

fn scratch_path(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "bnf-serve-{tag}-{}-{id}.bnfatlas",
        std::process::id()
    ))
}

/// Every connected topology on 4 vertices, as explicit edge lists.
fn n4_catalogue() -> Vec<Graph> {
    let lists: [&[(usize, usize)]; 6] = [
        &[(0, 1), (1, 2), (2, 3)],                         // path
        &[(0, 1), (0, 2), (0, 3)],                         // star
        &[(0, 1), (1, 2), (2, 3), (3, 0)],                 // cycle
        &[(0, 1), (1, 2), (2, 0), (2, 3)],                 // paw
        &[(0, 1), (1, 2), (2, 0), (1, 3), (2, 3)],         // diamond
        &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], // K4
    ];
    lists
        .iter()
        .map(|edges| Graph::from_edges(4, edges.iter().copied()).unwrap())
        .collect()
}

struct Fixture {
    server: Server,
    client: MiniClient,
    records: Vec<WindowRecord>,
    store: std::path::PathBuf,
}

impl Fixture {
    fn start(tag: &str) -> Fixture {
        // Generous timeout: endpoint tests exercise routing, not stalls.
        Fixture::start_with_timeout(tag, std::time::Duration::from_secs(5))
    }

    fn start_with_timeout(tag: &str, read_timeout: std::time::Duration) -> Fixture {
        Fixture::start_with(tag, read_timeout, 2)
    }

    fn start_with(tag: &str, read_timeout: std::time::Duration, workers: usize) -> Fixture {
        let store = scratch_path(tag);
        let mut scratch = BfsScratch::new();
        let records: Vec<WindowRecord> = n4_catalogue()
            .iter()
            .map(|g| WindowRecord::classify(g, &mut scratch))
            .collect();
        {
            let mut atlas = ClassificationAtlas::open(&store).expect("create store");
            atlas.append_records(records.iter()).expect("append");
            atlas.mark_complete(4, records.len()).expect("coverage");
        }
        build_index(&store).expect("index");
        let mapped = MappedAtlas::open(&store).expect("open indexed");
        let state = Arc::new(AppState::new(mapped, DEFAULT_LIVE_ORDER_CAP));
        state.warm_paper_grid().expect("paper grid");
        let server =
            Server::start_with_timeout(state, "127.0.0.1:0", workers, read_timeout).expect("start");
        let client = MiniClient::connect(server.addr()).expect("connect");
        Fixture {
            server,
            client,
            records,
            store,
        }
    }

    fn get(&mut self, path: &str) -> (u16, String) {
        self.client.get(path).expect("request")
    }

    fn finish(self) {
        let Fixture {
            server,
            client,
            store,
            ..
        } = self;
        // Close the keep-alive connection first so no worker sits out
        // its idle timeout before shutdown can join it.
        drop(client);
        server.shutdown();
        let _ = std::fs::remove_file(&store);
        let _ = std::fs::remove_file(bnf_atlas::index_path(&store));
    }
}

#[test]
fn classify_hits_are_byte_equivalent_to_local_classification() {
    let mut fx = Fixture::start("classify");
    for rec in fx.records.clone() {
        let (status, body) = fx.get(&format!("/classify/{}", percent_encode(&rec.key)));
        assert_eq!(status, 200, "{body}");
        let expected = format!(
            "{{\"source\":\"atlas\",\"record\":{}}}",
            bnf_serve::render::record_json(&rec)
        );
        assert_eq!(body, expected, "served body drifted from the local record");
    }
    fx.finish();
}

#[test]
fn classify_canonicalizes_noncanonical_keys() {
    let mut fx = Fixture::start("canon");
    // A relabeling of the 4-path whose raw graph6 bytes differ from
    // the canonical key (searched, since some relabelings canonicalize
    // to themselves).
    let relabelings: [[(usize, usize); 3]; 3] = [
        [(0, 2), (2, 1), (1, 3)],
        [(1, 0), (0, 3), (3, 2)],
        [(2, 0), (0, 1), (1, 3)],
    ];
    let (raw, canonical) = relabelings
        .iter()
        .find_map(|edges| {
            let g = Graph::from_edges(4, edges.iter().copied()).unwrap();
            let raw = g.to_graph6();
            let canonical = g.canonical_form().to_graph6();
            (raw != canonical).then_some((raw, canonical))
        })
        .expect("some path relabeling is non-canonical");
    let (status, body) = fx.get(&format!("/classify/{}", percent_encode(&raw)));
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("source").unwrap().as_str(), Some("atlas"));
    assert_eq!(
        doc.get("record").unwrap().get("key").unwrap().as_str(),
        Some(canonical.as_str())
    );
    fx.finish();
}

#[test]
fn classify_falls_back_to_live_classification() {
    let mut fx = Fixture::start("live");
    // K2 is connected, order 2, and absent from the order-4 store.
    let k2 = Graph::from_edges(2, [(0, 1)]).unwrap();
    let expected = WindowRecord::classify(&k2, &mut BfsScratch::new());
    let (status, body) = fx.get(&format!("/classify/{}", percent_encode(&k2.to_graph6())));
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        body,
        format!(
            "{{\"source\":\"live\",\"record\":{}}}",
            bnf_serve::render::record_json(&expected)
        )
    );
    fx.finish();
}

#[test]
fn classify_rejects_bad_disconnected_and_oversized_graphs() {
    let mut fx = Fixture::start("reject");
    let (status, body) = fx.get("/classify/%21%21");
    assert_eq!(status, 400, "invalid graph6 bytes: {body}");
    let two_k2 = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
    let (status, body) = fx.get(&format!(
        "/classify/{}",
        percent_encode(&two_k2.to_graph6())
    ));
    assert_eq!(status, 422, "disconnected: {body}");
    assert!(body.contains("disconnected"), "{body}");
    let order = DEFAULT_LIVE_ORDER_CAP + 2;
    let big_path = Graph::from_edges(order, (0..order - 1).map(|i| (i, i + 1))).unwrap();
    let (status, body) = fx.get(&format!(
        "/classify/{}",
        percent_encode(&big_path.to_graph6())
    ));
    assert_eq!(status, 422, "beyond the live cap: {body}");
    fx.finish();
}

#[test]
fn a_graph6_header_claiming_a_huge_order_gets_400_and_the_server_keeps_serving() {
    // `~}~~` declares order 258 047 and carries no payload; decoding it
    // once allocated the 8 GB adjacency matrix and aborted the process.
    let mut fx = Fixture::start_with("huge-header", std::time::Duration::from_secs(5), 1);
    let (status, body) = fx.get(&format!("/classify/{}", percent_encode("~}~~")));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("bad graph6 key"), "{body}");
    let (status, _) = fx.get("/healthz");
    assert_eq!(status, 200);
    fx.finish();
}

#[test]
fn keys_above_the_largest_classifiable_order_get_422_without_a_canonical_search() {
    let mut fx = Fixture::start("huge-order");
    let path17 = Graph::from_edges(17, (0..16).map(|i| (i, i + 1))).unwrap();
    // The complement of C300: a dense 7.5 KB key whose canonical search
    // used to pin a worker for most of a minute before this same answer.
    let mut anticycle = Graph::complete(300);
    for i in 0..300 {
        anticycle.remove_edge(i, (i + 1) % 300);
    }
    for g in [path17, anticycle] {
        let (status, body) = fx.get(&format!("/classify/{}", percent_encode(&g.to_graph6())));
        assert_eq!(status, 422, "{body}");
        let expected = bnf_serve::render::error_json(&format!(
            "graph not in the atlas and order {} is outside the live classification range 2..={}",
            g.order(),
            DEFAULT_LIVE_ORDER_CAP
        ));
        assert_eq!(body, expected);
    }
    fx.finish();
}

#[test]
fn record_endpoint_walks_engine_order() {
    let mut fx = Fixture::start("record");
    let count = fx.records.len() as u64;
    let mut keys = Vec::new();
    for i in 0..count {
        let (status, body) = fx.get(&format!("/record/{i}"));
        assert_eq!(status, 200, "{body}");
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("order").unwrap().as_u64(), Some(4));
        assert_eq!(doc.get("index").unwrap().as_u64(), Some(i));
        keys.push(
            doc.get("record")
                .unwrap()
                .get("key")
                .unwrap()
                .as_str()
                .unwrap()
                .to_owned(),
        );
    }
    // Engine order is sorted by edge count first; all six keys distinct.
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), count as usize);
    let (status, _) = fx.get(&format!("/record/{count}"));
    assert_eq!(status, 404);
    let (status, _) = fx.get("/record/not-a-number");
    assert_eq!(status, 400);
    let (status, _) = fx.get("/record/0?order=9");
    assert_eq!(status, 404, "no order-9 table in an n=4 store");
    fx.finish();
}

#[test]
fn grid_endpoint_matches_the_offline_post_pass() {
    let mut fx = Fixture::start("grid");
    let (status, body) = fx.get("/grid?spec=paper");
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("n").unwrap().as_u64(), Some(4));

    // Recompute offline through the exact same fold.
    let sweep = WindowSweep {
        n: 4,
        records: fx.records.clone(),
    };
    let alphas = GridSpec::parse("paper").unwrap().alphas();
    let result = grid::evaluate(&sweep, &alphas);
    let bcg = result.stats(GameKind::Bilateral);
    let served = doc.get("bilateral").unwrap().as_arr().unwrap();
    assert_eq!(served.len(), bcg.len());
    for (row, local) in served.iter().zip(&bcg) {
        assert_eq!(
            row.get("alpha").unwrap().as_str(),
            Some(local.alpha.to_string().as_str())
        );
        assert_eq!(row.get("count").unwrap().as_u64(), Some(local.count as u64));
        if local.mean_poa.is_nan() {
            assert!(row.get("mean_poa").unwrap().is_null());
        } else {
            assert_eq!(row.get("mean_poa").unwrap().as_f64(), Some(local.mean_poa));
        }
    }
    assert_eq!(
        doc.get("transfer").unwrap().as_arr().unwrap().len(),
        alphas.len()
    );

    // The second request must come from the cache — identical bytes.
    let (_, body2) = fx.get("/grid?spec=paper");
    assert_eq!(body, body2);
    let (status, body) = fx.get("/grid?spec=linear:1:2:3");
    assert_eq!(status, 200, "{body}");
    let (status, _) = fx.get("/grid?spec=bogus");
    assert_eq!(status, 400);
    fx.finish();
}

#[test]
fn oversized_grids_get_400_and_the_server_keeps_serving() {
    let mut fx = Fixture::start("grid-cap");
    // A billion points: rejected at parse time, before any allocation.
    for spec in [
        "linear:1:2:1000000000".to_owned(),
        format!("linear:1:2:{}", MAX_GRID_POINTS + 1),
        "log2:1/4:64:1000000".to_owned(),
    ] {
        let (status, body) = fx.get(&format!("/grid?spec={spec}"));
        assert_eq!(status, 400, "{spec}: {body}");
        let doc = Json::parse(&body).unwrap();
        let error = doc.get("error").unwrap().as_str().unwrap();
        assert!(error.contains("more than the limit"), "{spec}: {error}");
    }
    let (status, body) = fx.get("/grid?spec=linear:1:2:5");
    assert_eq!(status, 200, "{body}");
    let (status, _) = fx.get("/healthz");
    assert_eq!(status, 200);
    fx.finish();
}

#[test]
fn overflowing_grid_points_get_400_and_the_single_worker_survives() {
    // This spec used to parse, then panic the worker folding it with a
    // rational overflow; with one worker the server would go silent.
    let mut fx = Fixture::start_with("grid-overflow", std::time::Duration::from_secs(5), 1);
    let (status, body) = fx.get("/grid?spec=linear:1/3037000493:3037000499/2:3");
    assert_eq!(status, 400, "{body}");
    let doc = Json::parse(&body).unwrap();
    let error = doc.get("error").unwrap().as_str().unwrap();
    assert!(error.contains("exceeds the limit"), "{error}");
    let (status, _) = fx.get("/healthz");
    assert_eq!(status, 200);
    fx.finish();
}

#[test]
fn the_old_crash_request_twice_leaves_a_one_worker_daemon_healthy() {
    // The real daemon with a single worker: before grid points were
    // bounds-checked this request panicked the worker, and two of them
    // left the process alive but silent. Each reply must now arrive,
    // and the lone worker must still answer /healthz afterwards.
    let store = scratch_path("daemon");
    let mut scratch = BfsScratch::new();
    let records: Vec<WindowRecord> = n4_catalogue()
        .iter()
        .map(|g| WindowRecord::classify(g, &mut scratch))
        .collect();
    {
        let mut atlas = ClassificationAtlas::open(&store).expect("create store");
        atlas.append_records(records.iter()).expect("append");
        atlas.mark_complete(4, records.len()).expect("coverage");
    }
    build_index(&store).expect("index");
    let mut daemon = std::process::Command::new(env!("CARGO_BIN_EXE_bnf_serve"))
        .args(["--atlas", store.to_str().unwrap()])
        .args(["--addr", "127.0.0.1:0", "--threads", "1"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn bnf_serve");
    let mut banner = String::new();
    std::io::BufRead::read_line(
        &mut std::io::BufReader::new(daemon.stdout.take().unwrap()),
        &mut banner,
    )
    .expect("banner");
    let addr = banner
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in {banner:?}"))
        .to_owned();
    let outcome = std::panic::catch_unwind(|| {
        let mut client = MiniClient::connect(&addr).expect("connect");
        for _ in 0..2 {
            let (status, body) = client
                .get("/grid?spec=linear:1/3037000493:3037000499/2:3")
                .expect("the worker answers");
            assert_eq!(status, 400, "{body}");
        }
        let (status, body) = client.get("/healthz").expect("healthz");
        assert_eq!(status, 200, "{body}");
    });
    let _ = daemon.kill();
    let _ = daemon.wait();
    let _ = std::fs::remove_file(&store);
    let _ = std::fs::remove_file(bnf_atlas::index_path(&store));
    if let Err(panic) = outcome {
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn stalled_heads_get_408_oversized_heads_get_431_idle_closes_silently() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    // A short read timeout so the slowloris cases resolve in
    // milliseconds instead of the production default.
    let mut fx = Fixture::start_with_timeout("harden", std::time::Duration::from_millis(150));

    // A stalled writer — bytes of a request line arrived, then nothing —
    // is answered with 408 and dropped.
    let mut stalled = TcpStream::connect(fx.server.addr()).expect("connect");
    stalled.write_all(b"GET /healthz HT").expect("partial head");
    let mut response = String::new();
    stalled.read_to_string(&mut response).expect("read 408");
    assert!(
        response.starts_with("HTTP/1.1 408 "),
        "stalled head: {response:?}"
    );
    assert!(response.contains("Connection: close"), "{response:?}");
    assert!(response.contains("timed out"), "{response:?}");

    // An idle connection that never sends a byte is the normal end of a
    // keep-alive conversation: closed without any response on the wire.
    let mut idle = TcpStream::connect(fx.server.addr()).expect("connect");
    let mut leaked = Vec::new();
    idle.read_to_end(&mut leaked).expect("read idle close");
    assert!(
        leaked.is_empty(),
        "idle drop must not write a response: {leaked:?}"
    );

    // A head past MAX_REQUEST_BYTES is refused with 431 even though it
    // keeps arriving well within the timeout.
    let mut oversized = TcpStream::connect(fx.server.addr()).expect("connect");
    oversized
        .write_all(b"GET /healthz HTTP/1.1\r\n")
        .expect("request line");
    let spam = format!("X-Spam: {}\r\n", "a".repeat(2 * MAX_REQUEST_BYTES as usize));
    oversized
        .write_all(spam.as_bytes())
        .expect("oversized header");
    let mut response = String::new();
    oversized.read_to_string(&mut response).expect("read 431");
    assert!(
        response.starts_with("HTTP/1.1 431 "),
        "oversized head: {response:?}"
    );
    assert!(response.contains("too large"), "{response:?}");

    // The abuse above never poisoned the pool: a well-behaved request
    // on a fresh connection still gets served.
    let mut ok = MiniClient::connect(fx.server.addr()).expect("connect");
    let (status, body) = ok.get("/healthz").expect("healthy request");
    assert_eq!(status, 200, "{body}");
    drop(ok);
    // Replace the fixture's (long-idle, likely reaped) connection so
    // finish() can drop it without surprises.
    fx.client = MiniClient::connect(fx.server.addr()).expect("reconnect");
    fx.finish();
}

#[test]
fn health_metrics_index_and_unknown_routes() {
    let mut fx = Fixture::start("meta");
    let (status, body) = fx.get("/healthz");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(doc.get("records").unwrap().as_u64(), Some(6));
    assert_eq!(doc.get("default_order").unwrap().as_u64(), Some(4));

    let (status, body) = fx.get("/");
    assert_eq!(status, 200);
    assert!(body.contains("/classify/{graph6}"), "{body}");

    let (status, body) = fx.get("/metrics");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).unwrap();
    let counters = doc.get("counters").unwrap();
    assert!(counters.get("serve_requests").unwrap().as_u64().unwrap() >= 2);

    let (status, _) = fx.get("/definitely/not/here");
    assert_eq!(status, 404);
    fx.finish();
}
