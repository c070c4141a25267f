//! `serve_mix`: serve the indexed n = 9 store with `bnf-serve` and
//! drive it with two keep-alive clients in a closed loop (each waits
//! for its reply before sending the next request) over the seeded mix
//! of `mix.rs`, then ask for distinct uncached `/grid` specs one after
//! another.
//!
//! `wall_s` is `serve_start_s` (`MappedAtlas::open` + `AppState::new` +
//! `warm_paper_grid` + listener start, median of fifteen starts);
//! `ops_per_s` is the median, over the closed loop's whole seconds, of
//! the requests completed in that second.
//! The traced run serves the same mix through the benchmark's own
//! accept loop, which times `AppState::handle` per request.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bnf_atlas::{ClassificationAtlas, MappedAtlas};
use bnf_core::WindowRecord;
use bnf_empirics::grid;
use bnf_empirics::sweep::WindowSweep;
use bnf_graph::{BfsScratch, Graph};
use bnf_serve::http::{read_request, write_response};
use bnf_serve::{percent_encode, AppState, MiniClient, Server, DEFAULT_LIVE_ORDER_CAP};

use crate::fixture::{self, Dirs, SETUP_REPS};
use crate::ledger::Ledger;
use crate::mix::{self, Op, LIVE_ORDER, ROUTES};
use crate::util::{median, nearest_rank, reset_hwm, tail, vm_hwm_kib};
use crate::{figures, layout, Args, Outcome, N, THREADS};

/// Requests drawn per client; a client cycles through its list.
const OPS_PER_CLIENT: usize = 16_384;
/// Distinct uncached `/grid` specs of the closing phase.
const GRID_MISSES: usize = 12;
/// Every this-many-th request of a client has its body byte-compared.
const BODY_SAMPLE: usize = 8;
/// Server starts per run; `serve_start_s` is their median.
const START_REPS: usize = 15;
/// Route index of the closing phase's uncached grids in client logs.
const GRID_MISS: usize = ROUTES.len();

/// One drawn request with its path.
#[derive(Debug)]
struct Request {
    op: Op,
    path: String,
    /// The stored key a `/classify` answer must carry.
    key: Option<String>,
    /// The graph of a relabelled or live request.
    graph: Option<Graph>,
}

fn route_index(op: &Op) -> usize {
    ROUTES
        .iter()
        .position(|r| *r == op.route())
        .expect("every op has a route")
}

fn classify_path(g: &Graph) -> String {
    format!("/classify/{}", percent_encode(&g.to_graph6()))
}

/// Turns drawn ops into request paths over the served catalogue.
fn materialize(ops: Vec<Op>, keys: &MappedAtlas) -> Result<Vec<Request>, String> {
    let pairs = mix::live_pairs();
    ops.into_iter()
        .map(|op| {
            let key_at = |i: u64| keys.key_at(i).map_err(|e| e.to_string());
            let (path, key, graph) = match &op {
                Op::Classify { index } => {
                    let key = key_at(*index)?;
                    (
                        format!("/classify/{}", percent_encode(&key)),
                        Some(key),
                        None,
                    )
                }
                Op::Relabel { index, perm } => {
                    let key = key_at(*index)?;
                    let perm: Vec<usize> = perm.iter().map(|&p| usize::from(p)).collect();
                    let g = Graph::from_graph6(&key)
                        .map_err(|e| e.to_string())?
                        .relabel(&perm);
                    (classify_path(&g), Some(key), Some(g))
                }
                Op::Record { index } => (format!("/record/{index}"), None, None),
                Op::Live { mask } => {
                    let edges = pairs
                        .iter()
                        .enumerate()
                        .filter(|(bit, _)| mask & (1 << bit) != 0)
                        .map(|(_, &e)| e);
                    let g = Graph::from_edges(LIVE_ORDER, edges).map_err(|e| e.to_string())?;
                    (classify_path(&g), None, Some(g))
                }
                Op::GridPaper => ("/grid?spec=paper".to_owned(), None, None),
                Op::Healthz => ("/healthz".to_owned(), None, None),
            };
            Ok(Request {
                op,
                path,
                key,
                graph,
            })
        })
        .collect()
}

/// What one client saw.
#[derive(Debug, Default)]
struct ClientLog {
    /// `(route index, latency ns)` of every completed request, in order.
    latencies: Vec<(usize, u64)>,
    /// `(request index, body)` of the sampled responses.
    bodies: Vec<(usize, String)>,
    /// `(spec, latency ns, body)` of the closing phase.
    grids: Vec<(String, u64, String)>,
    /// Closed-loop replies completed in each second since the loop
    /// started.
    per_second: Vec<u64>,
    attempted: u64,
    failures: Vec<String>,
}

impl ClientLog {
    fn fail(&mut self, why: String) {
        self.failures.push(why);
    }
}

/// One client: tag the connection, run the closed loop until
/// `deadline`, then (client 0 only) the uncached grid phase.
fn client(
    addr: SocketAddr,
    index: usize,
    requests: &[Request],
    (start, deadline): (Instant, Instant),
    grid_specs: &[String],
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = match MiniClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.attempted += 1;
            log.fail(format!("client {index}: connect: {e}"));
            return log;
        }
    };
    if let Err(e) = conn.get(&format!("/healthz?client={index}")) {
        log.attempted += 1;
        log.fail(format!("client {index}: first request: {e}"));
        return log;
    }
    let mut i = 0usize;
    while Instant::now() < deadline {
        let at = i % requests.len();
        let req = &requests[at];
        let t = Instant::now();
        log.attempted += 1;
        match conn.get(&req.path) {
            Ok((status, body)) => {
                let done = Instant::now();
                log.latencies
                    .push((route_index(&req.op), (done - t).as_nanos() as u64));
                let second = (done - start).as_secs() as usize;
                if log.per_second.len() <= second {
                    log.per_second.resize(second + 1, 0);
                }
                log.per_second[second] += 1;
                if status != 200 {
                    log.fail(format!("{} answered {status}: {body}", req.path));
                } else if i.is_multiple_of(BODY_SAMPLE) {
                    log.bodies.push((at, body));
                }
            }
            Err(e) => {
                log.fail(format!("{}: {e}", req.path));
                return log;
            }
        }
        i += 1;
    }
    for spec in grid_specs {
        let t = Instant::now();
        log.attempted += 1;
        match conn.get(&format!("/grid?spec={}", percent_encode(spec))) {
            Ok((200, body)) => {
                let ns = t.elapsed().as_nanos() as u64;
                log.latencies.push((GRID_MISS, ns));
                log.grids.push((spec.clone(), ns, body));
            }
            Ok((status, body)) => log.fail(format!("grid {spec} answered {status}: {body}")),
            Err(e) => {
                log.fail(format!("grid {spec}: {e}"));
                return log;
            }
        }
    }
    log
}

/// Runs both clients against `addr` for `seconds`; client 0 then runs
/// the grid phase.
fn drive(
    addr: SocketAddr,
    requests: &[Vec<Request>],
    seconds: f64,
    grid_specs: &[String],
) -> Vec<ClientLog> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .enumerate()
            .map(|(i, reqs)| {
                let specs: &[String] = if i == 0 { grid_specs } else { &[] };
                scope.spawn(move || client(addr, i, reqs, (start, deadline), specs))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// `MappedAtlas::open`, `AppState::new` and `warm_paper_grid`, with
/// the seconds each took.
fn start_state(store: &Path) -> Result<(AppState, f64, f64, f64), String> {
    let t0 = Instant::now();
    let mapped = MappedAtlas::open(store).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let state = AppState::new(mapped, DEFAULT_LIVE_ORDER_CAP);
    let t2 = Instant::now();
    state.warm_paper_grid()?;
    Ok((
        state,
        (t1 - t0).as_secs_f64(),
        (t2 - t1).as_secs_f64(),
        t2.elapsed().as_secs_f64(),
    ))
}

/// The workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let dirs = Dirs::new()?;
    fixture::ensure_catalogue(&dirs)?;
    let store = dirs.file("served.bnfatlas");
    let mut out = Outcome::default();
    for _ in 0..SETUP_REPS {
        out.setup_s.push(fixture::build_store(&dirs, &store)?);
    }
    reset_hwm();

    let mut server = None;
    for _ in 0..START_REPS {
        if let Some(s) = server.take() {
            Server::shutdown(s);
        }
        let (state, open_s, state_s, warm_s) = start_state(&store)?;
        let t = Instant::now();
        let s = Server::start(Arc::new(state), "127.0.0.1:0", THREADS)
            .map_err(|e| format!("cannot start the server: {e}"))?;
        out.wall_s
            .push(open_s + state_s + warm_s + t.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one start");

    // The mix, drawn and turned into paths before the clock starts.
    let keys = MappedAtlas::open(&store).map_err(|e| e.to_string())?;
    let table = keys.len();
    let requests: Vec<Vec<Request>> = (0..THREADS as u64)
        .map(|c| materialize(mix::draw(args.seed, c, OPS_PER_CLIENT, table), &keys))
        .collect::<Result<_, _>>()?;
    let specs = mix::grid_specs(args.seed, GRID_MISSES);

    let driving = Instant::now();
    let logs = drive(server.addr(), &requests, args.seconds, &specs);
    let flow_s = out.wall_s.last().copied().unwrap_or(0.0) + driving.elapsed().as_secs_f64();
    out.peak_rss_mib = vm_hwm_kib().unwrap_or(0) as f64 / 1024.0;
    server.shutdown();

    // Throughput is the median over the loop's whole seconds, so a
    // burst of outside load skews one window, not the result.
    let completed = logs
        .iter()
        .map(|l| l.latencies.iter().filter(|(r, _)| *r != GRID_MISS).count())
        .sum::<usize>();
    let whole = (args.seconds as usize).max(1);
    let per_second: Vec<f64> = (0..whole)
        .map(|w| logs.iter().filter_map(|l| l.per_second.get(w)).sum::<u64>() as f64)
        .collect();
    out.ops_per_s = (median(&per_second), per_second.len());
    out.note("serve_start_s", median(&out.wall_s), "s", out.wall_s.len());
    out.note("serve_qps", out.ops_per_s.0, "1/s", completed);
    report_latencies(&mut out, &logs);

    let catalogue = reference_catalogue(&store)?;
    check(&mut out, &logs, &requests, &catalogue);
    if args.trace {
        let untraced = (flow_s, mean_latency_us(&logs));
        trace(
            &mut out,
            &store,
            &requests,
            &specs,
            args.seconds,
            &catalogue,
            untraced,
        )?;
    }
    Ok(out)
}

/// The per-route numbers: classify p50 and tail, the other
/// point paths' tails, and the median uncached grid.
fn report_latencies(out: &mut Outcome, logs: &[ClientLog]) {
    let samples = |route: usize| -> Vec<f64> {
        logs.iter()
            .flat_map(|l| &l.latencies)
            .filter(|(r, _)| *r == route)
            .map(|(_, ns)| *ns as f64 / 1e3)
            .collect()
    };
    for (route, name) in ROUTES.iter().enumerate().take(4) {
        let s = samples(route);
        if s.is_empty() {
            continue;
        }
        if route == 0 {
            let mut sorted = s.clone();
            sorted.sort_by(f64::total_cmp);
            let p50 = nearest_rank(&sorted, 50);
            out.note(&format!("{name}_p50_us"), p50.value, "us", s.len());
        }
        let t = tail(&s);
        out.note(&format!("{name}_p{}_us", t.p), t.value, "us", s.len());
    }
    let grids = samples(GRID_MISS);
    if !grids.is_empty() {
        out.note("grid_miss_s", median(&grids) / 1e6, "s", grids.len());
    }
}

/// The engine-order catalogue, read through the buffered store (a
/// different read path from the one being served).
fn reference_catalogue(store: &Path) -> Result<WindowSweep, String> {
    let atlas = ClassificationAtlas::open(store).map_err(|e| e.to_string())?;
    let records = atlas
        .complete_sweep(N)
        .ok_or("the served store has no complete sweep")?;
    Ok(WindowSweep { n: N, records })
}

fn wrap(source: &str, rec: &WindowRecord) -> String {
    format!(
        "{{\"source\":\"{source}\",\"record\":{}}}",
        bnf_serve::render::record_json(rec)
    )
}

/// The body a sampled request must have received.
fn expected(
    req: &Request,
    catalogue: &WindowSweep,
    bfs: &mut BfsScratch,
) -> Result<String, String> {
    let local = |key: &str, bfs: &mut BfsScratch| -> Result<WindowRecord, String> {
        let g = Graph::from_graph6(key).map_err(|e| e.to_string())?;
        Ok(WindowRecord::classify_with_key(key.to_owned(), &g, bfs))
    };
    Ok(match &req.op {
        Op::Classify { .. } | Op::Relabel { .. } => {
            wrap("atlas", &local(req.key.as_deref().expect("keyed op"), bfs)?)
        }
        Op::Record { index } => {
            let key = &catalogue.records[*index as usize].key;
            format!(
                "{{\"order\":{N},\"index\":{index},\"record\":{}}}",
                bnf_serve::render::record_json(&local(key, bfs)?)
            )
        }
        Op::Live { .. } => wrap(
            "live",
            &WindowRecord::classify(req.graph.as_ref().expect("live graph"), bfs),
        ),
        Op::GridPaper => figures::grid_body(catalogue, "paper"),
        Op::Healthz => String::new(),
    })
}

/// Byte-compares the sampled bodies and every uncached grid body.
fn check(
    out: &mut Outcome,
    logs: &[ClientLog],
    requests: &[Vec<Request>],
    catalogue: &WindowSweep,
) {
    let mut bfs = BfsScratch::new();
    let mut paper = None;
    for (log, reqs) in logs.iter().zip(requests) {
        out.attempted += log.attempted;
        for why in &log.failures {
            out.fail(why.clone());
        }
        for (at, body) in &log.bodies {
            let req = &reqs[*at];
            let ok = match (&req.op, &paper) {
                (Op::Healthz, _) => body.starts_with("{\"status\":\"ok\""),
                (Op::GridPaper, Some(p)) => body == p,
                _ => match expected(req, catalogue, &mut bfs) {
                    Ok(want) => {
                        if matches!(req.op, Op::GridPaper) {
                            paper = Some(want.clone());
                        }
                        *body == want
                    }
                    Err(e) => {
                        out.fail(format!(
                            "{}: cannot compute the expected body: {e}",
                            req.path
                        ));
                        continue;
                    }
                },
            };
            if !ok {
                out.fail(format!("{}: body differs from the local result", req.path));
            }
        }
        for (spec, _, body) in &log.grids {
            if *body != figures::grid_body(catalogue, spec) {
                out.fail(format!("grid {spec}: body differs from the local fold"));
            }
        }
    }
}

/// The traced serve: the benchmark's own accept loop around
/// `AppState::handle`, the same mix, its ledger, and the probes.
fn trace(
    out: &mut Outcome,
    store: &Path,
    requests: &[Vec<Request>],
    specs: &[String],
    seconds: f64,
    catalogue: &WindowSweep,
    (untraced_flow_s, untraced_mean): (f64, f64),
) -> Result<(), String> {
    let t0 = Instant::now();
    let (state, open_s, state_s, warm_s) = start_state(store)?;
    let t_listen = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let listen_s = t_listen.elapsed().as_secs_f64();
    let state = &state;
    let (logs, handled) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let listener = &listener;
                scope.spawn(move || serve_one(listener, state))
            })
            .collect();
        let logs = drive(addr, requests, seconds, specs);
        // Release any worker still waiting in `accept` (a client that
        // never connected); surplus connections die with the listener.
        for _ in 0..THREADS {
            let _ = std::net::TcpStream::connect(addr);
        }
        let handled: Vec<(usize, Vec<u64>)> = workers
            .into_iter()
            .map(|w| w.join().expect("traced server thread panicked"))
            .collect();
        (logs, handled)
    });
    let wall = t0.elapsed().as_secs_f64();
    for log in &logs {
        out.attempted += log.attempted;
        for why in &log.failures {
            out.fail(format!("traced: {why}"));
        }
    }
    // Pair each client's requests with the handle times of the
    // connection that served them (tagged by its first request).
    let mut handle_ns = [0u64; GRID_MISS + 1];
    let mut transport_ns = [0u64; GRID_MISS + 1];
    let mut counts = [0u64; GRID_MISS + 1];
    for (client, times) in &handled {
        let Some(log) = logs.get(*client) else {
            out.fail(format!("traced: a connection tagged {client}"));
            continue;
        };
        if times.len() != log.latencies.len() + 1 {
            out.fail(format!(
                "traced: connection {client} handled {} requests, client completed {}",
                times.len(),
                log.latencies.len() + 1
            ));
            continue;
        }
        for ((route, lat), h) in log.latencies.iter().zip(&times[1..]) {
            handle_ns[*route] += h;
            transport_ns[*route] += lat.saturating_sub(*h);
            counts[*route] += 1;
        }
    }
    let s = |ns: u64| ns as f64 / 1e9;
    let mut ledger = Ledger::default();
    ledger.add("atlas.open (MappedAtlas)", open_s);
    ledger.add("serve.state_new", state_s);
    ledger.add("serve.warm_paper_grid", warm_s);
    ledger.add("serve.listen", listen_s);
    let clients = THREADS as f64;
    for (route, name) in ROUTES.iter().enumerate() {
        ledger.add(
            &format!("serve.handle.{name}"),
            s(handle_ns[route]) / clients,
        );
    }
    let loop_transport: u64 = transport_ns[..GRID_MISS].iter().sum();
    ledger.add("serve.transport (closed loop)", s(loop_transport) / clients);
    ledger.add("serve.handle.grid_miss", s(handle_ns[GRID_MISS]));
    ledger.add("serve.transport (grid phase)", s(transport_ns[GRID_MISS]));
    let traced_mean = mean_latency_us(&logs);
    out.ledger = Some(ledger.render(
        "serve_mix",
        wall,
        untraced_flow_s,
        ("mean closed-loop latency", "us", traced_mean, untraced_mean),
    ));
    out.layer(
        "ledger.unattributed_share",
        ledger.unattributed(wall) / wall,
    );
    let loop_requests: u64 = counts[..GRID_MISS].iter().sum();
    out.layer(
        "trace.overhead_share",
        (traced_mean - untraced_mean) / untraced_mean,
    );
    let names = [
        "serve.handle_us.classify",
        "serve.handle_us.relabel",
        "serve.handle_us.record",
        "serve.handle_us.live",
        "serve.handle_us.grid",
    ];
    for (route, name) in names.into_iter().enumerate() {
        out.layer(
            name,
            handle_ns[route] as f64 / 1e3 / counts[route].max(1) as f64,
        );
    }
    out.layer(
        "serve.handle_us.grid_miss",
        handle_ns[GRID_MISS] as f64 / 1e3 / counts[GRID_MISS].max(1) as f64,
    );
    out.layer(
        "serve.transport_us",
        loop_transport as f64 / 1e3 / loop_requests.max(1) as f64,
    );
    out.layer("atlas.open_s", open_s);
    probes(out, store, requests, specs, catalogue)
}

/// Mean closed-loop latency of `logs`, µs.
fn mean_latency_us(logs: &[ClientLog]) -> f64 {
    let loop_lat: Vec<u64> = logs
        .iter()
        .flat_map(|l| &l.latencies)
        .filter(|(r, _)| *r != GRID_MISS)
        .map(|(_, ns)| *ns)
        .collect();
    loop_lat.iter().sum::<u64>() as f64 / 1e3 / loop_lat.len().max(1) as f64
}

/// One traced connection: handle its requests until the client closes;
/// returns the client's tag and each request's handle time.
fn serve_one(listener: &TcpListener, state: &AppState) -> (usize, Vec<u64>) {
    let Ok((stream, _)) = listener.accept() else {
        return (usize::MAX, Vec::new());
    };
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    let mut bfs = BfsScratch::new();
    let mut tag = usize::MAX;
    let mut times = Vec::new();
    while let Ok(req) = read_request(&mut reader) {
        if tag == usize::MAX {
            tag = req
                .query_value("client")
                .and_then(|c| c.parse().ok())
                .unwrap_or(usize::MAX);
        }
        let t = Instant::now();
        let (status, body) = state.handle(&req, &mut bfs);
        times.push(t.elapsed().as_nanos() as u64);
        if write_response(reader.get_mut(), status, &body, req.close).is_err() || req.close {
            break;
        }
    }
    (tag, times)
}

/// Single layers called on their own with the workload's inputs.
fn probes(
    out: &mut Outcome,
    store: &Path,
    requests: &[Vec<Request>],
    specs: &[String],
    catalogue: &WindowSweep,
) -> Result<(), String> {
    let mapped = MappedAtlas::open(store).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let mut streamed = 0usize;
    mapped
        .stream_sweep(N, |_| streamed += 1)
        .map_err(|e| e.to_string())?;
    out.layer("atlas.stream_sweep_s", t.elapsed().as_secs_f64());
    if streamed != catalogue.records.len() {
        out.fail(format!("stream_sweep streamed {streamed} records"));
    }

    let blocks = layout::block_frames(store).map_err(|e| e.to_string())?;
    let sizes: Vec<u64> = blocks.iter().map(|(_, b)| layout::block_len(b)).collect();
    out.layer(
        "atlas.records_decoded_per_lookup",
        layout::records_decoded_per_lookup(&sizes),
    );
    let t = Instant::now();
    for (_, body) in &blocks {
        bnf_atlas::codec::decode_block(body)?;
    }
    out.layer(
        "atlas.block_decode_us",
        t.elapsed().as_secs_f64() * 1e6 / blocks.len().max(1) as f64,
    );

    let relabelled: Vec<&Graph> = requests
        .iter()
        .flatten()
        .filter(|r| matches!(r.op, Op::Relabel { .. }))
        .filter_map(|r| r.graph.as_ref())
        .collect();
    let t = Instant::now();
    for g in &relabelled {
        std::hint::black_box(g.canonical_form());
    }
    out.layer(
        "graph.canonical_form_us",
        t.elapsed().as_secs_f64() * 1e6 / relabelled.len().max(1) as f64,
    );

    let live: Vec<Graph> = requests
        .iter()
        .flatten()
        .filter(|r| matches!(r.op, Op::Live { .. }))
        .filter_map(|r| r.graph.as_ref().map(Graph::canonical_form))
        .collect();
    // Absent keys: a probe walks the whole binary search, no decode.
    let t = Instant::now();
    let mut buf = Vec::new();
    for g in &live {
        if mapped
            .lookup_with(&g.to_graph6(), &mut buf)
            .map_err(|e| e.to_string())?
            .is_some()
        {
            out.fail("an order-8 key was found in the order-9 store".into());
        }
    }
    out.layer(
        "atlas.index_probe_us",
        t.elapsed().as_secs_f64() * 1e6 / live.len().max(1) as f64,
    );

    // The classify steps the live path runs, over the live graphs.
    let mut bfs = BfsScratch::new();
    let mut steps = [0u64; 6];
    let mut solver = 0usize;
    for g in &live {
        let (_, ns, reached) = crate::cold::classify_steps(&g.to_graph6(), g, &mut bfs);
        for (acc, v) in steps.iter_mut().zip(ns) {
            *acc += v;
        }
        solver += usize::from(reached);
    }
    for ((_, metric), v) in crate::cold::STEPS.iter().zip(steps) {
        out.layer(metric, v as f64 / 1e9);
    }
    out.layer(
        "core.ucg_solver_share",
        solver as f64 / live.len().max(1) as f64,
    );

    // The fold behind each uncached grid.
    let mut evaluate_s = 0.0;
    let mut record_alphas = 0.0;
    for spec in specs {
        let alphas = figures::alphas(spec);
        let t = Instant::now();
        std::hint::black_box(grid::evaluate(catalogue, &alphas));
        evaluate_s += t.elapsed().as_secs_f64();
        record_alphas += (catalogue.records.len() * alphas.len()) as f64;
    }
    out.layer("empirics.grid_evaluate_s", evaluate_s);
    out.layer(
        "empirics.fold_ns_per_record_alpha",
        evaluate_s * 1e9 / record_alphas,
    );
    Ok(())
}
