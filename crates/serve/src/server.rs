//! Routing, application state, and the threaded listener.
//!
//! The server owns one [`MappedAtlas`] and answers every query through
//! it: point lookups seek two or three times into the index sidecar
//! plus once into the store — one block read, validated whole, one
//! record materialized — so the resident set stays at the sidecar
//! working set instead of the multi-gigabyte buffered store. Graphs
//! outside the store fall back to live classification (canonicalize,
//! then `WindowRecord::classify_with_key`) below a configurable order
//! cap.
//!
//! Concurrency is the `bnf-engine` worker-pool shape: N threads, each
//! blocking on its own clone of the listener, each owning a
//! `BfsScratch` for the live path — no async runtime, no shared
//! accept lock.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bnf_atlas::MappedAtlas;
use bnf_core::{WindowRecord, MAX_UCG_ORDER};
use bnf_empirics::grid::{GridFold, GridSpec};
use bnf_games::GameKind;
use bnf_graph::{BfsScratch, Graph};
use bnf_obs::json::push_json_string;
use bnf_obs::Recorder;

use crate::http::{self, ParseError, Request};
use crate::render;

/// Default cap on live classification: the UCG support solver is
/// exponential in the worst case, so a public endpoint refuses orders
/// where a single request could burn minutes.
pub const DEFAULT_LIVE_ORDER_CAP: usize = 10;

/// How many distinct `/grid` spec strings the server caches rendered
/// bodies for (the paper grid occupies one slot permanently).
const GRID_CACHE_SLOTS: usize = 8;

/// How long an idle keep-alive connection is held before the worker
/// drops it and returns to `accept`. Doubles as the per-read stall
/// bound mid-request: a client that starts a head and stops feeding it
/// gets `408` instead of pinning the worker (slowloris protection —
/// see [`http::MAX_REQUEST_BYTES`] for the companion size cap).
const KEEP_ALIVE_TIMEOUT: Duration = Duration::from_secs(5);

/// Bound on one blocking write of a response: a client that stops
/// draining its receive window cannot hold a worker past this.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// One finished response: status code plus rendered JSON body.
pub type Response = (u16, Arc<String>);

/// Everything a request needs: the indexed atlas, the live-path order
/// cap, and the rendered-grid cache.
#[derive(Debug)]
pub struct AppState {
    atlas: MappedAtlas,
    orders: Vec<(u16, u64)>,
    default_order: Option<u16>,
    live_order_cap: usize,
    grid_cache: Mutex<Vec<(String, Arc<String>)>>,
}

impl AppState {
    /// Wraps an opened atlas. `live_order_cap` bounds the fallback
    /// classification path (clamped to [`MAX_UCG_ORDER`]).
    pub fn new(atlas: MappedAtlas, live_order_cap: usize) -> AppState {
        let orders = atlas.orders();
        let default_order = orders.iter().map(|&(o, _)| o).max();
        // Present in `/metrics` from the start, so "no panics" reads 0.
        Recorder::global().add("serve_panics", 0);
        AppState {
            atlas,
            orders,
            default_order,
            live_order_cap: live_order_cap.min(MAX_UCG_ORDER),
            grid_cache: Mutex::new(Vec::new()),
        }
    }

    /// The engine-order sweep the grid endpoints evaluate (the largest
    /// complete order in the index).
    pub fn default_order(&self) -> Option<u16> {
        self.default_order
    }

    /// The `(order, count)` engine-order tables the index carries.
    pub fn orders_snapshot(&self) -> Vec<(u16, u64)> {
        self.orders.clone()
    }

    /// Evaluates and caches the paper grid so the first `/grid` request
    /// does not pay the sweep replay. Call before accepting traffic.
    ///
    /// # Errors
    ///
    /// Returns the grid error body when the atlas has no complete
    /// engine-order table (or the replay fails).
    pub fn warm_paper_grid(&self) -> Result<(), String> {
        match self.grid_body("paper") {
            (200, _) => Ok(()),
            (_, body) => Err(body.as_str().to_owned()),
        }
    }

    /// Routes one parsed request. `scratch` is the calling worker's BFS
    /// scratch for the live-classification path.
    pub fn handle(&self, req: &Request, scratch: &mut BfsScratch) -> Response {
        let started = Instant::now();
        let segments: Vec<&str> = req.segments.iter().map(String::as_str).collect();
        let (route, response) = match segments.as_slice() {
            [] => ("index", self.index_body()),
            ["healthz"] => ("healthz", self.healthz_body()),
            ["metrics"] => ("metrics", metrics_body()),
            ["classify", key] => ("classify", self.classify_body(key, scratch)),
            ["record", idx] => ("record", self.record_body(idx, req.query_value("order"))),
            ["grid"] => (
                "grid",
                self.grid_body(req.query_value("spec").unwrap_or("paper")),
            ),
            _ => (
                "other",
                (404, Arc::new(render::error_json("no such endpoint"))),
            ),
        };
        let recorder = Recorder::global();
        recorder.add("serve_requests", 1);
        recorder.add(&format!("serve_requests/{route}"), 1);
        recorder.add(&format!("serve_status/{}", response.0), 1);
        recorder.record_hist(
            &format!("serve_ns/{route}"),
            started.elapsed().as_nanos() as u64,
        );
        response
    }

    fn index_body(&self) -> Response {
        let body = concat!(
            "{\"service\":\"bnf-serve\",\"endpoints\":[",
            "\"/healthz\",\"/metrics\",\"/classify/{graph6}\",",
            "\"/record/{idx}?order=N\",\"/grid?spec=paper|linear:lo:hi:steps|log2:lo:hi:per_octave\"",
            "]}"
        );
        (200, Arc::new(body.to_owned()))
    }

    fn healthz_body(&self) -> Response {
        let mut out = String::with_capacity(192);
        out.push_str("{\"status\":\"ok\",\"atlas\":");
        push_json_string(&mut out, &self.atlas.path().display().to_string());
        out.push_str(&format!(",\"records\":{}", self.atlas.len()));
        out.push_str(",\"orders\":[");
        for (i, (order, count)) in self.orders.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"order\":{order},\"count\":{count}}}"));
        }
        out.push_str("],\"default_order\":");
        match self.default_order {
            Some(o) => out.push_str(&o.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(&format!(
            ",\"live_order_cap\":{},\"peak_rss_kb\":{}}}",
            self.live_order_cap,
            bnf_obs::peak_rss_kb().unwrap_or(0)
        ));
        (200, Arc::new(out))
    }

    fn classify_body(&self, key: &str, scratch: &mut BfsScratch) -> Response {
        // Fast path: the key is already canonical and in the store.
        match self.atlas.lookup(key) {
            Ok(Some(rec)) => return classify_ok("atlas", &rec),
            Ok(None) => {}
            Err(e) => return internal_error(&e.to_string()),
        }
        // Not stored under these bytes: parse, canonicalize, retry.
        let g = match Graph::from_graph6(key) {
            Ok(g) => g,
            Err(e) => {
                return (
                    400,
                    Arc::new(render::error_json(&format!("bad graph6 key: {e}"))),
                )
            }
        };
        // No stored record and no live classification exceeds this
        // order: refuse before paying for a canonical search.
        if g.order() > MAX_UCG_ORDER {
            return self.out_of_live_range(g.order());
        }
        let canon = g.canonical_form();
        let ckey = canon.to_graph6();
        if ckey != key {
            match self.atlas.lookup(&ckey) {
                Ok(Some(rec)) => return classify_ok("atlas", &rec),
                Ok(None) => {}
                Err(e) => return internal_error(&e.to_string()),
            }
        }
        // Live fallback, bounded: the solver is exponential in order.
        if canon.order() < 2 || canon.order() > self.live_order_cap {
            return self.out_of_live_range(canon.order());
        }
        if canon.total_distance_with(scratch).is_none() {
            return (
                422,
                Arc::new(render::error_json(
                    "graph is disconnected; only connected topologies are classified",
                )),
            );
        }
        let rec = WindowRecord::classify_with_key(ckey, &canon, scratch);
        Recorder::global().add("serve_classify_live", 1);
        classify_ok("live", &rec)
    }

    fn out_of_live_range(&self, order: usize) -> Response {
        (
            422,
            Arc::new(render::error_json(&format!(
                "graph not in the atlas and order {order} is outside the live classification \
                 range 2..={}",
                self.live_order_cap
            ))),
        )
    }

    fn record_body(&self, idx: &str, order: Option<&str>) -> Response {
        let Ok(idx) = idx.parse::<u64>() else {
            return (
                400,
                Arc::new(render::error_json("record index must be an integer")),
            );
        };
        let order = match order {
            None => self.default_order,
            Some(raw) => match raw.parse::<u16>() {
                Ok(o) => Some(o),
                Err(_) => {
                    return (
                        400,
                        Arc::new(render::error_json("order must be an integer")),
                    )
                }
            },
        };
        let Some(order) = order else {
            return (
                404,
                Arc::new(render::error_json(
                    "the index has no engine-order table (no declared coverage)",
                )),
            );
        };
        match self.atlas.record_at(usize::from(order), idx) {
            Ok(Some(rec)) => {
                let mut out = String::with_capacity(256);
                out.push_str(&format!("{{\"order\":{order},\"index\":{idx},\"record\":"));
                render::push_record(&mut out, &rec);
                out.push('}');
                (200, Arc::new(out))
            }
            Ok(None) => (
                404,
                Arc::new(render::error_json(&format!(
                    "no record {idx} in the order-{order} table"
                ))),
            ),
            Err(e) => internal_error(&e.to_string()),
        }
    }

    fn grid_body(&self, spec_str: &str) -> Response {
        if let Some(cached) = self.grid_lookup(spec_str) {
            Recorder::global().add("serve_grid_cache_hits", 1);
            return (200, cached);
        }
        let spec = match GridSpec::parse(spec_str) {
            Ok(spec) => spec,
            Err(e) => return (400, Arc::new(render::error_json(&e.to_string()))),
        };
        let Some(order) = self.default_order else {
            return (
                404,
                Arc::new(render::error_json(
                    "the index has no engine-order table (no declared coverage); \
                     grids need a complete sweep",
                )),
            );
        };
        // Replay the sweep through the index straight into the grid
        // fold — O(|grid|) memory, no record kept; this is the exact
        // fold the Figure 2 CSV uses, so the f64 aggregates are
        // bit-identical to the offline artifact.
        let alphas = spec.alphas();
        let mut fold = GridFold::new(usize::from(order), &alphas);
        match self
            .atlas
            .stream_sweep(usize::from(order), |rec| fold.push(&rec))
        {
            Ok(Some(_)) => {}
            Ok(None) => {
                return (
                    404,
                    Arc::new(render::error_json(&format!(
                        "no engine-order table for order {order}"
                    ))),
                )
            }
            Err(e) => return internal_error(&e.to_string()),
        }
        let result = fold.finish();
        let mut out = String::with_capacity(4096);
        out.push_str(&format!("{{\"n\":{order},\"spec\":"));
        push_json_string(&mut out, spec_str);
        out.push_str(",\"alphas\":[");
        for (i, a) in alphas.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            render::push_ratio(&mut out, *a);
        }
        out.push_str("],");
        render::push_stats_series(&mut out, "bilateral", &result.stats(GameKind::Bilateral));
        out.push(',');
        render::push_stats_series(&mut out, "unilateral", &result.stats(GameKind::Unilateral));
        out.push(',');
        render::push_stats_series(&mut out, "transfer", &result.transfer_stats());
        out.push('}');
        let body = Arc::new(out);
        self.grid_store(spec_str, Arc::clone(&body));
        (200, body)
    }

    /// The rendered-grid cache. Every update is one `Vec` operation, so
    /// a request that panicked elsewhere cannot leave it inconsistent:
    /// a poisoned lock is taken over rather than failing every `/grid`.
    fn grid_cache(&self) -> std::sync::MutexGuard<'_, Vec<(String, Arc<String>)>> {
        self.grid_cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn grid_lookup(&self, spec: &str) -> Option<Arc<String>> {
        let cache = self.grid_cache();
        cache
            .iter()
            .find(|(s, _)| s == spec)
            .map(|(_, body)| Arc::clone(body))
    }

    fn grid_store(&self, spec: &str, body: Arc<String>) {
        let mut cache = self.grid_cache();
        if cache.iter().any(|(s, _)| s == spec) {
            return;
        }
        // Keep the cache bounded; slot 0 (the startup-warmed paper
        // grid) is never evicted.
        if cache.len() >= GRID_CACHE_SLOTS {
            let evict = 1.min(cache.len() - 1);
            cache.remove(evict);
        }
        cache.push((spec.to_owned(), body));
    }
}

fn classify_ok(source: &str, rec: &WindowRecord) -> Response {
    if source == "atlas" {
        Recorder::global().add("serve_classify_atlas", 1);
    }
    let mut out = String::with_capacity(288);
    out.push_str("{\"source\":");
    push_json_string(&mut out, source);
    out.push_str(",\"record\":");
    render::push_record(&mut out, rec);
    out.push('}');
    (200, Arc::new(out))
}

fn internal_error(detail: &str) -> Response {
    (500, Arc::new(render::error_json(detail)))
}

/// Runs one request's handler so that a panic in it costs that request,
/// not the worker: the panic is answered `500`, counted in the
/// `serve_panics` counter `/metrics` shows, and the worker goes on to
/// its next request. The worker's state survives an unwind — the BFS
/// scratch is reset by every search that uses it, and the shared locks
/// tolerate poisoning.
fn isolate(handler: impl FnOnce() -> Response) -> Response {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(handler)) {
        Ok(response) => response,
        Err(_) => {
            Recorder::global().add("serve_panics", 1);
            internal_error("the request handler panicked")
        }
    }
}

/// Renders the process recorder snapshot: counters, span totals, and
/// histogram summaries with estimated p50/p99.
fn metrics_body() -> Response {
    let snap = Recorder::global().snapshot();
    let mut out = String::with_capacity(1024);
    out.push_str("{\"counters\":{");
    for (i, (name, value)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, name);
        out.push_str(&format!(":{value}"));
    }
    out.push_str("},\"spans_ms\":{");
    for (i, (name, ms)) in snap.spans_ms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, name);
        out.push_str(&format!(":{ms}"));
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, hist)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, name);
        let mean = if hist.count() > 0 {
            hist.sum() as f64 / hist.count() as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            ":{{\"count\":{},\"min\":{},\"max\":{},\"mean\":",
            hist.count(),
            hist.min(),
            hist.max()
        ));
        render::push_f64(&mut out, mean);
        out.push_str(&format!(
            ",\"p50\":{},\"p99\":{}}}",
            hist.quantile(0.50),
            hist.quantile(0.99)
        ));
    }
    out.push_str(&format!(
        "}},\"peak_rss_kb\":{}}}",
        bnf_obs::peak_rss_kb().unwrap_or(0)
    ));
    (200, Arc::new(out))
}

/// A running server: worker threads blocked in `accept`, plus the
/// shutdown flag that [`Server::shutdown`] flips.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7878`, or port `0` for an
    /// OS-assigned port) and spawns `threads` accept-loop workers.
    ///
    /// # Errors
    ///
    /// Propagates bind/clone failures.
    pub fn start(state: Arc<AppState>, addr: &str, threads: usize) -> std::io::Result<Server> {
        Server::start_with_timeout(state, addr, threads, KEEP_ALIVE_TIMEOUT)
    }

    /// [`Server::start`] with an explicit keep-alive / mid-request
    /// stall timeout instead of the default — how the hardening tests
    /// provoke a `408` in milliseconds rather than seconds, and the
    /// knob for deployments whose clients sit behind slower links.
    ///
    /// # Errors
    ///
    /// Propagates bind/clone failures.
    pub fn start_with_timeout(
        state: Arc<AppState>,
        addr: &str,
        threads: usize,
        read_timeout: Duration,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let threads = threads.max(1);
        let mut workers = Vec::with_capacity(threads);
        for worker_id in 0..threads {
            let listener = listener.try_clone()?;
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("bnf-serve-{worker_id}"))
                    .spawn(move || worker_loop(&listener, &state, &stop, read_timeout))?,
            );
        }
        Ok(Server {
            addr,
            stop,
            workers,
        })
    }

    /// The bound socket address (resolves port 0 binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, wakes every worker, and joins them.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Each worker is blocked in `accept`; one connect wakes exactly
        // one of them, and a woken worker sees the flag and exits.
        for _ in &self.workers {
            let _ = TcpStream::connect(self.addr);
        }
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

fn worker_loop(
    listener: &TcpListener,
    state: &AppState,
    stop: &AtomicBool,
    read_timeout: Duration,
) {
    let mut scratch = BfsScratch::new();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        serve_connection(stream, state, stop, &mut scratch, read_timeout);
        if stop.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Drives one keep-alive connection until the client closes, asks to
/// close, errors, or goes idle past the read timeout (default
/// [`KEEP_ALIVE_TIMEOUT`]). Stalled mid-request reads are answered
/// `408`, oversized heads `431` — both close the connection, so one
/// hostile client costs one response, not a parked worker.
fn serve_connection(
    stream: TcpStream,
    state: &AppState,
    stop: &AtomicBool,
    scratch: &mut BfsScratch,
    read_timeout: Duration,
) {
    if stream.set_read_timeout(Some(read_timeout)).is_err()
        || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let mut reader = BufReader::new(stream);
    loop {
        match http::read_request(&mut reader) {
            Ok(req) => {
                let (status, body) = isolate(|| state.handle(&req, scratch));
                let close = req.close || stop.load(Ordering::SeqCst);
                if http::write_response(reader.get_mut(), status, &body, close).is_err() || close {
                    return;
                }
            }
            Err(ParseError::ConnectionClosed) => return,
            Err(ParseError::Timeout) => {
                let body = render::error_json("request head timed out");
                let _ = http::write_response(reader.get_mut(), 408, &body, true);
                return;
            }
            Err(ParseError::TooLarge) => {
                let body = render::error_json("request head too large");
                let _ = http::write_response(reader.get_mut(), 431, &body, true);
                drain_refused(&mut reader);
                return;
            }
            Err(ParseError::MethodNotAllowed) => {
                let body = render::error_json("only GET is supported");
                let _ = http::write_response(reader.get_mut(), 405, &body, true);
                return;
            }
            Err(ParseError::Malformed(detail)) => {
                let body = render::error_json(&detail);
                let _ = http::write_response(reader.get_mut(), 400, &body, true);
                return;
            }
        }
    }
}

/// Lingering close for a request refused **mid-read** (`431`): the
/// client may still be sending the rest of its oversized head, and
/// closing a socket with unread data pending resets the connection —
/// discarding the refusal out of the client's receive buffer. Signal
/// FIN, then drain (bounded by the read timeout per read and a hard
/// byte cap) until the client stops.
fn drain_refused(reader: &mut BufReader<TcpStream>) {
    let _ = reader.get_ref().shutdown(std::net::Shutdown::Write);
    let mut buf = [0u8; 4096];
    // 1 MiB of patience: enough for any kernel-buffered remainder of a
    // just-over-the-cap head, nowhere near enough to be a new DoS.
    let mut budget = 1usize << 20;
    while budget > 0 {
        match std::io::Read::read(reader, &mut buf) {
            Ok(0) | Err(_) => return,
            Ok(read) => budget = budget.saturating_sub(read),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_handler_is_answered_500_and_counted() {
        let counter = |snap: &bnf_obs::Snapshot| {
            snap.counters
                .iter()
                .find(|(name, _)| name == "serve_panics")
                .map_or(0, |&(_, v)| v)
        };
        let before = counter(&Recorder::global().snapshot());
        let (status, body) = isolate(|| panic!("handler bug"));
        assert_eq!(status, 500);
        assert!(body.contains("panicked"), "{body}");
        assert_eq!(counter(&Recorder::global().snapshot()), before + 1);
        // A handler that returns is passed through untouched.
        let (status, body) = isolate(|| (200, Arc::new("ok".to_owned())));
        assert_eq!((status, body.as_str()), (200, "ok"));
    }
}
