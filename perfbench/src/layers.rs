//! Layer-by-layer replays for the traced run, and the in-process serving
//! stack the workloads drive.
//!
//! Every span here wraps one call into a layer's public function:
//! `ease::service` (`EaseService::load`, the property cache), `ease_graph`
//! (`open_path`, the `PreparedGraph` fingerprint / degree / CSR / triangle
//! accessors), `ease::selector` (`recommend_query`), `ease::predictors`
//! (the three predictors per candidate) and `ease::serve`
//! (`protocol`, `json`, `resolve_graph_path`, the daemon, HTTP facade and
//! router).

use crate::report::{Kind, Report};
use crate::setup::Res;
use crate::stats;
use crate::trace::{self, Tracer};
use ease::serve::{
    self, call_endpoint, resolve_graph_path, Endpoint, HashRing, PipelinedClient, Request,
    Response, RouterConfig, ServeConfig, ServerHandle,
};
use ease::{EaseService, OptGoal, Query, Selection};
use ease_graph::{open_path, Csr, PreparedGraph, VertexId};
use ease_procsim::Workload;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One recommend query as a user states it.
#[derive(Debug, Clone)]
pub struct Ask {
    /// The graph path as written in the request (relative to the checkout).
    pub graph: String,
    pub workload: Workload,
    pub goal: OptGoal,
}

impl Ask {
    pub fn request(&self) -> Request {
        Request::Recommend {
            graph: self.graph.clone(),
            workload: self.workload.name().to_string(),
            k: None,
            goal: self.goal,
            top: serve::DEFAULT_TOP,
            cwd: None,
        }
    }

    /// What `ease recommend --model <model> --graph <graph>` prints, computed
    /// in-process on a freshly loaded service: the reference every answer
    /// is compared with byte for byte.
    pub fn one_shot(&self, model: &Path) -> Res<String> {
        let service = EaseService::load(model)?;
        let source = open_path(Path::new(&self.graph))?;
        let k = service.meta().default_k;
        Ok(serve::render_recommendation(
            &service,
            &self.graph,
            source.as_ref(),
            self.workload,
            k,
            self.goal,
            serve::DEFAULT_TOP,
            None,
        )?)
    }
}

/// References for `asks`, rendered with one freshly loaded service (its
/// property cache only spares re-extracting a graph shared by two asks;
/// the bytes are the same as a one-shot's).
pub fn references(model: &Path, asks: &[Ask]) -> Res<Vec<String>> {
    let service = EaseService::load(model)?;
    let k = service.meta().default_k;
    asks.iter()
        .map(|a| {
            let source = open_path(Path::new(&a.graph))?;
            Ok(serve::render_recommendation(
                &service,
                &a.graph,
                source.as_ref(),
                a.workload,
                k,
                a.goal,
                serve::DEFAULT_TOP,
                None,
            )?)
        })
        .collect()
}

/// Check a transport answer against its reference. `Ok(true)` on a byte
/// match, `Ok(false)` on a mismatch, `Err` with the typed failure.
pub fn check(response: Response, reference: &str) -> Result<bool, String> {
    match response {
        Response::Answer(text) => Ok(text == reference),
        Response::Overloaded { needed, headroom } => {
            Err(format!("overloaded (needed {needed} B, headroom {headroom} B)"))
        }
        Response::Error(e) => Err(e),
        other => Err(format!("unexpected response {other:?}")),
    }
}

// ---------------------------------------------------------------------
// The cold one-shot path, stage by stage
// ---------------------------------------------------------------------

/// Cold stage names, in the order the one-shot path runs them.
pub const COLD_STAGES: [&str; 8] = [
    "service.load",
    "graph.open",
    "graph.fingerprint",
    "graph.degree",
    "graph.csr",
    "graph.triangles",
    "service.properties",
    "selector.select",
];

/// Counts and sizes of the triangle kernel's input, from the public CSR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kernel {
    pub vertices: usize,
    pub entries: usize,
    pub csr_bytes: usize,
    /// Σ over forward edges (v, u) of d⁺(v) + d⁺(u): an upper bound on the
    /// merge steps of the forward algorithm.
    pub merge_bound: u64,
}

impl Kernel {
    /// Rank vertices by (degree, id) as `triangles.rs` documents, orient
    /// every edge toward the higher rank, and sum the forward degrees of
    /// both ends of each forward edge.
    pub fn of(adj: &Csr) -> Kernel {
        let n = adj.num_vertices();
        let mut order: Vec<VertexId> = (0..n as VertexId).collect();
        order.sort_unstable_by_key(|&v| (adj.degree(v), v));
        let mut rank = vec![0u32; n];
        for (r, &v) in order.iter().enumerate() {
            rank[v as usize] = r as u32;
        }
        let higher = |v: usize| {
            let rank = &rank;
            adj.neighbors(v as VertexId).iter().filter(move |&&u| rank[u as usize] > rank[v])
        };
        let fwd: Vec<u64> = (0..n).map(|v| higher(v).count() as u64).collect();
        let merge_bound =
            (0..n).map(|v| higher(v).map(|&u| fwd[v] + fwd[u as usize]).sum::<u64>()).sum();
        Kernel {
            vertices: n,
            entries: adj.num_entries(),
            csr_bytes: adj.storage_bytes(),
            merge_bound,
        }
    }

    /// Computed bytes the forward triangle kernel moves, in MB (10⁶ B):
    /// two passes over the CSR (8-byte offsets, 4-byte targets) to count
    /// and fill the forward lists, the order and rank arrays (4 B per
    /// vertex each), forward offsets (8 B per vertex), the forward lists
    /// written once and read once (4 B per forward entry, entries/2 of
    /// them), the per-vertex counts (8 B), and 16 B per merge step (two
    /// vertex ids and their two rank loads).
    pub fn triangles_bytes_mb(&self) -> f64 {
        let (n, e) = (self.vertices as f64, self.entries as f64);
        let csr_pass = 8.0 * (n + 1.0) + 4.0 * e;
        let bytes = 2.0 * csr_pass
            + 8.0 * n
            + 8.0 * (n + 1.0)
            + 2.0 * 4.0 * (e / 2.0)
            + 8.0 * n
            + 16.0 * self.merge_bound as f64;
        bytes / 1e6
    }
}

/// One cold query with a span around each stage call, in the order the
/// one-shot path makes them (`cached_properties_prepared` keys the cache
/// on the fingerprint first). The root span `cold.query` also covers
/// dropping the query's state, as the one-shot process does. Returns the
/// selection and the fresh service's cache counters.
pub fn cold_query_traced(
    tr: &mut Tracer,
    request: u64,
    model: &Path,
    ask: &Ask,
) -> Res<(Selection, ease::PropertyCacheStats)> {
    let root = tr.begin("cold.query", request);
    let service = tr.span("service.load", request, || EaseService::load(model))?;
    let source = tr.span("graph.open", request, || open_path(Path::new(&ask.graph)))?;
    let prepared = PreparedGraph::of_source(source.as_ref());
    tr.span("graph.fingerprint", request, || black_box(prepared.fingerprint()));
    tr.span("graph.degree", request, || {
        black_box(prepared.degrees());
    });
    tr.span("graph.csr", request, || {
        black_box(prepared.undirected_simple());
    });
    tr.span("graph.triangles", request, || {
        black_box(prepared.triangle_counts());
    });
    let props =
        tr.span("service.properties", request, || service.cached_properties_prepared(&prepared));
    let k = service.meta().default_k;
    let selection = tr.span("selector.select", request, || {
        service.recommend_query(&props, Query::new(ask.workload).k(k).goal(ask.goal))
    })?;
    let cache = service.property_cache_stats();
    drop(prepared);
    drop((source, service));
    tr.end(root);
    Ok((selection, cache))
}

/// Kernel accounting of `ask`'s graph, outside any span.
pub fn kernel_of(ask: &Ask) -> Res<Kernel> {
    let source = open_path(Path::new(&ask.graph))?;
    let prepared = PreparedGraph::of_source(source.as_ref());
    Ok(Kernel::of(prepared.undirected_simple()))
}

/// Debug rendering of a selection: f64 `Debug` prints the shortest
/// round-trip form, so equal strings mean bit-equal predictions.
pub fn selection_key(selection: &Selection) -> String {
    format!("{selection:?}")
}

/// The reference selection for `ask`, from a fresh service.
pub fn reference_selection(model: &Path, ask: &Ask) -> Res<String> {
    let service = EaseService::load(model)?;
    let source = open_path(Path::new(&ask.graph))?;
    let prepared = PreparedGraph::of_source(source.as_ref());
    let props = service.cached_properties_prepared(&prepared);
    let k = service.meta().default_k;
    Ok(selection_key(
        &service.recommend_query(&props, Query::new(ask.workload).k(k).goal(ask.goal))?,
    ))
}

/// Report the cold-stage metrics (`service.load_ms`, `graph.*`) and the
/// kernel accounting from the spans of [`cold_query_traced`] calls.
pub fn report_cold_stages(
    report: &mut Report,
    spans: &[trace::Span],
    kernels: &HashMap<String, Kernel>,
    graph_of: &HashMap<u64, String>,
) {
    let layers = trace::by_layer(spans);
    for (name, metric) in [
        ("service.load", "service.load_ms"),
        ("graph.open", "graph.open_ms"),
        ("graph.fingerprint", "graph.fingerprint_ms"),
        ("graph.degree", "graph.degree_ms"),
        ("graph.csr", "graph.csr_ms"),
        ("graph.triangles", "graph.triangles_ms"),
    ] {
        let calls = layers.get(name).map(|l| l.0.clone()).unwrap_or_default();
        let m =
            report.metric(Kind::Layer, metric, stats::median(&calls).unwrap_or(0.0) / 1e6, "ms");
        m.samples = calls.len();
    }
    let ks: Vec<&Kernel> = kernels.values().collect();
    let med = |f: &dyn Fn(&Kernel) -> f64| {
        stats::median(&ks.iter().map(|k| f(k)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    report.metric(Kind::Layer, "graph.csr_entries", med(&|k| k.entries as f64), "count").samples =
        ks.len();
    report.metric(Kind::Layer, "graph.csr_bytes", med(&|k| k.csr_bytes as f64), "bytes").samples =
        ks.len();
    report
        .metric(Kind::Layer, "graph.triangles_merge_bound", med(&|k| k.merge_bound as f64), "count")
        .samples = ks.len();
    let m = report.metric(
        Kind::Layer,
        "graph.triangles_bytes_mb",
        med(&|k| k.triangles_bytes_mb()),
        "MB",
    );
    m.samples = ks.len();
    m.note = "computed: 2(8(n+1)+4e) + 8n + 8(n+1) + 4e + 8n + 16*merge_bound bytes".into();
    // time per CSR entry of each triangle call, against its own graph
    let per_entry: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "graph.triangles")
        .filter_map(|s| {
            let k = kernels.get(graph_of.get(&s.request)?)?;
            Some(s.duration() as f64 / k.entries.max(1) as f64)
        })
        .collect();
    report
        .metric(
            Kind::Layer,
            "graph.triangles_ns_per_entry",
            stats::median(&per_entry).unwrap_or(0.0),
            "ns",
        )
        .samples = per_entry.len();
}

// ---------------------------------------------------------------------
// The warm handler, replayed call by call
// ---------------------------------------------------------------------

/// Names of the spans that make up the daemon's warm compute for one
/// request over v2, and over HTTP/JSON.
pub const WARM_V2: [&str; 5] = [
    "protocol.decode",
    "serve.resolve",
    "service.cache_probe",
    "selector.select",
    "protocol.encode",
];
pub const WARM_JSON: [&str; 5] =
    ["json.decode", "serve.resolve", "service.cache_probe", "selector.select", "json.encode"];

/// Replay the daemon handler's public calls for `requests` (request id,
/// request, reference answer) against `service`, whose property cache
/// must already hold every graph (`fingerprints` maps resolved paths to
/// cache keys). The three predictors are replayed over the candidates
/// after the selection and checked bit for bit against it.
pub fn replay_handler(
    tr: &mut Tracer,
    service: &EaseService,
    fingerprints: &HashMap<PathBuf, u64>,
    requests: &[(u64, Request, &str)],
) -> Res<()> {
    let ease = service.ease();
    for (id, request, reference) in requests {
        let id = *id;
        let wire = request.encode_binary();
        let json = request.to_json();
        let decoded = tr.span("protocol.decode", id, || Request::decode_binary(&wire))?;
        let from_json = tr.span("json.decode", id, || Request::from_json(&json))?;
        if decoded != *request || from_json != *request {
            return Err("a request did not survive its codec round trip".into());
        }
        let Request::Recommend { graph, workload, k, goal, cwd, .. } = decoded else {
            return Err("replay expects recommend requests".into());
        };
        let (path, stat) = tr.span("serve.resolve", id, || {
            let path = resolve_graph_path(&graph, cwd.as_deref());
            let stat = std::fs::metadata(&path);
            (path, stat)
        });
        stat?;
        let fingerprint = *fingerprints.get(&path).ok_or("replayed graph was never warmed")?;
        let props = tr
            .span("service.cache_probe", id, || service.try_cached_properties(fingerprint))
            .ok_or("property cache miss during the warm replay")?;
        let workload = Workload::from_name(&workload).ok_or("unknown workload")?;
        let k = k.unwrap_or(service.meta().default_k);
        let selection = tr.span("selector.select", id, || {
            service.recommend_query(&props, Query::new(workload).k(k).goal(goal))
        })?;
        let chosen = reference.lines().nth(1).unwrap_or_default();
        if !chosen.ends_with(&format!(": {}", selection.best.name())) {
            return Err(format!(
                "replayed selection {} disagrees with `{chosen}`",
                selection.best.name()
            )
            .into());
        }
        // each predictor over all candidates in one span (per-candidate
        // spans would cost as much as the predictions they time)
        let catalog = &ease.catalog;
        let quality: Vec<_> = tr.span("predictors.quality", id, || {
            catalog.iter().map(|&p| ease.quality.predict(&props, p, k)).collect()
        });
        let part: Vec<f64> = tr.span("predictors.partitioning_time", id, || {
            catalog.iter().map(|&p| ease.partitioning_time.predict(&props, p)).collect()
        });
        let proc: Vec<f64> = tr.span("predictors.processing_time", id, || {
            quality
                .iter()
                .map(|q| ease.processing_time.predict_total(workload, &props, q))
                .collect()
        });
        for (i, c) in selection.candidates.iter().enumerate() {
            if c.partitioner != catalog[i]
                || part[i].to_bits() != c.partitioning_secs.to_bits()
                || proc[i].to_bits() != c.processing_secs.to_bits()
                || quality[i] != c.quality
            {
                return Err(format!(
                    "replayed predictors disagree with the selection for {}",
                    c.partitioner.name()
                )
                .into());
            }
        }
        let answer = Response::Answer(reference.to_string());
        tr.span("protocol.encode", id, || black_box(answer.encode_binary()));
        tr.span("json.encode", id, || black_box(answer.to_json()));
    }
    Ok(())
}

/// A service whose property cache holds every graph of `graphs`, and the
/// fingerprint of each (by resolved path).
pub fn warm_service(model: &Path, graphs: &[String]) -> Res<(EaseService, HashMap<PathBuf, u64>)> {
    let service = EaseService::load(model)?;
    let mut fingerprints = HashMap::new();
    for g in graphs {
        let source = open_path(Path::new(g))?;
        let prepared = PreparedGraph::of_source(source.as_ref());
        service.cached_properties_prepared(&prepared);
        fingerprints.insert(resolve_graph_path(g, None), prepared.fingerprint());
    }
    Ok((service, fingerprints))
}

/// Report the warm-handler metrics from [`replay_handler`] spans: the
/// median per request of each layer's time (the predictors summed over
/// the 11 candidates), and the selector's own time beside them.
pub fn report_handler(report: &mut Report, spans: &[trace::Span]) {
    for span in [
        "protocol.decode",
        "protocol.encode",
        "serve.resolve",
        "service.cache_probe",
        "selector.select",
        "predictors.quality",
        "predictors.partitioning_time",
        "predictors.processing_time",
        "json.encode",
        "json.decode",
    ] {
        let per: Vec<f64> = trace::per_request_sum(spans, &[span]).into_values().collect();
        let median = stats::median(&per).unwrap_or(0.0) / 1e3;
        report.metric(Kind::Layer, &format!("{span}_us"), median, "us").samples = per.len();
    }
    // the selector's own time: the selection minus its three predictor
    // passes, per request
    let select = trace::per_request_sum(spans, &["selector.select"]);
    let predictors = trace::per_request_sum(
        spans,
        &["predictors.quality", "predictors.partitioning_time", "predictors.processing_time"],
    );
    let own: Vec<f64> = select.iter().filter_map(|(r, s)| Some(s - predictors.get(r)?)).collect();
    let m = report.metric(
        Kind::Layer,
        "selector.self_us",
        stats::median(&own).unwrap_or(0.0) / 1e3,
        "us",
    );
    m.samples = own.len();
    m.note = "selector.select minus its replayed predictor calls".into();
}

/// Report `serve.wait_*`: observed latency minus the replayed compute of
/// the same request (`compute` names the spans that make up one request's
/// compute), i.e. transport plus queueing.
pub fn report_wait(
    report: &mut Report,
    latency_ns: &HashMap<u64, f64>,
    spans: &[trace::Span],
    compute: &[&str],
) {
    let compute = trace::per_request_sum(spans, compute);
    let wait: Vec<f64> = compute.iter().filter_map(|(r, c)| Some(latency_ns.get(r)? - c)).collect();
    wait_metrics(report, &wait, "observed latency minus the replayed compute of the same request");
}

pub fn wait_metrics(report: &mut Report, wait_ns: &[f64], what: &str) {
    let p50 = stats::percentile(wait_ns, 500);
    let m =
        report.metric(Kind::Layer, "serve.wait_p50_us", p50.map_or(0.0, |p| p.value / 1e3), "us");
    m.samples = wait_ns.len();
    m.note = what.to_string();
    let tail = stats::percentile(wait_ns, 990);
    let m =
        report.metric(Kind::Layer, "serve.wait_tail_us", tail.map_or(0.0, |p| p.value / 1e3), "us");
    m.samples = wait_ns.len();
    m.note = tail.map_or("unsupported".into(), |p| {
        format!("{} ({} beyond)", stats::label(p.per_mille), p.beyond)
    });
}

/// Report the property-cache counters of a phase, with their base.
pub fn cache_metrics(report: &mut Report, ratio: stats::HitRatio, evictions: u64) {
    let m = report.metric(
        Kind::Layer,
        "service.cache_hit_ratio",
        ratio.ratio().unwrap_or(0.0),
        "ratio",
    );
    m.samples = ratio.lookups as usize;
    m.note = format!("{} hits / {} lookups", ratio.hits, ratio.lookups);
    report.metric(Kind::Layer, "service.cache_lookups", ratio.lookups as f64, "count");
    report.metric(Kind::Layer, "service.cache_evictions", evictions as f64, "count");
}

/// Report the tracing overhead: traced minus untraced median, in ms.
pub fn overhead(report: &mut Report, traced_p50_ms: f64, untraced_p50_ms: f64) {
    let m = report.metric(Kind::Layer, "trace.overhead_ms", traced_p50_ms - untraced_p50_ms, "ms");
    m.note = format!("traced p50 {traced_p50_ms:.4} ms - untraced p50 {untraced_p50_ms:.4} ms");
}

/// Per-layer self times of every span name, as info lines (median per
/// call, µs), so the report shows each layer's own time.
pub fn report_self_times(report: &mut Report, spans: &[trace::Span]) {
    for (name, (total, own)) in trace::by_layer(spans) {
        let m = report.metric(
            Kind::Info,
            &format!("self.{name}_us"),
            stats::median(&own).unwrap_or(0.0) / 1e3,
            "us",
        );
        m.samples = own.len();
        m.note = format!("median total {:.3} us", stats::median(&total).unwrap_or(0.0) / 1e3);
    }
}

// ---------------------------------------------------------------------
// The in-process serving stack
// ---------------------------------------------------------------------

/// Daemons (and optionally a router in front of them) serving one model
/// in this process over TCP on loopback. Dropping the stack shuts every
/// server down and joins it.
pub struct Stack {
    pub backends: Vec<(ServerHandle, String)>,
    pub router: Option<(ServerHandle, String)>,
}

impl Stack {
    pub fn start(model: &Path, backends: usize, router: bool) -> Res<Stack> {
        let mut stack = Stack { backends: Vec::new(), router: None };
        for _ in 0..backends {
            let service = Arc::new(EaseService::load(model)?);
            let handle = serve::serve(service, ServeConfig::tcp_at("127.0.0.1:0"))?;
            let addr = handle.tcp_addr().ok_or("daemon bound no TCP address")?.to_string();
            stack.backends.push((handle, addr));
        }
        if router {
            stack.attach_router()?;
        }
        Ok(stack)
    }

    /// Put a router in front of the backends.
    pub fn attach_router(&mut self) -> Res<()> {
        let config =
            RouterConfig::new(ServeConfig::tcp_at("127.0.0.1:0"), self.backend_endpoints())
                .forward_shutdown(false);
        let handle = serve::route(config)?;
        let addr = handle.tcp_addr().ok_or("router bound no TCP address")?.to_string();
        self.router = Some((handle, addr));
        Ok(())
    }

    pub fn backend_endpoints(&self) -> Vec<Endpoint> {
        self.backends.iter().map(|(_, a)| Endpoint::tcp(a.clone())).collect()
    }

    pub fn router_addr(&self) -> Res<&str> {
        Ok(self.router.as_ref().ok_or("no router in this stack")?.1.as_str())
    }

    /// Fleet-folded property-cache counters `(hits, misses, evictions)`,
    /// through the router when there is one.
    pub fn cache_stats(&self) -> Res<(u64, u64, u64)> {
        let endpoints = match &self.router {
            Some((_, addr)) => vec![Endpoint::tcp(addr.clone())],
            None => self.backend_endpoints(),
        };
        let mut total = (0, 0, 0);
        for ep in endpoints {
            match call_endpoint(&ep, &Request::CacheStats)? {
                Response::CacheStats(s) => {
                    total = (total.0 + s.hits, total.1 + s.misses, total.2 + s.evictions);
                }
                other => return Err(format!("cache-stats answered {other:?}").into()),
            }
        }
        Ok(total)
    }

    /// The backend the router's ring places `graph` on: the router keys a
    /// graph file by its filesystem identity (`dev`, `ino`), hashed with
    /// the ring's splitmix64 finalizer.
    pub fn owner_of(&self, graph: &str) -> Res<usize> {
        use std::os::unix::fs::MetadataExt;
        let md = std::fs::metadata(graph)?;
        let key = mix64(mix64(md.dev()) ^ md.ino());
        let labels: Vec<String> = self.backend_endpoints().iter().map(|e| e.to_string()).collect();
        Ok(HashRing::new(&labels).node_for(key).ok_or("empty ring")?)
    }
}

fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Drop for Stack {
    fn drop(&mut self) {
        let servers = self.router.take().into_iter().chain(self.backends.drain(..));
        for (handle, _) in servers.collect::<Vec<_>>() {
            handle.trigger_shutdown();
            handle.join().ok();
        }
    }
}

// ---------------------------------------------------------------------
// Idle probes
// ---------------------------------------------------------------------

const PROBES: usize = 200;

/// Idle round trips through each transport layer, on a warm stack:
/// `serve.ping_rtt_us` (v2 Ping on an open connection to backend 0),
/// `http.healthz_rtt_us` (GET /healthz on a fresh connection to backend
/// 0) and `router.forward_us` (a warm recommend through the router minus
/// the same request straight to the backend that owns it).
pub fn probes(report: &mut Report, stack: &Stack, ask: &Ask, reference: &str) -> Res<()> {
    let backend0 = Endpoint::tcp(stack.backends[0].1.clone());
    let mut client = PipelinedClient::connect(&backend0)?;
    let mut rtt = Vec::with_capacity(PROBES);
    for i in 0..PROBES + 20 {
        let t = Instant::now();
        let pong = client.call(&Request::Ping)?;
        if i >= 20 {
            rtt.push(t.elapsed().as_nanos() as f64);
        }
        if !matches!(pong, Response::Pong { .. }) {
            return Err(format!("ping answered {pong:?}").into());
        }
    }
    report
        .metric(Kind::Layer, "serve.ping_rtt_us", stats::median(&rtt).unwrap_or(0.0) / 1e3, "us")
        .samples = rtt.len();
    // an open v2 connection pins one of the daemon's connection workers
    // (as many as cores): release it before the router needs one
    drop(client);

    let mut healthz = Vec::with_capacity(PROBES);
    for _ in 0..PROBES {
        let t = Instant::now();
        let mut stream = std::net::TcpStream::connect(&stack.backends[0].1)?;
        stream.set_nodelay(true).ok();
        stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        healthz.push(t.elapsed().as_nanos() as f64);
        if !raw.starts_with(b"HTTP/1.1 200") {
            return Err("GET /healthz did not answer 200".into());
        }
    }
    report
        .metric(
            Kind::Layer,
            "http.healthz_rtt_us",
            stats::median(&healthz).unwrap_or(0.0) / 1e3,
            "us",
        )
        .samples = healthz.len();

    let owner = stack.owner_of(&ask.graph)?;
    let request = ask.request();
    let router = Endpoint::tcp(stack.router_addr()?.to_string());
    // the probe measures a warm request: the owner has seen this graph
    if check(call_endpoint(&router, &request)?, reference) != Ok(true) {
        return Err("a probe answer differs from its reference".into());
    }
    let before = backend_hits(stack)?;
    let mut routed = PipelinedClient::connect(&router)?;
    let mut direct = PipelinedClient::connect(&Endpoint::tcp(stack.backends[owner].1.clone()))?;
    let (mut via_router, mut straight) = (Vec::new(), Vec::new());
    for i in 0..PROBES + 20 {
        for (client, sink) in [(&mut routed, &mut via_router), (&mut direct, &mut straight)] {
            let t = Instant::now();
            let answer = client.call(&request)?;
            let took = t.elapsed().as_nanos() as f64;
            if check(answer, reference) != Ok(true) {
                return Err("a probe answer differs from its reference".into());
            }
            if i >= 20 {
                sink.push(took);
            }
        }
    }
    // every probe must have hit the owner's cache and no other backend's
    drop((routed, direct));
    let after = backend_hits(stack)?;
    for (b, (x, y)) in before.iter().zip(&after).enumerate() {
        let expect = if b == owner { 2 * (PROBES as u64 + 20) } else { 0 };
        if y - x != expect {
            return Err(format!("backend {b} took {} probe hits, expected {expect}", y - x).into());
        }
    }
    let forward =
        stats::median(&via_router).unwrap_or(0.0) - stats::median(&straight).unwrap_or(0.0);
    let m = report.metric(Kind::Layer, "router.forward_us", forward / 1e3, "us");
    m.samples = via_router.len();
    m.note = format!("owner backend {owner} of {}", stack.backends.len());
    Ok(())
}

fn backend_hits(stack: &Stack) -> Res<Vec<u64>> {
    stack
        .backend_endpoints()
        .iter()
        .map(|ep| match call_endpoint(ep, &Request::CacheStats)? {
            Response::CacheStats(s) => Ok(s.hits),
            other => Err(format!("cache-stats answered {other:?}").into()),
        })
        .collect()
}
