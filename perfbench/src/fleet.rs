//! `fleet_http_churn`: two closed-loop HTTP clients against a router in
//! front of two daemons.
//!
//! Every request is one `serve::http::call_http` exchange on a fresh
//! connection (as `ease client --endpoint http:` and curl make them), so
//! connections are accepted and sniffed per request, JSON is encoded and
//! decoded at both ends, and the router forwards over its ring. The key
//! space holds text-format `Scale::Small` real-world analogues, twice the
//! fleet's total property-cache capacity, drawn with a seeded Zipf-like
//! popularity: the caches take inserts and evictions beside their hits,
//! and misses go through text ingestion.
//!
//! This workload runs by hand but is not in `BENCHMARK.json`: a request
//! crosses about ten thread hand-offs, and on a shared 2-vCPU host its
//! numbers tripled during busy spells of the host (see `README.md`).

use crate::layers::{self, Ask, Kernel, Stack};
use crate::report::{Kind, Report};
use crate::setup::{self, Res, Rng, WorkDir};
use crate::stats;
use crate::trace::Tracer;
use crate::Args;
use ease::serve::http::call_http;
use ease::serve::{Request, Response};
use ease::OptGoal;
use ease_graphgen::realworld::GraphType;
use ease_graphgen::Scale;
use ease_procsim::Workload;
use std::collections::HashMap;
use std::time::{Duration, Instant};

const BACKENDS: usize = 2;
const CLIENTS: usize = 2;
/// Distinct graphs: twice the fleet's property-cache capacity (2 × 64).
const KEYS: usize = 2 * BACKENDS * ease::service::PROPERTY_CACHE_CAPACITY;
/// Popularity of the key at rank r is proportional to 1 / (r + 1)^ZIPF_S.
const ZIPF_S: f64 = 1.0;
/// The measured loop is judged in this many windows of equal length.
const WINDOWS: usize = 8;
/// Requests sent during set-up so the caches hold the popular keys.
const WARMUP: usize = 400;

pub fn run(args: &Args, work: &WorkDir, report: &mut Report) -> Res<()> {
    let seed = args.seed;
    let ((dir, stack, asks, popularity), setup_secs) = setup::timed_setups(work, |dir| {
        setup::prepare("fleet_http_churn", dir, seed)?;
        let model = dir.join("ease.model");
        let stack = Stack::start(&model, BACKENDS, true)?;
        let trained = ease::EaseService::load(&model)?.supported_workloads();
        let asks = asks(dir, &trained);
        let popularity = Zipf::new(KEYS, Rng::new(seed ^ 0x21ef).permutation(KEYS));
        let addr = stack.router_addr()?.to_string();
        let mut rng = Rng::new(seed ^ 0x3a3a);
        for _ in 0..WARMUP {
            call_http(&addr, &asks[popularity.draw(&mut rng)].request())?;
        }
        Ok((dir.to_path_buf(), stack, asks, popularity))
    })?;
    let model = dir.join("ease.model");
    let references = layers::references(&model, &asks)?;
    report.phase("reference", asks.len() as u64, 0, false);
    report.param("fleet.keys", format!("{KEYS} text Scale::Small real-world analogues"));
    report.param("fleet.cache_capacity", BACKENDS * ease::service::PROPERTY_CACHE_CAPACITY);
    report.param("fleet.zipf_s", ZIPF_S);
    report.param(
        "fleet.clients",
        format!("{CLIENTS} (closed loop, fresh HTTP connection per request)"),
    );
    report.param("fleet.backends", BACKENDS);
    report.param("setup_s.reps", format!("{setup_secs:?}"));
    let addr = stack.router_addr()?.to_string();

    if !args.trace {
        let before = stack.cache_stats()?;
        let run = closed_loop(&addr, &asks, &references, &popularity, seed, args.seconds, None)?;
        let after = stack.cache_stats()?;
        run.record(report, "fleet");
        let done: Vec<(f64, f64)> = run.answered.iter().map(|a| (a.at, a.latency)).collect();
        let windows = stats::by_window(&done, args.seconds, WINDOWS);
        let p50 = stats::median_of_windows(&windows, 500).ok_or("too few fleet samples")?;
        let m = report.metric(Kind::EndToEnd, "p50_ms", p50.value * 1e3, "ms");
        m.samples = p50.samples;
        m.note = format!("median over {WINDOWS} windows");
        let tail = stats::median_of_windows(&windows, 990).ok_or("too few fleet samples")?;
        let m = report.metric(Kind::EndToEnd, "tail_ms", tail.value * 1e3, "ms");
        m.samples = tail.samples;
        m.note = format!(
            "median over {WINDOWS} windows of their {} ({} beyond in the smallest)",
            stats::label(tail.per_mille),
            tail.beyond
        );
        let per_window: Vec<f64> =
            windows.iter().map(|w| w.len() as f64 / (args.seconds / WINDOWS as f64)).collect();
        let m =
            report.metric(Kind::EndToEnd, "qps", stats::median(&per_window).unwrap_or(0.0), "1/s");
        m.samples = run.answered.len();
        m.note = format!("median over {WINDOWS} windows");
        report
            .metric(Kind::EndToEnd, "setup_s", stats::median(&setup_secs).unwrap_or(0.0), "s")
            .samples = setup_secs.len();
        report.metric(Kind::EndToEnd, "peak_rss_mb", setup::peak_rss_mb()?, "MB");
        miss_share(report, before, after);
        return Ok(());
    }

    // traced run: half untraced (the overhead baseline), half traced
    let half = args.seconds / 2.0;
    let untraced = closed_loop(&addr, &asks, &references, &popularity, seed, half, None)?;
    untraced.record(report, "fleet.untraced");
    let epoch = Instant::now();
    let before = stack.cache_stats()?;
    let mut traced =
        closed_loop(&addr, &asks, &references, &popularity, seed ^ 1, half, Some(epoch))?;
    let after = stack.cache_stats()?;
    traced.record(report, "fleet.traced");
    let ratio = miss_share(report, before, after);
    layers::cache_metrics(report, ratio, after.2 - before.2);
    let mut tr = traced.tracer.take().ok_or("traced loop returned no spans")?;
    let m = report.metric(
        Kind::Layer,
        "loadgen.late_ms",
        stats::percentile(&traced.gaps, 990).map_or(0.0, |p| p.value * 1e3),
        "ms",
    );
    m.samples = traced.gaps.len();
    m.note = "closed loop: gap between one answer and the client's next request".into();

    // cold stages on graphs that miss: the least popular keys, whose
    // text is parsed on every miss
    let mut cold = Tracer::new(epoch);
    let mut kernels: HashMap<String, Kernel> = HashMap::new();
    let mut graph_of = HashMap::new();
    for (i, &key) in popularity.by_rank.iter().rev().take(8).enumerate() {
        layers::cold_query_traced(&mut cold, i as u64, &model, &asks[key])?;
        kernels.insert(asks[key].graph.clone(), layers::kernel_of(&asks[key])?);
        graph_of.insert(i as u64, asks[key].graph.clone());
    }
    layers::report_cold_stages(report, cold.spans(), &kernels, &graph_of);

    // the handler's calls for the traced requests on cached (popular)
    // keys: the replay service holds the cache's worth of top keys
    let hot: Vec<usize> =
        popularity.by_rank.iter().copied().take(ease::service::PROPERTY_CACHE_CAPACITY).collect();
    let graphs: Vec<String> = hot.iter().map(|&k| asks[k].graph.clone()).collect();
    let (service, fingerprints) = layers::warm_service(&model, &graphs)?;
    let requests: Vec<(u64, Request, &str)> = traced
        .answered
        .iter()
        .filter(|a| hot.contains(&a.key))
        .take(3_000)
        .map(|a| (a.id, asks[a.key].request(), references[a.key].as_str()))
        .collect();
    let mut replay = Tracer::new(epoch);
    layers::replay_handler(&mut replay, &service, &fingerprints, &requests)?;
    layers::report_handler(report, replay.spans());
    let latency_ns: HashMap<u64, f64> =
        traced.answered.iter().map(|a| (a.id, a.latency * 1e9)).collect();
    layers::report_wait(report, &latency_ns, replay.spans(), &layers::WARM_JSON);

    let top = popularity.by_rank[0];
    layers::probes(report, &stack, &asks[top], &references[top])?;
    report.metric(Kind::Layer, "router.sheds", traced.sheds as f64, "count");
    report.metric(Kind::Layer, "serve.errors", (traced.failed - traced.sheds) as f64, "count");
    let p50 = |l: &[f64]| stats::percentile(l, 500).map_or(0.0, |p| p.value * 1e3);
    layers::overhead(report, p50(&traced.latencies()), p50(&untraced.latencies()));

    tr.absorb(cold);
    tr.absorb(replay);
    layers::report_self_times(report, tr.spans());
    tr.write_jsonl(&crate::spans_path(args))?;
    Ok(())
}

/// The workload's inputs: `KEYS` text edge lists, the nine analogue
/// families in turn.
pub fn inputs(dir: &std::path::Path, seed: u64) -> Res<()> {
    for key in 0..KEYS {
        setup::analogue_text(
            &dir.join(format!("key{key}.txt")),
            kind(key),
            key / 9,
            Scale::Small,
            seed,
        )?;
    }
    Ok(())
}

/// Graph type of a key: the nine real-world analogue families in turn.
fn kind(key: usize) -> GraphType {
    GraphType::ALL[key % GraphType::ALL.len()]
}

/// One query per key: a trained workload and a goal fixed by the key.
fn asks(dir: &std::path::Path, trained: &[&str]) -> Vec<Ask> {
    (0..KEYS)
        .map(|key| Ask {
            graph: dir.join(format!("key{key}.txt")).to_string_lossy().into_owned(),
            workload: Workload::from_name(trained[key % trained.len()])
                .expect("trained workloads have names"),
            goal: if (key / trained.len()).is_multiple_of(2) {
                OptGoal::EndToEnd
            } else {
                OptGoal::ProcessingOnly
            },
        })
        .collect()
}

/// Seeded Zipf-like popularity over keys.
struct Zipf {
    /// Key at each popularity rank (rank 0 is the most popular).
    by_rank: Vec<usize>,
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(keys: usize, by_rank: Vec<usize>) -> Zipf {
        let weights: Vec<f64> = (0..keys).map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { by_rank, cdf }
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.by_rank.len() - 1);
        self.by_rank[rank]
    }
}

/// One answered request of the closed loop.
struct Answered {
    id: u64,
    key: usize,
    /// Seconds since the loop started, when the answer arrived.
    at: f64,
    latency: f64,
}

/// Result of the closed loop over all clients.
#[derive(Default)]
struct Loop {
    answered: Vec<Answered>,
    gaps: Vec<f64>,
    attempted: u64,
    failed: u64,
    sheds: u64,
    mismatches: Vec<String>,
    tracer: Option<Tracer>,
}

impl Loop {
    fn latencies(&self) -> Vec<f64> {
        self.answered.iter().map(|a| a.latency).collect()
    }

    fn record(&self, report: &mut Report, phase: &str) {
        report.phase(phase, self.attempted, self.failed, true);
        for m in &self.mismatches {
            report.mismatch(m.clone());
        }
    }
}

/// The fleet's miss share over a phase, from fleet-folded cache counters
/// `(hits, misses, evictions)`.
fn miss_share(
    report: &mut Report,
    before: (u64, u64, u64),
    after: (u64, u64, u64),
) -> stats::HitRatio {
    let ratio = stats::HitRatio::between((before.0, before.1), (after.0, after.1));
    let m =
        report.metric(Kind::Info, "fleet.miss_share", 1.0 - ratio.ratio().unwrap_or(0.0), "ratio");
    m.samples = ratio.lookups as usize;
    m.note = format!(
        "{} misses / {} lookups, {} evictions (fleet-folded cache-stats)",
        ratio.misses(),
        ratio.lookups,
        after.2 - before.2
    );
    ratio
}

/// [`CLIENTS`] threads, each sending its next request when the previous
/// answer arrives, for `seconds`. With `trace`, each request is a
/// `client.request` span.
fn closed_loop(
    addr: &str,
    asks: &[Ask],
    references: &[String],
    popularity: &Zipf,
    seed: u64,
    seconds: f64,
    trace: Option<Instant>,
) -> Res<Loop> {
    let requests: Vec<Request> = asks.iter().map(Ask::request).collect();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let requests = &requests;
                s.spawn(move || {
                    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(c as u64));
                    let mut out = Loop { tracer: trace.map(Tracer::new), ..Loop::default() };
                    let mut last: Option<Instant> = None;
                    while Instant::now() < deadline {
                        let key = popularity.draw(&mut rng);
                        // ids interleave the clients: client c sends c, c + CLIENTS, ...
                        let id = out.attempted * CLIENTS as u64 + c as u64;
                        out.attempted += 1;
                        let t = Instant::now();
                        if let Some(l) = last {
                            out.gaps.push((t - l).as_secs_f64());
                        }
                        let answer = call_http(addr, &requests[key]);
                        let done = Instant::now();
                        last = Some(done);
                        if let Some(tr) = out.tracer.as_mut() {
                            tr.record("client.request", id, t, done);
                        }
                        if let Ok(Response::Overloaded { .. }) = answer {
                            out.sheds += 1;
                        }
                        match answer
                            .map_err(|e| e.to_string())
                            .and_then(|r| layers::check(r, &references[key]))
                        {
                            Ok(true) => out.answered.push(Answered {
                                id,
                                key,
                                at: (done - start).as_secs_f64(),
                                latency: (done - t).as_secs_f64(),
                            }),
                            Ok(false) => {
                                out.failed += 1;
                                out.mismatches.push(format!(
                                    "fleet request {id} (key {key}): answer differs"
                                ));
                            }
                            Err(e) => {
                                out.failed += 1;
                                out.mismatches.push(format!("fleet request {id} (key {key}): {e}"));
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
    });
    let mut total = Loop::default();
    for r in results {
        let mut part = r.map_err(|_| "client thread panicked")?;
        total.answered.append(&mut part.answered);
        total.gaps.append(&mut part.gaps);
        total.attempted += part.attempted;
        total.failed += part.failed;
        total.sheds += part.sheds;
        total.mismatches.append(&mut part.mismatches);
        match (total.tracer.as_mut(), part.tracer) {
            (Some(t), Some(p)) => t.absorb(p),
            (None, p) => total.tracer = p,
            _ => {}
        }
    }
    total.answered.sort_unstable_by_key(|a| a.id);
    Ok(total)
}
