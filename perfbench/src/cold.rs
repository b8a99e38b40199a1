//! `cold_bel` and `cold_text`: the one-shot `ease recommend` path, closed
//! loop, one client.
//!
//! Each query repeats in-process what the CLI does — `EaseService::load`
//! → `open_path` → `serve::render_recommendation` — on R-MAT graphs from a
//! small cycled set, sharing nothing between queries; serving and
//! inference are idle. On `cold_bel` the graphs are memory-mapped `.bel`
//! files and triangle counting does almost all the work; on `cold_text`
//! they are text edge lists of the same sizes, so parsing
//! (`io::read_edge_list`) and the CSR and degree builds over an owned
//! graph take a large share.

use crate::layers::{self, Ask, Kernel, Stack};
use crate::report::{Kind, Report};
use crate::setup::{self, Res, WorkDir};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::Args;
use ease::OptGoal;
use ease_procsim::Workload;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// The cycled graph set of one cold workload.
pub struct Shape {
    workload: &'static str,
    /// File extension: `bel` (memory-mapped) or `txt` (parsed).
    ext: &'static str,
    /// `(|V|, |E|)` of each graph, in the order the loop cycles them.
    graphs: &'static [(usize, usize)],
}

/// Four graphs of one size and one twice as large. With one size only,
/// every query would cost the same and the p90 would sit on the edge of
/// the host's slow spells, moving with how many of them a run caught. With
/// a fifth of the queries large, the p90 reads the middle of the large
/// queries' latencies and the p50 the middle of the others'.
const MIX: [(usize, usize); 5] = [
    (1 << 16, 400_000),
    (1 << 16, 400_000),
    (1 << 16, 400_000),
    (1 << 16, 400_000),
    (1 << 17, 800_000),
];

pub const BEL: Shape = Shape { workload: "cold_bel", ext: "bel", graphs: &MIX };
pub const TEXT: Shape = Shape { workload: "cold_text", ext: "txt", graphs: &MIX };
/// p90 is supported from 100 samples; a run keeps going past `--seconds`
/// until it has these many, within [`HARD_CAP`].
const MIN_SAMPLES: usize = 110;
const HARD_CAP: Duration = Duration::from_secs(120);

pub fn run_bel(args: &Args, work: &WorkDir, report: &mut Report) -> Res<()> {
    run(&BEL, args, work, report)
}

pub fn run_text(args: &Args, work: &WorkDir, report: &mut Report) -> Res<()> {
    run(&TEXT, args, work, report)
}

fn run(shape: &Shape, args: &Args, work: &WorkDir, report: &mut Report) -> Res<()> {
    let seed = args.seed;
    let (dir, setup_secs) = setup::timed_setups(work, |dir| {
        setup::prepare(shape.workload, dir, seed)?;
        Ok(dir.to_path_buf())
    })?;
    let model = dir.join("ease.model");
    let trained = ease::EaseService::load(&model)?.supported_workloads();
    let asks: Vec<Ask> = (0..shape.graphs.len())
        .map(|i| Ask {
            graph: dir.join(format!("cold{i}.{}", shape.ext)).to_string_lossy().into_owned(),
            workload: Workload::from_name(trained[(i + seed as usize) % trained.len()])
                .expect("trained workloads have names"),
            goal: if i % 2 == 0 { OptGoal::EndToEnd } else { OptGoal::ProcessingOnly },
        })
        .collect();
    let references = layers::references(&model, &asks)?;
    report.phase("reference", asks.len() as u64, 0, false);
    report.param(
        "cold.graphs",
        shape
            .graphs
            .iter()
            .map(|(v, e)| format!("R-MAT C6 |V|={v} |E|={e} (.{})", shape.ext))
            .collect::<Vec<_>>()
            .join(", "),
    );
    report.param("cold.clients", "1 (closed loop)");
    report.param("setup_s.reps", format!("{setup_secs:?}"));

    let seconds = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let (lat, elapsed) = untraced(report, &model, &asks, &references, seconds)?;
        let p50 = stats::percentile(&lat, 500).ok_or("too few samples for a median")?;
        report.metric(Kind::EndToEnd, "p50_ms", p50.value * 1e3, "ms").samples = p50.samples;
        let tail = stats::percentile(&lat, 900).ok_or("too few samples for a tail")?;
        let m = report.metric(Kind::EndToEnd, "tail_ms", tail.value * 1e3, "ms");
        m.samples = tail.samples;
        m.note = format!("{} ({} beyond)", stats::label(tail.per_mille), tail.beyond);
        report.metric(Kind::EndToEnd, "qps", lat.len() as f64 / elapsed, "1/s").samples = lat.len();
        report
            .metric(Kind::EndToEnd, "setup_s", stats::median(&setup_secs).unwrap_or(0.0), "s")
            .samples = setup_secs.len();
        report.metric(Kind::EndToEnd, "peak_rss_mb", setup::peak_rss_mb()?, "MB");
        return Ok(());
    }

    // traced run: untraced and traced queries alternate, so the overhead
    // (traced minus untraced median) is not a drift between two halves
    let selections: Vec<String> =
        asks.iter().map(|a| layers::reference_selection(&model, a)).collect::<Res<_>>()?;
    let kernels: HashMap<String, Kernel> =
        asks.iter().map(|a| Ok((a.graph.clone(), layers::kernel_of(a)?))).collect::<Res<_>>()?;
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch);
    let mut graph_of = HashMap::new();
    let (mut lookups, mut hits, mut evictions) = (0u64, 0u64, 0u64);
    let mut gaps = Vec::new();
    let mut untraced_lat = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while start.elapsed() < seconds || attempted < 20 {
        let i = attempted as usize % asks.len();
        let ask = &asks[i];
        attempted += 1;
        // the second query of a pair finds the graph warm in the CPU
        // caches, so which one goes first alternates between pairs
        let traced_first = attempted % 2 == 0;
        let mut first_done: Option<Instant> = None;
        for traced in [traced_first, !traced_first] {
            if let Some(done) = first_done {
                gaps.push(done.elapsed().as_nanos() as f64);
            }
            if traced {
                match layers::cold_query_traced(&mut tr, attempted, &model, ask) {
                    Ok((selection, cache)) => {
                        if layers::selection_key(&selection) != selections[i] {
                            failed += 1;
                            report.mismatch(format!(
                                "traced cold query {attempted} on {}",
                                ask.graph
                            ));
                        }
                        lookups += cache.hits + cache.misses;
                        hits += cache.hits;
                        evictions += cache.evictions;
                    }
                    Err(e) => {
                        failed += 1;
                        report.mismatch(format!("traced cold query {attempted}: {e}"));
                    }
                }
            } else {
                let t = Instant::now();
                let answer = ask.one_shot(&model);
                untraced_lat.push(t.elapsed().as_secs_f64());
                if !matches!(&answer, Ok(text) if *text == references[i]) {
                    failed += 1;
                    report.mismatch(format!("untraced cold query {attempted} on {}", ask.graph));
                }
            }
            first_done = Some(Instant::now());
        }
        graph_of.insert(attempted, ask.graph.clone());
    }
    report.phase("cold.traced+untraced", 2 * attempted, failed, true);
    let spans = tr.spans().to_vec();
    layers::report_cold_stages(report, &spans, &kernels, &graph_of);

    // the root's own time is what no stage accounts for
    let roots: Vec<f64> =
        spans.iter().filter(|s| s.name == "cold.query").map(|s| s.duration() as f64).collect();
    let selfs = trace::self_times(&spans);
    let unaccounted: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "cold.query")
        .map(|(_, &o)| o as f64)
        .collect();
    layers::wait_metrics(report, &unaccounted, "cold query time outside every stage span");

    // warm handler replay and idle probes on the same graphs and queries
    let graphs: Vec<String> = asks.iter().map(|a| a.graph.clone()).collect();
    let (service, fingerprints) = layers::warm_service(&model, &graphs)?;
    let mut replay = Tracer::new(epoch);
    let requests: Vec<(u64, ease::serve::Request, &str)> = (0..400)
        .map(|j| (j as u64, asks[j % asks.len()].request(), references[j % asks.len()].as_str()))
        .collect();
    layers::replay_handler(&mut replay, &service, &fingerprints, &requests)?;
    layers::report_handler(report, replay.spans());
    let stack = Stack::start(&model, 1, true)?;
    layers::probes(report, &stack, &asks[0], &references[0])?;
    drop(stack);

    let late = stats::percentile(&gaps, 990);
    let m =
        report.metric(Kind::Layer, "loadgen.late_ms", late.map_or(0.0, |p| p.value / 1e6), "ms");
    m.samples = gaps.len();
    m.note = format!(
        "closed loop: gap between one answer and the next query, {}",
        late.map_or("unsupported".into(), |p| stats::label(p.per_mille))
    );
    let ratio = stats::HitRatio { hits, lookups };
    layers::cache_metrics(report, ratio, evictions);
    report.metric(Kind::Layer, "router.sheds", 0.0, "count").note =
        "no router on the one-shot path".into();
    report.metric(Kind::Layer, "serve.errors", failed as f64, "count");

    let traced_p50 =
        stats::percentile(&roots, 500).ok_or("too few traced cold queries")?.value / 1e6;
    let untraced_p50 =
        stats::percentile(&untraced_lat, 500).ok_or("too few untraced cold queries")?.value * 1e3;
    layers::overhead(report, traced_p50, untraced_p50);
    stage_sum_check(report, &spans, untraced_p50);

    tr.absorb(replay);
    layers::report_self_times(report, tr.spans());
    tr.write_jsonl(&crate::spans_path(args))?;
    Ok(())
}

/// A cold workload's inputs: its R-MAT files.
pub fn inputs(shape: &Shape, dir: &Path, seed: u64) -> Res<()> {
    for (i, &(vertices, edges)) in shape.graphs.iter().enumerate() {
        let path = dir.join(format!("cold{i}.{}", shape.ext));
        setup::rmat_file(&path, vertices, edges, graph_seed(seed, i))?;
    }
    Ok(())
}

/// Seed of the `i`-th graph of a run: distinct per graph and per workload
/// seed.
fn graph_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(i as u64)
}

/// The measured closed loop: one-shot queries back to back for at least
/// `seconds` and [`MIN_SAMPLES`] queries. Returns each latency and the
/// loop's wall time, in seconds.
fn untraced(
    report: &mut Report,
    model: &Path,
    asks: &[Ask],
    references: &[String],
    seconds: Duration,
) -> Res<(Vec<f64>, f64)> {
    let mut lat = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while (start.elapsed() < seconds || lat.len() < MIN_SAMPLES) && start.elapsed() < HARD_CAP {
        let i = attempted as usize % asks.len();
        attempted += 1;
        let t = Instant::now();
        let answer = asks[i].one_shot(model);
        lat.push(t.elapsed().as_secs_f64());
        match answer {
            Ok(text) if text == references[i] => {}
            Ok(_) => {
                failed += 1;
                report.mismatch(format!("cold query {attempted} on {}", asks[i].graph));
            }
            Err(e) => {
                failed += 1;
                report.mismatch(format!("cold query {attempted}: {e}"));
            }
        }
    }
    report.phase("cold", attempted, failed, true);
    Ok((lat, start.elapsed().as_secs_f64()))
}

/// Consistency check: the medians of the stage spans add up to the
/// untraced one-shot median, within the tracing overhead and the time a
/// query spends outside every stage.
fn stage_sum_check(report: &mut Report, spans: &[trace::Span], untraced_p50_ms: f64) {
    let layers = trace::by_layer(spans);
    let sum: f64 = layers::COLD_STAGES
        .iter()
        .filter_map(|s| layers.get(s))
        .map(|(total, _)| stats::median(total).unwrap_or(0.0) / 1e6)
        .sum();
    let m = report.metric(Kind::Info, "cold.stage_sum_ms", sum, "ms");
    m.note = format!(
        "sum of stage medians; untraced p50 {untraced_p50_ms:.3} ms, difference {:.3} ms",
        untraced_p50_ms - sum
    );
}
