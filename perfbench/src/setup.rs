//! Set-up shared by the workloads: the scratch directory inside the
//! checkout, the model, the generated graphs, and the run metadata.

use ease::profiling::TimingMode;
use ease::EaseServiceBuilder;
use ease_graph::bel::BelWriter;
use ease_graph::io::TextEdgeListWriter;
use ease_graphgen::realworld::{generate_typed, GraphType};
use ease_graphgen::rmat::{Rmat, RMAT_COMBOS};
use ease_graphgen::Scale;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The R-MAT parameter combination of `ease gen --kind rmat` (C6).
const RMAT_COMBO: usize = 5;

/// A scratch directory under `.bench_work/` in the checkout, removed when
/// dropped.
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    pub fn create(tag: &str) -> Res<WorkDir> {
        let root = PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir { root })
    }

    /// A fresh, empty subdirectory.
    pub fn sub(&self, name: &str) -> Res<PathBuf> {
        let dir = self.root.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

/// Train the benchmark's model (tiny scale, quick grid, deterministic
/// timing, the builder's default seed, so every run answers alike) and
/// persist it at `path`.
fn train_model(path: &Path) -> Res<()> {
    let service = EaseServiceBuilder::at_scale(Scale::Tiny)
        .quick_grid()
        .timing(TimingMode::Deterministic)
        .train()?;
    service.save(path)?;
    Ok(())
}

/// Stream an R-MAT graph straight into a file, as
/// `ease gen --kind rmat --format <bel|txt>` does: binary `.bel` when the
/// path ends in `.bel`, a text edge list otherwise.
pub fn rmat_file(path: &Path, vertices: usize, edges: usize, seed: u64) -> Res<()> {
    let rmat = Rmat::new(RMAT_COMBOS[RMAT_COMBO], vertices, edges, seed);
    let mut write_error = None;
    if ease_graph::is_bel_path(path) {
        let mut out = BelWriter::create(path)?;
        rmat.generate_into(&mut |e| {
            if write_error.is_none() {
                write_error = out.push(e).err();
            }
        });
        write_error.map_or(Ok(()), Err)?;
        out.finish_with_vertices(vertices)?;
    } else {
        let mut out = TextEdgeListWriter::create(path)?;
        rmat.generate_into(&mut |e| {
            if write_error.is_none() {
                write_error = out.push(e).err();
            }
        });
        write_error.map_or(Ok(()), Err)?;
        out.finish_with_vertices(vertices)?;
    }
    Ok(())
}

/// Write the `idx`-th real-world analogue of `kind` as a text edge list,
/// as `ease gen --kind <kind> --scale <scale>` does. Returns `|E|`.
pub fn analogue_text(
    path: &Path,
    kind: GraphType,
    idx: usize,
    scale: Scale,
    seed: u64,
) -> Res<usize> {
    let graph = generate_typed(kind, idx, scale, seed).graph;
    ease_graph::io::write_edge_list(&graph, path)?;
    Ok(graph.num_edges())
}

/// Generate `workload`'s inputs into `dir` and train the model there, in a
/// child process (this binary with `--prepare`): the measuring process
/// then receives only the generated files, and its peak RSS holds only
/// what serving the workload needs.
pub fn prepare(workload: &str, dir: &Path, seed: u64) -> Res<()> {
    let status = std::process::Command::new(std::env::current_exe()?)
        .arg("--prepare")
        .arg(workload)
        .arg(dir)
        .arg(seed.to_string())
        .status()?;
    if !status.success() {
        return Err(format!("preparing {workload} inputs failed: {status}").into());
    }
    Ok(())
}

/// The `--prepare` child: one workload's inputs plus the model.
pub fn prepare_child(workload: &str, dir: &Path, seed: u64) -> Res<()> {
    match workload {
        "cold_bel" => crate::cold::inputs(&crate::cold::BEL, dir, seed)?,
        "cold_text" => crate::cold::inputs(&crate::cold::TEXT, dir, seed)?,
        "warm_v2" => crate::warm::inputs(dir, seed)?,
        "fleet_http_churn" => crate::fleet::inputs(dir, seed)?,
        other => return Err(format!("unknown workload {other}").into()),
    }
    train_model(&dir.join("ease.model"))
}

/// Run `once` [`SETUP_REPS`] times, each in a fresh directory, timing each
/// call. Every result but the last is dropped (and with it any daemon it
/// started) outside the timed section; the last one is returned with all
/// durations.
pub fn timed_setups<T>(
    work: &WorkDir,
    mut once: impl FnMut(&Path) -> Res<T>,
) -> Res<(T, Vec<f64>)> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let dir = work.sub(&format!("setup{rep}"))?;
        drop(last.take());
        let t = Instant::now();
        let value = once(&dir)?;
        secs.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((last.expect("at least one set-up"), secs))
}

/// SplitMix64: the benchmark's own seeded generator for request orders and
/// popularity draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Host and build metadata every result records.
pub fn metadata(report: &mut crate::report::Report, seed: u64) {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    report.param("nproc", nproc);
    report.param("commit", git_commit());
    report.param("seed", seed);
    report.param("held_out_seed", crate::HELD_OUT_SEED);
    report.param("rust_lines_nontest", rust_lines_nontest());
}

/// The checked-out commit when the checkout is a git repository.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

/// Lines of non-test Rust in the program (`src/`, `crates/`, `shims/`):
/// test directories and benches are skipped, and each file is cut at its
/// `#[cfg(test)] mod tests` module. Information only — never gated.
pub fn rust_lines_nontest() -> usize {
    fn walk(dir: &Path, total: &mut usize) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if !matches!(name.to_str(), Some("tests" | "benches" | "fixtures" | "target")) {
                    walk(&path, total);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                if let Ok(text) = std::fs::read_to_string(&path) {
                    let lines: Vec<&str> = text.lines().collect();
                    let is_tests = |w: &[&str]| {
                        w[0].trim() == "#[cfg(test)]" && w[1].trim_start().starts_with("mod tests")
                    };
                    *total += lines.windows(2).position(is_tests).unwrap_or(lines.len());
                }
            }
        }
    }
    let mut total = 0;
    for dir in ["src", "crates", "shims"] {
        walk(Path::new(dir), &mut total);
    }
    total
}
