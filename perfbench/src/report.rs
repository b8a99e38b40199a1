//! Collecting, printing and saving one run's results. The human-readable
//! lines come first; the last line of standard output is the one JSON
//! object the benchmark contract asks for.

use std::fmt::Write as _;
use std::path::Path;

/// Which list of `BENCHMARK.json` a metric belongs to. `Info` metrics are
/// printed and saved but never gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    Layer,
    Info,
}

#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub kind: Kind,
    /// Samples behind the value (0 when it is a count or a single reading).
    pub samples: usize,
    /// What the value is, when the name alone does not say (e.g. which
    /// percentile a tail is).
    pub note: String,
}

/// Attempted / succeeded / failed requests of one phase.
#[derive(Debug)]
pub struct Phase {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
    /// Whether the phase's requests enter `attempted`/`failed` of the
    /// result line (warm-up and reference phases do not).
    pub measured: bool,
}

#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub phases: Vec<Phase>,
    /// Workload parameters and run metadata, printed and saved verbatim.
    pub params: Vec<(String, String)>,
    /// Answers that did not match their reference, with context.
    pub mismatches: Vec<String>,
    /// Run-level conditions worth reading beside the numbers (e.g. open-loop
    /// windows left out because the generator ran late). They do not make
    /// answers wrong, so they leave `correct` alone.
    pub warnings: Vec<String>,
}

impl Report {
    pub fn metric(
        &mut self,
        kind: Kind,
        name: &str,
        value: f64,
        unit: &'static str,
    ) -> &mut Metric {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            kind,
            samples: 0,
            note: String::new(),
        });
        self.metrics.last_mut().expect("just pushed")
    }

    pub fn param(&mut self, key: &str, value: impl ToString) {
        self.params.push((key.to_string(), value.to_string()));
    }

    pub fn phase(&mut self, name: &str, attempted: u64, failed: u64, measured: bool) {
        self.phases.push(Phase { name: name.to_string(), attempted, failed, measured });
    }

    pub fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 20 {
            self.mismatches.push(what);
        }
    }

    fn totals(&self) -> (u64, u64) {
        self.phases
            .iter()
            .filter(|p| p.measured)
            .fold((0, 0), |(a, f), p| (a + p.attempted, f + p.failed))
    }

    fn correct(&self) -> bool {
        let (attempted, failed) = self.totals();
        self.mismatches.is_empty()
            && attempted > 0
            && failed == 0
            && self.phases.iter().all(|p| p.failed == 0)
    }

    /// Print every metric and phase by name, save the full result under
    /// `out_dir`, and print the contract's JSON line last.
    pub fn finish(&self, trace: bool, out_file: &Path) -> std::io::Result<()> {
        let gated = if trace { Kind::Layer } else { Kind::EndToEnd };
        for (k, v) in &self.params {
            println!("param {k} = {v}");
        }
        for p in &self.phases {
            println!(
                "phase {:<24} attempted {:>8} succeeded {:>8} failed {:>4}{}",
                p.name,
                p.attempted,
                p.attempted - p.failed,
                p.failed,
                if p.measured { "" } else { "  (not measured)" }
            );
        }
        for m in &self.metrics {
            let tag = match m.kind {
                Kind::EndToEnd => "e2e ",
                Kind::Layer => "layer",
                Kind::Info => "info ",
            };
            println!(
                "{tag} {:<34} {:>16.6} {:<6} n={:<7} {}",
                m.name, m.value, m.unit, m.samples, m.note
            );
        }
        for m in &self.mismatches {
            println!("MISMATCH {m}");
        }
        for m in &self.warnings {
            println!("WARNING {m}");
        }
        let (attempted, failed) = self.totals();
        let error_rate = if attempted > 0 { failed as f64 / attempted as f64 } else { 0.0 };
        println!("error_rate = {error_rate} ({failed} failed / {attempted} attempted)");

        let mut metrics = String::new();
        for m in self.metrics.iter().filter(|m| m.kind == gated) {
            if !m.value.is_finite() {
                return Err(std::io::Error::other(format!("metric {} is not finite", m.name)));
            }
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        let line = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
            self.correct()
        );
        self.save(out_file, &line)?;
        println!("saved {}", out_file.display());
        println!("{line}");
        Ok(())
    }

    /// The full result as one JSON document: the result line plus every
    /// metric (with samples and notes), phase and parameter.
    fn save(&self, path: &Path, line: &str) -> std::io::Result<()> {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let mut doc = format!("{{\n  \"result\": {line},\n  \"params\": {{");
        for (i, (k, v)) in self.params.iter().enumerate() {
            let _ =
                write!(doc, "{}\n    \"{}\": \"{}\"", if i > 0 { "," } else { "" }, esc(k), esc(v));
        }
        doc.push_str("\n  },\n  \"phases\": [");
        for (i, p) in self.phases.iter().enumerate() {
            let _ = write!(
                doc,
                "{}\n    {{\"name\": \"{}\", \"attempted\": {}, \"failed\": {}, \"measured\": {}}}",
                if i > 0 { "," } else { "" },
                esc(&p.name),
                p.attempted,
                p.failed,
                p.measured
            );
        }
        doc.push_str("\n  ],\n  \"metrics\": [");
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
            let _ = write!(
                doc,
                "{}\n    {{\"name\": \"{}\", \"kind\": \"{:?}\", \"value\": {value}, \"unit\": \"{}\", \"samples\": {}, \"note\": \"{}\"}}",
                if i > 0 { "," } else { "" },
                esc(&m.name),
                m.kind,
                m.unit,
                m.samples,
                esc(&m.note)
            );
        }
        doc.push_str("\n  ]\n}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc)
    }
}
