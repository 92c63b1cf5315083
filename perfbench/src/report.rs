//! Metric names, the result line, the layer map and the run history.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use crate::stats::Summary;

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
}

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "rounds_per_s",
        unit: "1/s",
    },
    EndToEnd {
        name: "samples_per_s",
        unit: "1/s",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
    },
    EndToEnd {
        name: "final_loss",
        unit: "nats",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
    },
];

/// A per-layer metric, with the layer it measures and the end-to-end
/// metric and workload it should move.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Crate and module.
    pub layer: &'static str,
    /// The end-to-end metric a change to this layer should move.
    pub moves: &'static str,
    /// Where it should move (and, in parentheses, where little or not).
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        layer,
        moves,
        on,
    }
}

/// The per-layer metrics every workload reports with `--trace 1`. A layer
/// that is not on a workload's path reports 0 there (a microcall still
/// runs at that workload's shape).
pub const PER_LAYER: [Layer; 34] = [
    layer(
        "core.reply_ms",
        "ms",
        "rna-core rna/hier",
        "rounds_per_s",
        "des_hier_wide (des_flat_10k)",
    ),
    layer(
        "core.probe_us",
        "us",
        "rna-core rna",
        "rounds_per_s",
        "des_flat_10k",
    ),
    layer(
        "core.compute_done_us",
        "us",
        "rna-core rna + sim::Ctx::begin_compute",
        "samples_per_s",
        "des_flat_10k, des_hier_wide",
    ),
    layer(
        "core.reduce_done_ms",
        "ms",
        "rna-core rna",
        "rounds_per_s",
        "des_flat_10k",
    ),
    layer(
        "core.ps_done_ms",
        "ms",
        "rna-core hier",
        "rounds_per_s",
        "des_hier_wide only",
    ),
    layer(
        "core.events_per_round",
        "count",
        "rna-core sim",
        "- (work count)",
        "both DES",
    ),
    layer(
        "core.probe_useful_ratio",
        "ratio",
        "rna-core probe",
        "rounds_per_s",
        "both DES",
    ),
    layer(
        "core.contributors_per_round",
        "count",
        "rna-core rna",
        "final_loss, core.reply_ms",
        "des_hier_wide",
    ),
    layer(
        "core.probe_retries",
        "count",
        "rna-core probe",
        "failed share",
        "both DES",
    ),
    layer(
        "sim.engine_self_ms_per_round",
        "ms",
        "rna-core sim + rna-simnet",
        "rounds_per_s",
        "des_flat_10k (des_hier_wide)",
    ),
    layer(
        "sim.virtual_s",
        "s",
        "rna-core sim",
        "- (guard: pure-speed changes keep it)",
        "both DES",
    ),
    layer(
        "simnet.queue_ns_per_event",
        "ns",
        "rna-simnet queue",
        "rounds_per_s",
        "des_flat_10k",
    ),
    layer(
        "training.grad_us",
        "us",
        "rna-training model",
        "samples_per_s",
        "des_hier_wide (process_int8)",
    ),
    layer(
        "training.apply_us",
        "us",
        "rna-training optimizer",
        "rounds_per_s",
        "des_hier_wide",
    ),
    layer(
        "training.eval_ms",
        "ms",
        "rna-training model",
        "rounds_per_s",
        "des_hier_wide",
    ),
    layer(
        "tensor.encode_us",
        "us",
        "rna-tensor codec",
        "rounds_per_s",
        "des_hier_wide (des_flat_10k, process_int8)",
    ),
    layer(
        "tensor.decode_us",
        "us",
        "rna-tensor codec",
        "rounds_per_s",
        "des_hier_wide",
    ),
    layer(
        "tensor.reduce_us",
        "us",
        "rna-collectives partial + rna-tensor reduce",
        "rounds_per_s",
        "des_hier_wide",
    ),
    layer(
        "tensor.wire_ratio",
        "ratio",
        "rna-tensor codec",
        "- (guard)",
        "all",
    ),
    layer(
        "ps.push_us",
        "us",
        "rna-ps replica",
        "rounds_per_s",
        "des_hier_wide only",
    ),
    layer(
        "ps.pull_blended_us",
        "us",
        "rna-ps replica",
        "rounds_per_s",
        "des_hier_wide only",
    ),
    layer(
        "runtime.frame_encode_us",
        "us",
        "rna-runtime proto",
        "rounds_per_s",
        "process_int8",
    ),
    layer(
        "runtime.frame_decode_us",
        "us",
        "rna-runtime proto",
        "rounds_per_s",
        "process_int8",
    ),
    layer(
        "runtime.loopback_rtt_us",
        "us",
        "rna-runtime proto",
        "rounds_per_s",
        "process_int8",
    ),
    layer(
        "runtime.handshake_us",
        "us",
        "rna-runtime proto",
        "setup_s",
        "process_int8",
    ),
    layer(
        "runtime.round_overhead_us",
        "us",
        "rna-runtime process/transport/worker",
        "rounds_per_s (its ceiling)",
        "process_int8",
    ),
    layer(
        "runtime.wire_bytes_per_round",
        "B",
        "rna-runtime process (DES: charged bytes)",
        "- (guard)",
        "process_int8",
    ),
    layer(
        "runtime.reconnects",
        "count",
        "rna-runtime process",
        "failed share",
        "process_int8",
    ),
    layer(
        "runtime.auth_rejects",
        "count",
        "rna-runtime proto",
        "failed share",
        "process_int8",
    ),
    layer(
        "runtime.rounds_degraded",
        "count",
        "rna-runtime transport",
        "failed share",
        "process_int8",
    ),
    layer(
        "trace.rounds_per_s_untraced",
        "1/s",
        "benchmark",
        "- (overhead base)",
        "all",
    ),
    layer(
        "trace.rounds_per_s_traced",
        "1/s",
        "benchmark",
        "- (overhead base)",
        "all",
    ),
    layer(
        "trace.overhead_share",
        "ratio",
        "benchmark",
        "- (1 - traced/untraced)",
        "all",
    ),
    layer(
        "trace.unattributed_share",
        "ratio",
        "rna-core sim (DES) / rna-runtime (process)",
        "rounds_per_s",
        "all",
    ),
];

/// One reported metric: its value and, where the run took several
/// samples, the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

/// Everything one run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed correctness checks.
    pub errors: Vec<String>,
    /// Rounds asked of the program.
    pub attempted: u64,
    /// Rounds missing or degraded.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra lines for the table (span breakdown).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric from its samples; the value is their median.
    pub fn median(&mut self, name: &'static str, samples: Vec<f64>) {
        let value = crate::stats::median(&samples);
        self.push(name, value, samples);
    }

    /// Records a metric from its samples; the value is their mean.
    pub fn mean(&mut self, name: &'static str, samples: Vec<f64>) {
        let value = crate::stats::mean(&samples);
        self.push(name, value, samples);
    }

    /// Records a metric with an explicit value.
    pub fn value(&mut self, name: &'static str, value: f64) {
        self.push(name, value, vec![value]);
    }

    fn push(&mut self, name: &'static str, value: f64, samples: Vec<f64>) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.errors.push(what.into());
    }

    /// Checks that exactly the declared metrics of one kind were reported,
    /// each once and finite.
    pub fn check_complete(&mut self, trace: bool) {
        let want: Vec<&str> = if trace {
            PER_LAYER.iter().map(|l| l.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let rank = |name: &str| want.iter().position(|&w| w == name).unwrap_or(usize::MAX);
        self.metrics.sort_by_key(|m| rank(m.name));
        let got: Vec<&str> = self.metrics.iter().map(|m| m.name).collect();
        if got != want {
            self.fail(format!("reported metrics {got:?}, declared {want:?}"));
        }
        let bad: Vec<&str> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name)
            .collect();
        for name in bad {
            self.fail(format!("metric {name} is not finite"));
        }
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|l| l.name == name).map(|l| l.unit))
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.errors.is_empty(),
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
/// Non-finite values (already failed by [`Outcome::check_complete`]) are
/// written as 0 so the line still parses.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The human-readable table printed above the result line.
pub fn table(workload: &str, outcome: &Outcome, trace: bool) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "workload {workload}");
    if trace {
        let _ = writeln!(
            s,
            "{:<32} {:>14} {:<6} {:<44} {:<28} on workload",
            "per-layer metric", "value", "unit", "layer", "should move"
        );
        for m in &outcome.metrics {
            let l = PER_LAYER
                .iter()
                .find(|l| l.name == m.name)
                .expect("reported metrics are declared");
            let _ = writeln!(
                s,
                "{:<32} {:>14.4} {:<6} {:<44} {:<28} {}",
                m.name, m.value, m.unit, l.layer, l.moves, l.on
            );
        }
    } else {
        let _ = writeln!(
            s,
            "{:<16} {:>14} {:<6} {:>12} {:>12} {:>8} {:>4}",
            "metric", "value", "unit", "q1", "q3", "iqr/med", "n"
        );
        for m in &outcome.metrics {
            let q = Summary::of(&m.samples);
            let _ = writeln!(
                s,
                "{:<16} {:>14.4} {:<6} {:>12.4} {:>12.4} {:>8.4} {:>4}",
                m.name,
                m.value,
                m.unit,
                q.q1,
                q.q3,
                q.spread(),
                q.n
            );
        }
    }
    let _ = writeln!(
        s,
        "failed_share {} ({} of {} rounds missing or degraded)",
        crate::stats::share(outcome.failed, outcome.attempted),
        outcome.failed,
        outcome.attempted
    );
    for n in &outcome.notes {
        let _ = writeln!(s, "{n}");
    }
    for e in &outcome.errors {
        let _ = writeln!(s, "CHECK FAILED: {e}");
    }
    s
}

/// Identity of the run for the history.
pub struct RunInfo<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub unix_s: u64,
    pub source_digest: String,
    pub commit: Option<String>,
    pub cpu_features: Vec<&'static str>,
    pub threads: usize,
}

/// One history line: the run's identity, its verdict and each metric's
/// median and quartiles over the run's samples.
pub fn history_line(info: &RunInfo<'_>, outcome: &Outcome) -> String {
    let mut s = format!(
        "{{\"unix_s\": {}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"source_digest\": \"{}\", \"commit\": {}, \"cpu_features\": [{}], \"threads\": {}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        info.unix_s,
        info.workload,
        info.seed,
        info.seconds,
        info.trace,
        info.source_digest,
        info.commit
            .as_ref()
            .map_or_else(|| "null".to_string(), |c| format!("\"{c}\"")),
        info.cpu_features
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", "),
        info.threads,
        outcome.errors.is_empty(),
        outcome.attempted,
        outcome.failed,
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let q = Summary::of(&m.samples);
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
            m.name,
            json_number(m.value),
            m.unit,
            json_number(q.median),
            json_number(q.q1),
            json_number(q.q3),
            q.n
        );
    }
    s.push_str("}}");
    s
}

/// Appends `line` to the history file, creating it on first use.
pub fn append_history(path: &Path, line: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")?;
    f.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for m in &END_TO_END {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(json.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
        for l in &PER_LAYER {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", l.name, l.unit);
            assert!(json.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
        let declared = json.matches("\"name\":").count();
        let workloads = json.matches("\"why\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + workloads);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut o = Outcome {
            attempted: 40,
            ..Outcome::default()
        };
        o.median("rounds_per_s", vec![2.0, 4.0, 3.0]);
        o.value("setup_s", 0.125);
        let line = result_line(&o);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 40, \"failed\": 0, \"metrics\": {\
             \"rounds_per_s\": {\"value\": 3, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}}}"
        );
        o.fail("x");
        assert!(result_line(&o).starts_with("{\"correct\": false"));
    }

    #[test]
    fn completeness_check_flags_missing_and_non_finite_metrics() {
        let mut o = Outcome::default();
        o.value("rounds_per_s", f64::NAN);
        o.check_complete(false);
        assert_eq!(o.errors.len(), 2);
    }

    #[test]
    fn history_line_carries_quartiles() {
        let mut o = Outcome::default();
        o.median("rounds_per_s", (1..=10).map(f64::from).collect());
        let info = RunInfo {
            workload: "w",
            seed: 3,
            seconds: 1,
            trace: false,
            unix_s: 9,
            source_digest: "ab".into(),
            commit: None,
            cpu_features: vec!["avx2"],
            threads: 2,
        };
        let line = history_line(&info, &o);
        assert!(line.contains("\"median\": 5.5, \"q1\": 2.75, \"q3\": 8.25, \"n\": 10"));
        assert!(line.contains("\"commit\": null"));
        assert!(line.contains("\"cpu_features\": [\"avx2\"]"));
    }
}
