//! `perfbench`: one benchmark for the BSA solver stack and `bsa-daemon`.
//!
//! ```console
//! perfbench --workload solve_large|resolve_stream|daemon_mix --seed N --seconds S \
//!           --trace 0|1 [--size full|tiny] [--daemon PATH] [--out-dir DIR]
//! ```
//!
//! Untraced (`--trace 0`) it prints the end-to-end metrics; traced (`--trace 1`) it
//! records spans around every call into a layer and prints the per-layer metrics.
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
//! A result file with the host description (and, traced, a span file) goes to
//! `--out-dir`.  Any failed or mismatched op makes the exit code 1.
//! `perfbench/run.py` builds this binary and the daemon, then runs it.

mod daemon_mix;
mod host;
mod instance;
mod layers;
mod library;
mod stats;
mod trace;

use bsa_daemon::json::{self, obj, Value};
use stats::{geomean, median, quantile, Tally};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

pub struct Settings {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny instances for the smoke test.
    pub tiny: bool,
    pub daemon: PathBuf,
    pub out_dir: PathBuf,
}

impl Settings {
    pub fn size(&self) -> &'static str {
        if self.tiny {
            "tiny"
        } else {
            "full"
        }
    }
}

/// What a workload measured.
pub struct Report {
    /// One duration per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall time of every untraced op.
    pub op_s: Vec<f64>,
    /// Wall time of every traced op (traced runs only).
    pub traced_op_s: Vec<f64>,
    /// Wall time of the measured phase (library workloads: the sum of op times).
    pub measured_s: f64,
    /// Schedule length ÷ critical-path lower bound of every checked result.
    pub nsl: Vec<f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Peak RSS of the process doing the work, when it is not this one.
    pub peak_rss_mb: f64,
    pub tally: Tally,
    pub tracer: Tracer,
}

/// End-to-end metrics, printed by untraced runs.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("ops_per_s", "1/s"),
    ("nsl_geomean", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Layers whose self time traced runs report as `self.<layer>_s`.
const SELF_LAYERS: [&str; 13] = [
    "bsa",
    "pivot",
    "serialization",
    "solver",
    "routing",
    "delta",
    "resolve",
    "validate",
    "baselines",
    "json",
    "wire",
    "server",
    "engine",
];

/// Per-layer metrics, printed by traced runs, with the span or tally each reads.
const PER_LAYER: [(&str, &str); 38] = [
    ("bsa.to_serialized_s", "s"),
    ("bsa.migration_gap_s", "s"),
    ("bsa.migrations", "count"),
    ("bsa.pivot_phases", "count"),
    ("bsa.candidate_evals", "count"),
    ("bsa.accept_ratio", "ratio"),
    ("retime.passes", "count"),
    ("retime.delta_passes", "count"),
    ("retime.flat_passes", "count"),
    ("retime.cone_nodes", "count"),
    ("retime.changed_nodes", "count"),
    ("retime.changed_per_cone_node", "ratio"),
    ("retime.delta_evals", "count"),
    ("serialization.serialize_s", "s"),
    ("pivot.select_s", "s"),
    ("delta.apply_s", "s"),
    ("delta.dirty_tasks", "count"),
    ("resolve.resolve_s", "s"),
    ("resolve.repaired_tasks", "count"),
    ("resolve.repaired_frac", "ratio"),
    ("resolve.s_per_repaired_task", "s"),
    ("solver.problem_new_s", "s"),
    ("routing.table_build_s", "s"),
    ("validate.s", "s"),
    ("baselines.dls_solve_s", "s"),
    ("baselines.heft_solve_s", "s"),
    ("json.parse_s", "s"),
    ("wire.decode_problem_s", "s"),
    ("wire.encode_solution_s", "s"),
    ("wire.request_bytes", "bytes"),
    ("wire.response_bytes", "bytes"),
    ("server.submit_ack_s", "s"),
    ("engine.first_event_s", "s"),
    ("engine.attach_to_end_s", "s"),
    ("engine.completed", "count"),
    ("engine.rejected", "count"),
    ("cache.problem_hit_frac", "ratio"),
    ("cache.routing_hit_frac", "ratio"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn end_to_end_value(name: &str, report: &Report) -> f64 {
    match name {
        "setup_s" => median(&report.setup_s),
        "op_p50_s" => median(&report.op_s),
        "op_p90_s" => quantile(&report.op_s, 0.9),
        "ops_per_s" => ratio(report.op_s.len() as f64, report.measured_s),
        "nsl_geomean" => geomean(&report.nsl),
        "peak_rss_mb" => report.peak_rss_mb,
        other => unreachable!("unknown end-to-end metric {other}"),
    }
}

fn per_layer_value(name: &str, report: &Report) -> f64 {
    let tally = &report.tally;
    let span_p50 = |span: &str| median(&report.tracer.durations(span));
    match name {
        "bsa.migration_gap_s" => tally.median("bsa.migration_gap"),
        "bsa.accept_ratio" => ratio(
            tally.total("bsa.migrations"),
            tally.total("bsa.candidate_evals"),
        ),
        "retime.changed_per_cone_node" => ratio(
            tally.total("retime.changed_nodes"),
            tally.total("retime.cone_nodes"),
        ),
        "resolve.s_per_repaired_task" => ratio(
            tally.total("resolve.seconds"),
            tally.total("resolve.repaired_tasks"),
        ),
        "validate.s" => span_p50("validate.validate"),
        timed if timed.ends_with("_s") => span_p50(timed.trim_end_matches("_s")),
        counted => tally.mean(counted),
    }
}

/// Every metric this run reports, by name, with its unit.
fn metrics(settings: &Settings, report: &Report) -> Vec<(String, f64, &'static str)> {
    let mut out = Vec::new();
    if !settings.trace {
        for (name, unit) in END_TO_END {
            out.push((name.to_string(), end_to_end_value(name, report), unit));
        }
        return out;
    }
    for (name, unit) in PER_LAYER {
        out.push((name.to_string(), per_layer_value(name, report), unit));
    }
    let self_time = report.tracer.self_time_by_layer();
    for layer in SELF_LAYERS {
        let secs = self_time.get(layer).copied().unwrap_or(0.0);
        out.push((format!("self.{layer}_s"), secs, "s"));
    }
    let overhead = ratio(median(&report.traced_op_s), median(&report.op_s)) - 1.0;
    out.push(("trace.overhead_frac".to_string(), overhead, "ratio"));
    out
}

fn parse_args() -> Result<Settings, String> {
    let mut settings = Settings {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        daemon: PathBuf::from(".bench_build/release/bsa-daemon"),
        out_dir: PathBuf::from(".bench_results"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => settings.workload = value,
            "--seed" => settings.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => settings.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => settings.trace = value == "1",
            "--size" => settings.tiny = value == "tiny",
            "--daemon" => settings.daemon = PathBuf::from(value),
            "--out-dir" => settings.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(settings)
}

fn main() -> ExitCode {
    let settings = match parse_args() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report {
        setup_s: Vec::new(),
        op_s: Vec::new(),
        traced_op_s: Vec::new(),
        measured_s: 0.0,
        nsl: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        peak_rss_mb: 0.0,
        tally: Tally::default(),
        tracer: Tracer::new(settings.trace, Instant::now()),
    };
    match settings.workload.as_str() {
        "solve_large" => library::solve_large(&settings, &mut report),
        "resolve_stream" => library::resolve_stream(&settings, &mut report),
        "daemon_mix" => daemon_mix::run(&settings, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    }
    if settings.workload != "daemon_mix" {
        report.peak_rss_mb = host::peak_rss_mb("self").unwrap_or(0.0);
    }
    let metrics = metrics(&settings, &report);
    let failed = report.failures.len() as u64;
    let correct = failed == 0 && report.attempted > 0 && metrics.iter().all(|m| m.1.is_finite());
    for failure in report.failures.iter().take(20) {
        eprintln!("perfbench: FAILED {failure}");
    }
    for (name, value, unit) in &metrics {
        eprintln!("{name:>32} {value:>14.6} {unit}");
    }
    if let Err(e) = write_files(&settings, &report, &metrics, correct) {
        eprintln!("perfbench: cannot write results: {e}");
    }
    let line = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", json::u(report.attempted)),
        ("failed", json::u(failed)),
        (
            "metrics",
            Value::Obj(
                metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        let m = obj(vec![("value", json::n(*value)), ("unit", json::s(*unit))]);
                        (name.clone(), m)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", line.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Writes the result file (metrics, host, failures) and, when traced, the spans.
fn write_files(
    settings: &Settings,
    report: &Report,
    metrics: &[(String, f64, &str)],
    correct: bool,
) -> std::io::Result<()> {
    std::fs::create_dir_all(&settings.out_dir)?;
    let stem = format!(
        "{}-{}-seed{}-trace{}",
        settings.workload,
        settings.size(),
        settings.seed,
        u8::from(settings.trace)
    );
    let result = obj(vec![
        ("workload", json::s(settings.workload.clone())),
        ("seed", json::u(settings.seed)),
        ("seconds", json::n(settings.seconds)),
        ("trace", Value::Bool(settings.trace)),
        ("size", json::s(settings.size())),
        ("host", host::describe()),
        ("correct", Value::Bool(correct)),
        ("attempted", json::u(report.attempted)),
        ("failed", json::u(report.failures.len() as u64)),
        (
            "failed_frac",
            json::n(ratio(report.failures.len() as f64, report.attempted as f64)),
        ),
        ("ops", json::u(report.op_s.len() as u64)),
        (
            "failures",
            Value::Arr(
                report
                    .failures
                    .iter()
                    .take(100)
                    .map(|f| json::s(f.clone()))
                    .collect(),
            ),
        ),
        (
            "metrics",
            Value::Obj(
                metrics
                    .iter()
                    .map(|(name, value, _)| (name.clone(), json::n(*value)))
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(
        settings.out_dir.join(format!("{stem}.json")),
        result.to_json() + "\n",
    )?;
    if settings.trace {
        report
            .tracer
            .write_jsonl(&settings.out_dir.join(format!("{stem}-spans.jsonl")))?;
    }
    Ok(())
}
