//! The ekbd benchmark: one command, six workloads (four gated), every
//! end-to-end metric by name with its unit, correctness checked on every
//! run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-scale --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root: the run reads `BENCHMARK.json` there for
//! the metric set and units, works in `.bench_work/`, and writes traces to
//! `.bench_out/`. The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. See
//! `perfbench/README.md` for what each workload measures and bypasses.

mod host;
mod json;
mod serve;
mod sim;
mod spec;
mod stats;
mod trace;

use json::Json;
use spec::Spec;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Workloads this benchmark implements. The first four are listed in
/// `BENCHMARK.json` and gated; the rest run on demand (see
/// `perfbench/README.md` for why they are not gated).
pub const WORKLOADS: [&str; 6] = [
    "serve-scale",
    "serve-threaded",
    "sim-crash",
    "kernel-scale",
    "serve-journal-churn",
    "sim-recovery",
];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 15;

/// SplitMix64 of `seed` and `i`: derives every input of a run from its
/// `--seed`.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a workload run is given.
pub struct RunCfg {
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    pub trace: bool,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub work_dir: PathBuf,
}

/// One metric value with its unit.
pub struct Value {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    /// Named correctness checks; the run is correct when all hold.
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics always; per-layer metrics on traced runs.
    pub metrics: Vec<Value>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Value {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Checks the run's metrics against the declared set and renders them.
/// Per-layer metrics a workload does not produce belong to a layer it
/// bypasses and read 0; a missing end-to-end metric, an undeclared one or
/// a unit mismatch is a bug in the benchmark.
fn metrics_json(spec: &Spec, trace: bool, values: &[Value]) -> Result<Json, String> {
    let declared = spec.metrics_for(trace);
    if let Some(v) = values
        .iter()
        .find(|v| !declared.iter().any(|m| m.name == v.name))
    {
        return Err(format!(
            "metric {} is not declared in BENCHMARK.json",
            v.name
        ));
    }
    let mut out = Vec::with_capacity(declared.len());
    for m in declared {
        let mut found = values.iter().filter(|v| v.name == m.name);
        let value = match (found.next(), found.next()) {
            (Some(_), Some(_)) => return Err(format!("metric {} reported twice", m.name)),
            (Some(v), None) if v.unit != m.unit => {
                return Err(format!(
                    "metric {} measured in {} but declared in {}",
                    m.name, v.unit, m.unit
                ))
            }
            (Some(v), None) => v.value,
            (None, _) if trace => 0.0,
            (None, _) => return Err(format!("end-to-end metric {} not measured", m.name)),
        };
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", m.name));
        }
        out.push((
            m.name.clone(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(m.unit.clone())),
            ]),
        ));
    }
    Ok(Json::Obj(out))
}

/// Per-layer self time and tracing overhead, from the merged trace.
fn trace_metrics(tr: &Tracer, threads: usize, wall: Duration, out: &mut Outcome) {
    out.metric("self.bench_ms", tr.self_ms("bench"), "ms");
    out.metric("self.client_ms", tr.self_ms("client"), "ms");
    out.metric("self.server_ms", tr.self_ms("server"), "ms");
    out.metric("self.wire_ms", tr.self_ms("wire"), "ms");
    out.metric("self.journal_ms", tr.self_ms("journal"), "ms");
    out.metric("self.sim_ms", tr.self_ms("sim"), "ms");
    out.metric("self.graph_ms", tr.self_ms("graph"), "ms");
    let cost = trace::span_cost_ns();
    let spans = tr.closed() as f64;
    out.metric("trace.spans", spans, "count");
    out.metric("trace.span_cost_ns", cost, "ns");
    let busy_ns = wall.as_nanos() as f64 * threads.max(1) as f64;
    out.metric("trace.overhead_frac", spans * cost / busy_ns, "ratio");
}

fn run(args: &Args, spec: &Spec, work_dir: &Path) -> Result<(Outcome, Json), String> {
    let cfg = RunCfg {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        trace: args.trace,
        work_dir: work_dir.to_path_buf(),
    };
    let header = host::header(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        work_dir,
    );
    println!("# {}", header.render());
    let started = Instant::now();
    let mut tr = Tracer::new(args.trace, started, 0);
    let (mut outcome, threads) = match args.workload.as_str() {
        "serve-scale" => (serve::serve_scale(&cfg, &mut tr)?, serve::CONNS),
        "serve-threaded" => (serve::serve_threaded(&cfg, &mut tr)?, serve::CONNS),
        "serve-journal-churn" => (serve::serve_journal_churn(&cfg, &mut tr)?, serve::CONNS),
        "sim-crash" => (sim::sim_crash(&cfg, &mut tr)?, sim::SIM_WORKERS),
        "sim-recovery" => (sim::sim_recovery(&cfg, &mut tr)?, sim::SIM_WORKERS),
        "kernel-scale" => (sim::kernel_scale(&cfg, &mut tr)?, 1),
        other => return Err(format!("workload {other:?} is not one of {WORKLOADS:?}")),
    };
    if args.trace {
        // The traced run's own end-to-end figures, next to the untraced
        // run's, show what tracing costs.
        for v in &mut outcome.metrics {
            if spec.end_to_end.iter().any(|m| m.name == v.name) {
                v.name = format!("trace.{}", v.name);
            }
        }
        trace_metrics(&tr, threads, started.elapsed(), &mut outcome);
        let dump = PathBuf::from(".bench_out")
            .join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        std::fs::create_dir_all(".bench_out").map_err(|e| format!("create .bench_out: {e}"))?;
        std::fs::write(&dump, tr.to_json(header).render())
            .map_err(|e| format!("write {}: {e}", dump.display()))?;
        outcome.note(format!("trace written to {}", dump.display()));
    }
    let metrics = metrics_json(spec, args.trace, &outcome.metrics)?;
    Ok((outcome, metrics))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))
        .and_then(|text| Spec::parse(&text))
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let work_dir =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("error: create {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args, &spec, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(".bench_work");
    let (outcome, metrics) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.notes {
        println!("# {line}");
    }
    for (name, ok) in &outcome.checks {
        println!("# check {name}: {}", if *ok { "PASS" } else { "FAIL" });
    }
    let correct = outcome.correct();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "kernel-scale",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("kernel-scale", 7, 10, true)
        );
        assert!(args(&["--workload", "x", "--seed", "1", "--seconds", "10"]).is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }

    fn spec() -> Spec {
        Spec::parse(include_str!("../../BENCHMARK.json")).unwrap()
    }

    fn all(spec: &Spec, trace: bool) -> Vec<Value> {
        spec.metrics_for(trace)
            .iter()
            .map(|m| Value {
                name: m.name.clone(),
                value: 1.5,
                unit: Box::leak(m.unit.clone().into_boxed_str()),
            })
            .collect()
    }

    #[test]
    fn result_metrics_match_the_declaration() {
        let spec = spec();
        let m = metrics_json(&spec, false, &all(&spec, false)).unwrap();
        assert_eq!(m.keys().len(), spec.end_to_end.len());
        let first = &spec.end_to_end[0];
        assert_eq!(
            m.get(&first.name).unwrap().get("unit").unwrap().as_str(),
            Some(first.unit.as_str())
        );
    }

    #[test]
    fn missing_end_to_end_metrics_are_errors_but_bypassed_layers_read_zero() {
        let spec = spec();
        let mut e2e = all(&spec, false);
        e2e.pop();
        assert!(metrics_json(&spec, false, &e2e).is_err());
        let m = metrics_json(&spec, true, &[]).unwrap();
        assert_eq!(m.keys().len(), spec.per_layer.len());
        let undeclared = [Value {
            name: "no.such_metric".into(),
            value: 1.0,
            unit: "ms",
        }];
        assert!(metrics_json(&spec, true, &undeclared).is_err());
        let mut wrong_unit = all(&spec, false);
        wrong_unit[0].unit = "furlongs";
        assert!(metrics_json(&spec, false, &wrong_unit).is_err());
    }
}
