//! `pipeline_bench`: end-to-end and per-node benchmark of the TCL pipeline
//! — synthetic data → TCL training → conversion with the trained clipping
//! bounds → inference through `Engine::evaluate` or `tcl_serve::Server`
//! over loopback TCP.
//!
//! ```text
//! cargo run --release --manifest-path pipeline_bench/Cargo.toml -- \
//!     --workload <vgg16_t256|cnn6_exit|cnn6_serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last stdout line is one JSON object
//! `{"correct","attempted","failed","metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line
//! before it is `{"meta":{…}}` (git rev, SIMD level, threads, seed, …).
//! A traced run also writes its spans as `tcl-telemetry` JSONL to
//! `.bench_out/<workload>-seed<n>.spans.jsonl`, which `tcl-trace
//! summary|flame|critical-path|diff` read directly.

#![forbid(unsafe_code)]

mod eval;
mod replay;
mod serve;
mod setup;

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use pipeline_bench::report::{meta_line, result_line, Meta, Metric};
use pipeline_bench::spans::SpanLog;
use pipeline_bench::stats::Tail;
use pipeline_bench::{parse_args, per_layer_metrics, Workload, END_TO_END, USAGE};
use tcl_models::Architecture;

/// The run's settings, shared by the workloads.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Time origin of every span of the run.
    pub epoch: Instant,
}

/// What a workload measured.
pub struct Outcome {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub meta: Vec<(String, Meta)>,
    pub logs: Vec<SpanLog>,
}

impl Outcome {
    pub fn new(setup_s: f64) -> Self {
        Outcome {
            setup_s,
            attempted: 0,
            failed: 0,
            e2e: Vec::new(),
            per_layer: Vec::new(),
            meta: Vec::new(),
            logs: Vec::new(),
        }
    }

    pub fn meta_num(&mut self, key: &str, value: f64) {
        self.meta.push((key.to_string(), Meta::Num(value)));
    }

    /// Records which quantile a tail metric really is and on how many
    /// samples it rests.
    pub fn meta_tail(&mut self, key: &str, tail: Option<Tail>) {
        if let Some(t) = tail {
            self.meta_num(&format!("{key}_quantile"), t.quantile);
            self.meta_num(&format!("{key}_samples"), t.samples as f64);
        }
    }
}

/// Peak resident set size (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark may run from an export with no repository.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

fn run_workload(workload: Workload, run: &Run) -> Result<Outcome, String> {
    match workload {
        Workload::Vgg16T256 => eval::run(
            &eval::EvalSpec {
                arch: Architecture::Vgg16,
                policy: tcl_snn::ExitPolicy::Off,
                threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
                // VGG-16 trains for 6–12 s; two set-ups keep a run inside
                // the benchmark's time budget.
                setups: 2,
            },
            run,
        ),
        Workload::Cnn6Exit => eval::run(
            &eval::EvalSpec {
                arch: Architecture::Cnn6,
                policy: eval::SERVE_POLICY,
                threads: 1,
                setups: 3,
            },
            run,
        ),
        Workload::Cnn6Serve => serve::run(run),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipeline_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == Workload::Cnn6Serve {
        // A deployment serves with the metrics registry on. The flag is read
        // once, at the first telemetry call, so set it before any.
        std::env::set_var("TCL_METRICS", "1");
    }
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        epoch: Instant::now(),
    };
    let mut outcome = match run_workload(args.workload, &run) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pipeline_bench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };

    let measured = if args.trace {
        std::mem::take(&mut outcome.per_layer)
    } else {
        let mut m = std::mem::take(&mut outcome.e2e);
        m.push(Metric::new("setup_s", "s", outcome.setup_s));
        m.push(Metric::new("peak_rss_mb", "MB", peak_rss_mb()));
        m
    };
    // Report exactly the metrics BENCHMARK.json lists, in its order; a
    // per-layer metric the workload does not exercise reads 0.
    let names: Vec<(String, &'static str)> = if args.trace {
        per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut correct = outcome.failed == 0 && outcome.attempted > 0;
    let mut metrics = Vec::with_capacity(names.len());
    for (name, unit) in &names {
        let found = measured.iter().find(|m| &m.name == name);
        if found.is_none() && !args.trace {
            eprintln!("pipeline_bench: end-to-end metric {name} not measured");
            correct = false;
        }
        metrics.push(Metric::new(
            name.clone(),
            unit,
            found.map_or(0.0, |m| m.value),
        ));
    }

    if args.trace {
        let path = format!(
            ".bench_out/{}-seed{}.spans.jsonl",
            args.workload.name(),
            args.seed
        );
        let mut text = String::new();
        for log in &outcome.logs {
            log.write_jsonl(&mut text);
        }
        let written =
            std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, text));
        match written {
            Ok(()) => outcome.meta.push(("spans".into(), Meta::Text(path))),
            Err(e) => {
                eprintln!("pipeline_bench: writing {path}: {e}");
                correct = false;
            }
        }
    }

    let mut meta: Vec<(&str, Meta)> = vec![
        ("workload", Meta::Text(args.workload.name().into())),
        ("seed", Meta::Text(args.seed.to_string())),
        ("seconds", Meta::Num(args.seconds)),
        ("trace", Meta::Num(f64::from(u8::from(args.trace)))),
        ("git_rev", Meta::Text(git_rev())),
        (
            "simd",
            Meta::Text(tcl_tensor::simd::current().name().into()),
        ),
        (
            "nproc",
            Meta::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        (
            "tcl_threads_env",
            Meta::Text(std::env::var("TCL_THREADS").unwrap_or_else(|_| "unset".into())),
        ),
        ("scale", Meta::Text(setup::SCALE.name().into())),
        (
            "telemetry",
            Meta::Text(
                match (
                    tcl_telemetry::metrics_enabled(),
                    tcl_telemetry::trace_enabled(),
                ) {
                    (false, false) => "off",
                    (true, false) => "metrics",
                    (false, true) => "trace",
                    (true, true) => "metrics+trace",
                }
                .into(),
            ),
        ),
        ("failed", Meta::Num(outcome.failed as f64)),
    ];
    meta.extend(outcome.meta.iter().map(|(k, v)| (k.as_str(), v.clone())));
    let mut stdout = std::io::stdout().lock();
    let printed = writeln!(stdout, "{}", meta_line(&meta)).and_then(|()| {
        writeln!(
            stdout,
            "{}",
            result_line(correct, outcome.attempted, outcome.failed, &metrics)
        )
    });
    if printed.is_err() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
