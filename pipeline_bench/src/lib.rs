//! Helpers of the pipeline benchmark that carry no measurement state:
//! argument parsing, seeded workload inputs, order statistics, the load
//! client's HTTP framing, the `max_rps` ladder rule, span recording and the
//! result line. The `pipeline_bench` binary drives the pipeline with them.

#![forbid(unsafe_code)]

pub mod http;
pub mod ladder;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workload;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// VGG-16 through `Engine::evaluate`, fixed T = 256.
    Vgg16T256,
    /// CNN-6 through `Engine::evaluate` with adaptive early exit.
    Cnn6Exit,
    /// CNN-6 behind `tcl_serve::Server` over loopback TCP.
    Cnn6Serve,
}

impl Workload {
    /// Every workload the binary runs.
    pub const ALL: [Workload; 3] = [Workload::Vgg16T256, Workload::Cnn6Exit, Workload::Cnn6Serve];

    /// The workloads `BENCHMARK.json` lists, in its order. `cnn6_exit`
    /// still runs on request, but the runs of a third workload do not fit
    /// the benchmark's time budget at a measurement time long enough to
    /// steady the serving metrics.
    pub const LISTED: [Workload; 2] = [Workload::Vgg16T256, Workload::Cnn6Serve];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Vgg16T256 => "vgg16_t256",
            Workload::Cnn6Exit => "cnn6_exit",
            Workload::Cnn6Serve => "cnn6_serve",
        }
    }
}

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("samples_per_s", "1/s"),
    ("accuracy", "ratio"),
    ("mean_steps", "steps"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("max_rps", "1/s"),
];

/// Node indices with per-node metrics: every node of the converted VGG-16
/// (the deepest network measured). CNN-6 fills the first nine.
pub const NODE_SLOTS: usize = 21;

/// Node indices that carry synapses in the converted VGG-16, and so get
/// `density`, `synops` and `gflops` besides `ms`.
pub const SYNAPTIC_SLOTS: [usize; 16] = [0, 1, 3, 4, 6, 7, 8, 10, 11, 12, 14, 15, 16, 18, 19, 20];

/// Per-layer metrics `(name, unit)`, reported by every traced run; those a
/// workload does not exercise read 0.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("data.gen_s".into(), "s"),
        ("nn.train_s".into(), "s"),
        ("core.convert_s".into(), "s"),
    ];
    for i in 0..NODE_SLOTS {
        out.push((format!("node.{i}.ms"), "ms"));
        if SYNAPTIC_SLOTS.contains(&i) {
            out.push((format!("node.{i}.density"), "ratio"));
            out.push((format!("node.{i}.synops"), "count"));
            out.push((format!("node.{i}.gflops"), "GFLOP/s"));
        }
    }
    for (name, unit) in [
        ("engine.exit_frac", "ratio"),
        ("engine.saved_frac", "ratio"),
        ("net.us_per_sample_step", "us"),
        ("trace.overhead_frac", "ratio"),
        ("lanes.step_us", "us"),
        ("lanes.submit_us", "us"),
        ("lanes.batch_mean", "lanes"),
        ("serve.tick_busy_frac", "ratio"),
        ("serve.rest_us_per_req", "us"),
        ("serve.queue_depth_mean", "requests"),
        ("serve.gen_late_ms", "ms"),
    ] {
        out.push((name.into(), unit));
    }
    out
}

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str = "usage: pipeline_bench --workload <vgg16_t256|cnn6_exit|cnn6_serve> \
                         --seed <u64> --seconds <n> --trace <0|1>";

/// Parses `--workload W --seed N --seconds S --trace 0|1` (all required).
///
/// # Errors
///
/// A message naming the missing or malformed argument.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload cnn6_serve --seed 42 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::Cnn6Serve);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
    }

    #[test]
    fn rejects_missing_or_malformed_arguments() {
        assert!(args("--workload cnn6_exit --seed 1 --seconds 10").is_err());
        assert!(args("--workload nope --seed 1 --seconds 10 --trace 0").is_err());
        assert!(args("--workload cnn6_exit --seed -1 --seconds 10 --trace 0").is_err());
        assert!(args("--workload cnn6_exit --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload cnn6_exit --seed 1 --seconds 10 --trace 2").is_err());
        assert!(args("--workload cnn6_exit --seed 1 --seconds 10 --trace").is_err());
    }

    /// `BENCHMARK.json` lists exactly the metrics the runs report, with
    /// the same units, in the same order.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = tcl_telemetry::json::parse_line(&text.replace('\n', " ")).expect("valid json");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let per_layer: Vec<(String, String)> = per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), per_layer);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).expect("name"))
            .collect();
        let ours: Vec<&str> = Workload::LISTED.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    /// The benchmark's own sources stay at zero `tcl-lint` findings under
    /// the rules the repository's harness crate follows: sockets, threads
    /// and wall clocks only in the binary's files (A3), no `partial_cmp`
    /// (F1), justified atomics (C1), and the rest.
    #[test]
    fn sources_are_lint_clean() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut dirs = vec![root.join("src")];
        let mut checked = 0;
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(&dir).expect("read src dir") {
                let path = entry.expect("dir entry").path();
                if path.is_dir() {
                    dirs.push(path);
                    continue;
                }
                if path.extension().is_none_or(|e| e != "rs") {
                    continue;
                }
                let rel = path.strip_prefix(root).expect("under the package");
                let rel = format!(
                    "pipeline_bench/{}",
                    rel.to_string_lossy().replace('\\', "/")
                );
                let text = std::fs::read_to_string(&path).expect("read source");
                let mut findings = tcl_lint::check_file(&rel, &text, "bench");
                let is_root = rel.ends_with("src/lib.rs") || rel.ends_with("/main.rs");
                if is_root {
                    findings.extend(tcl_lint::check_crate_root(&rel, &text));
                }
                let rendered: Vec<String> = findings.iter().map(|f| f.render()).collect();
                assert!(rendered.is_empty(), "{}", rendered.join("\n"));
                checked += 1;
            }
        }
        assert!(checked >= 8, "only {checked} files checked");
    }
}
