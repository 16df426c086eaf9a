//! The two `Engine::evaluate` workloads: VGG-16 at the paper's fixed
//! T = 256 on the engine's worker pool, and CNN-6 under the adaptive
//! early-exit policy on one thread.

use std::sync::Arc;
use std::time::Instant;

use pipeline_bench::report::Metric;
use pipeline_bench::spans::SpanLog;
use pipeline_bench::stats;
use pipeline_bench::workload::presentation_order;
use tcl_models::Architecture;
use tcl_snn::{Engine, ExitPolicy, LaneEngine, Readout, SimConfig, SpikingNetwork};
use tcl_tensor::{par, Tensor};

use crate::replay::{replay_batch, Replay};
use crate::setup;
use crate::{Outcome, Run};

/// Samples per engine batch.
pub const BATCH: usize = 50;
/// Largest presentation length (the paper's operating point).
pub const MAX_T: usize = 256;
/// Calls the traced early-exit run replays: a fixed count, so two traced
/// runs of one seed replay the same presentations and `tcl-trace diff`
/// compares like with like.
const REPLAY_CALLS: usize = 16;
/// The early-exit policy `tcl_serve` runs.
pub const SERVE_POLICY: ExitPolicy = ExitPolicy::Adaptive {
    patience: 8,
    min_margin: 2.0,
    min_steps: 16,
};

/// One `Engine::evaluate` workload.
pub struct EvalSpec {
    pub arch: Architecture,
    pub policy: ExitPolicy,
    /// Engine worker threads; 1 also keeps the kernels serial.
    pub threads: usize,
    /// Set-ups per run (the median is reported).
    pub setups: usize,
}

/// One timed `evaluate_shared` call.
struct Call {
    samples: Vec<usize>,
    secs: f64,
    preds: Vec<usize>,
    exit_steps: Vec<usize>,
    exited: usize,
    saved_steps: u64,
    spikes: u64,
}

pub fn run(spec: &EvalSpec, run: &Run) -> Result<Outcome, String> {
    let built = setup::build_median(spec.arch, spec.setups)?;
    let net = Arc::new(built.pipeline.snn);
    let test = built.pipeline.data.test;
    let cfg = SimConfig::new(vec![MAX_T], BATCH, Readout::SpikeCount).map_err(|e| e.to_string())?;

    // Start-up: the engine pool spawns its workers and clones its replicas
    // on the first call; pay that here (one timestep) so the measured calls
    // are steady-state inference.
    let per_call = BATCH * spec.threads;
    let order = presentation_order(run.seed, test.len(), per_call * 1024);
    let startup = Instant::now();
    let mut engine = Engine::with_threads(spec.threads);
    let warm = SimConfig::new(vec![1], BATCH, Readout::SpikeCount).map_err(|e| e.to_string())?;
    let (x0, y0) = rows(test.images(), test.labels(), &order[..per_call])?;
    engine
        .evaluate_shared(&net, &x0, &y0, &warm, ExitPolicy::Off)
        .map_err(|e| e.to_string())?;
    let setup_s = built.setup_s + startup.elapsed().as_secs_f64();

    let mut measure = || -> Result<Vec<Call>, String> {
        let start = Instant::now();
        let mut calls: Vec<Call> = Vec::new();
        // Start another call only if it should end within the measured
        // time, so a run never overshoots by most of a long VGG call.
        while calls
            .last()
            .is_none_or(|c| start.elapsed().as_secs_f64() + c.secs <= run.seconds)
        {
            let k = calls.len() % (order.len() / per_call);
            let samples = order[k * per_call..(k + 1) * per_call].to_vec();
            let (x, y) = rows(test.images(), test.labels(), &samples)?;
            let t0 = Instant::now();
            let r = engine
                .evaluate_shared(&net, &x, &y, &cfg, spec.policy)
                .map_err(|e| e.to_string())?;
            let secs = t0.elapsed().as_secs_f64();
            calls.push(Call {
                samples,
                secs,
                exited: r.exited.iter().filter(|&&e| e).count(),
                preds: r.predictions,
                exit_steps: r.exit_steps,
                saved_steps: r.saved_steps,
                spikes: r.sweep.total_spikes,
            });
        }
        Ok(calls)
    };
    let calls = if spec.threads == 1 {
        par::with_serial(measure)?
    } else {
        measure()?
    };

    let presented: usize = calls.iter().map(|c| c.samples.len()).sum();
    let wall: f64 = calls.iter().map(|c| c.secs).sum();
    let correct: usize = calls
        .iter()
        .flat_map(|c| c.samples.iter().zip(&c.preds))
        .filter(|(&s, &p)| test.labels()[s] == p)
        .count();
    let steps: usize = calls.iter().flat_map(|c| c.exit_steps.iter()).sum();
    let latencies_ms: Vec<f64> = calls
        .iter()
        .flat_map(|c| std::iter::repeat_n(c.secs * 1e3, c.samples.len()))
        .collect();
    let samples_per_s = presented as f64 / wall;
    let p50 = stats::tail(&latencies_ms, 0.5);
    let p99 = stats::tail(&latencies_ms, 0.99);

    let mut out = Outcome::new(setup_s);
    out.attempted = presented as u64;
    out.meta_num("calls", calls.len() as f64);
    out.meta_num("engine_threads", engine.threads() as f64);
    // Pool workers run their batches with serial kernels, and the one-thread
    // workload measures inside `par::with_serial`.
    out.meta_num("kernel_threads", 1.0);
    out.meta_tail("p99", p99);

    // Correctness: against the traced replay (fixed-T) or against solo
    // lane presentations under the same policy (early exit).
    let mut replay = Replay::default();
    let mut replay_secs = 0.0;
    let mut engine_secs = 0.0;
    let mut logs = Vec::new();
    if spec.policy.is_adaptive() {
        out.failed += check_solo_lanes(&net, &test_rows(&test)?, &calls)?;
        if run.trace {
            // Replay the first calls with the engine's exit steps.
            let replayed = &calls[..calls.len().min(REPLAY_CALLS)];
            engine_secs = replayed.iter().map(|c| c.secs).sum();
            let mut log = SpanLog::new(run.epoch, 1, true);
            let t0 = Instant::now();
            let mut replica = (*net).clone();
            par::with_serial(|| -> Result<(), String> {
                for call in replayed {
                    let (x, _) = rows(test.images(), test.labels(), &call.samples)?;
                    replay_batch(
                        &mut replica,
                        &x,
                        MAX_T,
                        Some(&call.exit_steps),
                        &mut replay,
                        &mut log,
                        None,
                    )?;
                }
                Ok(())
            })?;
            replay_secs = t0.elapsed().as_secs_f64();
            logs.push(log);
        }
    } else {
        // Replay the first call, one batch per engine thread, exactly as
        // the pool split it, and compare predictions and spike totals.
        let call = &calls[0];
        let (r, secs, call_logs) = replay_parallel(&net, &test, call, spec.threads, run)?;
        if r.spikes != call.spikes {
            eprintln!(
                "[pipeline_bench] spike total mismatch: engine {} vs replay {}",
                call.spikes, r.spikes
            );
            out.failed += call.samples.len() as u64;
        } else {
            out.failed += call
                .preds
                .iter()
                .zip(&r.preds)
                .filter(|(a, b)| a != b)
                .count() as u64;
        }
        replay = r;
        replay_secs = secs;
        engine_secs = call.secs;
        logs = call_logs;
    }

    if run.trace {
        out.per_layer
            .push(Metric::new("data.gen_s", "s", built.gen_s));
        out.per_layer
            .push(Metric::new("nn.train_s", "s", built.train_s));
        out.per_layer
            .push(Metric::new("core.convert_s", "s", built.convert_s));
        out.per_layer.extend(
            replay.node_metrics(pipeline_bench::NODE_SLOTS, &pipeline_bench::SYNAPTIC_SLOTS),
        );
        let exited: usize = calls.iter().map(|c| c.exited).sum();
        let saved: u64 = calls.iter().map(|c| c.saved_steps).sum();
        out.per_layer.push(Metric::new(
            "engine.exit_frac",
            "ratio",
            exited as f64 / presented as f64,
        ));
        out.per_layer.push(Metric::new(
            "engine.saved_frac",
            "ratio",
            saved as f64 / (presented * MAX_T) as f64,
        ));
        out.per_layer.push(Metric::new(
            "net.us_per_sample_step",
            "us",
            replay.node_secs() * 1e6 / replay.sample_steps.max(1) as f64,
        ));
        out.per_layer.push(Metric::new(
            "trace.overhead_frac",
            "ratio",
            replay_secs / engine_secs - 1.0,
        ));
        out.logs = logs;
    } else {
        out.e2e
            .push(Metric::new("samples_per_s", "1/s", samples_per_s));
        out.e2e.push(Metric::new(
            "accuracy",
            "ratio",
            correct as f64 / presented as f64,
        ));
        out.e2e.push(Metric::new(
            "mean_steps",
            "steps",
            steps as f64 / presented as f64,
        ));
        out.e2e.push(Metric::new(
            "p50_ms",
            "ms",
            p50.map_or(f64::NAN, |t| t.value),
        ));
        out.e2e.push(Metric::new(
            "p99_ms",
            "ms",
            p99.map_or(f64::NAN, |t| t.value),
        ));
        // A batch-call API has no arrival queue: the highest rate it
        // sustains is its throughput.
        out.e2e.push(Metric::new("max_rps", "1/s", samples_per_s));
    }
    Ok(out)
}

/// Rows `idx` of the test images, with their labels.
pub fn rows(
    images: &Tensor,
    labels: &[usize],
    idx: &[usize],
) -> Result<(Tensor, Vec<usize>), String> {
    let x = tcl_nn::select_rows(images, idx).map_err(|e| e.to_string())?;
    Ok((x, idx.iter().map(|&i| labels[i]).collect()))
}

/// Each test image as a single-sample tensor.
pub fn test_rows(test: &tcl_data::Dataset) -> Result<Vec<Tensor>, String> {
    (0..test.len())
        .map(|i| tcl_nn::select_rows(test.images(), &[i]).map_err(|e| e.to_string()))
        .collect()
}

/// `(pred, steps)` of `sample` presented alone to a one-lane
/// `LaneEngine` under the serving policy.
pub fn solo(net: &SpikingNetwork, sample: &Tensor) -> Result<(usize, usize), String> {
    let mut lane =
        LaneEngine::new(net, 1, Readout::SpikeCount, SERVE_POLICY).map_err(|e| e.to_string())?;
    lane.submit(sample, MAX_T).map_err(|e| e.to_string())?;
    loop {
        if let Some(done) = lane.step().map_err(|e| e.to_string())?.pop() {
            return Ok((done.pred, done.steps));
        }
    }
}

/// Presentations whose prediction or exit step differs from the sample's
/// solo lane presentation. Each distinct sample is presented alone once;
/// batch rows are independent, so every presentation of it must agree.
fn check_solo_lanes(
    net: &SpikingNetwork,
    samples: &[Tensor],
    calls: &[Call],
) -> Result<u64, String> {
    let mut oracle: Vec<Option<(usize, usize)>> = vec![None; samples.len()];
    let mut failed = 0;
    par::with_serial(|| -> Result<(), String> {
        for call in calls {
            for ((&s, &pred), &steps) in call.samples.iter().zip(&call.preds).zip(&call.exit_steps)
            {
                let want = match oracle[s] {
                    Some(w) => w,
                    None => *oracle[s].insert(solo(net, &samples[s])?),
                };
                if want != (pred, steps) {
                    failed += 1;
                }
            }
        }
        Ok(())
    })?;
    Ok(failed)
}

/// Replays one fixed-T call on `threads` threads, one engine batch each.
fn replay_parallel(
    net: &Arc<SpikingNetwork>,
    test: &tcl_data::Dataset,
    call: &Call,
    threads: usize,
    run: &Run,
) -> Result<(Replay, f64, Vec<SpanLog>), String> {
    let chunks: Vec<&[usize]> = call.samples.chunks(BATCH).collect();
    let t0 = Instant::now();
    let results: Vec<Result<(Replay, SpanLog), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .chunks(chunks.len().div_ceil(threads.max(1)))
            .enumerate()
            .map(|(w, mine)| {
                let net = Arc::clone(net);
                s.spawn(move || {
                    par::with_serial(|| {
                        let mut log = SpanLog::new(run.epoch, w as u64 + 1, run.trace);
                        let mut acc = Replay::default();
                        let mut replica = (*net).clone();
                        for chunk in mine {
                            let (x, _) = rows(test.images(), test.labels(), chunk)?;
                            replay_batch(&mut replica, &x, MAX_T, None, &mut acc, &mut log, None)?;
                        }
                        Ok((acc, log))
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("replay thread panicked".into()))
            })
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    let mut replay = Replay::default();
    let mut logs = Vec::new();
    for r in results {
        let (acc, log) = r?;
        replay.merge(acc);
        logs.push(log);
    }
    Ok((replay, secs, logs))
}
