//! The traced replay: presents batches node by node through
//! `SpikingNetwork::nodes_mut()` → `SpikingNode::step`, timing every call
//! from outside and counting each node's input density, synaptic
//! operations and dense-equivalent MACs.
//!
//! The engine ≡ serial-oracle contract makes this the same arithmetic the
//! engine performs, so predictions and spike totals must match the engine's
//! bit for bit; under early exit the replay drops rows (`retain_rows`) at
//! the exit steps the engine reported, so node times see the same
//! shrinking batch.

use std::time::Instant;

use pipeline_bench::report::Metric;
use pipeline_bench::spans::SpanLog;
use tcl_snn::{SpikingNetwork, SpikingNode, SynapticOp};
use tcl_tensor::{ops, Shape, Tensor};

/// Per-node accumulators over a replay.
#[derive(Debug, Clone, Default)]
pub struct NodeAcc {
    pub secs: f64,
    pub nonzero: u64,
    pub elems: u64,
    pub synops: u64,
    pub macs: u64,
}

/// Everything a replay measured.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub nodes: Vec<NodeAcc>,
    /// Presentations (one batch each) replayed.
    pub batches: u64,
    /// Samples replayed.
    pub samples: u64,
    /// `Σ rows × steps` actually simulated.
    pub sample_steps: u64,
    /// Spikes emitted, summed over batches.
    pub spikes: u64,
    /// Top-1 class per sample, in presentation order.
    pub preds: Vec<usize>,
}

impl Replay {
    pub fn merge(&mut self, other: Replay) {
        if self.nodes.len() < other.nodes.len() {
            self.nodes.resize(other.nodes.len(), NodeAcc::default());
        }
        for (a, b) in self.nodes.iter_mut().zip(other.nodes) {
            a.secs += b.secs;
            a.nonzero += b.nonzero;
            a.elems += b.elems;
            a.synops += b.synops;
            a.macs += b.macs;
        }
        self.batches += other.batches;
        self.samples += other.samples;
        self.sample_steps += other.sample_steps;
        self.spikes += other.spikes;
        self.preds.extend(other.preds);
    }

    /// Time inside node calls, seconds.
    pub fn node_secs(&self) -> f64 {
        self.nodes.iter().map(|n| n.secs).sum()
    }

    /// The per-node metrics for the node indices `0..slots`: `ms` for
    /// every node, `density`/`synops`/`gflops` for the indices in
    /// `synaptic_slots`. Indices the replayed network does not have, and
    /// synaptic metrics of nodes without synapses, read 0.
    pub fn node_metrics(&self, slots: usize, synaptic_slots: &[usize]) -> Vec<Metric> {
        let batches = self.batches.max(1) as f64;
        let samples = self.samples.max(1) as f64;
        let empty = NodeAcc::default();
        let mut out = Vec::new();
        for i in 0..slots {
            let n = self.nodes.get(i).unwrap_or(&empty);
            out.push(Metric::new(
                format!("node.{i}.ms"),
                "ms",
                n.secs * 1e3 / batches,
            ));
            if synaptic_slots.contains(&i) {
                let density = if n.elems > 0 {
                    n.nonzero as f64 / n.elems as f64
                } else {
                    0.0
                };
                let gflops = if n.secs > 0.0 {
                    2.0 * n.macs as f64 / n.secs / 1e9
                } else {
                    0.0
                };
                out.push(Metric::new(format!("node.{i}.density"), "ratio", density));
                out.push(Metric::new(
                    format!("node.{i}.synops"),
                    "count",
                    n.synops as f64 / samples,
                ));
                out.push(Metric::new(format!("node.{i}.gflops"), "GFLOP/s", gflops));
            }
        }
        out
    }
}

/// The synaptic operator of a plain spiking layer.
fn synapse(node: &SpikingNode) -> Option<&SynapticOp> {
    match node {
        SpikingNode::Spiking(layer) => Some(&layer.op),
        _ => None,
    }
}

/// Dense multiply-adds of one application of `op` that produced `out`:
/// every output element reads `weight.len() / out_channels` inputs (conv:
/// `in_c·kh·kw`; linear: `in_f`).
fn dense_macs(op: &SynapticOp, out: &Tensor) -> u64 {
    let weight = match op {
        SynapticOp::Conv { weight, .. } | SynapticOp::Linear { weight, .. } => weight,
    };
    let out_channels = weight.dims().first().copied().unwrap_or(1).max(1);
    (out.len() * (weight.len() / out_channels)) as u64
}

/// Rows `keep` of a `[rows, …]` tensor.
fn gather(t: &Tensor, keep: &[usize]) -> Result<Tensor, String> {
    let rows = t.dims().first().copied().unwrap_or(0);
    let row = t.len() / rows.max(1);
    let mut data = Vec::with_capacity(keep.len() * row);
    for &r in keep {
        data.extend_from_slice(&t.data()[r * row..(r + 1) * row]);
    }
    let mut dims = t.dims().to_vec();
    if let Some(d) = dims.first_mut() {
        *d = keep.len();
    }
    Tensor::from_vec(Shape::new(dims), data).map_err(|e| e.to_string())
}

/// Replays one presentation of batch `x` (analog input, spike-count
/// readout) for up to `max_t` steps on `net` (reset first). When
/// `exit_steps` is given, row `r` leaves the batch after step
/// `exit_steps[r]`, as the engine's compaction did; predictions are the
/// count argmax at each row's last step.
pub fn replay_batch(
    net: &mut SpikingNetwork,
    x: &Tensor,
    max_t: usize,
    exit_steps: Option<&[usize]>,
    acc: &mut Replay,
    log: &mut SpanLog,
    parent: Option<u64>,
) -> Result<(), String> {
    let rows = x.dims().first().copied().unwrap_or(0);
    if acc.nodes.len() < net.len() {
        acc.nodes.resize(net.len(), NodeAcc::default());
    }
    let names: Vec<String> = net
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, n)| format!("node.{i}.{}", n.kind_name()))
        .collect();
    net.reset();
    let batch_span = log.open();
    let batch_start = Instant::now();
    // `lanes[p]` is the original row of compacted row `p`.
    let mut lanes: Vec<usize> = (0..rows).collect();
    let mut x_active = x.clone();
    let mut counts: Option<Tensor> = None;
    let mut preds = vec![0usize; rows];
    for t in 1..=max_t {
        let step_span = log.open();
        let step_start = Instant::now();
        let mut cur = x_active.clone();
        for (i, node) in net.nodes_mut().iter_mut().enumerate() {
            let node_acc = &mut acc.nodes[i];
            node_acc.nonzero += cur.data().iter().filter(|&&v| v != 0.0).count() as u64;
            node_acc.elems += cur.len() as u64;
            if let Some(op) = synapse(node) {
                node_acc.synops += op.synop_estimate(&cur);
            }
            let start = Instant::now();
            let out = node
                .step(&cur)
                .map_err(|e| format!("node {i} ({}): {e}", node.kind_name()))?;
            let end = Instant::now();
            node_acc.secs += (end - start).as_secs_f64();
            if let Some(op) = synapse(node) {
                node_acc.macs += dense_macs(op, &out);
            }
            log.leaf(
                &names[i],
                Some(step_span),
                start,
                end,
                &[("rows", lanes.len() as f64)],
            );
            cur = out;
        }
        match &mut counts {
            Some(c) => c.add_assign(&cur).map_err(|e| e.to_string())?,
            None => counts = Some(cur),
        }
        acc.sample_steps += lanes.len() as u64;
        log.close(
            step_span,
            "bench.step",
            Some(batch_span),
            step_start,
            Instant::now(),
            &[("t", t as f64), ("rows", lanes.len() as f64)],
        );
        let Some(c) = &counts else { continue };
        let exits = exit_steps.unwrap_or(&[]);
        let retiring: Vec<usize> = (0..lanes.len())
            .filter(|&p| t == max_t || exits.get(lanes[p]).is_some_and(|&e| e <= t))
            .collect();
        if retiring.is_empty() {
            continue;
        }
        let top = ops::argmax_rows(c).map_err(|e| e.to_string())?;
        for &p in &retiring {
            preds[lanes[p]] = top[p];
        }
        if t == max_t {
            break;
        }
        let keep: Vec<usize> = (0..lanes.len()).filter(|p| !retiring.contains(p)).collect();
        if keep.is_empty() {
            break;
        }
        net.retain_rows(&keep).map_err(|e| e.to_string())?;
        counts = Some(gather(c, &keep)?);
        x_active = gather(&x_active, &keep)?;
        lanes = keep.iter().map(|&p| lanes[p]).collect();
    }
    acc.spikes += net.total_spikes();
    acc.batches += 1;
    acc.samples += rows as u64;
    acc.preds.extend(preds);
    log.close(
        batch_span,
        "bench.presentation",
        parent,
        batch_start,
        Instant::now(),
        &[("rows", rows as f64)],
    );
    Ok(())
}
