//! Lane ≡ solo on a convolutional network whose last convolutions run at
//! 2×2 and 1×1 output planes.
//!
//! Staggered admission puts a lane into batches of every size from one to
//! the lane capacity, so its convolutions fold together with a changing set
//! of batchmates. The folded conv pads every product to whole GEBP tiles,
//! so a lane's scores must stay bitwise equal to a solo presentation of the
//! same sample at every SIMD level — including AVX2, where a tile that fuses
//! multiply-adds and one that does not would round apart.

use tcl_snn::{
    ExitPolicy, IfNeurons, LaneEngine, LaneOutput, Readout, ResetMode, SpikingLayer,
    SpikingNetwork, SpikingNode, SynapticOp,
};
use tcl_tensor::ops::ConvGeometry;
use tcl_tensor::{simd, SeededRng, Tensor};

const IN_C: usize = 3;
const HW: usize = 2;
const WIDTH: usize = 32;
const CLASSES: usize = 4;
/// More lanes than one 16-column tile holds at a 1×1 plane.
const LANES: usize = 20;

fn conv_layer(rng: &mut SeededRng, in_c: usize, out_c: usize) -> SpikingNode {
    SpikingNode::Spiking(SpikingLayer::new(
        SynapticOp::Conv {
            weight: rng.uniform_tensor([out_c, in_c, 3, 3], -0.15, 0.3),
            bias: Some(rng.uniform_tensor([out_c], 0.0, 0.05)),
            geom: ConvGeometry::square(3, 1, 1).unwrap(),
        },
        IfNeurons::new(1.0, ResetMode::Subtract),
    ))
}

/// `[3, 2, 2]` analog input → conv 2×2 → conv 2×2 → pool → conv 1×1 → linear.
fn conv_net(seed: u64) -> SpikingNetwork {
    let mut rng = SeededRng::new(seed);
    SpikingNetwork::new(vec![
        conv_layer(&mut rng, IN_C, WIDTH),
        conv_layer(&mut rng, WIDTH, WIDTH),
        SpikingNode::AvgPool {
            kernel: 2,
            stride: 2,
        },
        conv_layer(&mut rng, WIDTH, WIDTH),
        SpikingNode::Flatten,
        SpikingNode::Spiking(SpikingLayer::new(
            SynapticOp::Linear {
                weight: rng.uniform_tensor([CLASSES, WIDTH], -0.2, 0.4),
                bias: None,
            },
            IfNeurons::new(1.0, ResetMode::Subtract),
        )),
    ])
}

/// One sample alone on a fresh network for `t` steps: membrane readout
/// scores, `counts·V_thr + V`. The potential term carries the low bits of
/// every current the output layer integrated, so a hidden spike that moves
/// by one step shows up even when the spike counts do not change.
fn solo_scores(net: &SpikingNetwork, sample: &Tensor, t: usize) -> Vec<f32> {
    let mut net = net.clone();
    net.reset();
    let mut counts = [0.0f32; CLASSES];
    for _ in 0..t {
        let spikes = net.step(sample).unwrap();
        for (c, &s) in counts.iter_mut().zip(spikes.data()) {
            *c += s;
        }
    }
    let thr = net.output_threshold().unwrap();
    let potential = net.output_potential().unwrap().data();
    counts
        .iter()
        .zip(potential)
        .map(|(c, v)| c * thr + v)
        .collect()
}

#[test]
fn staggered_conv_lanes_are_bitwise_equal_to_solo_runs() {
    let net = conv_net(7);
    let mut rng = SeededRng::new(11);
    let count = 40;
    let images: Vec<Tensor> = (0..count)
        .map(|_| rng.uniform_tensor([1, IN_C, HW, HW], 0.0, 1.0))
        .collect();
    // Distinct budgets retire lanes at different steps, so freed lanes are
    // refilled mid-run and batch sizes sweep 1..=LANES.
    let budget = |i: usize| 40 + 3 * i;
    for level in simd::Level::available() {
        simd::with_level(level, || {
            let mut lanes =
                LaneEngine::new(&net, LANES, Readout::Membrane, ExitPolicy::Off).unwrap();
            let mut outputs: Vec<LaneOutput> = Vec::new();
            let mut next = 0;
            let mut batch_sizes = Vec::new();
            while next < count || lanes.active() > 0 {
                // Admit at most one sample every other step.
                let admit_step = lanes.active() == 0 || lanes.engine_steps().is_multiple_of(2);
                if next < count && lanes.free_lanes() > 0 && admit_step {
                    lanes.submit(&images[next], budget(next)).unwrap();
                    next += 1;
                }
                batch_sizes.push(lanes.active());
                outputs.extend(lanes.step().unwrap());
            }
            assert!(batch_sizes.contains(&1) && batch_sizes.contains(&LANES));
            outputs.sort_by_key(|o| o.id);
            assert_eq!(outputs.len(), count);
            let mut fired = false;
            for (i, out) in outputs.iter().enumerate() {
                let solo = solo_scores(&net, &images[i], budget(i));
                assert_eq!(out.scores, solo, "{} sample {i}", level.name());
                assert_eq!(out.steps, budget(i));
                // After a step V < V_thr, so a score of V_thr means a spike.
                fired |= solo.iter().any(|&s| s >= 1.0);
            }
            // The output layer fires, so the comparison is not vacuous.
            assert!(fired, "{}: silent network", level.name());
        });
    }
}
