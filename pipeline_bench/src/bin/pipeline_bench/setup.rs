//! The pipeline under test, built from scratch: synthetic data → TCL
//! training from the fixed master seed → conversion with the trained
//! clipping bounds. Nothing is cached between runs, so every run pays (and
//! measures) the full set-up a user of the repository pays.

use std::time::Instant;

use pipeline_bench::stats::median;
use tcl_bench::{DatasetKind, Scale, MASTER_SEED};
use tcl_core::{Converter, NormStrategy};
use tcl_data::SynthVision;
use tcl_models::{Architecture, ModelConfig};
use tcl_nn::TrainConfig;
use tcl_snn::SpikingNetwork;
use tcl_tensor::SeededRng;

/// The scale every workload runs at.
pub const SCALE: Scale = Scale::Quick;

/// Calibration images the converter sees (the harness bins use 200 too).
const CALIBRATION: usize = 200;

/// A converted network plus its test set and the time each stage took.
pub struct Pipeline {
    pub snn: SpikingNetwork,
    pub data: SynthVision,
    pub gen_s: f64,
    pub train_s: f64,
    pub convert_s: f64,
}

/// Runs datagen, training and conversion once.
pub fn build(arch: Architecture) -> Result<Pipeline, String> {
    let dataset = DatasetKind::Cifar;
    let t0 = Instant::now();
    let data = dataset.generate(SCALE);
    let gen_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let (c, h, w) = data.train.image_shape();
    let cfg = ModelConfig::new((c, h, w), data.train.classes())
        .with_base_width(8)
        .with_clip_lambda(Some(dataset.lambda0()));
    // Same seeding as the harness's model cache, so the trained weights are
    // the ones `table1` & co. report on.
    let mut rng = SeededRng::new(MASTER_SEED ^ arch.name().len() as u64);
    let mut net = arch.build(&cfg, &mut rng).map_err(|e| e.to_string())?;
    let train_cfg = TrainConfig::standard(SCALE.epochs(), 32, 0.05, &SCALE.milestones())
        .map_err(|e| e.to_string())?;
    tcl_nn::train(
        &mut net,
        data.train.images(),
        data.train.labels(),
        None,
        &train_cfg,
    )
    .map_err(|e| e.to_string())?;
    let train_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let calibration = data.train.take(CALIBRATION);
    let conversion = Converter::new(NormStrategy::TrainedClip)
        .convert(&net, calibration.images())
        .map_err(|e| e.to_string())?;
    let convert_s = t2.elapsed().as_secs_f64();

    Ok(Pipeline {
        snn: conversion.snn,
        data,
        gen_s,
        train_s,
        convert_s,
    })
}

/// A pipeline plus the median stage times over several set-ups.
pub struct Built {
    /// The last pipeline built (every build is identical: fixed seeds).
    pub pipeline: Pipeline,
    /// Median of datagen + training + conversion, seconds.
    pub setup_s: f64,
    pub gen_s: f64,
    pub train_s: f64,
    pub convert_s: f64,
}

/// Builds the pipeline `reps` times and reports median stage times.
pub fn build_median(arch: Architecture, reps: usize) -> Result<Built, String> {
    let (mut totals, mut gens, mut trains, mut converts) = (vec![], vec![], vec![], vec![]);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let p = build(arch)?;
        totals.push(p.gen_s + p.train_s + p.convert_s);
        gens.push(p.gen_s);
        trains.push(p.train_s);
        converts.push(p.convert_s);
        last = Some(p);
    }
    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    Ok(Built {
        pipeline: last.ok_or("no set-up ran")?,
        setup_s: med(&totals),
        gen_s: med(&gens),
        train_s: med(&trains),
        convert_s: med(&converts),
    })
}
