//! Whole-run attribution coverage regression.
//!
//! Every second of a traced training run must be owned: either by an
//! operator span (forward/backward kernels) or by an explicitly named
//! non-operator phase — sampling, batch assembly, loss-gradient seeding,
//! optimizer updates, pool/plan bookkeeping. The uninstrumented residual
//! (level dispatch, runner loop glue) must stay below 10% of total
//! epoch wall time, matching the gate `profile` enforces in CI.

use deep500_data::sampler::ShuffleSampler;
use deep500_data::synthetic::SyntheticDataset;
use deep500_graph::{models, Engine, ExecutorKind};
use deep500_metrics::event::Phase;
use deep500_metrics::trace::TraceRecorder;
use deep500_tensor::Shape;
use deep500_train::sgd::GradientDescent;
use deep500_train::{TrainingConfig, TrainingRunner};
use std::sync::Arc;

fn run_coverage(kind: ExecutorKind) -> f64 {
    let recorder = TraceRecorder::new();
    let features = 32;
    let net = models::mlp(features, &[128, 64], 4, 42).expect("build mlp");
    let engine = Engine::builder(net)
        .executor(kind)
        .trace(&recorder)
        .build()
        .expect("build engine");
    let mut ex = engine.lock();

    let ds = SyntheticDataset::new("coverage-train", Shape::new(&[features]), 4, 128, 0.2, 7);
    let mut sampler = ShuffleSampler::new(Arc::new(ds), 32, 7);
    let mut opt = GradientDescent::new(0.05);
    let mut runner = TrainingRunner::new(TrainingConfig {
        epochs: 1,
        ..Default::default()
    });
    runner.events.push(Box::new(recorder.sink("runner")));
    runner
        .run(&mut opt, &mut *ex, &mut sampler, None)
        .expect("training run");

    let attributed: f64 = ex.op_attribution().iter().map(|r| r.total_s()).sum();
    let owned: f64 = [
        Phase::Sampling,
        Phase::BatchAssembly,
        Phase::LossSeed,
        Phase::OptimizerUpdate,
        Phase::Bookkeeping,
    ]
    .iter()
    .map(|p| recorder.phase_total_s(*p))
    .sum();
    let run_total = recorder.phase_total_s(Phase::Epoch);
    assert!(run_total > 0.0, "{kind:?}: epoch phase must be traced");
    (attributed + owned) / run_total
}

#[test]
fn traced_training_run_attributes_at_least_ninety_percent_of_epoch_time() {
    for kind in [ExecutorKind::Planned, ExecutorKind::Reference] {
        let coverage = run_coverage(kind);
        assert!(
            coverage >= 0.90,
            "{kind:?}: whole-run attribution coverage {coverage:.4} fell \
             below the 0.90 floor"
        );
        // Owned phases must not double-count operator time: total
        // attribution can never exceed the run itself (small tolerance for
        // timer skew between nested span measurements).
        assert!(
            coverage <= 1.05,
            "{kind:?}: coverage {coverage:.4} over-counts the run"
        );
    }
}

#[test]
fn new_training_phases_are_populated() {
    let recorder = TraceRecorder::new();
    let net = models::mlp(16, &[24], 4, 3).expect("build mlp");
    let engine = Engine::builder(net)
        .executor(ExecutorKind::Planned)
        .trace(&recorder)
        .build()
        .expect("build engine");
    let mut ex = engine.lock();
    let ds = SyntheticDataset::new("phase-train", Shape::new(&[16]), 4, 64, 0.2, 5);
    let mut sampler = ShuffleSampler::new(Arc::new(ds), 16, 5);
    let mut opt = GradientDescent::new(0.05);
    let mut runner = TrainingRunner::new(TrainingConfig {
        epochs: 1,
        ..Default::default()
    });
    runner.events.push(Box::new(recorder.sink("runner")));
    runner
        .run(&mut opt, &mut *ex, &mut sampler, None)
        .expect("training run");
    for phase in [
        Phase::BatchAssembly,
        Phase::LossSeed,
        Phase::OptimizerUpdate,
        Phase::Bookkeeping,
    ] {
        assert!(
            recorder.phase_total_s(phase) > 0.0,
            "{phase:?} must be populated by a traced training run"
        );
    }
}
