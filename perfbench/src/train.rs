//! `train-resnet`: a closed training loop. `TrainingRunner` trains
//! `resnet_like(3, 8, 32, 1, 10)` at batch 8 on a seeded synthetic [3,8,8]
//! dataset, on the Planned executor compiled with the training-safe pass
//! set, with `Momentum(0.01, 0.9)`. Conv backward dominates the step, so
//! this workload exercises the `ops` layer; `serve` and `dist` stay idle.

use crate::probe::{pool_hit_ratio, OpClasses, TimedExecutor, TimedSampler};
use crate::report::Outcome;
use crate::stats::{median, Percentile};
use crate::{Args, SETUP_REPS};
use deep500::data::Dataset;
use deep500::graph::grad_name;
use deep500::metrics::event::StopAfterIterations;
use deep500::metrics::{Phase, TraceRecorder};
use deep500::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH: usize = 8;
const DATASET_LEN: usize = 512;
/// Steps each set-up runs before the timed loop; their losses must repeat
/// bit for bit across set-ups.
const WARM_STEPS: usize = 3;
/// Training steps per second of `--seconds` (about the rate of a 2-vCPU
/// x86-64 VM with AVX-512).
const NOMINAL_STEPS_PER_S: f64 = 15.0;

/// A ready-to-train executor, sampler and optimizer.
struct Trainer {
    engine: Engine,
    sampler: ShuffleSampler,
    opt: Momentum,
    warm_losses: Vec<f32>,
    /// The first warm step's minibatch and the gradients the Planned
    /// executor computed for it.
    first_batch: Minibatch,
    first_grads: Vec<(String, Vec<u32>)>,
    build_s: f64,
    first_pass_s: f64,
}

fn network(seed: u64) -> deep500::tensor::Result<Network> {
    models::resnet_like(3, 8, 32, 1, 10, seed)
}

fn set_up(seed: u64) -> Result<Trainer, String> {
    let start = Instant::now();
    let engine = Engine::builder(network(seed).map_err(|e| e.to_string())?)
        .executor(ExecutorKind::Planned)
        .compile(CompileOptions::training())
        .input_shape("x", Shape::new(&[BATCH, 3, 8, 8]))
        .input_shape("labels", Shape::new(&[BATCH]))
        .build()
        .map_err(|e| format!("engine build: {e}"))?;
    let build_s = start.elapsed().as_secs_f64();

    let dataset: Arc<dyn Dataset> = Arc::new(SyntheticDataset::new(
        "train-resnet",
        Shape::new(&[3, 8, 8]),
        10,
        DATASET_LEN,
        0.3,
        seed,
    ));
    let mut sampler = ShuffleSampler::new(dataset, BATCH, seed);
    let mut opt = Momentum::new(0.01, 0.9);
    let mut warm_losses = Vec::with_capacity(WARM_STEPS);
    let mut first = None;
    let mut first_pass_s = 0.0;
    {
        let mut ex = engine.lock();
        for step in 0..WARM_STEPS {
            let batch = sampler
                .next_batch()
                .map_err(|e| e.to_string())?
                .ok_or("empty dataset")?;
            let t = Instant::now();
            let result = train_step(&mut opt, &mut *ex, &batch).map_err(|e| e.to_string())?;
            if step == 0 {
                // Lazy plan build plus the plan-soundness gate.
                first_pass_s = t.elapsed().as_secs_f64();
                first = Some((batch, gradients(&*ex)?));
            }
            warm_losses.push(result.loss);
        }
    }
    let (first_batch, first_grads) = first.ok_or("no warm step ran")?;
    Ok(Trainer {
        engine,
        sampler,
        opt,
        warm_losses,
        first_batch,
        first_grads,
        build_s,
        first_pass_s,
    })
}

/// Every parameter gradient held by `ex`, as raw bits.
fn gradients(ex: &dyn GraphExecutor) -> Result<Vec<(String, Vec<u32>)>, String> {
    let net = ex.network();
    net.get_params()
        .iter()
        .map(|p| {
            let g = net
                .fetch_tensor(&grad_name(p))
                .map_err(|e| format!("gradient of {p}: {e}"))?;
            Ok((p.clone(), bits(g)))
        })
        .collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A runner that stops after `steps` training steps.
fn runner(steps: usize) -> TrainingRunner {
    let mut runner = TrainingRunner::new(TrainingConfig {
        epochs: usize::MAX,
        train_accuracy_every: usize::MAX,
        test_accuracy_every: usize::MAX,
        target_accuracy: None,
    });
    runner.add_event(Box::new(StopAfterIterations::new(steps)));
    runner
}

/// Steps of a timed run of `secs` seconds: a fixed count, sized at a
/// nominal step rate, so every run does the same work. The process's
/// memory grows with the steps it takes, so sizing runs by wall time would
/// make `peak_rss_mb` follow the machine's speed.
fn steps_for(secs: f64) -> usize {
    ((secs * NOMINAL_STEPS_PER_S) as usize).max(1)
}

/// Per-step wall times from the runner's loss timestamps.
fn step_times(log: &TrainingLog) -> Vec<f64> {
    let mut prev = 0.0;
    log.step_losses
        .iter()
        .map(|&(t, _)| {
            let d = t - prev;
            prev = t;
            d
        })
        .collect()
}

/// Every set-up of a run: their times, and the check that the warm-step
/// losses repeat bit for bit across set-ups with one seed.
#[derive(Default)]
struct SetUps {
    setup_s: Vec<f64>,
    build_s: Vec<f64>,
    first_pass_s: Vec<f64>,
    warm_losses: Option<Vec<u32>>,
}

impl SetUps {
    /// Set up once more, timed.
    fn add(&mut self, seed: u64, out: &mut Outcome) -> Result<Trainer, String> {
        let t = Instant::now();
        let trainer = set_up(seed)?;
        self.setup_s.push(t.elapsed().as_secs_f64());
        self.build_s.push(trainer.build_s);
        self.first_pass_s.push(trainer.first_pass_s);
        let losses: Vec<u32> = trainer.warm_losses.iter().map(|l| l.to_bits()).collect();
        if let Some(first) = &self.warm_losses {
            out.check(
                *first == losses,
                "warm-step losses differ between set-ups with one seed",
            );
        }
        self.warm_losses.get_or_insert(losses);
        Ok(trainer)
    }

    fn report(&self, out: &mut Outcome) {
        out.set("setup_s", median(&self.setup_s));
        out.set("setup.build_s", median(&self.build_s));
        out.set("setup.first_pass_s", median(&self.first_pass_s));
    }
}

pub fn run(args: &Args, budget: Duration) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = SetUps::default();
    // A traced run sets up `SETUP_REPS` times in a row and keeps the last.
    // An untraced run sets up once here and again between chunks of the
    // timed loop: a set-up lasts a fraction of a second, so set-ups in a
    // row would all see the same moment of a shared machine.
    let mut trainer = setups.add(args.seed, &mut out)?;
    if args.trace {
        for _ in 1..SETUP_REPS {
            drop(trainer);
            trainer = setups.add(args.seed, &mut out)?;
        }
    }
    let timed = budget.as_secs_f64();

    let mut ex = trainer.engine.lock();
    let sampler = &mut trainer.sampler;
    let opt = &mut trainer.opt;
    let mut all_losses: Vec<f32> = Vec::new();
    if !args.trace {
        let chunk = (steps_for(timed) / SETUP_REPS).max(1);
        let mut steps = Vec::with_capacity(chunk * SETUP_REPS);
        let mut wall_s = 0.0;
        for c in 0..SETUP_REPS {
            if c > 0 {
                drop(setups.add(args.seed, &mut out)?);
            }
            let log = runner(chunk)
                .run(opt, &mut *ex, sampler, None)
                .map_err(|e| format!("training: {e}"))?;
            steps.extend(step_times(&log));
            wall_s += log.total_time;
            all_losses.extend(log.step_losses.iter().map(|&(_, l)| l));
        }
        let p50 = Percentile::of(&steps, 0.5);
        let p90 = Percentile::of(&steps, 0.9);
        // The gated tail is p99: step time on a shared host is bimodal,
        // and p90 jumps between the modes as the share of slow steps
        // crosses a tenth, while p99 stays in the slow mode.
        let p99 = Percentile::of(&steps, 0.99);
        let rate = (steps.len() * BATCH) as f64 / wall_s;
        out.attempted = steps.len() as u64;
        out.set("samples_per_s", rate);
        out.set("latency_ms_tail", p99.value * 1e3);
        out.note(format!(
            "samples_per_s {rate:.2} 1/s over {} steps",
            steps.len()
        ));
        out.note(format!(
            "step_ms_p50 {:.3} ms (n={})",
            p50.value * 1e3,
            p50.n
        ));
        out.note(format!(
            "step_ms_p90 {:.3} ms (n={}, {} beyond)",
            p90.value * 1e3,
            p90.n,
            p90.beyond
        ));
        out.note(format!(
            "step_ms_p99 {:.3} ms (n={}, {} beyond)",
            p99.value * 1e3,
            p99.n,
            p99.beyond
        ));
    } else {
        // Untraced first half, traced second half: the ratio of their
        // step times is the tracing overhead.
        let half = steps_for(timed / 2.0);
        let plain = runner(half)
            .run(opt, &mut *ex, sampler, None)
            .map_err(|e| format!("training: {e}"))?;
        all_losses.extend(plain.step_losses.iter().map(|&(_, l)| l));

        let mut timed_ex = TimedExecutor::new(&mut *ex);
        let mut timed_sampler = TimedSampler::new(sampler);
        let ops_before = OpClasses::of(&timed_ex.op_attribution(), timed_ex.network());
        let pool_before = timed_ex.buffer_pool_stats();
        let recorder = TraceRecorder::new();
        let mut traced = runner(half);
        traced.add_event(Box::new(recorder.sink("runner")));
        let log = traced
            .run(opt, &mut timed_ex, &mut timed_sampler, None)
            .map_err(|e| format!("training: {e}"))?;
        // Dropping the runner flushes its trace sink.
        drop(traced);
        all_losses.extend(log.step_losses.iter().map(|&(_, l)| l));
        let ops = OpClasses::of(&timed_ex.op_attribution(), timed_ex.network()).minus(&ops_before);
        let pool_after = timed_ex.buffer_pool_stats();
        let nodes = timed_ex.network().nodes().count();
        let plan_bytes = timed_ex.static_plan_bytes().unwrap_or(0);

        let steps = log.step_losses.len();
        out.attempted = (plain.step_losses.len() + steps) as u64;
        let per_step = |s: f64| s / steps.max(1) as f64 * 1e3;
        let calls: f64 = timed_ex.calls_s.iter().sum();
        let iteration_total = recorder.phase_total_s(Phase::Iteration);
        let fetch_total: f64 = timed_sampler.fetch_s.iter().sum();
        out.set("graph.call_ms_p50", median(&timed_ex.calls_s) * 1e3);
        out.set(
            "graph.dispatch_us_per_node",
            (calls - ops.total_s) / (timed_ex.calls_s.len() * nodes).max(1) as f64 * 1e6,
        );
        out.set("graph.plan_bytes", plan_bytes as f64);
        out.set("ops.conv_fwd_ms", per_step(ops.conv_fwd_s));
        out.set("ops.conv_bwd_ms", per_step(ops.conv_bwd_s));
        out.set("ops.gemm_gflops", ops.gemm_gflops());
        out.set("ops.eltwise_bwd_over_fwd", ops.eltwise_bwd_over_fwd());
        out.set("ops.other_ms", per_step(ops.non_conv_s()));
        out.set("train.update_ms", per_step(iteration_total - calls));
        out.set("data.sample_ms_p50", median(&timed_sampler.fetch_s) * 1e3);
        out.set(
            "tensor.pool_hit_ratio",
            pool_hit_ratio(pool_before, pool_after),
        );
        // The rows above (sampling, executor calls, the rest of each
        // train_step) against the traced loop's wall time; the remainder
        // is the runner's own loop.
        let explained = fetch_total + iteration_total;
        out.set("coverage", explained / log.total_time);
        out.set("residual_ms", per_step(log.total_time - explained));
        let traced_step = log.total_time / steps.max(1) as f64;
        let plain_step = plain.total_time / plain.step_losses.len().max(1) as f64;
        out.set("trace.overhead", traced_step / plain_step - 1.0);
        out.note(format!(
            "traced {steps} steps: call {:.3} ms p50 over {nodes} nodes, conv fwd {:.3} / bwd {:.3} ms per step",
            median(&timed_ex.calls_s) * 1e3,
            per_step(ops.conv_fwd_s),
            per_step(ops.conv_bwd_s)
        ));
        out.note(format!(
            "coverage.train-resnet {:.4}; residual runner.loop {:.4} ms per step",
            explained / log.total_time,
            per_step(log.total_time - explained)
        ));
    }
    drop(ex);
    setups.report(&mut out);

    out.check(
        all_losses.iter().all(|l| l.is_finite()),
        "a training loss is not finite",
    );
    check_reference_gradients(args.seed, &trainer, &mut out)?;
    Ok(out)
}

/// The first Planned step's gradients must equal the Reference
/// executor's bit for bit on the same minibatch and initial weights.
fn check_reference_gradients(
    seed: u64,
    trainer: &Trainer,
    out: &mut Outcome,
) -> Result<(), String> {
    let reference = Engine::builder(network(seed).map_err(|e| e.to_string())?)
        .build()
        .map_err(|e| format!("reference engine: {e}"))?;
    let mut ex = reference.lock();
    ex.inference_and_backprop(&trainer.first_batch.feeds(), "loss")
        .map_err(|e| format!("reference backprop: {e}"))?;
    let expected = gradients(&*ex)?;
    let mismatched: Vec<&str> = expected
        .iter()
        .filter(|(p, g)| {
            trainer
                .first_grads
                .iter()
                .find(|(q, _)| q == p)
                .is_none_or(|(_, h)| h != g)
        })
        .map(|(p, _)| p.as_str())
        .collect();
    out.check(
        mismatched.is_empty(),
        format!("first Planned step gradients differ from Reference for {mismatched:?}"),
    );
    Ok(())
}
