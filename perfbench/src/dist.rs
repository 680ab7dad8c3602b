//! `dist-mlp`: data-parallel training over two ranks. `DistributedRunner`
//! with `Variant::Cdsgd` trains `mlp(256, [512, 256], 10)` at per-rank
//! batch 32 on the Planned executor, priced by the 10 Gb/s Ethernet
//! model. The collective and the optimizer update take a large share of
//! rank time, the rest is dense GEMM; there is no conv and no serving.
//!
//! Every run also measures a plain single-worker loop over the same model
//! and batch, which is where the `graph`, `tensor` and `train` layers are
//! observed: the runner builds its executors internally.

use crate::probe::{pool_hit_ratio, ClockedDataset, OpClasses, TimedExecutor};
use crate::report::Outcome;
use crate::stats::{median, Percentile};
use crate::{Args, SETUP_REPS};
use deep500::data::Dataset;
use deep500::dist::{DistributedRunner, NetworkModel, RunReport, Variant};
use deep500::metrics::{Phase, TraceRecorder};
use deep500::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORLD: usize = 2;
const BATCH: usize = 32;
/// Steps of the set-up run: rank start-up, engine builds, first passes.
const WARM_STEPS: usize = 20;
/// Distributed steps per second of `--seconds` (about the rate of a
/// 2-vCPU x86-64 VM with AVX-512).
const NOMINAL_STEPS_PER_S: f64 = 150.0;
/// Two ranks times 32 batches of 32 per epoch: every minibatch is full.
const DATASET_LEN: usize = WORLD * BATCH * 32;
/// Consistent decentralized SGD keeps every rank's parameters identical.
const CONSISTENCY_TOL: f32 = 0.0;
/// Steps of the single-worker loop measured in a traced run.
const SOLO_STEPS: usize = 100;

fn network(seed: u64) -> Result<Network, String> {
    models::mlp(256, &[512, 256], 10, seed).map_err(|e| e.to_string())
}

fn dataset(seed: u64) -> Arc<dyn Dataset> {
    Arc::new(SyntheticDataset::new(
        "dist-mlp",
        Shape::new(&[256]),
        10,
        DATASET_LEN,
        0.3,
        seed,
    ))
}

fn runner(net: &Network, data: Arc<dyn Dataset>, steps: usize, seed: u64) -> DistributedRunner {
    DistributedRunner::new(net, data)
        .world(WORLD)
        .batch(BATCH)
        .steps(steps)
        .seed(seed)
        .variant(Variant::Cdsgd)
        .network(NetworkModel::ethernet_10g())
        .executor(ExecutorKind::Planned)
}

/// Output checks on one finished run.
fn check_run(out: &mut Outcome, report: &RunReport) {
    out.check(report.all_completed(), "a rank did not complete");
    let consistency = report.consistency(CONSISTENCY_TOL);
    out.check(
        consistency.is_consistent(),
        format!("ranks disagree: {consistency}"),
    );
    out.check(
        report
            .ranks
            .iter()
            .all(|r| r.losses.iter().all(|l| l.is_finite())),
        "a rank's loss is not finite",
    );
}

/// One timed distributed run.
struct Timed {
    steps: usize,
    wall_s: f64,
    /// Wall time of every rank-step, from dataset access marks.
    step_s: Vec<f64>,
    fetch_s: Vec<f64>,
    report: RunReport,
}

impl Timed {
    fn samples_per_s(&self) -> f64 {
        (self.steps * WORLD * BATCH) as f64 / self.wall_s
    }
}

fn timed_run(
    net: &Network,
    data: &Arc<dyn Dataset>,
    steps: usize,
    seed: u64,
    trace: Option<&TraceRecorder>,
    out: &mut Outcome,
) -> Result<Timed, String> {
    let clocked = Arc::new(ClockedDataset::new(data.clone(), BATCH));
    let mut r = runner(net, clocked.clone(), steps, seed);
    if let Some(rec) = trace {
        r = r.trace(rec);
    }
    let t = Instant::now();
    let report = r.run().map_err(|e| format!("distributed run: {e}"))?;
    let wall_s = t.elapsed().as_secs_f64();
    check_run(out, &report);
    Ok(Timed {
        steps,
        wall_s,
        step_s: clocked.step_times_s(),
        fetch_s: clocked.fetch_times_s(),
        report,
    })
}

/// Steps of a timed run of `secs` seconds: a fixed count, sized at a
/// nominal step rate, so every run does the same work. Rank memory grows
/// with the steps a run takes, so sizing runs by wall time would make
/// `peak_rss_mb` follow the machine's speed.
fn steps_for(secs: f64) -> usize {
    ((secs * NOMINAL_STEPS_PER_S) as usize).max(WARM_STEPS)
}

pub fn run(args: &Args, budget: Duration) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut build_s = Vec::with_capacity(SETUP_REPS);
    let mut first_pass_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let net = network(args.seed)?;
        let data = dataset(args.seed);
        build_s.push(t.elapsed().as_secs_f64());
        let warm = timed_run(&net, &data, WARM_STEPS, args.seed, None, &mut out)?;
        first_pass_s.push(warm.wall_s);
        setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some((net, data));
    }
    let (net, data) = prepared.expect("at least one set-up");
    out.set("setup_s", median(&setup_s));
    out.set("setup.build_s", median(&build_s));
    out.set("setup.first_pass_s", median(&first_pass_s));
    let timed = budget.as_secs_f64();

    if !args.trace {
        let run = timed_run(&net, &data, steps_for(timed), args.seed, None, &mut out)?;
        let p50 = Percentile::of(&run.step_s, 0.5);
        let p90 = Percentile::of(&run.step_s, 0.9);
        let rate = run.samples_per_s();
        out.attempted = (run.steps * WORLD) as u64;
        out.set("samples_per_s", rate);
        out.set("latency_ms_tail", p90.value * 1e3);
        out.note(format!(
            "samples_per_s {rate:.1} 1/s over {} steps x {WORLD} ranks x {BATCH} in {:.3} s",
            run.steps, run.wall_s
        ));
        out.note(format!(
            "rank_step_ms_p50 {:.4} ms (n={})",
            p50.value * 1e3,
            p50.n
        ));
        out.note(format!(
            "rank_step_ms_p90 {:.4} ms (n={}, {} beyond)",
            p90.value * 1e3,
            p90.n,
            p90.beyond
        ));
    } else {
        solo_layers(&net, &data, args.seed, &mut out)?;
        let steps = steps_for(timed / 2.0);
        let plain = timed_run(&net, &data, steps, args.seed, None, &mut out)?;
        let recorder = TraceRecorder::new();
        let traced = timed_run(&net, &data, steps, args.seed, Some(&recorder), &mut out)?;
        out.attempted = (2 * steps * WORLD) as u64;

        let rank_steps = (steps * WORLD) as f64;
        let ops = OpClasses::of(&traced.report.op_attribution(), &net);
        let volume = traced.report.volume();
        let steps = steps as f64;
        let (bytes, msgs) = (volume.bytes_sent, volume.messages_sent);
        let comm_s = recorder.phase_total_s(Phase::Communication);
        let per_rank_step = |s: f64| s / rank_steps * 1e3;
        out.set("ops.conv_fwd_ms", per_rank_step(ops.conv_fwd_s));
        out.set("ops.conv_bwd_ms", per_rank_step(ops.conv_bwd_s));
        out.set("ops.gemm_gflops", ops.gemm_gflops());
        out.set("ops.eltwise_bwd_over_fwd", ops.eltwise_bwd_over_fwd());
        out.set("ops.other_ms", per_rank_step(ops.non_conv_s()));
        out.set("dist.comm_ms_per_step", per_rank_step(comm_s));
        out.set("dist.bytes_per_step", bytes as f64 / steps);
        out.set("dist.msgs_per_step", msgs as f64 / steps);
        out.set("dist.sim_step_ms", traced.report.makespan() / steps * 1e3);
        let fetch = &traced.fetch_s;
        out.set("data.sample_ms_p50", median(fetch) * 1e3);

        // Rank time from step boundaries, against what the layers own:
        // sampling, operators and communication. The rest is the
        // optimizer update, executor dispatch and the rank loop.
        let rank_time: f64 = traced.step_s.iter().sum();
        let counted = (traced.step_s.len() as f64).max(1.0);
        let explained = fetch.iter().sum::<f64>() + ops.total_s + comm_s;
        let explained_share = explained / rank_time.max(f64::MIN_POSITIVE);
        out.set("coverage", explained_share);
        out.set("residual_ms", (rank_time - explained) / counted * 1e3);
        out.set(
            "trace.overhead",
            plain.samples_per_s() / traced.samples_per_s() - 1.0,
        );
        out.note(format!(
            "traced {steps} steps: comm {:.4} ms per rank-step, {:.0} bytes and {:.0} messages per step",
            per_rank_step(comm_s),
            bytes as f64 / steps,
            msgs as f64 / steps
        ));
        out.note(format!(
            "coverage.dist-mlp {explained_share:.4}; residual rank.update+dispatch {:.4} ms per rank-step",
            (rank_time - explained) / counted * 1e3
        ));
    }
    Ok(out)
}

/// The single-worker loop over the same model and batch: executor call
/// time, per-node dispatch, plan bytes, buffer-pool hits and the local
/// optimizer update.
fn solo_layers(
    net: &Network,
    data: &Arc<dyn Dataset>,
    seed: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let engine = Engine::builder(net.clone_structure())
        .executor(ExecutorKind::Planned)
        .build()
        .map_err(|e| format!("solo engine: {e}"))?;
    let mut inner = engine.lock();
    let mut ex = TimedExecutor::new(&mut *inner);
    let mut sampler = ShuffleSampler::new(data.clone(), BATCH, seed);
    let mut opt = GradientDescent::new(0.1);
    let mut step_s = Vec::with_capacity(SOLO_STEPS);
    let mut before = None;
    for step in 0..SOLO_STEPS + WARM_STEPS {
        if step == WARM_STEPS {
            // Warm passes done: start the window.
            ex.calls_s.clear();
            before = Some((
                OpClasses::of(&ex.op_attribution(), ex.network()),
                ex.buffer_pool_stats(),
            ));
        }
        let batch = match sampler.next_batch().map_err(|e| e.to_string())? {
            Some(b) => b,
            None => {
                sampler.reset_epoch();
                sampler
                    .next_batch()
                    .map_err(|e| e.to_string())?
                    .ok_or("empty dataset")?
            }
        };
        let t = Instant::now();
        let result = train_step(&mut opt, &mut ex, &batch).map_err(|e| e.to_string())?;
        step_s.push(t.elapsed().as_secs_f64());
        out.check(result.loss.is_finite(), "single-worker loss is not finite");
    }
    let (ops_before, pool_before) = before.expect("window opened");
    let ops = OpClasses::of(&ex.op_attribution(), ex.network()).minus(&ops_before);
    let calls: f64 = ex.calls_s.iter().sum();
    let steps: f64 = step_s[WARM_STEPS..].iter().sum();
    let nodes = ex.network().nodes().count();
    out.set("graph.call_ms_p50", median(&ex.calls_s) * 1e3);
    out.set(
        "graph.dispatch_us_per_node",
        (calls - ops.total_s) / (ex.calls_s.len() * nodes).max(1) as f64 * 1e6,
    );
    out.set(
        "graph.plan_bytes",
        ex.static_plan_bytes().unwrap_or(0) as f64,
    );
    out.set("train.update_ms", (steps - calls) / SOLO_STEPS as f64 * 1e3);
    out.set(
        "tensor.pool_hit_ratio",
        pool_hit_ratio(pool_before, ex.buffer_pool_stats()),
    );
    Ok(())
}
