//! `profile` — the unified tracing/profiling harness.
//!
//! Runs two traced workloads into one shared
//! [`TraceRecorder`](deep500::metrics::TraceRecorder):
//!
//! 1. a 2-epoch planned-executor training run (operator, sampling,
//!    iteration, and epoch spans from the existing `Event` hooks), and
//! 2. a small data-parallel distributed run with every rank's communicator
//!    wrapped in a `TracingCommunicator` (per-peer communication spans).
//!
//! Emits, at the repo root:
//!
//! * `trace.json` — Chrome trace-event JSON; open in `chrome://tracing` or
//!   Perfetto. Self-validated with `validate_chrome_trace` before writing.
//! * `BENCH_profile.json` — machine-readable per-operator attribution
//!   (wall time, GFLOP/s, bytes moved), phase totals, dataset latency, and
//!   communication volume.
//!
//! Run with: `cargo run --release -p deep500-bench --bin profile`

use deep500::dist::{DistributedRunner, Variant};
use deep500::metrics::{validate_chrome_trace, Phase, TraceRecorder};
use deep500::prelude::*;
use std::sync::Arc;

fn main() {
    let recorder = TraceRecorder::new();

    // ---- 1. Traced 2-epoch planned training ------------------------------
    // Sized so operator work dominates per-node dispatch overhead: the
    // whole-run coverage gate below leaves <10% of epoch wall time
    // unattributed, which a toy model cannot meet in release builds.
    let features = 64;
    let net = models::mlp(features, &[256, 128], 8, 42).expect("build mlp");
    let engine = Engine::builder(net)
        .executor(ExecutorKind::Planned)
        .trace(&recorder)
        .build()
        .expect("build planned engine");
    let mut ex = engine.lock();

    let train_ds = SyntheticDataset::new(
        "profile-train",
        deep500::tensor::Shape::new(&[features]),
        8,
        256,
        0.2,
        7,
    );
    let mut sampler = ShuffleSampler::new(Arc::new(train_ds), 32, 7);
    let mut opt = GradientDescent::new(0.05);
    let mut runner = TrainingRunner::new(TrainingConfig {
        epochs: 2,
        ..Default::default()
    });
    runner.events.push(Box::new(recorder.sink("runner")));
    let log = runner
        .run(&mut opt, &mut *ex, &mut sampler, None)
        .expect("training run");
    ex.annotate_trace(&recorder);

    // ---- Whole-run attribution coverage ----------------------------------
    // Snapshotted here, before the distributed run adds its own spans.
    // Numerator: per-operator attribution plus every owned non-operator
    // phase of the training loop (sampling, batch assembly, loss-gradient
    // seeding, optimizer updates, pool/plan bookkeeping). Denominator: the
    // whole run — total `Epoch` wall time. What is left is genuinely
    // unowned glue (level dispatch, runner loop overhead).
    let attribution = ex.op_attribution();
    let attributed: f64 = attribution.iter().map(|r| r.total_s()).sum();
    let owned_phases = [
        Phase::Sampling,
        Phase::BatchAssembly,
        Phase::LossSeed,
        Phase::OptimizerUpdate,
        Phase::Bookkeeping,
    ];
    let owned: f64 = owned_phases
        .iter()
        .map(|p| recorder.phase_total_s(*p))
        .sum();
    let run_total = recorder.phase_total_s(Phase::Epoch);
    let coverage = if run_total > 0.0 {
        (attributed + owned) / run_total
    } else {
        0.0
    };

    // ---- 2. Traced distributed run ---------------------------------------
    let dist_net = models::mlp(features, &[32], 4, 43).expect("build dist mlp");
    let dist_ds: Arc<dyn Dataset> = Arc::new(SyntheticDataset::new(
        "profile-dist",
        deep500::tensor::Shape::new(&[features]),
        4,
        128,
        0.2,
        8,
    ));
    let report = DistributedRunner::new(&dist_net, dist_ds)
        .world(2)
        .batch(8)
        .steps(8)
        .variant(Variant::Cdsgd)
        .trace(&recorder)
        .run()
        .expect("distributed run");
    assert!(report.all_completed(), "distributed ranks must complete");
    let volume = report.volume();

    // ---- Chrome trace: validate, then write ------------------------------
    let json = recorder.chrome_trace_json();
    let stats = match validate_chrome_trace(&json) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("profile: emitted Chrome trace fails validation: {e}");
            std::process::exit(1);
        }
    };
    let trace_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../trace.json");
    std::fs::write(trace_path, &json).expect("write trace.json");
    println!(
        "profile: wrote {trace_path} ({} spans, {} metadata events)",
        stats.spans, stats.metadata
    );

    // ---- Human-readable attribution --------------------------------------
    println!("\n{}", recorder.attribution_table().render());
    println!(
        "attribution coverage: {:.1}% of {:.1} ms whole-run (Epoch) wall time",
        coverage * 100.0,
        run_total * 1e3
    );
    if coverage < 0.90 {
        eprintln!(
            "profile: FAIL attribution coverage {:.4} below the 0.90 floor",
            coverage
        );
        std::process::exit(1);
    }
    let latency = log.dataset_latency().expect("batches were fetched");
    println!(
        "dataset latency: median {:.3} ms over {} batches ({:.1} ms total)",
        latency.median * 1e3,
        latency.n,
        log.sampling_total() * 1e3
    );
    println!(
        "communication: {} msgs / {} bytes sent across {} ranks",
        volume.messages_sent,
        volume.bytes_sent,
        report.ranks.len()
    );

    // ---- BENCH_profile.json ----------------------------------------------
    let op_rows: Vec<String> = attribution
        .iter()
        .map(|r| {
            format!(
                "    {{\"op\": \"{}\", \"forward_calls\": {}, \"backward_calls\": {}, \
                 \"forward_ms\": {:.6}, \"backward_ms\": {:.6}, \"gflops_per_s\": {:.3}, \
                 \"flops_per_call\": {:.1}, \"bytes_per_call\": {}}}",
                r.name,
                r.forward_calls,
                r.backward_calls,
                r.forward_s * 1e3,
                r.backward_s * 1e3,
                r.gflops_per_s(),
                r.flops_per_call,
                r.bytes_per_call
            )
        })
        .collect();
    // Every phase the metrics layer defines, not a hand-picked subset:
    // a new Phase variant shows up here (and in the schema check) for free.
    let phase_rows: Vec<String> = Phase::all()
        .iter()
        .map(|p| {
            // `+ 0.0` normalizes the -0.0 an empty phase can produce.
            let ms = recorder.phase_total_s(*p) * 1e3 + 0.0;
            format!("    \"{}\": {:.6}", p.label(), ms)
        })
        .collect();
    let profile_json = format!(
        "{{\n  \"benchmark\": \"profile\",\n  \"trace_file\": \"trace.json\",\n  \
         \"trace_spans\": {},\n  \"attribution_coverage\": {:.4},\n  \
         \"phase_totals_ms\": {{\n{}\n  }},\n  \"operators\": [\n{}\n  ],\n  \
         \"dataset_latency_ms\": {{\"median\": {:.6}, \"mean\": {:.6}, \"max\": {:.6}, \"n\": {}}},\n  \
         \"communication\": {{\"bytes_sent\": {}, \"bytes_received\": {}, \
         \"messages_sent\": {}, \"messages_received\": {}}}\n}}\n",
        stats.spans,
        coverage,
        phase_rows.join(",\n"),
        op_rows.join(",\n"),
        latency.median * 1e3,
        latency.mean * 1e3,
        latency.max * 1e3,
        latency.n,
        volume.bytes_sent,
        volume.bytes_received,
        volume.messages_sent,
        volume.messages_received,
    );
    let profile_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_profile.json");
    std::fs::write(profile_path, &profile_json).expect("write BENCH_profile.json");
    println!("profile: wrote {profile_path}");
}
