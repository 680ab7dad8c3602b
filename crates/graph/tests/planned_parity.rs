//! Planned executor parity on the raw (uncompiled) zoo: results must be
//! *bit-identical* to the reference executor, for outputs and parameter
//! gradients, at every concurrency width. This is the contract that makes
//! the planned executor a drop-in replacement: running a level's nodes
//! concurrently over static slot buffers must never reorder any
//! floating-point accumulation.

use deep500_graph::validate::{test_executor, test_executor_backprop};
use deep500_graph::{grad_name, Engine, ExecutorKind, MemoryAccountant, Network};
use deep500_tensor::{Error, Tensor};

/// A `(model name, network, feeds)` parity test case.
type ZooCase = (&'static str, Network, Vec<(&'static str, Tensor)>);

/// The seed models with matching feeds (class-index labels).
fn zoo() -> Vec<ZooCase> {
    vec![
        (
            "mlp",
            deep500_graph::models::mlp(12, &[10, 8], 4, 3).unwrap(),
            vec![
                ("x", Tensor::ones([3, 12])),
                ("labels", Tensor::from_slice(&[0.0, 2.0, 3.0])),
            ],
        ),
        (
            "lenet",
            deep500_graph::models::lenet(1, 14, 4, 5).unwrap(),
            vec![
                ("x", Tensor::ones([2, 1, 14, 14])),
                ("labels", Tensor::from_slice(&[1.0, 3.0])),
            ],
        ),
        (
            "resnet",
            deep500_graph::models::resnet_like(1, 8, 4, 2, 3, 7).unwrap(),
            vec![
                ("x", Tensor::ones([2, 1, 8, 8])),
                ("labels", Tensor::from_slice(&[0.0, 2.0])),
            ],
        ),
    ]
}

#[test]
fn planned_inference_is_bit_identical_across_widths() {
    for (name, net, feeds) in zoo() {
        for threads in [0usize, 1, 2] {
            let pl = Engine::builder(net.clone_structure())
                .executor(ExecutorKind::Planned)
                .threads(threads)
                .build()
                .unwrap();
            let rf = Engine::builder(net.clone_structure()).build().unwrap();
            let (mut pl, mut rf) = (pl.lock(), rf.lock());
            let feeds: Vec<(&str, Tensor)> = feeds.iter().map(|(n, t)| (*n, t.clone())).collect();
            let report = test_executor(&mut *pl, &mut *rf, &feeds, 2).unwrap();
            assert!(
                report.passes(0.0),
                "{name} (threads={threads}): outputs differ: {:?}",
                report.output_norms
            );
        }
    }
}

#[test]
fn planned_backprop_is_bit_identical_across_widths() {
    for (name, net, feeds) in zoo() {
        for threads in [0usize, 1, 2] {
            let pl = Engine::builder(net.clone_structure())
                .executor(ExecutorKind::Planned)
                .threads(threads)
                .build()
                .unwrap();
            let rf = Engine::builder(net.clone_structure()).build().unwrap();
            let (mut pl, mut rf) = (pl.lock(), rf.lock());
            let feeds: Vec<(&str, Tensor)> = feeds.iter().map(|(n, t)| (*n, t.clone())).collect();
            let report = test_executor_backprop(&mut *pl, &mut *rf, &feeds, "loss", 2).unwrap();
            assert!(
                !report.gradient_norms.is_empty(),
                "{name}: no parameter gradients compared"
            );
            assert!(
                report.passes(0.0),
                "{name} (threads={threads}): outputs or gradients differ:\n\
                 outputs {:?}\ngrads {:?}",
                report.output_norms,
                report.gradient_norms
            );
        }
    }
}

/// Belt and braces: compare raw IEEE-754 bit patterns of every parameter
/// gradient, not just an ℓ∞ of 0 (which `-0.0 == 0.0` would satisfy).
#[test]
fn planned_gradients_match_reference_bitwise() {
    let (_, net, feeds) = zoo().remove(0);
    let pl = Engine::builder(net.clone_structure())
        .executor(ExecutorKind::Planned)
        .build()
        .unwrap();
    let rf = Engine::builder(net).build().unwrap();
    let (mut pl, mut rf) = (pl.lock(), rf.lock());
    let feeds: Vec<(&str, Tensor)> = feeds.iter().map(|(n, t)| (*n, t.clone())).collect();
    pl.inference_and_backprop(&feeds, "loss").unwrap();
    rf.inference_and_backprop(&feeds, "loss").unwrap();
    let params = rf.network().get_params().to_vec();
    assert!(!params.is_empty());
    for p in params {
        let g = grad_name(&p);
        let pg = pl.network().fetch_tensor(&g).unwrap();
        let rg = rf.network().fetch_tensor(&g).unwrap();
        let pbits: Vec<u32> = pg.data().iter().map(|v| v.to_bits()).collect();
        let rbits: Vec<u32> = rg.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(pbits, rbits, "gradient '{g}' differs bitwise");
    }
}

#[test]
fn planned_is_deterministic_across_repeated_passes() {
    let (_, net, feeds) = zoo().remove(1);
    let engine = Engine::builder(net)
        .executor(ExecutorKind::Planned)
        .build()
        .unwrap();
    let mut pl = engine.lock();
    let feeds: Vec<(&str, Tensor)> = feeds.iter().map(|(n, t)| (*n, t.clone())).collect();
    let first = pl.inference_and_backprop(&feeds, "loss").unwrap();
    for _ in 0..3 {
        // Later passes run on reused slot buffers; results must not move.
        let again = pl.inference_and_backprop(&feeds, "loss").unwrap();
        assert_eq!(
            first["loss"].data()[0].to_bits(),
            again["loss"].data()[0].to_bits()
        );
    }
}

#[test]
fn accountant_tracks_peak_under_concurrency() {
    let acc = MemoryAccountant::new(usize::MAX);
    let workers = 8usize;
    let per_thread = 1_000usize;
    let barrier = std::sync::Barrier::new(workers);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                acc.allocate(per_thread).unwrap();
                // Everyone holds its allocation at once: the true peak is
                // exactly workers * per_thread.
                barrier.wait();
                acc.release(per_thread);
            });
        }
    });
    assert_eq!(acc.peak(), workers * per_thread);
    assert_eq!(acc.current(), 0);
}

#[test]
fn accountant_enforces_capacity_under_concurrency() {
    // Capacity admits exactly half the racing allocations; the CAS loop
    // must never let the sum of successful claims exceed capacity.
    let workers = 8usize;
    let acc = MemoryAccountant::new(4 * 100);
    let successes = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                if acc.allocate(100).is_ok() {
                    successes.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(successes.load(std::sync::atomic::Ordering::Relaxed), 4);
    assert_eq!(acc.current(), 400);
    assert!(matches!(acc.allocate(1), Err(Error::OutOfMemory { .. })));
}

#[test]
fn planned_respects_memory_limit() {
    let net = deep500_graph::models::mlp(64, &[64], 8, 1).unwrap();
    let engine = Engine::builder(net)
        .executor(ExecutorKind::Planned)
        .memory_limit(1024)
        .build()
        .unwrap();
    let mut ex = engine.lock();
    let err = ex
        .inference(&[
            ("x", Tensor::ones([4, 64])),
            ("labels", Tensor::from_slice(&[0.0, 1.0, 2.0, 3.0])),
        ])
        .unwrap_err();
    assert!(matches!(err, Error::OutOfMemory { .. }));
}
