//! Bench-side spans around calls into the public API: wrappers that time
//! every call into a graph executor, a dataset sampler or a dataset, and
//! the operator-row classification of `op_attribution()`.
//!
//! Nothing here reaches inside a crate: each wrapper implements the
//! crate's public trait by forwarding to the wrapped value.

use deep500::data::{Dataset, DatasetSampler, Minibatch, Sample};
use deep500::graph::{GraphExecutor, Network, NodeId, OpTotals};
use deep500::metrics::event::EventList;
use deep500::metrics::trace::OpAttribution;
use deep500::tensor::{PoolStats, Result, Shape, Tensor};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// Times every executor pass of the wrapped executor.
pub struct TimedExecutor<'a> {
    inner: &'a mut dyn GraphExecutor,
    /// Wall seconds of each `inference_and_backprop` / `inference` call.
    pub calls_s: Vec<f64>,
}

impl<'a> TimedExecutor<'a> {
    pub fn new(inner: &'a mut dyn GraphExecutor) -> Self {
        TimedExecutor {
            inner,
            calls_s: Vec::new(),
        }
    }
}

impl GraphExecutor for TimedExecutor<'_> {
    fn network(&self) -> &Network {
        self.inner.network()
    }

    fn network_mut(&mut self) -> &mut Network {
        self.inner.network_mut()
    }

    fn inference(&mut self, feeds: &[(&str, Tensor)]) -> Result<HashMap<String, Tensor>> {
        let t = Instant::now();
        let out = self.inner.inference(feeds);
        self.calls_s.push(t.elapsed().as_secs_f64());
        out
    }

    fn inference_and_backprop(
        &mut self,
        feeds: &[(&str, Tensor)],
        loss: &str,
    ) -> Result<HashMap<String, Tensor>> {
        let t = Instant::now();
        let out = self.inner.inference_and_backprop(feeds, loss);
        self.calls_s.push(t.elapsed().as_secs_f64());
        out
    }

    fn events_mut(&mut self) -> &mut EventList {
        self.inner.events_mut()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }

    fn peak_memory(&self) -> usize {
        self.inner.peak_memory()
    }

    fn op_totals(&self) -> HashMap<usize, OpTotals> {
        self.inner.op_totals()
    }

    fn buffer_pool_stats(&self) -> Option<PoolStats> {
        self.inner.buffer_pool_stats()
    }

    fn static_plan_bytes(&self) -> Option<usize> {
        self.inner.static_plan_bytes()
    }

    fn shadow_violations(&self) -> Option<usize> {
        self.inner.shadow_violations()
    }
}

/// Times every `next_batch` call of the wrapped sampler.
pub struct TimedSampler<'a> {
    inner: &'a mut dyn DatasetSampler,
    /// Wall seconds of each `next_batch` call.
    pub fetch_s: Vec<f64>,
}

impl<'a> TimedSampler<'a> {
    pub fn new(inner: &'a mut dyn DatasetSampler) -> Self {
        TimedSampler {
            inner,
            fetch_s: Vec::new(),
        }
    }
}

impl DatasetSampler for TimedSampler<'_> {
    fn dataset(&self) -> &dyn Dataset {
        self.inner.dataset()
    }

    fn batch_size(&self) -> usize {
        self.inner.batch_size()
    }

    fn next_batch(&mut self) -> Result<Option<Minibatch>> {
        let t = Instant::now();
        let out = self.inner.next_batch();
        self.fetch_s.push(t.elapsed().as_secs_f64());
        out
    }

    fn reset_epoch(&mut self) {
        self.inner.reset_epoch()
    }
}

/// Per-thread record of one rank's dataset accesses.
#[derive(Default)]
struct RankClock {
    samples: usize,
    /// Instant the first sample of each minibatch was requested.
    batch_starts: Vec<Instant>,
    /// Seconds spent inside `sample` for each minibatch.
    batch_fetch_s: Vec<f64>,
}

/// A dataset wrapper that marks step boundaries of every thread that
/// samples from it: a rank fetches one minibatch of `batch` samples per
/// step, so the first sample of each minibatch starts a step.
pub struct ClockedDataset {
    inner: Arc<dyn Dataset>,
    batch: usize,
    ranks: Mutex<HashMap<ThreadId, RankClock>>,
}

impl ClockedDataset {
    pub fn new(inner: Arc<dyn Dataset>, batch: usize) -> Self {
        ClockedDataset {
            inner,
            batch: batch.max(1),
            ranks: Mutex::new(HashMap::new()),
        }
    }

    /// Wall time of every rank-step, pooled over ranks: the time from
    /// one minibatch's first sample to the next one's.
    pub fn step_times_s(&self) -> Vec<f64> {
        let ranks = self.ranks.lock().expect("rank clocks poisoned");
        ranks
            .values()
            .flat_map(|r| {
                r.batch_starts
                    .windows(2)
                    .map(|w| (w[1] - w[0]).as_secs_f64())
            })
            .collect()
    }

    /// Seconds spent fetching each minibatch, pooled over ranks.
    pub fn fetch_times_s(&self) -> Vec<f64> {
        let ranks = self.ranks.lock().expect("rank clocks poisoned");
        ranks
            .values()
            .flat_map(|r| r.batch_fetch_s.iter().copied())
            .collect()
    }
}

impl Dataset for ClockedDataset {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn sample_shape(&self) -> Shape {
        self.inner.sample_shape()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn sample(&self, idx: usize) -> Result<Sample> {
        let start = Instant::now();
        let out = self.inner.sample(idx);
        let fetch = start.elapsed().as_secs_f64();
        let mut ranks = self.ranks.lock().expect("rank clocks poisoned");
        let clock = ranks.entry(std::thread::current().id()).or_default();
        if clock.samples.is_multiple_of(self.batch) {
            clock.batch_starts.push(start);
            clock.batch_fetch_s.push(0.0);
        }
        clock.samples += 1;
        if let Some(last) = clock.batch_fetch_s.last_mut() {
            *last += fetch;
        }
        out
    }
}

/// Operator time by operator class, summed from `op_attribution()` rows.
/// Every field is additive, so a window is the difference of two
/// snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpClasses {
    pub conv_fwd_s: f64,
    pub conv_bwd_s: f64,
    /// Forward time and forward FLOPs of Linear (GEMM) rows.
    pub gemm_fwd_s: f64,
    pub gemm_flops: f64,
    /// Forward and backward time of elementwise rows.
    pub eltwise_fwd_s: f64,
    pub eltwise_bwd_s: f64,
    /// Every operator second, all classes.
    pub total_s: f64,
}

impl OpClasses {
    /// Classify `rows` by the operator type of their node in `net`.
    pub fn of(rows: &[OpAttribution], net: &Network) -> OpClasses {
        let mut c = OpClasses::default();
        for row in rows {
            let op_type = net
                .node(NodeId(row.id))
                .map(|n| n.op_type.as_str())
                .unwrap_or("");
            match op_type {
                "Conv2d" | "PackConv2dFilter" => {
                    c.conv_fwd_s += row.forward_s;
                    c.conv_bwd_s += row.backward_s;
                }
                "Linear" | "MatMul" => {
                    c.gemm_fwd_s += row.forward_s;
                    c.gemm_flops += row.flops_per_call * row.forward_calls as f64;
                }
                "Relu" | "Add" | "Sub" | "Mul" | "Div" | "Sqrt" | "FusedElementwise" => {
                    c.eltwise_fwd_s += row.forward_s;
                    c.eltwise_bwd_s += row.backward_s;
                }
                _ => {}
            }
            c.total_s += row.total_s();
        }
        c
    }

    pub fn minus(&self, earlier: &OpClasses) -> OpClasses {
        OpClasses {
            conv_fwd_s: self.conv_fwd_s - earlier.conv_fwd_s,
            conv_bwd_s: self.conv_bwd_s - earlier.conv_bwd_s,
            gemm_fwd_s: self.gemm_fwd_s - earlier.gemm_fwd_s,
            gemm_flops: self.gemm_flops - earlier.gemm_flops,
            eltwise_fwd_s: self.eltwise_fwd_s - earlier.eltwise_fwd_s,
            eltwise_bwd_s: self.eltwise_bwd_s - earlier.eltwise_bwd_s,
            total_s: self.total_s - earlier.total_s,
        }
    }

    /// Operator seconds outside convolutions.
    pub fn non_conv_s(&self) -> f64 {
        self.total_s - self.conv_fwd_s - self.conv_bwd_s
    }

    /// Achieved forward GEMM rate, GFLOP/s (0 when no GEMM ran).
    pub fn gemm_gflops(&self) -> f64 {
        if self.gemm_fwd_s > 0.0 {
            self.gemm_flops / self.gemm_fwd_s / 1e9
        } else {
            0.0
        }
    }

    /// Elementwise backward time over elementwise forward time.
    pub fn eltwise_bwd_over_fwd(&self) -> f64 {
        if self.eltwise_fwd_s > 0.0 {
            self.eltwise_bwd_s / self.eltwise_fwd_s
        } else {
            0.0
        }
    }
}

/// Buffer-pool hit ratio over a window: hits / acquisitions.
pub fn pool_hit_ratio(before: Option<PoolStats>, after: Option<PoolStats>) -> f64 {
    match (before, after) {
        (Some(b), Some(a)) => {
            let hits = a.hits.saturating_sub(b.hits);
            let acquisitions = hits + a.misses.saturating_sub(b.misses);
            if acquisitions > 0 {
                hits as f64 / acquisitions as f64
            } else {
                0.0
            }
        }
        _ => 0.0,
    }
}
