//! `serve-lenet`: an open loop of independent users. Seeded Poisson
//! arrivals send single-image requests to `lenet(1, 28, 10)` behind a
//! `Server` (Planned executor, dynamic batching up to 16 rows or 2 ms,
//! 2 workers, queue capacity 256), over a fixed ladder of offered rates.
//! Forward-only with read-only weights: admission, queueing, batch
//! assembly and dispatch carry a large share, and no training code runs.
//!
//! The load generator lives here, over `Server::submit` and
//! `Ticket::wait`: every request is timed from the instant it was due,
//! so a generator that falls behind its schedule shows up as latency and
//! as `loadgen.late_ms_p99`. Rejected and failed requests count as
//! misses. The ladder runs in rounds, one segment of every rung per round,
//! each round closed by a segment at saturation, whose replies per second
//! are the workload's throughput.

use crate::report::Outcome;
use crate::stats::{mean, median, Percentile};
use crate::{Args, SETUP_REPS};
use deep500::data::Dataset;
use deep500::metrics::TraceRecorder;
use deep500::prelude::*;
use deep500::serve::{RequestTiming, Ticket};
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const MODEL: &str = "lenet";
/// Distinct input images; request `i` sends a seeded pick among them.
const POOL: usize = 256;
const QUEUE_CAPACITY: usize = 256;
/// The generator holds back while the admission queue holds this many.
const BACKLOG_LIMIT: usize = QUEUE_CAPACITY / 2;
/// Submissions between two looks at the queue; the queue stays below
/// `BACKLOG_LIMIT + BACKLOG_CHECK_EVERY`, well under its capacity.
const BACKLOG_CHECK_EVERY: usize = 16;
/// The latency limit on p99, from due time to reply.
const SLO_P99_MS: f64 = 10.0;
const LIGHT_RPS: f64 = 2000.0;
const HEAVY_RPS: f64 = 6000.0;
/// Offered rates, ascending. `light` and `heavy` are rungs of it.
const LADDER: &[f64] = &[
    1000.0, 2000.0, 4000.0, 6000.0, 7000.0, 8000.0, 9000.0, 10000.0, 11000.0, 12000.0, 13000.0,
    14000.0, 16000.0,
];
/// `light` and `heavy` run this many times longer than the other rungs.
const NAMED_RUNG_WEIGHT: f64 = 3.0;
/// The ladder runs this many times, each round offering one segment of
/// every rung in ascending order, so that each rung samples the host over
/// the whole run rather than over one stretch of it.
const ROUNDS: usize = 7;
/// The saturation segments offer their requests all at once (a million per
/// second): the generator keeps the admission queue at `BACKLOG_LIMIT`, so
/// the workers never wait for work and replies per second are capacity.
const SATURATION_RPS: f64 = 1e6;
/// Share of `--seconds` planned for the saturation segments.
const SATURATION_SHARE: f64 = 1.0 / 5.0;
/// Replies per second at saturation on a 2-vCPU x86-64 VM with AVX-512;
/// it sizes the saturation segments, so every run offers the same number
/// of requests and a faster server finishes them sooner.
const NOMINAL_CAPACITY_RPS: f64 = 14000.0;
/// A rung has a growing backlog when the generator's median lateness over
/// the rung's last this-many seconds exceeds the latency limit.
const BACKLOG_WINDOW_S: f64 = 0.4;

/// The seeded request inputs and the Reference executor's answer to each.
struct Inputs {
    images: Vec<Tensor>,
    labels: Vec<Tensor>,
    expected: Vec<Vec<u32>>,
}

fn network(seed: u64) -> Result<Network, String> {
    models::lenet(1, 28, 10, seed).map_err(|e| e.to_string())
}

fn make_inputs(seed: u64) -> Result<Inputs, String> {
    let dataset = SyntheticDataset::mnist_like(POOL, seed);
    let reference = Engine::builder(network(seed)?)
        .build()
        .map_err(|e| format!("reference engine: {e}"))?;
    let session = reference.session();
    let mut inputs = Inputs {
        images: Vec::with_capacity(POOL),
        labels: Vec::with_capacity(POOL),
        expected: Vec::with_capacity(POOL),
    };
    for i in 0..POOL {
        let sample = dataset.sample(i).map_err(|e| e.to_string())?;
        let mut image = sample.data;
        image.reshape(&[1, 1, 28, 28]).map_err(|e| e.to_string())?;
        let label = Tensor::from_slice(&[sample.label as f32]);
        let outputs = session
            .infer(&[("x", image.clone()), ("labels", label.clone())])
            .map_err(|e| format!("reference inference: {e}"))?;
        inputs.expected.push(logit_bits(&outputs)?);
        inputs.images.push(image);
        inputs.labels.push(label);
    }
    Ok(inputs)
}

fn logit_bits(outputs: &HashMap<String, Tensor>) -> Result<Vec<u32>, String> {
    Ok(outputs
        .get("logits")
        .ok_or("reply has no logits")?
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect())
}

fn build_server(seed: u64, trace: Option<&TraceRecorder>) -> Result<Server, String> {
    let mut builder = Server::builder().model(
        MODEL,
        ModelConfig::new(network(seed)?)
            .executor(ExecutorKind::Planned)
            .policy(BatchPolicy::Dynamic {
                max_batch: 16,
                max_delay: Duration::from_millis(2),
            })
            .workers(2)
            .queue_capacity(QUEUE_CAPACITY)
            .batched_input("x", &[1, 28, 28])
            .batched_input("labels", &[]),
    );
    if let Some(recorder) = trace {
        builder = builder.trace(recorder);
    }
    builder.build().map_err(|e| format!("server build: {e}"))
}

/// Warm passes: closed bursts of every batch size the policy can form, so
/// each worker has built its plan for each size before timing starts.
fn warm(server: &Server, inputs: &Inputs) -> Result<(), String> {
    for _round in 0..2 {
        for burst in 1..=16usize {
            let tickets: Vec<Ticket> = (0..burst)
                .map(|i| {
                    server
                        .submit(
                            MODEL,
                            &[
                                ("x", inputs.images[i].clone()),
                                ("labels", inputs.labels[i].clone()),
                            ],
                        )
                        .map_err(|e| format!("warm submit: {e}"))
                })
                .collect::<Result<_, _>>()?;
            for t in tickets {
                t.wait().map_err(|e| format!("warm reply: {e}"))?;
            }
        }
    }
    Ok(())
}

/// One admitted request on its way to the collector.
struct Sent {
    pick: usize,
    due: Instant,
    submitted: Instant,
    returned: Instant,
    ticket: Ticket,
}

/// What one rung of offered load measured.
#[derive(Default)]
struct Rung {
    rate: f64,
    sent: usize,
    rejected: usize,
    failed: usize,
    mismatched: usize,
    /// Over the segment's last `BACKLOG_WINDOW_S` the generator ran, at
    /// the median, further behind its schedule than the latency limit:
    /// arrivals outpaced service. For a whole rung: in some segment.
    backlog: bool,
    /// Due time to reply, ms, per completed request.
    latency_ms: Vec<f64>,
    /// Due time to the return of `submit`, ms.
    late_ms: Vec<f64>,
    /// `submit` call time, µs.
    admit_us: Vec<f64>,
    /// Server-side timing of each reply.
    timings: Vec<RequestTiming>,
    /// p90 latency from due time of each absorbed segment, ms.
    segment_p90_ms: Vec<f64>,
    /// Wall time from the start of the schedule to the last reply, s.
    wall_s: f64,
}

impl Rung {
    fn new(rate: f64) -> Rung {
        Rung {
            rate,
            ..Rung::default()
        }
    }

    /// Add the requests of another segment at the same rate.
    fn absorb(&mut self, other: Rung) {
        self.sent += other.sent;
        self.rejected += other.rejected;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        self.backlog |= other.backlog;
        self.segment_p90_ms.push(other.quantile(0.9).value);
        self.wall_s += other.wall_s;
        self.latency_ms.extend(other.latency_ms);
        self.late_ms.extend(other.late_ms);
        self.admit_us.extend(other.admit_us);
        self.timings.extend(other.timings);
    }

    /// The `q`-quantile of latency from due time over every request of
    /// the rung; a rejected or failed request is a miss of any limit.
    fn quantile(&self, q: f64) -> Percentile {
        let misses = self.rejected + self.failed;
        let mut all = self.latency_ms.clone();
        all.extend(std::iter::repeat_n(f64::INFINITY, misses));
        Percentile::of(&all, q)
    }

    fn meets_slo(&self) -> bool {
        !self.backlog && self.quantile(0.99).value <= SLO_P99_MS
    }
}

/// Offer `rate` requests per second, Poisson, for `secs` seconds; the
/// schedule is drawn from `seed`, `rate` and `segment`.
///
/// The generator never lets the admission queue fill: when it holds
/// `BACKLOG_LIMIT` requests (checked every `BACKLOG_CHECK_EVERY`
/// submissions), the generator waits for it to drain, and the wait counts
/// as lateness of every request due meanwhile. So no request
/// is refused, every run offers the whole seeded schedule, and overload
/// shows as latency and as `backlog`.
fn rung(server: &Server, inputs: &Inputs, rate: f64, secs: f64, seed: u64, segment: u64) -> Rung {
    let mut rng = Xoshiro256StarStar::seed_from_u64(
        seed ^ rate.to_bits() ^ segment.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let mut schedule: Vec<(f64, usize)> = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= secs {
            break;
        }
        schedule.push((t, (rng.next_u64() % POOL as u64) as usize));
    }

    let mut rung = Rung::new(rate);
    let start = Instant::now();
    let (tx, rx) = mpsc::channel::<Sent>();
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut got = Rung::default();
            for sent in rx {
                match sent.ticket.wait() {
                    Ok(reply) => {
                        let late = (sent.returned - sent.due).as_secs_f64();
                        got.late_ms.push(late * 1e3);
                        got.latency_ms.push((late + reply.timing.total_s) * 1e3);
                        if logit_bits(&reply.outputs).ok().as_ref()
                            != Some(&inputs.expected[sent.pick])
                        {
                            got.mismatched += 1;
                        }
                        got.admit_us
                            .push((sent.returned - sent.submitted).as_secs_f64() * 1e6);
                        got.timings.push(reply.timing);
                    }
                    Err(_) => got.failed += 1,
                }
            }
            got
        });

        let mut final_late_ms = Vec::new();
        for (i, &(offset, pick)) in schedule.iter().enumerate() {
            let due = start + Duration::from_secs_f64(offset);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            while i % BACKLOG_CHECK_EVERY == 0
                && server
                    .stats(MODEL)
                    .is_some_and(|s| s.queued >= BACKLOG_LIMIT)
            {
                std::thread::sleep(Duration::from_micros(100));
            }
            let feeds = [
                ("x", inputs.images[pick].clone()),
                ("labels", inputs.labels[pick].clone()),
            ];
            rung.sent += 1;
            let submitted = Instant::now();
            match server.submit(MODEL, &feeds) {
                Ok(ticket) => {
                    let returned = Instant::now();
                    if offset >= secs - BACKLOG_WINDOW_S {
                        final_late_ms.push((returned - due).as_secs_f64() * 1e3);
                    }
                    let sent = Sent {
                        pick,
                        due,
                        submitted,
                        returned,
                        ticket,
                    };
                    if tx.send(sent).is_err() {
                        rung.failed += 1;
                    }
                }
                Err(ServeError::QueueFull { .. }) => rung.rejected += 1,
                Err(_) => rung.failed += 1,
            }
        }
        rung.backlog = median(&final_late_ms) > SLO_P99_MS;
        drop(tx);
        let got = collector.join().expect("collector thread panicked");
        rung.failed += got.failed;
        rung.mismatched = got.mismatched;
        rung.latency_ms = got.latency_ms;
        rung.late_ms = got.late_ms;
        rung.admit_us = got.admit_us;
        rung.timings = got.timings;
    });
    rung.wall_s = start.elapsed().as_secs_f64();
    rung
}

fn fmt_pct(name: &str, rung: &Rung, q: f64) -> String {
    let p = rung.quantile(q);
    format!("{name} {:.4} ms (n={}, {} beyond)", p.value, p.n, p.beyond)
}

/// Build a server, optionally traced, and warm it; returns the server
/// with its build time and warm-up time.
fn ready_server(
    seed: u64,
    inputs: &Inputs,
    trace: Option<&TraceRecorder>,
) -> Result<(Server, f64, f64), String> {
    let t = Instant::now();
    let server = build_server(seed, trace)?;
    let build_s = t.elapsed().as_secs_f64();
    let w = Instant::now();
    warm(&server, inputs)?;
    Ok((server, build_s, w.elapsed().as_secs_f64()))
}

pub fn run(args: &Args, budget: Duration) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = make_inputs(args.seed)?;

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut build_s = Vec::with_capacity(SETUP_REPS);
    let mut warm_s = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            Server::shutdown(s);
        }
        let t = Instant::now();
        let (s, build, warm) = ready_server(args.seed, &inputs, None)?;
        setup_s.push(t.elapsed().as_secs_f64());
        build_s.push(build);
        warm_s.push(warm);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    out.set("setup_s", median(&setup_s));
    out.set("setup.build_s", median(&build_s));
    out.set("setup.first_pass_s", median(&warm_s));
    // Rung lengths follow from `--seconds` alone, so one seed always
    // offers the same schedule.
    let timed = budget.as_secs_f64();

    let mut rungs: Vec<Rung> = Vec::new();
    if !args.trace {
        // Every segment of every rung runs, so each run offers the same
        // schedule.
        let weight = |rate: f64| {
            if rate == LIGHT_RPS || rate == HEAVY_RPS {
                NAMED_RUNG_WEIGHT
            } else {
                1.0
            }
        };
        let ladder_s = timed * (1.0 - SATURATION_SHARE);
        let unit = ladder_s / LADDER.iter().map(|&r| weight(r)).sum::<f64>();
        let saturation_s =
            timed * SATURATION_SHARE * NOMINAL_CAPACITY_RPS / SATURATION_RPS / ROUNDS as f64;
        rungs = LADDER.iter().map(|&r| Rung::new(r)).collect();
        let mut saturation = Rung::new(SATURATION_RPS);
        for round in 0..ROUNDS as u64 {
            for r in rungs.iter_mut() {
                let secs = weight(r.rate) * unit / ROUNDS as f64;
                r.absorb(rung(&server, &inputs, r.rate, secs, args.seed, round));
            }
            let segment = rung(
                &server,
                &inputs,
                SATURATION_RPS,
                saturation_s,
                args.seed,
                round,
            );
            saturation.absorb(segment);
        }
        Server::shutdown(server);
        let capacity = saturation.latency_ms.len() as f64 / saturation.wall_s;
        let find = |rate: f64| {
            rungs
                .iter()
                .find(|r| r.rate == rate)
                .expect("named rung ran")
        };
        let (light, heavy) = (find(LIGHT_RPS), find(HEAVY_RPS));
        let slo_rps = rungs
            .iter()
            .filter(|r| r.meets_slo())
            .map(|r| r.rate)
            .fold(0.0, f64::max);
        out.set("samples_per_s", capacity);
        out.note(format!(
            "samples_per_s {capacity:.1} replies/s at saturation ({} replies in {:.3} s)",
            saturation.latency_ms.len(),
            saturation.wall_s
        ));
        // The gated tail is the median of the heavy segments' p90s: a
        // stall of the shared host that spoils a few segments is left
        // out, a slowdown of every segment is not. The pooled p90 is
        // printed below.
        let tail = median(&heavy.segment_p90_ms);
        out.set("latency_ms_tail", tail);
        out.note(format!(
            "latency_ms_tail {tail:.4} ms (median of {} heavy segments' p90)",
            heavy.segment_p90_ms.len()
        ));
        out.note(format!(
            "slo_rps {slo_rps} req/s (highest rung with p99 from due <= {SLO_P99_MS} ms and no backlog)"
        ));
        out.note(fmt_pct("latency_ms_p50.light", light, 0.5));
        out.note(fmt_pct("latency_ms_p99.light", light, 0.99));
        out.note(fmt_pct("latency_ms_p50.heavy", heavy, 0.5));
        out.note(fmt_pct("latency_ms_p90.heavy", heavy, 0.9));
        out.note(fmt_pct("latency_ms_p99.heavy", heavy, 0.99));
        for r in &rungs {
            out.note(format!(
                "rung {:>6} req/s: sent {:>6} p99 {:>9.3} ms backlog {} {}",
                r.rate,
                r.sent,
                r.quantile(0.99).value,
                r.backlog,
                if r.meets_slo() { "meets" } else { "misses" }
            ));
        }
        rungs.push(saturation);
    } else {
        // The heavy rung's schedule twice: once on the untraced server,
        // once on a server that records its request, batch and operator
        // spans. `trace.overhead` is the ratio of their medians.
        let half = timed / 2.0;
        let plain = rung(&server, &inputs, HEAVY_RPS, half, args.seed, 0);
        Server::shutdown(server);
        let recorder = TraceRecorder::new();
        let (server, _, _) = ready_server(args.seed, &inputs, Some(&recorder))?;
        let before = server.stats(MODEL).ok_or("model not served")?;
        let traced = rung(&server, &inputs, HEAVY_RPS, half, args.seed, 0);
        let after = server.stats(MODEL).ok_or("model not served")?;
        Server::shutdown(server);
        layer_metrics(&mut out, &traced, after.batches - before.batches);
        out.set(
            "trace.overhead",
            traced.quantile(0.5).value / plain.quantile(0.5).value - 1.0,
        );
        rungs.push(plain);
        rungs.push(traced);
    }

    let sent: usize = rungs.iter().map(|r| r.sent).sum();
    let rejected: usize = rungs.iter().map(|r| r.rejected).sum();
    let failed: usize = rungs.iter().map(|r| r.failed).sum();
    let mismatched: usize = rungs.iter().map(|r| r.mismatched).sum();
    out.attempted = sent as u64;
    out.failed = (rejected + failed) as u64;
    out.note(format!(
        "fail_ratio {:.6} ({rejected} rejected + {failed} failed of {sent})",
        (rejected + failed) as f64 / sent.max(1) as f64
    ));
    out.check(
        mismatched == 0,
        format!("{mismatched} replies differ bitwise from a solo Reference inference"),
    );
    Ok(out)
}

/// Per-layer numbers of one traced rung.
fn layer_metrics(out: &mut Outcome, rung: &Rung, batches: usize) {
    let ms = |f: fn(&RequestTiming) -> f64| -> Vec<f64> {
        rung.timings.iter().map(|t| f(t) * 1e3).collect()
    };
    let queued = ms(|t| t.queued_s);
    let run = ms(|t| t.run_s);
    let reply = ms(|t| t.total_s - t.queued_s - t.run_s);
    // One entry per batch: its run time and row count.
    let mut per_batch: HashMap<usize, (f64, usize)> = HashMap::new();
    for t in &rung.timings {
        per_batch.insert(t.batch_id, (t.run_s, t.batch_rows));
    }
    let batch_run_s: f64 = per_batch.values().map(|(s, _)| s).sum();
    let batch_rows: usize = per_batch.values().map(|(_, r)| r).sum();

    out.set("serve.admit_us_p50", median(&rung.admit_us));
    out.set("serve.queue_ms_p50", median(&queued));
    out.set("serve.queue_ms_p99", Percentile::of(&queued, 0.99).value);
    out.set("serve.run_ms_p50", median(&run));
    out.set(
        "serve.run_ms_per_row",
        batch_run_s * 1e3 / batch_rows.max(1) as f64,
    );
    out.set("serve.reply_ms_p99", Percentile::of(&reply, 0.99).value);
    out.set(
        "serve.batch_rows_mean",
        batch_rows as f64 / per_batch.len().max(1) as f64,
    );
    out.set("serve.batches", batches as f64);
    out.set(
        "loadgen.late_ms_p99",
        Percentile::of(&rung.late_ms, 0.99).value,
    );
    // Latency from due time is lateness (which includes admission) plus
    // the server's queue, run and reply stages; the reply stage (batch
    // split plus waking the client) is the part no layer owns.
    let total: f64 = rung.latency_ms.iter().sum();
    let unowned: f64 = reply.iter().sum();
    out.set("coverage", (total - unowned) / total);
    out.set("residual_ms", mean(&reply));
    out.note(format!(
        "traced {} requests at {HEAVY_RPS} req/s: queue p50 {:.4} ms, run p50 {:.4} ms, {:.2} rows per batch",
        rung.latency_ms.len(),
        median(&queued),
        median(&run),
        batch_rows as f64 / per_batch.len().max(1) as f64
    ));
    out.note(format!(
        "coverage.serve-lenet {:.4}; residual serve.reply (split + wake-up) {:.4} ms per request",
        (total - unowned) / total,
        mean(&reply)
    ));
}
