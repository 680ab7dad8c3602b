//! The metric catalogue, the run manifest and the printed report.
//!
//! Every workload prints the same metric names: the end-to-end set with
//! tracing off, the per-layer set with tracing on. A layer that a workload
//! does not exercise reads 0 (for example `serve.*` on `train-resnet`).
//! `BENCHMARK.json` lists the same names; `README.md` says what each one
//! measures on each workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("samples_per_s", "1/s"),
    ("latency_ms_tail", "ms"),
];

/// Per-layer metrics: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.admit_us_p50", "us"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p99", "ms"),
    ("serve.run_ms_p50", "ms"),
    ("serve.run_ms_per_row", "ms"),
    ("serve.reply_ms_p99", "ms"),
    ("serve.batch_rows_mean", "rows"),
    ("serve.batches", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("graph.call_ms_p50", "ms"),
    ("graph.dispatch_us_per_node", "us"),
    ("graph.plan_bytes", "bytes"),
    ("ops.conv_fwd_ms", "ms"),
    ("ops.conv_bwd_ms", "ms"),
    ("ops.gemm_gflops", "GFLOP/s"),
    ("ops.eltwise_bwd_over_fwd", "ratio"),
    ("ops.other_ms", "ms"),
    ("train.update_ms", "ms"),
    ("data.sample_ms_p50", "ms"),
    ("dist.comm_ms_per_step", "ms"),
    ("dist.bytes_per_step", "bytes"),
    ("dist.msgs_per_step", "count"),
    ("dist.sim_step_ms", "ms"),
    ("tensor.pool_hit_ratio", "ratio"),
    ("setup.build_s", "s"),
    ("setup.first_pass_s", "s"),
    ("coverage", "ratio"),
    ("residual_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: steps, requests or rank-steps.
    pub attempted: u64,
    /// Operations that failed or were rejected.
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub check_failures: Vec<String>,
    /// Metric values by catalogue name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric. A value that is not finite (a miss inside a
    /// quantile, a ratio over nothing) fails the run.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.check(value.is_finite(), format!("metric {name} is {value}"));
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Record an output check; a failed one fails the run.
    pub fn check(&mut self, holds: bool, what: impl Into<String>) {
        if !holds {
            self.check_failures.push(what.into());
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// of the chosen catalogue, in catalogue order. Layers the workload
    /// does not exercise read 0.
    pub fn result_json(&self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.check_failures.is_empty(),
            self.attempted,
            self.failed
        )
    }
}

/// A JSON number with every digit Rust prints for it; `null` for a value
/// that is not finite, which [`Outcome::set`] has already failed.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Quote `s` as a JSON string.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The run manifest: source revision, machine and build facts, and every
/// environment variable that changes how the program runs.
pub fn manifest() -> String {
    let mut fields: Vec<(String, String)> = vec![
        ("revision".into(), json_string(&revision())),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .to_string(),
        ),
        ("cpu_features".into(), cpu_features()),
        (
            "profile".into(),
            json_string(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ];
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k == "RAYON_NUM_THREADS" || k.starts_with("D5_"))
        .collect();
    env.sort();
    let env_json: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    fields.push(("env".into(), format!("{{{}}}", env_json.join(", "))));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The source revision: `git rev-parse HEAD` when the working directory
/// is a git checkout, else `unknown`.
fn revision() -> String {
    let cwd = std::env::current_dir().ok();
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        // Never pick up a repository above the working directory.
        .env(
            "GIT_CEILING_DIRECTORIES",
            cwd.as_ref()
                .and_then(|d| d.parent())
                .map(|p| p.as_os_str().to_owned())
                .unwrap_or_default(),
        )
        .stderr(std::process::Stdio::null())
        .output();
    match git {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

#[cfg(target_arch = "x86_64")]
fn cpu_features() -> String {
    format!(
        "{{\"avx2\": {}, \"avx512f\": {}, \"fma\": {}}}",
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512f"),
        std::arch::is_x86_feature_detected!("fma"),
    )
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_features() -> String {
    "{\"avx2\": false, \"avx512f\": false, \"fma\": false}".to_string()
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_the_whole_catalogue() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("setup_s", 0.25);
        let line = o.result_json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(line.contains("\"setup_s\": {\"value\": 0.25,"));
        o.check(false, "broken");
        assert!(o.result_json(true).starts_with("{\"correct\": false"));
    }

    #[test]
    fn a_metric_that_is_not_finite_fails_the_run() {
        let mut o = Outcome::default();
        o.set("latency_ms_tail", f64::INFINITY);
        let line = o.result_json(false);
        assert!(line.starts_with("{\"correct\": false"));
        assert!(line.contains("\"latency_ms_tail\": {\"value\": null,"));
        assert_eq!(o.check_failures, ["metric latency_ms_tail is inf"]);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let declared = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            declared.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
