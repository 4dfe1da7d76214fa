//! Host-performance benchmark of the Evanesco emulator stack.
//!
//! One command runs three workloads (see [`workloads::Workload`]) end to
//! end, checks the emulator's outputs, and prints every end-to-end
//! metric by name and unit; a separate traced run replays each
//! workload's trace through a ladder of layers and prints the per-layer
//! metrics. Metric names and units are fixed in [`END_TO_END`] and
//! [`PER_LAYER`] and mirrored by `BENCHMARK.json` at the repository root.

pub mod calib;
pub mod fleet;
pub mod ladder;
pub mod single;
pub mod spans;
pub mod stats;
pub mod workloads;

use spans::Spans;
use workloads::{Plan, Workload};

/// End-to-end metrics `(name, unit)`, reported by an untraced run.
pub const END_TO_END: [(&str, &str); 12] = [
    ("host_pages_per_s", "1/s"),
    ("chunk_host_ms_p50", "ms"),
    ("chunk_host_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_op_share", "share"),
    ("sim_iops", "1/s"),
    ("sim_read_mean_us", "us"),
    ("sim_read_p99_us", "us"),
    ("sim_write_p99_us", "us"),
    ("sim_victim_p99_us", "us"),
    ("waf", "x"),
];

/// Per-layer metrics `(name, unit)`, reported by a traced run.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("workloads.gen_ns_per_req", "ns"),
    ("ftl.mem_ns_per_page", "ns"),
    ("ssd.timed_qd1_ns_per_page", "ns"),
    ("sched.qd8_ns_per_page", "ns"),
    ("sched.qd32_ns_per_page", "ns"),
    ("core.flags_ns_per_lock", "ns"),
    ("core.flags_share", "share"),
    ("ssd.gauges_x", "x"),
    ("ssd.trace_x", "x"),
    ("ssd.anatomy_x", "x"),
    ("trace.events_per_req_p50", "count"),
    ("trace.events_per_req_max", "count"),
    ("fleet.admission_ns_per_req", "ns"),
    ("fleet.shard_speedup", "x"),
    ("fleet.shard_imbalance", "x"),
    ("ftl.gc_copies_per_host_page", "count"),
    ("ftl.plocks_per_host_page", "count"),
    ("ftl.coalesced_share", "share"),
    ("ssd.chip_util_mean", "share"),
    ("ssd.channel_util_mean", "share"),
    ("anatomy.queue_wait_share", "share"),
    ("anatomy.dispatch_stall_share", "share"),
    ("anatomy.sanitize_share", "share"),
    ("anatomy.gc_share", "share"),
    ("bench.trace_overhead", "x"),
];

/// Raw host times of an end-to-end run, printed beside the calibrated
/// metrics (see [`calib`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostTimes {
    /// Simulated host pages per raw host second (median repetition).
    pub pages_per_s: f64,
    /// Raw set-up seconds (median repetition).
    pub setup_s: f64,
    /// Median calibration factor: calibrated / raw host time.
    pub factor: f64,
}

/// Options of one benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Host seconds the measured repetitions may take.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// Correctness-check ledger: every breach is kept with its reason.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records a breach unless `ok`.
    pub fn ensure(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// The breaches so far.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Shared state of one workload run.
pub struct Ctx {
    /// Invocation options.
    pub opts: Options,
    /// Request counts.
    pub plan: Plan,
    /// Host-time spans (recording only in traced runs).
    pub spans: Spans,
    /// Correctness checks.
    pub checks: Checks,
    /// Metric values produced so far, by name.
    pub values: Vec<(&'static str, f64)>,
    /// Requests attempted in measured repetitions.
    pub attempted: u64,
    /// Requests that failed (timed out, unacknowledged, or rejected).
    pub failed: u64,
    /// Raw host times (end-to-end runs).
    pub raw: Option<HostTimes>,
}

impl Ctx {
    /// A context for one workload run.
    pub fn new(opts: Options, plan: Plan) -> Self {
        Ctx {
            opts,
            plan,
            spans: Spans::new(false),
            checks: Checks::default(),
            values: Vec::new(),
            attempted: 0,
            failed: 0,
            raw: None,
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }
}

/// One metric as reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The result of one workload run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload run.
    pub workload: Workload,
    /// Whether every correctness check held.
    pub correct: bool,
    /// Check breaches (empty when correct).
    pub failures: Vec<String>,
    /// Requests attempted in measured repetitions.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// The metrics of the run's kind, in table order.
    pub metrics: Vec<Metric>,
    /// Recorded spans (traced runs).
    pub spans: Spans,
    /// Raw host times (end-to-end runs).
    pub raw: Option<HostTimes>,
}

/// Runs one workload with the standard plan.
pub fn run(w: Workload, opts: Options) -> Outcome {
    run_with_plan(w, opts, Plan::standard(w))
}

/// Runs one workload with explicit request counts.
pub fn run_with_plan(w: Workload, opts: Options, plan: Plan) -> Outcome {
    let mut ctx = Ctx::new(opts, plan);
    match (w, opts.trace) {
        (Workload::FleetNoisyShaped, false) => fleet::end_to_end(&mut ctx),
        (Workload::FleetNoisyShaped, true) => fleet::traced(&mut ctx),
        (_, false) => single::end_to_end(&mut ctx, w),
        (_, true) => single::traced(&mut ctx, w),
    }
    if !opts.trace {
        ctx.set("peak_rss_mib", stats::peak_rss_mib());
        let ok_share = 1.0 - stats::ratio(ctx.failed as f64, ctx.attempted as f64);
        ctx.set("ok_op_share", ok_share);
    }
    let table: &[(&'static str, &'static str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let found = ctx.values.iter().rev().find(|(n, _)| *n == name).map(|&(_, v)| v);
        ctx.checks.ensure(found.is_some(), || format!("metric {name} was not measured"));
        let value = found.unwrap_or(0.0);
        ctx.checks.ensure(value.is_finite(), || format!("metric {name} is not finite: {value}"));
        metrics.push(Metric { name, unit, value: if value.is_finite() { value } else { 0.0 } });
    }
    ctx.checks.ensure(ctx.attempted >= 1, || "no request was attempted".into());
    let failures = ctx.checks.failures().to_vec();
    Outcome {
        workload: w,
        correct: failures.is_empty(),
        failures,
        attempted: ctx.attempted,
        failed: ctx.failed,
        metrics,
        spans: ctx.spans,
        raw: ctx.raw,
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. With several outcomes the metric names are
/// prefixed by `<workload>.`.
pub fn result_json(outcomes: &[Outcome]) -> String {
    let correct = outcomes.iter().all(|o| o.correct);
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    let mut entries = Vec::new();
    for o in outcomes {
        for m in &o.metrics {
            let name = if outcomes.len() == 1 {
                m.name.to_string()
            } else {
                format!("{}.{}", o.workload.name(), m.name)
            };
            entries.push(format!(
                "\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.value, m.unit
            ));
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        entries.join(", ")
    )
}
