//! The single-device workloads (`secure_churn`, `observed_readmostly`):
//! set-up, measured repetitions, output checks and metrics.

use crate::calib;
use crate::ladder::{self, LadderInput};
use crate::spans::{SpanId, Spans};
use crate::stats::{self, Fnv};
use crate::workloads::{self, Plan, Workload};
use crate::{Checks, Ctx, HostTimes};
use evanesco_core::bap::BapConfig;
use evanesco_core::pap::PapConfig;
use evanesco_ftl::observer::NullObserver;
use evanesco_ftl::{FtlStats, SanitizePolicy};
use evanesco_nand::timing::Nanos;
use evanesco_ssd::{Emulator, HostOp, OpResult, SchedRun, SsdConfig};
use std::time::Instant;

/// A fresh device.
pub(crate) fn new_device(cfg: SsdConfig, flags: bool, gauges: bool, seed: u64) -> Emulator {
    let mut ssd = Emulator::new(cfg, SanitizePolicy::evanesco());
    if flags {
        ssd.enable_device_flags(PapConfig::paper(), BapConfig::paper(), seed);
    }
    if gauges {
        ssd.enable_gauges();
    }
    ssd
}

/// Inputs of one repetition: preconditioning phases and the measured
/// trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Phases replayed before timing.
    pub precondition: Vec<Vec<HostOp>>,
    /// The measured trace.
    pub measured: Vec<HostOp>,
}

/// Generates a workload's inputs from its seed.
pub fn inputs(w: Workload, plan: &Plan, seed: u64) -> Inputs {
    let logical = workloads::ssd_config().ftl.logical_pages();
    let measured = workloads::measured_trace(w, logical, plan.requests, seed);
    let precondition = workloads::precondition(w, logical, &measured, plan.warmup, seed);
    Inputs { precondition, measured }
}

/// Reference model of host-visible contents: the tag each logical page
/// must read back, given every result in submission order.
#[derive(Debug, Clone)]
pub(crate) struct Shadow {
    expected: Vec<Option<u64>>,
    /// Reads that returned something other than the last acknowledged
    /// write (or `None` after a trim).
    pub mismatches: u64,
    /// First mismatch, for the report.
    pub first_mismatch: Option<String>,
    /// Requests that timed out or were not acknowledged (read-only
    /// rejections included).
    pub failed: u64,
    /// Requests without a result.
    pub missing: u64,
}

impl Shadow {
    /// An empty device of `logical` pages.
    pub fn new(logical: u64) -> Self {
        Shadow {
            expected: vec![None; logical as usize],
            mismatches: 0,
            first_mismatch: None,
            failed: 0,
            missing: 0,
        }
    }

    /// Applies one run's results; `base` rebases the trace's LPAs.
    pub fn apply(&mut self, ops: &[HostOp], results: &[OpResult], base: u64) {
        self.missing += ops.len().saturating_sub(results.len()) as u64;
        for (op, res) in ops.iter().zip(results) {
            let (lpa, n) = op.lpa_range();
            let range = (lpa + base) as usize..(lpa + base + n) as usize;
            match (op, res) {
                (HostOp::Write { .. }, OpResult::Write(tags, true)) if tags.len() as u64 == n => {
                    for (slot, &t) in self.expected[range].iter_mut().zip(tags) {
                        *slot = Some(t);
                    }
                }
                (HostOp::Trim { .. }, OpResult::Trim(true)) => {
                    self.expected[range].iter_mut().for_each(|slot| *slot = None);
                }
                (HostOp::Read { .. }, OpResult::Read(got)) if got.len() as u64 == n => {
                    for (i, (want, have)) in self.expected[range].iter().zip(got).enumerate() {
                        if want != have {
                            self.mismatches += 1;
                            self.first_mismatch.get_or_insert_with(|| {
                                format!("lpa {}: read {have:?}, expected {want:?}", lpa + i as u64)
                            });
                        }
                    }
                }
                (_, OpResult::TimedOut | OpResult::Write(_, false) | OpResult::Trim(false)) => {
                    self.failed += 1;
                }
                (op, res) => {
                    self.mismatches += 1;
                    self.first_mismatch.get_or_insert_with(|| format!("{op:?} returned {res:?}"));
                }
            }
        }
    }

    /// Records breaches in `checks`, naming `what` was checked.
    pub fn report(&self, checks: &mut Checks, what: &str) {
        checks.ensure(self.missing == 0, || {
            format!("{what}: {} requests lack a result", self.missing)
        });
        checks.ensure(self.mismatches == 0, || {
            format!(
                "{what}: {} wrong host-visible results, first: {}",
                self.mismatches,
                self.first_mismatch.as_deref().unwrap_or("?")
            )
        });
    }
}

/// The measured region of one repetition.
#[derive(Debug, Clone)]
pub(crate) struct Measured {
    /// One run per chunk.
    pub runs: Vec<SchedRun>,
    /// Host milliseconds per chunk.
    pub chunk_ms: Vec<f64>,
    /// Calibration factor per chunk (empty when not calibrated).
    pub factors: Vec<f64>,
    /// Host seconds of the whole region (the chunks, without reference
    /// slices).
    pub wall_s: f64,
    /// Simulated host pages.
    pub pages: u64,
    /// Simulated duration.
    pub sim: Nanos,
    /// FTL counters accumulated over the region.
    pub ftl: FtlStats,
    /// Mean chip and channel busy fraction over the region.
    pub util: (f64, f64),
}

fn busy(ssd: &Emulator) -> (Vec<Nanos>, Vec<Nanos>) {
    (ssd.device().chip_utilized(), ssd.device().channel_utilized())
}

fn mean_util(before: &[Nanos], after: &[Nanos], sim: Nanos) -> f64 {
    let per: Vec<f64> = before
        .iter()
        .zip(after)
        .map(|(b, a)| stats::ratio((a.0 - b.0) as f64, sim.0 as f64))
        .collect();
    stats::ratio(per.iter().sum(), per.len() as f64)
}

/// Replays `ops` in closed-loop chunks of `chunk` requests at `qd`. Every
/// request of a chunk is issued at the chunk's start, the device time the
/// previous chunk completed, so consecutive chunks never overlap. With
/// `calibrate`, a reference slice runs after every chunk and yields the
/// chunk's calibration factor (see [`crate::calib`]).
pub(crate) fn replay(
    ssd: &mut Emulator,
    ops: &[HostOp],
    chunk: usize,
    qd: usize,
    spans: &mut Spans,
    parent: SpanId,
    calibrate: bool,
) -> Measured {
    let ftl0 = ssd.ftl().stats();
    let sim0 = ssd.device().simulated_time();
    let (chips0, chans0) = busy(ssd);
    let mut runs = Vec::with_capacity(ops.len().div_ceil(chunk));
    let mut chunk_ms = Vec::with_capacity(runs.capacity());
    let mut factors = Vec::new();
    for part in ops.chunks(chunk) {
        let span = spans.open("sched.run_scheduled", parent);
        let c0 = Instant::now();
        let issued = vec![ssd.device().simulated_time(); part.len()];
        let run = ssd.run_scheduled_open_loop(&mut NullObserver, part, &issued, qd);
        chunk_ms.push(c0.elapsed().as_secs_f64() * 1e3);
        spans.close(span, run.host_pages);
        runs.push(run);
        if calibrate {
            factors.push(calib::factor(calib::slice(workloads::CALIBRATION_UNITS)));
        }
    }
    let wall_s = chunk_ms.iter().sum::<f64>() / 1e3;
    let sim = ssd.device().simulated_time().saturating_sub(sim0);
    let (chips1, chans1) = busy(ssd);
    Measured {
        pages: runs.iter().map(|r| r.host_pages).sum(),
        runs,
        chunk_ms,
        factors,
        wall_s,
        sim,
        ftl: ssd.ftl().stats().since(&ftl0),
        util: (mean_util(&chips0, &chips1, sim), mean_util(&chans0, &chans1, sim)),
    }
}

/// Digest of host-visible results, completion times and durations.
pub(crate) fn digest(runs: &[SchedRun]) -> u64 {
    let mut h = Fnv::default();
    for r in runs {
        r.results.iter().for_each(|x| h.result(x));
        r.completions.iter().for_each(|c| h.u64(c.0));
        h.u64(r.sim_time.0);
    }
    h.0
}

/// A device built and preconditioned for one repetition.
pub(crate) struct Prepared {
    /// The device, ready for the measured region.
    pub ssd: Emulator,
    /// The inputs it was prepared with.
    pub inputs: Inputs,
    /// Results of the preconditioning phases.
    pub pre_runs: Vec<SchedRun>,
}

/// Set-up of one repetition: generate inputs, build the device,
/// precondition it, attach the workload's observers.
pub(crate) fn setup(
    w: Workload,
    plan: &Plan,
    seed: u64,
    spans: &mut Spans,
    parent: SpanId,
) -> Prepared {
    let span = spans.open("workloads.generate", parent);
    let inputs = inputs(w, plan, seed);
    spans.close(span, inputs.measured.len() as u64);
    let span = spans.open("ssd.precondition", parent);
    let mut ssd = new_device(workloads::ssd_config(), w.device_flags(), w.observers(), seed);
    if w.observers() {
        // On before preconditioning: the anatomy's per-resource occupancy
        // rings fill only as interference commands accumulate, and the
        // cost of resolving each wait grows with their fill, so timing
        // starts once they are in steady state.
        ssd.enable_tracing(workloads::OBSERVER_CAPACITY);
        ssd.enable_anatomy(workloads::OBSERVER_CAPACITY, workloads::ANATOMY_TOP_K);
    }
    let pre_runs: Vec<SchedRun> =
        inputs.precondition.iter().map(|ops| ssd.run_scheduled(ops, w.qd())).collect();
    spans.close(span, pre_runs.iter().map(|r| r.host_pages).sum());
    Prepared { ssd, inputs, pre_runs }
}

/// One repetition's host times (raw and calibrated) and result digest.
struct Rep {
    setup_s: f64,
    /// Set-up plus measured region.
    wall_s: f64,
    measure_s: f64,
    /// Set-up time scaled by the measured region's median factor.
    cal_setup_s: f64,
    cal_measure_s: f64,
    pages: u64,
    cal_chunk_ms: Vec<f64>,
    digest: u64,
}

/// Runs one repetition; returns its numbers, the measured region, and
/// the prepared device with the measured trace for checks.
fn repetition(ctx: &mut Ctx, w: Workload) -> (Rep, Measured, Prepared, Vec<HostOp>) {
    let root = ctx.spans.open("bench.repetition", 0);
    let t0 = Instant::now();
    let setup_span = ctx.spans.open("bench.setup", root);
    let mut prep = setup(w, &ctx.plan, ctx.opts.seed, &mut ctx.spans, setup_span);
    ctx.spans.close(setup_span, 0);
    let setup_s = t0.elapsed().as_secs_f64();
    let measure_span = ctx.spans.open("bench.measure", root);
    let ops = std::mem::take(&mut prep.inputs.measured);
    let measured =
        replay(&mut prep.ssd, &ops, ctx.plan.chunk, w.qd(), &mut ctx.spans, measure_span, true);
    ctx.spans.close(measure_span, measured.pages);
    let wall_s = t0.elapsed().as_secs_f64();
    ctx.spans.close(root, measured.pages);
    let cal_chunk_ms: Vec<f64> =
        measured.chunk_ms.iter().zip(&measured.factors).map(|(ms, f)| ms * f).collect();
    let rep = Rep {
        setup_s,
        wall_s,
        measure_s: measured.wall_s,
        cal_setup_s: setup_s * stats::median(&measured.factors),
        cal_measure_s: cal_chunk_ms.iter().sum::<f64>() / 1e3,
        pages: measured.pages,
        cal_chunk_ms,
        digest: digest(&measured.runs),
    };
    ctx.attempted += ops.len() as u64;
    (rep, measured, prep, ops)
}

/// Checks the first repetition's outputs and returns the failed-request
/// count per repetition.
fn check_outputs(
    ctx: &mut Ctx,
    w: Workload,
    prep: &mut Prepared,
    ops: &[HostOp],
    m: &Measured,
) -> u64 {
    let mut shadow = Shadow::new(prep.ssd.logical_pages());
    for (phase, run) in prep.inputs.precondition.iter().zip(&prep.pre_runs) {
        shadow.apply(phase, &run.results, 0);
    }
    let pre_failed = shadow.failed;
    let mut at = 0;
    for run in &m.runs {
        shadow.apply(&ops[at..at + run.results.len()], &run.results, 0);
        at += run.results.len();
    }
    ctx.checks
        .ensure(at == ops.len(), || format!("{} of {} requests have a result", at, ops.len()));
    shadow.report(&mut ctx.checks, w.name());
    prep.ssd.ftl().check_invariants();
    if w.observers() {
        prep.ssd.finalize_anatomy();
        let an = prep.ssd.anatomy().expect("anatomy enabled in set-up");
        let mut rows = 0u64;
        let mut bad = 0u64;
        for row in an.rows() {
            rows += 1;
            bad += (row.stage_sum() != row.e2e()) as u64;
        }
        ctx.checks.ensure(rows > 0 && bad == 0, || {
            format!("anatomy: {bad} of {rows} rows whose stages do not sum to their latency")
        });
        prep.ssd.flush_coalesced_locks();
        let g = prep.ssd.gauges().expect("gauges enabled in set-up").snapshot();
        ctx.checks.ensure(g.invalid_secured == 0, || {
            format!("gauges: {} invalid secured pages after flushing locks", g.invalid_secured)
        });
        prep.ssd.ftl().check_invariants();
    }
    shadow.failed - pre_failed
}

/// Whether a result read back data: reads of never-written or trimmed
/// pages complete without touching flash and are left out of the read
/// latency metrics.
pub(crate) fn read_data(res: &OpResult) -> bool {
    matches!(res, OpResult::Read(got) if got.iter().any(Option::is_some))
}

/// Simulated-time metrics of the measured region: exact percentiles of
/// `completion - submit` over every request.
fn sim_metrics(ctx: &mut Ctx, w: Workload, ops: &[HostOp], m: &Measured) {
    let (mut reads, mut writes, mut victims) = (Vec::new(), Vec::new(), Vec::new());
    let done = m.runs.iter().flat_map(|r| {
        r.results.iter().zip(r.completions.iter().zip(&r.submits).map(|(c, s)| c.0 - s.0))
    });
    for (op, (res, l)) in ops.iter().zip(done) {
        match op {
            HostOp::Read { .. } if read_data(res) => reads.push(l),
            HostOp::Write { .. } => writes.push(l),
            _ => {}
        }
        if w.is_victim(op) {
            victims.push(l);
        }
    }
    ctx.set("sim_iops", stats::ratio(m.pages as f64, m.sim.as_secs_f64()));
    ctx.set("sim_read_mean_us", stats::mean_us(&reads));
    ctx.set("sim_read_p99_us", stats::percentile_us(&mut reads, 99.0));
    ctx.set("sim_write_p99_us", stats::percentile_us(&mut writes, 99.0));
    ctx.set("sim_victim_p99_us", stats::percentile_us(&mut victims, 99.0));
    ctx.set("waf", m.ftl.waf());
}

/// Simulated per-layer counts of the measured region.
pub(crate) fn layer_counts(ctx: &mut Ctx, ftl: &FtlStats, util: (f64, f64)) {
    let host_writes = ftl.host_write_pages as f64;
    ctx.set("ftl.gc_copies_per_host_page", stats::ratio(ftl.copied_pages as f64, host_writes));
    ctx.set("ftl.plocks_per_host_page", stats::ratio(ftl.plocks as f64, host_writes));
    let deferred = (ftl.coalesced_plocks + ftl.plocks) as f64;
    ctx.set("ftl.coalesced_share", stats::ratio(ftl.coalesced_plocks as f64, deferred));
    ctx.set("ssd.chip_util_mean", util.0);
    ctx.set("ssd.channel_util_mean", util.1);
}

/// Repetitions until `seconds` have passed (at least `min_reps`); the
/// first is checked and provides the simulated metrics.
fn repetitions(ctx: &mut Ctx, w: Workload, min_reps: usize, seconds: f64) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut failed_per_rep = 0;
    while reps.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        let (rep, measured, mut prep, ops) = repetition(ctx, w);
        if reps.is_empty() {
            failed_per_rep = check_outputs(ctx, w, &mut prep, &ops, &measured);
            sim_metrics(ctx, w, &ops, &measured);
            layer_counts(ctx, &measured.ftl, measured.util);
        } else {
            let d0 = reps[0].digest;
            ctx.checks.ensure(rep.digest == d0, || {
                format!("repetition {} digest {:016x} != first {:016x}", reps.len(), rep.digest, d0)
            });
        }
        ctx.failed += failed_per_rep;
        reps.push(rep);
    }
    reps
}

/// The end-to-end run of a single-device workload.
pub(crate) fn end_to_end(ctx: &mut Ctx, w: Workload) {
    let reps = repetitions(ctx, w, ctx.plan.min_reps, ctx.opts.seconds);
    let median = |v: fn(&Rep) -> f64| stats::median(&reps.iter().map(v).collect::<Vec<_>>());
    let chunks: Vec<f64> = reps.iter().flat_map(|r| r.cal_chunk_ms.iter().copied()).collect();
    ctx.set("host_pages_per_s", median(|r| r.pages as f64 / r.cal_measure_s.max(1e-9)));
    ctx.set("chunk_host_ms_p50", stats::percentile_f64(&chunks, 50.0));
    ctx.set("chunk_host_ms_p90", stats::percentile_f64(&chunks, 90.0));
    ctx.set("setup_s", median(|r| r.cal_setup_s));
    ctx.raw = Some(HostTimes {
        pages_per_s: median(|r| r.pages as f64 / r.measure_s.max(1e-9)),
        setup_s: median(|r| r.setup_s),
        factor: median(|r| r.cal_measure_s / r.measure_s.max(1e-9)),
    });
}

/// The traced run of a single-device workload: repetitions with spans
/// off and on (tracing overhead), then the layer ladder and fleet leg.
pub(crate) fn traced(ctx: &mut Ctx, w: Workload) {
    let mut plain = Vec::new();
    let mut spanned = Vec::new();
    for on in [false, true, true, false] {
        ctx.spans.set_enabled(on);
        let reps = repetitions(ctx, w, 1, 0.0);
        let rep = reps.into_iter().next().expect("one repetition");
        if on { &mut spanned } else { &mut plain }.push(rep.wall_s);
    }
    ctx.spans.set_enabled(true);
    ctx.set("bench.trace_overhead", stats::median(&spanned) / stats::median(&plain));

    let (logical, requests, seed) =
        (workloads::ssd_config().ftl.logical_pages(), ctx.plan.requests, ctx.opts.seed);
    let gen =
        ladder::time_generator(|| workloads::measured_trace(w, logical, requests, seed).len());
    ctx.set("workloads.gen_ns_per_req", gen);

    let all = inputs(w, &ctx.plan, ctx.opts.seed);
    let n = ctx.plan.ladder_requests.min(all.measured.len());
    let input = LadderInput {
        ssd: workloads::ssd_config(),
        ops: all.measured[..n].to_vec(),
        precondition: all.precondition,
        qd: w.qd(),
        flags: w.device_flags(),
        chunk: ctx.plan.chunk,
        seed: ctx.opts.seed,
    };
    ladder::run(ctx, &input);
    crate::fleet::leg(ctx, ctx.plan.fleet_leg_requests);
}
