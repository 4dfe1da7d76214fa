//! The traced run's layer ladder: one trace replayed through successive
//! rungs of the stack — FTL on the memory executor, the timed executor at
//! qd 1, the NCQ scheduler at qd 8 and 32, device-flag physics, then each
//! observer — in A/B-interleaved rounds. Each rung's host time is the
//! median over rounds; the ladder reports per-page costs, the increment
//! each rung adds, and observer multipliers.

use crate::single::{self, Measured};
use crate::spans::SpanId;
use crate::stats::{self, Fnv};
use crate::workloads::{ANATOMY_TOP_K, OBSERVER_CAPACITY};
use crate::Ctx;
use evanesco_ftl::executor::MemExecutor;
use evanesco_ftl::observer::NullObserver;
use evanesco_ftl::{Ftl, SanitizePolicy};
use evanesco_ssd::{Emulator, HostOp, OpResult, SsdConfig, Stage};
use std::time::Instant;

/// What the ladder replays.
#[derive(Debug, Clone)]
pub(crate) struct LadderInput {
    /// The workload's device.
    pub ssd: SsdConfig,
    /// The replayed trace.
    pub ops: Vec<HostOp>,
    /// Preconditioning phases applied to every rung's device first
    /// (untimed).
    pub precondition: Vec<Vec<HostOp>>,
    /// The workload's queue depth (flag and observer rungs run at it).
    pub qd: usize,
    /// Whether the workload runs device-mode flags (its bare rung).
    pub flags: bool,
    /// Requests per closed-loop chunk.
    pub chunk: usize,
    /// Device-flag seed.
    pub seed: u64,
}

/// One rung of the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    Mem,
    Qd1,
    Qd8,
    Qd32,
    Flags,
    Gauges,
    Trace,
    Anatomy,
}

const RUNGS: [Rung; 8] = [
    Rung::Mem,
    Rung::Qd1,
    Rung::Qd8,
    Rung::Qd32,
    Rung::Flags,
    Rung::Gauges,
    Rung::Trace,
    Rung::Anatomy,
];

impl Rung {
    fn span(self) -> &'static str {
        match self {
            Rung::Mem => "ftl.mem_replay",
            Rung::Qd1 => "ssd.timed_qd1",
            Rung::Qd8 => "sched.qd8",
            Rung::Qd32 => "sched.qd32",
            Rung::Flags => "core.flags",
            Rung::Gauges => "ssd.gauges",
            Rung::Trace => "ssd.trace",
            Rung::Anatomy => "ssd.anatomy",
        }
    }
}

/// Preconditioned devices every rung clones from. Each observer rung has
/// its own device, preconditioned with that observer on, so it is timed
/// in steady state (the anatomy's occupancy rings cost more as they fill).
struct Templates {
    mem: (Ftl, MemExecutor, u64),
    off: Emulator,
    on: Emulator,
    gauged: Emulator,
    traced: Emulator,
    anatomized: Emulator,
}

/// Replays `ops` on the FTL over the memory executor (no timing model),
/// assigning write tags in submission order like the emulator does.
fn mem_replay(ftl: &mut Ftl, ex: &mut MemExecutor, ops: &[HostOp], tag: &mut u64) -> Vec<OpResult> {
    let mut lpas = Vec::new();
    ops.iter()
        .map(|op| match *op {
            HostOp::Write { lpa, npages, secure } => {
                let tags: Vec<u64> = (*tag..*tag + npages).collect();
                *tag += npages;
                let mut ok = true;
                for (i, &t) in tags.iter().enumerate() {
                    ok &= ftl.write(ex, &mut NullObserver, lpa + i as u64, secure, t);
                }
                OpResult::Write(tags, ok)
            }
            HostOp::Read { lpa, npages } => OpResult::Read(
                (lpa..lpa + npages).map(|l| ftl.read(ex, l).map(|p| p.tag())).collect(),
            ),
            HostOp::Trim { lpa, npages } => {
                lpas.clear();
                lpas.extend(lpa..lpa + npages);
                ftl.trim(ex, &mut NullObserver, &lpas);
                OpResult::Trim(true)
            }
        })
        .collect()
}

fn templates(input: &LadderInput) -> Templates {
    let cfg = input.ssd;
    let mut ftl = Ftl::new(cfg.ftl, SanitizePolicy::evanesco());
    let mut ex = MemExecutor::new(cfg.ftl.geometry, cfg.ftl.n_chips);
    let mut tag = 1;
    for phase in &input.precondition {
        mem_replay(&mut ftl, &mut ex, phase, &mut tag);
    }
    let prepared = |flags: bool, observer: Option<Rung>| {
        let mut ssd = single::new_device(cfg, flags, observer == Some(Rung::Gauges), input.seed);
        match observer {
            Some(Rung::Trace) => {
                ssd.enable_tracing(OBSERVER_CAPACITY);
            }
            Some(Rung::Anatomy) => {
                ssd.enable_anatomy(OBSERVER_CAPACITY, ANATOMY_TOP_K);
            }
            _ => {}
        }
        for phase in &input.precondition {
            ssd.run_scheduled(phase, input.qd);
        }
        ssd
    };
    Templates {
        mem: (ftl, ex, tag),
        off: prepared(false, None),
        on: prepared(true, None),
        gauged: prepared(input.flags, Some(Rung::Gauges)),
        traced: prepared(input.flags, Some(Rung::Trace)),
        anatomized: prepared(input.flags, Some(Rung::Anatomy)),
    }
}

/// What one rung's replay measured.
struct RungRun {
    ns: f64,
    results: u64,
    measured: Option<Measured>,
    ssd: Option<Emulator>,
}

fn results_digest<'a>(results: impl Iterator<Item = &'a OpResult>) -> u64 {
    let mut h = Fnv::default();
    results.for_each(|r| h.result(r));
    h.0
}

fn run_rung(
    ctx: &mut Ctx,
    t: &Templates,
    input: &LadderInput,
    rung: Rung,
    parent: SpanId,
) -> RungRun {
    if rung == Rung::Mem {
        let (mut ftl, mut ex, mut tag) = t.mem.clone();
        let span = ctx.spans.open(rung.span(), parent);
        let t0 = Instant::now();
        let results = mem_replay(&mut ftl, &mut ex, &input.ops, &mut tag);
        let ns = t0.elapsed().as_nanos() as f64;
        ctx.spans.close(span, input.ops.iter().map(HostOp::npages).sum());
        ftl.check_invariants();
        return RungRun { ns, results: results_digest(results.iter()), measured: None, ssd: None };
    }
    let (ssd, qd) = match rung {
        Rung::Qd1 => (&t.off, 1),
        Rung::Qd8 => (&t.off, 8),
        Rung::Qd32 => (&t.off, 32),
        Rung::Flags => (&t.on, input.qd),
        Rung::Gauges => (&t.gauged, input.qd),
        Rung::Trace => (&t.traced, input.qd),
        Rung::Anatomy => (&t.anatomized, input.qd),
        Rung::Mem => unreachable!("handled above"),
    };
    let mut ssd = ssd.clone();
    let span = ctx.spans.open(rung.span(), parent);
    let m = single::replay(&mut ssd, &input.ops, input.chunk, qd, &mut ctx.spans, span, false);
    ctx.spans.close(span, m.pages);
    RungRun {
        ns: m.wall_s * 1e9,
        results: results_digest(m.runs.iter().flat_map(|r| r.results.iter())),
        measured: Some(m),
        ssd: Some(ssd),
    }
}

/// Median host nanoseconds per generated request of `generate` (which
/// returns the number of requests it produced), over a few runs.
pub(crate) fn time_generator(mut generate: impl FnMut() -> usize) -> f64 {
    let per: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let n = std::hint::black_box(generate());
            t0.elapsed().as_nanos() as f64 / n.max(1) as f64
        })
        .collect();
    stats::median(&per)
}

/// Runs the ladder on `input` and sets the ladder's per-layer metrics.
pub(crate) fn run(ctx: &mut Ctx, input: &LadderInput) {
    let root = ctx.spans.open("bench.ladder", 0);
    let t = templates(input);
    let pages: u64 = input.ops.iter().map(HostOp::npages).sum();
    let mut ns: Vec<Vec<f64>> = vec![Vec::new(); RUNGS.len()];
    let mut digests = vec![0u64; RUNGS.len()];
    let mut locks = 0u64;
    let mut events: Vec<u64> = Vec::new();
    let mut shares = [0f64; 4];
    // Half the run's measuring time, and at least three rounds.
    let budget = ctx.opts.seconds / 2.0;
    let start = Instant::now();
    let mut round = 0;
    while round < 3 || (start.elapsed().as_secs_f64() < budget && round < 15) {
        // Rotate the rung order each round so drift hits every rung alike.
        for k in 0..RUNGS.len() {
            let i = (k + round) % RUNGS.len();
            let rung = RUNGS[i];
            let r = run_rung(ctx, &t, input, rung, root);
            ns[i].push(r.ns);
            digests[i] = r.results;
            if round > 0 {
                continue;
            }
            match (rung, r.measured, r.ssd) {
                (Rung::Flags, Some(m), _) => locks = m.ftl.plocks + m.ftl.blocks_locked,
                (Rung::Trace, _, Some(ssd)) => {
                    let rec = ssd.trace().expect("tracing enabled on this rung");
                    events = rec.traces().map(|tr| tr.events.len() as u64).collect();
                }
                (Rung::Anatomy, _, Some(mut ssd)) => {
                    // Shares over the retained rows: the ladder's own
                    // requests (the cumulative totals include the
                    // preconditioning the recorder also saw).
                    ssd.finalize_anatomy();
                    let an = ssd.anatomy().expect("anatomy enabled on this rung");
                    let mut total = [0f64; Stage::COUNT];
                    for row in an.rows() {
                        for (t, v) in total.iter_mut().zip(row.stages) {
                            *t += v.0 as f64;
                        }
                    }
                    let all: f64 = total.iter().sum();
                    for (slot, s) in shares.iter_mut().zip([
                        Stage::QueueWait,
                        Stage::DispatchStall,
                        Stage::SanitizeInterference,
                        Stage::GcInterference,
                    ]) {
                        *slot = stats::ratio(total[s.idx()], all);
                    }
                }
                _ => {}
            }
        }
        round += 1;
    }
    ctx.spans.close(root, pages);
    ctx.checks.ensure(digests.iter().all(|&d| d == digests[0]), || {
        format!("ladder: host-visible results differ between rungs: {digests:x?}")
    });

    let per_page = |i: usize| stats::median(&ns[i]) / pages.max(1) as f64;
    let [mem, qd1, qd8, qd32, flags, gauges, trace, anatomy] =
        [0, 1, 2, 3, 4, 5, 6, 7].map(per_page);
    let off = if input.qd >= 32 { qd32 } else { qd8 };
    let bare = if input.flags { flags } else { off };
    ctx.set("ftl.mem_ns_per_page", mem);
    ctx.set("ssd.timed_qd1_ns_per_page", qd1 - mem);
    ctx.set("sched.qd8_ns_per_page", qd8 - qd1);
    ctx.set("sched.qd32_ns_per_page", qd32 - qd1);
    ctx.set("core.flags_ns_per_lock", (flags - off) * pages as f64 / locks.max(1) as f64);
    ctx.set("core.flags_share", (flags - off) / flags);
    ctx.set("ssd.gauges_x", gauges / bare);
    ctx.set("ssd.trace_x", trace / bare);
    ctx.set("ssd.anatomy_x", anatomy / bare);
    events.sort_unstable();
    ctx.set("trace.events_per_req_p50", stats::nearest_rank(&events, 50.0) as f64);
    ctx.set("trace.events_per_req_max", events.last().copied().unwrap_or(0) as f64);
    for (name, v) in [
        "anatomy.queue_wait_share",
        "anatomy.dispatch_stall_share",
        "anatomy.sanitize_share",
        "anatomy.gc_share",
    ]
    .into_iter()
    .zip(shares)
    {
        ctx.set(name, v);
    }
    eprintln!(
        "ladder ({} requests, {} pages, {} rounds): ns/page mem {mem:.0} qd1 {qd1:.0} qd8 {qd8:.0} \
         qd32 {qd32:.0} flags {flags:.0} gauges {gauges:.0} trace {trace:.0} anatomy {anatomy:.0}",
        input.ops.len(),
        pages,
        round
    );
}
