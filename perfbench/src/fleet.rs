//! `fleet_noisy_shaped`: the sharded multi-tenant fleet, its exact
//! per-request latency replica, and the traced run's fleet leg.

use crate::calib;
use crate::ladder::{self, LadderInput};
use crate::single::Shadow;
use crate::spans::SpanId;
use crate::stats::{self, Fnv};
use crate::workloads::{self, Workload, FLEET_SHARDS};
use crate::{Ctx, HostTimes};
use evanesco_fleet::{
    admission_order, run_device, run_fleet, Admission, DeviceResult, FleetConfig,
};
use evanesco_ftl::observer::NullObserver;
use evanesco_ftl::FtlStats;
use evanesco_nand::timing::Nanos;
use evanesco_ssd::{Emulator, HostOp};
use evanesco_workloads::{generate_fleet, TenantOp};
use std::time::Instant;

/// A generated fleet: configuration and one trace per device.
pub struct Fleet {
    /// The fleet configuration.
    pub cfg: FleetConfig,
    /// Per-device request streams.
    pub traces: Vec<Vec<TenantOp>>,
}

/// Set-up: builds and validates the fleet configuration and generates
/// every device's trace.
pub fn setup(requests_per_device: usize, seed: u64, shards: usize) -> Fleet {
    let cfg = workloads::fleet_config(requests_per_device, seed, shards);
    cfg.validate();
    let traces = generate_fleet(&cfg.traffic, cfg.devices, cfg.namespace_window());
    Fleet { cfg, traces }
}

/// Runs `work` for every device, devices sharded over `shards` threads
/// (`device % shards`, as the fleet runner does); results in device order.
fn sharded<T: Send>(devices: usize, shards: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let work = &work;
    let mut out: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..shards)
            .map(|shard| {
                s.spawn(move || {
                    (shard..devices).step_by(shards).map(|d| (d, work(d))).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("shard thread panicked")).collect()
    });
    out.sort_by_key(|(d, _)| *d);
    out.into_iter().map(|(_, t)| t).collect()
}

/// Runs every device with `run_device` on the fleet's shards; returns the
/// results in device order with each call's host interval and the speeds
/// (ns per unit) of reference slices run on the same shard thread just
/// before and just after the call (see [`crate::calib`]).
pub(crate) fn run_sharded(f: &Fleet) -> Vec<(DeviceResult, (Instant, Instant), [f64; 2])> {
    let units = workloads::FLEET_CALIBRATION_UNITS;
    sharded(f.cfg.devices, f.cfg.shards, |d| {
        let before = calib::slice(units);
        let t0 = Instant::now();
        let r = run_device(&f.cfg, d, &f.traces[d]);
        let t1 = Instant::now();
        (r, (t0, t1), [before, calib::slice(units)])
    })
}

/// Fleet digest over device digests in device order (the fleet runner's
/// definition).
pub(crate) fn fleet_digest(devices: &[DeviceResult]) -> u64 {
    let mut h = Fnv::default();
    devices.iter().for_each(|d| h.u64(d.digest));
    h.0
}

/// One device replayed outside the fleet runner with every request's
/// latency kept.
struct Replica {
    digest: u64,
    /// `(tenant, reads data or writes, completion - submit,
    /// completion - arrival)` per request.
    latency: Vec<(usize, Option<bool>, u64, u64)>,
    ftl: FtlStats,
    sim: Nanos,
    pages: u64,
    util: (f64, f64),
    shadow: Shadow,
}

/// A device trace as `run_device` submits it: QoS admission order, LPAs
/// rebased onto the tenant's namespace, shaped release times.
fn admitted(cfg: &FleetConfig, trace: &[TenantOp]) -> (Vec<Admission>, Vec<HostOp>, Vec<Nanos>) {
    let window = cfg.namespace_window();
    let admission = admission_order(trace, &cfg.qos, cfg.mode, cfg.drain_ns_per_page());
    let mut ops = Vec::with_capacity(admission.len());
    let mut arrivals = Vec::with_capacity(admission.len());
    for a in &admission {
        let req = &trace[a.trace_idx];
        let (lpa, npages) = req.op.lpa_range();
        let lpa = lpa + req.tenant as u64 * window;
        ops.push(match req.op {
            HostOp::Write { secure, .. } => HostOp::Write { lpa, npages, secure },
            HostOp::Read { .. } => HostOp::Read { lpa, npages },
            HostOp::Trim { .. } => HostOp::Trim { lpa, npages },
        });
        arrivals.push(a.shaped);
    }
    (admission, ops, arrivals)
}

/// Replays one device the way `run_device` does (same admission, same
/// rebasing, same open-loop submission) and keeps per-request latency.
fn replica(cfg: &FleetConfig, trace: &[TenantOp]) -> Replica {
    let (admission, ops, arrivals) = admitted(cfg, trace);
    let mut ssd = Emulator::new(cfg.ssd, cfg.policy);
    let run = ssd.run_scheduled_open_loop(&mut NullObserver, &ops, &arrivals, cfg.qd);
    let mut h = Fnv::default();
    run.results.iter().for_each(|r| h.result(r));
    run.completions.iter().for_each(|c| h.u64(c.0));
    h.u64(run.sim_time.0);
    let mut shadow = Shadow::new(ssd.logical_pages());
    shadow.apply(&ops, &run.results, 0);
    ssd.ftl().check_invariants();
    let latency = admission
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let req = &trace[a.trace_idx];
            let class = match req.op {
                HostOp::Read { .. } if crate::single::read_data(&run.results[i]) => Some(true),
                HostOp::Write { .. } => Some(false),
                _ => None,
            };
            let done = run.completions[i].0;
            (req.tenant, class, done - run.submits[i].0, done - req.arrival.0)
        })
        .collect();
    let sim = run.sim_time;
    let util = |busy: Vec<Nanos>| {
        stats::ratio(busy.iter().map(|b| b.0 as f64).sum::<f64>() / busy.len() as f64, sim.0 as f64)
    };
    Replica {
        digest: h.0,
        latency,
        ftl: ssd.ftl().stats(),
        sim,
        pages: run.host_pages,
        util: (util(ssd.device().chip_utilized()), util(ssd.device().channel_utilized())),
        shadow,
    }
}

/// Replicates every device on `FLEET_SHARDS` threads, checks each
/// replica against the fleet runner's digest, and sets the simulated
/// metrics, all exact: the victim tenants' device-side read and write
/// latency (`completion - submit`; the storm's own latency is what its
/// policing deliberately stretches) and the worst victim tenant's sojourn
/// p99 (`completion - arrival`, QoS shaping included). Returns the failed
/// requests of one fleet pass.
fn exact_metrics(ctx: &mut Ctx, f: &Fleet, devices: &[DeviceResult]) -> u64 {
    let replicas = sharded(f.cfg.devices, FLEET_SHARDS, |d| replica(&f.cfg, &f.traces[d]));
    let tenants = f.cfg.tenant_count();
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let mut per_tenant: Vec<Vec<u64>> = vec![Vec::new(); tenants];
    let mut ftl = FtlStats::default();
    let mut failed = 0;
    for (d, r) in replicas.iter().enumerate() {
        ctx.checks.ensure(r.digest == devices[d].digest, || {
            format!(
                "fleet: device {d} replica digest {:016x} != run_device {:016x}",
                r.digest, devices[d].digest
            )
        });
        r.shadow.report(&mut ctx.checks, &format!("fleet device {d}"));
        failed += r.shadow.failed;
        for &(t, class, device, sojourn) in &r.latency {
            match class {
                Some(true) if t > 0 => reads.push(device),
                Some(false) if t > 0 => writes.push(device),
                _ => {}
            }
            per_tenant[t].push(sojourn);
        }
        let s = r.ftl;
        ftl.host_write_pages += s.host_write_pages;
        ftl.nand_programs += s.nand_programs;
        ftl.copied_pages += s.copied_pages;
        ftl.plocks += s.plocks;
        ftl.coalesced_plocks += s.coalesced_plocks;
    }
    let n = replicas.len() as f64;
    let pages: u64 = replicas.iter().map(|r| r.pages).sum();
    let span = replicas.iter().map(|r| r.sim).max().unwrap_or(Nanos::ZERO);
    ctx.set("sim_iops", stats::ratio(pages as f64, span.as_secs_f64()));
    ctx.set("sim_read_mean_us", stats::mean_us(&reads));
    ctx.set("sim_read_p99_us", stats::percentile_us(&mut reads, 99.0));
    ctx.set("sim_write_p99_us", stats::percentile_us(&mut writes, 99.0));
    let worst_victim =
        per_tenant[1..].iter_mut().map(|v| stats::percentile_us(v, 99.0)).fold(0.0, f64::max);
    ctx.set("sim_victim_p99_us", worst_victim);
    ctx.set("waf", ftl.waf());
    let util = (
        replicas.iter().map(|r| r.util.0).sum::<f64>() / n,
        replicas.iter().map(|r| r.util.1).sum::<f64>() / n,
    );
    crate::single::layer_counts(ctx, &ftl, util);
    failed
}

/// Checks that every generated request is attributed to its tenant
/// exactly once.
fn check_attribution(ctx: &mut Ctx, f: &Fleet, devices: &[DeviceResult]) {
    let mut generated = vec![0u64; f.cfg.tenant_count()];
    f.traces.iter().flatten().for_each(|op| generated[op.tenant] += 1);
    for (t, &want) in generated.iter().enumerate() {
        let got: u64 = devices.iter().map(|d| d.tenants[t].requests).sum();
        let lat: u64 = devices.iter().map(|d| d.tenants[t].latency.count()).sum();
        ctx.checks.ensure(got == want && lat == want, || {
            format!("fleet: tenant {t} generated {want} requests, attributed {got}, timed {lat}")
        });
    }
}

/// One measured repetition.
struct Rep {
    setup_s: f64,
    /// Host seconds of the sharded run, reference slices included (about
    /// 6 ms per device, half a percent of its run).
    wall_s: f64,
    /// Calibration factor of the repetition: from the median speed of
    /// every reference slice run beside its devices.
    factor: f64,
    /// Calibrated host milliseconds per `run_device` call, each scaled by
    /// the median speed of the slices on its own shard thread.
    cal_device_ms: Vec<f64>,
    /// Calibrated host seconds of the slowest shard's devices.
    cal_wall_s: f64,
    pages: u64,
    digest: u64,
}

fn repetition(ctx: &mut Ctx) -> (Rep, Fleet, Vec<DeviceResult>) {
    let root = ctx.spans.open("bench.repetition", 0);
    let t0 = Instant::now();
    let span = ctx.spans.open("workloads.generate_fleet", root);
    let f = setup(ctx.plan.requests, ctx.opts.seed, FLEET_SHARDS);
    let requests: u64 = f.traces.iter().map(|t| t.len() as u64).sum();
    ctx.spans.close(span, requests);
    let setup_s = t0.elapsed().as_secs_f64();
    let measure = ctx.spans.open("bench.measure", root);
    let m0 = Instant::now();
    let out = run_sharded(&f);
    let wall_s = m0.elapsed().as_secs_f64();
    let pages: u64 = f.traces.iter().flatten().map(|op| op.op.npages()).sum();
    for (r, iv, _) in &out {
        let lane = (r.device % f.cfg.shards) as u32 + 1;
        ctx.spans.record("fleet.run_device", measure, *iv, lane, f.traces[r.device].len() as u64);
    }
    ctx.spans.close(measure, pages);
    ctx.spans.close(root, pages);
    let shards = f.cfg.shards;
    let speeds = |shard: Option<usize>| -> Vec<f64> {
        let on = |d: usize| shard.is_none_or(|s| d % shards == s);
        out.iter().filter(|(r, _, _)| on(r.device)).flat_map(|(_, _, s)| *s).collect()
    };
    let shard_factor: Vec<f64> =
        (0..shards).map(|s| calib::factor(stats::median(&speeds(Some(s))))).collect();
    let cal_device_ms: Vec<f64> = out
        .iter()
        .map(|(r, (a, b), _)| (*b - *a).as_secs_f64() * 1e3 * shard_factor[r.device % shards])
        .collect();
    let mut shard_ms = vec![0.0; shards];
    for (d, ms) in cal_device_ms.iter().enumerate() {
        shard_ms[d % shards] += ms;
    }
    let factor = calib::factor(stats::median(&speeds(None)));
    let devices: Vec<DeviceResult> = out.into_iter().map(|(r, _, _)| r).collect();
    ctx.attempted += requests;
    let rep = Rep {
        setup_s,
        wall_s,
        factor,
        cal_device_ms,
        cal_wall_s: shard_ms.iter().copied().fold(0.0, f64::max) / 1e3,
        pages,
        digest: fleet_digest(&devices),
    };
    (rep, f, devices)
}

/// Repetitions until `seconds` have passed (at least `min_reps`); returns
/// them with the first repetition's fleet and device results.
fn repetitions(
    ctx: &mut Ctx,
    min_reps: usize,
    seconds: f64,
) -> (Vec<Rep>, Fleet, Vec<DeviceResult>) {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut first: Option<(Fleet, Vec<DeviceResult>)> = None;
    while reps.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        let (rep, f, devices) = repetition(ctx);
        if let Some(d0) = reps.first().map(|r| r.digest) {
            ctx.checks.ensure(rep.digest == d0, || {
                format!(
                    "repetition {} fleet digest {:016x} != first {d0:016x}",
                    reps.len(),
                    rep.digest
                )
            });
        } else {
            check_attribution(ctx, &f, &devices);
            first = Some((f, devices));
        }
        reps.push(rep);
    }
    let (f, devices) = first.expect("at least one repetition");
    (reps, f, devices)
}

/// The end-to-end run of `fleet_noisy_shaped`.
pub(crate) fn end_to_end(ctx: &mut Ctx) {
    let (reps, f, devices) = repetitions(ctx, ctx.plan.min_reps, ctx.opts.seconds);
    let failed = exact_metrics(ctx, &f, &devices);
    ctx.failed += failed * reps.len() as u64;
    let median = |v: fn(&Rep) -> f64| stats::median(&reps.iter().map(v).collect::<Vec<_>>());
    let chunks: Vec<f64> = reps.iter().flat_map(|r| r.cal_device_ms.iter().copied()).collect();
    ctx.set("host_pages_per_s", median(|r| r.pages as f64 / r.cal_wall_s.max(1e-9)));
    ctx.set("chunk_host_ms_p50", stats::percentile_f64(&chunks, 50.0));
    ctx.set("chunk_host_ms_p90", stats::percentile_f64(&chunks, 90.0));
    ctx.set("setup_s", median(|r| r.setup_s * r.factor));
    ctx.raw = Some(HostTimes {
        pages_per_s: median(|r| r.pages as f64 / r.wall_s.max(1e-9)),
        setup_s: median(|r| r.setup_s),
        factor: median(|r| r.factor),
    });
}

/// The traced run of `fleet_noisy_shaped`: repetitions with spans off
/// and on, the ladder on device 0's admitted trace, and the fleet leg.
pub(crate) fn traced(ctx: &mut Ctx) {
    let mut plain = Vec::new();
    let mut spanned = Vec::new();
    let mut first = None;
    for on in [false, true, true, false] {
        ctx.spans.set_enabled(on);
        let (reps, f, devices) = repetitions(ctx, 1, 0.0);
        if on { &mut spanned } else { &mut plain }.push(reps[0].setup_s + reps[0].wall_s);
        first.get_or_insert((f, devices));
    }
    ctx.spans.set_enabled(true);
    ctx.set("bench.trace_overhead", stats::median(&spanned) / stats::median(&plain));
    let (f, devices) = first.expect("four repetitions ran");
    let failed = exact_metrics(ctx, &f, &devices);
    ctx.failed += failed * 4;

    let requests: usize = f.traces.iter().map(Vec::len).sum();
    let gen = ladder::time_generator(|| {
        generate_fleet(&f.cfg.traffic, f.cfg.devices, f.cfg.namespace_window()).len();
        requests
    });
    ctx.set("workloads.gen_ns_per_req", gen);

    let (_, mut ops, _) = admitted(&f.cfg, &f.traces[0]);
    ops.truncate(ctx.plan.ladder_requests);
    let input = LadderInput {
        ssd: f.cfg.ssd,
        ops,
        precondition: Vec::new(),
        qd: Workload::FleetNoisyShaped.qd(),
        flags: Workload::FleetNoisyShaped.device_flags(),
        chunk: ctx.plan.chunk,
        seed: ctx.opts.seed,
    };
    ladder::run(ctx, &input);
    leg(ctx, ctx.plan.fleet_leg_requests);
}

/// The fleet leg of every traced run: trace generation and admission cost
/// per request, `run_fleet` at 1 vs 2 shards (same process, interleaved),
/// and the slowest `run_device` against the mean. Also checks that the
/// fleet digest is identical at 1 and 2 shards.
pub(crate) fn leg(ctx: &mut Ctx, requests_per_device: usize) {
    let root: SpanId = ctx.spans.open("bench.fleet_leg", 0);
    let seed = ctx.opts.seed;
    let f = setup(requests_per_device, seed, 1);
    let requests: usize = f.traces.iter().map(Vec::len).sum();
    let (mut admit, mut t1, mut t2, mut imbalance) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for round in 0..2 {
        let span = ctx.spans.open("fleet.admission_order", root);
        let t0 = Instant::now();
        for tr in &f.traces {
            std::hint::black_box(admission_order(
                tr,
                &f.cfg.qos,
                f.cfg.mode,
                f.cfg.drain_ns_per_page(),
            ));
        }
        admit.push(t0.elapsed().as_nanos() as f64 / requests.max(1) as f64);
        ctx.spans.close(span, requests as u64);

        let mut device_ns = Vec::new();
        let mut sequential = Vec::new();
        for (d, tr) in f.traces.iter().enumerate() {
            let t0 = Instant::now();
            let r = run_device(&f.cfg, d, tr);
            let iv = (t0, Instant::now());
            ctx.spans.record("fleet.run_device", root, iv, 0, tr.len() as u64);
            device_ns.push((iv.1 - iv.0).as_nanos() as f64);
            sequential.push(r);
        }
        let mean = device_ns.iter().sum::<f64>() / device_ns.len() as f64;
        imbalance.push(device_ns.iter().copied().fold(0.0, f64::max) / mean);

        let mut digests = [0u64; 2];
        // Alternate which shard count runs first.
        let order = if round % 2 == 0 { [1, 2] } else { [2, 1] };
        for shards in order {
            let mut cfg = f.cfg.clone();
            cfg.shards = shards;
            let span = ctx.spans.open("fleet.run_fleet", root);
            let t0 = Instant::now();
            let report = run_fleet(&cfg);
            let ns = t0.elapsed().as_nanos() as f64;
            ctx.spans.close(span, requests as u64);
            if shards == 1 { &mut t1 } else { &mut t2 }.push(ns);
            digests[shards - 1] = report.fleet_digest;
        }
        let seq = fleet_digest(&sequential);
        ctx.checks.ensure(digests[0] == digests[1] && digests[0] == seq, || {
            format!(
                "fleet: digest {:016x} at 1 shard, {:016x} at 2 shards, {seq:016x} device by device",
                digests[0], digests[1]
            )
        });
    }
    ctx.spans.close(root, requests as u64);
    ctx.set("fleet.admission_ns_per_req", stats::median(&admit));
    ctx.set("fleet.shard_speedup", stats::median(&t1) / stats::median(&t2));
    ctx.set("fleet.shard_imbalance", stats::median(&imbalance));
}
