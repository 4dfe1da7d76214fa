//! The three benchmark workloads: device and fleet configurations, trace
//! generators and preconditioning, all derived from the workload seed.

use evanesco_fleet::{FleetConfig, QosMode, TenantQos};
use evanesco_ftl::config::WriteAlloc;
use evanesco_ftl::SanitizePolicy;
use evanesco_ssd::{HostOp, SsdConfig};
use evanesco_workloads::TrafficConfig;

/// Blocks per chip: the paper's 576-page TLC block at 12 blocks per chip
/// gives 2 ch × 4 chips × 12 × 576 = 55,296 physical and 48,384 logical
/// pages.
pub const BLOCKS_PER_CHIP: u32 = 12;

/// Hot region of the scheduler mixed trace at this device size: the
/// secure rewrite sweeps address `[0, W1_HOT)`, background requests lie
/// above it.
pub const W1_HOT: u64 = 768;

/// Fleet shape of `fleet_noisy_shaped`: devices, victim tenants, shards.
pub const FLEET_DEVICES: usize = 4;
/// Victim tenants beside the one storm tenant.
pub const FLEET_VICTIMS: usize = 3;
/// Shard threads of the fleet runner.
pub const FLEET_SHARDS: usize = 2;

/// Ring capacity of the trace and anatomy recorders on
/// `observed_readmostly` (and on the ladder's observer rungs).
pub const OBSERVER_CAPACITY: usize = 4096;
/// Slowest-request digest size of the anatomy recorder.
pub const ANATOMY_TOP_K: usize = 16;

/// Reference-kernel units per calibration slice (about 0.2 ms): one
/// slice follows every measured chunk (see [`crate::calib`]).
pub const CALIBRATION_UNITS: usize = 4;
/// Reference-kernel units per calibration slice on the fleet (about
/// 3 ms): one slice runs before and one after every `run_device` call.
pub const FLEET_CALIBRATION_UNITS: usize = 64;

/// Seed salts separating the measured trace from the preconditioning
/// streams drawn from the same workload seed.
const WARMUP_SALT: u64 = 0x5EED_0000_0000_0001;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, qd 8, device flags + lock coalescing, no observers,
    /// the scheduler mixed trace.
    SecureChurn,
    /// Closed loop, qd 32, half-full device, 70/20/10 read/write/trim,
    /// gauges + tracing + anatomy on.
    ObservedReadmostly,
    /// Open loop, 4-device shaped fleet with one storm tenant.
    FleetNoisyShaped,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 3] =
        [Workload::SecureChurn, Workload::ObservedReadmostly, Workload::FleetNoisyShaped];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SecureChurn => "secure_churn",
            Workload::ObservedReadmostly => "observed_readmostly",
            Workload::FleetNoisyShaped => "fleet_noisy_shaped",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// NCQ queue depth the workload runs at.
    pub fn qd(self) -> usize {
        match self {
            Workload::SecureChurn | Workload::FleetNoisyShaped => 8,
            Workload::ObservedReadmostly => 32,
        }
    }

    /// Whether the workload's devices run device-mode pAP/bAP flags.
    /// The fleet runner builds its own devices without them.
    pub fn device_flags(self) -> bool {
        self != Workload::FleetNoisyShaped
    }

    /// Whether gauges, tracing and anatomy are on.
    pub fn observers(self) -> bool {
        self == Workload::ObservedReadmostly
    }

    /// Whether a request belongs to the workload's latency-victim stream:
    /// background requests outside the hot sweeps (`secure_churn`) or
    /// reads (`observed_readmostly`). Fleet victims are tenants, judged
    /// by the caller.
    pub fn is_victim(self, op: &HostOp) -> bool {
        match self {
            Workload::SecureChurn => op.lpa_range().0 >= W1_HOT,
            Workload::ObservedReadmostly => matches!(op, HostOp::Read { .. }),
            Workload::FleetNoisyShaped => true,
        }
    }
}

/// Request counts of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Measured requests per repetition (per device on the fleet).
    pub requests: usize,
    /// Warm-up requests replayed after the fill, before timing.
    pub warmup: usize,
    /// Requests per timed chunk (single-device workloads).
    pub chunk: usize,
    /// Fewest measured repetitions, however long they take.
    pub min_reps: usize,
    /// Requests replayed on each rung of the traced layer ladder.
    pub ladder_requests: usize,
    /// Requests per device of the traced run's fleet leg.
    pub fleet_leg_requests: usize,
}

impl Plan {
    /// The sizes `BENCHMARK.json` runs.
    pub fn standard(w: Workload) -> Plan {
        let single = Plan {
            requests: 200_000,
            warmup: 60_000,
            chunk: 1_000,
            min_reps: 3,
            ladder_requests: 10_000,
            fleet_leg_requests: 20_000,
        };
        match w {
            Workload::SecureChurn => Plan { requests: 300_000, ..single },
            Workload::ObservedReadmostly => Plan { warmup: 200_000, ..single },
            Workload::FleetNoisyShaped => {
                Plan { requests: 100_000, warmup: 0, fleet_leg_requests: 40_000, ..single }
            }
        }
    }

    /// The smallest run that still exercises every code path and check
    /// (self-tests).
    pub fn minimal(w: Workload) -> Plan {
        Plan {
            requests: 600,
            warmup: if w == Workload::FleetNoisyShaped { 0 } else { 300 },
            chunk: 200,
            min_reps: 2,
            ladder_requests: 300,
            fleet_leg_requests: 300,
        }
    }
}

/// The single-device SSD of every workload: paper topology and block
/// shape, die-interleaved allocation, lock coalescing.
pub fn ssd_config() -> SsdConfig {
    let mut cfg = SsdConfig::scaled(BLOCKS_PER_CHIP);
    cfg.ftl.write_alloc = WriteAlloc::ChannelInterleaved;
    cfg.ftl.lock_coalescing = true;
    cfg.ftl.coalesce_window = 1024;
    cfg.track_tags = false;
    cfg.stale_audit = false;
    cfg
}

/// A 64-bit LCG stream (the scheduler mixed trace's generator family).
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// `observed_readmostly`'s trace over `[0, span)`: 1–4-page requests,
/// 70% reads, 20% writes (1 in 8 secure), 10% trims.
pub fn readmostly_trace(span: u64, requests: usize, seed: u64) -> Vec<HostOp> {
    let mut rng = Lcg::new(seed);
    (0..requests)
        .map(|_| {
            let npages = 1 + rng.next() % 4;
            let lpa = rng.next() % (span - npages + 1);
            match rng.next() % 10 {
                0..=6 => HostOp::Read { lpa, npages },
                7..=8 => HostOp::Write { lpa, npages, secure: rng.next().is_multiple_of(8) },
                _ => HostOp::Trim { lpa, npages },
            }
        })
        .collect()
}

/// Sequential 4-page writes over `[0, end)`; every `secure_every`-th
/// request is secure.
pub fn fill_trace(end: u64, secure_every: u64) -> Vec<HostOp> {
    (0..end.div_ceil(4))
        .map(|i| {
            let lpa = i * 4;
            HostOp::Write { lpa, npages: 4.min(end - lpa), secure: i % secure_every == 0 }
        })
        .collect()
}

/// The measured trace of a single-device workload.
pub fn measured_trace(w: Workload, logical: u64, requests: usize, seed: u64) -> Vec<HostOp> {
    match w {
        Workload::SecureChurn => {
            evanesco_bench::experiments::scheduler::mixed_trace(logical, requests, seed)
        }
        Workload::ObservedReadmostly => readmostly_trace(logical / 2, requests, seed),
        Workload::FleetNoisyShaped => unreachable!("the fleet generates per-device traces"),
    }
}

/// Preconditioning phases of a single-device workload, replayed in order
/// at the workload's queue depth before timing starts.
///
/// A full sequential fill at this scale leaves ~1.5 spare blocks per chip,
/// below `gc_free_threshold = 2`, so every later write would trigger a
/// ~575-page GC copy. Both workloads therefore fill only the range their
/// trace addresses (about half the logical space), then replay `warmup`
/// requests of their own trace drawn from another seed, until GC runs on
/// ordinary victims and (on `observed_readmostly`) trims have thinned the
/// range to its steady mapped share: the measured region starts in GC
/// steady state with realistic copy costs instead of drifting.
///
/// * `secure_churn`: fill `[0, end of the trace's range)`, all secure.
/// * `observed_readmostly`: fill the lower half, 1 in 8 secure.
pub fn precondition(
    w: Workload,
    logical: u64,
    measured: &[HostOp],
    warmup: usize,
    seed: u64,
) -> Vec<Vec<HostOp>> {
    match w {
        Workload::SecureChurn => {
            let end = measured.iter().map(|op| op.lpa_range().0 + op.npages()).max().unwrap_or(0);
            let warm = evanesco_bench::experiments::scheduler::mixed_trace(
                logical,
                warmup,
                seed ^ WARMUP_SALT,
            );
            vec![fill_trace(end.max(W1_HOT), 1), warm]
        }
        Workload::ObservedReadmostly => {
            let span = logical / 2;
            vec![fill_trace(span, 8), readmostly_trace(span, warmup, seed ^ WARMUP_SALT)]
        }
        Workload::FleetNoisyShaped => Vec::new(),
    }
}

/// `fleet_noisy_shaped`'s fleet: the `experiments fleet` noisy cell with
/// shaping on — four of that experiment's small 2-chip devices, one storm
/// tenant and three victims, arrivals at 1/6 of drain capacity, the storm
/// policed at 20% of capacity and victims at weight 4, qd 8, anatomy off.
pub fn fleet_config(requests_per_device: usize, seed: u64, shards: usize) -> FleetConfig {
    let traffic = TrafficConfig::noisy_neighbor(FLEET_VICTIMS, requests_per_device, seed);
    let tenants = traffic.tenants.len();
    let mut ssd = SsdConfig::tiny_for_tests();
    ssd.track_tags = false;
    ssd.stale_audit = false;
    let mut cfg = FleetConfig {
        ssd,
        policy: SanitizePolicy::evanesco(),
        traffic,
        qos: vec![TenantQos::unlimited(); tenants],
        mode: QosMode::Shaped,
        devices: FLEET_DEVICES,
        shards,
        qd: Workload::FleetNoisyShaped.qd(),
        anatomy: false,
    };
    let capacity_pages_per_sec = 1e9 / cfg.drain_ns_per_page() as f64;
    cfg.traffic.base_rate_per_sec = (capacity_pages_per_sec / 6.0).max(1.0);
    cfg.qos[0] = TenantQos::limited(1, (capacity_pages_per_sec * 0.2).max(1.0) as u64, 64);
    for q in &mut cfg.qos[1..] {
        q.weight = 4;
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_has_the_paper_block_shape() {
        let cfg = ssd_config();
        assert_eq!(cfg.ftl.geometry.pages_per_block(), 576);
        assert_eq!(cfg.ftl.logical_pages(), 48_384);
        assert_eq!(cfg.n_chips(), 8);
    }

    #[test]
    fn mixed_trace_sweeps_stay_below_the_hot_bound() {
        let logical = ssd_config().ftl.logical_pages();
        let ops = measured_trace(Workload::SecureChurn, logical, 3_000, 7);
        let sweeps = ops.iter().filter(|op| op.lpa_range().0 < W1_HOT).count();
        assert!(sweeps > 0 && sweeps < ops.len());
        for op in ops.iter().filter(|op| op.lpa_range().0 < W1_HOT) {
            assert!(matches!(op, HostOp::Write { npages: 4, secure: true, .. }), "{op:?}");
        }
    }

    #[test]
    fn readmostly_mix_is_seventy_twenty_ten() {
        let ops = readmostly_trace(24_192, 20_000, 3);
        let reads = ops.iter().filter(|o| matches!(o, HostOp::Read { .. })).count();
        let writes: Vec<_> = ops.iter().filter(|o| matches!(o, HostOp::Write { .. })).collect();
        let secure = writes.iter().filter(|o| matches!(o, HostOp::Write { secure: true, .. }));
        assert!((reads as f64 / 20_000.0 - 0.7).abs() < 0.02);
        assert!((writes.len() as f64 / 20_000.0 - 0.2).abs() < 0.02);
        assert!((secure.count() as f64 / writes.len() as f64 - 0.125).abs() < 0.03);
        assert!(ops.iter().all(|o| o.lpa_range().0 + o.npages() <= 24_192));
    }
}
