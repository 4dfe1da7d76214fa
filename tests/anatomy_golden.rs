//! Golden digest of the observers' exact output.
//!
//! A fixed device-only workload (no device-flag physics, so no libm
//! transcendentals anywhere on the path) runs at queue depths 8 and 32
//! with tracing and the latency anatomy on. Every retained anatomy row
//! (stages and causal chain, link by link and in order), the top-K
//! digest, the per-kind stage totals and every trace's derived segment
//! timeline are folded into one FNV-1a digest per queue depth, pinned
//! below. Any change to segmentation, blame, chain ordering or top-K
//! selection — even one that keeps every aggregate invariant — moves the
//! digest.

use evanesco::ftl::SanitizePolicy;
use evanesco::ssd::anatomy::{ChainLink, REQ_KINDS};
use evanesco::ssd::trace::ResourceId;
use evanesco::ssd::{Emulator, HostOp, RequestAnatomy, SsdConfig, Stage};

/// Incremental 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Secure and insecure writes, reads and trims over a clustered range,
/// from a xorshift stream (integer-only).
fn ops(logical: u64, n: usize, seed: u64) -> Vec<HostOp> {
    let mut x = seed | 1;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x >> 33
    };
    (0..n)
        .map(|_| {
            let npages = 1 + step() % 6;
            let lpa = step() % (logical / 2 - npages);
            match step() % 10 {
                0..=4 => HostOp::Write { lpa, npages, secure: step() % 3 != 0 },
                5..=7 => HostOp::Read { lpa, npages },
                _ => HostOp::Trim { lpa, npages },
            }
        })
        .collect()
}

fn hash_link(h: &mut Fnv, l: &ChainLink) {
    h.str(l.stage.label());
    h.str(l.kind.label());
    h.str(l.cause.label());
    match l.resource {
        None => h.u64(0),
        Some(ResourceId::Chip(i)) => {
            h.u64(1);
            h.u64(i as u64);
        }
        Some(ResourceId::Channel(c)) => {
            h.u64(2);
            h.u64(c as u64);
        }
    }
    h.u64(l.start.0);
    h.u64(l.end.0);
    h.u64(u64::from(l.own));
}

fn hash_row(h: &mut Fnv, r: &RequestAnatomy) {
    h.u64(r.trace_id);
    h.u64(r.req_idx.map_or(u64::MAX, |i| i as u64));
    h.str(r.kind.label());
    h.u64(r.lpa);
    h.u64(r.npages);
    h.u64(u64::from(r.acked));
    h.u64(r.submit.0);
    h.u64(r.end.0);
    for s in r.stages {
        h.u64(s.0);
    }
    h.u64(r.chain.len() as u64);
    for l in &r.chain {
        hash_link(h, l);
    }
}

/// Runs the workload at `qd` and digests the observers' output. Also
/// returns how many cross-request blame links the rows carry, so the test
/// can insist the occupancy path is actually exercised.
fn digest(qd: usize) -> (u64, usize) {
    let cfg = SsdConfig::tiny_for_tests();
    let n = 600;
    let ops = ops(cfg.ftl.logical_pages(), n, 0xA11A_7011);
    let mut ssd = Emulator::new(cfg, SanitizePolicy::evanesco());
    // Every trace stays in its ring; the anatomy ring and pending window
    // are far smaller, so rows resolve early and the ring evicts.
    ssd.enable_tracing(n + 64);
    ssd.enable_anatomy(64, 16);
    ssd.run_scheduled(&ops, qd);
    let an = ssd.take_anatomy().expect("anatomy enabled");
    let tr = ssd.trace().expect("tracing enabled");

    let mut h = Fnv::new();
    h.u64(an.recorded());
    h.u64(an.dropped());
    h.u64(an.occupancy_dropped());
    let mut neighbor_links = 0;
    for r in an.rows() {
        hash_row(&mut h, r);
        neighbor_links += r.chain.iter().filter(|l| !l.own).count();
    }
    h.u64(an.top().len() as u64);
    for r in an.top() {
        hash_row(&mut h, r);
        neighbor_links += r.chain.iter().filter(|l| !l.own).count();
    }
    for kind in REQ_KINDS {
        for stage in Stage::ALL {
            h.u64(an.stage_total(kind, stage).0);
        }
    }
    h.u64(tr.recorded());
    for t in tr.traces() {
        h.u64(t.id);
        h.u64(t.segments.len() as u64);
        for s in &t.segments {
            h.str(s.kind.label());
            h.str(s.cause.label());
            h.u64(s.start.0);
            h.u64(s.end.0);
        }
    }
    (h.0, neighbor_links)
}

#[test]
fn anatomy_and_trace_digest_is_pinned_at_qd8() {
    let (d, links) = digest(8);
    assert!(links > 0, "workload must exercise cross-request blame");
    assert_eq!(d, 0x4818_52df_622c_73d7, "qd 8 observer digest moved: {d:#018x}");
}

#[test]
fn anatomy_and_trace_digest_is_pinned_at_qd32() {
    let (d, links) = digest(32);
    assert!(links > 0, "workload must exercise cross-request blame");
    assert_eq!(d, 0x03ed_886b_e76f_0da3, "qd 32 observer digest moved: {d:#018x}");
}
