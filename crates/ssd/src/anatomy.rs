//! Per-request latency anatomy: an exact additive decomposition of every
//! traced host request's end-to-end latency into named stages, with
//! interference time attributed to its cause.
//!
//! The trace layer already proves a *tiling* identity — a request's
//! derived segments partition `[submit, end)` exactly (see
//! [`crate::trace`]). This module lifts that identity one level: each
//! segment is mapped to a **stage**, and wait time is *blamed* on
//! whatever actually occupied the blocking resource during the wait, by
//! consulting an occupancy timeline built from every traced command on
//! every chip and channel. The stage durations still sum to exactly the
//! end-to-end latency — time is only ever reclassified, never created or
//! dropped — so the anatomy inherits the tiling guarantee:
//!
//! ```text
//! e2e == queue_wait + dispatch_stall + xfer + chip_service
//!      + sanitize_interference + gc_interference + retry_interference
//! ```
//!
//! Classification rules (the blame model):
//!
//! * a request's **own** commands map by kind and cause: host-caused
//!   reads/programs are chip service, host transfers are transfer time,
//!   and anything issued under a GC / sanitization / fault-ladder cause
//!   scope — lock commands, scrubs, erases, GC copies, retry re-reads,
//!   firmware stalls — is interference of that cause;
//! * **wait** segments (in the service window but no own command
//!   running) are blamed against the occupancy timeline of the blocking
//!   resource — the resource of the request's next own command — for
//!   exactly the intervals an interference-class command of *any*
//!   request held it; the unattributed remainder stays dispatch stall;
//! * **queue wait** (before the earliest legal start) and watchdog
//!   backoff map to queue wait and retry interference respectively (the
//!   emulator passes the watchdog's penalty window alongside the trace).
//!
//! Blame needs hindsight: the command that blocked a fast request may
//! belong to a slower neighbor whose trace finishes later. Rows are
//! therefore held *pending* and resolved either when the bounded pending
//! window overflows or at [`AnatomyRecorder::finalize`], which every
//! reader (metrics export, experiment gates) calls first. Resolution
//! folds each row into per-kind/per-stage totals and histograms, a
//! deterministic top-K slowest digest carrying the full causal chain,
//! and the bounded resolved ring.
//!
//! The whole layer is observational: it reads finished traces and never
//! touches the simulated device, so enabling it cannot change results —
//! the `anatomy` experiment gate proves byte-identity.

use crate::metrics::LatencyHistogram;
use crate::trace::{ReqKind, RequestTrace, ResourceId, SpanKind, TraceEvent};
use evanesco_ftl::{Lpa, OpCause};
use evanesco_nand::timing::Nanos;
use std::collections::{BTreeMap, VecDeque};

/// One stage of the end-to-end latency decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Fleet-level QoS shaping wait (arrival to shaped release). Never
    /// produced by the device-level recorder; the fleet layer prepends it
    /// so one stage vocabulary covers the whole path.
    QosWait,
    /// Queue wait: NCQ slot acquisition to the earliest legal start
    /// (same-LPA dependencies), watchdog backoff excluded.
    QueueWait,
    /// In the service window with no own command running and no
    /// interference-class command occupying the blocking resource.
    DispatchStall,
    /// Host-caused channel transfer time.
    Xfer,
    /// Host-caused array time (reads, programs).
    ChipService,
    /// Sanitization interference: lock traffic (`pLock` / `bLock`),
    /// scrubs, and sanitize-caused erases/copies — own or a neighbor's.
    SanitizeInterference,
    /// Garbage-collection interference: GC copies and cleaning erases.
    GcInterference,
    /// Fault-ladder interference: read-retry re-sensing, firmware
    /// stalls, and watchdog abort/backoff penalties.
    RetryInterference,
}

impl Stage {
    /// All stages, in export order.
    pub const ALL: [Stage; 8] = [
        Stage::QosWait,
        Stage::QueueWait,
        Stage::DispatchStall,
        Stage::Xfer,
        Stage::ChipService,
        Stage::SanitizeInterference,
        Stage::GcInterference,
        Stage::RetryInterference,
    ];

    /// Number of stages (array dimension).
    pub const COUNT: usize = Stage::ALL.len();

    /// Stable lowercase label (metric names and JSON).
    pub fn label(self) -> &'static str {
        match self {
            Stage::QosWait => "qos_wait",
            Stage::QueueWait => "queue_wait",
            Stage::DispatchStall => "dispatch_stall",
            Stage::Xfer => "xfer",
            Stage::ChipService => "chip_service",
            Stage::SanitizeInterference => "sanitize_interference",
            Stage::GcInterference => "gc_interference",
            Stage::RetryInterference => "retry_interference",
        }
    }

    /// Index into `[_; Stage::COUNT]` arrays.
    pub fn idx(self) -> usize {
        Stage::ALL.iter().position(|&s| s == self).expect("stage listed in ALL")
    }
}

/// All request kinds, in export order (the trace module defines the type
/// but not an index; the anatomy aggregates need one).
pub const REQ_KINDS: [ReqKind; 5] =
    [ReqKind::Write, ReqKind::Read, ReqKind::Trim, ReqKind::Recovery, ReqKind::Maintenance];

fn kind_idx(kind: ReqKind) -> usize {
    REQ_KINDS.iter().position(|&k| k == kind).expect("kind listed in REQ_KINDS")
}

/// The interference stage a command of `kind` issued under `cause`
/// charges, or `None` when it is ordinary host service (chip service /
/// transfer, depending on kind).
pub fn interference_of(kind: SpanKind, cause: OpCause) -> Option<Stage> {
    match kind {
        // Lock traffic and scrubs are sanitization overhead no matter
        // which path issued them — the cost Evanesco trades erases for.
        SpanKind::PLock | SpanKind::BLock | SpanKind::Scrub => Some(Stage::SanitizeInterference),
        // Firmware stalls are fault-ladder throttling.
        SpanKind::Stall => Some(Stage::RetryInterference),
        // Erases are cleaning work: sanitize-caused when the sanitizer
        // asked for them, GC otherwise (no erase is host service).
        SpanKind::Erase => Some(match cause {
            OpCause::Sanitize => Stage::SanitizeInterference,
            OpCause::Retry => Stage::RetryInterference,
            OpCause::Gc | OpCause::Host => Stage::GcInterference,
        }),
        SpanKind::Read | SpanKind::Program | SpanKind::Xfer => match cause {
            OpCause::Host => None,
            OpCause::Gc => Some(Stage::GcInterference),
            OpCause::Sanitize => Some(Stage::SanitizeInterference),
            OpCause::Retry => Some(Stage::RetryInterference),
        },
        SpanKind::QueueWait | SpanKind::Wait => None,
    }
}

/// One link of a request's causal chain: an interval of interference
/// time and what it is blamed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainLink {
    /// Interference stage charged.
    pub stage: Stage,
    /// Span kind of the blamed command (e.g. `PLock` for lock traffic).
    pub kind: SpanKind,
    /// Cause scope the blamed command ran under.
    pub cause: OpCause,
    /// Resource the blamed command occupied (`None` for the request's
    /// own segments and watchdog penalty windows, which have no single
    /// resource).
    pub resource: Option<ResourceId>,
    /// Absolute interval start.
    pub start: Nanos,
    /// Absolute interval end (exclusive).
    pub end: Nanos,
    /// True when the blamed command was issued by this request itself
    /// (self-inflicted interference: its own trim's locks, its own GC);
    /// false when the blocking command came from the occupancy timeline
    /// — a neighbor's traffic.
    pub own: bool,
}

impl ChainLink {
    /// Interval duration.
    pub fn dur(&self) -> Nanos {
        self.end - self.start
    }
}

/// Bound on the causal chain kept per request (longest-blame links win).
const CHAIN_CAP: usize = 64;

/// The resolved anatomy of one traced request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestAnatomy {
    /// The trace id ([`RequestTrace::id`]) this row was derived from.
    pub trace_id: u64,
    /// Submission-order index on the scheduled path (joins the row to
    /// the op list / tenant); `None` for serialized-path and
    /// maintenance rows.
    pub req_idx: Option<usize>,
    /// Request class.
    pub kind: ReqKind,
    /// First logical page.
    pub lpa: Lpa,
    /// Pages touched.
    pub npages: u64,
    /// Whether the request was acknowledged.
    pub acked: bool,
    /// Queue-slot acquisition time.
    pub submit: Nanos,
    /// Completion time.
    pub end: Nanos,
    /// Per-stage durations. Sums to exactly [`RequestAnatomy::e2e`].
    pub stages: [Nanos; Stage::COUNT],
    /// Causal chain: every interference interval, blamer named, in
    /// timeline order (bounded at `CHAIN_CAP` — longest links kept).
    pub chain: Vec<ChainLink>,
}

impl RequestAnatomy {
    /// End-to-end latency (device clock: slot acquisition to
    /// completion).
    pub fn e2e(&self) -> Nanos {
        self.end - self.submit
    }

    /// One stage's duration.
    pub fn stage(&self, s: Stage) -> Nanos {
        self.stages[s.idx()]
    }

    /// Sum of all stage durations — the tiling identity says this is
    /// exactly [`RequestAnatomy::e2e`].
    pub fn stage_sum(&self) -> Nanos {
        self.stages.iter().fold(Nanos::ZERO, |a, &b| a + b)
    }

    /// Total interference time (sanitize + GC + retry).
    pub fn interference(&self) -> Nanos {
        self.stage(Stage::SanitizeInterference)
            + self.stage(Stage::GcInterference)
            + self.stage(Stage::RetryInterference)
    }
}

/// An unresolved wait interval: blamed lazily once the occupancy
/// timeline has caught up (the blocking command may belong to a trace
/// recorded later).
#[derive(Debug, Clone, Copy)]
struct PendingWait {
    start: Nanos,
    end: Nanos,
    /// The blocking resource: where the request's next own command ran.
    /// `None` for trailing waits with no subsequent command — those have
    /// no blocking resource and stay dispatch stall.
    resource: Option<ResourceId>,
}

#[derive(Debug, Clone)]
struct Pending {
    row: RequestAnatomy,
    waits: Vec<PendingWait>,
}

/// One interval of the per-resource occupancy timeline (interference
/// commands only — host service never blames a wait).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OccSlot {
    start: Nanos,
    end: Nanos,
    /// Insertion sequence number on this resource.
    seq: u64,
    stage: Stage,
    kind: SpanKind,
    cause: OpCause,
}

/// Per-resource occupancy window bound. Old intervals are only consulted
/// by waits that overlap them, so a bounded recent window suffices;
/// overflow is counted in [`AnatomyRecorder::occupancy_dropped`].
const OCC_CAP: usize = 4096;

/// One resource's occupancy timeline: the most recent `OCC_CAP` slots,
/// evicted oldest-inserted first, indexed by `(start, seq)` so a wait
/// visits only the slots that can reach it.
#[derive(Debug, Clone, Default)]
struct Occupancy {
    /// Start times in insertion order (the eviction queue); the front
    /// slot's sequence number is `next_seq - fifo.len()`.
    fifo: VecDeque<Nanos>,
    /// The same slots, sorted by `(start, seq)`.
    by_start: VecDeque<OccSlot>,
    /// Longest slot duration ever inserted: no slot starting before
    /// `t - max_dur` reaches past `t`.
    max_dur: Nanos,
    next_seq: u64,
}

impl Occupancy {
    /// Inserts `e`, blamed as `stage`; returns true when the window was
    /// full and the oldest-inserted slot was evicted to make room.
    fn push(&mut self, e: &TraceEvent, stage: Stage) -> bool {
        let evicted = self.fifo.len() == OCC_CAP;
        if evicted {
            let seq = self.next_seq - OCC_CAP as u64;
            let key = (self.fifo.pop_front().expect("window full"), seq);
            let at = self
                .by_start
                .binary_search_by_key(&key, |s| (s.start, s.seq))
                .expect("evicted slot is indexed");
            self.by_start.remove(at);
        }
        let (start, seq) = (e.start, self.next_seq);
        self.next_seq += 1;
        self.max_dur = self.max_dur.max(e.end - start);
        let at = self.by_start.partition_point(|s| (s.start, s.seq) < (start, seq));
        let slot = OccSlot { start, end: e.end, seq, stage, kind: e.kind, cause: e.cause };
        self.by_start.insert(at, slot);
        self.fifo.push_back(start);
        evicted
    }

    /// Fills `out` with every retained slot overlapping `[start, end)`,
    /// clipped to the wait, in insertion order.
    fn overlapping(&self, start: Nanos, end: Nanos, out: &mut Vec<OccSlot>) {
        out.clear();
        let from = (start.saturating_sub(self.max_dur), 0);
        let lo = self.by_start.partition_point(|s| (s.start, s.seq) < from);
        for slot in self.by_start.range(lo..) {
            if slot.start >= end {
                break;
            }
            let (a, b) = (slot.start.max(start), slot.end.min(end));
            if b > a {
                out.push(OccSlot { start: a, end: b, ..*slot });
            }
        }
        out.sort_unstable_by_key(|s| s.seq);
    }
}

/// Bounded per-request latency-anatomy recorder.
///
/// Fed one [`RequestTrace`] at a time by the emulator (tracing must be
/// on). Aggregates survive ring eviction; rows and the top-K digest are
/// bounded. Deterministic: identical runs produce identical anatomy.
#[derive(Debug, Clone)]
pub struct AnatomyRecorder {
    capacity: usize,
    top_k: usize,
    pending: VecDeque<Pending>,
    resolved: VecDeque<RequestAnatomy>,
    occupancy: BTreeMap<ResourceId, Occupancy>,
    occ_dropped: u64,
    /// Scratch: one wait's overlapping slots.
    hits: Vec<OccSlot>,
    /// Scratch: a trace's event indices in start order.
    by_start: Vec<usize>,
    recorded: u64,
    dropped: u64,
    /// Total stage time per request kind, across every recorded row.
    totals: [[Nanos; Stage::COUNT]; REQ_KINDS.len()],
    /// Per-kind/per-stage duration histograms (one sample per request).
    hists: [[LatencyHistogram; Stage::COUNT]; REQ_KINDS.len()],
    /// Deterministic top-K slowest rows: ordered by (e2e desc, trace id
    /// asc), ring eviction notwithstanding.
    top: Vec<RequestAnatomy>,
}

impl AnatomyRecorder {
    /// A recorder retaining at most `capacity` resolved rows and a
    /// top-`top_k` slowest digest.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, top_k: usize) -> Self {
        assert!(capacity > 0, "anatomy ring capacity must be positive");
        AnatomyRecorder {
            capacity,
            top_k,
            pending: VecDeque::new(),
            resolved: VecDeque::with_capacity(capacity.min(4096)),
            occupancy: BTreeMap::new(),
            occ_dropped: 0,
            hits: Vec::new(),
            by_start: Vec::new(),
            recorded: 0,
            dropped: 0,
            totals: [[Nanos::ZERO; Stage::COUNT]; REQ_KINDS.len()],
            hists: [[LatencyHistogram::new(); Stage::COUNT]; REQ_KINDS.len()],
            top: Vec::new(),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rows recorded over the recorder's lifetime.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Rows evicted from the resolved ring (aggregates and the top-K
    /// digest still cover them).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Occupancy intervals evicted from a full per-resource window —
    /// wait blame may be undercounted (never overcounted) when nonzero.
    pub fn occupancy_dropped(&self) -> u64 {
        self.occ_dropped
    }

    /// Total stage time for `kind` requests in `stage`, across every
    /// *resolved* row (call [`AnatomyRecorder::finalize`] first to
    /// settle the pending window).
    pub fn stage_total(&self, kind: ReqKind, stage: Stage) -> Nanos {
        self.totals[kind_idx(kind)][stage.idx()]
    }

    /// Per-request duration histogram for `kind` × `stage` (resolved
    /// rows).
    pub fn stage_hist(&self, kind: ReqKind, stage: Stage) -> &LatencyHistogram {
        &self.hists[kind_idx(kind)][stage.idx()]
    }

    /// The retained resolved rows, oldest first.
    pub fn rows(&self) -> impl Iterator<Item = &RequestAnatomy> {
        self.resolved.iter()
    }

    /// The top-K slowest resolved rows, slowest first (ties broken by
    /// trace id ascending — fully deterministic).
    pub fn top(&self) -> &[RequestAnatomy] {
        &self.top
    }

    /// Rows recorded but not yet blame-resolved.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Ingests one finished trace. `retry` is the watchdog penalty
    /// window (absolute), if the request was aborted and backed off;
    /// `req_idx` joins the row to a scheduled-run op index.
    pub fn record(
        &mut self,
        t: &RequestTrace,
        retry: Option<(Nanos, Nanos)>,
        req_idx: Option<usize>,
    ) {
        let mut stages = [Nanos::ZERO; Stage::COUNT];
        let mut chain: Vec<ChainLink> = Vec::new();
        let mut waits: Vec<PendingWait> = Vec::new();
        // Waits come in time order, so one forward cursor over the
        // start-ordered events finds each wait's next own command.
        let mut next_own = NextOwn::new(&t.events, &mut self.by_start);
        for seg in &t.segments {
            match seg.kind {
                SpanKind::QueueWait | SpanKind::Wait => {
                    let base = if seg.kind == SpanKind::QueueWait {
                        Stage::QueueWait
                    } else {
                        Stage::DispatchStall
                    };
                    // Watchdog penalty first: the backoff window is retry
                    // interference wherever it lands in the timeline.
                    let (rs, re) = match retry {
                        Some((rs, re)) => (rs.max(seg.start), re.min(seg.end)),
                        None => (seg.start, seg.start),
                    };
                    if re > rs {
                        stages[Stage::RetryInterference.idx()] += re - rs;
                        chain.push(ChainLink {
                            stage: Stage::RetryInterference,
                            kind: seg.kind,
                            cause: OpCause::Retry,
                            resource: None,
                            start: rs,
                            end: re,
                            own: true,
                        });
                    }
                    // The un-penalized remainder: queue wait stays queue
                    // wait; service-window waits go to the occupancy
                    // blame pass.
                    for (a, b) in [(seg.start, rs.max(seg.start)), (re.max(seg.start), seg.end)] {
                        if b <= a {
                            continue;
                        }
                        if base == Stage::QueueWait {
                            stages[base.idx()] += b - a;
                        } else {
                            stages[base.idx()] += b - a;
                            waits.push(PendingWait {
                                start: a,
                                end: b,
                                resource: next_own.resource(b),
                            });
                        }
                    }
                }
                kind => {
                    // An own command: charge its stage directly.
                    match interference_of(kind, seg.cause) {
                        Some(stage) => {
                            stages[stage.idx()] += seg.dur();
                            chain.push(ChainLink {
                                stage,
                                kind,
                                cause: seg.cause,
                                resource: None,
                                start: seg.start,
                                end: seg.end,
                                own: true,
                            });
                        }
                        None => {
                            let stage = if kind == SpanKind::Xfer {
                                Stage::Xfer
                            } else {
                                Stage::ChipService
                            };
                            stages[stage.idx()] += seg.dur();
                        }
                    }
                }
            }
        }
        // Every interference-class command this request issued joins the
        // occupancy timeline, so neighbors' waits can be blamed on it.
        for e in &t.events {
            if let Some(stage) = interference_of(e.kind, e.cause) {
                let occ = self.occupancy.entry(e.resource).or_default();
                if occ.push(e, stage) {
                    self.occ_dropped += 1;
                }
            }
        }
        let row = RequestAnatomy {
            trace_id: t.id,
            req_idx,
            kind: t.kind,
            lpa: t.lpa,
            npages: t.npages,
            acked: t.acked,
            submit: t.submit,
            end: t.end,
            stages,
            chain,
        };
        self.recorded += 1;
        self.pending.push_back(Pending { row, waits });
        // Bound the pending window: the oldest row resolves against the
        // occupancy seen so far (its blockers completed long ago).
        if self.pending.len() > self.capacity {
            let p = self.pending.pop_front().expect("pending nonempty");
            self.resolve_one(p);
        }
    }

    /// Resolves every pending row against the full occupancy timeline
    /// and folds it into the aggregates. Call before reading totals,
    /// histograms, rows, or the top-K digest. Idempotent.
    pub fn finalize(&mut self) {
        while let Some(p) = self.pending.pop_front() {
            self.resolve_one(p);
        }
    }

    fn resolve_one(&mut self, p: Pending) {
        let Pending { mut row, waits } = p;
        for w in &waits {
            let Some(res) = w.resource else { continue };
            let Some(occ) = self.occupancy.get(&res) else { continue };
            occ.overlapping(w.start, w.end, &mut self.hits);
            for hit in &self.hits {
                // Reclassify: the blocking resource was held by an
                // interference-class command for the clipped interval.
                // Occupancy intervals on a serial resource are disjoint,
                // so the reclassified total never exceeds the wait.
                let dur = hit.end - hit.start;
                row.stages[Stage::DispatchStall.idx()] =
                    row.stages[Stage::DispatchStall.idx()] - dur;
                row.stages[hit.stage.idx()] += dur;
                row.chain.push(ChainLink {
                    stage: hit.stage,
                    kind: hit.kind,
                    cause: hit.cause,
                    resource: Some(res),
                    start: hit.start,
                    end: hit.end,
                    own: false,
                });
            }
        }
        // Deterministic chain order and bound: timeline order, longest
        // links retained when over the cap.
        row.chain.sort_by_key(|l| (l.start, l.end, l.stage.idx()));
        if row.chain.len() > CHAIN_CAP {
            let mut by_dur: Vec<usize> = (0..row.chain.len()).collect();
            by_dur.sort_by_key(|&i| (std::cmp::Reverse(row.chain[i].dur()), i));
            by_dur.truncate(CHAIN_CAP);
            by_dur.sort_unstable();
            row.chain = by_dur.into_iter().map(|i| row.chain[i]).collect();
        }
        let k = kind_idx(row.kind);
        for s in Stage::ALL {
            self.totals[k][s.idx()] += row.stages[s.idx()];
            self.hists[k][s.idx()].record(row.stages[s.idx()]);
        }
        // Top-K insert: (e2e desc, trace id asc). Only a row that beats
        // the current K-th entry is cloned; it goes after its equals.
        let key = |r: &RequestAnatomy| (std::cmp::Reverse(r.e2e()), r.trace_id);
        if self.top.len() < self.top_k || self.top.last().is_some_and(|l| key(&row) < key(l)) {
            let at = self.top.partition_point(|r| key(r) <= key(&row));
            self.top.insert(at, row.clone());
            self.top.truncate(self.top_k);
        }
        if self.resolved.len() == self.capacity {
            self.resolved.pop_front();
            self.dropped += 1;
        }
        self.resolved.push_back(row);
    }
}

/// Forward cursor over a trace's events in start order (ties in issue
/// order), answering "next own command at or after `at`" for
/// nondecreasing `at`.
struct NextOwn<'a> {
    events: &'a [TraceEvent],
    by_start: &'a [usize],
    at: usize,
}

impl<'a> NextOwn<'a> {
    /// A cursor at the first of `events`, ordering them in `scratch`.
    fn new(events: &'a [TraceEvent], scratch: &'a mut Vec<usize>) -> Self {
        scratch.clear();
        scratch.extend(0..events.len());
        scratch.sort_by_key(|&i| events[i].start);
        NextOwn { events, by_start: scratch, at: 0 }
    }

    /// The resource of the request's next own command starting at or
    /// after `at` — the resource the request was actually blocked on
    /// during a wait ending at `at`. `None` when no own command follows
    /// (trailing wait).
    fn resource(&mut self, at: Nanos) -> Option<ResourceId> {
        while self.by_start.get(self.at).is_some_and(|&i| self.events[i].start < at) {
            self.at += 1;
        }
        self.by_start.get(self.at).map(|&i| self.events[i].resource)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceEvent, TraceRecorder};

    fn ev(kind: SpanKind, cause: OpCause, res: ResourceId, start: u64, end: u64) -> TraceEvent {
        TraceEvent { kind, cause, resource: res, start: Nanos(start), end: Nanos(end) }
    }

    fn tiling_holds(r: &RequestAnatomy) {
        assert_eq!(r.stage_sum(), r.e2e(), "stages must tile e2e exactly: {r:?}");
    }

    #[test]
    fn own_segments_classify_by_kind_and_cause() {
        let mut tr = TraceRecorder::new(8);
        let t = tr.record(
            ReqKind::Trim,
            0,
            1,
            true,
            Nanos(0),
            Nanos(100),
            Nanos(1000),
            vec![
                ev(SpanKind::Xfer, OpCause::Host, ResourceId::Channel(0), 100, 140),
                ev(SpanKind::Read, OpCause::Gc, ResourceId::Chip(0), 140, 240),
                ev(SpanKind::Program, OpCause::Host, ResourceId::Chip(0), 240, 540),
                ev(SpanKind::PLock, OpCause::Sanitize, ResourceId::Chip(0), 540, 640),
                ev(SpanKind::Stall, OpCause::Host, ResourceId::Chip(0), 640, 700),
            ],
        );
        let mut a = AnatomyRecorder::new(8, 4);
        a.record(t, None, Some(3));
        a.finalize();
        let r = a.rows().next().expect("one row");
        tiling_holds(r);
        assert_eq!(r.req_idx, Some(3));
        assert_eq!(r.stage(Stage::QueueWait), Nanos(100));
        assert_eq!(r.stage(Stage::Xfer), Nanos(40));
        assert_eq!(r.stage(Stage::GcInterference), Nanos(100));
        assert_eq!(r.stage(Stage::ChipService), Nanos(300));
        assert_eq!(r.stage(Stage::SanitizeInterference), Nanos(100));
        assert_eq!(r.stage(Stage::RetryInterference), Nanos(60));
        // Trailing wait [700, 1000): no own command after it.
        assert_eq!(r.stage(Stage::DispatchStall), Nanos(300));
        // Chain names the self-inflicted interference.
        assert!(r.chain.iter().any(|l| l.stage == Stage::SanitizeInterference && l.own));
    }

    #[test]
    fn waits_are_blamed_on_what_occupied_the_blocking_resource() {
        let mut tr = TraceRecorder::new(8);
        // The victim waits [0, 500) then reads on chip 0.
        let victim = tr
            .record(
                ReqKind::Read,
                9,
                1,
                true,
                Nanos(0),
                Nanos(0),
                Nanos(600),
                vec![ev(SpanKind::Read, OpCause::Host, ResourceId::Chip(0), 500, 600)],
            )
            .clone();
        // The neighbor's bLock held chip 0 for [100, 400) — recorded
        // *after* the victim (out-of-order completion).
        let neighbor = tr
            .record(
                ReqKind::Trim,
                7,
                1,
                true,
                Nanos(0),
                Nanos(0),
                Nanos(400),
                vec![ev(SpanKind::BLock, OpCause::Sanitize, ResourceId::Chip(0), 100, 400)],
            )
            .clone();
        let mut a = AnatomyRecorder::new(8, 4);
        a.record(&victim, None, None);
        a.record(&neighbor, None, None);
        a.finalize();
        let rows: Vec<&RequestAnatomy> = a.rows().collect();
        let v = rows.iter().find(|r| r.trace_id == victim.id).expect("victim row");
        tiling_holds(v);
        // 300 ns of the victim's 500 ns wait is the neighbor's lock.
        assert_eq!(v.stage(Stage::SanitizeInterference), Nanos(300));
        assert_eq!(v.stage(Stage::DispatchStall), Nanos(200));
        assert_eq!(v.stage(Stage::ChipService), Nanos(100));
        let link = v.chain.iter().find(|l| !l.own).expect("cross-request blame link");
        assert_eq!(link.kind, SpanKind::BLock);
        assert_eq!(link.resource, Some(ResourceId::Chip(0)));
        assert_eq!((link.start, link.end), (Nanos(100), Nanos(400)));
    }

    #[test]
    fn watchdog_penalty_window_is_retry_interference() {
        let mut tr = TraceRecorder::new(8);
        // Retried: submit 0, original earliest 100, penalty pushed the
        // start to 400; the read then runs [400, 500).
        let t = tr.record(
            ReqKind::Read,
            0,
            1,
            true,
            Nanos(0),
            Nanos(400),
            Nanos(500),
            vec![ev(SpanKind::Read, OpCause::Host, ResourceId::Chip(0), 400, 500)],
        );
        let mut a = AnatomyRecorder::new(8, 4);
        a.record(t, Some((Nanos(100), Nanos(400))), None);
        a.finalize();
        let r = a.rows().next().expect("one row");
        tiling_holds(r);
        assert_eq!(r.stage(Stage::QueueWait), Nanos(100));
        assert_eq!(r.stage(Stage::RetryInterference), Nanos(300));
        assert_eq!(r.stage(Stage::ChipService), Nanos(100));
    }

    #[test]
    fn aggregates_and_topk_survive_ring_eviction() {
        let mut tr = TraceRecorder::new(64);
        let mut a = AnatomyRecorder::new(2, 3);
        for i in 0..10u64 {
            let t = tr
                .record(
                    ReqKind::Write,
                    i,
                    1,
                    true,
                    Nanos(0),
                    Nanos(0),
                    Nanos(100 * (i + 1)),
                    vec![ev(
                        SpanKind::Program,
                        OpCause::Host,
                        ResourceId::Chip(0),
                        0,
                        100 * (i + 1),
                    )],
                )
                .clone();
            a.record(&t, None, None);
        }
        a.finalize();
        assert_eq!(a.recorded(), 10);
        assert_eq!(a.dropped(), 8);
        assert_eq!(a.rows().count(), 2);
        // Totals cover every row, evicted ones included.
        let sum: u64 = (1..=10).map(|i| 100 * i).sum();
        assert_eq!(a.stage_total(ReqKind::Write, Stage::ChipService), Nanos(sum));
        assert_eq!(a.stage_hist(ReqKind::Write, Stage::ChipService).count(), 10);
        // Top-K: the three slowest, slowest first, despite eviction.
        let tops: Vec<u64> = a.top().iter().map(|r| r.e2e().0).collect();
        assert_eq!(tops, vec![1000, 900, 800]);
    }

    /// Deterministic xorshift stream for the differential tests.
    fn rng(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut x = seed | 1;
        move |n| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        }
    }

    /// The linear lookup the index replaced: every slot of the FIFO ring,
    /// clipped to the wait, in ring order.
    fn overlapping_scan(ring: &VecDeque<OccSlot>, start: Nanos, end: Nanos) -> Vec<OccSlot> {
        ring.iter()
            .filter_map(|slot| {
                let (a, b) = (slot.start.max(start), slot.end.min(end));
                (b > a).then_some(OccSlot { start: a, end: b, ..*slot })
            })
            .collect()
    }

    #[test]
    fn indexed_lookup_matches_the_ring_scan() {
        const KINDS: [(SpanKind, OpCause); 4] = [
            (SpanKind::PLock, OpCause::Sanitize),
            (SpanKind::BLock, OpCause::Sanitize),
            (SpanKind::Program, OpCause::Gc),
            (SpanKind::Erase, OpCause::Gc),
        ];
        let mut rnd = rng(0xD1FF_0CC0);
        for case in 0..6u64 {
            let mut occ = Occupancy::default();
            let mut ring: VecDeque<OccSlot> = VecDeque::new();
            let mut evicted = 0u64;
            // Up to 2.5x the window: eviction runs in the later cases.
            let n = 1000 + case * OCC_CAP as u64 / 2;
            for seq in 0..n {
                // Starts drift forward but arrive out of order, slots
                // overlap freely, and a rare long slot widens `max_dur`.
                let start = seq * 3 + rnd(200);
                let dur = if rnd(50) == 0 { 500 + rnd(5000) } else { 1 + rnd(40) };
                let (kind, cause) = KINDS[rnd(4) as usize];
                let stage = interference_of(kind, cause).expect("interference kind");
                let e = ev(kind, cause, ResourceId::Chip(0), start, start + dur);
                if occ.push(&e, stage) {
                    evicted += 1;
                }
                if ring.len() == OCC_CAP {
                    ring.pop_front();
                }
                ring.push_back(OccSlot { start: e.start, end: e.end, seq, stage, kind, cause });
                if seq % 37 == 0 {
                    let ws = Nanos(seq * 3 - rnd(seq * 3 + 1).min(6000));
                    let we = ws + Nanos(rnd(400));
                    let mut got = Vec::new();
                    occ.overlapping(ws, we, &mut got);
                    let want = overlapping_scan(&ring, ws, we);
                    assert_eq!(got, want, "case {case}, after slot {seq}, wait [{ws:?}, {we:?})");
                }
            }
            assert_eq!(evicted, n.saturating_sub(OCC_CAP as u64), "case {case}: eviction count");
            assert_eq!(occ.by_start.len(), ring.len());
        }
    }

    /// The per-wait scan the cursor replaced.
    fn next_own_scan(t: &RequestTrace, at: Nanos) -> Option<ResourceId> {
        t.events.iter().filter(|e| e.start >= at).min_by_key(|e| e.start).map(|e| e.resource)
    }

    #[test]
    fn next_own_cursor_matches_the_scan() {
        let mut rnd = rng(0x0E7E_0A07);
        let mut tr = TraceRecorder::new(1);
        for case in 0..2000 {
            // Events share start times on different resources, so the
            // issue-order tiebreak matters.
            let events: Vec<TraceEvent> = (0..rnd(10))
                .map(|_| {
                    let start = rnd(30);
                    ev(
                        SpanKind::Read,
                        OpCause::Host,
                        ResourceId::Chip(rnd(4) as usize),
                        start,
                        start + 1 + rnd(10),
                    )
                })
                .collect();
            let t = tr.record(ReqKind::Read, 0, 1, true, Nanos(0), Nanos(0), Nanos(45), events);
            let mut scratch = Vec::new();
            let mut cursor = NextOwn::new(&t.events, &mut scratch);
            let mut at = 0;
            while at < 45 {
                assert_eq!(cursor.resource(Nanos(at)), next_own_scan(t, Nanos(at)), "case {case}");
                at += rnd(4);
            }
        }
    }

    #[test]
    fn topk_insert_matches_sort_and_truncate() {
        let mut rnd = rng(0x7095);
        for top_k in [0usize, 1, 3, 8] {
            let mut a = AnatomyRecorder::new(4, top_k);
            let mut want: Vec<RequestAnatomy> = Vec::new();
            for i in 0..400u64 {
                // Few distinct latencies and reused trace ids: ties on
                // the full key must keep insertion order, as a stable
                // sort does.
                let trace_id = rnd(40);
                let end = Nanos(100 * (1 + rnd(6)));
                let row = RequestAnatomy {
                    trace_id,
                    req_idx: Some(i as usize),
                    kind: ReqKind::Read,
                    lpa: 0,
                    npages: 1,
                    acked: true,
                    submit: Nanos::ZERO,
                    end,
                    stages: [Nanos::ZERO; Stage::COUNT],
                    chain: Vec::new(),
                };
                want.push(row.clone());
                want.sort_by_key(|r| (std::cmp::Reverse(r.e2e()), r.trace_id));
                want.truncate(top_k);
                a.resolve_one(Pending { row, waits: Vec::new() });
                assert_eq!(a.top(), &want[..], "top-{top_k} after row {i}");
            }
        }
    }

    #[test]
    fn topk_ties_break_by_trace_id() {
        let mut tr = TraceRecorder::new(8);
        let mut a = AnatomyRecorder::new(8, 2);
        for _ in 0..4 {
            let t = tr
                .record(ReqKind::Read, 0, 1, true, Nanos(0), Nanos(0), Nanos(500), vec![])
                .clone();
            a.record(&t, None, None);
        }
        a.finalize();
        let ids: Vec<u64> = a.top().iter().map(|r| r.trace_id).collect();
        assert_eq!(ids, vec![0, 1], "equal e2e: earliest trace ids win");
    }
}
