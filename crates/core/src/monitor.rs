//! Adapter implementing the `pomp` hook interface on top of
//! [`ThreadProfile`] with a real (or virtual) clock.
//!
//! `ProfMonitor` is what you hand to the `taskrt` runtime to get an
//! *instrumented* run; [`pomp::NullMonitor`] gives the uninstrumented
//! baseline. Configure one with [`ProfMonitor::builder`]; after the
//! parallel regions complete, [`ProfMonitor::take_profile`] returns the
//! collected per-thread snapshots.
//!
//! # The sharded fast path
//!
//! Every steady-state event (enter/exit/switch/create/param) touches only
//! the thread's own [`ProfThread`] shard: a cached per-thread clock reader
//! ([`pomp::ClockSource::thread_reader`]) and a [`ThreadProfile`] whose
//! arena was preallocated (and is recycled across regions). No lock, no
//! atomic, no shared `Arc` dereference — and no `RefCell` borrow flag —
//! is on that path. Cross-thread hand-off happens only at region end
//! ([`pomp::Monitor::thread_end`]): the finished snapshot is published
//! with a single CAS push onto a lock-free [`HandoffStack`], and the
//! shard's arena goes onto a spare pool the next region steals from.

use crate::profiler::{AssignPolicy, ThreadProfile};
use crate::replay::Event;
use crate::shard::HandoffStack;
use crate::snapshot::{Profile, ThreadSnapshot};
use crate::tree::Arena;
use pomp::{
    ClockReader, ClockSource, EventClass, Monitor, MonotonicClock, ParamId, RegionId, TaskId,
    TaskRef, ThreadHooks,
};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use taskprof_telemetry::{TelemetryConfig, TelemetryCore, ThreadTelemetry};

/// Default preallocated arena slots per thread shard. Sized generously for
/// BOTS-style call trees (tens of regions × parameter fan-out); a shard
/// that outgrows it just reallocates once and the larger arena is recycled.
pub const DEFAULT_PREALLOC_NODES: usize = 256;

/// A [`ProfMonitor`] configuration was rejected, naming the setting and
/// the reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A setting's value is invalid regardless of timing.
    InvalidValue {
        /// The setting that was rejected.
        setting: &'static str,
        /// The rejected value.
        value: usize,
        /// Why it is invalid.
        reason: &'static str,
    },
}

impl ConfigError {
    /// The name of the rejected setting.
    pub fn setting(&self) -> &'static str {
        match self {
            ConfigError::InvalidValue { setting, .. } => setting,
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InvalidValue {
                setting,
                value,
                reason,
            } => write!(f, "invalid value {value} for `{setting}`: {reason}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// [`ProfMonitor::take_profile`] was called while a measurement was still
/// in progress (threads between `thread_begin` and `thread_end`, or a
/// parallel region between fork and join). Draining at that point would
/// silently return a half-merged profile, so it is a typed error instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionActiveError {
    /// Threads currently between `thread_begin` and `thread_end`.
    pub live_threads: usize,
    /// Parallel regions currently between fork and join.
    pub live_regions: usize,
}

impl std::fmt::Display for SessionActiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "profile requested mid-measurement: {} live thread(s), {} open parallel region(s)",
            self.live_threads, self.live_regions
        )
    }
}

impl std::error::Error for SessionActiveError {}

struct Inner<C: ClockSource> {
    clock: C,
    policy: AssignPolicy,
    max_depth: Option<usize>,
    max_live_trees: Option<usize>,
    prealloc_nodes: usize,
    /// Completed per-thread snapshots, published lock-free at thread end.
    collected: HandoffStack<ThreadSnapshot>,
    /// Recycled arenas: a thread beginning a region steals one instead of
    /// allocating fresh node storage.
    spare_arenas: HandoffStack<Arena>,
    live_threads: AtomicUsize,
    live_regions: AtomicUsize,
    /// Parallel regions forked so far: the instance number a thread
    /// beginning now stamps on its edge stream.
    regions_forked: AtomicU64,
    /// Live telemetry counters, when enabled. `None` keeps the event fast
    /// path to a single never-taken branch per hook.
    telemetry: Option<Arc<TelemetryCore>>,
    /// Record the create/join edge stream for critical-path analysis.
    record_edges: bool,
    /// Per-thread edge streams, published lock-free at thread end in
    /// packed form; decoded on drain in [`ProfMonitor::take_edge_streams`].
    edge_streams: HandoffStack<PackedEdgeStream>,
}

/// One thread's decoded edge log for one parallel-region instance, as
/// drained by [`ProfMonitor::take_edge_streams`]: the input to
/// `critpath::TaskDag::from_streams`, `taskprof_trace::Trace::from_edge_streams`
/// and the [`crate::Replayer`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeStream {
    /// Which parallel-region instance the stream belongs to, numbered in
    /// fork order. Task ids restart in every region, so they identify an
    /// instance only together with this number.
    pub instance: u64,
    /// Team-local thread id.
    pub tid: usize,
    /// Clock reading at thread begin. An event's absolute time is `start`
    /// plus the `Advance`s before it, which puts every thread on one
    /// timebase.
    pub start: u64,
    /// The differential event stream, ending with an `Advance` up to
    /// thread end when time passed after the last hook.
    pub events: Vec<Event>,
}

// Edge-record tags (low 4 bits of the first word of every record).
const ET_LONG_ADVANCE: u64 = 0;
const ET_ENTER: u64 = 1;
const ET_EXIT: u64 = 2;
const ET_CREATE_BEGIN: u64 = 3;
const ET_CREATE_END: u64 = 4;
const ET_TASK_BEGIN: u64 = 5;
const ET_TASK_END: u64 = 6;
const ET_TASK_ABORT: u64 = 7;
const ET_SWITCH_IMPLICIT: u64 = 8;
const ET_SWITCH_EXPLICIT: u64 = 9;
const ET_PARAM_BEGIN: u64 = 10;
const ET_PARAM_END: u64 = 11;

/// Per-thread edge transcript: the hook stream recorded as packed
/// `u64` records and decoded into the replayable [`Event`] language
/// (differential timestamps, exactly what `critpath::TaskDag` consumes)
/// only once, off the measured path entirely, when the caller drains
/// [`ProfMonitor::take_edge_streams`]. Thread end just seals the word
/// buffer and hands it off — decoding is analysis-time cost, so the
/// instrumented run pays only the packed writes.
///
/// The hot path is dominated by memory traffic, not compute: retaining
/// one `Event` per hook plus its `Advance` streams ~48 bytes per event
/// through the cache, which costs more than the rest of the hook
/// combined once the log outgrows L2. The packed form is one word for
/// enter/exit-class records (tag in bits 0..4, timestamp delta in bits
/// 4..28, a `u32` region/param payload in bits 28..60) plus full-width
/// extra words only where needed (task ids, param values) — 8 bytes for
/// region events, 16–24 for task-lifecycle events, a 3–6× traffic
/// reduction. Deltas ≥ 2^24 ns (gaps over ~16 ms) take a rare
/// standalone long-advance record. When recording is off the whole
/// shard field is `None` and each hook pays one never-taken branch.
struct EdgeLog {
    last: u64,
    words: Vec<u64>,
    instance: u64,
    start: u64,
}

impl EdgeLog {
    fn new(instance: u64, t: u64) -> Self {
        EdgeLog {
            last: t,
            words: Vec::with_capacity(1 << 12),
            instance,
            start: t,
        }
    }

    /// Timestamp delta for the next record header, folding oversized
    /// gaps into a standalone long-advance record.
    #[inline(always)]
    fn delta(&mut self, t: u64) -> u64 {
        let d = t.saturating_sub(self.last);
        if d == 0 {
            return 0;
        }
        self.last = t;
        if d < (1 << 24) {
            d
        } else {
            self.long_advance(d)
        }
    }

    #[cold]
    fn long_advance(&mut self, d: u64) -> u64 {
        self.words.push(ET_LONG_ADVANCE | (d << 4));
        0
    }

    /// Append the first `n` of `w` with a single capacity check and
    /// unconditional in-capacity stores — three dependent `Vec::push`
    /// calls would pay three grow checks on the hottest path.
    #[inline(always)]
    fn push_words(&mut self, w: [u64; 3], n: usize) {
        let buf = &mut self.words;
        if buf.capacity() - buf.len() < 3 {
            buf.reserve(1 << 12);
        }
        // SAFETY: capacity for 3 words was just ensured; writes stay in
        // spare capacity and `set_len` only exposes the `n` valid ones.
        unsafe {
            let p = buf.as_mut_ptr().add(buf.len());
            p.write(w[0]);
            p.add(1).write(w[1]);
            p.add(2).write(w[2]);
            buf.set_len(buf.len() + n);
        }
    }

    #[inline(always)]
    fn emit(&mut self, t: u64, ev: Event) {
        // Hooks pass a literal variant, so after inlining the match
        // folds to the single arm and no `Event` ever materializes.
        let d = self.delta(t);
        let hdr = |tag: u64, a: u32| tag | (d << 4) | (u64::from(a) << 28);
        match ev {
            Event::Advance(_) => {}
            Event::Enter(r) => self.push_words([hdr(ET_ENTER, r.0), 0, 0], 1),
            Event::Exit(r) => self.push_words([hdr(ET_EXIT, r.0), 0, 0], 1),
            Event::CreateBegin {
                create,
                task_region,
                id,
            } => self.push_words(
                [
                    hdr(ET_CREATE_BEGIN, create.0),
                    u64::from(task_region.0),
                    id.get(),
                ],
                3,
            ),
            Event::CreateEnd { create, id } => {
                self.push_words([hdr(ET_CREATE_END, create.0), id.get(), 0], 2)
            }
            Event::TaskBegin { region, id } => {
                self.push_words([hdr(ET_TASK_BEGIN, region.0), id.get(), 0], 2)
            }
            Event::TaskEnd { region, id } => {
                self.push_words([hdr(ET_TASK_END, region.0), id.get(), 0], 2)
            }
            Event::TaskAbort { region, id } => {
                self.push_words([hdr(ET_TASK_ABORT, region.0), id.get(), 0], 2)
            }
            Event::Switch(TaskRef::Implicit) => {
                self.push_words([hdr(ET_SWITCH_IMPLICIT, 0), 0, 0], 1)
            }
            Event::Switch(TaskRef::Explicit(id)) => {
                self.push_words([hdr(ET_SWITCH_EXPLICIT, 0), id.get(), 0], 2)
            }
            Event::ParamBegin { param, value } => {
                self.push_words([hdr(ET_PARAM_BEGIN, param.0), value as u64, 0], 2)
            }
            Event::ParamEnd { param } => self.push_words([hdr(ET_PARAM_END, param.0), 0, 0], 1),
        }
    }

    /// Seal thread `tid`'s log at thread-end timestamp `t`: the packed
    /// words plus the final span, ready for off-path decoding.
    fn finish(self, tid: usize, t: u64) -> PackedEdgeStream {
        PackedEdgeStream {
            tid,
            end: t,
            log: self,
        }
    }
}

/// A sealed [`EdgeLog`]: the packed word buffer plus the thread-end
/// timestamp, published through the handoff stack and decoded lazily.
struct PackedEdgeStream {
    tid: usize,
    end: u64,
    log: EdgeLog,
}

impl PackedEdgeStream {
    /// Decode the packed log into the replayable event stream, with a
    /// trailing `Advance` up to the thread-end timestamp.
    fn decode(self) -> EdgeStream {
        let EdgeLog {
            last,
            words,
            instance,
            start,
        } = self.log;
        let task_id = |w: u64| TaskId::from_raw(w).expect("recorded task ids are nonzero");
        let mut out = Vec::with_capacity(words.len());
        let mut i = 0;
        while i < words.len() {
            let w = words[i];
            i += 1;
            let tag = w & 0xF;
            if tag == ET_LONG_ADVANCE {
                out.push(Event::Advance(w >> 4));
                continue;
            }
            let d = (w >> 4) & 0xFF_FFFF;
            if d > 0 {
                out.push(Event::Advance(d));
            }
            let a = ((w >> 28) & 0xFFFF_FFFF) as u32;
            let mut extra = || {
                let w = words[i];
                i += 1;
                w
            };
            out.push(match tag {
                ET_ENTER => Event::Enter(RegionId(a)),
                ET_EXIT => Event::Exit(RegionId(a)),
                ET_CREATE_BEGIN => Event::CreateBegin {
                    create: RegionId(a),
                    task_region: RegionId(extra() as u32),
                    id: task_id(extra()),
                },
                ET_CREATE_END => Event::CreateEnd {
                    create: RegionId(a),
                    id: task_id(extra()),
                },
                ET_TASK_BEGIN => Event::TaskBegin {
                    region: RegionId(a),
                    id: task_id(extra()),
                },
                ET_TASK_END => Event::TaskEnd {
                    region: RegionId(a),
                    id: task_id(extra()),
                },
                ET_TASK_ABORT => Event::TaskAbort {
                    region: RegionId(a),
                    id: task_id(extra()),
                },
                ET_SWITCH_IMPLICIT => Event::Switch(TaskRef::Implicit),
                ET_SWITCH_EXPLICIT => Event::Switch(TaskRef::Explicit(task_id(extra()))),
                ET_PARAM_BEGIN => Event::ParamBegin {
                    param: ParamId(a),
                    value: extra() as i64,
                },
                ET_PARAM_END => Event::ParamEnd { param: ParamId(a) },
                _ => unreachable!("unknown edge-record tag {tag}"),
            });
        }
        if self.end > last {
            out.push(Event::Advance(self.end - last));
        }
        EdgeStream {
            instance,
            tid: self.tid,
            start,
            events: out,
        }
    }
}

/// Builder for [`ProfMonitor`]: collect every setting, validate once in
/// [`ProfMonitorBuilder::build`].
///
/// ```
/// use taskprof::{AssignPolicy, ProfMonitor};
/// let monitor = ProfMonitor::builder()
///     .policy(AssignPolicy::Executing)
///     .max_depth(32)
///     .build()
///     .unwrap();
/// # let _ = monitor;
/// ```
#[derive(Debug)]
pub struct ProfMonitorBuilder<C: ClockSource = MonotonicClock> {
    clock: C,
    policy: AssignPolicy,
    max_depth: Option<usize>,
    max_live_trees: Option<usize>,
    prealloc_nodes: usize,
    telemetry: Option<TelemetryConfig>,
    record_edges: bool,
}

impl Default for ProfMonitorBuilder<MonotonicClock> {
    fn default() -> Self {
        Self {
            clock: MonotonicClock::new(),
            policy: AssignPolicy::Executing,
            max_depth: None,
            max_live_trees: None,
            prealloc_nodes: DEFAULT_PREALLOC_NODES,
            telemetry: None,
            record_edges: false,
        }
    }
}

impl ProfMonitorBuilder<MonotonicClock> {
    /// Builder with the real monotonic clock, executing-node attribution,
    /// and no limits.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<C: ClockSource> ProfMonitorBuilder<C> {
    /// Measure with `clock` instead of the real monotonic clock (virtual
    /// clocks for deterministic tests).
    pub fn clock<C2: ClockSource>(self, clock: C2) -> ProfMonitorBuilder<C2> {
        ProfMonitorBuilder {
            clock,
            policy: self.policy,
            max_depth: self.max_depth,
            max_live_trees: self.max_live_trees,
            prealloc_nodes: self.prealloc_nodes,
            telemetry: self.telemetry,
            record_edges: self.record_edges,
        }
    }

    /// Attribution policy (default [`AssignPolicy::Executing`], the
    /// paper's recommendation).
    pub fn policy(mut self, policy: AssignPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Limit call-path depth per task body (Score-P's depth limit —
    /// collapses deeper frames into `<truncated>` nodes). Must be ≥ 1.
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.max_depth = Some(depth);
        self
    }

    /// Overload shedding: cap the number of concurrently live instance
    /// trees per thread; instances begun beyond the cap degrade to
    /// counting-only, and the shed count appears in the profile. Must be
    /// ≥ 1.
    pub fn max_live_trees(mut self, cap: usize) -> Self {
        self.max_live_trees = Some(cap);
        self
    }

    /// Arena slots preallocated per thread shard (default
    /// [`DEFAULT_PREALLOC_NODES`]). `0` disables preallocation.
    pub fn prealloc_nodes(mut self, nodes: usize) -> Self {
        self.prealloc_nodes = nodes;
        self
    }

    /// Enable live telemetry with default settings (lock-free shard
    /// gauges, 1-in-256 perturbation sampling). See
    /// [`ProfMonitor::telemetry_core`] for reading it.
    pub fn telemetry(self) -> Self {
        self.telemetry_config(TelemetryConfig::default())
    }

    /// Enable live telemetry with an explicit configuration.
    pub fn telemetry_config(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = Some(config);
        self
    }

    /// Record the task create/join edge stream alongside the profile, for
    /// critical-path (work/span) analysis. Each hook appends one
    /// differential [`Event`] to a thread-private buffer — no extra clock
    /// read, no synchronization until the thread ends. Off by default:
    /// when off, the only cost is one never-taken branch per hook. Drain
    /// with [`ProfMonitor::take_edge_streams`].
    pub fn record_task_edges(mut self) -> Self {
        self.record_edges = true;
        self
    }

    /// Validate every setting and construct the monitor.
    pub fn build(self) -> Result<ProfMonitor<C>, ConfigError> {
        if self.max_depth == Some(0) {
            return Err(ConfigError::InvalidValue {
                setting: "max_depth",
                value: 0,
                reason: "a depth limit of 0 would truncate the parallel-region root itself",
            });
        }
        if self.max_live_trees == Some(0) {
            return Err(ConfigError::InvalidValue {
                setting: "max_live_trees",
                value: 0,
                reason: "a live-tree cap of 0 would shed every task instance",
            });
        }
        if let Some(cfg) = &self.telemetry {
            if cfg.sample_every == 0 {
                return Err(ConfigError::InvalidValue {
                    setting: "telemetry.sample_every",
                    value: 0,
                    reason: "the perturbation sampling period must be at least 1",
                });
            }
        }
        Ok(ProfMonitor {
            inner: Arc::new(Inner {
                clock: self.clock,
                policy: self.policy,
                max_depth: self.max_depth,
                max_live_trees: self.max_live_trees,
                prealloc_nodes: self.prealloc_nodes,
                collected: HandoffStack::new(),
                spare_arenas: HandoffStack::new(),
                live_threads: AtomicUsize::new(0),
                live_regions: AtomicUsize::new(0),
                regions_forked: AtomicU64::new(0),
                telemetry: self
                    .telemetry
                    .map(|cfg| Arc::new(TelemetryCore::new(cfg))),
                record_edges: self.record_edges,
                edge_streams: HandoffStack::new(),
            }),
        })
    }
}

/// Profiling monitor: one per measurement session.
pub struct ProfMonitor<C: ClockSource = MonotonicClock> {
    inner: Arc<Inner<C>>,
}

impl<C: ClockSource> std::fmt::Debug for ProfMonitor<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfMonitor")
            .field("policy", &self.inner.policy)
            .field("max_depth", &self.inner.max_depth)
            .field("max_live_trees", &self.inner.max_live_trees)
            .field("prealloc_nodes", &self.inner.prealloc_nodes)
            .field(
                "live_threads",
                &self.inner.live_threads.load(Ordering::Relaxed),
            )
            .field(
                "live_regions",
                &self.inner.live_regions.load(Ordering::Relaxed),
            )
            .finish_non_exhaustive()
    }
}

impl Default for ProfMonitor<MonotonicClock> {
    fn default() -> Self {
        Self::new()
    }
}

impl ProfMonitor<MonotonicClock> {
    /// Monitor with the real monotonic clock and the paper's
    /// executing-node attribution. Use [`ProfMonitor::builder`] for
    /// anything configurable.
    pub fn new() -> Self {
        ProfMonitorBuilder::new()
            .build()
            .expect("default configuration is valid")
    }

    /// Builder with defaults (real clock, executing attribution).
    pub fn builder() -> ProfMonitorBuilder<MonotonicClock> {
        ProfMonitorBuilder::new()
    }
}

impl<C: ClockSource> ProfMonitor<C> {
    /// The monitor's clock (e.g. to advance a shared
    /// [`pomp::VirtualClock`] from a test driver).
    pub fn clock(&self) -> &C {
        &self.inner.clock
    }

    /// The attribution policy in effect.
    pub fn policy(&self) -> AssignPolicy {
        self.inner.policy
    }

    /// The live telemetry counters, when enabled via
    /// [`ProfMonitorBuilder::telemetry`]. Cheap to clone and safe to poll
    /// from any thread at any time, including mid-measurement.
    pub fn telemetry_core(&self) -> Option<Arc<TelemetryCore>> {
        self.inner.telemetry.clone()
    }

    /// Drain the snapshots collected since the last call, as one profile
    /// sorted by thread id. Call after the parallel region(s) complete;
    /// while threads are still measuring, the profile would be half-merged,
    /// so a [`SessionActiveError`] is returned instead.
    pub fn take_profile(&self) -> Result<Profile, SessionActiveError> {
        let live_threads = self.inner.live_threads.load(Ordering::Acquire);
        let live_regions = self.inner.live_regions.load(Ordering::Acquire);
        if live_threads > 0 || live_regions > 0 {
            return Err(SessionActiveError {
                live_threads,
                live_regions,
            });
        }
        let mut threads = self.inner.collected.take_all();
        threads.sort_by_key(|t| t.tid);
        if let Some(tc) = &self.inner.telemetry {
            tc.note_snapshots_collected(threads.len() as u64);
        }
        Ok(Profile { threads })
    }

    /// Whether the task create/join edge stream is being recorded.
    pub fn records_task_edges(&self) -> bool {
        self.inner.record_edges
    }

    /// Drain the edge streams recorded since the last call, sorted by
    /// region instance, then thread id. Empty unless the monitor was
    /// built with [`ProfMonitorBuilder::record_task_edges`]. Like
    /// [`ProfMonitor::take_profile`], draining mid-measurement would hand
    /// back a torn run, so it is the same typed error.
    pub fn take_edge_streams(&self) -> Result<Vec<EdgeStream>, SessionActiveError> {
        let live_threads = self.inner.live_threads.load(Ordering::Acquire);
        let live_regions = self.inner.live_regions.load(Ordering::Acquire);
        if live_threads > 0 || live_regions > 0 {
            return Err(SessionActiveError {
                live_threads,
                live_regions,
            });
        }
        let mut streams: Vec<EdgeStream> = self
            .inner
            .edge_streams
            .take_all()
            .into_iter()
            .map(PackedEdgeStream::decode)
            .collect();
        streams.sort_by_key(|s| (s.instance, s.tid));
        Ok(streams)
    }
}

/// Per-thread profiling shard (owned by exactly one runtime thread): the
/// cached clock reader plus the thread's private profile. Every
/// [`ThreadHooks`] event runs entirely on this struct — no locks, no
/// shared-state dereference.
pub struct ProfThread<C: ClockSource> {
    reader: C::Reader,
    /// Team-local thread id this hook set belongs to.
    pub tid: usize,
    // SAFETY invariant: only the owning thread touches `prof`, exactly one
    // hook at a time. `UnsafeCell` keeps the type `!Sync`, the runtime
    // hands each `ProfThread` to a single worker, and no `ThreadProfile`
    // method calls back into the hooks — so the `&mut` in `prof()` is
    // never aliased. This removes the `RefCell` borrow-flag check from
    // the per-event fast path.
    prof: UnsafeCell<ThreadProfile>,
    /// Telemetry write handle when enabled: relaxed stores onto the
    /// thread's own padded slot, so the steady-state path stays lock-free.
    telem: Option<ThreadTelemetry>,
    // SAFETY invariant: identical to `prof` — single-owner, one hook at a
    // time, no reentrancy.
    edges: Option<UnsafeCell<EdgeLog>>,
}

impl<C: ClockSource> ProfThread<C> {
    #[inline]
    fn now(&self) -> u64 {
        self.reader.now()
    }

    /// Exclusive access to the shard's profile (see the field invariant).
    #[expect(clippy::mut_from_ref)]
    #[inline]
    fn prof(&self) -> &mut ThreadProfile {
        // SAFETY: single-owner, non-reentrant access per the field's
        // documented invariant; `UnsafeCell` makes the type `!Sync`.
        unsafe { &mut *self.prof.get() }
    }

    /// Append to the edge transcript when recording is on: one branch,
    /// then a plain `Vec` push reusing the timestamp the hook already
    /// read.
    #[inline]
    fn edge(&self, t: u64, ev: Event) {
        if let Some(cell) = &self.edges {
            // SAFETY: single-owner, non-reentrant access per the field's
            // documented invariant; `UnsafeCell` makes the type `!Sync`.
            unsafe { &mut *cell.get() }.emit(t, ev);
        }
    }

    /// Telemetry tail for hooks without task-lifecycle side effects:
    /// count the event and, for the 1-in-N elected events, read the clock
    /// once more to self-time the profiling work that just ran
    /// (perturbation accounting). One never-taken branch when telemetry
    /// is off.
    #[inline]
    fn telem_tail(&self, class: EventClass, t0: u64) {
        if let Some(tm) = &self.telem {
            if tm.tick(class) {
                tm.record_cost(class, self.now().saturating_sub(t0));
            }
        }
    }

    /// After a task-lifecycle transition: publish the shard's live-tree
    /// gauge and track whether the thread is inside an explicit-task
    /// fragment at time `t`.
    #[inline]
    fn telem_task_state(tm: &ThreadTelemetry, prof: &ThreadProfile, t: u64) {
        tm.update_live(prof.live_instance_trees() as u64);
        match prof.current_task() {
            TaskRef::Explicit(_) => tm.fragment_begin(t),
            TaskRef::Implicit => tm.fragment_end(t),
        }
    }
}

impl<C: ClockSource + 'static> Monitor for ProfMonitor<C> {
    type Thread = ProfThread<C>;

    fn parallel_fork(&self, _region: RegionId, _nthreads: usize) {
        self.inner.live_regions.fetch_add(1, Ordering::AcqRel);
        // Relaxed: the count publishes no other data, and the runtime
        // starts the region's threads after the fork returns.
        self.inner.regions_forked.fetch_add(1, Ordering::Relaxed);
    }

    fn parallel_join(&self, _region: RegionId) {
        self.inner.live_regions.fetch_sub(1, Ordering::AcqRel);
    }

    fn thread_begin(&self, tid: usize, _nthreads: usize, region: RegionId) -> ProfThread<C> {
        self.inner.live_threads.fetch_add(1, Ordering::AcqRel);
        // Steal a recycled arena from an earlier region if one is spare;
        // otherwise preallocate. Either way the event path that follows
        // does not allocate until the preallocation is exhausted.
        let (arena, recycled) = match self.inner.spare_arenas.steal_one() {
            Some(a) => (a, true),
            None => (Arena::with_capacity(self.inner.prealloc_nodes), false),
        };
        let telem = self.inner.telemetry.as_ref().map(|tc| {
            if recycled {
                tc.note_arena_recycled();
            } else {
                tc.note_arena_allocated();
            }
            tc.thread_handle(tid)
        });
        let reader = self.inner.clock.thread_reader();
        let t = reader.now();
        let mut prof = ThreadProfile::new_in(arena, region, t, self.inner.policy);
        prof.set_max_depth(self.inner.max_depth);
        prof.set_max_live_trees(self.inner.max_live_trees);
        ProfThread {
            reader,
            tid,
            prof: UnsafeCell::new(prof),
            telem,
            edges: self.inner.record_edges.then(|| {
                let instance = self.inner.regions_forked.load(Ordering::Relaxed);
                UnsafeCell::new(EdgeLog::new(instance, t))
            }),
        }
    }

    fn thread_end(&self, tid: usize, thread: ProfThread<C>) {
        let t = thread.reader.now();
        let mut prof = thread.prof.into_inner();
        prof.finish(t);
        if let Some(cell) = thread.edges {
            self.inner.edge_streams.push(cell.into_inner().finish(tid, t));
        }
        // Lock-free hand-off: one CAS publishes the snapshot, one more
        // returns the arena to the spare pool.
        self.inner.collected.push(prof.snapshot(tid));
        self.inner.spare_arenas.push(prof.into_arena());
        if let Some(tm) = &thread.telem {
            tm.thread_end(t);
            tm.core().note_snapshot_published();
            tm.core().note_arena_returned();
        }
        self.inner.live_threads.fetch_sub(1, Ordering::AcqRel);
    }
}

impl<C: ClockSource> ThreadHooks for ProfThread<C> {
    #[inline]
    fn enter(&self, region: RegionId) {
        let t = self.now();
        self.prof().enter(region, t);
        self.edge(t, Event::Enter(region));
        self.telem_tail(EventClass::Enter, t);
    }

    #[inline]
    fn exit(&self, region: RegionId) {
        let t = self.now();
        self.prof().exit(region, t);
        self.edge(t, Event::Exit(region));
        self.telem_tail(EventClass::Exit, t);
    }

    #[inline]
    fn task_create_begin(&self, create_region: RegionId, task_region: RegionId, new_task: TaskId) {
        let t = self.now();
        self.prof()
            .task_create_begin(create_region, task_region, new_task, t);
        self.edge(
            t,
            Event::CreateBegin {
                create: create_region,
                task_region,
                id: new_task,
            },
        );
        if let Some(tm) = &self.telem {
            tm.task_created();
        }
        self.telem_tail(EventClass::TaskCreate, t);
    }

    #[inline]
    fn task_create_end(&self, create_region: RegionId, new_task: TaskId) {
        let t = self.now();
        self.prof()
            .task_create_end(create_region, new_task, t);
        self.edge(
            t,
            Event::CreateEnd {
                create: create_region,
                id: new_task,
            },
        );
        self.telem_tail(EventClass::TaskCreate, t);
    }

    #[inline]
    fn task_begin(&self, task_region: RegionId, task: TaskId) {
        let t = self.now();
        let prof = self.prof();
        if let Some(tm) = &self.telem {
            // Shedding is decided inside `task_begin`; observe it as the
            // delta of the profile's shed counter.
            let shed_before = prof.shed_instances();
            prof.task_begin(task_region, task, t);
            if prof.shed_instances() > shed_before {
                tm.task_shed();
            }
            Self::telem_task_state(tm, prof, t);
        } else {
            prof.task_begin(task_region, task, t);
        }
        self.edge(
            t,
            Event::TaskBegin {
                region: task_region,
                id: task,
            },
        );
        self.telem_tail(EventClass::TaskBegin, t);
    }

    #[inline]
    fn task_end(&self, task_region: RegionId, task: TaskId) {
        let t = self.now();
        let prof = self.prof();
        prof.task_end(task_region, task, t);
        self.edge(
            t,
            Event::TaskEnd {
                region: task_region,
                id: task,
            },
        );
        if let Some(tm) = &self.telem {
            tm.task_completed();
            Self::telem_task_state(tm, prof, t);
        }
        self.telem_tail(EventClass::TaskEnd, t);
    }

    #[inline]
    fn task_abort(&self, task_region: RegionId, task: TaskId) {
        let t = self.now();
        let prof = self.prof();
        prof.task_abort(task_region, task, t);
        self.edge(
            t,
            Event::TaskAbort {
                region: task_region,
                id: task,
            },
        );
        if let Some(tm) = &self.telem {
            tm.task_aborted();
            Self::telem_task_state(tm, prof, t);
        }
        self.telem_tail(EventClass::TaskAbort, t);
    }

    #[inline]
    fn task_switch(&self, resumed: TaskRef) {
        let t = self.now();
        let prof = self.prof();
        let prev = prof.current_task();
        prof.task_switch(resumed, t);
        if prev != resumed {
            self.edge(t, Event::Switch(resumed));
        }
        if let Some(tm) = &self.telem {
            // A redundant switch (already current) is a profiler no-op and
            // must not be counted as a fragment resumption.
            if prev != resumed {
                Self::telem_task_state(tm, prof, t);
            }
        }
        self.telem_tail(EventClass::TaskSwitch, t);
    }

    #[inline]
    fn parameter_begin(&self, param: ParamId, value: i64) {
        let t = self.now();
        self.prof().parameter_begin(param, value, t);
        self.edge(t, Event::ParamBegin { param, value });
        self.telem_tail(EventClass::Param, t);
    }

    #[inline]
    fn parameter_end(&self, param: ParamId) {
        let t = self.now();
        self.prof().parameter_end(param, t);
        self.edge(t, Event::ParamEnd { param });
        self.telem_tail(EventClass::Param, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::NodeKind;
    use pomp::{TaskIdAllocator, VirtualClock};

    fn virtual_monitor() -> (VirtualClock, ProfMonitor<VirtualClock>) {
        let clock = VirtualClock::new();
        let m = ProfMonitor::builder()
            .clock(clock.clone())
            .build()
            .unwrap();
        (clock, m)
    }

    #[test]
    fn monitor_collects_per_thread_snapshots() {
        let (clock, m) = virtual_monitor();
        let par = RegionId(0);
        let work = RegionId(1);
        m.parallel_fork(par, 2);
        let t0 = m.thread_begin(0, 2, par);
        let t1 = m.thread_begin(1, 2, par);
        clock.set(10);
        t0.enter(work);
        clock.set(15);
        t0.exit(work);
        m.thread_end(0, t0);
        clock.set(20);
        m.thread_end(1, t1);
        m.parallel_join(par);

        let p = m.take_profile().unwrap();
        assert_eq!(p.num_threads(), 2);
        assert_eq!(p.threads[0].tid, 0);
        let w = p.threads[0].main.child(NodeKind::Region(work)).unwrap();
        assert_eq!(w.stats.sum_ns, 5);
        assert_eq!(p.threads[1].main.stats.sum_ns, 20);
        // Drained: second take is empty.
        assert_eq!(m.take_profile().unwrap().num_threads(), 0);
    }

    #[test]
    fn monitor_profiles_task_events_with_virtual_time() {
        let (clock, m) = virtual_monitor();
        let ids = TaskIdAllocator::new();
        let (par, task, barrier) = (RegionId(0), RegionId(1), RegionId(2));
        let th = m.thread_begin(0, 1, par);
        let id = ids.alloc();
        clock.set(10);
        th.enter(barrier);
        th.task_begin(task, id);
        clock.set(35);
        th.task_end(task, id);
        clock.set(40);
        th.exit(barrier);
        m.thread_end(0, th);
        let p = m.take_profile().unwrap();
        let snap = &p.threads[0];
        assert_eq!(snap.task_tree(task).unwrap().stats.sum_ns, 25);
        let b = snap.main.child(NodeKind::Region(barrier)).unwrap();
        assert_eq!(b.stats.sum_ns, 30);
        assert_eq!(b.child(NodeKind::Stub(task)).unwrap().stats.sum_ns, 25);
    }

    #[test]
    fn take_profile_sorts_by_tid() {
        let (_clock, m) = virtual_monitor();
        let par = RegionId(0);
        let a = m.thread_begin(3, 4, par);
        let b = m.thread_begin(1, 4, par);
        m.thread_end(3, a);
        m.thread_end(1, b);
        let p = m.take_profile().unwrap();
        assert_eq!(p.threads.iter().map(|t| t.tid).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn take_profile_mid_region_is_a_typed_error() {
        let (_clock, m) = virtual_monitor();
        let par = RegionId(0);
        m.parallel_fork(par, 1);
        let th = m.thread_begin(0, 1, par);
        let err = m.take_profile().unwrap_err();
        assert_eq!(err.live_threads, 1);
        assert_eq!(err.live_regions, 1);
        assert!(err.to_string().contains("mid-measurement"), "{err}");
        m.thread_end(0, th);
        let err = m.take_profile().unwrap_err();
        assert_eq!((err.live_threads, err.live_regions), (0, 1));
        m.parallel_join(par);
        assert_eq!(m.take_profile().unwrap().num_threads(), 1);
    }

    #[test]
    fn edge_recording_captures_differential_stream() {
        let clock = VirtualClock::new();
        let m = ProfMonitor::builder()
            .clock(clock.clone())
            .record_task_edges()
            .build()
            .unwrap();
        assert!(m.records_task_edges());
        let ids = TaskIdAllocator::new();
        let (par, task, create) = (RegionId(0), RegionId(1), RegionId(2));
        let id = ids.alloc();
        m.parallel_fork(par, 1);
        let th = m.thread_begin(0, 1, par);
        clock.set(10);
        th.task_create_begin(create, task, id);
        clock.set(14);
        th.task_create_end(create, id);
        th.task_begin(task, id);
        clock.set(20);
        th.task_end(task, id);
        // Mid-measurement drain is refused, like take_profile.
        assert!(m.take_edge_streams().is_err());
        clock.set(23);
        m.thread_end(0, th);
        m.parallel_join(par);
        let streams = m.take_edge_streams().unwrap();
        assert_eq!(streams.len(), 1);
        let EdgeStream {
            instance,
            tid,
            start,
            events,
        } = &streams[0];
        assert_eq!((*instance, *tid, *start), (1, 0, 0));
        assert_eq!(
            events.as_slice(),
            &[
                Event::Advance(10),
                Event::CreateBegin {
                    create,
                    task_region: task,
                    id
                },
                Event::Advance(4),
                Event::CreateEnd { create, id },
                Event::TaskBegin { region: task, id },
                Event::Advance(6),
                Event::TaskEnd { region: task, id },
                Event::Advance(3),
            ]
        );
        // Drained: second take is empty, and the profile still collected.
        assert!(m.take_edge_streams().unwrap().is_empty());
        assert_eq!(m.take_profile().unwrap().num_threads(), 1);
    }

    #[test]
    fn edge_log_decodes_idle_threads_long_gaps_and_negative_params() {
        let clock = VirtualClock::new();
        let m = ProfMonitor::builder()
            .clock(clock.clone())
            .record_task_edges()
            .build()
            .unwrap();
        let (par, param) = (RegionId(0), ParamId(3));
        // Region 1: a thread that begins at 100 and runs no hooks.
        clock.set(100);
        m.parallel_fork(par, 2);
        let idle = m.thread_begin(1, 2, par);
        clock.set(107);
        m.thread_end(1, idle);
        m.parallel_join(par);
        // Region 2: a gap of 2^24 ns (too wide for a record header) and
        // a negative parameter value.
        m.parallel_fork(par, 1);
        let th = m.thread_begin(0, 1, par);
        clock.set(107 + (1 << 24));
        th.parameter_begin(param, -42);
        th.parameter_end(param);
        m.thread_end(0, th);
        m.parallel_join(par);
        let streams = m.take_edge_streams().unwrap();
        assert_eq!(
            streams,
            vec![
                EdgeStream {
                    instance: 1,
                    tid: 1,
                    start: 100,
                    events: vec![Event::Advance(7)],
                },
                EdgeStream {
                    instance: 2,
                    tid: 0,
                    start: 107,
                    events: vec![
                        Event::Advance(1 << 24),
                        Event::ParamBegin { param, value: -42 },
                        Event::ParamEnd { param },
                    ],
                },
            ]
        );
    }

    #[test]
    fn edge_recording_off_publishes_nothing() {
        let (clock, m) = virtual_monitor();
        assert!(!m.records_task_edges());
        let th = m.thread_begin(0, 1, RegionId(0));
        clock.set(5);
        th.enter(RegionId(1));
        th.exit(RegionId(1));
        m.thread_end(0, th);
        assert!(m.take_edge_streams().unwrap().is_empty());
    }

    #[test]
    fn builder_validates_once() {
        let err = ProfMonitor::builder().max_depth(0).build().unwrap_err();
        assert_eq!(err.setting(), "max_depth");
        assert!(matches!(err, ConfigError::InvalidValue { value: 0, .. }));
        let err = ProfMonitor::builder().max_live_trees(0).build().unwrap_err();
        assert_eq!(err.setting(), "max_live_trees");
        assert!(err.to_string().contains("max_live_trees"), "{err}");
        assert!(ProfMonitor::builder()
            .max_depth(1)
            .max_live_trees(1)
            .prealloc_nodes(0)
            .build()
            .is_ok());
    }

    #[test]
    fn arenas_recycle_across_regions() {
        let (clock, m) = virtual_monitor();
        let par = RegionId(0);
        let work = RegionId(1);
        for round in 0..3u64 {
            m.parallel_fork(par, 1);
            let th = m.thread_begin(0, 1, par);
            clock.set(round * 100 + 10);
            th.enter(work);
            clock.set(round * 100 + 20);
            th.exit(work);
            m.thread_end(0, th);
            m.parallel_join(par);
        }
        // Exactly one thread ran each region, so exactly one arena
        // circulates through the spare pool.
        assert!(!m.inner.spare_arenas.is_empty());
        let spares = m.inner.spare_arenas.take_all();
        assert_eq!(spares.len(), 1, "one arena recycled, not re-allocated");
        let p = m.take_profile().unwrap();
        assert_eq!(p.num_threads(), 3, "three rounds collected");
    }

    #[test]
    fn shard_merge_preserves_thread_order_at_barrier() {
        // Threads finish in arbitrary (here: reverse) order; the merged
        // profile is still ordered by tid with every shard present.
        let (clock, m) = virtual_monitor();
        let par = RegionId(0);
        m.parallel_fork(par, 4);
        let shards: Vec<_> = (0..4).map(|tid| m.thread_begin(tid, 4, par)).collect();
        clock.set(50);
        for (tid, shard) in shards.into_iter().enumerate().rev() {
            m.thread_end(tid, shard);
        }
        m.parallel_join(par);
        let p = m.take_profile().unwrap();
        assert_eq!(
            p.threads.iter().map(|t| t.tid).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }
}
