//! `taskprof-session` — one composable entry point for measurement.
//!
//! A [`MeasurementSession`] bundles everything a profiled run needs — the
//! thread team, the parallel construct, and the monitor stack — behind a
//! builder:
//!
//! ```
//! use taskprof_session::MeasurementSession;
//!
//! let session = MeasurementSession::builder("demo")
//!     .threads(2)
//!     .build()
//!     .unwrap()
//!     .validated();
//! session.run(|_ctx| { /* spawn tasks */ });
//! let report = session.finish();
//! assert_eq!(report.profile.num_threads(), 2);
//! assert!(report.is_clean());
//! ```
//!
//! The monitor stack is assembled *statically*: each combinator
//! ([`MeasurementSession::validated`], [`MeasurementSession::counted`],
//! [`MeasurementSession::filtered`]) changes the session's monitor
//! **type**, so the per-event path
//! monomorphizes — the compiler sees the concrete
//! `ValidatingThread<CountingThread<ProfThread<…>>>` chain and inlines it;
//! there is no `dyn Monitor` dispatch anywhere on the hot path. The
//! [`ProfStack`] trait is how a wrapped stack is walked back down to the
//! sharded [`ProfMonitor`] at [`MeasurementSession::finish`].

#![warn(missing_docs)]

use pomp::{
    ClockSource, CountingMonitor, Diagnostic, EventCounts, FilteredMonitor, Monitor,
    MonotonicClock, RegionFilter, ValidatingMonitor,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use taskprof::{AssignPolicy, ConfigError, EdgeStream, ProfMonitor, ProfMonitorBuilder, Profile};
use taskprof_telemetry::{Sampler, TelemetryConfig, TelemetryCore, TelemetrySnapshot};
use taskrt::{ParallelConstruct, ParallelOutcome, TaskCtx, Team};

/// A monitor stack whose innermost layer is the sharded [`ProfMonitor`].
///
/// Implemented by `ProfMonitor` itself and by every wrapper the session
/// combinators produce, so [`MeasurementSession::finish`] can reach the
/// profiler (for the profile) and every validating layer (for
/// diagnostics) regardless of how the stack was composed.
pub trait ProfStack: Monitor {
    /// The clock the innermost profiler measures with.
    type Clock: ClockSource + 'static;

    /// The innermost profiling monitor.
    fn profiler(&self) -> &ProfMonitor<Self::Clock>;

    /// Drain the structured diagnostics of every validating layer in the
    /// stack into `into` (outermost first).
    fn drain_diagnostics(&self, into: &mut Vec<Diagnostic>);
}

impl<C: ClockSource + 'static> ProfStack for ProfMonitor<C> {
    type Clock = C;

    fn profiler(&self) -> &ProfMonitor<C> {
        self
    }

    fn drain_diagnostics(&self, _into: &mut Vec<Diagnostic>) {}
}

impl<M: ProfStack> ProfStack for ValidatingMonitor<M> {
    type Clock = M::Clock;

    fn profiler(&self) -> &ProfMonitor<M::Clock> {
        self.inner().profiler()
    }

    fn drain_diagnostics(&self, into: &mut Vec<Diagnostic>) {
        into.extend(self.take_diagnostics());
        self.inner().drain_diagnostics(into);
    }
}

impl<M: ProfStack> ProfStack for FilteredMonitor<M> {
    type Clock = M::Clock;

    fn profiler(&self) -> &ProfMonitor<M::Clock> {
        self.inner().profiler()
    }

    fn drain_diagnostics(&self, into: &mut Vec<Diagnostic>) {
        self.inner().drain_diagnostics(into);
    }
}

/// A side observer (e.g. the event counter) paired with a profiling stack:
/// the stack lives in the second slot, mirroring `(&observer, &stack)`
/// pair-monitor usage.
impl<A: Monitor, B: ProfStack> ProfStack for (A, B) {
    type Clock = B::Clock;

    fn profiler(&self) -> &ProfMonitor<B::Clock> {
        self.1.profiler()
    }

    fn drain_diagnostics(&self, into: &mut Vec<Diagnostic>) {
        self.1.drain_diagnostics(into);
    }
}

impl<M: ProfStack> ProfStack for &M {
    type Clock = M::Clock;

    fn profiler(&self) -> &ProfMonitor<M::Clock> {
        (**self).profiler()
    }

    fn drain_diagnostics(&self, into: &mut Vec<Diagnostic>) {
        (**self).drain_diagnostics(into);
    }
}

/// A cheap, cloneable handle for polling a session's live telemetry from
/// any thread — including while [`MeasurementSession::run`] is executing
/// on others. Obtain one from [`MeasurementSession::telemetry`] after
/// enabling telemetry on the builder.
#[derive(Clone)]
pub struct SessionTelemetry {
    core: Arc<TelemetryCore>,
    started: Instant,
}

impl std::fmt::Debug for SessionTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionTelemetry")
            .field("elapsed_ns", &self.elapsed_ns())
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

impl SessionTelemetry {
    /// Aggregate the shard counters into one consistent-enough view (see
    /// the `taskprof-telemetry` crate docs for the staleness contract).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.core.snapshot()
    }

    /// Nanoseconds since this handle was created.
    pub fn elapsed_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// The configured perturbation sampling period (1-in-N).
    pub fn sample_every(&self) -> u32 {
        self.core.sample_every()
    }

    /// Current counters in the Prometheus text exposition format, ready
    /// to serve from a `/metrics` endpoint.
    pub fn prometheus(&self) -> String {
        taskprof_telemetry::to_prometheus(&self.snapshot())
    }

    /// Current counters as one JSON line, timestamped with
    /// [`SessionTelemetry::elapsed_ns`].
    pub fn jsonl_line(&self) -> String {
        taskprof_telemetry::to_jsonl_line(self.elapsed_ns(), &self.snapshot())
    }

    /// Spawn a background thread snapshotting every `every`; stop it with
    /// [`Sampler::stop`] to collect the series.
    pub fn start_sampler(&self, every: Duration) -> Sampler {
        Sampler::spawn(Arc::clone(&self.core), every)
    }

    /// The shared counter core (for integrations that outlive the
    /// session handle).
    pub fn core(&self) -> Arc<TelemetryCore> {
        Arc::clone(&self.core)
    }
}

pub mod export;

pub use export::{
    drain_spool, spool_profile, DrainReport, ExportError, ExportPolicy, ExportReceipt, ExportTarget,
};
pub use profserve::WireProtocol;

use export::{export_profile, ExportPlan};

/// Everything a finished session measured.
#[derive(Debug)]
pub struct SessionReport {
    /// The merged per-thread profile, sorted by thread id.
    pub profile: Profile,
    /// Structured diagnostics from every validating layer (empty for a
    /// clean event stream).
    pub diagnostics: Vec<Diagnostic>,
    /// Event counters, present when the session was
    /// [`MeasurementSession::counted`].
    pub counts: Option<CountingMonitor>,
    /// Final telemetry counters, present when the session was built with
    /// [`SessionBuilder::telemetry`].
    pub telemetry: Option<TelemetrySnapshot>,
    /// Outcome of the auto-export, present when the session was built with
    /// [`SessionBuilder::export_to`]. A failed export never fails the
    /// measurement — inspect this to find out.
    pub export: Option<Result<ExportReceipt, ExportError>>,
    /// Critical-path (work/span) analysis of the recorded create/join
    /// edges, present when the session was built with
    /// [`SessionBuilder::record_task_edges`].
    pub critpath: Option<critpath::CritPathReport>,
    /// The decoded edge streams the critical path was computed from, one
    /// per thread and region (e.g. for `taskprof_trace::Trace::from_edge_streams`);
    /// present when [`SessionReport::critpath`] is.
    pub edge_streams: Option<Vec<EdgeStream>>,
}

impl SessionReport {
    /// True when no validating layer recorded a defect.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The event counters (panics when the session was not `counted()`).
    pub fn counts(&self) -> &EventCounts {
        self.counts
            .as_ref()
            .expect("session was not counted(); no event counts recorded")
            .counts()
    }

    /// The critical-path analysis (panics when the session was not built
    /// with [`SessionBuilder::record_task_edges`]).
    pub fn critpath(&self) -> &critpath::CritPathReport {
        self.critpath
            .as_ref()
            .expect("session was not built with record_task_edges(); no edges recorded")
    }
}

/// A measurement session: team + parallel construct + monitor stack.
///
/// Build one with [`MeasurementSession::builder`], optionally wrap the
/// stack with the combinators, [`MeasurementSession::run`] the parallel
/// region(s), then [`MeasurementSession::finish`] to obtain the
/// [`SessionReport`]. For workloads that drive their own `Team` (e.g.
/// `bots::run_app`), pass [`MeasurementSession::monitor`] as the monitor
/// and still `finish()` here.
pub struct MeasurementSession<M: ProfStack> {
    team: Team,
    construct: ParallelConstruct,
    monitor: M,
    counts: Option<CountingMonitor>,
    export: Option<ExportPlan>,
    sim_spawn_cost: Option<u64>,
}

impl<M: ProfStack> std::fmt::Debug for MeasurementSession<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeasurementSession")
            .field("threads", &self.team.nthreads())
            .field("counted", &self.counts.is_some())
            .field("profiler", self.monitor.profiler())
            .finish_non_exhaustive()
    }
}

/// Builder for a [`MeasurementSession`]: team shape + profiler settings,
/// validated once in [`SessionBuilder::build`].
pub struct SessionBuilder<C: ClockSource = MonotonicClock> {
    threads: usize,
    unrestricted_taskwait: bool,
    name: String,
    prof: ProfMonitorBuilder<C>,
    policy: Option<Arc<dyn taskrt::SchedulePolicy>>,
    export: Option<ExportTarget>,
    export_policy: ExportPolicy,
    /// Spawn cost the installed simulated scheduler charges per
    /// undeferred creation, so critical-path analysis can carve it back
    /// out of the creator's frame. `None` for real-clock sessions.
    sim_spawn_cost: Option<u64>,
}

impl SessionBuilder<MonotonicClock> {
    fn new(name: &str) -> Self {
        Self {
            threads: 2,
            unrestricted_taskwait: false,
            name: name.to_string(),
            prof: ProfMonitorBuilder::new(),
            policy: None,
            export: None,
            export_policy: ExportPolicy::default(),
            sim_spawn_cost: None,
        }
    }
}

impl<C: ClockSource + 'static> SessionBuilder<C> {
    /// Team size (default 2).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// ABLATION: drop the tied-task scheduling constraint at taskwaits
    /// (see [`Team::unrestricted_taskwait`]).
    pub fn unrestricted_taskwait(mut self) -> Self {
        self.unrestricted_taskwait = true;
        self
    }

    /// Measure with `clock` instead of the real monotonic clock.
    pub fn clock<C2: ClockSource + 'static>(self, clock: C2) -> SessionBuilder<C2> {
        SessionBuilder {
            threads: self.threads,
            unrestricted_taskwait: self.unrestricted_taskwait,
            name: self.name,
            prof: self.prof.clock(clock),
            policy: self.policy,
            export: self.export,
            export_policy: self.export_policy,
            sim_spawn_cost: self.sim_spawn_cost,
        }
    }

    /// Make the whole session deterministic: install a seeded
    /// [`simsched::SimScheduler`] as the team's scheduling policy and its
    /// per-thread virtual clocks as the measurement clock. Two sessions
    /// built with the same seed, threads, and workload produce
    /// byte-identical profiles — see the `simsched` crate for the full
    /// schedule-exploration machinery layered on top of this.
    pub fn deterministic(self, seed: u64) -> SessionBuilder<simsched::SimClock> {
        let sched = Arc::new(simsched::SimScheduler::new(seed));
        let clock = sched.clock().clone();
        let mut b = self.clock(clock);
        b.policy = Some(sched);
        b.sim_spawn_cost = Some(simsched::DEFAULT_SPAWN_COST_NS);
        b
    }

    /// Install an explicit [`taskrt::SchedulePolicy`] on the session's
    /// team (the deterministic scheduler shortcut is
    /// [`SessionBuilder::deterministic`]).
    pub fn schedule_policy(mut self, policy: Arc<dyn taskrt::SchedulePolicy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Attribution policy (default [`AssignPolicy::Executing`]).
    pub fn policy(mut self, policy: AssignPolicy) -> Self {
        self.prof = self.prof.policy(policy);
        self
    }

    /// Call-path depth limit per task body.
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.prof = self.prof.max_depth(depth);
        self
    }

    /// Overload-shedding cap on concurrently live instance trees.
    pub fn max_live_trees(mut self, cap: usize) -> Self {
        self.prof = self.prof.max_live_trees(cap);
        self
    }

    /// Arena slots preallocated per thread shard.
    pub fn prealloc_nodes(mut self, nodes: usize) -> Self {
        self.prof = self.prof.prealloc_nodes(nodes);
        self
    }

    /// Enable live telemetry with default settings: lock-free shard
    /// gauges and 1-in-256 perturbation sampling. Poll it with
    /// [`MeasurementSession::telemetry`].
    pub fn telemetry(mut self) -> Self {
        self.prof = self.prof.telemetry();
        self
    }

    /// Enable live telemetry with an explicit configuration.
    pub fn telemetry_config(mut self, config: TelemetryConfig) -> Self {
        self.prof = self.prof.telemetry_config(config);
        self
    }

    /// Record the task create/join edge stream alongside the profile and
    /// run critical-path (work/span) analysis on `finish()`: the report
    /// gains [`SessionReport::critpath`]. Off by default — when off, the
    /// hot path pays one never-taken branch per hook.
    pub fn record_task_edges(mut self) -> Self {
        self.prof = self.prof.record_task_edges();
        self
    }

    /// Auto-export the finished profile into a profile repository: a
    /// `profstore` directory path, or a `host:port` address of a running
    /// `profserve` daemon (a `&str` picks the right one — anything
    /// shaped like `host:port`, hostnames included, goes to the server).
    /// The session name becomes the benchmark key; the outcome lands in
    /// [`SessionReport::export`].
    pub fn export_to(mut self, target: impl Into<ExportTarget>) -> Self {
        self.export = Some(target.into());
        self
    }

    /// Replace the whole server-export [`ExportPolicy`] (deadlines,
    /// retry shape, spool fallback). Only affects
    /// [`ExportTarget::Server`]; directory exports are local appends.
    pub fn export_policy(mut self, policy: ExportPolicy) -> Self {
        self.export_policy = policy;
        self
    }

    /// Total wall-clock budget for the server export on `finish()`
    /// (connects, sends, retries, and backoff sleeps all included).
    pub fn export_deadline(mut self, deadline: Duration) -> Self {
        self.export_policy.deadline = deadline;
        self
    }

    /// Degrade to a local spool directory when the daemon stays
    /// unreachable past the export deadline: the profile lands in `dir`
    /// as a CRC-framed file instead of being dropped, and is delivered
    /// on the next successful export ([`drain_spool`] on success) or by
    /// `taskprof-cli drain`.
    pub fn export_spool(mut self, dir: impl Into<PathBuf>) -> Self {
        self.export_policy.spool_dir = Some(dir.into());
        self
    }

    /// Protocol for server exports: [`WireProtocol::Auto`] (the default)
    /// negotiates TPF1 binary frames and falls back to JSON lines;
    /// `Json`/`Binary` pin one. Only affects [`ExportTarget::Server`].
    pub fn export_protocol(mut self, proto: WireProtocol) -> Self {
        self.export_policy.wire_protocol = proto;
        self
    }

    /// Validate the configuration and assemble the session.
    pub fn build(self) -> Result<MeasurementSession<ProfMonitor<C>>, ConfigError> {
        let mut team = Team::new(self.threads);
        if self.unrestricted_taskwait {
            team = team.unrestricted_taskwait();
        }
        if let Some(policy) = self.policy {
            team = team.with_policy(policy);
        }
        let export = self.export.map(|target| ExportPlan {
            target,
            benchmark: self.name.clone(),
            threads: self.threads as u32,
            policy: self.export_policy.clone(),
        });
        Ok(MeasurementSession {
            team,
            construct: ParallelConstruct::new(&self.name),
            monitor: self.prof.build()?,
            counts: None,
            export,
            sim_spawn_cost: self.sim_spawn_cost,
        })
    }
}

impl MeasurementSession<ProfMonitor<MonotonicClock>> {
    /// Start configuring a session whose parallel construct is registered
    /// under `name`.
    pub fn builder(name: &str) -> SessionBuilder<MonotonicClock> {
        SessionBuilder::new(name)
    }
}

impl<M: ProfStack> MeasurementSession<M> {
    /// Assemble a session from parts — for callers that already own a
    /// monitor stack (the combinators are usually more convenient).
    pub fn from_parts(team: Team, construct: ParallelConstruct, monitor: M) -> Self {
        Self {
            team,
            construct,
            monitor,
            counts: None,
            export: None,
            sim_spawn_cost: None,
        }
    }

    /// The assembled monitor stack — pass this to workloads that drive
    /// their own `Team::parallel` (e.g. `bots::run_app`).
    pub fn monitor(&self) -> &M {
        &self.monitor
    }

    /// The innermost sharded profiler.
    pub fn profiler(&self) -> &ProfMonitor<M::Clock> {
        self.monitor.profiler()
    }

    /// The session's parallel construct.
    pub fn construct(&self) -> &ParallelConstruct {
        &self.construct
    }

    /// The session's team.
    pub fn team(&self) -> &Team {
        &self.team
    }

    /// Live telemetry handle, when the session was built with
    /// [`SessionBuilder::telemetry`]. Clone it into a watcher thread and
    /// poll freely: reads never block the measurement.
    pub fn telemetry(&self) -> Option<SessionTelemetry> {
        self.monitor
            .profiler()
            .telemetry_core()
            .map(|core| SessionTelemetry {
                core,
                started: Instant::now(),
            })
    }

    /// Wrap the stack in a [`ValidatingMonitor`]: the profiler only ever
    /// observes a well-formed event stream; defects become
    /// [`SessionReport::diagnostics`].
    pub fn validated(self) -> MeasurementSession<ValidatingMonitor<M>> {
        MeasurementSession {
            team: self.team,
            construct: self.construct,
            monitor: ValidatingMonitor::new(self.monitor),
            counts: self.counts,
            export: self.export,
            sim_spawn_cost: self.sim_spawn_cost,
        }
    }

    /// Add an event counter to the stack; totals appear in
    /// [`SessionReport::counts`].
    pub fn counted(self) -> MeasurementSession<(CountingMonitor, M)> {
        let counter = CountingMonitor::new();
        MeasurementSession {
            team: self.team,
            construct: self.construct,
            counts: Some(counter.clone()),
            monitor: (counter, self.monitor),
            export: self.export,
            sim_spawn_cost: self.sim_spawn_cost,
        }
    }

    /// Wrap the stack in a [`FilteredMonitor`] suppressing enter/exit for
    /// regions rejected by `filter` (Score-P's runtime filtering).
    pub fn filtered(self, filter: impl RegionFilter) -> MeasurementSession<FilteredMonitor<M>> {
        MeasurementSession {
            team: self.team,
            construct: self.construct,
            monitor: FilteredMonitor::new(self.monitor, filter),
            counts: self.counts,
            export: self.export,
            sim_spawn_cost: self.sim_spawn_cost,
        }
    }

    /// Execute one parallel region under the session's construct: `f` runs
    /// once per team thread as its implicit task. May be called repeatedly;
    /// every region's measurements accumulate into the final report.
    pub fn run<'env, F>(&self, f: F) -> ParallelOutcome
    where
        F: Fn(&TaskCtx<'_, 'env, M>) + Sync + 'env,
    {
        self.team.parallel(&self.monitor, &self.construct, f)
    }

    /// Like [`MeasurementSession::run`] but under a caller-supplied
    /// construct (for programs with several distinct parallel regions).
    pub fn run_in<'env, F>(&self, construct: &ParallelConstruct, f: F) -> ParallelOutcome
    where
        F: Fn(&TaskCtx<'_, 'env, M>) + Sync + 'env,
    {
        self.team.parallel(&self.monitor, construct, f)
    }

    /// Consume the session: drain every layer's diagnostics and the
    /// profiler's collected shards into one [`SessionReport`].
    ///
    /// This is the session-final replacement for calling
    /// `ProfMonitor::take_profile` by hand — consuming `self` guarantees no
    /// region of *this* session is still measuring.
    pub fn finish(self) -> SessionReport {
        let mut diagnostics = Vec::new();
        self.monitor.drain_diagnostics(&mut diagnostics);
        let profile = self
            .monitor
            .profiler()
            .take_profile()
            .expect("a consumed session cannot have regions in flight");
        let telemetry = self
            .monitor
            .profiler()
            .telemetry_core()
            .map(|core| core.snapshot());
        let export = self
            .export
            .as_ref()
            .map(|plan| export_profile(plan, &profile));
        let (critpath, edge_streams) = if self.monitor.profiler().records_task_edges() {
            let streams = self
                .monitor
                .profiler()
                .take_edge_streams()
                .expect("a consumed session cannot have regions in flight");
            let opts = critpath::DagOptions {
                undeferred_spawn_cost: self.sim_spawn_cost,
            };
            let dag = critpath::TaskDag::from_streams(&streams, self.construct.region, &opts)
                .expect("recorded edge streams assemble into a DAG");
            (Some(dag.report()), Some(streams))
        } else {
            (None, None)
        };
        SessionReport {
            profile,
            diagnostics,
            counts: self.counts,
            telemetry,
            export,
            critpath,
            edge_streams,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::{RegionId, VirtualClock};
    use taskrt::TaskConstruct;

    #[test]
    fn session_runs_and_finishes() {
        let session = MeasurementSession::builder("session-test")
            .threads(2)
            .build()
            .unwrap();
        let task = TaskConstruct::new("session-test-task");
        session
            .run(|ctx| {
                if ctx.tid() == 0 {
                    for _ in 0..4 {
                        ctx.task(&task, |_| {
                            std::hint::black_box(42);
                        });
                    }
                }
            })
            .unwrap();
        let report = session.finish();
        assert_eq!(report.profile.num_threads(), 2);
        assert!(report.is_clean());
        assert!(report.counts.is_none());
    }

    #[test]
    fn full_stack_counts_and_validates() {
        let session = MeasurementSession::builder("session-full")
            .threads(2)
            .max_depth(32)
            .build()
            .unwrap()
            .counted()
            .validated();
        let task = TaskConstruct::new("session-full-task");
        session
            .run(|ctx| {
                if ctx.tid() == 0 {
                    for _ in 0..8 {
                        ctx.task(&task, |_| {
                            std::hint::black_box(1);
                        });
                    }
                }
            })
            .unwrap();
        let report = session.finish();
        assert!(report.is_clean());
        let (_, _, begins, ends, _, _, threads) = report.counts().snapshot();
        assert_eq!(begins, 8);
        assert_eq!(ends, 8);
        assert_eq!(threads, 2);
        assert_eq!(report.profile.num_threads(), 2);
    }

    #[test]
    fn filtered_stack_suppresses_regions() {
        let noisy = RegionId(u32::MAX - 7);
        let session = MeasurementSession::builder("session-filter")
            .threads(1)
            .build()
            .unwrap()
            .filtered(move |r: RegionId| r != noisy);
        session.run(|_| {}).unwrap();
        let report = session.finish();
        assert_eq!(report.profile.num_threads(), 1);
    }

    #[test]
    fn virtual_clock_session_is_deterministic() {
        let clock = VirtualClock::new();
        let session = MeasurementSession::builder("session-virtual")
            .threads(1)
            .clock(clock.clone())
            .build()
            .unwrap();
        session.run(|_| {}).unwrap();
        clock.set(1000);
        session.run(|_| {}).unwrap();
        let report = session.finish();
        assert_eq!(report.profile.num_threads(), 2, "two regions collected");
    }

    #[test]
    fn deterministic_sessions_reproduce_profiles() {
        fn one(seed: u64) -> Profile {
            let task = TaskConstruct::new("session-det-task");
            let tw = taskrt::taskwait_region("session-det!tw");
            let session = MeasurementSession::builder("session-det")
                .threads(2)
                .deterministic(seed)
                .build()
                .unwrap();
            session
                .run(|ctx| {
                    for _ in 0..3 {
                        ctx.task(&task, |_| {});
                    }
                    ctx.taskwait(tw);
                })
                .unwrap();
            session.finish().profile
        }
        let a = one(7);
        let b = one(7);
        assert_eq!(a.num_threads(), b.num_threads());
        for (ta, tb) in a.threads.iter().zip(&b.threads) {
            assert_eq!(ta.main, tb.main, "tid {} main tree differs", ta.tid);
            assert_eq!(
                ta.task_trees, tb.task_trees,
                "tid {} task trees differ",
                ta.tid
            );
            assert_eq!(ta.max_live_trees, tb.max_live_trees);
        }
    }

    #[test]
    fn record_task_edges_yields_critpath_report() {
        let task = TaskConstruct::new("session-critpath-task");
        let tw = taskrt::taskwait_region("session-critpath!tw");
        let session = MeasurementSession::builder("session-critpath")
            .threads(2)
            .deterministic(5)
            .record_task_edges()
            .build()
            .unwrap();
        session
            .run(|ctx| {
                for _ in 0..3 {
                    ctx.task(&task, |_| {});
                }
                ctx.taskwait(tw);
            })
            .unwrap();
        let report = session.finish();
        let cp = report.critpath();
        assert_eq!(cp.threads, 2);
        assert_eq!(cp.tasks, 6, "3 tasks per implicit task");
        assert!(cp.work_ns > 0, "spawn costs spend virtual time");
        assert!(cp.span_ns <= cp.work_ns);
        assert!(cp.makespan_ns >= cp.span_ns);
        assert!(cp.parallelism >= 1.0);
        assert_eq!(cp.thread_work_ns.len(), 2);
    }

    #[test]
    fn critpath_chains_repeated_runs() {
        let task = TaskConstruct::new("session-rerun-task");
        let tw = taskrt::taskwait_region("session-rerun!tw");
        let session = MeasurementSession::builder("session-rerun")
            .threads(2)
            .deterministic(5)
            .record_task_edges()
            .build()
            .unwrap();
        for _ in 0..2 {
            session
                .run(|ctx| {
                    for _ in 0..3 {
                        ctx.task(&task, |_| {});
                    }
                    ctx.taskwait(tw);
                })
                .unwrap();
        }
        let report = session.finish();
        assert_eq!(report.critpath().tasks, 12, "task ids restart per region");
        let streams = report.edge_streams.as_ref().unwrap();
        let mut instances: Vec<u64> = streams.iter().map(|s| s.instance).collect();
        instances.dedup();
        assert_eq!(instances.len(), 2);
        // Work is a sum of interval weights, whatever the attribution.
        let work_alone: u64 = instances
            .iter()
            .map(|&i| {
                let region: Vec<EdgeStream> =
                    streams.iter().filter(|s| s.instance == i).cloned().collect();
                critpath::TaskDag::from_streams(&region, RegionId(0), &Default::default())
                    .unwrap()
                    .work_ns()
            })
            .sum();
        assert_eq!(report.critpath().work_ns, work_alone);
    }

    #[test]
    fn critpath_absent_without_edge_recording() {
        let session = MeasurementSession::builder("session-no-critpath")
            .threads(1)
            .build()
            .unwrap();
        session.run(|_| {}).unwrap();
        let report = session.finish();
        assert!(report.critpath.is_none());
        assert!(report.edge_streams.is_none());
    }

    #[test]
    fn export_target_from_str_discriminates() {
        assert_eq!(
            ExportTarget::from("127.0.0.1:7979"),
            ExportTarget::Server("127.0.0.1:7979".to_string())
        );
        // Hostnames don't parse as SocketAddr but must still reach the
        // server — Client::connect resolves them via ToSocketAddrs.
        assert_eq!(
            ExportTarget::from("localhost:7979"),
            ExportTarget::Server("localhost:7979".to_string())
        );
        assert_eq!(
            ExportTarget::from("[::1]:7979"),
            ExportTarget::Server("[::1]:7979".to_string())
        );
        assert_eq!(
            ExportTarget::from("/tmp/profiles"),
            ExportTarget::Directory(PathBuf::from("/tmp/profiles"))
        );
        assert_eq!(
            ExportTarget::from("relative/dir"),
            ExportTarget::Directory(PathBuf::from("relative/dir"))
        );
        // Path separators always mean a directory, ports or not.
        assert_eq!(
            ExportTarget::from("profiles/host:7979"),
            ExportTarget::Directory(PathBuf::from("profiles/host:7979"))
        );
        // A trailing segment that is not a valid port is a directory.
        assert_eq!(
            ExportTarget::from("profiles:latest"),
            ExportTarget::Directory(PathBuf::from("profiles:latest"))
        );
    }

    #[test]
    fn export_to_directory_ingests_on_finish() {
        let dir = std::env::temp_dir().join(format!(
            "session-export-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        for expected_run in 1..=2u64 {
            let session = MeasurementSession::builder("session-export")
                .threads(2)
                .export_to(dir.as_path())
                .build()
                .unwrap();
            session.run(|_| {}).unwrap();
            let report = session.finish();
            let receipt = report
                .export
                .expect("export configured")
                .expect("export succeeds");
            assert_eq!(receipt.run_id, Some(expected_run));
            assert!(receipt.bytes > 0);
            assert!(!receipt.spooled);
            assert_eq!(receipt.attempts, 1);
        }
        let store = profstore::ProfileStore::open(&dir).expect("reopen");
        assert_eq!(store.stats().runs, 2);
        let agg = store.aggregate("session-export", 2).expect("aggregate");
        assert_eq!(agg.runs, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_to_server_ingests_on_finish() {
        let dir = std::env::temp_dir().join(format!(
            "session-export-srv-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = profstore::ProfileStore::open(&dir).expect("open");
        let (handle, join) =
            profserve::Server::spawn("127.0.0.1:0", store, profserve::ServeConfig::default())
                .expect("spawn");
        let addr = handle.addr().to_string();

        let session = MeasurementSession::builder("session-export-srv")
            .threads(1)
            .export_to(addr.as_str())
            .build()
            .unwrap();
        session.run(|_| {}).unwrap();
        let report = session.finish();
        let receipt = report
            .export
            .expect("export configured")
            .expect("export succeeds");
        assert!(matches!(receipt.target, ExportTarget::Server(_)));
        assert_eq!(receipt.run_id, Some(1));
        assert_eq!(receipt.attempts, 1);
        assert!(!receipt.spooled);
        assert_eq!(receipt.drained, 0);

        handle.stop();
        join.join().expect("join").expect("run");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_export_does_not_fail_measurement() {
        // Nothing listens on this address: connect must fail, the
        // profile must still be in the report.
        let session = MeasurementSession::builder("session-export-down")
            .threads(1)
            .export_to("127.0.0.1:1")
            .build()
            .unwrap();
        session.run(|_| {}).unwrap();
        let report = session.finish();
        assert_eq!(report.profile.num_threads(), 1);
        match report.export {
            Some(Err(ExportError::Client(_))) => {}
            other => panic!("expected client error, got {other:?}"),
        }
    }

    #[test]
    fn repeated_runs_accumulate() {
        let session = MeasurementSession::builder("session-repeat")
            .threads(1)
            .build()
            .unwrap();
        for _ in 0..3 {
            session.run(|_| {}).unwrap();
        }
        assert_eq!(session.finish().profile.num_threads(), 3);
    }
}
