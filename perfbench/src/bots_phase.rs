//! The profiling phase: BOTS kernels run instrumented (session build →
//! `run_app` → `finish()` → `AggProfile`) and uninstrumented
//! (`NullMonitor`), one interleaved pair per kernel per round.

use crate::trace::SpanLog;
use crate::Tally;
use bots::{run_app, AppId, RunOpts, Scale, Variant, ALL_APPS};
use cube::AggProfile;
use pomp::{CountingMonitor, NullMonitor};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use taskprof::{Profile, SnapNode};
use taskprof_session::MeasurementSession;

/// Team size of every run (the host has two CPUs).
pub const THREADS: usize = 2;

/// One kernel configuration of a round.
#[derive(Clone, Copy, Debug)]
pub struct Kernel {
    pub app: AppId,
    pub opts: RunOpts,
}

impl Kernel {
    fn new(app: AppId, scale: Scale, variant: Variant) -> Self {
        Self {
            app,
            opts: RunOpts::new(THREADS).scale(scale).variant(variant),
        }
    }

    /// `<app>.<variant>`, the suffix of the `taskrt.base_ms.*` metrics.
    pub fn label(&self) -> String {
        let variant = match self.opts.variant {
            Variant::NoCutoff => "nocutoff",
            Variant::Cutoff => "cutoff",
        };
        format!("{}.{variant}", self.app.name())
    }
}

/// fib and health without cut-off, plus nqueens without cut-off with its
/// recursion-depth parameter (paper Tables III–IV).
pub fn fine_set(scale: Scale) -> Vec<Kernel> {
    let mut nqueens = Kernel::new(AppId::Nqueens, scale, Variant::NoCutoff);
    nqueens.opts = nqueens.opts.with_depth_param();
    vec![
        Kernel::new(AppId::Fib, scale, Variant::NoCutoff),
        Kernel::new(AppId::Health, scale, Variant::NoCutoff),
        nqueens,
    ]
}

/// All nine kernels in their cut-off variant (the Fig. 13 set; codes
/// without a cut-off version run their only version).
pub fn cutoff_set(scale: Scale) -> Vec<Kernel> {
    ALL_APPS
        .iter()
        .map(|&app| Kernel::new(app, scale, Variant::Cutoff))
        .collect()
}

/// Every kernel configuration any workload runs, for the per-kernel
/// `taskrt.base_ms.*` metrics of a traced run.
pub fn all_kernels(scale: Scale) -> Vec<Kernel> {
    let mut all = fine_set(scale);
    all.extend(cutoff_set(scale));
    all
}

/// One interleaved round: every kernel once instrumented, once not.
#[derive(Clone, Copy, Debug)]
pub struct Round {
    /// Summed wall time of build → run → finish → aggregate.
    pub profile_s: f64,
    /// Summed wall time of the uninstrumented runs.
    pub base_s: f64,
    /// Summed kernel times (`Outcome::kernel`) of the two sides.
    pub profile_kernel_s: f64,
    pub base_kernel_s: f64,
    /// Whether spans were recorded in this round.
    pub traced: bool,
}

/// What the phase measured.
#[derive(Default)]
pub struct Phase {
    pub rounds: Vec<Round>,
    /// Uninstrumented wall time per kernel label, ms.
    pub base_ms: BTreeMap<String, Vec<f64>>,
    /// Every instrumented profile, tagged with its kernel name: the
    /// records the exporters later send.
    pub profiles: Vec<(&'static str, Profile)>,
    /// Call-tree nodes over one round's aggregated profiles.
    pub nodes: u64,
    /// Largest concurrently-live instance-tree count (paper Table II).
    pub max_live_trees: usize,
}

/// Run rounds until `budget` is spent (at least `min_rounds` measured
/// rounds, after one warm-up round that is not recorded). With
/// `alternate_trace`, every other round records spans so the traced
/// and untraced rounds of one run give the tracing overhead.
pub fn run(
    kernels: &[Kernel],
    budget: Duration,
    min_rounds: usize,
    seed: u64,
    alternate_trace: bool,
    log: &mut SpanLog,
    tally: &mut Tally,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut round = 0usize;
    loop {
        let measured = round.saturating_sub(1);
        if measured >= min_rounds && start.elapsed() >= budget {
            break;
        }
        // Pairs of rounds, so both pair orders are traced alike.
        let traced = alternate_trace && (round / 2) % 2 == 1;
        log.set_enabled(traced);
        let op = log.op();
        let outer = log.enter("bench.round", op);
        let mut r = Round {
            profile_s: 0.0,
            base_s: 0.0,
            profile_kernel_s: 0.0,
            base_kernel_s: 0.0,
            traced,
        };
        let mut nodes = 0u64;
        // The side that runs first alternates per round; the seed picks
        // the first round's order.
        let instrumented_first = (round as u64 + seed).is_multiple_of(2);
        for k in kernels {
            for side in 0..2 {
                if (side == 0) == instrumented_first {
                    let (wall, kernel_s, profile, agg) = instrumented(k, op, log, tally);
                    r.profile_s += wall;
                    r.profile_kernel_s += kernel_s;
                    nodes += tree_nodes(&agg);
                    phase.max_live_trees = phase.max_live_trees.max(agg.max_live_trees);
                    if round > 0 {
                        phase.profiles.push((k.app.name(), profile));
                    }
                } else {
                    let (wall, kernel_s) = uninstrumented(k, op, log, tally);
                    r.base_s += wall;
                    r.base_kernel_s += kernel_s;
                    if round > 0 {
                        phase.base_ms.entry(k.label()).or_default().push(wall * 1e3);
                    }
                }
            }
        }
        log.exit(outer);
        if round > 0 {
            phase.rounds.push(r);
            phase.nodes = nodes;
        }
        round += 1;
    }
    log.set_enabled(false);
    phase
}

/// build → run → finish → aggregate, checked. Returns (wall s, kernel s,
/// profile, aggregate).
fn instrumented(
    k: &Kernel,
    op: u64,
    log: &mut SpanLog,
    tally: &mut Tally,
) -> (f64, f64, Profile, AggProfile) {
    let t0 = Instant::now();
    let s = log.enter("session.build", op);
    let session = MeasurementSession::builder(k.app.name())
        .threads(THREADS)
        .build()
        .expect("default session configuration is valid");
    log.exit(s);
    let s = log.enter("bots.run_app", op);
    let out = run_app(k.app, session.monitor(), &k.opts);
    log.exit(s);
    let s = log.enter("session.finish", op);
    let report = session.finish();
    log.exit(s);
    let s = log.enter("cube.agg", op);
    let agg = AggProfile::from_profile(&report.profile);
    log.exit(s);
    let wall = t0.elapsed().as_secs_f64();

    let label = k.label();
    tally.check(out.verified, || {
        format!("{label}: instrumented run not verified")
    });
    tally.check(report.is_clean(), || {
        format!(
            "{label}: session report not clean: {:?}",
            report.diagnostics
        )
    });
    tally.check(agg.diagnostics.is_empty(), || {
        format!("{label}: profiler diagnostics {:?}", agg.diagnostics)
    });
    tally.check(!has_negative_exclusive(&agg), || {
        format!("{label}: negative exclusive time in the aggregated profile")
    });
    (wall, out.kernel.as_secs_f64(), report.profile, agg)
}

fn uninstrumented(k: &Kernel, op: u64, log: &mut SpanLog, tally: &mut Tally) -> (f64, f64) {
    let t0 = Instant::now();
    let s = log.enter("taskrt.base_run", op);
    let out = run_app(k.app, &NullMonitor, &k.opts);
    log.exit(s);
    let wall = t0.elapsed().as_secs_f64();
    let label = k.label();
    tally.check(out.verified, || {
        format!("{label}: uninstrumented run not verified")
    });
    (wall, out.kernel.as_secs_f64())
}

/// One uninstrumented run of `k`, wall ms (for kernels a workload's
/// rounds do not run).
pub fn base_ms(k: &Kernel, tally: &mut Tally) -> f64 {
    let mut quiet = SpanLog::new(Instant::now(), false, 0);
    uninstrumented(k, 0, &mut quiet, tally).0 * 1e3
}

/// Hook events one round of `kernels` emits, counted on a
/// `CountingMonitor` run of each.
pub fn events_per_round(kernels: &[Kernel], tally: &mut Tally) -> u64 {
    kernels
        .iter()
        .map(|k| {
            let counter = CountingMonitor::new();
            let out = run_app(k.app, &counter, &k.opts);
            tally.check(out.verified, || {
                format!("{}: counted run not verified", k.label())
            });
            counter.counts().total()
        })
        .sum()
}

fn walk_trees(agg: &AggProfile, f: &mut impl FnMut(&SnapNode)) {
    for root in std::iter::once(&agg.main).chain(&agg.task_trees) {
        root.walk(&mut |_, n| f(n));
    }
}

fn tree_nodes(agg: &AggProfile) -> u64 {
    let mut n = 0;
    walk_trees(agg, &mut |_| n += 1);
    n
}

/// Paper Fig. 3: under the executing-task assignment no node's
/// exclusive time may be negative.
fn has_negative_exclusive(agg: &AggProfile) -> bool {
    let mut negative = false;
    walk_trees(agg, &mut |n| negative |= n.exclusive_ns() < 0);
    negative
}
