//! Traces of real runtime workloads, built from the profiler's edge log —
//! consistency between the trace, the profile, and the workload's ground
//! truth.

use bots::{run_app, AppId, RunOpts, Scale};
use pomp::TaskRef;
use taskprof::ProfMonitor;
use taskprof_trace::{analyze, EventKind, Trace};

/// A profiler that also records its edge log, for [`trace_of`].
fn recording_profiler() -> ProfMonitor {
    ProfMonitor::builder()
        .record_task_edges()
        .build()
        .expect("default limits are valid")
}

fn trace_of(profiler: &ProfMonitor) -> Trace {
    Trace::from_edge_streams(&profiler.take_edge_streams().expect("no region in flight"))
}

#[test]
fn trace_is_balanced_and_counts_match_profile() {
    let profiler = recording_profiler();
    let opts = RunOpts::new(2).scale(Scale::Test);
    let out = run_app(AppId::Fib, &profiler, &opts);
    assert!(out.verified);

    let profile = profiler.take_profile().expect("no region in flight");
    let trace = trace_of(&profiler);
    assert_eq!(trace.nthreads, 2);

    // Per-thread: enters and exits balance, begins equal ends.
    for tid in 0..2 {
        let mut depth = 0i64;
        let (mut begins, mut ends) = (0u64, 0u64);
        for e in trace.thread(tid) {
            match e.kind {
                EventKind::Enter(_) => depth += 1,
                EventKind::Exit(_) => {
                    depth -= 1;
                    assert!(depth >= 0, "exit without enter on thread {tid}");
                }
                EventKind::TaskBegin(..) => begins += 1,
                EventKind::TaskEnd(..) => ends += 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced regions on thread {tid}");
        assert_eq!(begins, ends, "task begin/end mismatch on thread {tid}");
    }

    // Trace-wide begins == profile-wide completed instances.
    let trace_begins = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TaskBegin(..)))
        .count() as u64;
    let profile_instances: u64 = profile
        .threads
        .iter()
        .flat_map(|t| &t.task_trees)
        .map(|t| t.stats.samples)
        .sum();
    assert_eq!(trace_begins, profile_instances);

    // Timestamps are monotone per thread.
    for tid in 0..2 {
        let mut last = 0;
        for e in trace.thread(tid) {
            assert!(e.t >= last);
            last = e.t;
        }
    }
}

#[test]
fn analysis_of_real_run_is_consistent() {
    let profiler = recording_profiler();
    let opts = RunOpts::new(2).scale(Scale::Test);
    let out = run_app(AppId::Nqueens, &profiler, &opts);
    assert!(out.verified);
    let trace = trace_of(&profiler);
    let a = analyze(&trace);

    // Every instance completed within the kernel.
    assert!(!a.instances.is_empty());
    for i in &a.instances {
        assert!(i.fragments >= 1);
        assert!(i.queue_ns.is_some(), "creation must precede execution");
    }
    // Switch count covers at least one per instance.
    assert!(a.switches >= a.instances.len() as u64);
    // Totals are bounded by wall time × threads.
    let wall = out.kernel.as_nanos() as u64 * 2;
    assert!(a.total_task_exec_ns <= wall);
    assert!(a.total_sched_nonexec_ns <= wall);
    // nqueens without cut-off is creation-heavy: the management/work
    // ratio must be clearly nonzero (the exact value is build- and
    // machine-dependent; paper-scale runs push it past 1).
    assert!(
        a.management_to_work_ratio > 0.02,
        "ratio {}",
        a.management_to_work_ratio
    );
    assert!(a.total_creation_ns > 0);
}

#[test]
fn switch_events_reference_known_tasks() {
    let profiler = recording_profiler();
    let opts = RunOpts::new(1).scale(Scale::Test);
    run_app(AppId::Fib, &profiler, &opts);
    let trace = trace_of(&profiler);
    let mut seen = std::collections::HashSet::new();
    for e in &trace.events {
        match e.kind {
            EventKind::TaskBegin(_, id) => {
                seen.insert(id);
            }
            EventKind::TaskSwitch(TaskRef::Explicit(id)) => {
                assert!(seen.contains(&id), "switch to never-begun task");
            }
            _ => {}
        }
    }
}

#[test]
fn text_dump_of_real_trace_renders_every_event() {
    let profiler = recording_profiler();
    let opts = RunOpts::new(1).scale(Scale::Test);
    run_app(AppId::Alignment, &profiler, &opts);
    let trace = trace_of(&profiler);
    let text = trace.to_text();
    assert_eq!(text.lines().count(), trace.len());
    assert!(text.contains("TASK_BEGIN   alignment_pair"));
    assert!(text.contains("ENTER        alignment!single"));
}
