//! Profile persistence and automated diagnosis against real workloads.

use bots::{run_app, AppId, RunOpts, Scale, Variant};
use cube::{
    diagnose, diff_profiles, read_profile, write_profile, AggProfile, DiagnoseConfig, IssueKind,
};
use taskprof::ProfMonitor;
use taskprof_session::MeasurementSession;

fn profile_of(app: AppId, opts: &RunOpts) -> taskprof::Profile {
    let monitor = ProfMonitor::new();
    let out = run_app(app, &monitor, opts);
    assert!(out.verified);
    monitor.take_profile().expect("no region in flight")
}

#[test]
fn real_profile_round_trips_through_text() {
    let p = profile_of(AppId::SparseLu, &RunOpts::new(2).scale(Scale::Test));
    let text = write_profile(&p);
    let q = read_profile(&text).expect("parse");
    assert_eq!(p.threads.len(), q.threads.len());
    for (a, b) in p.threads.iter().zip(&q.threads) {
        assert_eq!(a.main, b.main);
        assert_eq!(a.task_trees, b.task_trees);
        assert_eq!(a.max_live_trees, b.max_live_trees);
    }
    // Aggregations agree too.
    let pa = AggProfile::from_profile(&p);
    let qa = AggProfile::from_profile(&q);
    assert_eq!(pa.main, qa.main);
}

#[test]
fn self_diff_is_all_zero_deltas() {
    let p = profile_of(AppId::Fft, &RunOpts::new(2).scale(Scale::Test));
    let a = AggProfile::from_profile(&p);
    let rows = diff_profiles(&a, &a);
    assert!(!rows.is_empty());
    for r in rows {
        assert_eq!(r.delta_ns(), 0, "{}", r.path);
        assert_eq!(r.a_visits, r.b_visits);
    }
}

/// A fib profile measured under a deterministic session (virtual clock,
/// seeded schedule), so verdicts that compare times do not depend on how
/// fast the host or the profiler is.
fn deterministic_fib_profile(opts: &RunOpts, seed: u64) -> taskprof::Profile {
    let session = MeasurementSession::builder("fib")
        .threads(2)
        .deterministic(seed)
        .build()
        .expect("valid session");
    let out = bots::fib::run_with_team(session.monitor(), session.team(), opts);
    assert!(out.verified);
    session.finish().profile
}

#[test]
fn diagnose_flags_fib_but_not_its_cutoff_as_badly() {
    let cfg = DiagnoseConfig::default();
    let bad = diagnose(
        &deterministic_fib_profile(&RunOpts::new(2).scale(Scale::Test), 17),
        &cfg,
    );
    assert!(
        bad.iter().any(|f| f.kind == IssueKind::TasksTooSmall),
        "fib without cut-off must be flagged: {bad:#?}"
    );
    // The cut-off slashes the instance count while each instance carries
    // more work.
    let instances = |app_opts: &RunOpts| {
        let p = deterministic_fib_profile(app_opts, 17);
        let agg = AggProfile::from_profile(&p);
        cube::task_stats(&agg)[0].instances
    };
    let full = instances(&RunOpts::new(2).scale(Scale::Test));
    let cut = instances(&RunOpts::new(2).scale(Scale::Test).variant(Variant::Cutoff));
    assert!(
        cut * 3 < full,
        "cut-off must slash the instance count: {cut} vs {full}"
    );
}

#[test]
fn diagnose_detects_single_creator_codes() {
    // alignment and sparselu create all tasks from one thread.
    for app in [AppId::Alignment, AppId::SparseLu] {
        let p = profile_of(app, &RunOpts::new(4).scale(Scale::Test));
        let findings = diagnose(&p, &DiagnoseConfig::default());
        assert!(
            findings
                .iter()
                .any(|f| f.kind == IssueKind::CreationBottleneck),
            "{}: expected creation-bottleneck finding: {findings:#?}",
            app.name()
        );
    }
}

#[test]
fn saved_profiles_diff_across_thread_counts() {
    // The Section VI comparison methodology through the persistence layer.
    let p1 = profile_of(AppId::Nqueens, &RunOpts::new(1).scale(Scale::Test));
    let p4 = profile_of(AppId::Nqueens, &RunOpts::new(4).scale(Scale::Test));
    let t1 = write_profile(&p1);
    let t4 = write_profile(&p4);
    let a = AggProfile::from_profile(&read_profile(&t1).unwrap());
    let b = AggProfile::from_profile(&read_profile(&t4).unwrap());
    let rows = diff_profiles(&a, &b);
    // The 4-thread run has (a) more barrier visits and (b) the same task
    // instance count.
    let tasks = rows
        .iter()
        .find(|r| r.path == "<tasks>/nqueens")
        .expect("task tree row");
    assert_eq!(tasks.a_visits, tasks.b_visits, "same work, any schedule");
}
