//! Trace-based management/waiting analysis — the paper's Section VII
//! future work, running against a real workload.
//!
//! ```text
//! cargo run --release --example trace_analysis
//! ```
//!
//! Records the profiler's edge log alongside the profile, so one run
//! yields both the call-path profile and the event trace, then answers
//! the question the profile alone cannot: of the
//! time threads spend inside scheduling points, how much passes before
//! the first task switch (management), how much executes tasks, and how
//! much is residual waiting? Also reports creation-to-start queue
//! latencies per task construct.

use bots::{run_app, AppId, RunOpts, Scale};
use cube::{format_ns, AggProfile};
use std::collections::HashMap;
use taskprof_session::MeasurementSession;
use taskprof_trace::{analyze, Trace};

fn main() {
    let session = MeasurementSession::builder("trace-analysis")
        .threads(4)
        .record_task_edges()
        .build()
        .expect("default session configuration is valid");
    let opts = RunOpts::new(4).scale(Scale::Small);
    let out = run_app(AppId::SparseLu, session.monitor(), &opts);
    assert!(out.verified);
    println!("sparselu, 4 threads, kernel {:?}\n", out.kernel);

    // What the profile can say: barrier/taskwait time minus stub time.
    let report = session.finish();
    let agg = AggProfile::from_profile(&report.profile);
    let sched_excl = cube::region_excl_by_kind(&agg, pomp::RegionKind::ImplicitBarrier)
        + cube::region_excl_by_kind(&agg, pomp::RegionKind::Taskwait);
    println!(
        "profile view : {} of scheduling-point time is NOT task execution",
        format_ns(sched_excl.max(0) as u64)
    );
    println!("               ...but it cannot tell management from waiting.\n");

    // What the trace adds.
    let trace = Trace::from_edge_streams(
        report
            .edge_streams
            .as_deref()
            .expect("the session records task edges"),
    );
    let a = analyze(&trace);
    println!("trace view   ({} events):", trace.len());
    for b in &a.by_kind {
        let waiting = b.dwell_ns.saturating_sub(b.task_exec_ns + b.pre_switch_ns);
        println!(
            "  {:<9} dwell {:>10}  = exec {:>10} + pre-switch (mgmt) {:>10} + waiting {:>10}",
            b.kind.label(),
            format_ns(b.dwell_ns),
            format_ns(b.task_exec_ns),
            format_ns(b.pre_switch_ns),
            format_ns(waiting),
        );
    }
    println!(
        "\n  management/work ratio: {:.3}   task switches: {}",
        a.management_to_work_ratio, a.switches
    );

    // Queue latency per construct.
    let mut by_region: HashMap<&str, (u64, u64)> = HashMap::new();
    let reg = pomp::registry();
    let names: HashMap<pomp::RegionId, String> = a
        .instances
        .iter()
        .map(|i| (i.region, reg.name(i.region)))
        .collect();
    for i in &a.instances {
        if let Some(q) = i.queue_ns {
            let e = by_region.entry(names[&i.region].as_str()).or_insert((0, 0));
            e.0 += q;
            e.1 += 1;
        }
    }
    println!("\n  creation-to-start queue latency (mean):");
    let mut rows: Vec<_> = by_region.into_iter().collect();
    rows.sort();
    for (name, (sum, n)) in rows {
        println!("    {:<16} {:>10}  ({n} instances)", name, format_ns(sum / n.max(1)));
    }
}
