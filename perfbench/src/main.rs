//! The repository benchmark. One command runs one workload for a fixed
//! time, checks the outputs, and prints every metric by name and unit;
//! the last line of standard output is one JSON object:
//!
//! ```text
//! perfbench --workload bots_fine|bots_cutoff|profile_service \
//!           --seed N --seconds S --trace 0|1 [--tiny]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced run. `--tiny` shrinks every size for the
//! benchmark's own tests. See `README.md` for what each workload and
//! metric is for.

mod bots_phase;
mod host;
mod ladder;
mod service;
mod stats;
mod trace;

use bots::Scale;
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::SpanLog;

/// Operations attempted and failed, and failed correctness checks.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failure counts by kind.
    pub failures: BTreeMap<String, u64>,
    /// Correctness checks that did not hold.
    pub check_failures: Vec<String>,
}

impl Tally {
    /// One operation; `why` names the failure when `ok` is false.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            *self.failures.entry(why()).or_default() += 1;
        }
    }

    /// One correctness check: a failed check is a failed operation and
    /// makes the run incorrect.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if ok {
            self.op(true, String::new);
        } else {
            let reason = why();
            self.check_failures.push(reason.clone());
            self.op(false, || reason);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, n) in other.failures {
            *self.failures.entry(k).or_default() += n;
        }
        self.check_failures.extend(other.check_failures);
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    BotsFine,
    BotsCutoff,
    ProfileService,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "bots_fine" => Some(Self::BotsFine),
            "bots_cutoff" => Some(Self::BotsCutoff),
            "profile_service" => Some(Self::ProfileService),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::BotsFine => "bots_fine",
            Self::BotsCutoff => "bots_cutoff",
            Self::ProfileService => "profile_service",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload bots_fine|bots_cutoff|profile_service --seed N --seconds S --trace 0|1 [--tiny]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Workload::parse(&value()),
            "--seed" => seed = value().parse().ok(),
            "--seconds" => seconds = value().parse().ok().filter(|s| *s > 0),
            "--trace" => {
                trace = match value().as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--tiny" => tiny = true,
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
            tiny,
        },
        _ => usage(),
    }
}

/// The sizes one workload runs at.
struct Plan {
    kernels: Vec<bots_phase::Kernel>,
    /// Share of the run spent in the profiling phase.
    bots_share: f64,
    min_rounds: usize,
    /// Scale of the per-kernel `taskrt.base_ms.*` sweep.
    sweep_scale: Scale,
    service: service::Params,
    ladder_chunks: usize,
    ladder_iters: u64,
    kernel_reps: usize,
}

/// Offered exporter rate: about a quarter of what one exporter thread
/// sustained beside the query loop on the reference host (README.md,
/// "Sizing"); low enough that the serving phase never fills a segment.
const EXPORTER_RATE_PER_S: f64 = 50.0;

/// How many times set-up runs; `setup_s` is the median.
const SETUP_REPS: usize = 3;

fn plan(workload: Workload, tiny: bool) -> Plan {
    let scale = if tiny { Scale::Test } else { Scale::Medium };
    let (kernels, bots_share) = match workload {
        Workload::BotsFine => (bots_phase::fine_set(scale), 0.43),
        Workload::BotsCutoff => (bots_phase::cutoff_set(scale), 0.43),
        Workload::ProfileService => (
            bots_phase::fine_set(if tiny { Scale::Test } else { Scale::Small }),
            0.15,
        ),
    };
    Plan {
        kernels,
        bots_share,
        min_rounds: if tiny { 2 } else { 3 },
        sweep_scale: scale,
        service: service::Params {
            closed_segments: if tiny { 0 } else { 3 },
            rate_per_s: EXPORTER_RATE_PER_S,
            min_samples: if tiny { 20 } else { 1_000 },
        },
        ladder_chunks: if tiny { 3 } else { 12 },
        ladder_iters: if tiny { 200 } else { 10_000 },
        kernel_reps: if tiny { 1 } else { 3 },
    }
}

/// One printed metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// How it was taken.
    note: String,
    /// Part of the JSON result (the set `BENCHMARK.json` declares).
    in_result: bool,
}

/// Metrics in print order.
#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn add(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.push(name.into(), value, unit, note.into(), true);
    }

    /// A metric printed in the report but left out of the JSON result.
    fn report_only(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.push(name.to_string(), value, unit, note, false);
    }

    fn push(
        &mut self,
        name: String,
        value: f64,
        unit: &'static str,
        note: String,
        in_result: bool,
    ) {
        self.0.push(Metric {
            name,
            value,
            unit,
            note,
            in_result,
        });
    }

    fn print(&self, title: &str) {
        println!("== {title}");
        for m in &self.0 {
            let gate = if m.in_result {
                ""
            } else {
                "[reported, not gated] "
            };
            println!(
                "  {:<36} {:>14.4} {:<6} {gate}{}",
                m.name, m.value, m.unit, m.note
            );
        }
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().filter(|m| m.in_result).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }
}

/// JSON has no NaN or infinity; an unmeasurable value prints as null.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(f64::NAN)
}

fn p99(v: &[f64]) -> f64 {
    percentile(v, 99.0).unwrap_or(f64::NAN)
}

fn main() {
    let args = parse_args();
    let origin = Instant::now();
    let plan = plan(args.workload, args.tiny);
    let budget = Duration::from_secs(args.seconds);
    let root = PathBuf::from(".perfbench_work");
    let work = root.join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(&work).expect("create the work directory");

    let mut tally = Tally::default();
    let mut main_log = SpanLog::new(origin, false, 0);

    // Profiling phase.
    let phase = bots_phase::run(
        &plan.kernels,
        budget.mul_f64(plan.bots_share),
        plan.min_rounds,
        args.seed,
        args.trace,
        &mut main_log,
        &mut tally,
    );
    main_log.set_enabled(args.trace);
    let pool: Vec<profserve::Record> = phase
        .profiles
        .iter()
        .map(|(app, profile)| {
            let op = main_log.op();
            let span = main_log.enter("profserve.record", op);
            let record =
                profserve::Record::from_profile(*app, bots_phase::THREADS as u32, None, profile);
            main_log.exit(span);
            record
        })
        .collect();
    main_log.set_enabled(false);

    // Set-up of the serving phase, repeated; the last daemon serves.
    let params = plan.service;
    let store_dir = work.join("store");
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let d = service::setup(&store_dir, args.seed, &params, &phase.profiles);
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            d.stop();
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one set-up");
    let bytes_before = service::dir_bytes(&store_dir);

    // Serving phase.
    let traffic = service::traffic(
        &daemon,
        &pool,
        &params,
        budget.mul_f64(1.0 - plan.bots_share),
        args.seed,
        origin,
        args.trace,
        &mut tally,
    );
    let view = service::final_checks(&daemon, &traffic, &mut tally);
    let history_runs = daemon.history_runs();
    let served_dir = daemon.stop();
    let bytes_written = service::dir_bytes(&served_dir).saturating_sub(bytes_before);

    let fingerprint = host::fingerprint(args.seed);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} tiny={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.tiny
    );
    println!("# {fingerprint}");
    println!(
        "# profiling: {} measured rounds of {} kernels; serving: {} history runs, {} ingests offered at {}/s, {} queries",
        phase.rounds.len(),
        plan.kernels.len(),
        history_runs,
        traffic.ingest_ms.len(),
        params.rate_per_s,
        traffic.query_ms.len()
    );

    let e2e = end_to_end(&phase, &traffic, &setup_s);

    let metrics = if args.trace {
        e2e.print("end-to-end (traced run: half the rounds and operations record spans)");
        let layers = per_layer(
            &plan,
            &phase,
            &traffic,
            view.as_ref(),
            bytes_written,
            &served_dir,
            &work,
            &mut tally,
            &main_log,
        );
        let logs = [&main_log, &traffic.exporter_log, &traffic.query_log];
        print_self_times(&logs);
        let trace_file = root.join(format!("trace-{}.jsonl", args.workload.name()));
        let mut text = format!("{{\"fingerprint\":\"{fingerprint}\"}}\n");
        text.push_str(&trace::to_jsonl(&logs));
        std::fs::write(&trace_file, text).expect("write the span file");
        println!("# spans written to {}", trace_file.display());
        layers.print("per-layer");
        layers
    } else {
        e2e.print("end-to-end");
        e2e
    };

    let _ = std::fs::remove_dir_all(&work);
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "== checks: attempted {} failed {} failed_frac {:.6} ratio",
        tally.attempted, tally.failed, failed_frac
    );
    for (kind, n) in &tally.failures {
        println!("  failed {n:>6}  {kind}");
    }
    for why in &tally.check_failures {
        println!("  CHECK FAILED: {why}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.check_failures.is_empty(),
        tally.attempted,
        tally.failed,
        metrics.json()
    );
}

/// The rest of a latency distribution's tail, for the report.
fn tail(v: &[f64]) -> String {
    let p = |q| percentile(v, q).unwrap_or(f64::NAN);
    format!(
        "p90 {:.3} p99.9 {:.3} max {:.3}",
        p(90.0),
        p(99.9),
        p(100.0)
    )
}

/// The end-to-end metrics. Only set-up time, the profiler's slowdown
/// (a ratio of interleaved runs) and peak memory are steady enough on a
/// shared host to be gated; the absolute times are reported beside them
/// (README.md, "End-to-end metrics").
fn end_to_end(phase: &bots_phase::Phase, traffic: &service::Traffic, setup_s: &[f64]) -> Metrics {
    let rounds = &phase.rounds;
    let n = rounds.len();
    let profile: Vec<f64> = rounds.iter().map(|r| r.profile_s).collect();
    let base: Vec<f64> = rounds.iter().map(|r| r.base_s).collect();
    let slowdown: Vec<f64> = rounds.iter().map(|r| r.profile_s / r.base_s).collect();
    let ni = traffic.ingest_ms.len();
    let nq = traffic.query_ms.len();
    let mut m = Metrics::default();
    let setups = format!("median of {} set-ups", setup_s.len());
    m.add("setup_s", med(setup_s), "s", setups);
    m.add(
        "slowdown_x",
        med(&slowdown),
        "ratio",
        format!("median of {n} pairs"),
    );
    m.add("peak_rss_mb", host::peak_rss_mb(), "MB", "VmHWM");
    m.report_only(
        "profile_s",
        med(&profile),
        "s",
        format!("median of {n} rounds"),
    );
    m.report_only("base_s", med(&base), "s", format!("median of {n} rounds"));
    let from_due = format!("n={ni}, from due time");
    m.report_only("ingest_p50_ms", med(&traffic.ingest_ms), "ms", from_due);
    let ingest_tail = format!("n={ni}, {}", tail(&traffic.ingest_ms));
    m.report_only("ingest_p99_ms", p99(&traffic.ingest_ms), "ms", ingest_tail);
    m.report_only(
        "query_p50_ms",
        med(&traffic.query_ms),
        "ms",
        format!("n={nq}"),
    );
    let query_tail = format!("n={nq}, {}", tail(&traffic.query_ms));
    m.report_only("query_p99_ms", p99(&traffic.query_ms), "ms", query_tail);
    let loop_note = "closed loop, one connection".to_string();
    m.report_only("queries_per_s", traffic.queries_per_s, "1/s", loop_note);
    m
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    plan: &Plan,
    phase: &bots_phase::Phase,
    traffic: &service::Traffic,
    view: Option<&service::ServerView>,
    bytes_written: u64,
    served_dir: &Path,
    work: &Path,
    tally: &mut Tally,
    main_log: &SpanLog,
) -> Metrics {
    let mut m = Metrics::default();
    let events = bots_phase::events_per_round(&plan.kernels, tally);
    m.add(
        "bots.events",
        events as f64,
        "count",
        "hook events per round",
    );

    let same_scale = plan.kernels.first().map(|k| k.opts.scale) == Some(plan.sweep_scale);
    for k in bots_phase::all_kernels(plan.sweep_scale) {
        let label = k.label();
        let from_rounds = phase.base_ms.get(&label).filter(|_| same_scale);
        let runs: Vec<f64> = match from_rounds {
            Some(v) => v.clone(),
            None => (0..plan.kernel_reps)
                .map(|_| bots_phase::base_ms(&k, tally))
                .collect(),
        };
        let (lo, hi) = runs.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), v| {
            (lo.min(*v), hi.max(*v))
        });
        m.add(
            format!("taskrt.base_ms.{label}"),
            med(&runs),
            "ms",
            format!(
                "median of {} NullMonitor runs, range {lo:.2}-{hi:.2}",
                runs.len()
            ),
        );
    }

    let l = ladder::run(plan.ladder_chunks, plan.ladder_iters, tally);
    let chunks = format!("median of {} interleaved chunks", plan.ladder_chunks);
    m.add("pomp.ladder.null_ns", l.null_ns, "ns", chunks.clone());
    m.add(
        "pomp.ladder.dispatch_ns",
        l.dispatch_ns,
        "ns",
        chunks.clone(),
    );
    m.add(
        "core.ladder.machinery_ns",
        l.machinery_ns,
        "ns",
        chunks.clone(),
    );
    m.add(
        "pomp.clock_read_ns",
        l.clock_read_ns,
        "ns",
        "default clock minus virtual",
    );
    m.add(
        "telemetry.ladder_ns",
        l.telemetry_ns,
        "ns",
        "+telemetry() minus default",
    );
    m.add(
        "core.edges.ladder_ns",
        l.edges_ns,
        "ns",
        "+record_task_edges() minus default",
    );
    m.add(
        "pomp.validate.ladder_ns",
        l.validate_ns,
        "ns",
        "+validated() minus default",
    );

    let per_event: Vec<f64> = phase
        .rounds
        .iter()
        .map(|r| (r.profile_kernel_s - r.base_kernel_s) * 1e9 / events as f64)
        .collect();
    m.add(
        "core.ns_per_event",
        med(&per_event),
        "ns",
        "(instrumented - base kernel time) / events",
    );
    m.add(
        "core.nodes",
        phase.nodes as f64,
        "count",
        "call-tree nodes in one round's profiles",
    );
    m.add(
        "core.max_live_trees",
        phase.max_live_trees as f64,
        "count",
        "paper Table II",
    );

    let traced_rounds = phase.rounds.iter().filter(|r| r.traced).count().max(1) as f64;
    let per_round_ms =
        |name: &str| trace::durations(&[main_log], name).iter().sum::<f64>() / 1e6 / traced_rounds;
    m.add(
        "session.build_ms",
        per_round_ms("session.build"),
        "ms",
        "per round",
    );
    m.add(
        "session.finish_ms",
        per_round_ms("session.finish"),
        "ms",
        "per round",
    );
    m.add("cube.agg_ms", per_round_ms("cube.agg"), "ms", "per round");

    let direct = service::direct_store(served_dir, &work.join("direct"), &phase.profiles);
    m.add(
        "profstore.encode_us",
        direct.encode_us,
        "us",
        "encode_record, median",
    );
    m.add(
        "profstore.append_us",
        direct.append_us,
        "us",
        "ProfileStore::ingest, median",
    );
    m.add(
        "profstore.query_us",
        direct.query_us,
        "us",
        "ProfileStore::aggregate on the served store, median",
    );
    m.add(
        "profstore.write_bytes_per_byte",
        bytes_written as f64 / traffic.acked_payload_bytes.max(1) as f64,
        "ratio",
        "store growth / acked record bytes",
    );
    let (ingest_server_us, query_server_us, segments, compacted) = match view {
        Some(v) => (
            v.ingest_server_us,
            v.query_server_us,
            v.segments as f64,
            v.compacted_through as f64,
        ),
        None => (f64::NAN, f64::NAN, f64::NAN, f64::NAN),
    };
    m.add(
        "profstore.segments",
        segments,
        "count",
        "after the serving phase",
    );
    m.add(
        "profstore.compactions",
        compacted,
        "count",
        "segments folded into the aggregate cache",
    );
    m.add(
        "profserve.connect_ms",
        med(&traffic.connect_ms),
        "ms",
        "connect + HELLO, median",
    );
    m.add(
        "profserve.ingest_server_us",
        ingest_server_us,
        "us",
        "STATS mean ingest handling",
    );
    m.add(
        "profserve.query_server_us",
        query_server_us,
        "us",
        "STATS mean query handling",
    );
    m.add(
        "profserve.wire_us",
        med(&traffic.ingest_rtt_ms) * 1e3 - ingest_server_us,
        "us",
        "median ingest round trip minus server time",
    );
    m.add(
        "load.late_p99_ms",
        p99(&traffic.late_ms),
        "ms",
        "how late the exporter generator ran",
    );

    let split = |traced: bool| -> Vec<f64> {
        phase
            .rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.profile_s)
            .collect()
    };
    m.add(
        "trace.profile_x",
        med(&split(true)) / med(&split(false)),
        "ratio",
        "traced / untraced rounds, profile_s",
    );
    let ingest = |traced: bool| -> Vec<f64> {
        traffic
            .ingest_ms
            .iter()
            .zip(&traffic.ingest_traced)
            .filter(|(_, t)| **t == traced)
            .map(|(v, _)| *v)
            .collect()
    };
    m.add(
        "trace.ingest_x",
        med(&ingest(true)) / med(&ingest(false)),
        "ratio",
        "traced / untraced ingests, p50",
    );

    let logs = [main_log, &traffic.exporter_log, &traffic.query_log];
    for (name, (n, _, own)) in trace::self_times(&logs) {
        m.add(
            format!("self_ms.{name}"),
            own as f64 / 1e6 / n as f64,
            "ms",
            format!("mean self time of {n} spans"),
        );
    }
    m
}

fn print_self_times(logs: &[&SpanLog]) {
    println!("== span self time (count, total ms, self ms)");
    for (name, (n, total, own)) in trace::self_times(logs) {
        println!(
            "  {name:<24} {n:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}
