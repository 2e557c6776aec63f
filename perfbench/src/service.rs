//! The serving phase: a `profserve` daemon over one `ProfileStore`,
//! configured as `taskprof-cli serve` ships it, preloaded with a history
//! of deterministic BOTS profiles, under open-loop exporter traffic and
//! closed-loop queries.

use crate::bots_phase::THREADS;
use crate::stats::median;
use crate::trace::SpanLog;
use crate::Tally;
use bots::{RunOpts, Scale};
use profserve::{
    wire, Client, ClientError, ClientTimeouts, ProfilePayload, Record, Request, Response,
    ServeConfig, Server, ServerHandle, WireProtocol,
};
use profstore::{ProfileStore, RunWindow, StoreConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use taskprof::Profile;
use taskprof_session::MeasurementSession;

/// The queries read two kernels. Each has a history group, preloaded at
/// set-up with deterministic profiles, which `stats` and `regress` fold
/// whole (compacted segments plus a fixed uncompacted tail), and a live
/// group, named after the kernel, which the exporters write and windowed
/// `top` and `trend` queries read.
pub const HISTORY_GROUPS: [&str; 2] = ["history-fib", "history-nqueens"];
const LIVE_GROUPS: [&str; 2] = ["fib", "nqueens"];

/// Newest runs a windowed query of a live group folds; set-up fills
/// every live group with this many runs, so each such query folds a full
/// window from the first one on.
const LIVE_RUNS: u64 = 100;
const LIVE_WINDOW: RunWindow = RunWindow {
    last: Some(LIVE_RUNS),
    since_ns: None,
};

/// History runs written into the active segment after the closed ones:
/// the not-yet-compacted tail every unbounded query folds from disk.
const TAIL_RUNS: u64 = 200;

/// Scale of the deterministic history profiles.
const HISTORY_SCALE: Scale = Scale::Test;

/// Queries per connection before the query loop reconnects over the
/// other protocol.
const QUERIES_PER_CONNECTION: u32 = 64;

/// Sizes of one serving phase.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Closed store segments the history fills.
    pub closed_segments: u64,
    /// Offered exporter rate, ingests per second.
    pub rate_per_s: f64,
    /// Least samples each of ingests and queries must reach.
    pub min_samples: usize,
}

/// The store configuration `taskprof-cli serve` opens: no per-append
/// fsync (each frame is flushed to the OS), 4 MiB segments.
fn store_config() -> StoreConfig {
    StoreConfig::default()
}

/// Deterministic (virtual-clock, seeded-schedule) profiles of fib and
/// nqueens: the same seed gives byte-identical profiles.
fn history_profiles(seed: u64) -> Vec<(&'static str, Profile)> {
    let mut out = Vec::new();
    for i in 0..4u64 {
        let group = HISTORY_GROUPS[i as usize % 2];
        let app = LIVE_GROUPS[i as usize % 2];
        let session = MeasurementSession::builder(app)
            .threads(THREADS)
            .deterministic(seed.wrapping_mul(31).wrapping_add(i))
            .build()
            .expect("deterministic session configuration is valid");
        let opts = RunOpts::new(THREADS).scale(HISTORY_SCALE);
        let out_k = match app {
            "fib" => bots::fib::run_with_team(session.monitor(), session.team(), &opts),
            _ => bots::nqueens::run_with_team(session.monitor(), session.team(), &opts),
        };
        assert!(out_k.verified, "deterministic {app} run not verified");
        out.push((group, session.finish().profile));
    }
    out
}

/// A running daemon and what was preloaded into it.
pub struct Daemon {
    dir: PathBuf,
    handle: ServerHandle,
    join: std::thread::JoinHandle<std::io::Result<()>>,
    addr: String,
    /// Preloaded runs per group.
    history: BTreeMap<String, u64>,
    /// Candidate profiles for `regress` queries, one per history group.
    regress_text: Vec<String>,
}

/// Write the history into a fresh store under `dir`, then
/// [`LIVE_RUNS`] earlier runs of each live group (cycling through that
/// group's `live` profiles), reopen it (index recovery), fold its closed
/// segments, start the daemon and wait until it answers a HELLO.
pub fn setup(dir: &Path, seed: u64, params: &Params, live: &[(&'static str, Profile)]) -> Daemon {
    let _ = std::fs::remove_dir_all(dir);
    let profiles = history_profiles(seed);
    let mut history: BTreeMap<String, u64> = BTreeMap::new();
    {
        let mut store = ProfileStore::open_with(dir, store_config()).expect("open history store");
        // Segments are numbered from 1: a run landing in segment
        // `closed_segments + 1` has that many closed segments before it.
        let mut tail = 0;
        for k in 0.. {
            let (group, profile) = &profiles[k as usize % profiles.len()];
            let receipt = store
                .ingest(group, THREADS as u32, k * 1_000, profile)
                .expect("append history run");
            *history.entry(group.to_string()).or_default() += 1;
            if receipt.segment > params.closed_segments {
                tail += 1;
                if tail == TAIL_RUNS {
                    break;
                }
            }
        }
        let mut groups: Vec<&str> = live.iter().map(|(g, _)| *g).collect();
        groups.sort_unstable();
        groups.dedup();
        for group in groups {
            let mine: Vec<&Profile> = live
                .iter()
                .filter(|(g, _)| *g == group)
                .map(|(_, p)| p)
                .collect();
            for k in 0..LIVE_RUNS {
                store
                    .ingest(group, THREADS as u32, k, mine[k as usize % mine.len()])
                    .expect("append live-group run");
            }
            *history.entry(group.to_string()).or_default() += LIVE_RUNS;
        }
    }
    let mut store = ProfileStore::open_with(dir, store_config()).expect("reopen history store");
    store.compact().expect("fold history segments");
    let (handle, join) =
        Server::spawn("127.0.0.1:0", store, ServeConfig::default()).expect("spawn profile daemon");
    let addr = handle.addr().to_string();
    Client::connect_proto(&addr, WireProtocol::Binary, ClientTimeouts::default())
        .expect("daemon answers HELLO");
    let regress_text = HISTORY_GROUPS
        .iter()
        .map(|g| {
            let (_, p) = profiles
                .iter()
                .find(|(a, _)| a == g)
                .expect("group profile");
            cube::write_profile(p)
        })
        .collect();
    Daemon {
        dir: dir.to_path_buf(),
        handle,
        join,
        addr,
        history,
        regress_text,
    }
}

impl Daemon {
    /// Stop the daemon and wait for its threads. The store stays on disk.
    pub fn stop(self) -> PathBuf {
        self.handle.stop();
        self.join
            .join()
            .expect("daemon thread panicked")
            .expect("daemon exits cleanly");
        self.dir
    }

    pub fn history_runs(&self) -> u64 {
        self.history.values().sum()
    }
}

/// Bytes of every file directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// What the exporters and the query loop saw.
pub struct Traffic {
    /// Ingest latency from the time the ingest was due, ms.
    pub ingest_ms: Vec<f64>,
    /// Whether spans were recorded for the matching `ingest_ms` sample.
    pub ingest_traced: Vec<bool>,
    /// How late the generator started each ingest, ms.
    pub late_ms: Vec<f64>,
    /// Connect + HELLO, ms.
    pub connect_ms: Vec<f64>,
    /// The `ingest_record` round trip alone, ms.
    pub ingest_rtt_ms: Vec<f64>,
    /// Query round trips, ms.
    pub query_ms: Vec<f64>,
    /// Completed queries per second of the query loop.
    pub queries_per_s: f64,
    /// Acknowledged ingests per group.
    pub acked: BTreeMap<String, u64>,
    /// Ingests that failed after the request may have reached the daemon.
    pub uncertain: u64,
    /// Store payload bytes of the acknowledged ingests.
    pub acked_payload_bytes: u64,
    pub exporter_log: SpanLog,
    pub query_log: SpanLog,
}

/// Sends a HELLO on a JSON connection the way a binary connection's
/// handshake does (JSON allows it but does not require it).
fn connect(addr: &str, proto: WireProtocol) -> Result<Client, ClientError> {
    let mut client = Client::connect_proto(addr, proto, ClientTimeouts::default())?;
    if proto == WireProtocol::Json {
        client.request(&Request::Hello {
            version: wire::WIRE_VERSION,
            features: 0,
            auth: None,
        })?;
    }
    Ok(client)
}

fn proto_of(flip: u64) -> WireProtocol {
    if flip.is_multiple_of(2) {
        WireProtocol::Json
    } else {
        WireProtocol::Binary
    }
}

/// Short failure class for the failure table.
fn failure_kind(what: &str, e: &ClientError) -> String {
    let text = e.to_string();
    let short: String = text.chars().take(60).collect();
    format!("{what}: {short}")
}

/// Run exporters (open loop at `params.rate_per_s`) and one closed-loop
/// query connection for at least `phase`, and until each side has
/// `params.min_samples` samples. `alternate_trace` records spans for
/// every other operation.
#[allow(clippy::too_many_arguments)]
pub fn traffic(
    daemon: &Daemon,
    pool: &[Record],
    params: &Params,
    phase: Duration,
    seed: u64,
    origin: Instant,
    alternate_trace: bool,
    tally: &mut Tally,
) -> Traffic {
    let exporters_done = AtomicBool::new(false);
    let queries_done = AtomicBool::new(false);
    let start = Instant::now();
    let finished = |mine: &AtomicBool, count: usize| {
        if count >= params.min_samples {
            mine.store(true, Ordering::SeqCst);
        }
        start.elapsed() >= phase
            && exporters_done.load(Ordering::SeqCst)
            && queries_done.load(Ordering::SeqCst)
    };
    let addr = daemon.addr.as_str();

    let (exp, qry) = std::thread::scope(|s| {
        let exporters = s.spawn(|| {
            let mut t = Tally::default();
            let mut log = SpanLog::new(origin, false, 1);
            let mut out = ExporterOut::default();
            let period = Duration::from_secs_f64(1.0 / params.rate_per_s);
            let mut k: u64 = 0;
            while !finished(&exporters_done, out.ingest_ms.len()) {
                let due = start + period.mul_f64(k as f64);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let began = Instant::now();
                // Pairs of ingests, so both protocols are traced alike.
                let traced = alternate_trace && (k / 2) % 2 == 1;
                log.set_enabled(traced);
                let record = &pool[k as usize % pool.len()];
                let proto = proto_of(k + seed);
                let op = log.op();
                let outer = log.enter("bench.export", op);
                let span = log.enter("profserve.connect", op);
                let client = connect(addr, proto);
                log.exit(span);
                let connected = Instant::now();
                let result = client.and_then(|mut c| {
                    let span = log.enter("profserve.ingest", op);
                    let r = c.ingest_record(record);
                    log.exit(span);
                    r
                });
                log.exit(outer);
                let done = Instant::now();
                match result {
                    Ok(_) => {
                        t.op(true, String::new);
                        out.ingest_ms.push(ms(done - due));
                        out.traced.push(traced);
                        out.late_ms.push(ms(began.saturating_duration_since(due)));
                        out.connect_ms.push(ms(connected - began));
                        out.rtt_ms.push(ms(done - connected));
                        *out.acked.entry(record.benchmark.clone()).or_default() += 1;
                        out.acked_payload_bytes += record.profile.len() as u64;
                    }
                    Err(e) => {
                        out.uncertain += 1;
                        t.op(false, || failure_kind("ingest", &e));
                    }
                }
                k += 1;
            }
            log.set_enabled(false);
            (out, log, t)
        });
        let queries = s.spawn(|| {
            let mut t = Tally::default();
            let mut log = SpanLog::new(origin, false, 2);
            let mut query_ms = Vec::new();
            let mut client: Option<Client> = None;
            let mut on_connection = 0u32;
            let mut reconnects = seed;
            let mut q: u64 = 0;
            let loop_start = Instant::now();
            while !finished(&queries_done, query_ms.len()) {
                if client.is_none() || on_connection >= QUERIES_PER_CONNECTION {
                    reconnects += 1;
                    on_connection = 0;
                    match connect(addr, proto_of(reconnects)) {
                        Ok(c) => client = Some(c),
                        Err(e) => {
                            client = None;
                            t.op(false, || failure_kind("query connect", &e));
                            continue;
                        }
                    }
                }
                let c = client.as_mut().expect("connected above");
                let group = (q / 4) as usize % HISTORY_GROUPS.len();
                // Whole rotations, so every query kind is traced alike.
                let traced = alternate_trace && (q / 4) % 2 == 1;
                log.set_enabled(traced);
                let op = log.op();
                let outer = log.enter("bench.query", op);
                let t0 = Instant::now();
                let result = query(c, (q + seed) % 4, group, &daemon.regress_text, &mut log, op);
                let dt = t0.elapsed();
                log.exit(outer);
                match result {
                    Ok(()) => {
                        t.op(true, String::new);
                        query_ms.push(ms(dt));
                    }
                    Err(e) => {
                        // A failed exchange can leave the connection out
                        // of step: count it and start a fresh one.
                        t.op(false, || failure_kind("query", &e));
                        client = None;
                    }
                }
                on_connection += 1;
                q += 1;
            }
            log.set_enabled(false);
            let qps = query_ms.len() as f64 / loop_start.elapsed().as_secs_f64();
            (query_ms, qps, log, t)
        });
        (
            exporters.join().expect("exporter thread panicked"),
            queries.join().expect("query thread panicked"),
        )
    });
    let (out, exporter_log, t_exp) = exp;
    let (query_ms, queries_per_s, query_log, t_qry) = qry;
    tally.absorb(t_exp);
    tally.absorb(t_qry);
    Traffic {
        ingest_ms: out.ingest_ms,
        ingest_traced: out.traced,
        late_ms: out.late_ms,
        connect_ms: out.connect_ms,
        ingest_rtt_ms: out.rtt_ms,
        query_ms,
        queries_per_s,
        acked: out.acked,
        uncertain: out.uncertain,
        acked_payload_bytes: out.acked_payload_bytes,
        exporter_log,
        query_log,
    }
}

#[derive(Default)]
struct ExporterOut {
    ingest_ms: Vec<f64>,
    traced: Vec<bool>,
    late_ms: Vec<f64>,
    connect_ms: Vec<f64>,
    rtt_ms: Vec<f64>,
    acked: BTreeMap<String, u64>,
    uncertain: u64,
    acked_payload_bytes: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One query of the rotation over one kernel's groups: windowed `top` of
/// its live group, `stats` of its history group, windowed `trend` of its
/// live group, `regress` against its history group.
fn query(
    c: &mut Client,
    kind: u64,
    group: usize,
    regress_text: &[String],
    log: &mut SpanLog,
    op: u64,
) -> Result<(), ClientError> {
    const SPANS: [&str; 4] = [
        "profserve.query_top",
        "profserve.query_stats",
        "profserve.query_trend",
        "profserve.query_regress",
    ];
    let threads = THREADS as u32;
    let (history, live) = (HISTORY_GROUPS[group], LIVE_GROUPS[group]);
    let span = log.enter(SPANS[kind as usize], op);
    let result = match kind {
        0 => c.query_top_window(live, threads, 10, LIVE_WINDOW).map(drop),
        1 => c.query_stats(history, threads).map(drop),
        2 => c.query_trend(live, threads, 8, LIVE_WINDOW).map(drop),
        _ => {
            let payload = ProfilePayload::Text(regress_text[group].clone());
            c.query_regress(history, threads, payload, None, None, None)
                .map(drop)
        }
    };
    log.exit(span);
    result
}

/// Daemon-side view after the traffic: mean server handling time of
/// ingests and of queries (µs), from the `STATS` latency histograms,
/// plus store shape.
pub struct ServerView {
    pub ingest_server_us: f64,
    pub query_server_us: f64,
    pub segments: u64,
    pub compacted_through: u64,
}

/// The closing checks: every acknowledged ingest is visible to a final
/// query, and a final `top` answer is byte-identical over JSON and
/// TPF1. Returns the daemon's own latency view.
pub fn final_checks(daemon: &Daemon, traffic: &Traffic, tally: &mut Tally) -> Option<ServerView> {
    let mut client = match connect(&daemon.addr, WireProtocol::Binary) {
        Ok(c) => c,
        Err(e) => {
            tally.op(false, || failure_kind("final connect", &e));
            return None;
        }
    };
    let mut groups: BTreeMap<&str, u64> = BTreeMap::new();
    for (g, n) in daemon.history.iter().chain(&traffic.acked) {
        *groups.entry(g.as_str()).or_default() += n;
    }
    for (group, expected) in groups {
        match client.query_stats(group, THREADS as u32) {
            Ok(report) => {
                let lo = expected;
                let hi = expected + traffic.uncertain;
                tally.check((lo..=hi).contains(&report.runs), || {
                    format!(
                        "{group}: final stats sees {} runs, acked total is {lo}",
                        report.runs
                    )
                });
            }
            Err(e) => {
                tally.op(false, || failure_kind("final stats", &e));
                client = match connect(&daemon.addr, WireProtocol::Binary) {
                    Ok(c) => c,
                    Err(_) => return None,
                };
            }
        }
    }

    // A live group: its answer changes with every ingest.
    let group = LIVE_GROUPS[0];
    let mut tops = Vec::new();
    for proto in [WireProtocol::Json, WireProtocol::Binary] {
        match connect(&daemon.addr, proto).and_then(|mut c| c.query_top(group, THREADS as u32, 10))
        {
            Ok(report) => tops.push(Response::Top(report).to_json_line()),
            Err(e) => tally.op(false, || failure_kind("final top", &e)),
        }
    }
    if let [json, bin] = &tops[..] {
        tally.check(json == bin, || {
            "final top differs between JSON and TPF1".to_string()
        });
    }

    let stats = match client.server_stats() {
        Ok(s) => s,
        Err(e) => {
            tally.op(false, || failure_kind("final server stats", &e));
            return None;
        }
    };
    let mean_us = |pick: &dyn Fn(&str) -> bool| {
        let (n, sum) = stats
            .latency
            .iter()
            .filter(|l| pick(&l.verb))
            .fold((0u64, 0u64), |(n, s), l| (n + l.count, s + l.sum_ns));
        if n == 0 {
            f64::NAN
        } else {
            sum as f64 / n as f64 / 1e3
        }
    };
    Some(ServerView {
        ingest_server_us: mean_us(&|v| v == "ingest"),
        query_server_us: mean_us(&|v| v.starts_with("query_")),
        segments: stats.store.segments,
        compacted_through: stats.store.compacted_through,
    })
}

/// Direct store calls on the records the daemon served: encode, append
/// into a scratch store, and the unbounded aggregate a `top` answer is
/// folded from, on the reopened served store. Medians, µs.
pub struct DirectStore {
    pub encode_us: f64,
    pub append_us: f64,
    pub query_us: f64,
}

pub fn direct_store(
    served_dir: &Path,
    scratch_dir: &Path,
    profiles: &[(&'static str, Profile)],
) -> DirectStore {
    let threads = THREADS as u32;
    let mut encode = Vec::new();
    let mut append = Vec::new();
    let _ = std::fs::remove_dir_all(scratch_dir);
    let mut scratch =
        ProfileStore::open_with(scratch_dir, store_config()).expect("open scratch store");
    for (i, (app, profile)) in profiles.iter().enumerate() {
        let meta = profstore::RunMeta {
            run_id: 0,
            benchmark: app.to_string(),
            threads,
            timestamp_ns: i as u64,
        };
        let t0 = Instant::now();
        std::hint::black_box(profstore::encode_record(&meta, profile));
        encode.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        scratch
            .ingest(app, threads, i as u64, profile)
            .expect("append to scratch store");
        append.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    drop(scratch);
    let _ = std::fs::remove_dir_all(scratch_dir);

    let mut served =
        ProfileStore::open_with(served_dir, store_config()).expect("reopen served store");
    served.compact().expect("fold served segments");
    let mut query = Vec::new();
    for i in 0..16 {
        let group = HISTORY_GROUPS[i % HISTORY_GROUPS.len()];
        let t0 = Instant::now();
        std::hint::black_box(
            served
                .aggregate(group, threads)
                .expect("aggregate served group"),
        );
        query.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    DirectStore {
        encode_us: median(&encode).unwrap_or(f64::NAN),
        append_us: median(&append).unwrap_or(f64::NAN),
        query_us: median(&query).unwrap_or(f64::NAN),
    }
}
