//! Mixed-protocol end-to-end: line-delimited JSON clients and TPF1
//! binary clients hammer the same daemon concurrently — including the
//! batched binary ingest path — and no run is lost or duplicated. Also
//! pins the protocol-restriction modes: a `json`-only server refuses the
//! binary preamble, a `bin`-only server refuses JSON lines. And it pins
//! that a binary frame is never mistaken for a JSON line, whatever its
//! length.

use profserve::{
    wire, Client, ClientError, ClientTimeouts, ErrorKind, Record, Request, Response, ServeConfig,
    Server, WireProtocol,
};
use profstore::{ProfileStore, RunWindow};
use std::collections::HashSet;
use std::path::PathBuf;
use taskprof_session::MeasurementSession;
use taskrt::TaskConstruct;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wire-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_server(
    dir: &std::path::Path,
    config: ServeConfig,
) -> (
    profserve::ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let store = ProfileStore::open(dir).expect("open store");
    Server::spawn("127.0.0.1:0", store, config).expect("spawn server")
}

/// One deterministic seeded measurement, as text-store-format bytes.
fn profile_text(seed: u64) -> String {
    let task = TaskConstruct::new("wire_e2e_task");
    let tw = taskrt::taskwait_region("wire-e2e!tw");
    let session = MeasurementSession::builder("wire-e2e")
        .threads(2)
        .deterministic(seed)
        .build()
        .expect("valid session");
    session
        .run(|ctx| {
            for _ in 0..3 {
                ctx.task(&task, |_| {});
            }
            ctx.taskwait(tw);
        })
        .unwrap();
    cube::write_profile(&session.finish().profile)
}

#[test]
fn mixed_protocol_clients_lose_and_duplicate_nothing() {
    const CLIENTS: usize = 6;
    const RUNS_PER_CLIENT: usize = 6;
    const BATCH: usize = 3;

    let dir = temp_dir("mixed");
    let (handle, join) = spawn_server(
        &dir,
        ServeConfig {
            max_connections: CLIENTS + 4,
            ..ServeConfig::default()
        },
    );
    let addr = handle.addr().to_string();

    // Even workers speak JSON, odd workers speak TPF1; binary workers
    // upload half their runs through one batched ingest so the bulk path
    // contends with per-record traffic on the same store.
    let workers: Vec<_> = (0..CLIENTS)
        .map(|w| {
            let addr = addr.clone();
            std::thread::spawn(move || -> Vec<u64> {
                let proto = if w % 2 == 0 {
                    WireProtocol::Json
                } else {
                    WireProtocol::Binary
                };
                let mut client = Client::connect_proto(&addr, proto, ClientTimeouts::unbounded())
                    .expect("connect");
                assert_eq!(client.protocol(), proto);
                let records: Vec<Record> = (0..RUNS_PER_CLIENT)
                    .map(|k| {
                        let seed = (w * RUNS_PER_CLIENT + k) as u64;
                        Record::from_text("wire-bench", 2, Some(seed), profile_text(seed))
                    })
                    .collect();
                let mut ids = Vec::new();
                if proto == WireProtocol::Binary {
                    let receipt = client.ingest_batch(&records[..BATCH]).expect("batch");
                    assert_eq!(receipt.count, BATCH as u64);
                    ids.extend(receipt.first_run_id..receipt.first_run_id + BATCH as u64);
                    for record in &records[BATCH..] {
                        ids.push(client.ingest_record(record).expect("ingest").run_id());
                    }
                } else {
                    for record in &records {
                        ids.push(client.ingest_record(record).expect("ingest").run_id());
                    }
                }
                // Reads interleave with the other workers' writes.
                let top = client.query_top("wire-bench", 2, 5).expect("query");
                assert!(top.runs >= 1);
                ids
            })
        })
        .collect();

    let mut all_ids = Vec::new();
    for worker in workers {
        all_ids.extend(worker.join().expect("worker panicked"));
    }
    let expected = CLIENTS * RUNS_PER_CLIENT;
    assert_eq!(all_ids.len(), expected);
    let unique: HashSet<u64> = all_ids.iter().copied().collect();
    assert_eq!(unique.len(), expected, "duplicated run ids: {all_ids:?}");

    // Both protocols served requests, and every acknowledged run landed.
    let mut client = Client::connect(&addr).expect("connect");
    let stats = client.query_stats("wire-bench", 2).expect("stats");
    assert_eq!(stats.runs, expected as u64);
    let health = client.server_stats().expect("server stats");
    assert!(health.service.json_requests > 0, "no JSON traffic seen");
    assert!(health.service.bin_requests > 0, "no binary traffic seen");
    assert_eq!(health.service.ingest_batches, CLIENTS as u64 / 2);
    assert_eq!(health.service.panics, 0);

    handle.stop();
    drop(client);
    join.join().expect("join").expect("run");
    drop(handle);

    let store = ProfileStore::open(&dir).expect("reopen");
    assert_eq!(store.stats().runs, expected as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restricted_servers_refuse_the_other_protocol() {
    // A json-only server: binary handshakes are refused, Auto clients
    // fall back to JSON and work.
    let dir = temp_dir("json-only");
    let (handle, join) = spawn_server(
        &dir,
        ServeConfig {
            protocols: WireProtocol::Json,
            ..ServeConfig::default()
        },
    );
    let addr = handle.addr().to_string();
    let err = match Client::connect_proto(&addr, WireProtocol::Binary, ClientTimeouts::unbounded())
    {
        Ok(_) => panic!("binary must be refused by a json-only server"),
        Err(e) => e,
    };
    assert!(
        matches!(err, ClientError::Server { kind: ErrorKind::BadRequest, .. }),
        "unexpected refusal: {err:?}"
    );
    let mut auto = Client::connect(&addr).expect("auto falls back");
    assert_eq!(auto.protocol(), WireProtocol::Json);
    auto.ingest_record(&Record::from_text("fallback", 2, Some(1), profile_text(1)))
        .expect("ingest over fallback");
    handle.stop();
    drop(auto);
    join.join().expect("join").expect("run");
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);

    // A bin-only server: JSON clients get a typed bad_request and the
    // connection closes; binary clients work.
    let dir = temp_dir("bin-only");
    let (handle, join) = spawn_server(
        &dir,
        ServeConfig {
            protocols: WireProtocol::Binary,
            ..ServeConfig::default()
        },
    );
    let addr = handle.addr().to_string();
    let mut json = Client::connect_proto(&addr, WireProtocol::Json, ClientTimeouts::unbounded())
        .expect("tcp connect succeeds");
    let err = json
        .ingest_record(&Record::from_text("refused", 2, Some(1), profile_text(1)))
        .expect_err("json must be refused");
    assert!(
        matches!(err, ClientError::Server { kind: ErrorKind::BadRequest, .. }),
        "unexpected refusal: {err:?}"
    );
    let mut bin = Client::connect_proto(&addr, WireProtocol::Binary, ClientTimeouts::unbounded())
        .expect("binary connects");
    bin.ingest_record(&Record::from_text("allowed", 2, Some(1), profile_text(1)))
        .expect("ingest over binary");
    handle.stop();
    drop(bin);
    join.join().expect("join").expect("run");
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Ask a binary connection for the `not_found` answer to a `stats` query
/// of an unknown benchmark whose name is padded until the response
/// payload is exactly `target` bytes long.
fn not_found_of_size(client: &mut Client, target: usize) -> Response {
    let mut pad = 1usize;
    for _ in 0..8 {
        let benchmark = format!("absent-{}", "x".repeat(pad));
        let response = client
            .request(&Request::QueryStats {
                benchmark: benchmark.clone(),
                threads: 2,
                window: RunWindow::default(),
            })
            .expect("stats query answered");
        match &response {
            Response::Error {
                kind: ErrorKind::NotFound,
                message,
            } => assert!(message.contains(&benchmark), "{message}"),
            other => panic!("expected not_found, got {other:?}"),
        }
        let len = wire::encode_response(&response).len();
        if len == target {
            return response;
        }
        pad = (pad + target)
            .checked_sub(len)
            .expect("target below the minimum size");
    }
    panic!("could not shape a {target}-byte response");
}

#[test]
fn binary_frames_whose_length_starts_with_a_brace_round_trip() {
    // A frame opens with its u32le payload length; at 123 and 379 bytes
    // the first byte is `{`, which once made the client read the frame as
    // a JSON line and lose step with the server.
    let dir = temp_dir("brace");
    let (handle, join) = spawn_server(&dir, ServeConfig::default());
    let addr = handle.addr().to_string();
    let mut client = Client::connect_proto(&addr, WireProtocol::Binary, ClientTimeouts::default())
        .expect("binary connects");
    for target in [123usize, 379] {
        assert_eq!(target & 0xFF, usize::from(b'{'));
        let response = not_found_of_size(&mut client, target);
        assert_eq!(wire::encode_response(&response).len(), target);
    }
    // The connection is still in step: a normal request answers.
    client
        .ingest_record(&Record::from_text("brace", 2, Some(1), profile_text(1)))
        .expect("ingest after the brace-length frames");
    assert_eq!(client.query_stats("brace", 2).expect("stats").runs, 1);
    handle.stop();
    drop(client);
    join.join().expect("join").expect("run");
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}
