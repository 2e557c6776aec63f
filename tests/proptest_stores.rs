//! Robustness of the persistence parsers: arbitrary input must never
//! panic, and serialize→parse must round-trip for generated profiles.

use cube::{read_profile, write_profile};
use pomp::TaskIdAllocator;
use proptest::prelude::*;
use taskprof::{AssignPolicy, Event, Profile, TeamReplayer};
use taskprof_trace::{read_trace, write_trace, EventKind, Trace, TraceEvent};

use profstore::segment::{SegmentReader, SegmentWriter};
use profstore::{decode_record, encode_record, BenchAgg, MetricAgg, RealIo, RunMeta};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use taskprof::{NodeKind, SnapNode, Stats, ThreadSnapshot};

/// A unique scratch path per proptest case (cases run concurrently
/// within one process and leftovers from failed cases must not alias).
fn scratch_path(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "taskprof-proptest-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}


/// Generate a valid random profile via replay.
fn arb_profile() -> impl Strategy<Value = Profile> {
    (1usize..4, prop::collection::vec((1u64..100, 0usize..3), 0..20)).prop_map(
        |(nthreads, tasks)| {
            // Register the fixture regions (ids 9700.. may not exist in the
            // global registry yet when this test runs first).
            let reg = pomp::registry();
            let par = reg.register("ps-par", pomp::RegionKind::Parallel, "t", 0);
            let task = reg.register("ps-task", pomp::RegionKind::Task, "t", 0);
            let bar = reg.register("ps-bar", pomp::RegionKind::ImplicitBarrier, "t", 0);
            let ids = TaskIdAllocator::new();
            let mut team = TeamReplayer::new(nthreads, par, AssignPolicy::Executing);
            for tid in 0..nthreads {
                team.apply(tid, Event::Enter(bar));
            }
            for (dur, tid_raw) in tasks {
                let tid = tid_raw % nthreads;
                let id = ids.alloc();
                team.apply(tid, Event::TaskBegin { region: task, id })
                    .advance(dur)
                    .apply(tid, Event::TaskEnd { region: task, id });
            }
            for tid in 0..nthreads {
                team.apply(tid, Event::Exit(bar));
            }
            team.finish()
        },
    )
}

/// The cross-run fold as it was first written, kept as the oracle for
/// the in-place one: thread-merge each run with `cube::AggProfile`, sum
/// its per-construct totals over the merged trees, and rebuild the group
/// trees with `cube::merge_nodes`.
#[derive(Default)]
struct ReferenceAgg {
    runs: u64,
    total_ns: MetricAgg,
    regions: BTreeMap<String, MetricAgg>,
    merged_main: Option<SnapNode>,
    merged_tasks: Vec<SnapNode>,
    tree_mismatches: u64,
}

impl ReferenceAgg {
    fn fold(&mut self, profile: &Profile) {
        let agg = cube::AggProfile::from_profile(profile);
        let reg = pomp::registry();
        let mut regions: BTreeMap<String, u64> = BTreeMap::new();
        for tree in std::iter::once(&agg.main).chain(&agg.task_trees) {
            tree.walk(&mut |_, node| {
                let key = match node.kind {
                    NodeKind::Region(id) => reg.name(id),
                    NodeKind::Stub(id) => format!("{} (stub)", reg.name(id)),
                    NodeKind::Param(..) | NodeKind::Truncated => return,
                };
                *regions.entry(key).or_insert(0) += node.stats.sum_ns;
            });
        }
        self.runs += 1;
        self.total_ns.fold(agg.main.stats.sum_ns);
        for (key, ns) in regions {
            self.regions.entry(key).or_default().fold(ns);
        }
        match &mut self.merged_main {
            None => {
                self.merged_main = Some(agg.main.clone());
                self.merged_tasks = agg.task_trees.clone();
            }
            Some(main) if main.kind == agg.main.kind => {
                *main = cube::merge_nodes(&[&*main, &agg.main]);
                for tree in &agg.task_trees {
                    match self.merged_tasks.iter_mut().find(|t| t.kind == tree.kind) {
                        Some(existing) => *existing = cube::merge_nodes(&[&*existing, tree]),
                        None => self.merged_tasks.push(tree.clone()),
                    }
                }
            }
            Some(_) => self.tree_mismatches += 1,
        }
    }
}

/// splitmix64, so one proptest seed drives the whole profile generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// Node identities for generated profiles: two parallel roots (runs
/// rooted differently mismatch), two region kinds sharing one name, a
/// region whose name equals a stub's display key, stubs, parameter
/// values and truncated nodes.
struct FoldKinds {
    roots: [NodeKind; 2],
    tasks: [NodeKind; 3],
    inner: Vec<NodeKind>,
}

fn fold_kinds() -> FoldKinds {
    use pomp::RegionKind as K;
    let reg = pomp::registry();
    let r = |name: &str, kind| NodeKind::Region(reg.register(name, kind, "t", 0));
    let shared_task = reg.register("fold-shared", K::Task, "t", 0);
    let other_task = reg.register("fold-task", K::Task, "t", 0);
    let depth = reg.register_param("fold-depth");
    let mut inner = vec![
        NodeKind::Region(shared_task),
        r("fold-shared", K::Function),
        NodeKind::Region(other_task),
        r("fold-wait", K::Taskwait),
        r("fold-task (stub)", K::Function),
        NodeKind::Stub(shared_task),
        NodeKind::Stub(other_task),
        NodeKind::Truncated,
    ];
    inner.extend((-2..=2).map(|v| NodeKind::Param(depth, v)));
    FoldKinds {
        roots: [r("fold-root-a", K::Parallel), r("fold-root-b", K::Parallel)],
        tasks: [
            NodeKind::Region(shared_task),
            NodeKind::Region(other_task),
            r("fold-shared", K::Function),
        ],
        inner,
    }
}

fn random_stats(rng: &mut Rng) -> Stats {
    let mut stats = Stats::new();
    stats.visits = rng.below(5);
    stats.samples = rng.below(stats.visits + 1);
    stats.sum_ns = rng.below(1_000);
    if stats.samples > 0 {
        stats.min_ns = rng.below(100);
        stats.max_ns = stats.min_ns + rng.below(500);
    }
    stats.aborted = rng.below(3) / 2;
    stats
}

/// A random tree; siblings may repeat a kind (the merges fold those
/// together too).
fn random_tree(rng: &mut Rng, kinds: &FoldKinds, kind: NodeKind, depth: u32) -> SnapNode {
    let fanout = if depth >= 4 { 0 } else { rng.below(4) };
    SnapNode {
        kind,
        stats: random_stats(rng),
        children: (0..fanout)
            .map(|_| {
                let child = rng.pick(&kinds.inner);
                random_tree(rng, kinds, child, depth + 1)
            })
            .collect(),
    }
}

/// A profile of 1–3 threads sharing one (randomly chosen) root.
fn random_profile(rng: &mut Rng, kinds: &FoldKinds) -> Profile {
    let root = rng.pick(&kinds.roots);
    let threads = (0..1 + rng.below(3) as usize)
        .map(|tid| ThreadSnapshot {
            tid,
            parallel_region: match root {
                NodeKind::Region(id) => id,
                _ => unreachable!("roots are regions"),
            },
            main: random_tree(rng, kinds, root, 0),
            task_trees: (0..rng.below(4))
                .map(|_| {
                    let kind = rng.pick(&kinds.tasks);
                    random_tree(rng, kinds, kind, 1)
                })
                .collect(),
            max_live_trees: 1,
            arena_capacity: 0,
            shed_instances: 0,
            diagnostics: Vec::new(),
        })
        .collect();
    Profile { threads }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The single-walk, in-place `BenchAgg::fold` equals the reference
    /// fold field for field, over random multi-thread profiles folded in
    /// random orders (mismatched roots included).
    #[test]
    fn in_place_fold_matches_the_merge_nodes_reference(seed in any::<u64>()) {
        let kinds = fold_kinds();
        let mut rng = Rng(seed);
        let mut profiles: Vec<Profile> =
            (0..1 + rng.below(6)).map(|_| random_profile(&mut rng, &kinds)).collect();
        // A random fold order (Fisher–Yates).
        for i in (1..profiles.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            profiles.swap(i, j);
        }
        let mut fast = BenchAgg::new();
        let mut reference = ReferenceAgg::default();
        for p in &profiles {
            fast.fold(p);
            reference.fold(p);
        }
        prop_assert_eq!(fast.runs, reference.runs);
        prop_assert_eq!(fast.total_ns, reference.total_ns);
        prop_assert_eq!(&fast.regions, &reference.regions);
        prop_assert_eq!(&fast.merged_main, &reference.merged_main);
        prop_assert_eq!(&fast.merged_tasks, &reference.merged_tasks);
        prop_assert_eq!(fast.tree_mismatches, reference.tree_mismatches);
    }

    #[test]
    fn profile_parser_never_panics(input in ".{0,400}") {
        let _ = read_profile(&input);
    }

    #[test]
    fn trace_parser_never_panics(input in ".{0,400}") {
        let _ = read_trace(&input);
    }

    #[test]
    fn profile_parser_never_panics_on_mutated_valid_input(
        p in arb_profile(),
        cut in 0.0f64..1.0,
    ) {
        let text = write_profile(&p);
        let keep = (text.len() as f64 * cut) as usize;
        let _ = read_profile(&text[..keep.min(text.len())]);
    }

    #[test]
    fn generated_profiles_round_trip(p in arb_profile()) {
        let text = write_profile(&p);
        let q = read_profile(&text).expect("own output must parse");
        prop_assert_eq!(p.threads.len(), q.threads.len());
        for (a, b) in p.threads.iter().zip(&q.threads) {
            prop_assert_eq!(&a.main, &b.main);
            prop_assert_eq!(&a.task_trees, &b.task_trees);
        }
    }

    #[test]
    fn generated_traces_round_trip(
        n_events in 0usize..50,
        seed in any::<u64>(),
    ) {
        // Synthesize a structurally arbitrary (not necessarily
        // semantically valid) trace: store/load must still round-trip.
        let reg = pomp::registry();
        let task = reg.register("ps-tr-task", pomp::RegionKind::Task, "t", 0);
        let bar = reg.register("ps-tr-bar", pomp::RegionKind::ImplicitBarrier, "t", 0);
        let ids = TaskIdAllocator::new();
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        let events: Vec<TraceEvent> = (0..n_events)
            .map(|i| {
                let id = ids.alloc();
                let kind = match next() % 5 {
                    0 => EventKind::Enter(bar),
                    1 => EventKind::Exit(bar),
                    2 => EventKind::TaskBegin(task, id),
                    3 => EventKind::TaskEnd(task, id),
                    _ => EventKind::TaskSwitch(pomp::TaskRef::Explicit(id)),
                };
                TraceEvent { t: i as u64, tid: (next() % 4) as usize, kind }
            })
            .collect();
        let trace = Trace { events, nthreads: 4 };
        let text = write_trace(&trace);
        let back = read_trace(&text).expect("own output must parse");
        prop_assert_eq!(trace.len(), back.len());
        for (a, b) in trace.events.iter().zip(&back.events) {
            prop_assert_eq!(a.t, b.t);
            prop_assert_eq!(a.tid, b.tid);
            prop_assert_eq!(a.kind, b.kind);
        }
    }

    /// Every proper prefix of an encoded record (LEB128 varints + length
    /// prefixed strings inside) must decode to a typed error — never a
    /// panic, never a bogus success.
    #[test]
    fn record_codec_truncation_is_always_a_typed_error(
        p in arb_profile(),
        cut in 0.0f64..1.0,
    ) {
        let meta = RunMeta {
            run_id: 7,
            benchmark: "proptest".to_string(),
            threads: p.threads.len() as u32,
            timestamp_ns: 1234,
        };
        let payload = encode_record(&meta, &p);
        let keep = ((payload.len() as f64 * cut) as usize).min(payload.len() - 1);
        prop_assert!(
            decode_record(&payload[..keep]).is_err(),
            "a {keep}-byte prefix of a {}-byte record decoded successfully",
            payload.len()
        );
    }

    /// A single flipped bit anywhere in a record payload must not panic
    /// the decoder (it may still decode when the flip lands in a
    /// non-load-bearing byte, e.g. a benchmark-name character — the CRC
    /// layer above the codec is what detects those).
    #[test]
    fn record_codec_bit_flip_never_panics(
        p in arb_profile(),
        pos in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let meta = RunMeta {
            run_id: 1,
            benchmark: "proptest-flip".to_string(),
            threads: p.threads.len() as u32,
            timestamp_ns: 1,
        };
        let mut payload = encode_record(&meta, &p);
        let at = ((payload.len() as f64 * pos) as usize).min(payload.len() - 1);
        payload[at] ^= 1 << bit;
        let _ = decode_record(&payload);
    }

    /// A single flipped bit in a CRC-framed segment is always detected:
    /// the scan stops with a tail defect instead of serving the damaged
    /// frame (a flip inside the magic voids the whole file).
    #[test]
    fn segment_bit_flip_is_always_detected_by_scan(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..60), 1..5),
        pos in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let path = scratch_path("flip");
        let io = RealIo;
        {
            let mut w = SegmentWriter::create(&io, &path, false).expect("create");
            for p in &payloads {
                w.append(p).expect("append");
            }
        }
        let mut bytes = std::fs::read(&path).expect("read");
        let at = ((bytes.len() as f64 * pos) as usize).min(bytes.len() - 1);
        bytes[at] ^= 1 << bit;
        std::fs::write(&path, &bytes).expect("rewrite");

        let scan = SegmentReader::scan(&io, &path).expect("scan is total");
        prop_assert!(
            scan.tail_defect.is_some(),
            "flipped bit {bit} at byte {at} went undetected \
             ({} of {} records scanned clean)",
            scan.records.len(),
            payloads.len()
        );
        prop_assert!(scan.records.len() < payloads.len() || scan.valid_len == 0);
        let _ = std::fs::remove_file(&path);
    }

    /// Truncating a segment at any byte never panics the scan, never
    /// yields more records than were written, and never claims valid
    /// bytes past the truncation point.
    #[test]
    fn segment_truncation_never_panics_scan(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..60), 1..5),
        cut in 0.0f64..1.0,
    ) {
        let path = scratch_path("trunc");
        let io = RealIo;
        {
            let mut w = SegmentWriter::create(&io, &path, false).expect("create");
            for p in &payloads {
                w.append(p).expect("append");
            }
        }
        let bytes = std::fs::read(&path).expect("read");
        let keep = ((bytes.len() as f64 * cut) as usize).min(bytes.len() - 1);
        std::fs::write(&path, &bytes[..keep]).expect("rewrite");

        let scan = SegmentReader::scan(&io, &path).expect("scan is total");
        prop_assert!(scan.records.len() < payloads.len());
        prop_assert!(scan.valid_len <= keep as u64);
        prop_assert!(scan.tail_defect.is_some() || scan.valid_len == keep as u64);
        let _ = std::fs::remove_file(&path);
    }
}
