//! Property-based tests of the profiling algorithm.
//!
//! The plan generator and event emitter live in `test_util::body` (they
//! are shared with the golden-profile tests); this suite replays the
//! generated executions through the profiler under virtual time and
//! checks the invariants the paper's algorithm promises. The call-tree
//! arena itself is checked against a naive model with `Vec` children.

use pomp::{ParamId, RegionId, TaskIdAllocator};
use proptest::prelude::*;
use taskprof::tree::{Arena, NodeId};
use taskprof::{AssignPolicy, Event, NodeKind, Replayer, Stats, ThreadProfile, ThreadSnapshot};
use test_util::body::{body_strategy, emit, subtree_ok, Body, BARRIER, PAR};

struct Run {
    snap: ThreadSnapshot,
    total_time: u64,
    instances: u64,
    max_live: usize,
}

fn run_plan(plan: &[Body], policy: AssignPolicy) -> Run {
    let ids = TaskIdAllocator::new();
    let mut r = Replayer::new(PAR, policy);
    let mut max_live = 0usize;
    r.apply(Event::Enter(BARRIER));
    emit(&mut r, &ids, plan, &mut max_live);
    r.apply(Event::Advance(1));
    r.apply(Event::Exit(BARRIER));
    let total_time = r.now();
    let instances = ids.allocated();
    let snap = r.finish(0);
    Run {
        snap,
        total_time,
        instances,
        max_live,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn executing_policy_invariants(plan in prop::collection::vec(body_strategy(4), 1..6)) {
        let run = run_plan(&plan, AssignPolicy::Executing);
        let snap = &run.snap;

        // 1. The root's inclusive time equals total virtual time.
        prop_assert_eq!(snap.main.stats.sum_ns, run.total_time);

        // 2. Structural sanity everywhere.
        subtree_ok(&snap.main, true).map_err(TestCaseError::fail)?;
        for t in &snap.task_trees {
            subtree_ok(t, true).map_err(TestCaseError::fail)?;
        }

        // 3. Every created instance completed and is accounted exactly
        //    once across the aggregate task trees.
        let completed: u64 = snap.task_trees.iter().map(|t| t.stats.samples).sum();
        prop_assert_eq!(completed, run.instances);

        // 4. Total task-tree time == total stub time (every executed
        //    fragment is mirrored in the implicit tree).
        let task_time: u64 = snap.task_trees.iter().map(|t| t.stats.sum_ns).sum();
        let mut stub_time = 0u64;
        snap.main.walk(&mut |_, n| {
            if matches!(n.kind, NodeKind::Stub(_)) {
                stub_time += n.stats.sum_ns;
            }
        });
        prop_assert_eq!(task_time, stub_time);

        // 5. Task time never exceeds wall time (suspension subtracted).
        prop_assert!(task_time <= run.total_time);

        // 6. The live-tree high-water mark matches what we observed while
        //    driving, and memory is bounded by it: after completion the
        //    arena kept no leaked instance nodes beyond the aggregates.
        prop_assert_eq!(snap.max_live_trees, run.max_live);
    }

    #[test]
    fn node_reuse_bounds_arena(plan in prop::collection::vec(body_strategy(3), 1..5)) {
        // Memory must be bounded by the *concurrent* shape, not the total
        // instance count (paper Section V-B): after the aggregate trees
        // have been fully built (pass 2), repeating the identical
        // workload allocates no further arena slots.
        let ids = TaskIdAllocator::new();
        let mut r = Replayer::new(PAR, AssignPolicy::Executing);
        let mut ml = 0usize;
        r.apply(Event::Enter(BARRIER));
        emit(&mut r, &ids, &plan, &mut ml);
        emit(&mut r, &ids, &plan, &mut ml);
        let cap_after_second = r.profile().arena_capacity();
        for _ in 0..3 {
            emit(&mut r, &ids, &plan, &mut ml);
        }
        let cap_after_fifth = r.profile().arena_capacity();
        r.apply(Event::Exit(BARRIER));
        let _ = r.finish(0);
        prop_assert_eq!(cap_after_second, cap_after_fifth);
    }

    #[test]
    fn policies_agree_on_wall_time(plan in prop::collection::vec(body_strategy(3), 1..5)) {
        let a = run_plan(&plan, AssignPolicy::Executing);
        let b = run_plan(&plan, AssignPolicy::Creating);
        prop_assert_eq!(a.snap.main.stats.sum_ns, b.snap.main.stats.sum_ns);
        // Creating policy hangs instances in the main tree: no aggregate
        // task trees.
        prop_assert!(b.snap.task_trees.is_empty());
    }

    #[test]
    fn merge_is_associative_for_thread_aggregation(
        plan in prop::collection::vec(body_strategy(3), 1..4),
    ) {
        // Aggregating [A, B, C] at once equals aggregating [A, [B, C]].
        let runs: Vec<ThreadSnapshot> = (0..3).map(|i| {
            let mut r = run_plan(&plan, AssignPolicy::Executing);
            r.snap.tid = i;
            r.snap
        }).collect();
        let all = cube::merge_nodes(&[&runs[0].main, &runs[1].main, &runs[2].main]);
        let bc = cube::merge_nodes(&[&runs[1].main, &runs[2].main]);
        let nested = cube::merge_nodes(&[&runs[0].main, &bc]);
        prop_assert_eq!(all, nested);
    }
}

/// The arena as it is specified: every node owns a `Vec` of its children
/// in creation order, released nodes go onto a LIFO free list.
#[derive(Default)]
struct ModelArena {
    nodes: Vec<ModelNode>,
    free: Vec<usize>,
}

struct ModelNode {
    kind: NodeKind,
    parent: Option<usize>,
    children: Vec<usize>,
    stats: Stats,
}

impl ModelArena {
    fn alloc(&mut self, kind: NodeKind, parent: Option<usize>) -> usize {
        let node = ModelNode {
            kind,
            parent,
            children: Vec::new(),
            stats: Stats::new(),
        };
        match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        }
    }

    fn child_of(&mut self, parent: usize, kind: NodeKind) -> usize {
        let children = &self.nodes[parent].children;
        if let Some(&c) = children.iter().find(|&&c| self.nodes[c].kind == kind) {
            return c;
        }
        let c = self.alloc(kind, Some(parent));
        self.nodes[parent].children.push(c);
        c
    }

    fn merge_into(&mut self, src: usize, dst: usize) {
        let stats = self.nodes[src].stats;
        self.nodes[dst].stats.merge(&stats);
        for child in std::mem::take(&mut self.nodes[src].children) {
            let dst_child = self.child_of(dst, self.nodes[child].kind);
            self.merge_into(child, dst_child);
        }
        self.free.push(src);
    }

    fn release_subtree(&mut self, root: usize) {
        for c in std::mem::take(&mut self.nodes[root].children) {
            self.release_subtree(c);
        }
        self.free.push(root);
    }

    fn preorder(&self, root: usize, out: &mut Vec<usize>) {
        out.push(root);
        for &c in &self.nodes[root].children {
            self.preorder(c, out);
        }
    }
}

const MODEL_KINDS: [NodeKind; 6] = [
    NodeKind::Region(RegionId(1)),
    NodeKind::Region(RegionId(2)),
    NodeKind::Region(RegionId(3)),
    NodeKind::Stub(RegionId(1)),
    NodeKind::Param(ParamId(0), 7),
    NodeKind::Truncated,
];

/// One random arena operation: (op, pick, pick, kind).
type ArenaOp = (u8, u16, u16, u8);

fn check_against_model(
    arena: &Arena,
    model: &ModelArena,
    ids: &[NodeId],
    roots: &[usize],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(arena.live_nodes(), model.nodes.len() - model.free.len());
    prop_assert_eq!(arena.capacity_nodes(), model.nodes.len());
    let mut nodes = Vec::new();
    for &r in roots {
        model.preorder(r, &mut nodes);
    }
    for i in nodes {
        let (m, a) = (&model.nodes[i], arena.node(ids[i]));
        prop_assert_eq!(a.kind, m.kind);
        prop_assert_eq!(a.parent.map(NodeId::index), m.parent);
        prop_assert_eq!(a.stats, m.stats);
        let children: Vec<usize> = arena.children(ids[i]).map(NodeId::index).collect();
        prop_assert_eq!(&children, &m.children);
        let mut subtree = Vec::new();
        model.preorder(i, &mut subtree);
        prop_assert_eq!(arena.subtree_size(ids[i]), subtree.len());
    }
    Ok(())
}

/// Record the arena's handle for model index `expected`.
fn remember(ids: &mut Vec<NodeId>, id: NodeId, expected: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(id.index(), expected);
    if ids.len() <= expected {
        ids.resize(expected + 1, id);
    }
    ids[expected] = id;
    Ok(())
}

fn run_arena_ops(ops: &[ArenaOp]) -> Result<(), TestCaseError> {
    let mut arena = Arena::new();
    let mut model = ModelArena::default();
    // Handle of every arena index; model and arena hand out the same
    // indices because both recycle through a LIFO free list.
    let mut ids: Vec<NodeId> = Vec::new();
    let mut roots: Vec<usize> = Vec::new();
    for &(op, a, b, k) in ops {
        let kind = MODEL_KINDS[k as usize % MODEL_KINDS.len()];
        let mut all = Vec::new();
        for &r in &roots {
            model.preorder(r, &mut all);
        }
        match op % 5 {
            // alloc a detached root
            0 => {
                let m = model.alloc(kind, None);
                let id = arena.alloc(kind, None);
                remember(&mut ids, id, m)?;
                roots.push(m);
            }
            // find-or-create a child under any live node
            1 if !all.is_empty() => {
                let parent = all[a as usize % all.len()];
                let m = model.child_of(parent, kind);
                let id = arena.child_of(ids[parent], kind);
                remember(&mut ids, id, m)?;
                prop_assert_eq!(arena.find_child(ids[parent], kind), Some(ids[m]));
            }
            // record a sample on any live node
            2 if !all.is_empty() => {
                let n = all[a as usize % all.len()];
                model.nodes[n].stats.record(u64::from(b));
                arena.node_mut(ids[n]).stats.record(u64::from(b));
            }
            // merge one detached tree into a node of another
            3 if roots.len() >= 2 => {
                let src_at = a as usize % roots.len();
                let src = roots.remove(src_at);
                let mut others = Vec::new();
                for &r in &roots {
                    model.preorder(r, &mut others);
                }
                let dst = others[b as usize % others.len()];
                // The merge allocates: mirror every allocation's index.
                let before = model.nodes.len();
                model.merge_into(src, dst);
                arena.merge_into(ids[src], ids[dst]);
                // Reused slots keep their index and handle.
                for i in before..model.nodes.len() {
                    let parent = model.nodes[i].parent.expect("merge creates children only");
                    let id = arena.find_child(ids[parent], model.nodes[i].kind);
                    remember(&mut ids, id.expect("merged child exists"), i)?;
                }
            }
            // release a detached tree
            4 if !roots.is_empty() => {
                let r = roots.remove(a as usize % roots.len());
                model.release_subtree(r);
                arena.release_subtree(ids[r]);
            }
            _ => {}
        }
        check_against_model(&arena, &model, &ids, &roots)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arena_matches_vec_children_model(
        ops in prop::collection::vec((0u8..5, any::<u16>(), any::<u16>(), 0u8..6), 1..80),
    ) {
        run_arena_ops(&ops)?;
    }
}

#[test]
fn sequential_instances_reuse_nodes_and_slots() {
    // Section V-B: after the first instance has built the aggregate tree,
    // a thousand more instances (each nesting regions and a parameter
    // scope) grow neither the arena nor the instance table.
    let ids = TaskIdAllocator::new();
    let (task, foo, bar) = (RegionId(1), RegionId(2), RegionId(3));
    let mut p = ThreadProfile::new(PAR, 0, AssignPolicy::Executing);
    p.enter(BARRIER, 0);
    let mut t = 1u64;
    let mut after_first = None;
    for k in 0..1001u64 {
        let id = ids.alloc();
        p.task_begin(task, id, t);
        p.enter(foo, t + 1);
        p.parameter_begin(ParamId(0), (k % 3) as i64, t + 2);
        p.enter(bar, t + 3);
        p.exit(bar, t + 4);
        p.parameter_end(ParamId(0), t + 5);
        p.exit(foo, t + 6);
        p.task_end(task, id, t + 7);
        t += 10;
        if k == 2 {
            // The first three instances visit every parameter value.
            after_first = Some((p.arena_capacity(), p.instance_slots()));
        }
    }
    assert_eq!(Some((p.arena_capacity(), p.instance_slots())), after_first);
    assert_eq!(p.instance_slots(), 1);
    p.exit(BARRIER, t);
    p.finish(t + 1);
    assert_eq!(p.snapshot(0).task_trees[0].stats.visits, 1001);
}
