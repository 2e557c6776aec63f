//! The task profiling algorithm (paper Section IV-C, Fig. 12).
//!
//! One [`ThreadProfile`] per thread per parallel region. It maintains:
//!
//! * the implicit task's call tree (the *main tree*, rooted at the parallel
//!   region),
//! * a slab of *active* explicit task instances, each with a private,
//!   detached instance tree and a frame stack whose timers stop across
//!   suspension (paper Section IV-B3); completed instances free their slot
//!   and frame stack for the next one,
//! * the *current task* pointer and its slot, so region events inside a
//!   task index the slab directly (task ids are resolved to slots only
//!   when a task begins, resumes, ends or migrates),
//! * *stub nodes* under the implicit task's scheduling points recording the
//!   time the thread spent executing task fragments there (Section IV-B4),
//! * per-construct aggregate task trees, sitting beside the main tree, into
//!   which completed instance trees are merged (with node reuse), and
//! * the maximum number of concurrently live instance trees, the memory
//!   metric of the paper's Table II.
//!
//! All event methods take an explicit timestamp so the algorithm is fully
//! deterministic under a virtual clock (this is how the tests replay the
//! paper's event-stream figures with exact numbers). The
//! [`crate::monitor::ProfMonitor`] adapter supplies real clock readings.

use crate::body::TaskBody;
use crate::snapshot::{SnapNode, ThreadSnapshot};
use crate::tree::{Arena, NodeId, NodeKind};
use pomp::{ParamId, RegionId, TaskId, TaskRef};
use std::collections::HashMap;

/// Where a task's execution is attributed in the call tree.
///
/// The paper's Section IV-B2 (Fig. 3) argues only `Executing` produces
/// meaningful metrics; `Creating` is provided as the ablation that
/// reproduces the negative-exclusive-time pathology.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AssignPolicy {
    /// Attribute task execution to the scheduling point where it executes:
    /// detached instance trees + stub nodes + merge on completion.
    #[default]
    Executing,
    /// Attribute task execution to the node where the task was *created*:
    /// the instance tree hangs under the creation site, no stub nodes.
    /// Exclusive times of creation sites can go negative (Fig. 3 left).
    Creating,
}

/// One slot of the per-thread instance table: an active explicit task
/// instance (started but not completed), or a free slot awaiting reuse.
#[derive(Debug)]
pub(crate) struct Instance {
    /// The occupying instance; `None` while the slot is free.
    pub(crate) id: Option<TaskId>,
    pub(crate) region: RegionId,
    /// Counting-only instance degraded by the live-tree cap: it has no
    /// private tree, and its inner events are dropped.
    pub(crate) shed: bool,
    /// Frame stack and tree root. Kept across reuse of the slot, so the
    /// stack's capacity is recycled with it.
    pub(crate) body: TaskBody,
}

/// Per-thread call-path profile under construction.
#[derive(Debug)]
pub struct ThreadProfile {
    arena: Arena,
    parallel_region: RegionId,
    root: NodeId,
    implicit: TaskBody,
    /// Instance slab: every active (live or shed) instance occupies one
    /// slot. Slots are recycled through `free_slots`, so after warm-up
    /// beginning an instance allocates nothing.
    instances: Vec<Instance>,
    free_slots: Vec<usize>,
    current: TaskRef,
    /// Slot of `current` while it is an explicit task, so the
    /// enter/exit/parameter path indexes the slab without a lookup.
    cur_slot: usize,
    /// Slot most recently switched away from: where the search for a
    /// resumed instance starts (tied tasks resume in LIFO order, so the
    /// target is almost always at or just below it).
    resume_hint: usize,
    policy: AssignPolicy,
    /// Aggregate task-tree roots in order of first completion.
    task_roots: Vec<NodeId>,
    /// Creation-site node per not-yet-started instance, filled only under
    /// the `Creating` policy (the only reader), consumed at task begin and
    /// cleared at region end (instances executed by another thread never
    /// begin here).
    creation_nodes: HashMap<TaskId, NodeId>,
    live_trees: usize,
    max_live_trees: usize,
    /// Call-path depth limit per task body (paper Section IV-B3: "tree
    /// depth limits might kick in"). Frames beyond it collapse into a
    /// single [`NodeKind::Truncated`] child.
    max_depth: Option<usize>,
    /// Overload-shedding cap on concurrently live instance trees: beyond
    /// it, new instances degrade to counting-only (no private tree).
    max_live_limit: Option<usize>,
    /// Total instances shed so far (monotonic; shown in the profile).
    shed_total: u64,
    /// Self-healing diagnostics: anomalies the profiler repaired instead
    /// of panicking over (e.g. instances force-closed at region end).
    diagnostics: Vec<String>,
    finished: bool,
}

impl ThreadProfile {
    /// Start profiling a thread's share of `parallel_region` at time `t`.
    pub fn new(parallel_region: RegionId, t: u64, policy: AssignPolicy) -> Self {
        Self::new_in(Arena::new(), parallel_region, t, policy)
    }

    /// Like [`ThreadProfile::new`] but building the trees inside a caller
    /// supplied (typically recycled) `arena`, so a thread beginning a new
    /// parallel region reuses the node capacity of an earlier one instead
    /// of allocating. The arena is reset first.
    pub fn new_in(mut arena: Arena, parallel_region: RegionId, t: u64, policy: AssignPolicy) -> Self {
        arena.reset();
        let root = arena.alloc(NodeKind::Region(parallel_region), None);
        arena.node_mut(root).stats.add_visit();
        let mut implicit = TaskBody::new(root);
        implicit.push(root, t);
        Self {
            arena,
            parallel_region,
            root,
            implicit,
            instances: Vec::new(),
            free_slots: Vec::new(),
            current: TaskRef::Implicit,
            cur_slot: 0,
            resume_hint: 0,
            policy,
            task_roots: Vec::new(),
            creation_nodes: HashMap::new(),
            live_trees: 0,
            max_live_trees: 0,
            max_depth: None,
            max_live_limit: None,
            shed_total: 0,
            diagnostics: Vec::new(),
            finished: false,
        }
    }

    /// Limit call-path depth per task body: regions entered beyond
    /// `depth` open frames collapse into one `<truncated>` node. This is
    /// the profile-explosion guard the paper's Section IV-B3 refers to
    /// (Score-P's call-path depth limit).
    pub fn set_max_depth(&mut self, depth: Option<usize>) {
        self.max_depth = depth;
    }

    /// Overload shedding (robustness guard): cap the number of
    /// concurrently live instance trees. Once `live_instance_trees()`
    /// reaches the cap, *newly begun* instances degrade to counting-only —
    /// they get no private tree, their inner events are dropped, and only
    /// their instance count (plus abort count) reaches the aggregate task
    /// tree. The number of shed instances is reported in the snapshot.
    pub fn set_max_live_trees(&mut self, limit: Option<usize>) {
        self.max_live_limit = limit;
    }

    /// Total task instances degraded to counting-only by the live-tree cap.
    pub fn shed_instances(&self) -> u64 {
        self.shed_total
    }

    /// Anomalies the profiler repaired instead of panicking over (empty
    /// for a clean run). See [`ThreadProfile::finish`].
    pub fn diagnostics(&self) -> &[String] {
        &self.diagnostics
    }

    /// The attribution policy in effect.
    pub fn policy(&self) -> AssignPolicy {
        self.policy
    }

    /// Toggle free-list node reuse (ablation of the Section V-B memory
    /// strategy; on by default).
    pub fn set_node_reuse(&mut self, reuse: bool) {
        self.arena.set_reuse(reuse);
    }

    /// The task currently executing on this thread.
    pub fn current_task(&self) -> TaskRef {
        self.current
    }

    /// Number of instance trees currently alive.
    pub fn live_instance_trees(&self) -> usize {
        self.live_trees
    }

    /// High-water mark of concurrently live instance trees (paper
    /// Table II).
    pub fn max_live_trees(&self) -> usize {
        self.max_live_trees
    }

    /// Nodes currently allocated in this thread's arena (live) — the memory
    /// measure of Section V-B.
    pub fn live_nodes(&self) -> usize {
        self.arena.live_nodes()
    }

    /// High-water mark of arena slots ever allocated.
    pub fn arena_capacity(&self) -> usize {
        self.arena.capacity_nodes()
    }

    /// High-water mark of instance-table slots: the most instances (live
    /// or shed) that were ever active on this thread at once. Completed
    /// instances free their slot, frame stack included, for reuse.
    pub fn instance_slots(&self) -> usize {
        self.instances.len()
    }

    /// The body of the current task — `None` for a shed (counting-only)
    /// instance, whose inner events are dropped — beside the arena, so
    /// an event can update both.
    #[inline]
    fn current_body(&mut self) -> (Option<&mut TaskBody>, &mut Arena) {
        let body = match self.current {
            TaskRef::Implicit => Some(&mut self.implicit),
            TaskRef::Explicit(_) => {
                let inst = &mut self.instances[self.cur_slot];
                (!inst.shed).then_some(&mut inst.body)
            }
        };
        (body, &mut self.arena)
    }

    #[inline]
    fn enter_kind(&mut self, kind: NodeKind, t: u64) {
        let max_depth = self.max_depth;
        let (Some(body), arena) = self.current_body() else {
            return;
        };
        let cur = body.current_node();
        let node = if max_depth.is_some_and(|d| body.depth() >= d) {
            // Collapse: alias all deeper frames onto one truncated node.
            if arena.node(cur).kind == NodeKind::Truncated {
                cur
            } else {
                arena.child_of(cur, NodeKind::Truncated)
            }
        } else {
            arena.child_of(cur, kind)
        };
        arena.node_mut(node).stats.add_visit();
        body.push(node, t);
    }

    /// Close the current task's innermost frame at `t` and record its
    /// duration. Returns the closed node, or `None` for a shed task.
    #[inline]
    fn exit_frame(&mut self, t: u64) -> Option<NodeId> {
        let (body, arena) = self.current_body();
        let body = body?;
        let (node, dur) = body.pop(t);
        let aliased = body.current_node() == node;
        let n = arena.node_mut(node);
        // Aliased truncated frames: only the outermost records a sample,
        // otherwise the collapsed node would double-count its own
        // inclusive time.
        if !(aliased && n.kind == NodeKind::Truncated) {
            n.stats.record(dur);
        }
        Some(node)
    }

    /// Region enter event on the current task.
    pub fn enter(&mut self, region: RegionId, t: u64) {
        self.enter_kind(NodeKind::Region(region), t);
    }

    /// Region exit event on the current task.
    pub fn exit(&mut self, region: RegionId, t: u64) {
        if let Some(node) = self.exit_frame(t) {
            debug_assert!(
                matches!(self.arena.node(node).kind, NodeKind::Truncated)
                    || self.arena.node(node).kind == NodeKind::Region(region),
                "exit event does not match innermost open region"
            );
        }
    }

    /// Enter a parameter scope (paper Section VI): children recorded under
    /// a `(param, value)` node until the matching [`ThreadProfile::parameter_end`].
    pub fn parameter_begin(&mut self, param: ParamId, value: i64, t: u64) {
        self.enter_kind(NodeKind::Param(param, value), t);
    }

    /// Leave the innermost parameter scope.
    pub fn parameter_end(&mut self, param: ParamId, t: u64) {
        if let Some(node) = self.exit_frame(t) {
            debug_assert!(
                match self.arena.node(node).kind {
                    NodeKind::Truncated => true,
                    NodeKind::Param(p, _) => p == param,
                    _ => false,
                },
                "parameter_end does not match innermost open scope"
            );
        }
    }

    /// Task creation begins: enter the creation region and, under the
    /// `Creating` policy, remember the creation site of `new_task`.
    pub fn task_create_begin(
        &mut self,
        create_region: RegionId,
        _task_region: RegionId,
        new_task: TaskId,
        t: u64,
    ) {
        self.enter(create_region, t);
        if self.policy != AssignPolicy::Creating {
            return;
        }
        // A shed creator has no tree, so no creation site to remember.
        if let Some(site) = self.current_body().0.map(|b| b.current_node()) {
            self.creation_nodes.insert(new_task, site);
        }
    }

    /// Task creation finished.
    pub fn task_create_end(&mut self, create_region: RegionId, _new_task: TaskId, t: u64) {
        self.exit(create_region, t);
    }

    /// The slot of active instance `id`. Searches downward from the slot
    /// most recently switched away from, then the remaining slots above
    /// it: tied tasks resume in LIFO order, so this is usually one or two
    /// probes.
    pub(crate) fn slot_of(&self, id: TaskId) -> Option<usize> {
        let split = (self.resume_hint + 1).min(self.instances.len());
        let below = (0..split).rev();
        let above = (split..self.instances.len()).rev();
        below
            .chain(above)
            .find(|&s| self.instances[s].id == Some(id))
    }

    /// Occupy a free slot (or grow the slab) with instance `id`, its body
    /// positioned at `root`.
    pub(crate) fn alloc_slot(
        &mut self,
        id: TaskId,
        region: RegionId,
        shed: bool,
        root: NodeId,
    ) -> usize {
        match self.free_slots.pop() {
            Some(slot) => {
                let inst = &mut self.instances[slot];
                inst.id = Some(id);
                inst.region = region;
                inst.shed = shed;
                inst.body.reset(root);
                slot
            }
            None => {
                self.instances.push(Instance {
                    id: Some(id),
                    region,
                    shed,
                    body: TaskBody::new(root),
                });
                self.instances.len() - 1
            }
        }
    }

    /// Free `slot` for reuse; its frame stack keeps its capacity.
    pub(crate) fn release_slot(&mut self, slot: usize) {
        self.instances[slot].id = None;
        self.free_slots.push(slot);
    }

    pub(crate) fn instance(&self, slot: usize) -> &Instance {
        &self.instances[slot]
    }

    pub(crate) fn instance_mut(&mut self, slot: usize) -> &mut Instance {
        &mut self.instances[slot]
    }

    /// `TaskSwitch` (paper Fig. 12): the thread's current task changes to
    /// `resumed`. Suspends the current explicit task's timers, maintains
    /// the stub node in the implicit task's tree, and resumes the target.
    pub fn task_switch(&mut self, resumed: TaskRef, t: u64) {
        if self.current == resumed {
            return;
        }
        let slot = match resumed {
            TaskRef::Implicit => 0,
            TaskRef::Explicit(id) => self.slot_of(id).expect("switch to unknown task instance"),
        };
        self.switch_to(resumed, slot, t);
    }

    /// [`ThreadProfile::task_switch`] with the target's slot already
    /// resolved (`slot` is ignored when resuming the implicit task).
    fn switch_to(&mut self, resumed: TaskRef, slot: usize, t: u64) {
        // "if current task is an explicit task { Exit(implicit, root region
        // of current task); stop time measurement on all open regions }"
        // Shed (counting-only) instances have no body and no stub frame.
        if let TaskRef::Explicit(_) = self.current {
            self.resume_hint = self.cur_slot;
            let inst = &mut self.instances[self.cur_slot];
            if !inst.shed {
                inst.body.pause(t);
                if self.policy == AssignPolicy::Executing {
                    let (node, dur) = self.implicit.pop(t);
                    debug_assert!(
                        matches!(self.arena.node(node).kind, NodeKind::Stub(_)),
                        "implicit task's top frame must be the suspended task's stub"
                    );
                    self.arena.node_mut(node).stats.record(dur);
                }
            }
        }
        self.current = resumed;
        // "if task instance is an explicit task { resume time measurement;
        // Enter(implicit, root region of task instance) }"
        if let TaskRef::Explicit(_) = resumed {
            self.cur_slot = slot;
            let inst = &mut self.instances[slot];
            if !inst.shed {
                if inst.body.is_paused() {
                    inst.body.resume(t);
                }
                if self.policy == AssignPolicy::Executing {
                    let stub = self
                        .arena
                        .child_of(self.implicit.current_node(), NodeKind::Stub(inst.region));
                    self.arena.node_mut(stub).stats.add_visit();
                    self.implicit.push(stub, t);
                }
            }
        }
    }

    /// `TaskBegin` (paper Fig. 12): the thread starts executing instance
    /// `id` of construct `task_region`. Creates the instance-specific data,
    /// switches to the instance, and enters its root region.
    pub fn task_begin(&mut self, task_region: RegionId, id: TaskId, t: u64) {
        debug_assert!(self.slot_of(id).is_none(), "task instance began twice");
        let creation_site = match self.policy {
            AssignPolicy::Creating => self.creation_nodes.remove(&id),
            AssignPolicy::Executing => None,
        };
        if self.max_live_limit.is_some_and(|cap| self.live_trees >= cap) {
            // Overload shedding: the cap on concurrently live instance
            // trees is reached. Degrade this instance to counting-only —
            // it is still tracked as the current task (the event stream
            // keeps referring to it), but gets no private tree, and only
            // its existence reaches the aggregate tree.
            self.shed_total += 1;
            let agg = self.aggregate_root(task_region);
            self.arena.node_mut(agg).stats.add_visit();
            let slot = self.alloc_slot(id, task_region, true, agg);
            self.switch_to(TaskRef::Explicit(id), slot, t);
            return;
        }
        let root = match self.policy {
            AssignPolicy::Executing => {
                // Detached private tree; merged on completion.
                self.arena.alloc(NodeKind::Region(task_region), None)
            }
            AssignPolicy::Creating => {
                // Hang the instance under the node where it was created
                // (falling back to the implicit task's position for
                // instances whose creation was not observed).
                let parent = creation_site.unwrap_or_else(|| self.implicit.current_node());
                self.arena.child_of(parent, NodeKind::Region(task_region))
            }
        };
        let slot = self.alloc_slot(id, task_region, false, root);
        self.live_trees += 1;
        self.max_live_trees = self.max_live_trees.max(self.live_trees);
        self.switch_to(TaskRef::Explicit(id), slot, t);
        self.arena.node_mut(root).stats.add_visit();
        self.instances[slot].body.push(root, t);
    }

    /// `TaskEnd` (paper Fig. 12): instance `id` completed. Exits its root
    /// region, switches back to the implicit task, and merges the instance
    /// tree into the thread's aggregate tree for this construct (releasing
    /// the instance nodes for reuse).
    pub fn task_end(&mut self, task_region: RegionId, id: TaskId, t: u64) {
        assert_eq!(
            self.current,
            TaskRef::Explicit(id),
            "task_end for a task that is not current"
        );
        let slot = self.cur_slot;
        if self.instances[slot].shed {
            self.end_shed(slot, t, false);
            return;
        }
        // Exit(task instance, task region)
        let inst = &mut self.instances[slot];
        debug_assert_eq!(inst.region, task_region);
        let root = inst.body.root;
        let (node, dur) = inst.body.pop(t);
        debug_assert_eq!(node, root, "task ended with open inner regions");
        debug_assert_eq!(inst.body.depth(), 0, "task ended with open inner regions");
        self.arena.node_mut(node).stats.record(dur);
        // TaskSwitch(implicit task)
        self.switch_to(TaskRef::Implicit, 0, t);
        // Merge task tree into the global profile of the thread.
        self.retire(slot, task_region, root);
    }

    /// Merge a completed (or aborted) instance tree into its aggregate
    /// task tree and free its slot.
    fn retire(&mut self, slot: usize, task_region: RegionId, root: NodeId) {
        if self.policy == AssignPolicy::Executing {
            let agg = self.aggregate_root(task_region);
            self.arena.merge_into(root, agg);
        }
        self.release_slot(slot);
        self.live_trees -= 1;
    }

    /// `TaskAbort`: instance `id` died mid-execution (its body panicked,
    /// or it is being force-closed at region end). The panic unwound
    /// without emitting exit events, so every open frame of the instance
    /// is force-closed — charging each the time observed so far — the
    /// instance root is tagged aborted, and the partial tree is still
    /// merged into the aggregate task tree. The thread resumes the
    /// implicit task, exactly as after a normal `task_end`.
    pub fn task_abort(&mut self, task_region: RegionId, id: TaskId, t: u64) {
        // Robustness: the abort may arrive for a *suspended* instance
        // (forced closure at region end). Resume it first so the stub
        // accounting in the implicit tree stays balanced.
        let slot = if self.current == TaskRef::Explicit(id) {
            self.cur_slot
        } else {
            let slot = self.slot_of(id).expect("abort of unknown task instance");
            self.switch_to(TaskRef::Explicit(id), slot, t);
            slot
        };
        if self.instances[slot].shed {
            self.end_shed(slot, t, true);
            return;
        }
        let inst = &mut self.instances[slot];
        debug_assert_eq!(inst.region, task_region);
        let root = inst.body.root;
        while inst.body.depth() > 0 {
            let (node, dur) = inst.body.pop(t);
            // Aliased <truncated> frames: record the outermost only (the
            // same double-count guard exit_frame applies).
            let aliased = inst.body.current_node() == node;
            if !(aliased && self.arena.node(node).kind == NodeKind::Truncated) {
                self.arena.node_mut(node).stats.record(dur);
            }
        }
        self.arena.node_mut(root).stats.record_abort();
        self.switch_to(TaskRef::Implicit, 0, t);
        self.retire(slot, task_region, root);
    }

    /// Complete the current, shed (counting-only) instance in `slot`: no
    /// tree to merge, just bookkeeping — and an abort tag on the
    /// aggregate root if it died.
    fn end_shed(&mut self, slot: usize, t: u64, aborted: bool) {
        if aborted {
            let region = self.instances[slot].region;
            let agg = self.aggregate_root(region);
            self.arena.node_mut(agg).stats.record_abort();
        }
        self.switch_to(TaskRef::Implicit, 0, t);
        self.release_slot(slot);
    }

    fn aggregate_root(&mut self, region: RegionId) -> NodeId {
        let kind = NodeKind::Region(region);
        if let Some(&r) = self
            .task_roots
            .iter()
            .find(|&&r| self.arena.node(r).kind == kind)
        {
            return r;
        }
        let r = self.arena.alloc(kind, None);
        self.task_roots.push(r);
        r
    }

    /// Close the profile at time `t` (end of the parallel region). Any
    /// regions still open on the implicit task (normally just the
    /// parallel-region root) are exited.
    ///
    /// Self-healing: a faulty runtime (or a panic that escaped task
    /// containment) may end the region with task instances still open.
    /// Instead of panicking inside the measurement system, each leftover
    /// instance is force-closed as aborted — its open frames are charged
    /// the time observed so far, its partial tree is merged and tagged —
    /// and a [`ThreadProfile::diagnostics`] entry records the repair.
    pub fn finish(&mut self, t: u64) {
        if let TaskRef::Explicit(id) = self.current {
            self.diagnostics.push(format!(
                "region ended while task instance {} was still executing; force-closed as aborted",
                id.get()
            ));
            let region = self.instances[self.cur_slot].region;
            self.task_abort(region, id, t);
        }
        let mut leftover: Vec<(TaskId, RegionId)> = self
            .instances
            .iter()
            .filter_map(|inst| inst.id.map(|id| (id, inst.region)))
            .collect();
        leftover.sort_by_key(|&(id, _)| id);
        for (id, region) in leftover {
            self.diagnostics.push(format!(
                "region ended with suspended task instance {}; force-closed as aborted",
                id.get()
            ));
            self.task_abort(region, id, t);
        }
        while self.implicit.depth() > 0 {
            let (node, dur) = self.implicit.pop(t);
            self.arena.node_mut(node).stats.record(dur);
        }
        // Sites of instances that began on another thread (or never).
        self.creation_nodes.clear();
        self.finished = true;
    }

    /// True once [`ThreadProfile::finish`] ran.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Consume the profile and recover its arena (reset, capacity kept)
    /// for recycling into the next parallel region's shard.
    pub fn into_arena(mut self) -> Arena {
        self.arena.reset();
        self.arena
    }

    // Crate-internal access for the migration module (see `migrate.rs`).
    pub(crate) fn arena_mut(&mut self) -> &mut Arena {
        &mut self.arena
    }

    pub(crate) fn arena_ref(&self) -> &Arena {
        &self.arena
    }

    pub(crate) fn snap_public(&self, node: NodeId) -> SnapNode {
        self.snap(node)
    }

    pub(crate) fn dec_live_trees(&mut self) {
        self.live_trees -= 1;
    }

    pub(crate) fn inc_live_trees(&mut self) {
        self.live_trees += 1;
        self.max_live_trees = self.max_live_trees.max(self.live_trees);
    }

    fn snap(&self, node: NodeId) -> SnapNode {
        let n = self.arena.node(node);
        SnapNode {
            kind: n.kind,
            stats: n.stats,
            children: self.arena.children(node).map(|c| self.snap(c)).collect(),
        }
    }

    /// Extract a plain snapshot (main tree + aggregated task trees) for
    /// analysis. Usually called after [`ThreadProfile::finish`]; calling it
    /// earlier snapshots the in-progress state (open frames simply have not
    /// recorded samples yet).
    pub fn snapshot(&self, tid: usize) -> ThreadSnapshot {
        ThreadSnapshot {
            tid,
            parallel_region: self.parallel_region,
            main: self.snap(self.root),
            task_trees: self.task_roots.iter().map(|&r| self.snap(r)).collect(),
            max_live_trees: self.max_live_trees,
            arena_capacity: self.arena.capacity_nodes(),
            shed_instances: self.shed_total,
            diagnostics: self.diagnostics.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::TaskIdAllocator;

    fn rid(i: u32) -> RegionId {
        RegionId(i)
    }

    const PAR: u32 = 0;
    const TASK_A: u32 = 1;
    const CREATE_A: u32 = 2;
    const BARRIER: u32 = 3;
    const TASKWAIT: u32 = 4;
    const FOO: u32 = 5;

    /// Helper: find a child snapshot by kind.
    fn child(n: &SnapNode, kind: NodeKind) -> &SnapNode {
        n.children
            .iter()
            .find(|c| c.kind == kind)
            .unwrap_or_else(|| panic!("no child {kind:?} under {:?}", n.kind))
    }

    #[test]
    fn plain_nesting_without_tasks_matches_fig1() {
        // Paper Fig. 1: main{ foo(), bar() } — here PAR{ FOO twice }.
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.enter(rid(FOO), 10);
        p.exit(rid(FOO), 30);
        p.enter(rid(FOO), 40);
        p.exit(rid(FOO), 45);
        p.finish(100);
        let s = p.snapshot(0);
        assert_eq!(s.main.stats.sum_ns, 100);
        assert_eq!(s.main.stats.visits, 1);
        let foo = child(&s.main, NodeKind::Region(rid(FOO)));
        assert_eq!(foo.stats.visits, 2);
        assert_eq!(foo.stats.sum_ns, 25);
        assert_eq!(foo.stats.min_ns, 5);
        assert_eq!(foo.stats.max_ns, 20);
        assert!(s.task_trees.is_empty());
    }

    #[test]
    fn single_task_in_barrier_creates_stub_and_task_tree() {
        // The walkthrough of paper Figs. 6-8 and 10-11 with one instance.
        let ids = TaskIdAllocator::new();
        let t1 = ids.alloc();
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.task_create_begin(rid(CREATE_A), rid(TASK_A), t1, 10);
        p.task_create_end(rid(CREATE_A), t1, 12);
        p.enter(rid(BARRIER), 20);
        p.task_begin(rid(TASK_A), t1, 25);
        p.task_end(rid(TASK_A), t1, 75);
        p.exit(rid(BARRIER), 80);
        p.finish(100);
        let s = p.snapshot(0);

        // Main tree: PAR -> {create A, barrier -> stub A}.
        let create = child(&s.main, NodeKind::Region(rid(CREATE_A)));
        assert_eq!(create.stats.sum_ns, 2);
        let barrier = child(&s.main, NodeKind::Region(rid(BARRIER)));
        assert_eq!(barrier.stats.sum_ns, 60);
        let stub = child(barrier, NodeKind::Stub(rid(TASK_A)));
        assert_eq!(stub.stats.visits, 1, "one fragment executed");
        assert_eq!(stub.stats.sum_ns, 50, "time executing the task in the barrier");
        // Barrier exclusive = 60 - 50 = 10 (management/idle), the Fig. 5 split.

        // Task tree beside the main tree.
        assert_eq!(s.task_trees.len(), 1);
        let task = &s.task_trees[0];
        assert_eq!(task.kind, NodeKind::Region(rid(TASK_A)));
        assert_eq!(task.stats.visits, 1);
        assert_eq!(task.stats.sum_ns, 50);
    }

    #[test]
    fn interleaved_fragments_fig2_are_attributed_per_instance() {
        // Paper Fig. 2: two instances of the same construct, both enter
        // foo(), both suspend inside it; the exit events can only be
        // attributed correctly with instance tracking.
        let ids = TaskIdAllocator::new();
        let (t1, t2) = (ids.alloc(), ids.alloc());
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.enter(rid(BARRIER), 0);
        p.task_begin(rid(TASK_A), t1, 10);
        p.enter(rid(FOO), 12);
        p.enter(rid(TASKWAIT), 14); // t1 suspends here
        p.task_begin(rid(TASK_A), t2, 20); // implies switch away from t1
        p.enter(rid(FOO), 22);
        p.exit(rid(FOO), 30); // this exit belongs to t2's foo
        p.task_end(rid(TASK_A), t2, 32);
        p.task_switch(TaskRef::Explicit(t1), 35); // t1 resumes
        p.exit(rid(TASKWAIT), 36);
        p.exit(rid(FOO), 40); // and this exit to t1's foo
        p.task_end(rid(TASK_A), t1, 42);
        p.exit(rid(BARRIER), 50);
        p.finish(60);
        let s = p.snapshot(0);

        let task = &s.task_trees[0];
        assert_eq!(task.stats.visits, 2);
        // t1 ran 10..14 suspended 14(+6 create t2 window)..35 resumed 35..42
        // minus its own suspension: t1 inclusive = (20-10) + (42-35) = 17.
        // t2 inclusive = 32-20 = 12. Sum = 29.
        assert_eq!(task.stats.sum_ns, 29);
        assert_eq!(task.stats.min_ns, 12);
        assert_eq!(task.stats.max_ns, 17);
        let foo = child(task, NodeKind::Region(rid(FOO)));
        // t1's foo: entered 12, suspended 20..35, exited 40 => 13.
        // t2's foo: 22..30 => 8. Sum 21, both instances' fragments correct.
        assert_eq!(foo.stats.visits, 2);
        assert_eq!(foo.stats.sum_ns, 21);
        assert_eq!(foo.stats.min_ns, 8);
        assert_eq!(foo.stats.max_ns, 13);
        // taskwait under foo, time excludes t1's suspension: 14..20 + 35..36 = 7.
        let tw = child(foo, NodeKind::Region(rid(TASKWAIT)));
        assert_eq!(tw.stats.sum_ns, 7);

        // Implicit tree: barrier with two stub fragments for t1 (10..20,
        // 35..42) and one for t2 (20..32): stub visits 3, time 29.
        let barrier = child(&s.main, NodeKind::Region(rid(BARRIER)));
        let stub = child(barrier, NodeKind::Stub(rid(TASK_A)));
        assert_eq!(stub.stats.visits, 3);
        assert_eq!(stub.stats.sum_ns, 29);
    }

    #[test]
    fn max_live_trees_tracks_suspension_depth() {
        let ids = TaskIdAllocator::new();
        let (t1, t2, t3) = (ids.alloc(), ids.alloc(), ids.alloc());
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.enter(rid(BARRIER), 0);
        p.task_begin(rid(TASK_A), t1, 1);
        p.enter(rid(TASKWAIT), 2);
        p.task_begin(rid(TASK_A), t2, 3);
        p.enter(rid(TASKWAIT), 4);
        p.task_begin(rid(TASK_A), t3, 5);
        assert_eq!(p.live_instance_trees(), 3);
        p.task_end(rid(TASK_A), t3, 6);
        p.task_switch(TaskRef::Explicit(t2), 7);
        p.exit(rid(TASKWAIT), 8);
        p.task_end(rid(TASK_A), t2, 9);
        p.task_switch(TaskRef::Explicit(t1), 10);
        p.exit(rid(TASKWAIT), 11);
        p.task_end(rid(TASK_A), t1, 12);
        p.exit(rid(BARRIER), 13);
        p.finish(14);
        assert_eq!(p.max_live_trees(), 3);
        assert_eq!(p.live_instance_trees(), 0);
    }

    #[test]
    fn instance_nodes_are_reused_across_instances() {
        let ids = TaskIdAllocator::new();
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.enter(rid(BARRIER), 0);
        let mut t = 1u64;
        let mut watermark_after_first = (0, 0, 0);
        let frame_capacity = |p: &ThreadProfile| {
            p.instances
                .iter()
                .map(|i| i.body.frame_capacity())
                .sum::<usize>()
        };
        for k in 0..100 {
            let id = ids.alloc();
            p.task_begin(rid(TASK_A), id, t);
            p.enter(rid(FOO), t + 1);
            p.enter(rid(TASKWAIT), t + 1);
            p.exit(rid(TASKWAIT), t + 2);
            p.exit(rid(FOO), t + 2);
            p.task_end(rid(TASK_A), id, t + 3);
            t += 10;
            if k == 0 {
                watermark_after_first =
                    (p.arena_capacity(), p.instance_slots(), frame_capacity(&p));
            }
        }
        // Sequential instances must not grow the arena, the instance
        // table or any frame stack: every instance tree is released and its
        // nodes reused (paper Section V-B), and so are its slot and frames.
        assert_eq!(
            (p.arena_capacity(), p.instance_slots(), frame_capacity(&p)),
            watermark_after_first
        );
        p.exit(rid(BARRIER), t);
        p.finish(t + 1);
        let s = p.snapshot(0);
        assert_eq!(s.task_trees[0].stats.visits, 100);
    }

    #[test]
    fn creation_sites_do_not_outlive_the_region() {
        // Thread 0 creates every task and thread 1 executes them all, so
        // the creator never sees those instances begin.
        for policy in [AssignPolicy::Executing, AssignPolicy::Creating] {
            let ids = TaskIdAllocator::new();
            let mut creator = ThreadProfile::new(rid(PAR), 0, policy);
            let mut executor = ThreadProfile::new(rid(PAR), 0, policy);
            executor.enter(rid(BARRIER), 0);
            let mut t = 1u64;
            for _ in 0..5 {
                let id = ids.alloc();
                creator.task_create_begin(rid(CREATE_A), rid(TASK_A), id, t);
                creator.task_create_end(rid(CREATE_A), id, t + 1);
                executor.task_begin(rid(TASK_A), id, t + 2);
                executor.task_end(rid(TASK_A), id, t + 3);
                t += 5;
            }
            // Only the `Creating` policy reads creation sites.
            let expected = usize::from(policy == AssignPolicy::Creating) * 5;
            assert_eq!(creator.creation_nodes.len(), expected, "{policy:?}");
            executor.exit(rid(BARRIER), t);
            creator.finish(t);
            executor.finish(t);
            assert!(creator.creation_nodes.is_empty(), "{policy:?}");
            assert!(executor.creation_nodes.is_empty(), "{policy:?}");
        }
    }

    #[test]
    fn creating_policy_reproduces_fig3_negative_exclusive_time() {
        // Fig. 3: creation takes 2, the task runs 5 inside the barrier.
        let ids = TaskIdAllocator::new();
        let t1 = ids.alloc();
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Creating);
        p.task_create_begin(rid(CREATE_A), rid(TASK_A), t1, 2); // parallel start took 2
        p.task_create_end(rid(CREATE_A), t1, 4);
        p.enter(rid(BARRIER), 4);
        p.task_begin(rid(TASK_A), t1, 4);
        p.task_end(rid(TASK_A), t1, 9); // task ran 5
        p.exit(rid(BARRIER), 11); // 2 more waiting
        p.finish(11);
        let s = p.snapshot(0);
        // Task tree hangs under the creation node; no stub under barrier.
        assert!(s.task_trees.is_empty());
        let create = child(&s.main, NodeKind::Region(rid(CREATE_A)));
        let task = child(create, NodeKind::Region(rid(TASK_A)));
        assert_eq!(task.stats.sum_ns, 5);
        // Creation node: inclusive 2, child task 5 => exclusive -3 < 0.
        let create_exclusive = create.stats.sum_ns as i64 - task.stats.sum_ns as i64;
        assert!(create_exclusive < 0, "Fig. 3 pathology: {create_exclusive}");
        // Barrier keeps the task's 5 ns in its *exclusive* time (no stub):
        let barrier = child(&s.main, NodeKind::Region(rid(BARRIER)));
        assert_eq!(barrier.stats.sum_ns, 7);
        assert!(barrier.children.is_empty());
    }

    #[test]
    fn executing_policy_fig3_right_side_is_sane() {
        let ids = TaskIdAllocator::new();
        let t1 = ids.alloc();
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.task_create_begin(rid(CREATE_A), rid(TASK_A), t1, 2);
        p.task_create_end(rid(CREATE_A), t1, 4);
        p.enter(rid(BARRIER), 4);
        p.task_begin(rid(TASK_A), t1, 4);
        p.task_end(rid(TASK_A), t1, 9);
        p.exit(rid(BARRIER), 11);
        p.finish(11);
        let s = p.snapshot(0);
        let create = child(&s.main, NodeKind::Region(rid(CREATE_A)));
        assert_eq!(create.stats.sum_ns, 2);
        assert!(create.children.is_empty());
        let barrier = child(&s.main, NodeKind::Region(rid(BARRIER)));
        let stub = child(barrier, NodeKind::Stub(rid(TASK_A)));
        // Barrier exclusive = 7 - 5 = 2: only true waiting remains.
        assert_eq!(barrier.stats.sum_ns as i64 - stub.stats.sum_ns as i64, 2);
        assert_eq!(s.task_trees[0].stats.sum_ns, 5);
    }

    #[test]
    fn parameter_nodes_split_task_statistics() {
        // Table IV mechanism: tasks report their recursion depth.
        let ids = TaskIdAllocator::new();
        let depth = ParamId(0);
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.enter(rid(BARRIER), 0);
        let mut t = 0u64;
        for (d, dur) in [(0i64, 40u64), (1, 15), (1, 25), (2, 5)] {
            let id = ids.alloc();
            p.task_begin(rid(TASK_A), id, t);
            p.parameter_begin(depth, d, t);
            p.parameter_end(depth, t + dur);
            p.task_end(rid(TASK_A), id, t + dur);
            t += dur + 5;
        }
        p.exit(rid(BARRIER), t);
        p.finish(t);
        let s = p.snapshot(0);
        let task = &s.task_trees[0];
        assert_eq!(task.stats.visits, 4);
        let d1 = child(task, NodeKind::Param(depth, 1));
        assert_eq!(d1.stats.visits, 2);
        assert_eq!(d1.stats.sum_ns, 40);
        assert_eq!(d1.stats.min_ns, 15);
        assert_eq!(d1.stats.max_ns, 25);
        let d2 = child(task, NodeKind::Param(depth, 2));
        assert_eq!(d2.stats.sum_ns, 5);
    }

    #[test]
    fn finish_with_active_instance_heals_and_diagnoses() {
        // The seed behaviour here was a panic; the measurement system must
        // never take down the application, so leftover instances are now
        // force-closed as aborted with a diagnostic.
        let ids = TaskIdAllocator::new();
        let t1 = ids.alloc();
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.enter(rid(BARRIER), 0);
        p.task_begin(rid(TASK_A), t1, 1);
        p.task_switch(TaskRef::Implicit, 2);
        p.exit(rid(BARRIER), 3);
        p.finish(4);
        assert!(p.is_finished());
        assert_eq!(p.diagnostics().len(), 1);
        assert!(p.diagnostics()[0].contains("force-closed"), "{:?}", p.diagnostics());
        assert_eq!(p.live_instance_trees(), 0, "instance tree was released");
        let s = p.snapshot(0);
        assert_eq!(s.diagnostics, p.diagnostics());
        // The partial instance still reached the aggregate tree, tagged.
        let task = &s.task_trees[0];
        assert_eq!(task.stats.aborted, 1);
        assert_eq!(task.stats.sum_ns, 1, "ran 1..2 before suspension");
    }

    #[test]
    fn finish_while_task_current_heals_and_diagnoses() {
        let ids = TaskIdAllocator::new();
        let t1 = ids.alloc();
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.enter(rid(BARRIER), 0);
        p.task_begin(rid(TASK_A), t1, 1);
        p.enter(rid(FOO), 2); // open inner region, never exited
        p.finish(10);
        assert_eq!(p.diagnostics().len(), 1);
        assert!(p.diagnostics()[0].contains("still executing"));
        let s = p.snapshot(0);
        let task = &s.task_trees[0];
        assert_eq!(task.stats.aborted, 1);
        assert_eq!(task.stats.sum_ns, 9, "charged up to the force-close");
        let foo = child(task, NodeKind::Region(rid(FOO)));
        assert_eq!(foo.stats.sum_ns, 8);
        // Implicit tree stayed balanced: stub closed, barrier closed.
        let barrier = child(&s.main, NodeKind::Region(rid(BARRIER)));
        let stub = child(barrier, NodeKind::Stub(rid(TASK_A)));
        assert_eq!(stub.stats.sum_ns, 9);
        s.main.walk(&mut |_, n| assert!(n.exclusive_ns() >= 0));
    }

    #[test]
    fn task_abort_closes_open_frames_and_merges_tagged() {
        // A panicking task unwinds without exit events: the abort must
        // force-close foo, tag the instance, and still merge it so the
        // measured time is not lost.
        let ids = TaskIdAllocator::new();
        let (t1, t2) = (ids.alloc(), ids.alloc());
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.enter(rid(BARRIER), 0);
        p.task_begin(rid(TASK_A), t1, 10);
        p.enter(rid(FOO), 12);
        p.task_abort(rid(TASK_A), t1, 20); // panic inside foo
        p.task_begin(rid(TASK_A), t2, 25); // siblings keep running
        p.task_end(rid(TASK_A), t2, 40);
        p.exit(rid(BARRIER), 50);
        p.finish(60);
        assert!(p.diagnostics().is_empty(), "abort is not an anomaly");
        let s = p.snapshot(0);
        let task = &s.task_trees[0];
        assert_eq!(task.stats.visits, 2);
        assert_eq!(task.stats.aborted, 1, "one of two instances failed");
        assert_eq!(task.stats.sum_ns, 25, "aborted 10 ns + completed 15 ns");
        let foo = child(task, NodeKind::Region(rid(FOO)));
        assert_eq!(foo.stats.sum_ns, 8, "force-closed at the abort");
        // Stub accounting balanced: two fragments, 10 + 15 ns.
        let barrier = child(&s.main, NodeKind::Region(rid(BARRIER)));
        let stub = child(barrier, NodeKind::Stub(rid(TASK_A)));
        assert_eq!(stub.stats.visits, 2);
        assert_eq!(stub.stats.sum_ns, 25);
        s.main.walk(&mut |_, n| assert!(n.exclusive_ns() >= 0));
    }

    #[test]
    fn live_tree_cap_sheds_to_counting_only() {
        // Cap of 2: the third *concurrent* instance degrades to
        // counting-only; once trees free up, new instances profile fully.
        let ids = TaskIdAllocator::new();
        let (t1, t2, t3) = (ids.alloc(), ids.alloc(), ids.alloc());
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.set_max_live_trees(Some(2));
        p.enter(rid(BARRIER), 0);
        p.task_begin(rid(TASK_A), t1, 1);
        p.enter(rid(TASKWAIT), 2);
        p.task_begin(rid(TASK_A), t2, 3);
        p.enter(rid(TASKWAIT), 4);
        p.task_begin(rid(TASK_A), t3, 5); // cap reached: shed
        assert_eq!(p.live_instance_trees(), 2);
        assert_eq!(p.shed_instances(), 1);
        p.enter(rid(FOO), 6); // dropped (counting-only)
        p.exit(rid(FOO), 7); // dropped
        p.task_end(rid(TASK_A), t3, 8);
        p.task_switch(TaskRef::Explicit(t2), 8);
        p.exit(rid(TASKWAIT), 9);
        p.task_end(rid(TASK_A), t2, 10);
        p.task_switch(TaskRef::Explicit(t1), 10);
        p.exit(rid(TASKWAIT), 11);
        p.task_end(rid(TASK_A), t1, 12);
        // Capacity freed: the next instance gets a real tree again.
        let t4 = ids.alloc();
        p.task_begin(rid(TASK_A), t4, 13);
        p.enter(rid(FOO), 14);
        p.exit(rid(FOO), 16);
        p.task_end(rid(TASK_A), t4, 17);
        p.exit(rid(BARRIER), 20);
        p.finish(21);
        let s = p.snapshot(0);
        assert_eq!(s.shed_instances, 1);
        assert_eq!(s.max_live_trees, 2, "the cap held");
        let task = &s.task_trees[0];
        // 4 instances counted (visits), 3 sampled (shed one has no time).
        assert_eq!(task.stats.visits, 4);
        assert_eq!(task.stats.samples, 3);
        let foo = child(task, NodeKind::Region(rid(FOO)));
        assert_eq!(foo.stats.visits, 1, "shed instance's foo was dropped");
        assert_eq!(foo.stats.sum_ns, 2);
        s.main.walk(&mut |_, n| assert!(n.exclusive_ns() >= 0));
    }

    #[test]
    fn shed_instance_abort_is_counted() {
        let ids = TaskIdAllocator::new();
        let (t1, t2) = (ids.alloc(), ids.alloc());
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.set_max_live_trees(Some(1));
        p.enter(rid(BARRIER), 0);
        p.task_begin(rid(TASK_A), t1, 1);
        p.enter(rid(TASKWAIT), 2);
        p.task_begin(rid(TASK_A), t2, 3); // shed
        p.task_abort(rid(TASK_A), t2, 5); // and it panics
        p.task_switch(TaskRef::Explicit(t1), 5);
        p.exit(rid(TASKWAIT), 6);
        p.task_end(rid(TASK_A), t1, 7);
        p.exit(rid(BARRIER), 8);
        p.finish(9);
        let s = p.snapshot(0);
        assert_eq!(s.shed_instances, 1);
        let task = &s.task_trees[0];
        assert_eq!(task.stats.visits, 2);
        assert_eq!(task.stats.aborted, 1);
    }

    #[test]
    fn depth_limit_collapses_deep_recursion() {
        // A 100-deep recursion into the same region with limit 3:
        // frames 0,1,2 are real; 3.. collapse into one <truncated> node.
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.set_max_depth(Some(3));
        let mut t = 0u64;
        for _ in 0..100 {
            t += 1;
            p.enter(rid(FOO), t);
        }
        for _ in 0..100 {
            t += 1;
            p.exit(rid(FOO), t);
        }
        p.finish(t + 1);
        let s = p.snapshot(0);
        // Structure: PAR -> foo -> foo -> truncated (depth 1,2 regions +
        // one collapsed node; the parallel root occupies depth 0).
        let f1 = child(&s.main, NodeKind::Region(rid(FOO)));
        let f2 = child(f1, NodeKind::Region(rid(FOO)));
        let tr = child(f2, NodeKind::Truncated);
        assert!(tr.children.is_empty(), "nothing may nest below <truncated>");
        // 98 collapsed enters, one recorded sample (outermost truncated
        // frame): entered at t=3, last collapsed exit at t=198 → 195 ns.
        assert_eq!(tr.stats.visits, 98);
        assert_eq!(tr.stats.samples, 1);
        assert_eq!(tr.stats.sum_ns, 195);
        // The tree stayed tiny: 5 nodes instead of 101.
        assert_eq!(s.main.size(), 4);
        // No negative exclusive anywhere.
        s.main.walk(&mut |_, n| assert!(n.exclusive_ns() >= 0));
    }

    #[test]
    fn depth_limit_applies_per_task_body() {
        // Each task instance gets its own depth budget.
        let ids = TaskIdAllocator::new();
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.set_max_depth(Some(2));
        p.enter(rid(BARRIER), 0);
        let id = ids.alloc();
        p.task_begin(rid(TASK_A), id, 1);
        // Task body: depth 0 is the root frame; two more enters allowed,
        // third collapses.
        p.enter(rid(FOO), 2);
        p.enter(rid(FOO), 3); // collapses (depth 2 within the task)
        p.exit(rid(FOO), 4);
        p.exit(rid(FOO), 5);
        p.task_end(rid(TASK_A), id, 6);
        p.exit(rid(BARRIER), 7);
        p.finish(8);
        let s = p.snapshot(0);
        let task = &s.task_trees[0];
        let foo = child(task, NodeKind::Region(rid(FOO)));
        assert!(foo.child(NodeKind::Truncated).is_some());
        assert!(foo.child(NodeKind::Region(rid(FOO))).is_none());
    }

    #[test]
    fn redundant_switch_to_current_task_is_a_no_op() {
        let ids = TaskIdAllocator::new();
        let t1 = ids.alloc();
        let mut p = ThreadProfile::new(rid(PAR), 0, AssignPolicy::Executing);
        p.enter(rid(BARRIER), 0);
        p.task_begin(rid(TASK_A), t1, 1);
        p.task_switch(TaskRef::Explicit(t1), 2);
        p.task_switch(TaskRef::Explicit(t1), 3);
        p.task_end(rid(TASK_A), t1, 10);
        p.exit(rid(BARRIER), 11);
        p.finish(12);
        let s = p.snapshot(0);
        let barrier = child(&s.main, NodeKind::Region(rid(BARRIER)));
        let stub = child(barrier, NodeKind::Stub(rid(TASK_A)));
        assert_eq!(stub.stats.visits, 1);
        assert_eq!(stub.stats.sum_ns, 9);
    }
}
