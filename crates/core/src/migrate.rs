//! Untied-task migration support (paper Section IV-D1).
//!
//! The paper argues its algorithm "in principle also works for migrating
//! tasks": only the executing thread accesses a task's data, so when a
//! task migrates, its instance data can migrate with it. Because this
//! reproduction keeps one arena per thread (like Score-P's per-thread
//! memory), migration is an explicit ownership transfer: the suspended
//! instance's private tree and paused frame stack are detached into a
//! portable [`DetachedInstance`] and re-attached to the destination
//! thread's profile, where execution resumes via a normal `task_switch`.
//!
//! The `taskrt` runtime never migrates (it makes all tasks tied, the same
//! workaround the paper's instrumentation uses for untied tasks), so this
//! is exercised through event replay — exactly the "if the runtime
//! provided the hooks" scenario of Section IV-D2.

use crate::body::Frame;
use crate::profiler::ThreadProfile;
use crate::snapshot::SnapNode;
use crate::tree::NodeId;
use pomp::{RegionId, TaskId, TaskRef};

/// A suspended task instance in transit between threads.
#[derive(Clone, Debug)]
pub struct DetachedInstance {
    pub(crate) region: RegionId,
    /// Portable copy of the instance's private tree.
    pub(crate) tree: SnapNode,
    /// Open frames as (path-from-root child indices, accumulated ns),
    /// outermost first.
    pub(crate) stack: Vec<(Vec<usize>, u64)>,
}

impl DetachedInstance {
    /// The task construct this instance belongs to.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// Number of open frames travelling with the instance.
    pub fn open_frames(&self) -> usize {
        self.stack.len()
    }
}

impl ThreadProfile {
    /// Detach the suspended instance `id` for migration to another
    /// thread. The instance must not be current (it must have been
    /// suspended by a `task_switch`). Its arena nodes are released for
    /// reuse.
    ///
    /// # Panics
    /// If `id` is unknown, currently executing, or not paused.
    pub fn detach_instance(&mut self, id: TaskId) -> DetachedInstance {
        assert_ne!(
            self.current_task(),
            TaskRef::Explicit(id),
            "cannot migrate the currently executing task"
        );
        let slot = self
            .slot_of(id)
            .filter(|&s| !self.instance(s).shed)
            .expect("detach of unknown task instance");
        let inst = self.instance(slot);
        assert!(inst.body.is_paused(), "detach of a running task instance");
        let (region, root) = (inst.region, inst.body.root);
        let tree = self.snap_public(root);
        let stack = inst
            .body
            .frames()
            .iter()
            .map(|f| (self.path_from(root, f.node()), f.acc()))
            .collect();
        self.arena_mut().release_subtree(root);
        self.release_slot(slot);
        self.dec_live_trees();
        DetachedInstance {
            region,
            tree,
            stack,
        }
    }

    /// Attach a migrated instance under id `id`. Resume it with a normal
    /// [`ThreadProfile::task_switch`].
    ///
    /// # Panics
    /// If `id` is already active on this thread.
    pub fn attach_instance(&mut self, id: TaskId, detached: DetachedInstance) {
        assert!(self.slot_of(id).is_none(), "attach over an active instance");
        let root = self.rebuild_tree(&detached.tree, None);
        let frames: Vec<Frame> = detached
            .stack
            .iter()
            .map(|(path, acc)| {
                let node = self.resolve_path(root, path);
                Frame::rebuilt_paused(node, *acc)
            })
            .collect();
        let slot = self.alloc_slot(id, detached.region, false, root);
        self.instance_mut(slot).body.restore_paused(frames);
        self.inc_live_trees();
    }

    /// Child-index path from `root` down to `node`.
    fn path_from(&self, root: NodeId, node: NodeId) -> Vec<usize> {
        let arena = self.arena_ref();
        let mut rev = Vec::new();
        let mut cur = node;
        while cur != root {
            let parent = arena
                .node(cur)
                .parent
                .expect("frame node detached from instance root");
            let idx = arena
                .children(parent)
                .position(|c| c == cur)
                .expect("child link broken");
            rev.push(idx);
            cur = parent;
        }
        rev.reverse();
        rev
    }

    fn resolve_path(&self, root: NodeId, path: &[usize]) -> NodeId {
        let arena = self.arena_ref();
        path.iter().fold(root, |cur, &i| {
            arena
                .children(cur)
                .nth(i)
                .expect("migrated path out of range")
        })
    }

    /// Rebuild a snapshot tree in this thread's arena. Sibling kinds are
    /// unique, so `child_of` appends each child in snapshot order.
    fn rebuild_tree(&mut self, snap: &SnapNode, parent: Option<NodeId>) -> NodeId {
        let arena = self.arena_mut();
        let id = match parent {
            None => arena.alloc(snap.kind, None),
            Some(p) => arena.child_of(p, snap.kind),
        };
        arena.node_mut(id).stats = snap.stats;
        for c in &snap.children {
            self.rebuild_tree(c, Some(id));
        }
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::AssignPolicy;
    use crate::tree::NodeKind;
    use pomp::TaskIdAllocator;

    const PAR: RegionId = RegionId(9500);
    const TASK: RegionId = RegionId(9501);
    const TW: RegionId = RegionId(9502);
    const FOO: RegionId = RegionId(9503);
    const BARRIER: RegionId = RegionId(9504);

    #[test]
    fn migrated_task_resumes_and_merges_on_destination() {
        let ids = TaskIdAllocator::new();
        let id = ids.alloc();
        // Thread A: start the task, run 10 ns in foo, suspend at a
        // taskwait inside foo.
        let mut a = ThreadProfile::new(PAR, 0, AssignPolicy::Executing);
        a.enter(BARRIER, 0);
        a.task_begin(TASK, id, 0);
        a.enter(FOO, 2);
        a.enter(TW, 8);
        a.task_switch(TaskRef::Implicit, 10);
        let detached = a.detach_instance(id);
        assert_eq!(detached.region(), TASK);
        assert_eq!(detached.open_frames(), 3); // task root, foo, taskwait
        a.exit(BARRIER, 11);
        a.finish(12);
        let snap_a = a.snapshot(0);
        // Thread A keeps the fragment in its stub but no task tree (the
        // instance completed elsewhere).
        let bar = snap_a.main.child(NodeKind::Region(BARRIER)).unwrap();
        let stub = bar.child(NodeKind::Stub(TASK)).unwrap();
        assert_eq!(stub.stats.sum_ns, 10);
        assert!(snap_a.task_trees.is_empty());

        // Thread B: attach at its own barrier, resume 100 ns later (its
        // own clock), finish the task.
        let mut b = ThreadProfile::new(PAR, 0, AssignPolicy::Executing);
        b.enter(BARRIER, 0);
        b.attach_instance(id, detached);
        assert_eq!(b.live_instance_trees(), 1);
        b.task_switch(TaskRef::Explicit(id), 100);
        b.exit(TW, 103);
        b.exit(FOO, 105);
        b.task_end(TASK, id, 110);
        b.exit(BARRIER, 112);
        b.finish(112);
        let snap_b = b.snapshot(1);
        // The whole-instance statistics live on the destination thread:
        // 10 ns on A plus 10 ns on B.
        let tree = snap_b.task_tree(TASK).unwrap();
        assert_eq!(tree.stats.samples, 1);
        assert_eq!(tree.stats.sum_ns, 20);
        // foo: 6 on A (2..8 run, wait 8..10 inside tw) + ... recompute:
        // foo entered at 2, paused at 10 => 8; resumed 100, exited 105
        // => 5. total 13.
        let foo = tree.child(NodeKind::Region(FOO)).unwrap();
        assert_eq!(foo.stats.sum_ns, 13);
        let tw = foo.child(NodeKind::Region(TW)).unwrap();
        // tw: 8..10 (2) + 100..103 (3) = 5.
        assert_eq!(tw.stats.sum_ns, 5);
        // B's stub sees the second fragment only.
        let bar_b = snap_b.main.child(NodeKind::Region(BARRIER)).unwrap();
        let stub_b = bar_b.child(NodeKind::Stub(TASK)).unwrap();
        assert_eq!(stub_b.stats.sum_ns, 10);
    }

    #[test]
    fn detach_releases_arena_nodes() {
        let ids = TaskIdAllocator::new();
        let id = ids.alloc();
        let mut a = ThreadProfile::new(PAR, 0, AssignPolicy::Executing);
        a.enter(BARRIER, 0);
        a.task_begin(TASK, id, 0);
        a.enter(FOO, 1);
        a.task_switch(TaskRef::Implicit, 2);
        let live_before = a.live_nodes();
        let _d = a.detach_instance(id);
        assert!(a.live_nodes() < live_before);
        assert_eq!(a.live_instance_trees(), 0);
    }

    #[test]
    #[should_panic(expected = "currently executing")]
    fn detaching_current_task_panics() {
        let ids = TaskIdAllocator::new();
        let id = ids.alloc();
        let mut a = ThreadProfile::new(PAR, 0, AssignPolicy::Executing);
        a.enter(BARRIER, 0);
        a.task_begin(TASK, id, 0);
        let _ = a.detach_instance(id);
    }

    #[test]
    fn round_trip_preserves_partial_statistics() {
        let ids = TaskIdAllocator::new();
        let id = ids.alloc();
        let mut a = ThreadProfile::new(PAR, 0, AssignPolicy::Executing);
        a.enter(BARRIER, 0);
        a.task_begin(TASK, id, 0);
        a.enter(FOO, 1);
        a.exit(FOO, 4); // completed inner region: 3 ns sampled
        a.enter(FOO, 5);
        a.task_switch(TaskRef::Implicit, 7);
        let d = a.detach_instance(id);
        // Re-attach to the same thread (degenerate migration).
        a.attach_instance(id, d);
        a.task_switch(TaskRef::Explicit(id), 10);
        a.exit(FOO, 12);
        a.task_end(TASK, id, 13);
        a.exit(BARRIER, 14);
        a.finish(14);
        let snap = a.snapshot(0);
        let tree = snap.task_tree(TASK).unwrap();
        let foo = tree.child(NodeKind::Region(FOO)).unwrap();
        // First foo 3 ns; second foo 2 (5..7) + 2 (10..12) = 4.
        assert_eq!(foo.stats.visits, 2);
        assert_eq!(foo.stats.sum_ns, 7);
        assert_eq!(foo.stats.min_ns, 3);
        assert_eq!(foo.stats.max_ns, 4);
        // Whole task: 7 (0..7) + 3 (10..13) = 10.
        assert_eq!(tree.stats.sum_ns, 10);
    }
}
