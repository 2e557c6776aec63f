//! Arena-allocated call trees with node reuse.
//!
//! Each thread owns one [`Arena`] holding *all* of its trees: the implicit
//! task's main tree, the private tree of every active task instance, and the
//! aggregated per-construct task trees. Nodes released when an instance tree
//! is merged go onto a free list and are reused for the next instance —
//! the memory-bounding behaviour evaluated in the paper's Section V-B
//! ("released task-instance tree nodes are reused").

use crate::metrics::Stats;
use pomp::{ParamId, RegionId};

/// Handle of a node within one thread's [`Arena`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NodeId(u32);

impl NodeId {
    /// Arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a call-tree node represents.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NodeKind {
    /// An entered source region (function, task root, taskwait, ...).
    Region(RegionId),
    /// A *stub node* (paper Section IV-B4): child of a scheduling-point
    /// node in the implicit task's tree, accounting the time the thread
    /// spent executing fragments of tasks of this construct there.
    Stub(RegionId),
    /// A parameter sub-tree, e.g. `depth = 3` (paper Section VI).
    Param(ParamId, i64),
    /// Collapsed sub-tree below the configured depth limit (the "tree
    /// depth limits" the paper's Section IV-B3 refers to): everything
    /// deeper is accounted here in aggregate.
    Truncated,
}

/// One call-tree node.
///
/// Children are linked inside the arena (first child / next sibling), so
/// a node owns no heap storage of its own and a recycled slot is reused
/// without allocating.
#[derive(Debug)]
pub struct Node {
    /// Node identity used for child lookup during profiling and merging.
    pub kind: NodeKind,
    /// Parent node; `None` for roots (the main root, detached instance
    /// roots, and aggregated task-tree roots).
    pub parent: Option<NodeId>,
    /// First child in creation order.
    first_child: Option<NodeId>,
    /// Next sibling in creation order.
    next_sibling: Option<NodeId>,
    /// Metric statistics.
    pub stats: Stats,
}

/// Iterator over a node's children in creation order
/// ([`Arena::children`]).
pub struct Children<'a> {
    arena: &'a Arena,
    next: Option<NodeId>,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        let c = self.next?;
        self.next = self.arena.nodes[c.index()].next_sibling;
        Some(c)
    }
}

/// Arena of call-tree nodes with a free list.
#[derive(Debug)]
pub struct Arena {
    nodes: Vec<Node>,
    free: Vec<NodeId>,
    reuse: bool,
}

impl Default for Arena {
    fn default() -> Self {
        Self {
            nodes: Vec::new(),
            free: Vec::new(),
            reuse: true,
        }
    }
}

impl Arena {
    /// Empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty arena with room for `nodes` nodes before reallocating —
    /// the preallocated per-thread measurement memory of the sharded
    /// fast path (no allocation on the first `nodes` enter events).
    pub fn with_capacity(nodes: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(nodes),
            free: Vec::new(),
            reuse: true,
        }
    }

    /// Clear all nodes while keeping the allocated slot capacity, so the
    /// arena can be recycled for the next parallel region without paying
    /// its allocations again.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.reuse = true;
    }

    /// Toggle free-list node reuse (on by default). Disabling it is the
    /// ablation of the paper's Section V-B memory strategy: released
    /// nodes are leaked instead of recycled, so memory grows with the
    /// *total* number of instances rather than the *concurrent* number.
    pub fn set_reuse(&mut self, reuse: bool) {
        self.reuse = reuse;
    }

    /// Total nodes ever allocated (high-water mark of arena slots).
    pub fn capacity_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Nodes currently in use (allocated minus free-listed).
    pub fn live_nodes(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Allocate a node, reusing a released slot when available.
    pub fn alloc(&mut self, kind: NodeKind, parent: Option<NodeId>) -> NodeId {
        if !self.reuse {
            self.free.clear();
        }
        let fresh = Node {
            kind,
            parent,
            first_child: None,
            next_sibling: None,
            stats: Stats::new(),
        };
        if let Some(id) = self.free.pop() {
            self.nodes[id.index()] = fresh;
            id
        } else {
            let id = NodeId(u32::try_from(self.nodes.len()).expect("arena overflow"));
            self.nodes.push(fresh);
            id
        }
    }

    /// Shared access to a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node.
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// The children of `parent` in creation order.
    #[inline]
    pub fn children(&self, parent: NodeId) -> Children<'_> {
        Children {
            arena: self,
            next: self.nodes[parent.index()].first_child,
        }
    }

    /// Find the child of `parent` with identity `kind`, creating it if
    /// absent. This is the per-enter-event lookup of the Score-P profiling
    /// algorithm (paper Section IV-A). Fan-out in task profiles is small,
    /// so lookup is a linear walk of the sibling links; a new child is
    /// linked after the last one, keeping creation order.
    pub fn child_of(&mut self, parent: NodeId, kind: NodeKind) -> NodeId {
        let mut last = None;
        let mut cur = self.nodes[parent.index()].first_child;
        while let Some(c) = cur {
            let n = &self.nodes[c.index()];
            if n.kind == kind {
                return c;
            }
            last = cur;
            cur = n.next_sibling;
        }
        let c = self.alloc(kind, Some(parent));
        match last {
            Some(l) => self.nodes[l.index()].next_sibling = Some(c),
            None => self.nodes[parent.index()].first_child = Some(c),
        }
        c
    }

    /// Find an existing child without creating.
    pub fn find_child(&self, parent: NodeId, kind: NodeKind) -> Option<NodeId> {
        self.children(parent)
            .find(|&c| self.nodes[c.index()].kind == kind)
    }

    /// Merge the subtree rooted at `src` into the children of `dst`
    /// (matching by node identity, creating missing nodes), then release
    /// every `src` node to the free list. `src` must be a *detached* root
    /// (its slot is released too).
    ///
    /// This implements the paper's TaskEnd step "merge task tree into
    /// global profile of thread" with node reuse.
    pub fn merge_into(&mut self, src: NodeId, dst: NodeId) {
        debug_assert_ne!(src, dst);
        let src_node = &self.nodes[src.index()];
        let (src_stats, mut cur) = (src_node.stats, src_node.first_child);
        self.nodes[dst.index()].stats.merge(&src_stats);
        while let Some(child) = cur {
            // Read the link before the child is released (and possibly
            // reused by an allocation further down this merge).
            let n = &self.nodes[child.index()];
            let (kind, next) = (n.kind, n.next_sibling);
            let dst_child = self.child_of(dst, kind);
            self.merge_into(child, dst_child);
            cur = next;
        }
        self.free.push(src);
    }

    /// Release a whole subtree (used when a profile is torn down without
    /// merging, e.g. on abandoned replay state).
    pub fn release_subtree(&mut self, root: NodeId) {
        let mut cur = self.nodes[root.index()].first_child;
        while let Some(c) = cur {
            cur = self.nodes[c.index()].next_sibling;
            self.release_subtree(c);
        }
        self.free.push(root);
    }

    /// Sum of the inclusive-time sums of `node`'s children — the subtrahend
    /// of the exclusive-time computation.
    pub fn children_sum_ns(&self, node: NodeId) -> u64 {
        self.children(node)
            .map(|c| self.nodes[c.index()].stats.sum_ns)
            .sum()
    }

    /// Exclusive time of `node`: its inclusive sum minus its children's
    /// inclusive sums. Signed, because the paper's Fig. 3 shows how the
    /// *wrong* attribution policy produces negative values.
    pub fn exclusive_ns(&self, node: NodeId) -> i64 {
        self.nodes[node.index()].stats.sum_ns as i64 - self.children_sum_ns(node) as i64
    }

    /// Number of nodes in the subtree rooted at `root` (including it).
    pub fn subtree_size(&self, root: NodeId) -> usize {
        1 + self
            .children(root)
            .map(|c| self.subtree_size(c))
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(i: u32) -> RegionId {
        RegionId(i)
    }

    #[test]
    fn child_of_finds_or_creates() {
        let mut a = Arena::new();
        let root = a.alloc(NodeKind::Region(rid(0)), None);
        let c1 = a.child_of(root, NodeKind::Region(rid(1)));
        let c2 = a.child_of(root, NodeKind::Region(rid(1)));
        assert_eq!(c1, c2);
        let c3 = a.child_of(root, NodeKind::Region(rid(2)));
        assert_ne!(c1, c3);
        assert_eq!(a.children(root).count(), 2);
        assert_eq!(a.node(c1).parent, Some(root));
    }

    #[test]
    fn stub_and_region_of_same_region_are_distinct_children() {
        let mut a = Arena::new();
        let root = a.alloc(NodeKind::Region(rid(0)), None);
        let r = a.child_of(root, NodeKind::Region(rid(1)));
        let s = a.child_of(root, NodeKind::Stub(rid(1)));
        assert_ne!(r, s);
    }

    #[test]
    fn param_nodes_keyed_by_value() {
        let mut a = Arena::new();
        let root = a.alloc(NodeKind::Region(rid(0)), None);
        let p3 = a.child_of(root, NodeKind::Param(ParamId(0), 3));
        let p4 = a.child_of(root, NodeKind::Param(ParamId(0), 4));
        let p3b = a.child_of(root, NodeKind::Param(ParamId(0), 3));
        assert_ne!(p3, p4);
        assert_eq!(p3, p3b);
    }

    #[test]
    fn merge_into_adds_stats_and_releases_nodes() {
        let mut a = Arena::new();
        // dst tree: root -> x
        let dst = a.alloc(NodeKind::Region(rid(9)), None);
        let dx = a.child_of(dst, NodeKind::Region(rid(1)));
        a.node_mut(dst).stats.record(10);
        a.node_mut(dx).stats.record(4);
        // src tree: root -> {x, y}
        let src = a.alloc(NodeKind::Region(rid(9)), None);
        let sx = a.child_of(src, NodeKind::Region(rid(1)));
        let sy = a.child_of(src, NodeKind::Region(rid(2)));
        a.node_mut(src).stats.record(20);
        a.node_mut(sx).stats.record(6);
        a.node_mut(sy).stats.record(1);
        let live_before = a.live_nodes();
        a.merge_into(src, dst);
        // dst absorbed stats; y was created under dst.
        assert_eq!(a.node(dst).stats.sum_ns, 30);
        assert_eq!(a.node(dst).stats.samples, 2);
        assert_eq!(a.node(dx).stats.sum_ns, 10);
        let dy = a.find_child(dst, NodeKind::Region(rid(2))).unwrap();
        assert_eq!(a.node(dy).stats.sum_ns, 1);
        // src root and sx were released; sy was *reused* as dy or released.
        // Net live-node change: -3 (src subtree) +1 (new dy).
        assert_eq!(a.live_nodes(), live_before - 2);
    }

    #[test]
    fn released_nodes_are_reused() {
        let mut a = Arena::new();
        let r1 = a.alloc(NodeKind::Region(rid(0)), None);
        let c1 = a.child_of(r1, NodeKind::Region(rid(1)));
        a.release_subtree(r1);
        assert_eq!(a.live_nodes(), 0);
        let r2 = a.alloc(NodeKind::Region(rid(5)), None);
        let c2 = a.child_of(r2, NodeKind::Region(rid(6)));
        // Slots are recycled: no new capacity was needed.
        assert_eq!(a.capacity_nodes(), 2);
        assert_eq!(a.live_nodes(), 2);
        // Reused nodes are fully reset.
        assert_eq!(a.node(r2).stats, Stats::new());
        assert_eq!(a.children(r2).collect::<Vec<_>>(), vec![c2]);
        assert!([r1, c1].contains(&r2) && [r1, c1].contains(&c2));
    }

    #[test]
    fn exclusive_time_subtracts_children() {
        let mut a = Arena::new();
        let root = a.alloc(NodeKind::Region(rid(0)), None);
        let c = a.child_of(root, NodeKind::Region(rid(1)));
        a.node_mut(root).stats.record(10);
        a.node_mut(c).stats.record(7);
        assert_eq!(a.exclusive_ns(root), 3);
        // The paper's Fig. 3 pathology: child bigger than parent.
        a.node_mut(c).stats.record(8);
        assert_eq!(a.exclusive_ns(root), -5);
    }

    #[test]
    fn subtree_size_counts_nodes() {
        let mut a = Arena::new();
        let root = a.alloc(NodeKind::Region(rid(0)), None);
        let c = a.child_of(root, NodeKind::Region(rid(1)));
        a.child_of(c, NodeKind::Region(rid(2)));
        a.child_of(root, NodeKind::Region(rid(3)));
        assert_eq!(a.subtree_size(root), 4);
    }
}
