//! Per-node metric statistics.
//!
//! Following Score-P (paper Section IV-A), every call-tree node stores, for
//! each metric, "the sum, the minimum, the maximum and the number of
//! samples". We track one metric — inclusive wall time — plus the visit
//! count. Exclusive time is *derived* at analysis time by subtracting the
//! children's inclusive sums (paper Fig. 3 caption).

/// Statistics of one call-tree node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Stats {
    /// Number of times the region was entered (for task roots after
    /// merging: the number of completed instances; for stub nodes: the
    /// number of task fragments executed under the scheduling point).
    pub visits: u64,
    /// Sum of recorded inclusive durations, nanoseconds.
    pub sum_ns: u64,
    /// Minimum recorded duration (`u64::MAX` while no samples).
    pub min_ns: u64,
    /// Maximum recorded duration.
    pub max_ns: u64,
    /// Number of recorded duration samples (≤ visits; a still-open region
    /// has been visited but not yet sampled).
    pub samples: u64,
    /// Number of *aborted* (panicked or force-closed) task instances whose
    /// partial execution is folded into this node. Zero everywhere except
    /// on task roots that absorbed a `task_abort`; survives merging, so an
    /// aggregate task tree reports how many of its instances failed.
    pub aborted: u64,
}

impl Default for Stats {
    fn default() -> Self {
        Self::new()
    }
}

impl Stats {
    /// Empty statistics.
    pub const fn new() -> Self {
        Self {
            visits: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            samples: 0,
            aborted: 0,
        }
    }

    /// Count one visit (region enter).
    #[inline]
    pub fn add_visit(&mut self) {
        self.visits += 1;
    }

    /// Record one completed inclusive duration (region exit).
    #[inline]
    pub fn record(&mut self, dur_ns: u64) {
        self.sum_ns += dur_ns;
        self.min_ns = self.min_ns.min(dur_ns);
        self.max_ns = self.max_ns.max(dur_ns);
        self.samples += 1;
    }

    /// Count one aborted instance (the task's body panicked or the region
    /// ended while the instance was still open and it was force-closed).
    #[inline]
    pub fn record_abort(&mut self) {
        self.aborted += 1;
    }

    /// Fold another node's statistics into this one (tree merging).
    #[inline]
    pub fn merge(&mut self, other: &Stats) {
        self.visits += other.visits;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.samples += other.samples;
        self.aborted += other.aborted;
    }

    /// Mean duration over recorded samples, or 0 with no samples.
    pub fn mean_ns(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.samples as f64
        }
    }

    /// Minimum as an `Option` (None with no samples).
    pub fn min(&self) -> Option<u64> {
        (self.samples > 0).then_some(self.min_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_updates_extrema() {
        let mut s = Stats::new();
        s.add_visit();
        s.record(10);
        s.add_visit();
        s.record(4);
        s.add_visit();
        s.record(7);
        assert_eq!(s.visits, 3);
        assert_eq!(s.samples, 3);
        assert_eq!(s.sum_ns, 21);
        assert_eq!(s.min(), Some(4));
        assert_eq!(s.max_ns, 10);
        assert!((s.mean_ns() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_no_min_and_zero_mean() {
        let s = Stats::new();
        assert_eq!(s.min(), None);
        assert_eq!(s.mean_ns(), 0.0);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Stats::new();
        a.add_visit();
        a.record(5);
        let mut b = Stats::new();
        b.add_visit();
        b.add_visit();
        b.record(1);
        b.record(9);
        a.merge(&b);
        assert_eq!(a.visits, 3);
        assert_eq!(a.samples, 3);
        assert_eq!(a.sum_ns, 15);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max_ns, 9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Stats::new();
        a.add_visit();
        a.record(5);
        let before = a;
        a.merge(&Stats::new());
        assert_eq!(a, before);
    }

    #[test]
    fn abort_counts_survive_merging() {
        let mut a = Stats::new();
        a.add_visit();
        a.record(5);
        a.record_abort();
        let mut b = Stats::new();
        b.record_abort();
        b.record_abort();
        a.merge(&b);
        assert_eq!(a.aborted, 3);
        assert_eq!(a.samples, 1, "aborts do not add duration samples");
    }
}
