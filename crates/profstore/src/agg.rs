//! Cross-run aggregation and regression checking.
//!
//! `cube::agg` merges the threads of *one* run; this module folds *many
//! runs* of the same benchmark into one aggregate: per-construct
//! min/max/mean/sum over runs (the paper's per-node statistics, lifted
//! one level up), plus a structurally merged call tree. The fold is
//! strictly one-run-at-a-time so the store's streaming merge never holds
//! more than one decoded profile, and it walks each thread tree once:
//! every thread's main and task trees merge straight into the group's
//! trees in place (the same child order and statistics as the
//! thread-merge-then-`cube::merge_nodes` composition), while the same
//! walk sums the run's per-construct totals by node identity. Names are
//! resolved once per distinct construct per run, after the walk.

use pomp::{registry, RegistryView};
use std::borrow::Cow;
use std::collections::BTreeMap;
use taskprof::{NodeKind, Profile, SnapNode, Stats};

/// min/max/mean/sum of one metric over runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricAgg {
    /// Number of runs folded in.
    pub count: u64,
    /// Sum over runs.
    pub sum: u64,
    /// Minimum over runs (`u64::MAX` while empty).
    pub min: u64,
    /// Maximum over runs.
    pub max: u64,
}

/// Same as [`MetricAgg::new`]: the empty-minimum sentinel is `u64::MAX`,
/// so a derived all-zero default would corrupt the first `min` fold.
impl Default for MetricAgg {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricAgg {
    /// Empty aggregate.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Fold one run's value.
    pub fn fold(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean over folded runs (0.0 while empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Minimum as an `Option` (None while empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }
}

/// One run reduced to the per-construct totals the cross-run statistics
/// are built from: inclusive nanoseconds summed per region name over the
/// thread-merged trees (task trees included, parameter nodes skipped).
#[derive(Clone, Debug, PartialEq)]
pub struct RunSummary {
    /// Root (parallel region) inclusive time, summed over threads.
    pub total_ns: u64,
    /// Per-construct inclusive nanoseconds, keyed by display name
    /// (stub nodes get a ` (stub)` suffix to stay distinct).
    pub regions: BTreeMap<String, u64>,
}

/// A run's total: the thread main roots' inclusive time, summed. Equal
/// by construction to the root of the thread-merged main tree.
pub(crate) fn run_total_ns(profile: &Profile) -> u64 {
    profile.threads.iter().map(|t| t.main.stats.sum_ns).sum()
}

/// Per-construct totals of one run, gathered by node identity during the
/// tree walk; display names are resolved afterwards, once per distinct
/// construct.
#[derive(Default)]
struct RunTotals {
    /// `(identity code, inclusive ns)` per visited named node.
    by_kind: Vec<(u64, u64)>,
}

impl RunTotals {
    fn add(&mut self, node: &SnapNode) {
        let code = match node.kind {
            NodeKind::Region(id) => u64::from(id.0) << 1,
            NodeKind::Stub(id) => u64::from(id.0) << 1 | 1,
            NodeKind::Param(..) | NodeKind::Truncated => return,
        };
        self.by_kind.push((code, node.stats.sum_ns));
    }

    fn add_tree(&mut self, tree: &SnapNode) {
        tree.walk(&mut |_, node| self.add(node));
    }

    /// `(display key, inclusive ns)` per construct, ascending by key.
    /// Constructs sharing a display name (two region kinds of one name)
    /// sum into one key, as they do in [`RunSummary::regions`].
    fn by_key<'r>(mut self, reg: &'r RegistryView<'_>) -> Vec<(Cow<'r, str>, u64)> {
        self.by_kind.sort_unstable_by_key(|&(code, _)| code);
        let mut keyed: Vec<(Cow<'r, str>, u64)> = Vec::new();
        let mut last = None;
        for (code, ns) in self.by_kind {
            if last == Some(code) {
                keyed.last_mut().expect("code seen").1 += ns;
                continue;
            }
            last = Some(code);
            let name = reg.name(pomp::RegionId((code >> 1) as u32));
            let key = if code & 1 == 0 {
                Cow::Borrowed(name)
            } else {
                Cow::Owned(format!("{name} (stub)"))
            };
            keyed.push((key, ns));
        }
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        keyed.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        keyed
    }
}

fn empty_node(kind: NodeKind) -> SnapNode {
    SnapNode {
        kind,
        stats: Stats::new(),
        children: Vec::new(),
    }
}

/// Merge `src` into `acc` in place (statistics folded, children matched
/// by identity in first-appearance order), counting every `src` node
/// into `totals` on the way.
fn merge_into(acc: &mut SnapNode, src: &SnapNode, totals: &mut RunTotals) {
    acc.stats.merge(&src.stats);
    totals.add(src);
    for child in &src.children {
        let i = match acc.children.iter().position(|c| c.kind == child.kind) {
            Some(i) => i,
            None => {
                acc.children.push(empty_node(child.kind));
                acc.children.len() - 1
            }
        };
        merge_into(&mut acc.children[i], child, totals);
    }
}

impl RunSummary {
    /// Reduce one profile.
    pub fn from_profile(p: &Profile) -> Self {
        let mut totals = RunTotals::default();
        for t in &p.threads {
            totals.add_tree(&t.main);
            for tree in &t.task_trees {
                totals.add_tree(tree);
            }
        }
        let reg = registry().view();
        let regions = totals
            .by_key(&reg)
            .into_iter()
            .map(|(key, ns)| (key.into_owned(), ns))
            .collect();
        Self {
            total_ns: run_total_ns(p),
            regions,
        }
    }
}

/// Cross-run aggregate of one (benchmark, thread count) group.
#[derive(Clone, Debug, Default)]
pub struct BenchAgg {
    /// Runs folded in.
    pub runs: u64,
    /// Run total (root inclusive) over runs.
    pub total_ns: MetricAgg,
    /// Per-construct inclusive time over runs, keyed like
    /// [`RunSummary::regions`].
    pub regions: BTreeMap<String, MetricAgg>,
    /// Structural merge of every run's thread-merged main tree (absent
    /// until the first run; left at the first run's shape if later runs
    /// disagree on the root construct).
    pub merged_main: Option<SnapNode>,
    /// Structural merges of the per-construct task trees.
    pub merged_tasks: Vec<SnapNode>,
    /// Runs whose root construct did not match [`BenchAgg::merged_main`]
    /// and were therefore excluded from the tree merge (their scalar
    /// statistics still count).
    pub tree_mismatches: u64,
}

impl BenchAgg {
    /// Empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one run: one walk over each thread tree merges it into the
    /// group's trees and sums the run's per-construct totals.
    pub fn fold(&mut self, profile: &Profile) {
        let mut totals = RunTotals::default();
        // The run's root construct is its first thread's, as in a
        // thread-merged tree.
        let merge = match (profile.threads.first(), &self.merged_main) {
            (None, _) => false,
            (Some(t), None) => {
                self.merged_main = Some(empty_node(t.main.kind));
                self.merged_tasks.clear();
                true
            }
            (Some(t), Some(main)) if main.kind == t.main.kind => true,
            (Some(_), Some(_)) => {
                self.tree_mismatches += 1;
                false
            }
        };
        for t in &profile.threads {
            if !merge {
                totals.add_tree(&t.main);
                t.task_trees.iter().for_each(|tree| totals.add_tree(tree));
                continue;
            }
            let main = self.merged_main.as_mut().expect("merge target set above");
            merge_into(main, &t.main, &mut totals);
            for tree in &t.task_trees {
                let i = match self.merged_tasks.iter().position(|m| m.kind == tree.kind) {
                    Some(i) => i,
                    None => {
                        self.merged_tasks.push(empty_node(tree.kind));
                        self.merged_tasks.len() - 1
                    }
                };
                merge_into(&mut self.merged_tasks[i], tree, &mut totals);
            }
        }
        self.runs += 1;
        self.total_ns.fold(run_total_ns(profile));
        let reg = registry().view();
        for (key, ns) in totals.by_key(&reg) {
            match self.regions.get_mut(key.as_ref()) {
                Some(agg) => agg.fold(ns),
                None => self.regions.entry(key.into_owned()).or_default().fold(ns),
            }
        }
    }

    /// The `n` largest constructs by summed inclusive time over runs.
    pub fn top_regions(&self, n: usize) -> Vec<(&str, &MetricAgg)> {
        let mut rows: Vec<(&str, &MetricAgg)> =
            self.regions.iter().map(|(k, v)| (k.as_str(), v)).collect();
        // Sort by sum descending; the BTreeMap key breaks ties, keeping
        // the ordering byte-stable across identical sweeps.
        rows.sort_by(|a, b| b.1.sum.cmp(&a.1.sum).then_with(|| a.0.cmp(b.0)));
        rows.truncate(n);
        rows
    }

    /// Check a new run against this aggregate.
    pub fn check_regression(&self, new_run: &RunSummary, config: &RegressConfig) -> Regression {
        let mut findings = Vec::new();
        if self.runs >= config.min_runs {
            let mut consider = |region: &str, new_ns: u64, agg: &MetricAgg| {
                let mean = agg.mean();
                let grew_by = new_ns as f64 - mean;
                if mean > 0.0
                    && grew_by > config.min_delta_ns as f64
                    && new_ns as f64 > mean * (1.0 + config.threshold)
                {
                    findings.push(RegressionFinding {
                        region: region.to_string(),
                        new_ns,
                        mean_ns: mean,
                        ratio: new_ns as f64 / mean,
                    });
                }
            };
            consider("(total)", new_run.total_ns, &self.total_ns);
            for (region, agg) in &self.regions {
                if let Some(new_ns) = new_run.regions.get(region) {
                    consider(region, *new_ns, agg);
                }
            }
        }
        Regression {
            baseline_runs: self.runs,
            threshold: config.threshold,
            regressed: !findings.is_empty(),
            findings,
        }
    }
}

/// Tunables for [`BenchAgg::check_regression`].
#[derive(Clone, Copy, Debug)]
pub struct RegressConfig {
    /// Relative growth over the stored mean that counts as a regression
    /// (0.2 = 20% slower).
    pub threshold: f64,
    /// Minimum stored runs before any verdict; below this the check
    /// always passes (not enough baseline).
    pub min_runs: u64,
    /// Absolute floor: growth below this many nanoseconds never flags,
    /// regardless of ratio (suppresses noise on near-zero constructs).
    pub min_delta_ns: u64,
}

impl Default for RegressConfig {
    fn default() -> Self {
        Self {
            threshold: 0.2,
            min_runs: 1,
            min_delta_ns: 0,
        }
    }
}

/// One construct that regressed.
#[derive(Clone, Debug, PartialEq)]
pub struct RegressionFinding {
    /// Construct display name (`(total)` for the whole-run time).
    pub region: String,
    /// The new run's inclusive nanoseconds.
    pub new_ns: u64,
    /// Mean over the stored baseline runs.
    pub mean_ns: f64,
    /// `new_ns / mean_ns`.
    pub ratio: f64,
}

/// Verdict of a regression check.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Runs in the stored baseline.
    pub baseline_runs: u64,
    /// The relative threshold the check ran with.
    pub threshold: f64,
    /// True when at least one construct regressed.
    pub regressed: bool,
    /// The regressed constructs, in deterministic (`(total)` first, then
    /// name) order.
    pub findings: Vec<RegressionFinding>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::{RegionKind, TaskIdAllocator};
    use taskprof::{AssignPolicy, Event, TeamReplayer};

    fn profile(tag: &str, task_ns: u64) -> Profile {
        let reg = registry();
        let par = reg.register(&format!("{tag}-par"), RegionKind::Parallel, "t", 0);
        let task = reg.register(&format!("{tag}-task"), RegionKind::Task, "t", 0);
        let ids = TaskIdAllocator::new();
        let mut team = TeamReplayer::new(1, par, AssignPolicy::Executing);
        let id = ids.alloc();
        team.apply(0, Event::TaskBegin { region: task, id })
            .advance(task_ns)
            .apply(0, Event::TaskEnd { region: task, id });
        team.finish()
    }

    #[test]
    fn metric_agg_folds() {
        let mut m = MetricAgg::new();
        assert_eq!(m.min(), None);
        m.fold(10);
        m.fold(30);
        m.fold(20);
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 60);
        assert_eq!(m.min(), Some(10));
        assert_eq!(m.max, 30);
        assert!((m.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn bench_agg_accumulates_runs() {
        let mut agg = BenchAgg::new();
        agg.fold(&profile("agg-a", 100));
        agg.fold(&profile("agg-a", 300));
        assert_eq!(agg.runs, 2);
        let task = agg.regions.get("agg-a-task").expect("task tracked");
        assert_eq!(task.count, 2);
        assert_eq!(task.min(), Some(100));
        assert_eq!(task.max, 300);
        // total_ns is built through Default: its empty-min sentinel must
        // be u64::MAX, or the first fold would pin min at 0.
        assert!(agg.total_ns.min().expect("folded") > 0);
        assert_eq!(agg.total_ns.min(), Some(agg.total_ns.min));
        assert_eq!(agg.tree_mismatches, 0);
        let main = agg.merged_main.as_ref().expect("merged tree");
        assert_eq!(main.stats.visits, 2);
        let top = agg.top_regions(10);
        assert!(!top.is_empty());
        assert!(top[0].1.sum >= top.last().unwrap().1.sum);
    }

    #[test]
    fn regression_flags_growth_beyond_threshold() {
        let mut agg = BenchAgg::new();
        for _ in 0..5 {
            agg.fold(&profile("agg-r", 100));
        }
        let ok = RunSummary::from_profile(&profile("agg-r", 110));
        let bad = RunSummary::from_profile(&profile("agg-r", 200));
        let config = RegressConfig {
            threshold: 0.5,
            min_runs: 3,
            min_delta_ns: 0,
        };
        let verdict = agg.check_regression(&ok, &config);
        assert!(!verdict.regressed, "{verdict:?}");
        let verdict = agg.check_regression(&bad, &config);
        assert!(verdict.regressed);
        assert!(verdict.findings.iter().any(|f| f.region == "agg-r-task"));
        let f = verdict.findings.iter().find(|f| f.region == "agg-r-task").unwrap();
        assert!((f.ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn regression_needs_a_baseline() {
        let mut agg = BenchAgg::new();
        agg.fold(&profile("agg-b", 100));
        let huge = RunSummary::from_profile(&profile("agg-b", 10_000));
        let config = RegressConfig {
            min_runs: 3,
            ..RegressConfig::default()
        };
        assert!(!agg.check_regression(&huge, &config).regressed);
    }
}
