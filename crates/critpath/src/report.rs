//! Plain-data report types and detrimental-pattern detection.

use crate::dag::{TaskDag, SPAWN_REGION};
use pomp::{registry, RegionId, RegionKind};
use std::collections::HashMap;

/// One region's share of the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionRow {
    /// The region.
    pub region: RegionId,
    /// Its registered name (`"<spawn>"` for carved creation overhead with
    /// no known creation region).
    pub name: String,
    /// Total time attributed to the region across all threads.
    pub work_ns: u64,
    /// Time the region contributes along one critical path (0 if the
    /// region is entirely off the critical path — speeding it up cannot
    /// shorten the span).
    pub span_ns: u64,
}

/// The answer to "if `region` were `speedup`× faster, what would the
/// runtime be?".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WhatIfPrediction {
    /// Region hypothetically sped up.
    pub region: RegionId,
    /// The hypothetical speedup factor K (≥ 1).
    pub speedup: u64,
    /// Makespan of the unmodified run (schedule-aware longest path).
    pub baseline_makespan_ns: u64,
    /// Predicted makespan with every `region` fragment K× faster, on the
    /// *same* schedule — the number a deterministic replay reproduces
    /// exactly.
    pub predicted_makespan_ns: u64,
    /// Predicted logical span — the bound no schedule could beat.
    pub predicted_span_ns: u64,
}

impl WhatIfPrediction {
    /// Baseline / predicted makespan: the whole-program speedup bought by
    /// the regional speedup (Amdahl-style, but DAG-exact).
    pub fn program_speedup(&self) -> f64 {
        if self.predicted_makespan_ns == 0 {
            1.0
        } else {
            self.baseline_makespan_ns as f64 / self.predicted_makespan_ns as f64
        }
    }
}

/// A scheduling pathology detected from the DAG shape.
#[derive(Clone, Debug, PartialEq)]
pub enum DetrimentalFlag {
    /// One thread produces nearly all tasks and creation sits on the
    /// critical path: consumers starve behind a serial producer
    /// (the "single-creator" pattern of the detrimental-pattern study).
    SingleCreatorStarvation {
        /// Share of all task creations performed by the busiest creator.
        creator_share: f64,
        /// Share of the critical path spent inside creation regions.
        create_span_share: f64,
    },
    /// Most deferred tasks executed away from their creator: the team is
    /// paying migration cost for nearly every task.
    StealStorm {
        /// Deferred tasks first executed on a non-creator thread.
        steals: u64,
        /// Explicit task instances in the run.
        tasks: u64,
        /// `steals / tasks`.
        steal_ratio: f64,
    },
}

impl std::fmt::Display for DetrimentalFlag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetrimentalFlag::SingleCreatorStarvation {
                creator_share,
                create_span_share,
            } => write!(
                f,
                "single-creator starvation: one thread performs {:.0}% of task creations and creation occupies {:.0}% of the critical path",
                creator_share * 100.0,
                create_span_share * 100.0
            ),
            DetrimentalFlag::StealStorm {
                steals,
                tasks,
                steal_ratio,
            } => write!(
                f,
                "steal storm: {steals} of {tasks} tasks ({:.0}%) first ran away from their creator",
                steal_ratio * 100.0
            ),
        }
    }
}

/// Minimum tasks before a steal ratio is meaningful.
const STEAL_STORM_MIN_TASKS: u64 = 16;
/// Steal ratio at which migration dominates.
const STEAL_STORM_RATIO: f64 = 0.5;
/// Creator concentration that counts as "single creator".
const SINGLE_CREATOR_SHARE: f64 = 0.85;
/// Critical-path share of creation that makes the serial producer the
/// bottleneck.
const SINGLE_CREATOR_SPAN_SHARE: f64 = 0.25;

/// The full critical-path analysis of one run: the work/span numbers,
/// a per-region breakdown, and detrimental-pattern flags.
#[derive(Clone, Debug, PartialEq)]
pub struct CritPathReport {
    /// Total time across all threads.
    pub work_ns: u64,
    /// Logical critical path.
    pub span_ns: u64,
    /// Schedule-aware longest path (modeled runtime of the observed
    /// schedule).
    pub makespan_ns: u64,
    /// Work / span: the speedup ceiling.
    pub parallelism: f64,
    /// Team size observed.
    pub threads: usize,
    /// Explicit task instances.
    pub tasks: u64,
    /// Task fragments (instances + resumptions after suspension).
    pub fragments: u64,
    /// Deferred tasks first executed away from their creator.
    pub steals: u64,
    /// Work performed by each thread (utilization = entry / makespan).
    pub thread_work_ns: Vec<u64>,
    /// Per-region work and critical-path share, largest work first.
    pub regions: Vec<RegionRow>,
    /// Detected scheduling pathologies (empty when the run looks healthy).
    pub flags: Vec<DetrimentalFlag>,
}

fn region_name(r: RegionId) -> String {
    if r == SPAWN_REGION {
        "<spawn>".to_string()
    } else {
        registry().name(r)
    }
}

fn is_create_region(r: RegionId) -> bool {
    r == SPAWN_REGION || registry().kind(r) == RegionKind::TaskCreate
}

impl TaskDag {
    /// Produce the plain-data [`CritPathReport`] for this DAG.
    pub fn report(&self) -> CritPathReport {
        let work_ns = self.work_ns();
        let span_ns = self.span_ns();
        let span_rows: HashMap<RegionId, u64> = self.span_by_region().into_iter().collect();
        let regions: Vec<RegionRow> = self
            .work_by_region()
            .into_iter()
            .map(|(region, work)| RegionRow {
                region,
                name: region_name(region),
                work_ns: work,
                span_ns: span_rows.get(&region).copied().unwrap_or(0),
            })
            .collect();

        let mut flags = Vec::new();
        let tasks = self.tasks();
        let steals = self.steals();
        if tasks >= STEAL_STORM_MIN_TASKS {
            let ratio = steals as f64 / tasks as f64;
            if ratio >= STEAL_STORM_RATIO {
                flags.push(DetrimentalFlag::StealStorm {
                    steals,
                    tasks,
                    steal_ratio: ratio,
                });
            }
        }
        let creates: u64 = self.creates_by_thread().values().sum();
        let top = self.creates_by_thread().values().copied().max().unwrap_or(0);
        if creates >= STEAL_STORM_MIN_TASKS && self.threads() > 1 && span_ns > 0 {
            let creator_share = top as f64 / creates as f64;
            let create_span: u64 = regions
                .iter()
                .filter(|r| is_create_region(r.region))
                .map(|r| r.span_ns)
                .sum();
            let create_span_share = create_span as f64 / span_ns as f64;
            if creator_share >= SINGLE_CREATOR_SHARE
                && create_span_share >= SINGLE_CREATOR_SPAN_SHARE
            {
                flags.push(DetrimentalFlag::SingleCreatorStarvation {
                    creator_share,
                    create_span_share,
                });
            }
        }

        CritPathReport {
            work_ns,
            span_ns,
            makespan_ns: self.makespan_ns(),
            parallelism: self.parallelism(),
            threads: self.threads(),
            tasks,
            fragments: self.fragments(),
            steals,
            thread_work_ns: self.work_by_thread(),
            regions,
            flags,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DagOptions;
    use pomp::{RegionKind, TaskIdAllocator};
    use taskprof::Event;

    fn region(name: &str, kind: RegionKind) -> RegionId {
        registry().register(name, kind, file!(), line!())
    }

    /// Thread 0 creates `n` tasks back-to-back (10ns each inside the
    /// create frame); thread 1 runs them all inside the barrier (1ns each).
    fn single_creator_streams(n: u64) -> (Vec<taskprof::EdgeStream>, RegionId) {
        let par = region("rep-par", RegionKind::Parallel);
        let task = region("rep-task", RegionKind::Task);
        let create = region("rep-create", RegionKind::TaskCreate);
        let bar = region("rep-bar", RegionKind::ImplicitBarrier);
        let ids = TaskIdAllocator::new();
        let all: Vec<_> = (0..n).map(|_| ids.alloc()).collect();
        let mut s0 = Vec::new();
        for &id in &all {
            s0.push(Event::CreateBegin {
                create,
                task_region: task,
                id,
            });
            s0.push(Event::Advance(10));
            s0.push(Event::CreateEnd { create, id });
        }
        s0.push(Event::Enter(bar));
        s0.push(Event::Exit(bar));
        let mut s1 = vec![Event::Enter(bar)];
        for &id in &all {
            s1.push(Event::TaskBegin { region: task, id });
            s1.push(Event::Advance(1));
            s1.push(Event::TaskEnd { region: task, id });
        }
        s1.push(Event::Exit(bar));
        (crate::one_region(vec![(0, s0), (1, s1)]), par)
    }

    #[test]
    fn single_creator_storm_is_flagged() {
        let (streams, par) = single_creator_streams(32);
        let dag = TaskDag::from_streams(&streams, par, &DagOptions::default()).unwrap();
        let report = dag.report();
        assert_eq!(report.tasks, 32);
        assert_eq!(report.steals, 32, "every task ran away from thread 0");
        assert!(
            report
                .flags
                .iter()
                .any(|f| matches!(f, DetrimentalFlag::StealStorm { steal_ratio, .. } if *steal_ratio >= 0.99)),
            "flags: {:?}",
            report.flags
        );
        assert!(
            report
                .flags
                .iter()
                .any(|f| matches!(f, DetrimentalFlag::SingleCreatorStarvation { creator_share, .. } if *creator_share >= 0.99)),
            "flags: {:?}",
            report.flags
        );
        // The creation chain dominates the span: 32 creates × 10ns.
        assert!(report.span_ns >= 320);
        assert!(report.parallelism >= 1.0);
        assert!(report.span_ns <= report.work_ns);
    }

    #[test]
    fn healthy_run_has_no_flags() {
        let (streams, par) = single_creator_streams(4); // below min-task floor
        let dag = TaskDag::from_streams(&streams, par, &DagOptions::default()).unwrap();
        assert!(dag.report().flags.is_empty());
    }

    #[test]
    fn region_rows_sorted_by_work_and_named() {
        let (streams, par) = single_creator_streams(32);
        let dag = TaskDag::from_streams(&streams, par, &DagOptions::default()).unwrap();
        let report = dag.report();
        assert!(!report.regions.is_empty());
        assert!(report.regions.windows(2).all(|w| w[0].work_ns >= w[1].work_ns));
        assert_eq!(report.regions[0].name, "rep-create");
        assert_eq!(report.regions[0].work_ns, 320);
        assert!(report.regions[0].span_ns > 0, "creation is on the span");
    }

    #[test]
    fn flag_display_is_human_readable() {
        let f = DetrimentalFlag::StealStorm {
            steals: 30,
            tasks: 32,
            steal_ratio: 30.0 / 32.0,
        };
        assert!(f.to_string().contains("steal storm"));
        let f = DetrimentalFlag::SingleCreatorStarvation {
            creator_share: 1.0,
            create_span_share: 0.5,
        };
        assert!(f.to_string().contains("single-creator"));
    }
}
