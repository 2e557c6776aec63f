//! `critpath` — causal critical-path analysis for task profiles.
//!
//! The call-path profiles of the parent crates say *where* time went; this
//! crate answers whether optimizing a region would actually *help*. It
//! consumes the per-thread event streams the profiler already sees (the
//! same [`taskprof::Event`] language the replayer speaks), reconstructs
//! the task creation/join DAG of the run, and computes the three numbers
//! of classic work/span analysis (TASKPROF, arXiv 1705.01522):
//!
//! * **work** — total time spent across all threads,
//! * **span** — the longest dependency chain (creation, taskwait joins,
//!   barriers, per-task program order): the runtime on infinitely many
//!   processors,
//! * **parallelism** = work / span — the speedup ceiling no scheduler can
//!   beat.
//!
//! On top of the DAG sits a **what-if engine**: "if region R were K×
//! faster, what would the runtime be?" is answered by scaling the weight
//! of every R-attributed fragment by 1/K and re-solving the DAG — both
//! the logical span and the *schedule-aware* makespan (the DAG plus
//! thread-order edges pinning each fragment to the thread that actually
//! ran it). Under the deterministic `simsched` virtual clock the
//! schedule-aware prediction is not an estimate: replaying the same seed
//! with the region actually sped up reproduces it exactly, because the
//! simulation scheduler's decisions are purely structural — clock values
//! never feed back into scheduling (see `simsched::whatif`).
//!
//! The entry point is [`TaskDag::from_streams`]; [`TaskDag::report`]
//! produces the plain [`CritPathReport`] (including detrimental-pattern
//! flags: single-creator starvation, steal storms), and
//! [`TaskDag::what_if`] answers speedup queries.

#![warn(missing_docs)]

mod dag;
mod report;

pub use dag::{DagError, DagOptions, TaskDag, SPAWN_REGION};
pub use report::{CritPathReport, DetrimentalFlag, RegionRow, WhatIfPrediction};

/// One region instance's per-thread streams, every thread beginning at 0.
#[cfg(test)]
fn one_region(threads: Vec<(usize, Vec<taskprof::Event>)>) -> Vec<taskprof::EdgeStream> {
    threads
        .into_iter()
        .map(|(tid, events)| taskprof::EdgeStream {
            instance: 0,
            tid,
            start: 0,
            events,
        })
        .collect()
}
