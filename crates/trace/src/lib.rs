//! `taskprof-trace` — OTF2-style event tracing and trace-based task
//! analysis.
//!
//! The paper's Section VII names trace analysis as the missing piece:
//! profiles cannot distinguish whether time at a synchronization point is
//! *management* overhead or *waiting* for task completion, and suggests
//! that "the time between the enter of the last synchronization point and
//! the task switch event would be of interest", as well as "the ratio of
//! overall management time to exclusive execution time for tasks".
//!
//! This crate implements that future work:
//!
//! * [`Trace::from_edge_streams`] turns the profiler's own edge log
//!   (`ProfMonitor` built with `record_task_edges()`) into a timestamped
//!   per-thread event trace, so one measurement yields both the profile
//!   and the trace,
//! * [`analysis`] computes the paper's proposed metrics: scheduling-point
//!   dwell decomposition (pre-switch management vs. task execution vs.
//!   residual waiting), creation-to-start queue latencies, fragments per
//!   instance, and the management-to-work ratio.

#![warn(missing_docs)]

pub mod analysis;
pub mod event;
pub mod store;

pub use analysis::{analyze, InstanceLatency, SchedulingPointBreakdown, TraceAnalysis};
pub use event::{EventKind, Trace, TraceEvent};
pub use store::{read_trace, write_trace, ParseError};
