//! # simsched — deterministic schedule exploration for task profiles
//!
//! The profiler's correctness claims (paper Sections IV–V) are statements
//! about *every* schedule: exclusive times stay consistent however tasks
//! interleave (Fig. 3), stub time equals task-tree time per construct
//! (Fig. 5), and the live-instance high-water mark stays within the tied-
//! scheduling bound (Table II). Real work-stealing executions sample that
//! space blindly and unreproducibly. This crate makes the space
//! *drivable*: the real `taskrt` runtime executes under a
//! [`SimScheduler`] — a [`taskrt::SchedulePolicy`] that serializes the
//! team onto one execution token and takes every nondeterministic
//! decision (who runs at each scheduling point, defer vs. undeferred
//! creation, `single` arbitration order, steal victims) from a `u64` seed
//! or an explicit choice script — while a per-thread virtual clock
//! ([`SimClock`]) replaces the TSC so profiles are exact and
//! byte-reproducible.
//!
//! On top of single runs ([`run_workload`]), [`explore_seeds`] samples
//! many schedules and [`explore_dfs`] enumerates all of them for small
//! graphs; every run is checked against the invariant suite
//! ([`check_profile`], [`check_differential`]) and all runs must agree on
//! the schedule-invariant [`Fingerprint`].
//!
//! ```
//! use simsched::{explore_seeds, workloads};
//!
//! let w = workloads::fib_like(2);
//! let report = explore_seeds(&w, 2, 0..8);
//! assert!(report.is_clean(), "{:?}", report.violations);
//! assert_eq!(report.runs, 8);
//! ```

#![warn(missing_docs)]

mod clock;
mod explore;
mod invariants;
mod rng;
mod run;
mod scheduler;
pub mod whatif;
pub mod workloads;

pub use clock::SimClock;
pub use explore::{explore_dfs, explore_seeds, ExploreReport};
pub use invariants::{check_differential, check_profile, fingerprint, Fingerprint, Violation};
pub use rng::SplitMix64;
pub use run::{run_workload, Choices, SimConfig, SimRun};
pub use scheduler::{Choice, SimScheduler, DEFAULT_SPAWN_COST_NS};
pub use whatif::{validate_whatif, WhatIfValidation};
pub use workloads::{Step, TreeWorkload};
