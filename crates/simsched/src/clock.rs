//! Per-simulated-thread virtual time.
//!
//! Under simulation, time advances only when a workload explicitly calls
//! [`SimClock::work`] (and when the scheduler charges its fixed task
//! creation cost). Each simulated thread owns its own [`VirtualClock`]
//! slot: polling at a taskwait or barrier costs nothing, and a suspended
//! thread's clock never moves while another simulated thread runs — so a
//! task instance's inclusive time is exactly its own work in *every*
//! schedule, which is what makes the cross-schedule invariant checks
//! possible.
//!
//! The profiler's [`pomp::ClockSource::thread_reader`] has no thread-id
//! parameter, so the binding between an OS thread and its clock slot goes
//! through a thread-local set by the scheduler's `thread_start` hook
//! (which runs before the monitor's `thread_begin` on the same thread).

use pomp::{Clock, ClockSource, VirtualClock};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

thread_local! {
    static CURRENT_SIM_TID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Bind (or unbind) the calling OS thread to a simulated thread id.
pub(crate) fn set_current_tid(tid: Option<usize>) {
    CURRENT_SIM_TID.with(|c| c.set(tid));
}

/// The simulated thread id bound to the calling OS thread, if any.
pub(crate) fn current_tid() -> Option<usize> {
    CURRENT_SIM_TID.with(|c| c.get())
}

/// One virtual clock per simulated thread, bound through a thread-local.
///
/// Clones share the slots, so the scheduler, the profiler, and a test
/// advancing time by hand all observe the same timelines.
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    slots: Arc<Mutex<Vec<VirtualClock>>>,
}

impl SimClock {
    /// A clock with no slots yet; slots materialize on first use per tid.
    pub fn new() -> Self {
        Self::default()
    }

    /// The clock slot of simulated thread `tid` (shared handle; created at
    /// t = 0 on first access).
    pub fn slot(&self, tid: usize) -> VirtualClock {
        let mut slots = self.slots.lock().expect("sim clock poisoned");
        while slots.len() <= tid {
            slots.push(VirtualClock::new());
        }
        slots[tid].clone()
    }

    /// Current virtual time of thread `tid` (0 if it never ran).
    pub fn now_for(&self, tid: usize) -> u64 {
        self.slot(tid).now()
    }

    /// Advance the *calling simulated thread's* clock by `ns` — the only
    /// way workload bodies spend virtual time.
    ///
    /// # Panics
    ///
    /// Panics when called from a thread that is not part of a simulated
    /// team (the scheduler binds the id in `thread_start`).
    pub fn work(&self, ns: u64) {
        let tid = current_tid().expect("SimClock::work called outside a simulated team thread");
        self.slot(tid).advance(ns);
    }

    /// Advance thread `tid`'s clock by `ns` (scheduler-internal costs).
    pub(crate) fn advance_for(&self, tid: usize, ns: u64) {
        self.slot(tid).advance(ns);
    }
}

impl Clock for SimClock {
    fn now(&self) -> u64 {
        match current_tid() {
            Some(tid) => self.now_for(tid),
            None => 0,
        }
    }
}

impl ClockSource for SimClock {
    type Reader = VirtualClock;

    fn thread_reader(&self) -> VirtualClock {
        let tid = current_tid()
            .expect("SimClock reader requested outside a simulated team thread (is the SimScheduler policy installed?)");
        self.slot(tid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::ClockReader;

    #[test]
    fn slots_are_independent() {
        let c = SimClock::new();
        c.slot(0).advance(10);
        c.slot(2).advance(5);
        assert_eq!(c.now_for(0), 10);
        assert_eq!(c.now_for(1), 0);
        assert_eq!(c.now_for(2), 5);
    }

    #[test]
    fn work_uses_the_bound_tid() {
        let c = SimClock::new();
        set_current_tid(Some(1));
        c.work(7);
        let reader = c.thread_reader();
        assert_eq!(ClockReader::now(&reader), 7);
        assert_eq!(c.now_for(0), 0);
        set_current_tid(None);
    }

    #[test]
    #[should_panic(expected = "outside a simulated team")]
    fn work_outside_team_panics() {
        set_current_tid(None);
        SimClock::new().work(1);
    }

    #[test]
    fn clones_share_slots() {
        let a = SimClock::new();
        let b = a.clone();
        a.slot(0).advance(3);
        assert_eq!(b.now_for(0), 3);
    }
}
