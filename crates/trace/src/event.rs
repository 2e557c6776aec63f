//! Trace event model.

use pomp::{ParamId, RegionId, TaskId, TaskRef};
use taskprof::{EdgeStream, Event};

/// What happened.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// Region entered.
    Enter(RegionId),
    /// Region exited.
    Exit(RegionId),
    /// Deferred task creation began (creation region, construct, id).
    TaskCreateBegin(RegionId, RegionId, TaskId),
    /// Deferred task creation finished.
    TaskCreateEnd(RegionId, TaskId),
    /// Task instance began executing.
    TaskBegin(RegionId, TaskId),
    /// Task instance completed.
    TaskEnd(RegionId, TaskId),
    /// Current task switched (suspend/resume).
    TaskSwitch(TaskRef),
    /// Parameter scope opened.
    ParamBegin(ParamId, i64),
    /// Parameter scope closed.
    ParamEnd(ParamId),
}

/// One timestamped event on one thread.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Nanoseconds since the trace clock's origin.
    pub t: u64,
    /// Team-local thread id.
    pub tid: usize,
    /// The event.
    pub kind: EventKind,
}

/// A completed trace: all threads' events.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Events, sorted by thread then time (each thread's stream is
    /// naturally time-ordered).
    pub events: Vec<TraceEvent>,
    /// Team size.
    pub nthreads: usize,
}

impl Trace {
    /// The trace of the profiler's decoded edge log (what
    /// `ProfMonitor::take_edge_streams` drains when the monitor records
    /// task edges). An event's `t` is its stream's thread-begin stamp plus
    /// the `Advance`s before it, offset from the earliest thread begin, so
    /// all threads share one timebase. Each thread's streams (one per
    /// parallel region) are laid out in `start` order; `nthreads` is the
    /// number of distinct thread ids. Task aborts have no trace event and
    /// are dropped.
    pub fn from_edge_streams(streams: &[EdgeStream]) -> Trace {
        let origin = streams.iter().map(|s| s.start).min().unwrap_or(0);
        let mut order: Vec<&EdgeStream> = streams.iter().collect();
        order.sort_by_key(|s| (s.tid, s.start));
        let mut events = Vec::new();
        let mut nthreads = 0;
        for (i, s) in order.iter().enumerate() {
            if i == 0 || order[i - 1].tid != s.tid {
                nthreads += 1;
            }
            let mut t = s.start - origin;
            for ev in &s.events {
                let kind = match *ev {
                    Event::Advance(dt) => {
                        t += dt;
                        continue;
                    }
                    Event::TaskAbort { .. } => continue,
                    Event::Enter(r) => EventKind::Enter(r),
                    Event::Exit(r) => EventKind::Exit(r),
                    Event::CreateBegin {
                        create,
                        task_region,
                        id,
                    } => EventKind::TaskCreateBegin(create, task_region, id),
                    Event::CreateEnd { create, id } => EventKind::TaskCreateEnd(create, id),
                    Event::TaskBegin { region, id } => EventKind::TaskBegin(region, id),
                    Event::TaskEnd { region, id } => EventKind::TaskEnd(region, id),
                    Event::Switch(to) => EventKind::TaskSwitch(to),
                    Event::ParamBegin { param, value } => EventKind::ParamBegin(param, value),
                    Event::ParamEnd { param } => EventKind::ParamEnd(param),
                };
                events.push(TraceEvent { t, tid: s.tid, kind });
            }
        }
        Trace { events, nthreads }
    }

    /// Events of one thread, in time order.
    pub fn thread(&self, tid: usize) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.tid == tid)
    }

    /// Total number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Render the trace as an OTF2-print-style text listing.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let reg = pomp::registry();
        let mut out = String::new();
        let name = |r: RegionId| reg.name(r);
        for e in &self.events {
            let desc = match e.kind {
                EventKind::Enter(r) => format!("ENTER        {}", name(r)),
                EventKind::Exit(r) => format!("LEAVE        {}", name(r)),
                EventKind::TaskCreateBegin(c, tr, id) => {
                    format!("TASK_CREATE  {} -> {} #{}", name(c), name(tr), id.get())
                }
                EventKind::TaskCreateEnd(c, id) => {
                    format!("TASK_CREATED {} #{}", name(c), id.get())
                }
                EventKind::TaskBegin(r, id) => format!("TASK_BEGIN   {} #{}", name(r), id.get()),
                EventKind::TaskEnd(r, id) => format!("TASK_END     {} #{}", name(r), id.get()),
                EventKind::TaskSwitch(TaskRef::Implicit) => "TASK_SWITCH  implicit".to_string(),
                EventKind::TaskSwitch(TaskRef::Explicit(id)) => {
                    format!("TASK_SWITCH  #{}", id.get())
                }
                EventKind::ParamBegin(p, v) => {
                    format!("PARAM_BEGIN  {} = {v}", reg.param_name(p))
                }
                EventKind::ParamEnd(p) => format!("PARAM_END    {}", reg.param_name(p)),
            };
            let _ = writeln!(out, "[{:>12} ns] thread {:>2}  {desc}", e.t, e.tid);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::{RegionKind, TaskIdAllocator};

    #[test]
    fn thread_filter_and_text() {
        let reg = pomp::registry();
        let r = reg.register("tr-region", RegionKind::Task, "t", 0);
        let ids = TaskIdAllocator::new();
        let id = ids.alloc();
        let trace = Trace {
            events: vec![
                TraceEvent { t: 1, tid: 0, kind: EventKind::TaskBegin(r, id) },
                TraceEvent { t: 5, tid: 1, kind: EventKind::Enter(r) },
                TraceEvent { t: 9, tid: 0, kind: EventKind::TaskEnd(r, id) },
            ],
            nthreads: 2,
        };
        assert_eq!(trace.thread(0).count(), 2);
        assert_eq!(trace.thread(1).count(), 1);
        assert_eq!(trace.len(), 3);
        let text = trace.to_text();
        assert!(text.contains("TASK_BEGIN   tr-region #1"), "{text}");
        assert!(text.contains("thread  1"), "{text}");
    }

    #[test]
    fn edge_log_trace_shares_one_timebase_across_threads() {
        use pomp::{Monitor, ThreadHooks, VirtualClock};
        let reg = pomp::registry();
        let par = reg.register("tr-edge-par", RegionKind::Parallel, "t", 0);
        let task = reg.register("tr-edge-task", RegionKind::Task, "t", 0);
        let create = reg.register("tr-edge-create", RegionKind::TaskCreate, "t", 0);
        let clock = VirtualClock::new();
        let m = taskprof::ProfMonitor::builder()
            .clock(clock.clone())
            .record_task_edges()
            .build()
            .unwrap();
        let id = TaskIdAllocator::new().alloc();
        // Thread 0 begins at 1000 and creates the task; thread 1 begins
        // at 1005 and runs it. Each stream's deltas alone would put the
        // create end at 5 and the begin at 7.
        clock.set(1000);
        m.parallel_fork(par, 2);
        let t0 = m.thread_begin(0, 2, par);
        clock.set(1002);
        t0.task_create_begin(create, task, id);
        clock.set(1005);
        t0.task_create_end(create, id);
        let t1 = m.thread_begin(1, 2, par);
        clock.set(1012);
        t1.task_begin(task, id);
        clock.set(1016);
        t1.task_end(task, id);
        m.thread_end(0, t0);
        m.thread_end(1, t1);
        m.parallel_join(par);

        let trace = Trace::from_edge_streams(&m.take_edge_streams().unwrap());
        assert_eq!(trace.nthreads, 2);
        assert_eq!(trace.len(), 4);
        let a = crate::analyze(&trace);
        assert_eq!(a.instances.len(), 1);
        assert_eq!(a.instances[0].queue_ns, Some(7), "begin 12 - create end 5");
        // Drained: a second take yields an empty trace.
        let again = Trace::from_edge_streams(&m.take_edge_streams().unwrap());
        assert!(again.is_empty());
        assert_eq!(again.nthreads, 0);
    }

    #[test]
    fn edge_log_trace_orders_regions_per_thread() {
        let reg = pomp::registry();
        let r = reg.register("tr-edge-work", RegionKind::Function, "t", 0);
        let task = reg.register("tr-edge-aborted", RegionKind::Task, "t", 0);
        let id = TaskIdAllocator::new().alloc();
        let stream = |instance, tid, start, events| EdgeStream {
            instance,
            tid,
            start,
            events,
        };
        let work = |before, len| {
            vec![
                Event::Advance(before),
                Event::Enter(r),
                Event::Advance(len),
                Event::Exit(r),
            ]
        };
        let mut second = work(5, 5);
        second.push(Event::TaskAbort { region: task, id });
        // Thread 0's later region is listed first.
        let trace = Trace::from_edge_streams(&[
            stream(2, 0, 50, second),
            stream(1, 1, 20, work(1, 1)),
            stream(1, 0, 10, work(3, 30)),
        ]);
        assert_eq!(trace.nthreads, 2);
        let t0: Vec<u64> = trace.thread(0).map(|e| e.t).collect();
        assert_eq!(t0, vec![3, 33, 45, 50], "monotone, offset from the first begin");
        let t1: Vec<u64> = trace.thread(1).map(|e| e.t).collect();
        assert_eq!(t1, vec![11, 12]);
        assert_eq!(trace.len(), 6, "the abort has no trace event");
    }
}
