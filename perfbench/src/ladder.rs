//! The per-event ladder: the same fib-shaped event stream driven straight
//! into the public hooks of ever fuller monitor stacks, one rung per
//! added layer. Chunks of the rungs are interleaved in one thread, so
//! frequency drift and interrupts hit every rung alike; each layer's cost
//! is the median over chunks of its rung minus the rung below it.

use crate::stats::median;
use crate::Tally;
use pomp::{
    CountingMonitor, Monitor, NullMonitor, RegionId, RegionKind, TaskIdAllocator, TaskRef,
    ThreadHooks, VirtualClock,
};
use std::time::Instant;
use taskprof_session::{MeasurementSession, ProfStack};

/// Events one iteration emits (see [`fib_node`]).
const EVENTS_PER_ITER: u64 = 18;

#[derive(Clone, Copy)]
struct Regions {
    par: RegionId,
    create: RegionId,
    task: RegionId,
    taskwait: RegionId,
}

/// One fib node as the runtime reports it: the implicit task creates a
/// task and waits for it; that task creates two leaf tasks, runs both at
/// its taskwait, and is resumed after each.
#[inline(always)]
fn fib_node<T: ThreadHooks>(t: &T, ids: &TaskIdAllocator, r: Regions) {
    let parent = ids.alloc();
    t.task_create_begin(r.create, r.task, parent);
    t.task_create_end(r.create, parent);
    t.enter(r.taskwait);
    t.task_begin(r.task, parent);
    let (a, b) = (ids.alloc(), ids.alloc());
    for child in [a, b] {
        t.task_create_begin(r.create, r.task, child);
        t.task_create_end(r.create, child);
    }
    t.enter(r.taskwait);
    for child in [a, b] {
        t.task_begin(r.task, child);
        t.task_end(r.task, child);
        t.task_switch(TaskRef::Explicit(parent));
    }
    t.exit(r.taskwait);
    t.task_end(r.task, parent);
    t.exit(r.taskwait);
}

/// Something that owns a monitor and can be closed after the ladder.
trait Host {
    type M: Monitor;
    fn monitor(&self) -> &Self::M;
    /// Close the host; false when it reports a defect.
    fn close(self) -> bool;
}

impl Host for NullMonitor {
    type M = NullMonitor;
    fn monitor(&self) -> &NullMonitor {
        self
    }
    fn close(self) -> bool {
        true
    }
}

impl Host for CountingMonitor {
    type M = CountingMonitor;
    fn monitor(&self) -> &CountingMonitor {
        self
    }
    fn close(self) -> bool {
        self.counts().total() > 0
    }
}

impl<S: ProfStack> Host for MeasurementSession<S> {
    type M = S;
    fn monitor(&self) -> &S {
        MeasurementSession::monitor(self)
    }
    fn close(self) -> bool {
        self.finish().is_clean()
    }
}

/// A rung with its one measuring thread open.
trait Drive {
    /// Time `iters` iterations; ns per event.
    fn chunk(&mut self, iters: u64, ids: &TaskIdAllocator) -> f64;
    fn close(self: Box<Self>) -> bool;
}

struct Rung<H: Host> {
    host: H,
    thread: Option<<H::M as Monitor>::Thread>,
    regions: Regions,
}

impl<H: Host> Rung<H> {
    fn open(host: H, regions: Regions) -> Box<Self> {
        host.monitor().parallel_fork(regions.par, 1);
        let thread = Some(host.monitor().thread_begin(0, 1, regions.par));
        Box::new(Self {
            host,
            thread,
            regions,
        })
    }
}

impl<H: Host> Drive for Rung<H> {
    fn chunk(&mut self, iters: u64, ids: &TaskIdAllocator) -> f64 {
        let t = self.thread.as_ref().expect("rung is open");
        let t0 = Instant::now();
        for _ in 0..iters {
            fib_node(t, ids, self.regions);
        }
        t0.elapsed().as_nanos() as f64 / (iters * EVENTS_PER_ITER) as f64
    }

    fn close(mut self: Box<Self>) -> bool {
        let thread = self.thread.take().expect("rung is open");
        self.host.monitor().thread_end(0, thread);
        self.host.monitor().parallel_join(self.regions.par);
        self.host.close()
    }
}

/// Per-event costs, ns.
pub struct Ladder {
    pub null_ns: f64,
    pub dispatch_ns: f64,
    pub machinery_ns: f64,
    pub clock_read_ns: f64,
    pub telemetry_ns: f64,
    pub edges_ns: f64,
    pub validate_ns: f64,
}

pub fn run(chunks: usize, iters: u64, tally: &mut Tally) -> Ladder {
    let regions = Regions {
        par: pomp::region!("ladder!parallel", RegionKind::Parallel),
        create: pomp::region!("ladder!create", RegionKind::TaskCreate),
        task: pomp::region!("ladder_task", RegionKind::Task),
        taskwait: pomp::region!("ladder!taskwait", RegionKind::Taskwait),
    };
    let session = || MeasurementSession::builder("ladder").threads(1);
    let built = "ladder session configuration is valid";
    // Order matters: the indices below name the rungs.
    let mut rungs: Vec<Box<dyn Drive>> = vec![
        Rung::open(NullMonitor, regions),
        Rung::open(CountingMonitor::new(), regions),
        Rung::open(
            session().clock(VirtualClock::new()).build().expect(built),
            regions,
        ),
        Rung::open(session().build().expect(built), regions),
        Rung::open(session().telemetry().build().expect(built), regions),
        Rung::open(session().record_task_edges().build().expect(built), regions),
        Rung::open(session().build().expect(built).validated(), regions),
    ];
    let ids = TaskIdAllocator::new();
    for rung in &mut rungs {
        rung.chunk(iters, &ids);
    }
    let mut ns = vec![Vec::with_capacity(chunks); rungs.len()];
    for c in 0..chunks {
        // Rotate which rung goes first so no rung always follows another.
        for i in 0..rungs.len() {
            let r = (c + i) % rungs.len();
            ns[r].push(rungs[r].chunk(iters, &ids));
        }
    }
    for (i, rung) in rungs.into_iter().enumerate() {
        let clean = rung.close();
        tally.check(clean, || format!("ladder rung {i} closed with a defect"));
    }
    let abs = |r: usize| median(&ns[r]).expect("at least one chunk");
    let delta = |r: usize, below: usize| {
        let d: Vec<f64> = ns[r].iter().zip(&ns[below]).map(|(a, b)| a - b).collect();
        median(&d).expect("at least one chunk")
    };
    Ladder {
        null_ns: abs(0),
        dispatch_ns: abs(1),
        machinery_ns: abs(2),
        clock_read_ns: delta(3, 2),
        telemetry_ns: delta(4, 3),
        edges_ns: delta(5, 3),
        validate_ns: delta(6, 3),
    }
}
