//! Host fingerprint and process memory.

use pomp::{ClockReader, ClockSource, MonotonicClock};
use std::path::Path;
use std::time::Instant;

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// ns per read of the profiler's default clock, through its per-thread
/// reader (the hot-path read).
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 1_000_000;
    let reader = MonotonicClock::new().thread_reader();
    let t0 = Instant::now();
    for _ in 0..READS {
        std::hint::black_box(reader.now());
    }
    t0.elapsed().as_nanos() as f64 / f64::from(READS)
}

/// The kernel's current clock source, e.g. `tsc` or `kvm-clock`.
fn clocksource() -> String {
    std::fs::read_to_string("/sys/devices/system/clocksource/clocksource0/current_clocksource")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// The checked-out commit, when the tree is a git checkout.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".to_string(),
    };
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(refname)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(refname))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over every file under `crates/` and `perfbench/src/`, in path
/// order: identifies the measured code where there is no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// One line describing where and on what the numbers were taken.
pub fn fingerprint(seed: u64) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "host cpus={cpus} clocksource={} clock_read_ns={:.2} commit={} source_fnv={} seed={seed}",
        clocksource(),
        clock_read_ns(),
        commit(),
        source_digest()
    )
}
