//! Host-speed calibration.
//!
//! The virtual cores this benchmark runs on change speed by tens of
//! percent from one second to the next, because other tenants share the
//! host. Every timed figure is therefore paired with a probe of a fixed
//! kernel that lives here and never changes with the program under test
//! (maps, sorting, string hashing and allocation, like a compiler's own
//! work, plus a dependent walk over a 4 MiB table, which feels the
//! contention for shared caches and memory that the compiler feels), run
//! just before and after the timed work, with the benchmark's own threads
//! otherwise idle. A timing is reported at reference speed:
//! multiplied by `REFERENCE_NS / probe`, where `REFERENCE_NS` is the
//! probe's typical time on the 2-core 2.1 GHz Xeon container the
//! benchmark was defined on. Raw figures are printed next to them.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Typical probe time at the reference host speed, ns.
const REFERENCE_NS: f64 = 1.2e6;
/// Kernel runs per thread in one probe; the probe is their median.
const RUNS: usize = 7;
/// Entries of the walked table (4 MiB) and steps walked per kernel run.
const TABLE: usize = 1 << 20;
const STEPS: usize = 1 << 13;

/// Every probe taken in this process, for the summary line.
static PROBES: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// One random cycle through all `TABLE` entries (Sattolo's algorithm), so
/// every step of the walk is a dependent load to an unpredictable line.
fn table() -> &'static [u32] {
    static TABLE_CELL: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE_CELL.get_or_init(|| {
        let mut next: Vec<u32> = (0..TABLE as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..TABLE).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        next
    })
}

fn kernel(seed: u64) -> u64 {
    let table = table();
    let mut at = (seed as usize) % TABLE;
    for _ in 0..STEPS {
        at = table[at] as usize;
    }
    let mut x = seed | 1;
    let mut buckets: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    let mut names: Vec<String> = Vec::with_capacity(2048);
    for i in 0..2048u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        buckets.entry(x % 512).or_default().push(i);
        names.push(format!("n{:x}", x % 100_000));
    }
    names.sort_unstable();
    let mut counts: HashMap<&str, u32> = HashMap::new();
    for name in &names {
        *counts.entry(name.as_str()).or_insert(0) += 1;
    }
    let longest = buckets.values().map(Vec::len).max().unwrap_or(0);
    counts.len() as u64 ^ longest as u64 ^ at as u64
}

/// Median kernel time over [`RUNS`] runs on the calling thread, ns.
fn probe_here(salt: usize) -> f64 {
    table();
    let mut times: Vec<f64> = (0..RUNS)
        .map(|r| {
            let start = Instant::now();
            black_box(kernel(black_box((salt * RUNS + r) as u64)));
            start.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[RUNS / 2]
}

/// One probe, ns. A single-threaded workload is probed on its own
/// thread, since the host's cores differ in speed and the thread keeps
/// its core; a parallel one on `threads` threads at once, averaged.
pub fn probe(threads: usize) -> f64 {
    let ns = if threads <= 1 {
        probe_here(0)
    } else {
        probe_parallel(threads)
    };
    PROBES.lock().expect("probe log lock").push(ns);
    ns
}

/// Median of every probe this process took, ns.
pub fn median_probe() -> f64 {
    crate::util::median(&PROBES.lock().expect("probe log lock"))
}

fn probe_parallel(threads: usize) -> f64 {
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| s.spawn(move || probe_here(t)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .collect()
    });
    per_thread.iter().sum::<f64>() / per_thread.len() as f64
}

/// Factor that turns a time measured between probes `before` and
/// `after` into reference-speed time.
pub fn to_reference(before: f64, after: f64) -> f64 {
    2.0 * REFERENCE_NS / (before + after)
}

/// Runs `f` between two probes on `threads` threads; returns its result
/// and its duration in reference-speed seconds.
pub fn timed<T>(threads: usize, f: impl FnOnce() -> T) -> (T, f64) {
    let before = probe(threads);
    let start = Instant::now();
    let out = f();
    let took = start.elapsed().as_secs_f64();
    (out, took * to_reference(before, probe(threads)))
}
