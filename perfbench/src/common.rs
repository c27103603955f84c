//! Shared plumbing: run configuration, statistics, the result record,
//! the host fingerprint and a small seeded generator.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Worker count of every untraced run (the host has two cores).
pub const WORKERS: usize = 2;
/// Front-half cache shards, pinned so the figure does not follow the host.
pub const CACHE_SHARDS: usize = 4;

/// What one invocation was asked to do.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Installs the explicit configuration every workload runs under: pinned
/// worker counts, pinned cache shards, (for `serve_mixed`) a store
/// directory, and, in traced runs, `hc_obs` tracing armed in-process.
/// Nothing comes from `HC_*` variables; `main` refuses to run when any is
/// set.
pub fn configure(workers: usize, store_dir: Option<String>, trace: Option<String>) {
    // The first read snapshots the environment and arms the tracer to
    // match it; take it before the override, which it would otherwise undo.
    hc_obs::config::config();
    hc_obs::config::set_override(hc_obs::Config {
        threads: Some(workers),
        serve_threads: Some(WORKERS),
        cache_shards: Some(CACHE_SHARDS),
        store_dir,
        trace,
        ..hc_obs::Config::default()
    });
}

/// Arms or disarms `hc_obs` tracing, keeping the rest of the active
/// configuration.
pub fn set_tracing(trace: Option<String>) {
    let cfg = hc_obs::config::config();
    hc_obs::config::set_override(hc_obs::Config {
        trace,
        ..(*cfg).clone()
    });
}

/// Seconds one [`calibration_unit`] took, in thread CPU time, on the
/// reference host (a 2-vCPU KVM guest, Intel Xeon family 6 model 143).
/// Calibrated figures are CPU times scaled to that host's speed.
pub const CAL_REF_S: f64 = 1.9e-3;
const CAL_WORDS: usize = 1 << 11;
const CAL_STEPS: usize = 1 << 18;

/// A fixed piece of CPU work that shares no code with the program:
/// xorshift-indexed read-modify-writes over a 16 KiB table, which stays
/// in the L1 cache, so the unit's time follows the core's speed and not
/// whatever the measured work left in the caches. Half of it is one
/// dependent chain (latency-bound, like interpreted simulation), half is
/// eight independent chains (throughput-bound, like the JIT's vector
/// code), because the two halves feel a busy sibling hyperthread very
/// differently. Over six `sim_stream` runs on the reference host the
/// round time divided by the chain alone still spread 0.15 (interquartile
/// range / median), by the eight chains alone 0.16, by both 0.06 (raw:
/// 0.17). Returns its thread CPU seconds.
pub fn calibration_unit() -> f64 {
    thread_local! {
        static TABLE: std::cell::RefCell<Vec<u64>> =
            std::cell::RefCell::new((0..CAL_WORDS as u64).collect());
    }
    fn step(t: &mut [u64], x: &mut u64) {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        let i = (*x as usize) & (CAL_WORDS - 1);
        t[i] = t[i].rotate_left(7) ^ *x;
    }
    TABLE.with(|t| {
        let mut t = t.borrow_mut();
        let start = thread_cpu();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        for _ in 0..CAL_STEPS {
            step(&mut t, &mut x);
        }
        let mut xs = [1u64, 2, 3, 4, 5, 6, 7, 8].map(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for _ in 0..CAL_STEPS / 4 {
            for x in &mut xs {
                step(&mut t, x);
            }
        }
        std::hint::black_box(&mut *t);
        thread_cpu() - start
    })
}

/// Host-speed calibration of one measured stretch. CPU time leaves out
/// the time the host takes the vCPU away (steal), but not a change in how
/// fast the vCPU runs while it has it (another guest on the sibling
/// hyperthread, frequency): on one guest the CPU time of a fixed
/// `sim_stream` round moved between about 735 and 1150 ms within tens of
/// minutes. Calibration units run in the same thread as the work,
/// interleaved with it, and the work's time is divided by their mean.
#[derive(Clone, Copy, Debug, Default)]
pub struct Calib {
    sum: f64,
    n: usize,
}

impl Calib {
    /// Runs `units` calibration units.
    pub fn sample(&mut self, units: usize) {
        for _ in 0..units {
            self.sum += calibration_unit();
            self.n += 1;
        }
    }

    /// Seconds all units so far took.
    pub fn total_s(&self) -> f64 {
        self.sum
    }

    /// Mean seconds of one unit so far.
    pub fn unit_s(&self) -> f64 {
        self.sum / self.n.max(1) as f64
    }

    /// `seconds` measured on this host, scaled to the reference host.
    pub fn scale(&self, seconds: f64) -> f64 {
        assert!(self.n > 0, "no calibration units were run");
        seconds * CAL_REF_S / self.unit_s()
    }
}

/// Runs `f` while a sampler thread runs one calibration unit every
/// `every`, so the calibration sees the host as the work does, whatever
/// threads the work uses. The units cost a few percent of one vCPU;
/// callers that sum process CPU time take [`Calib::total_s`] out.
pub fn calibrated<R>(every: std::time::Duration, f: impl FnOnce() -> R) -> (R, Calib) {
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut cal = Calib::default();
            loop {
                cal.sample(1);
                if done.load(std::sync::atomic::Ordering::Relaxed) {
                    return cal;
                }
                std::thread::sleep(every);
            }
        });
        let out = f();
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        (out, sampler.join().expect("calibration thread"))
    })
}

/// One metric value with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let unit = unit.to_owned();
        self.metrics.insert(name.to_owned(), Metric { value, unit });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one checked output, failed or not.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: check failed: {}", what());
            }
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Median of a sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile, `q` in `0..=1` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// CPU seconds consumed by the calling thread. Unlike wall time it leaves
/// out the time the thread waited, including time a virtualized host gave
/// the vCPU to another guest (steal time), which on a shared host makes
/// wall-clock figures of single-threaded work spread by tens of percent.
pub fn thread_cpu() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds consumed by all threads of this process.
pub fn process_cpu() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

fn cpu_clock(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, the only target this benchmark builds for)
    // for the duration of the call, and the clock ids are Linux's.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host and build fingerprint, printed with every result.
pub fn fingerprint(args: &RunArgs, workers: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    format!(
        "host: nproc={nproc} avx2={avx2} profile={} rustflags=\"{}\" rustc=\"{}\" \
         workers={workers} serve_workers={WORKERS} cache_shards={CACHE_SHARDS} \
         workload={} seed={} seconds={} trace={}",
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTFLAGS"),
        env!("PERFBENCH_RUSTC"),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

/// SplitMix64: the benchmark's only source of seeded randomness.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
