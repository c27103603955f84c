//! `serve_mixed`: `hc-serve` in-process (2 workers, fresh store), driven
//! open-loop from one seeded arrival schedule by 2 generator threads with
//! one keep-alive connection each.
//!
//! Every request is timed from the moment it was due, so a stall also
//! charges the wait it imposes on later requests; the report says how
//! late the generator ran. Two phases at fixed offered rates give the
//! latency figures and the CPU cost per request; a closed-loop phase of
//! cache-hot requests gives the serving path's throughput per CPU second;
//! a bisection over a fixed rate ladder gives the highest rate whose p99
//! meets [`LIMIT_MS`] with no growing backlog (printed, not bounded).
//!
//! The request mix is the one `crates/bench/src/bin/loadgen.rs` replays,
//! 4 hot synth : 2 cold synth : 1 measure : 1 dse per 8, with its hot,
//! measure and dse bodies. No record of real traffic exists, so the mix
//! is an assumption; the traced run prints each class's measured share of
//! the server's work. Two departures, both asked for by the benchmark's
//! specification: cold synth sources are matrix-kernel Verilog (the size
//! of a matrix cell) rather than loadgen's one-line adders, and measure
//! bodies vary `nblocks` over 2..=5 so that some repeat (store reads) and
//! the rest simulate.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use hc_core::cache;
use hc_kernels::{Algo, KernelSpec};
use hc_serve::client::{roundtrip, Conn};
use hc_serve::{api, JobPool, Json, Priority};

use crate::common::{
    calibrated, configure, median, process_cpu, quantile, secs, set_tracing, Calib, Report, Rng,
    RunArgs, WORKERS,
};
use crate::spans;

/// The fixed offered rate of the latency phase, requests per second.
const FIXED_RPS: f64 = 100.0;
/// The high-rate phase: [`HIGH_REQUESTS`] requests offered at about 60%
/// of what two workers serve with this mix (about 330 req/s on the
/// reference host). Its CPU cost per request is measured on a fixed
/// amount of offered work, whatever the ladder's verdicts. Closer to
/// saturation, the figure followed how the host scheduled the busy
/// threads more than the server.
const HIGH_RPS: f64 = 200.0;
const HIGH_REQUESTS: usize = 800;
/// Cache-hot synth requests sent back to back in the closed-loop phase.
const HOT_REQUESTS: usize = 2000;
/// Calibration units around each cold start; during a measured phase,
/// one unit every [`CAL_EVERY`].
const CAL_UNITS: usize = 10;
const CAL_EVERY: Duration = Duration::from_millis(50);
/// p99 latency limit a ladder rate must meet. Host scheduling bursts on a
/// shared machine reach about 300 ms; below this limit a rung's verdict
/// would follow them instead of the server.
const LIMIT_MS: f64 = 250.0;
/// The rate ladder: `FIXED_RPS * LADDER_STEP^k`, `k < LADDER_RUNGS`.
const LADDER_STEP: f64 = 1.05;
const LADDER_RUNGS: usize = 40;
/// Cold starts timed per run (one here, the rest in child processes).
const SETUP_REPS: usize = 5;
/// Share of the run spent warming the server at the fixed rate (checked,
/// not timed), so the latency phase sees a steady state.
const WARMUP_SHARE: f64 = 0.1;
/// Share of the run in the latency phase: at 25 s, 1000 requests, so 10
/// lie beyond the p99. The ladder takes what the high-rate and closed-loop
/// phases leave of the rest.
const FIXED_SHARE: f64 = 0.4;
/// Ladder probes, retries included. A failing rung is probed once more
/// and fails only if both probes fail.
const PROBES: usize = 4;
/// Generator threads, each with one connection.
const CLIENTS: usize = 2;
/// Direct `hc_serve::api` calls per endpoint in the traced service phase.
const SERVICE_SAMPLES: usize = 30;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    SynthHot,
    SynthCold,
    Measure,
    Dse,
}

const CLASSES: [Class; 4] = [
    Class::SynthHot,
    Class::SynthCold,
    Class::Measure,
    Class::Dse,
];

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::SynthHot => "synth_hot",
            Class::SynthCold => "synth_cold",
            Class::Measure => "measure",
            Class::Dse => "dse",
        }
    }

    fn path(self) -> &'static str {
        match self {
            Class::SynthHot | Class::SynthCold => "/v1/synth",
            Class::Measure => "/v1/measure",
            Class::Dse => "/v1/dse",
        }
    }
}

/// One scheduled request.
struct Req {
    /// Seconds after the phase start.
    due: f64,
    class: Class,
    body: Json,
    /// A `/v1/measure` body already issued earlier in the run.
    repeat: bool,
}

/// What happened to one request.
#[derive(Clone, Debug)]
struct Outcome {
    class: Class,
    lag_s: f64,
    latency_s: f64,
    status: u16,
    body: Option<Json>,
    backlog: usize,
}

fn parse(text: &str) -> Json {
    Json::parse(text).expect("static body")
}

/// The cache-hot synth bodies (warmed during set-up), as loadgen's.
fn hot_bodies() -> Vec<Json> {
    [
        r#"{"frontend":"chisel","design":"initial"}"#,
        r#"{"frontend":"chisel","design":"rowcol"}"#,
        r#"{"frontend":"verilog","design":"rowcol"}"#,
        r#"{"frontend":"bsv","design":"rowcol","variant":0}"#,
        r#"{"frontend":"dslx","stages":8}"#,
        r#"{"frontend":"vivado-hls","pipeline":true,"partition":true,"inline":true}"#,
    ]
    .iter()
    .map(|t| parse(t))
    .collect()
}

/// The `/v1/measure` space requests are dealt from: loadgen's DSLX
/// pipeline-stage bodies, with `nblocks` 2..=5.
fn measure_space() -> Vec<Json> {
    let mut space = Vec::new();
    for stages in 0..19 {
        for nblocks in 2..6 {
            space.push(parse(&format!(
                r#"{{"frontend":"dslx","stages":{stages},"nblocks":{nblocks}}}"#
            )));
        }
    }
    space
}

/// Seeded request generator. The seed picks arrival times, the order of
/// requests and which cold sources and measure keys appear; the shares of
/// each class, hot body, cold kernel, measure key and dse tool are fixed,
/// so two seeds offer the same work. Cold synth bodies are matrix-kernel
/// Verilog with one coefficient perturbed, never repeated within a run.
struct Gen {
    rng: Rng,
    hot: Vec<Json>,
    space: Vec<Json>,
    kernels: Vec<KernelSpec>,
    classes: Vec<Class>,
    keys: Vec<usize>,
    /// Round-robin positions: hot body, cold kernel, dse tool.
    next: [usize; 3],
    cold_used: HashSet<(usize, usize, i64)>,
    measured: HashSet<usize>,
}

/// One deck of request classes: loadgen's mix, 4 hot synth, 2 cold
/// synth, 1 measure and 1 dse per 8 requests.
const DECK: [(Class, usize); 4] = [
    (Class::SynthHot, 4),
    (Class::SynthCold, 2),
    (Class::Measure, 1),
    (Class::Dse, 1),
];

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            rng: Rng::new(seed, 0x5e7e),
            hot: hot_bodies(),
            space: measure_space(),
            kernels: vec![hc_kernels::dct8(), hc_kernels::idct4(), hc_kernels::fir32()],
            classes: Vec::new(),
            keys: Vec::new(),
            next: [0; 3],
            cold_used: HashSet::new(),
            measured: HashSet::new(),
        }
    }

    /// Draws from a shuffled deck, refilled by `fill` when empty.
    fn deal<T>(rng: &mut Rng, deck: &mut Vec<T>, fill: impl FnOnce() -> Vec<T>) -> T {
        if deck.is_empty() {
            *deck = fill();
            for i in (1..deck.len()).rev() {
                deck.swap(i, rng.below(i + 1));
            }
        }
        deck.pop().expect("a refilled deck is not empty")
    }

    fn class(&mut self) -> Class {
        Self::deal(&mut self.rng, &mut self.classes, || {
            DECK.iter()
                .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
                .collect()
        })
    }

    fn cold_source(&mut self) -> Json {
        loop {
            self.next[1] += 1;
            let k = self.next[1] % self.kernels.len();
            let mut spec = self.kernels[k].clone();
            let coefs = match &mut spec.algo {
                Algo::Separable { m, .. } => m.iter_mut().flatten().collect::<Vec<_>>(),
                Algo::Fir { taps, .. } => taps.iter_mut().collect(),
            };
            let pos = self.rng.below(coefs.len());
            let delta = self.rng.below(64) as i64 + 1;
            let delta = if self.rng.below(2) == 0 {
                delta
            } else {
                -delta
            };
            if !self.cold_used.insert((k, pos, delta)) {
                continue;
            }
            *coefs.into_iter().nth(pos).expect("in range") += delta;
            let mut body = Json::Obj(Vec::new());
            body.set("frontend", Json::from("verilog"));
            body.set(
                "source",
                Json::from(hc_verilog::matrix::matrix_source(&spec)),
            );
            body.set("top", Json::from(format!("{}_top", spec.id)));
            return body;
        }
    }

    fn body(&mut self, class: Class) -> (Json, bool) {
        match class {
            Class::SynthHot => {
                self.next[0] += 1;
                (self.hot[self.next[0] % self.hot.len()].clone(), false)
            }
            Class::SynthCold => (self.cold_source(), false),
            Class::Measure => {
                let n = self.space.len();
                let i = Self::deal(&mut self.rng, &mut self.keys, || (0..n).collect());
                (self.space[i].clone(), !self.measured.insert(i))
            }
            Class::Dse => {
                self.next[2] += 1;
                let tool = ["maxj", "verilog", "chisel"][self.next[2] % 3];
                (parse(&format!(r#"{{"tool":"{tool}","nblocks":2}}"#)), false)
            }
        }
    }

    /// `n` cache-hot synth requests, all due at once: with one request in
    /// flight per connection, a closed loop.
    fn hot_burst(&mut self, n: usize) -> Vec<Req> {
        (0..n)
            .map(|_| {
                let (body, repeat) = self.body(Class::SynthHot);
                Req {
                    due: 0.0,
                    class: Class::SynthHot,
                    body,
                    repeat,
                }
            })
            .collect()
    }

    /// Poisson arrivals at `rate` for `seconds`.
    fn schedule(&mut self, rate: f64, seconds: f64) -> Vec<Req> {
        self.arrivals(rate, |t, _| t < seconds)
    }

    /// The first `n` Poisson arrivals at `rate`.
    fn schedule_n(&mut self, rate: f64, n: usize) -> Vec<Req> {
        self.arrivals(rate, |_, k| k < n)
    }

    /// Poisson arrivals at `rate` while `more(due, count so far)` holds.
    fn arrivals(&mut self, rate: f64, more: impl Fn(f64, usize) -> bool) -> Vec<Req> {
        let mut reqs = Vec::new();
        let mut t = 0.0;
        loop {
            t += -(1.0 - self.rng.unit()).ln() / rate;
            if !more(t, reqs.len()) {
                return reqs;
            }
            let class = self.class();
            let (body, repeat) = self.body(class);
            reqs.push(Req {
                due: t,
                class,
                body,
                repeat,
            });
        }
    }
}

/// Sends the schedule open-loop from `clients` threads, each with one
/// connection. Each request is a `bench.request` span carrying its id and
/// class.
fn run_phase(addr: SocketAddr, reqs: &[Req], clients: usize) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let dues: Vec<f64> = reqs.iter().map(|r| r.due).collect();
    let mut outcomes: Vec<Option<Outcome>> = vec![None; reqs.len()];
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    let mut conn = Conn::open(addr).expect("connect to hc-serve");
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = reqs.get(i) else { return mine };
                        let due = start + Duration::from_secs_f64(req.due);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let backlog = dues
                            .partition_point(|d| *d <= secs(start).max(0.0))
                            .saturating_sub(i);
                        let span = hc_obs::span("bench.request")
                            .with("req", i)
                            .with("class", req.class.name());
                        let resp = conn.request("POST", req.class.path(), Some(&req.body));
                        drop(span);
                        let done = Instant::now();
                        let (status, body) = match resp {
                            Ok(r) => (r.status, Some(r.body)),
                            Err(e) => {
                                eprintln!("perfbench: request {i}: {e}");
                                conn = Conn::open(addr).expect("reconnect to hc-serve");
                                (0, None)
                            }
                        };
                        mine.push((
                            i,
                            Outcome {
                                class: req.class,
                                lag_s: sent.saturating_duration_since(due).as_secs_f64(),
                                latency_s: done.saturating_duration_since(due).as_secs_f64(),
                                status,
                                body,
                                backlog,
                            },
                        ));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread"))
            .collect::<Vec<_>>()
    });
    for (i, o) in results {
        outcomes[i] = Some(o);
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("every request ran"))
        .collect()
}

/// Latency summary of one phase.
struct Summary {
    n: usize,
    failed: usize,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    lag_p99_ms: f64,
    backlog_max: usize,
    /// Largest generator lag over the last tenth of the schedule: above
    /// the latency limit, the backlog grew during the phase.
    lag_end_ms: f64,
}

fn summarize(out: &[Outcome]) -> Summary {
    // A failed request counts as missing the latency limit.
    let lat: Vec<f64> = out
        .iter()
        .map(|o| {
            let ms = o.latency_s * 1e3;
            if o.status == 200 {
                ms
            } else {
                ms.max(LIMIT_MS * 2.0)
            }
        })
        .collect();
    let lag: Vec<f64> = out.iter().map(|o| o.lag_s * 1e3).collect();
    let tail = out.len() - out.len() / 10;
    Summary {
        n: out.len(),
        failed: out.iter().filter(|o| o.status != 200).count(),
        p50_ms: quantile(&lat, 0.5),
        p90_ms: quantile(&lat, 0.9),
        p99_ms: quantile(&lat, 0.99),
        lag_p99_ms: quantile(&lag, 0.99),
        backlog_max: out.iter().map(|o| o.backlog).max().unwrap_or(0),
        lag_end_ms: out[tail..]
            .iter()
            .map(|o| o.lag_s * 1e3)
            .fold(0.0, f64::max),
    }
}

fn passes(s: &Summary) -> bool {
    s.failed == 0 && s.p99_ms <= LIMIT_MS && s.lag_end_ms <= LIMIT_MS
}

/// Starts a server and warms the hot synth set; the set-up unit.
fn start_server() -> hc_serve::Server {
    let opts = hc_serve::Options {
        addr: "127.0.0.1:0".to_owned(),
        workers: WORKERS,
        queue_cap: hc_serve::DEFAULT_QUEUE_CAP,
        rps: None,
    };
    let server = hc_serve::start(&opts).expect("bind hc-serve");
    let addr = server.addr();
    let healthy = (0..200).any(|_| {
        let ok = roundtrip(addr, "GET", "/healthz", None).is_ok_and(|r| r.status == 200);
        if !ok {
            std::thread::sleep(Duration::from_millis(5));
        }
        ok
    });
    assert!(healthy, "hc-serve did not come up");
    for body in hot_bodies() {
        let r = roundtrip(addr, "POST", "/v1/synth", Some(&body)).expect("warm synth");
        assert_eq!(r.status, 200, "warm synth failed: {}", r.body);
    }
    server
}

/// The same body through `hc_serve::api` directly.
fn direct(class: Class, body: &Json, pool: &JobPool) -> Result<Json, String> {
    let r = match class {
        Class::SynthHot | Class::SynthCold => api::synth(body),
        Class::Measure => api::measure(body),
        Class::Dse => {
            let (tx, rx) = mpsc::channel();
            let body = body.clone();
            pool.submit(Priority::Low, move |w| {
                let _ = tx.send(api::dse(&body, w));
            })
            .map_err(|e| format!("{e:?}"))?;
            rx.recv().map_err(|e| e.to_string())?
        }
    };
    r.map_err(|e| e.to_json().to_string())
}

/// Direct API results by request, so each distinct body is called once.
type Direct = std::collections::HashMap<String, Result<Json, String>>;

/// Every response is 200 and equals a direct API call on the same body.
fn check_responses(
    r: &mut Report,
    direct_of: &mut Direct,
    reqs: &[Req],
    out: &[Outcome],
    pool: &JobPool,
) {
    for (req, o) in reqs.iter().zip(out) {
        let key = format!("{} {}", req.class.path(), req.body);
        let d = direct_of
            .entry(key)
            .or_insert_with(|| direct(req.class, &req.body, pool));
        let ok = o.status == 200 && matches!((&o.body, &*d), (Some(served), Ok(d)) if served == d);
        r.check(ok, || {
            format!("{} {} -> {}", req.class.path(), req.body, o.status)
        });
    }
}

struct Served {
    server: hc_serve::Server,
    store: std::path::PathBuf,
    /// Calibrated CPU seconds from nothing to a server with the hot synth
    /// set warm.
    setup: f64,
}

/// A cold start: a fresh store directory, an empty cache, the server up
/// and the hot synth set computed.
fn setup() -> Served {
    let store = crate::out_dir().join(format!("store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    std::fs::create_dir_all(&store).expect("create the store directory");
    configure(WORKERS, Some(store.to_string_lossy().into_owned()), None);
    cache::clear();
    let mut cal = Calib::default();
    cal.sample(CAL_UNITS);
    let cpu = process_cpu();
    let server = start_server();
    let spent = process_cpu() - cpu;
    cal.sample(CAL_UNITS);
    Served {
        server,
        store,
        setup: cal.scale(spent),
    }
}

/// One cold start and nothing else: the `serve_setup` child process.
pub fn setup_probe() -> f64 {
    let s = setup();
    let t = s.setup;
    teardown(s);
    t
}

/// More cold starts, each in a child process of its own: the store handle
/// is process-wide, so a second cold start needs a new process.
fn setup_in_children(n: usize) -> Vec<f64> {
    let exe = std::env::current_exe().expect("own executable");
    (0..n)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    "serve_setup",
                    "--seed",
                    "0",
                    "--seconds",
                    "1",
                    "--trace",
                    "0",
                ])
                .output()
                .expect("run the set-up probe");
            assert!(
                out.status.success(),
                "set-up probe failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .last()
                .and_then(|l| l.trim().parse().ok())
                .expect("set-up probe prints its seconds")
        })
        .collect()
}

fn teardown(s: Served) {
    s.server.shutdown();
    let _ = std::fs::remove_dir_all(&s.store);
}

/// Runs one measured phase from `clients` connections: its process CPU
/// seconds (the calibration units' own CPU time taken out), the phase's
/// calibration and the outcomes.
fn timed_phase(addr: SocketAddr, reqs: &[Req], clients: usize) -> (f64, Calib, Vec<Outcome>) {
    let cpu = process_cpu();
    let (out, cal) = calibrated(CAL_EVERY, || run_phase(addr, reqs, clients));
    (process_cpu() - cpu - cal.total_s(), cal, out)
}

pub fn run(args: &RunArgs) -> Report {
    if args.trace {
        return run_traced(args);
    }
    let mut r = Report::default();
    let mut gen = Gen::new(args.seed);
    let mut setups = setup_in_children(SETUP_REPS - 1);
    let served = setup();
    setups.push(served.setup);
    let addr = served.server.addr();
    let pool = JobPool::new(1, 16);

    // Warm-up, then the latency phase at the fixed rate.
    let warm = gen.schedule(FIXED_RPS, args.seconds * WARMUP_SHARE);
    let warm_out = run_phase(addr, &warm, CLIENTS);
    let reqs = gen.schedule(FIXED_RPS, args.seconds * FIXED_SHARE);
    let (fixed_raw, fixed_cal, out) = timed_phase(addr, &reqs, CLIENTS);
    let fixed_cpu = fixed_cal.scale(fixed_raw);
    let fixed = summarize(&out);
    let measures = reqs.iter().filter(|q| q.class == Class::Measure).count();
    let repeats = reqs.iter().filter(|q| q.repeat).count();
    let mut checked = vec![(warm, warm_out), (reqs, out)];

    // The high rate, then cache-hot requests back to back on one
    // connection (with two, both vCPUs ran flat out and the figure
    // followed the host's scheduling).
    let reqs = gen.schedule_n(HIGH_RPS, HIGH_REQUESTS);
    let high_start = Instant::now();
    let (high_raw, high_cal, out) = timed_phase(addr, &reqs, CLIENTS);
    let high_cpu = high_cal.scale(high_raw);
    let high_wall = secs(high_start);
    let high = summarize(&out);
    checked.push((reqs, out));
    let reqs = gen.hot_burst(HOT_REQUESTS);
    let hot_start = Instant::now();
    let (hot_raw, hot_cal, out) = timed_phase(addr, &reqs, 1);
    let hot_cpu = hot_cal.scale(hot_raw);
    let hot_wall = secs(hot_start);
    checked.push((reqs, out));

    // The ladder: the fixed rate is its lowest rung; bisect for the
    // highest passing rung in the time left.
    let rung = |k: usize| FIXED_RPS * LADDER_STEP.powi(k as i32);
    let left = args.seconds * (1.0 - WARMUP_SHARE - FIXED_SHARE) - high_wall - hot_wall;
    let probe_s = left.max(0.5 * PROBES as f64) / PROBES as f64;
    let mut probes = Vec::new();
    let (mut lo, mut hi) = (0usize, LADDER_RUNGS);
    let lo_passed = passes(&fixed);
    let mut retried = None;
    for _ in 0..if lo_passed { PROBES } else { 0 } {
        let k = (lo + hi) / 2;
        if k == lo {
            break;
        }
        let reqs = gen.schedule(rung(k), probe_s);
        let out = run_phase(addr, &reqs, CLIENTS);
        let s = summarize(&out);
        let ok = passes(&s);
        probes.push(format!(
            "{:.1} rps: {} requests, p99 {:.2} ms, {} failed, end lag {:.2} ms -> {}",
            rung(k),
            s.n,
            s.p99_ms,
            s.failed,
            s.lag_end_ms,
            if ok { "pass" } else { "fail" }
        ));
        checked.push((reqs, out));
        if ok {
            lo = k;
        } else if retried == Some(k) {
            hi = k;
        } else {
            retried = Some(k);
        }
    }
    let max_rps = if lo_passed {
        rung(lo)
    } else {
        FIXED_RPS / LADDER_STEP
    };

    let mut direct_of = Direct::new();
    for (reqs, out) in &checked {
        check_responses(&mut r, &mut direct_of, reqs, out, &pool);
    }
    pool.shutdown();
    // Wall-clock latency and the ladder's verdicts follow the host more
    // than the server: on a 2-vCPU guest, runs of one seed gave p50 4.8,
    // 7.8 and 8.9 ms as the host took 3%, 10% and 14% of the CPU time
    // (steal). They are printed below; the bounded figures are the
    // calibrated CPU cost of phases whose offered work is fixed.
    let fixed_cpu_ms = fixed_cpu * 1e3 / fixed.n as f64;
    let high_cpu_ms = high_cpu * 1e3 / high.n as f64;
    let hot_rate = HOT_REQUESTS as f64 / hot_cpu;
    r.put("primary_ms", fixed_cpu_ms, "ms");
    r.put("secondary_ms", high_cpu_ms, "ms");
    r.put("rate_per_s", hot_rate, "1/s");
    r.put("setup_s", median(&setups), "s");
    r.put("peak_rss_mb", crate::common::peak_rss_mb(), "MB");
    r.note(format!(
        "serve_p50_ms = {} ms, serve_p90_ms = {} ms, serve_p99_ms = {} ms at {FIXED_RPS} req/s offered ({} requests, {} failed; generator lag p99 {:.3} ms, backlog max {})",
        fixed.p50_ms, fixed.p90_ms, fixed.p99_ms, fixed.n, fixed.failed, fixed.lag_p99_ms, fixed.backlog_max
    ));
    r.note(format!(
        "measure requests: {measures}, repeats of an earlier body (store reads): {repeats} ({:.1}%)",
        100.0 * repeats as f64 / measures.max(1) as f64
    ));
    r.note(format!("cold starts (calibrated CPU s): {setups:?}"));
    r.note(format!(
        "calibrated CPU per request: {fixed_cpu_ms} ms at {FIXED_RPS} req/s, {high_cpu_ms} ms at {HIGH_RPS} req/s \
         ({} requests offered at {HIGH_RPS} req/s served in {high_wall:.2} s, {:.0} req/s)",
        high.n,
        high.n as f64 / high_wall
    ));
    r.note(format!(
        "closed loop: {HOT_REQUESTS} cache-hot synth requests on 1 connection, {hot_rate} per calibrated CPU second, {:.0} per wall second",
        HOT_REQUESTS as f64 / hot_wall
    ));
    r.note(format!(
        "phases (fixed, high, closed loop): raw CPU s {:?}, calibration unit ms {:?}",
        [fixed_raw, high_raw, hot_raw],
        [fixed_cal, high_cal, hot_cal].map(|c| c.unit_s() * 1e3)
    ));
    r.note(format!(
        "serve_max_rps = {max_rps} req/s (p99 <= {LIMIT_MS} ms, no growing backlog)"
    ));
    for p in probes {
        r.note(format!("  ladder {p}"));
    }
    teardown(served);
    r
}

/// The traced run: the fixed-rate phase untraced and then traced (the
/// program's spans on the server's threads, a `bench.request` span per
/// request), then fresh bodies of each class through `hc_serve::api`
/// directly for the service time.
fn run_traced(args: &RunArgs) -> Report {
    let mut r = Report::default();
    let mut gen = Gen::new(args.seed);
    let served = setup();
    let addr = served.server.addr();
    let pool = JobPool::new(1, 16);
    let phase_s = args.seconds * 0.4;

    let plain_reqs = gen.schedule(FIXED_RPS, phase_s);
    let plain = run_phase(addr, &plain_reqs, CLIENTS);
    let path = spans::trace_path(&args.workload, args.seed);
    set_tracing(Some(path.clone()));
    spans::take();
    let reqs = gen.schedule(FIXED_RPS, phase_s);
    let t = Instant::now();
    let out = run_phase(addr, &reqs, CLIENTS);
    let phase_wall = secs(t);

    // Service time: fresh bodies of each class straight through the API.
    let mut service_ms = Vec::new();
    for class in CLASSES {
        let n = if class == Class::Dse {
            SERVICE_SAMPLES / 5
        } else {
            SERVICE_SAMPLES
        };
        let mut service = Vec::new();
        for _ in 0..n {
            let (body, _) = gen.body(class);
            let t = Instant::now();
            let res = {
                let _s = hc_obs::span("serve.service").with("class", class.name());
                direct(class, &body, &pool)
            };
            service.push(secs(t) * 1e3);
            r.check(res.is_ok(), || {
                format!("direct {} failed: {res:?}", class.path())
            });
        }
        service_ms.push(median(&service));
    }
    let events = spans::take();
    set_tracing(None);

    let mut direct_of = Direct::new();
    check_responses(&mut r, &mut direct_of, &plain_reqs, &plain, &pool);
    check_responses(&mut r, &mut direct_of, &reqs, &out, &pool);
    let s = summarize(&out);
    r.put(
        "obs.trace_overhead",
        s.p50_ms / summarize(&plain).p50_ms,
        "ratio",
    );
    r.put(
        "serve.rejected_429",
        out.iter().filter(|o| o.status == 429).count() as f64,
        "count",
    );
    r.put("serve.generator_lag_ms", s.lag_p99_ms, "ms");
    r.put("serve.backlog_max", s.backlog_max as f64, "count");
    let deck_total: usize = DECK.iter().map(|d| d.1).sum();
    let work: Vec<f64> = CLASSES
        .iter()
        .zip(&service_ms)
        .map(|(c, ms)| {
            let share = DECK.iter().find(|d| d.0 == *c).map_or(0, |d| d.1);
            ms * share as f64 / deck_total as f64
        })
        .collect();
    let total_work: f64 = work.iter().sum();
    for ((class, svc), w) in CLASSES.iter().zip(&service_ms).zip(&work) {
        let lat: Vec<f64> = out
            .iter()
            .filter(|o| o.class == *class)
            .map(|o| o.latency_s * 1e3)
            .collect();
        let name = class.name();
        let p50 = quantile(&lat, 0.5);
        r.put(&format!("serve.{name}.p50_ms"), p50, "ms");
        r.put(&format!("serve.{name}.p99_ms"), quantile(&lat, 0.99), "ms");
        r.put(&format!("serve.{name}.service_ms"), *svc, "ms");
        r.put(&format!("serve.{name}.wait_ms"), p50 - svc, "ms");
        r.note(format!(
            "{name}: service {svc:.3} ms, {:.1}% of the mix's work",
            100.0 * w / total_work
        ));
    }

    // The layers, from the program's spans on the server's threads and
    // the direct calls.
    let st = spans::self_times(&events);
    let mut c = spans::counts(&events);
    c.designs = spans::count(&events, "elaborate");
    spans::put_layers(&mut r, &st, &c);
    r.put("obs.wall_s", phase_wall, "s");
    let client: f64 = spans::durations(&events, "bench.request").iter().sum();
    let server: f64 = spans::durations(&events, "serve.request").iter().sum();
    r.put("obs.unattributed_s", (client - server).max(0.0), "s");

    let tier = hc_core::persist::tier_counters();
    r.put("store.front_hits", tier.front_hits.get() as f64, "count");
    r.put(
        "store.measure_hits",
        tier.measure_hits.get() as f64,
        "count",
    );
    r.put(
        "store.misses",
        (tier.front_misses.get() + tier.measure_misses.get()) as f64,
        "count",
    );
    if let Some(store) = hc_core::persist::store() {
        let st = store.stats();
        r.put("store.records", st.records as f64, "count");
        r.put("store.live_bytes", st.live_bytes as f64, "count");
    }
    pool.shutdown();
    spans::write(&path, &events);
    teardown(served);
    r
}
