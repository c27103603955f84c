//! Single-flight front-half misses. The test lives in its own binary so the
//! process-wide cache and optimizer counters see no other test's traffic.

use hc_core::cache;
use hc_rtl::{BinaryOp, Module};
use std::sync::Barrier;

/// Tens of thousands of nodes of mergeable, partly dead logic: enough work
/// that racing callers overlap the first one's computation.
fn module() -> Module {
    let mut m = Module::new("single_flight");
    let a = m.input("a", 16);
    let b = m.input("b", 16);
    let mut acc = a;
    for i in 0..6000 {
        let k = m.const_u(16, i % 7);
        let s1 = m.binary(BinaryOp::Add, acc, k, 16);
        let s2 = m.binary(BinaryOp::Add, k, acc, 16);
        let _dead = m.binary(BinaryOp::MulU, s2, b, 16);
        acc = m.binary(BinaryOp::Xor, s2, b, 16);
        acc = m.binary(BinaryOp::Sub, acc, s1, 16);
    }
    m.output("y", acc);
    m
}

#[test]
fn concurrent_misses_on_one_key_compute_once() {
    const THREADS: usize = 6;
    let m = module();
    let optimize_runs = hc_obs::metrics::counter("ir.optimize_runs");
    let (hits0, misses0) = cache::stats();
    let runs0 = optimize_runs.get();
    let barrier = Barrier::new(THREADS);
    let entries: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    cache::front_half(&m)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let (hits1, misses1) = cache::stats();
    assert_eq!(misses1 - misses0, 1, "one miss for one key");
    assert_eq!(hits1 - hits0, THREADS as u64 - 1, "every other caller hits");
    assert_eq!(optimize_runs.get() - runs0, 1, "one optimize run");
    assert!(entries
        .iter()
        .all(|e| std::sync::Arc::ptr_eq(e, &entries[0])));
}
