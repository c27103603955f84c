//! The persistence tier under the in-process caches: maps front-half
//! artifacts and measurements onto [`hc_store`] records so a second
//! process on the same machine warm-starts instead of recomputing.
//!
//! Two record kinds live in the store:
//!
//! * [`KIND_FRONT`] — the front-half artifact (optimized module + both
//!   synthesis reports), keyed by the *input* module's structural content
//!   hash and the active pass-config byte: exactly the in-process memo
//!   cache's key, so the tiers never disagree about identity.
//! * [`KIND_MEASURE`] — one sweep point's [`Measurement`], keyed by the
//!   front-half key plus everything else the result depends on: the
//!   stimulus size, the workload whose golden model it was verified
//!   against, and the interface/throughput model. The design's
//!   `label` and `loc` are *metadata*, not derived from the module, so
//!   they are patched in from the live [`Design`](crate::entries::Design)
//!   on load rather than trusted from disk.
//!
//! A decode failure (version skew, bit rot that beat the CRC odds) is a
//! miss, never an error: the caller recomputes and the bad record is
//! superseded at the next compaction.
//!
//! The process-global store handle ([`store`]) is opened lazily from
//! `HC_STORE_DIR` in the active [`hc_obs::config`] snapshot; unit tests
//! use the `*_in` variants against a local [`Store`] instead.

use std::sync::{Arc, OnceLock};

use hc_store::encode::{Dec, Enc};
use hc_store::{codec, Store, StoreOptions};

use crate::cache::FrontHalf;
use crate::entries::DesignInterface;
use crate::measure::{Measurement, IDCT_WORKLOAD};

/// Record kind for front-half artifacts.
pub const KIND_FRONT: u8 = 1;
/// Record kind for per-point measurements.
pub const KIND_MEASURE: u8 = 2;

/// The process-global persistent store, opened once from `HC_STORE_DIR`
/// on first use. `None` when the variable is unset or the open failed
/// (the failure is reported once on stderr; the process then runs with
/// in-memory caching only).
pub fn store() -> Option<&'static Store> {
    static STORE: OnceLock<Option<Store>> = OnceLock::new();
    STORE
        .get_or_init(|| {
            let cfg = hc_obs::config();
            let dir = cfg.store_dir.clone()?;
            let mut opts = StoreOptions::new(&dir);
            opts.cap_bytes = cfg.store_cap_mb.map(|mb| mb as u64 * 1024 * 1024);
            opts.sync = cfg.store_sync;
            match Store::open(opts) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!("hc-store: cannot open {dir}: {e}; persistence disabled");
                    None
                }
            }
        })
        .as_ref()
}

/// The store key of a front-half artifact: content hash + pass-config
/// byte, little-endian — identical identity to the in-process cache.
pub fn front_key(key: (u128, u8)) -> [u8; 17] {
    let mut k = [0u8; 17];
    k[..16].copy_from_slice(&key.0.to_le_bytes());
    k[16] = key.1;
    k
}

/// The store key of a measurement: the front-half key plus the stimulus
/// size, the workload whose golden model the record was verified against
/// (`"idct8"` for Table II and Fig. 1, the kernel id for matrix cells) and
/// the interface model. `nblocks` is clamped to the measurement path's
/// effective minimum of 2 so equivalent requests share a record.
pub fn measure_key(
    key: (u128, u8),
    nblocks: usize,
    workload: &str,
    interface: &DesignInterface,
) -> Vec<u8> {
    let mut e = Enc::new();
    e.u128(key.0);
    e.u8(key.1);
    e.u32(nblocks.max(2) as u32);
    e.str(workload);
    match interface {
        DesignInterface::Axis => e.u8(0),
        DesignInterface::Stream { bits_per_op } => {
            e.u8(1);
            e.u64(*bits_per_op);
        }
    }
    e.into_bytes()
}

/// Writes a front-half artifact under its cache key. Best-effort: an I/O
/// error is reported to the `store.write_errors` counter and dropped —
/// persistence must never fail a measurement.
pub fn save_front_in(store: &Store, front: &FrontHalf) {
    let mut e = Enc::new();
    codec::enc_module(&mut e, &front.module);
    codec::enc_opt_report(&mut e, &front.opt);
    codec::enc_synth_report(&mut e, &front.full);
    codec::enc_synth_report(&mut e, &front.nodsp);
    if store
        .put(KIND_FRONT, &front_key(front.key), &e.into_bytes())
        .is_err()
    {
        hc_obs::metrics::counter("store.write_errors").inc();
    }
}

/// Reads a front-half artifact back, if present and intact. The decoded
/// module is fully re-validated; any defect is a miss.
pub fn load_front_in(store: &Store, key: (u128, u8)) -> Option<Arc<FrontHalf>> {
    let bytes = store.get(KIND_FRONT, &front_key(key))?;
    let mut d = Dec::new(&bytes);
    let module = codec::dec_module(&mut d).ok()?;
    let opt = codec::dec_opt_report(&mut d).ok()?;
    let full = codec::dec_synth_report(&mut d).ok()?;
    let nodsp = codec::dec_synth_report(&mut d).ok()?;
    if !d.is_done() {
        return None;
    }
    Some(Arc::new(FrontHalf {
        module: Arc::new(module),
        opt,
        full: Arc::new(full),
        nodsp: Arc::new(nodsp),
        key,
    }))
}

/// Writes one measurement under `key` (from [`measure_key`]).
/// Best-effort, like [`save_front_in`].
pub fn save_measurement_in(store: &Store, key: &[u8], m: &Measurement) {
    let mut e = Enc::new();
    e.f64(m.fmax_mhz);
    e.f64(m.t_clk_ns);
    e.u64(m.latency);
    e.u64(m.periodicity);
    e.f64(m.throughput_mops);
    codec::enc_area(&mut e, &m.area);
    codec::enc_area(&mut e, &m.area_nodsp);
    e.f64(m.q);
    if store.put(KIND_MEASURE, key, &e.into_bytes()).is_err() {
        hc_obs::metrics::counter("store.write_errors").inc();
    }
}

/// Reads one measurement back. `label` and `loc` come back empty/zero —
/// they are design metadata the caller patches from the live design.
pub fn load_measurement_in(store: &Store, key: &[u8]) -> Option<Measurement> {
    let bytes = store.get(KIND_MEASURE, key)?;
    let mut d = Dec::new(&bytes);
    let m = Measurement {
        label: String::new(),
        fmax_mhz: d.f64().ok()?,
        t_clk_ns: d.f64().ok()?,
        latency: d.u64().ok()?,
        periodicity: d.u64().ok()?,
        throughput_mops: d.f64().ok()?,
        area: codec::dec_area(&mut d).ok()?,
        area_nodsp: codec::dec_area(&mut d).ok()?,
        q: d.f64().ok()?,
        loc: 0,
    };
    d.is_done().then_some(m)
}

/// The store key a [`measure`](crate::measure::measure) call for this
/// design will use — content hash + active pass config + stimulus size +
/// the IDCT workload + interface model. Costs one structural hash of the
/// module.
pub fn design_measure_key(design: &crate::entries::Design, nblocks: usize) -> Vec<u8> {
    let key = (
        hc_rtl::hash::content_hash(&design.module),
        hc_rtl::passes::PassConfig::from_env().key(),
    );
    measure_key(key, nblocks, IDCT_WORKLOAD, &design.interface)
}

/// True when a measurement record exists for `key` — lets hc-serve's
/// streaming sweep mark points it will answer from the store.
pub fn has_measurement(key: &[u8]) -> bool {
    store().is_some_and(|s| s.contains(KIND_MEASURE, key))
}

/// Cached handles on the store-tier counters: `store.front.*` and
/// `store.measure.*` count probes of each record kind (`hits` answered
/// from disk, `misses` recomputed).
pub fn tier_counters() -> &'static TierCounters {
    static CELLS: OnceLock<TierCounters> = OnceLock::new();
    CELLS.get_or_init(|| TierCounters {
        front_hits: hc_obs::metrics::counter("store.front.hits"),
        front_misses: hc_obs::metrics::counter("store.front.misses"),
        measure_hits: hc_obs::metrics::counter("store.measure.hits"),
        measure_misses: hc_obs::metrics::counter("store.measure.misses"),
    })
}

/// See [`tier_counters`].
pub struct TierCounters {
    /// Front-half probes answered from disk.
    pub front_hits: hc_obs::metrics::Counter,
    /// Front-half probes that fell through to compute.
    pub front_misses: hc_obs::metrics::Counter,
    /// Measurement probes answered from disk.
    pub measure_hits: hc_obs::metrics::Counter,
    /// Measurement probes that fell through to simulate.
    pub measure_misses: hc_obs::metrics::Counter,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entries::Design;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn temp_store(tag: &str) -> (Store, PathBuf) {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("hc-persist-{tag}-{}-{n}", std::process::id()));
        (Store::open(StoreOptions::new(&dir)).unwrap(), dir)
    }

    fn verilog_design() -> Design {
        Design {
            label: "verilog/initial".into(),
            module: hc_verilog::designs::initial_design().expect("parses"),
            interface: DesignInterface::Axis,
            loc: 210,
        }
    }

    #[test]
    fn front_half_round_trips_through_a_store() {
        let (store, dir) = temp_store("front");
        let design = verilog_design();
        let front = crate::cache::front_half(&design.module);
        save_front_in(&store, &front);
        let back = load_front_in(&store, front.key).expect("stored artifact loads");
        assert_eq!(back.key, front.key);
        assert_eq!(
            hc_rtl::hash::content_hash(&back.module),
            hc_rtl::hash::content_hash(&front.module),
            "optimized module survives the disk round trip structurally"
        );
        assert_eq!(*back.full, *front.full);
        assert_eq!(*back.nodsp, *front.nodsp);
        assert_eq!(back.opt, front.opt);
        // Unknown keys miss.
        assert!(load_front_in(&store, (front.key.0 ^ 1, front.key.1)).is_none());
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn measurement_round_trips_and_key_separates_configs() {
        let (store, dir) = temp_store("meas");
        let design = verilog_design();
        let m = crate::measure::measure(&design, 2);
        let key = crate::cache::front_half(&design.module).key;
        let idct = IDCT_WORKLOAD;
        let k_axis = measure_key(key, 2, idct, &DesignInterface::Axis);
        let k_stream = measure_key(key, 2, idct, &DesignInterface::Stream { bits_per_op: 768 });
        let k_more_blocks = measure_key(key, 3, idct, &DesignInterface::Axis);
        let k_other_golden = measure_key(key, 2, "dct8", &DesignInterface::Axis);
        assert_ne!(k_axis, k_stream);
        assert_ne!(k_axis, k_more_blocks);
        assert_ne!(k_axis, k_other_golden);
        // nblocks 0, 1 and 2 alias (the back half clamps to 2).
        assert_eq!(k_axis, measure_key(key, 0, idct, &DesignInterface::Axis));
        // `measure` files its record under the IDCT workload.
        assert_eq!(design_measure_key(&design, 2), k_axis);

        save_measurement_in(&store, &k_axis, &m);
        let back = load_measurement_in(&store, &k_axis).expect("stored measurement loads");
        assert_eq!(back.latency, m.latency);
        assert_eq!(back.periodicity, m.periodicity);
        assert_eq!(back.area, m.area);
        assert_eq!(back.area_nodsp, m.area_nodsp);
        assert!((back.q - m.q).abs() < 1e-12);
        assert!(
            back.label.is_empty() && back.loc == 0,
            "metadata not trusted from disk"
        );
        assert!(load_measurement_in(&store, &k_stream).is_none());
        assert!(load_measurement_in(&store, &k_other_golden).is_none());
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_payloads_read_as_misses() {
        let (store, dir) = temp_store("corrupt");
        let k_measure = measure_key((42, 0), 2, IDCT_WORKLOAD, &DesignInterface::Axis);
        store
            .put(KIND_FRONT, &front_key((42, 0)), b"garbage")
            .unwrap();
        store.put(KIND_MEASURE, &k_measure, b"junk").unwrap();
        assert!(load_front_in(&store, (42, 0)).is_none());
        assert!(load_measurement_in(&store, &k_measure).is_none());
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
