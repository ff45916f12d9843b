//! Validation of the NVM performance model against its specification:
//! XPLine accounting, write combining, bandwidth asymmetry, dilation, and
//! eADR semantics. These are the knobs every figure depends on.

use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use pmem::model::{self, CoherenceMode, NvmModelConfig};
use pmem::pool::{destroy_pool, PmemPool, PoolConfig};
use pmem::{persist, XPLINE};

/// The model's configuration is process-wide: every test here sets it, so
/// they run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn fresh_pool(name: &str) -> std::sync::Arc<PmemPool> {
    PmemPool::create(PoolConfig::volatile(name, 16 << 20)).unwrap()
}

#[test]
fn dilation_scales_flush_latency() {
    let _serial = serial();
    let pool = fresh_pool("mv-dilate");
    let p = pool.allocator().alloc(64).unwrap();

    let time_flushes = |dilation: f64, n: u64| -> u128 {
        let mut cfg = NvmModelConfig::optane_dilated(CoherenceMode::Snoop, dilation);
        cfg.throttle = false;
        model::set_config(cfg);
        let t0 = Instant::now();
        for _ in 0..n {
            persist::persist(p.as_ptr(), 64);
        }
        let e = t0.elapsed().as_micros();
        model::set_config(NvmModelConfig::disabled());
        e
    };

    // 500 flushes at 200ns model latency: ~100us at 1x, ~51ms at 512x.
    let slow = time_flushes(512.0, 500);
    assert!(
        slow >= 40_000,
        "512x dilation should cost >=40ms for 500 flushes, got {slow}us"
    );
    destroy_pool(pool.id());
}

#[test]
fn eadr_removes_flush_latency_but_not_write_traffic() {
    let _serial = serial();
    let pool = fresh_pool("mv-eadr");
    let p = pool.allocator().alloc(4096).unwrap();

    let mut adr = NvmModelConfig::optane_dilated(CoherenceMode::Snoop, 256.0);
    adr.throttle = false;
    let mut eadr = adr.clone();
    eadr.eadr = true;

    // ADR: flushes sleep.
    model::set_config(adr);
    let t0 = Instant::now();
    for i in 0..200u64 {
        persist::persist(p.as_ptr().wrapping_add((i as usize * 64) % 4096), 64);
    }
    let adr_time = t0.elapsed().as_micros();
    let adr_writes = pool.stats().snapshot().media_write_bytes;

    // eADR: same traffic, near-zero synchronous cost.
    pool.stats().reset();
    model::set_config(eadr);
    let t0 = Instant::now();
    for i in 0..200u64 {
        persist::persist(p.as_ptr().wrapping_add((i as usize * 64) % 4096), 64);
    }
    let eadr_time = t0.elapsed().as_micros();
    let eadr_writes = pool.stats().snapshot().media_write_bytes;
    model::set_config(NvmModelConfig::disabled());

    assert!(
        eadr_time * 5 < adr_time,
        "eADR flushes must be much cheaper: {eadr_time}us vs {adr_time}us"
    );
    assert!(eadr_writes > 0, "eADR still consumes write bandwidth");
    assert_eq!(adr_writes, eadr_writes, "same media traffic either way");
    destroy_pool(pool.id());
}

#[test]
fn write_combining_vs_random_amplification() {
    let _serial = serial();
    let pool = fresh_pool("mv-wc");
    model::set_config(NvmModelConfig::accounting());

    // Sequential: 64 consecutive lines = 16 XPLines of traffic.
    let before = pool.stats().snapshot();
    for i in 0..64u64 {
        model::on_flush(pool.id(), 65536 + i * 64, 64);
    }
    let seq = pool.stats().snapshot().since(&before).media_write_bytes;

    // Random: 64 scattered lines = 64 XPLines (4x amplification).
    let before = pool.stats().snapshot();
    for i in 0..64u64 {
        model::on_flush(pool.id(), (i * 37 % 256) * 4096, 64);
    }
    let rnd = pool.stats().snapshot().since(&before).media_write_bytes;
    model::set_config(NvmModelConfig::disabled());

    assert_eq!(seq, 16 * XPLINE as u64);
    assert!(rnd >= 3 * seq, "random writes amplify: {rnd} vs {seq}");
    destroy_pool(pool.id());
}

#[test]
fn read_write_bandwidth_asymmetry_configured() {
    let _serial = serial();
    let cfg = NvmModelConfig::optane(CoherenceMode::Snoop);
    assert!(
        cfg.read_bw >= 3 * cfg.write_bw,
        "Optane's 3-5x read/write asymmetry must be modeled"
    );
    let low = NvmModelConfig::low_bandwidth();
    assert!(
        low.read_bw <= cfg.read_bw / 2,
        "low-bandwidth machine is ~3x slower"
    );
}

#[test]
fn dirty_traffic_counts_without_latency() {
    let _serial = serial();
    // GA2's reader-lock traffic: on_dirty consumes write budget but sleeps
    // nothing.
    let pool = fresh_pool("mv-dirty");
    model::set_config(NvmModelConfig::accounting());
    let before = pool.stats().snapshot();
    let t0 = Instant::now();
    for i in 0..1000u64 {
        model::on_dirty(pool.id(), (i * 7 % 64) * 4096, 8);
    }
    let elapsed = t0.elapsed().as_millis();
    let d = pool.stats().snapshot().since(&before);
    model::set_config(NvmModelConfig::disabled());
    assert!(d.media_write_bytes > 0, "dirty lines reach the media");
    assert_eq!(d.flushes, 0, "no flush instructions were issued");
    assert!(elapsed < 500, "accounting mode must not sleep");
    destroy_pool(pool.id());
}

#[test]
fn cpu_cache_filters_repeated_reads() {
    let _serial = serial();
    let pool = fresh_pool("mv-cache");
    model::set_config(NvmModelConfig::accounting());
    let before = pool.stats().snapshot();
    for _ in 0..100 {
        model::on_read(pool.id(), 8192, 256);
    }
    let d = pool.stats().snapshot().since(&before);
    model::set_config(NvmModelConfig::disabled());
    // First read misses (one XPLine per 64B line of the 256B range); the 99
    // repeats hit the simulated CPU cache.
    assert!(
        d.media_read_bytes <= 4 * XPLINE as u64,
        "repeats must be cache hits: {}",
        d.media_read_bytes
    );
    destroy_pool(pool.id());
}
