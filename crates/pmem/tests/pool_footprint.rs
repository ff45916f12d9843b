//! A pool costs what it uses, not what it reserves: resident memory and
//! crash/remount work follow the allocator's touched extent.
//!
//! In a test binary of its own so that no unrelated test moves the resident
//! set while it is read; the tests here serialize on [`SERIAL`] for the same
//! reason. Linux-only: the readings come from `/proc/self/status`.
#![cfg(target_os = "linux")]

use std::sync::{Mutex, MutexGuard};

use pmem::alloc::{AllocMode, DATA_START};
use pmem::pool::{destroy_pool, PmemPool, PoolConfig, POOL_ALIGN};

const MIB: usize = 1 << 20;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed sibling test poisons the lock; its reading is still ours alone.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Resident set of this process in bytes.
fn rss() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: usize = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line");
    kb * 1024
}

/// Allocates `len` bytes and fills them with `byte`; returns the offset.
fn alloc_filled(pool: &PmemPool, len: usize, byte: u8) -> u64 {
    let off = pool.allocator().alloc(len).expect("pool space").offset();
    // SAFETY: `len` freshly allocated bytes inside the pool.
    unsafe { pool.at(off).write_bytes(byte, len) };
    off
}

fn byte_at(pool: &PmemPool, off: u64) -> u8 {
    // SAFETY: `at` bounds-checks the offset.
    unsafe { pool.at(off).read() }
}

#[test]
fn volatile_pool_is_resident_only_where_written() {
    let _serial = serial();
    let before = rss();
    let pool = PmemPool::create(PoolConfig::volatile("fp-volatile", 1024 * MIB)).unwrap();
    let created = rss();
    assert!(
        created < before + 16 * MIB,
        "creating a 1 GiB pool made {} MiB resident",
        (created - before) / MIB
    );
    assert_eq!(pool.base() as usize % POOL_ALIGN, 0);
    assert_eq!(
        byte_at(&pool, 777 * MIB as u64),
        0,
        "untouched page is zero"
    );
    assert_eq!(byte_at(&pool, (1024 * MIB - 1) as u64), 0, "last byte too");

    alloc_filled(&pool, 4 * MIB, 0xA5);
    let grown = rss().saturating_sub(created);
    assert!(
        (3 * MIB..=8 * MIB).contains(&grown),
        "writing 4 MiB made {} KiB resident",
        grown / 1024
    );

    destroy_pool(pool.id());
    drop(pool);
    let after = rss();
    assert!(
        after < before + 2 * MIB,
        "destroying the pool left {} KiB behind",
        after.saturating_sub(before) / 1024
    );
}

#[test]
fn crash_and_remount_touch_only_the_used_part() {
    let _serial = serial();
    let before = rss();
    let pool = PmemPool::create(PoolConfig::durable("fp-durable", 512 * MIB)).unwrap();
    let kept = alloc_filled(&pool, MIB / 2, 0x11);
    pool.persist_range(kept, MIB / 2);
    let lost = alloc_filled(&pool, MIB / 2, 0x22);
    assert_eq!(
        pool.touched_extent() as u64,
        DATA_START + pool.allocator().high_water()
    );

    pool.simulate_crash(false);
    assert_eq!(byte_at(&pool, kept), 0x11, "persisted data survives");
    assert_eq!(byte_at(&pool, kept + MIB as u64 / 2 - 1), 0x11);
    assert_eq!(byte_at(&pool, lost), 0x00, "unpersisted data is lost");
    assert_eq!(byte_at(&pool, lost + MIB as u64 / 2 - 1), 0x00);

    // Dirty the lost block again so the second crash has something to drop.
    // SAFETY: the block is still in bounds; nothing else uses it.
    unsafe { pool.at(lost).write_bytes(0x33, MIB / 2) };
    let old_base = pool.base();
    pool.simulate_crash(true);
    assert_ne!(pool.base(), old_base, "remounted at a new address");
    assert_eq!(pool.base() as usize % POOL_ALIGN, 0);
    assert_eq!(byte_at(&pool, kept), 0x11);
    assert_eq!(byte_at(&pool, kept + MIB as u64 / 2 - 1), 0x11);
    assert_eq!(byte_at(&pool, lost), 0x00);
    assert_eq!(byte_at(&pool, 300 * MIB as u64), 0x00, "tail still zero");
    assert_eq!(pool.crash_count(), 2);

    let snapshot = pool.media_snapshot().unwrap();
    assert_eq!(snapshot.len(), pool.size());
    assert_eq!(snapshot[kept as usize], 0x11);
    drop(snapshot);

    let grown = rss().saturating_sub(before);
    assert!(
        grown < 32 * MIB,
        "two crashes of a 512 MiB pool holding 1 MiB made {} MiB resident",
        grown / MIB
    );
    destroy_pool(pool.id());
}

/// A Transient-mode header never records the cursor, so a remount rewinds it
/// to the start of the data space — below blocks that were written and
/// persisted, and that recovered pointers still reach. The extent must not
/// rewind with it, or the next crash would skip those blocks and leave their
/// unpersisted bytes in the volatile image.
#[test]
fn extent_survives_a_rewinding_remount() {
    let _serial = serial();
    let cfg = PoolConfig::durable("fp-rewind", 4 * MIB).with_alloc_mode(AllocMode::Transient);
    let pool = PmemPool::create(cfg).unwrap();
    alloc_filled(&pool, 256 << 10, 0x44);
    let far = alloc_filled(&pool, 256 << 10, 0x55);
    pool.persist_range(far, 256 << 10);
    let old_extent = pool.touched_extent();

    pool.simulate_crash(false);
    assert_eq!(pool.allocator().high_water(), 0, "cursor rewound");
    assert_eq!(pool.touched_extent(), old_extent, "extent did not");
    assert_eq!(byte_at(&pool, far), 0x55);

    // Allocate less than before, and dirty the old block beyond the cursor.
    let near = alloc_filled(&pool, 4 << 10, 0x66);
    assert!(pool.allocator().high_water() < far - DATA_START);
    // SAFETY: `far` is a 256 KiB block inside the pool; the test is its only user.
    unsafe { pool.at(far).write_bytes(0x77, 256 << 10) };
    pool.simulate_crash(false);

    let media = pool.media_snapshot().unwrap();
    // SAFETY: the extent is inside the mounted image; no other thread writes it.
    let volatile = unsafe { std::slice::from_raw_parts(pool.base(), old_extent) };
    assert!(
        volatile == &media[..old_extent],
        "volatile != media at offset {:?}",
        volatile.iter().zip(&media).position(|(v, m)| v != m)
    );
    assert_eq!(byte_at(&pool, near), 0x00, "never persisted");
    assert_eq!(byte_at(&pool, far), 0x55, "back to what media held");
    destroy_pool(pool.id());
}
