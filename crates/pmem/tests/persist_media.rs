//! `persist` returns early only while nothing could consume a flush: the
//! NVM model is off and no registered pool keeps a media image.
//!
//! In a test binary of its own, with one test, because it reads the
//! process-wide count of durable pools, which any concurrently running
//! test creating a pool would move.

use pmem::persist::{fence, persist};
use pmem::pool::{destroy_pool, media_pool_count, PmemPool, PoolConfig};

const MIB: usize = 1 << 20;

#[test]
fn durable_pools_are_counted_and_flushed_beside_volatile_ones() {
    assert_eq!(media_pool_count(), 0);
    let volatile: Vec<_> = (0..3)
        .map(|i| PmemPool::create(PoolConfig::volatile(&format!("pm-vol{i}"), MIB)).unwrap())
        .collect();
    assert_eq!(media_pool_count(), 0, "volatile pools keep no media image");

    // A flush into a volatile pool has no consumer: it takes the early
    // return and must still be harmless.
    let v = volatile[0].allocator().alloc(64).unwrap();
    // SAFETY: 64 freshly allocated bytes.
    unsafe { v.as_mut_ptr().write_bytes(0x11, 64) };
    persist(v.as_ptr(), 64);
    fence();

    let durable = PmemPool::create(PoolConfig::durable("pm-durable", MIB)).unwrap();
    let second = PmemPool::create(PoolConfig::durable("pm-durable2", MIB)).unwrap();
    assert_eq!(media_pool_count(), 2);

    // Created while volatile pools are alive, the durable pool still gets
    // its flushed lines copied to media, and only those.
    let a = durable.allocator().alloc(64).unwrap();
    let b = durable.allocator().alloc(64).unwrap();
    // SAFETY: two distinct freshly allocated 64-byte blocks.
    unsafe {
        a.as_mut_ptr().write_bytes(0x5A, 64);
        b.as_mut_ptr().write_bytes(0xA5, 64);
    }
    persist(a.as_ptr(), 64);
    fence();
    assert_eq!(durable.media_line(a.offset()), Some([0x5A; 64]));
    assert_eq!(durable.media_line(b.offset()), Some([0; 64]));
    durable.simulate_crash(false);
    // SAFETY: both offsets are in bounds; the pool was remounted in place.
    unsafe {
        assert_eq!(*durable.at(a.offset()), 0x5A, "flushed line survives");
        assert_eq!(*durable.at(b.offset()), 0x00, "unflushed line is lost");
    }

    destroy_pool(second.id());
    assert_eq!(media_pool_count(), 1);
    destroy_pool(durable.id());
    assert_eq!(media_pool_count(), 0);
    destroy_pool(durable.id());
    assert_eq!(media_pool_count(), 0, "a repeated destroy counts nothing");
    for p in volatile {
        destroy_pool(p.id());
    }
    assert_eq!(media_pool_count(), 0);
}
