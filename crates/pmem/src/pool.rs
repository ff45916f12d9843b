//! Persistent memory pools and the global pool registry.
//!
//! A [`PmemPool`] emulates one DAX-mapped NVM file (e.g. `/dev/pmem1` in the
//! paper's Figure 1). It is a large, [`POOL_ALIGN`]-aligned, stable-address
//! region. When *crash simulation* is enabled the pool additionally keeps a
//! second "media" image: data reaches the media image only through explicit
//! [`crate::persist`] calls (or simulated cache evictions), so a simulated
//! crash observes exactly the states an ADR-mode power failure could produce.
//!
//! Like the DAX mapping it stands for, a pool costs what it *uses*, not what
//! it reserves. Images are demand-zero (see `Image`): creating a pool touches
//! no page of it, and an untouched page reads zero without becoming resident.
//! The whole-image operations — [`PmemPool::simulate_crash`],
//! [`PmemPool::persist_all`], [`PmemPool::media_snapshot`],
//! [`PmemPool::load_crash_image`] — walk only `[0, touched extent)`
//! ([`PmemPool::touched_extent`]): the allocator never handed out a byte
//! beyond it, so both images are still all-zero there. That is the one
//! invariant pool users must keep: write pool memory only inside blocks the
//! pool's allocator returned (or the header area below
//! [`crate::alloc::DATA_START`]).
//!
//! Pools are registered in a process-global registry so that compact
//! persistent pointers ([`crate::pptr::PmPtr`]) can be resolved to raw
//! addresses with one array load, mirroring PACTree §5.8's base-address pool
//! array.

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::cell::{Cell, RefCell};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::alloc::{AllocMode, PmemAllocator};
use crate::stats::PoolStats;
use crate::{PmemError, Result, CACHE_LINE};

/// Maximum number of simultaneously registered pools.
pub const MAX_POOLS: usize = 256;

/// Alignment of the pool base address.
pub const POOL_ALIGN: usize = 4096;

/// Identifier of a registered pool; index into the global base-address table.
pub type PoolId = u16;

/// Configuration for creating a [`PmemPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Human-readable pool name (must be unique among live pools).
    pub name: String,
    /// Usable pool size in bytes (rounded up to [`POOL_ALIGN`]).
    pub size: usize,
    /// Logical NUMA node this pool's "DIMMs" belong to.
    pub numa_node: u16,
    /// Keep a media image so [`crate::crash`] can simulate power failures.
    pub crash_sim: bool,
    /// Allocator crash-consistency mode.
    pub alloc_mode: AllocMode,
}

impl PoolConfig {
    /// Convenience config: no crash simulation, transient allocator, node 0.
    pub fn volatile(name: &str, size: usize) -> Self {
        PoolConfig {
            name: name.to_string(),
            size,
            numa_node: 0,
            crash_sim: false,
            alloc_mode: AllocMode::Transient,
        }
    }

    /// Convenience config: crash simulation on, crash-consistent allocator.
    pub fn durable(name: &str, size: usize) -> Self {
        PoolConfig {
            name: name.to_string(),
            size,
            numa_node: 0,
            crash_sim: true,
            alloc_mode: AllocMode::CrashConsistent,
        }
    }

    /// Sets the logical NUMA node.
    pub fn on_node(mut self, node: u16) -> Self {
        self.numa_node = node;
        self
    }

    /// Sets the allocator mode.
    pub fn with_alloc_mode(mut self, mode: AllocMode) -> Self {
        self.alloc_mode = mode;
        self
    }
}

/// An owned, [`POOL_ALIGN`]-aligned, demand-zero memory image.
///
/// The layout asks for `size + POOL_ALIGN` bytes at *word* alignment and the
/// base is rounded up by hand. It must not be over-aligned: for an alignment
/// above the allocator's natural one, `alloc_zeroed` is an aligned allocation
/// followed by an explicit `memset` of every byte, which makes each page
/// resident at creation. At natural alignment it is `calloc`, which for a
/// request this large returns a fresh anonymous private mapping untouched —
/// pages become resident only when first written, and dropping the image
/// unmaps them.
struct Image {
    raw: NonNull<u8>,
    layout: Layout,
}

// SAFETY: `Image` is a plain owned allocation; the raw pointer is only
// dereferenced through synchronized or atomic accesses by its users.
unsafe impl Send for Image {}
// SAFETY: See above; shared access goes through atomic loads/stores.
unsafe impl Sync for Image {}

impl Image {
    fn new_zeroed(size: usize) -> Self {
        let layout = Layout::from_size_align(size + POOL_ALIGN, std::mem::align_of::<u64>())
            .expect("valid pool layout");
        // SAFETY: `layout` has non-zero size and valid alignment.
        let raw = unsafe { alloc_zeroed(layout) };
        let raw = NonNull::new(raw).expect("pool allocation failed");
        Image { raw, layout }
    }

    /// First [`POOL_ALIGN`]-aligned address of the allocation; the `size`
    /// bytes from here are in bounds because the layout has `POOL_ALIGN`
    /// bytes of slack.
    fn base(&self) -> *mut u8 {
        let raw = self.raw.as_ptr();
        let pad = (raw as usize).next_multiple_of(POOL_ALIGN) - raw as usize;
        // SAFETY: `pad < POOL_ALIGN`, inside the allocation.
        unsafe { raw.add(pad) }
    }
}

impl Drop for Image {
    fn drop(&mut self) {
        // SAFETY: `raw` was allocated with exactly `layout` in `new_zeroed`.
        unsafe { dealloc(self.raw.as_ptr(), self.layout) };
    }
}

/// A persistent memory pool.
///
/// The *volatile image* is the memory programs address directly (the CPU
/// cache + DRAM-visible state); the optional *media image* holds what would
/// survive a power failure.
pub struct PmemPool {
    id: PoolId,
    name: String,
    numa_node: u16,
    size: usize,
    volatile: Mutex<Option<Image>>,
    /// Raw base address of the volatile image, duplicated for lock-free reads.
    base: AtomicUsize,
    media: Option<Image>,
    allocator: PmemAllocator,
    /// Monotonic count of simulated crashes survived by this pool.
    crash_count: AtomicU64,
}

impl std::fmt::Debug for PmemPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmemPool")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("numa_node", &self.numa_node)
            .field("size", &self.size)
            .field("crash_sim", &self.media.is_some())
            .finish()
    }
}

impl PmemPool {
    /// Creates a pool and registers it in the global registry.
    ///
    /// Returns an error if the name is already taken or the registry is full.
    pub fn create(config: PoolConfig) -> Result<Arc<PmemPool>> {
        let size = config
            .size
            .max(PmemAllocator::MIN_POOL_SIZE)
            .next_multiple_of(POOL_ALIGN);

        let mut reg = registry().lock();
        if reg.iter().flatten().any(|p| p.name == config.name) {
            return Err(PmemError::PoolExists(config.name));
        }
        let slot = reg
            .iter()
            .position(|p| p.is_none())
            .ok_or(PmemError::TooManyPools)?;
        let id = slot as PoolId;

        // Only now that the pool is known to be creatable; demand-zero
        // images cost no page, so holding the registry lock here is cheap.
        let volatile = Image::new_zeroed(size);
        let media = config.crash_sim.then(|| Image::new_zeroed(size));
        let base = volatile.base() as usize;

        let allocator = PmemAllocator::new(id, size, config.alloc_mode);
        let pool = Arc::new(PmemPool {
            id,
            name: config.name,
            numa_node: config.numa_node,
            size,
            volatile: Mutex::new(Some(volatile)),
            base: AtomicUsize::new(base),
            media,
            allocator,
            crash_count: AtomicU64::new(0),
        });
        // The slot's counter bank and DRAM mark outlive individual pools; a
        // reused slot must start from zero.
        POOL_STATS[slot].reset();
        DRAM[slot].store(0, Ordering::Release);
        pool.allocator.format(&pool);
        BASES[slot].store(base, Ordering::Release);
        SIZES[slot].store(size, Ordering::Release);
        NODES[slot].store(config.numa_node as usize, Ordering::Release);
        if pool.crash_sim() {
            MEDIA_POOLS.fetch_add(1, Ordering::Release);
        }
        reg[slot] = Some(Arc::clone(&pool));
        POOL_HIGH_WATER.fetch_max(slot + 1, Ordering::Release);
        REGISTRY_GEN.fetch_add(1, Ordering::Release);
        Ok(pool)
    }

    /// The pool's registry id.
    pub fn id(&self) -> PoolId {
        self.id
    }

    /// The pool's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Logical NUMA node of this pool's media.
    pub fn numa_node(&self) -> u16 {
        self.numa_node
    }

    /// Usable size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Whether crash simulation (a media image) is enabled.
    pub fn crash_sim(&self) -> bool {
        self.media.is_some()
    }

    /// Number of simulated crashes this pool has been remounted through.
    pub fn crash_count(&self) -> u64 {
        self.crash_count.load(Ordering::Relaxed)
    }

    /// Base address of the volatile image.
    pub fn base(&self) -> *mut u8 {
        self.base.load(Ordering::Acquire) as *mut u8
    }

    /// The pool's allocator.
    pub fn allocator(&self) -> &PmemAllocator {
        &self.allocator
    }

    /// Per-pool media statistics (the static counter bank for this slot).
    pub fn stats(&self) -> &'static PoolStats {
        stats_of(self.id)
    }

    /// Returns the offset of `ptr` within the pool, if it points inside it.
    pub fn offset_of(&self, ptr: *const u8) -> Option<u64> {
        let base = self.base() as usize;
        let p = ptr as usize;
        (p >= base && p < base + self.size).then(|| (p - base) as u64)
    }

    /// Raw pointer at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of bounds.
    pub fn at(&self, offset: u64) -> *mut u8 {
        assert!(
            (offset as usize) < self.size,
            "offset {offset} out of pool bounds"
        );
        // SAFETY: bounds-checked above; base is a live allocation of `size` bytes.
        unsafe { self.base().add(offset as usize) }
    }

    /// Copies the cache lines covering `[offset, offset + len)` from the
    /// volatile image into the media image (i.e. makes them durable).
    ///
    /// No-op unless crash simulation is enabled. Uses 8-byte atomic copies so
    /// it can run concurrently with writers touching neighbouring bytes.
    pub fn persist_range(&self, offset: u64, len: usize) {
        let Some(media) = &self.media else { return };
        let start = (offset as usize) & !(CACHE_LINE - 1);
        let end = ((offset as usize + len).next_multiple_of(CACHE_LINE)).min(self.size);
        debug_assert!(
            end <= self.touched_extent(),
            "persist of [{start}, {end}) reaches past the touched extent {}: \
             pool memory was written outside an allocated block",
            self.touched_extent()
        );
        let vol = self.base();
        let med = media.base();
        debug_assert_eq!(start % 8, 0);
        let mut off = start;
        while off < end {
            // SAFETY: `off` is in bounds and 8-byte aligned; both images are
            // live allocations of `self.size` bytes; accesses are atomic, so
            // racing with concurrent writers is defined behaviour (we copy
            // *some* value each 8-byte word held, exactly like a hardware
            // cache-line writeback would).
            unsafe {
                let src = &*(vol.add(off) as *const AtomicU64);
                let dst = &*(med.add(off) as *const AtomicU64);
                dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            off += 8;
        }
    }

    /// Simulates the CPU cache spontaneously evicting one cache line
    /// (making it durable without an explicit flush).
    pub fn evict_line(&self, offset: u64) {
        self.persist_range(offset & !(CACHE_LINE as u64 - 1), CACHE_LINE);
    }

    /// Simulates a power failure for this pool: the volatile image is
    /// replaced by the media image (everything never persisted is lost).
    ///
    /// With `move_base`, the pool is remounted at a *different* virtual
    /// address, exercising position independence of persistent pointers.
    ///
    /// # Panics
    ///
    /// Panics if crash simulation is not enabled for this pool.
    pub fn simulate_crash(&self, move_base: bool) {
        let media = self.media.as_ref().expect("crash simulation not enabled");
        // Beyond the extent both images are still all-zero (module docs), so
        // the crash is the copy of `[0, extent)`.
        let extent = self.touched_extent();
        let mut guard = self.volatile.lock();
        if move_base {
            let fresh = Image::new_zeroed(self.size);
            copy_atomic(media.base(), fresh.base(), extent);
            let new_base = fresh.base() as usize;
            *guard = Some(fresh);
            self.base.store(new_base, Ordering::Release);
            BASES[self.id as usize].store(new_base, Ordering::Release);
        } else {
            let vol = guard.as_ref().expect("pool is mounted").base();
            copy_atomic(media.base(), vol, extent);
        }
        self.crash_count.fetch_add(1, Ordering::Relaxed);
        // Rebuild volatile allocator state (bump cursor etc.) from the
        // persistent pool header, like a real remount would.
        self.allocator.remount(self);
    }

    /// Persists the entire pool (used by tests to establish a clean baseline).
    pub fn persist_all(&self) {
        self.persist_range(0, self.touched_extent());
    }

    /// End of the part of the pool that may hold non-zero bytes: the highest
    /// value the allocator's bump cursor has ever reached in this process
    /// (a remount that rewinds the cursor does not lower it), as a multiple
    /// of [`CACHE_LINE`] no larger than [`size`](Self::size).
    pub fn touched_extent(&self) -> usize {
        self.allocator.touched_extent() as usize
    }

    /// Reads the current media content of the cache line containing `offset`.
    ///
    /// Returns `None` if crash simulation is disabled or the line is out of
    /// bounds. Used by the trace layer to capture flush pre-images.
    pub fn media_line(&self, offset: u64) -> Option<[u8; CACHE_LINE]> {
        let media = self.media.as_ref()?;
        let line = (offset as usize) & !(CACHE_LINE - 1);
        if line + CACHE_LINE > self.size {
            return None;
        }
        let mut out = [0u8; CACHE_LINE];
        let mut off = 0;
        while off < CACHE_LINE {
            // SAFETY: in bounds (checked above), 8-byte aligned; atomic reads
            // make racing flush writers defined behaviour.
            let word = unsafe {
                (*(media.base().add(line + off) as *const AtomicU64)).load(Ordering::Relaxed)
            };
            out[off..off + 8].copy_from_slice(&word.to_ne_bytes());
            off += 8;
        }
        Some(out)
    }

    /// Copies the entire media image into a fresh buffer.
    ///
    /// Returns `None` if crash simulation is disabled. This is the checker's
    /// end-of-run snapshot from which earlier crash states are rewound. The
    /// buffer is [`size`](Self::size) long; its tail past the touched extent
    /// is zero like the image's and is never written.
    pub fn media_snapshot(&self) -> Option<Vec<u8>> {
        let media = self.media.as_ref()?;
        let mut out = vec![0u8; self.size];
        copy_atomic_to_slice(media.base(), &mut out[..self.touched_extent()]);
        Some(out)
    }

    /// Installs `image` as both the media and volatile content of the pool —
    /// i.e. remounts the pool as if a power failure had left exactly `image`
    /// on media. Bumps the crash count and rebuilds allocator state, like
    /// [`simulate_crash`](Self::simulate_crash). The touched extent is first
    /// raised to cover the image's last non-zero line.
    ///
    /// # Panics
    ///
    /// Panics if crash simulation is disabled or `image` has the wrong size.
    pub fn load_crash_image(&self, image: &[u8]) {
        let media = self.media.as_ref().expect("crash simulation not enabled");
        assert_eq!(image.len(), self.size, "crash image size mismatch");
        // `image` is arbitrary: it may hold data past this pool's extent.
        // Past both extents the image and the pool's images are all zero.
        let image_extent = image
            .rchunks(CACHE_LINE)
            .position(|line| line.iter().any(|&b| b != 0))
            .map_or(0, |zero_lines| self.size - zero_lines * CACHE_LINE);
        self.allocator.note_touched(image_extent as u64);
        let image = &image[..self.touched_extent()];
        {
            let guard = self.volatile.lock();
            let vol = guard.as_ref().expect("pool is mounted").base();
            copy_slice_atomic(image, media.base());
            copy_slice_atomic(image, vol);
        }
        self.crash_count.fetch_add(1, Ordering::Relaxed);
        self.allocator.remount(self);
    }
}

fn copy_atomic(src: *const u8, dst: *mut u8, len: usize) {
    debug_assert_eq!(len % 8, 0);
    let mut off = 0;
    while off < len {
        // SAFETY: both regions are live, `len`-byte, 8-byte-aligned images;
        // atomic ops make concurrent access defined.
        unsafe {
            let s = &*(src.add(off) as *const AtomicU64);
            let d = &*(dst.add(off) as *const AtomicU64);
            d.store(s.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        off += 8;
    }
}

fn copy_slice_atomic(src: &[u8], dst: *mut u8) {
    debug_assert_eq!(src.len() % 8, 0);
    let mut off = 0;
    while off < src.len() {
        let word = u64::from_ne_bytes(src[off..off + 8].try_into().expect("8-byte chunk"));
        // SAFETY: `dst` is a live image of at least `src.len()` bytes,
        // 8-byte aligned; atomic stores keep concurrent readers defined.
        unsafe { (*(dst.add(off) as *const AtomicU64)).store(word, Ordering::Relaxed) };
        off += 8;
    }
}

fn copy_atomic_to_slice(src: *const u8, dst: &mut [u8]) {
    debug_assert_eq!(dst.len() % 8, 0);
    let mut off = 0;
    while off < dst.len() {
        // SAFETY: `src` is a live image of at least `dst.len()` bytes,
        // 8-byte aligned; atomic loads keep concurrent writers defined.
        let word = unsafe { (*(src.add(off) as *const AtomicU64)).load(Ordering::Relaxed) };
        dst[off..off + 8].copy_from_slice(&word.to_ne_bytes());
        off += 8;
    }
}

impl Drop for PmemPool {
    fn drop(&mut self) {
        // The registry holds an Arc, so by the time we get here the pool has
        // already been unregistered (or the process is exiting).
    }
}

// ---------------------------------------------------------------------------
// Global registry
// ---------------------------------------------------------------------------

/// Base address of each registered pool's volatile image (0 = unregistered).
static BASES: [AtomicUsize; MAX_POOLS] = [const { AtomicUsize::new(0) }; MAX_POOLS];
/// Size of each registered pool.
static SIZES: [AtomicUsize; MAX_POOLS] = [const { AtomicUsize::new(0) }; MAX_POOLS];
/// NUMA node of each registered pool.
static NODES: [AtomicUsize; MAX_POOLS] = [const { AtomicUsize::new(0) }; MAX_POOLS];
/// Whether a pool models DRAM (performance model skips it entirely).
static DRAM: [AtomicUsize; MAX_POOLS] = [const { AtomicUsize::new(0) }; MAX_POOLS];
/// One past the highest registered slot; bounds registry scans.
static POOL_HIGH_WATER: AtomicUsize = AtomicUsize::new(0);
/// Registered pools that keep a media image. While it is 0 and the NVM
/// model is off, nothing consumes a flush, and [`crate::persist::persist`]
/// returns early.
static MEDIA_POOLS: AtomicUsize = AtomicUsize::new(0);

/// Per-slot media counter banks.
///
/// Static (rather than owned by [`PmemPool`]) so the model's hot path can
/// reach a pool's counters with one array index — no registry lock, no `Arc`
/// refcount traffic. Reset when a slot is (re)used by [`PmemPool::create`].
static POOL_STATS: [PoolStats; MAX_POOLS] = [const { PoolStats::new() }; MAX_POOLS];

/// Bumped on every registry mutation (create/destroy); validates the
/// per-thread pool-handle cache used by [`with_pool`].
static REGISTRY_GEN: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread cache of pool handles, validated against [`REGISTRY_GEN`].
    static POOL_CACHE: RefCell<PoolCache> = const {
        RefCell::new(PoolCache {
            gen: u64::MAX,
            pools: [const { None }; MAX_POOLS],
        })
    };
}

struct PoolCache {
    gen: u64,
    pools: [Option<Arc<PmemPool>>; MAX_POOLS],
}

fn registry() -> &'static Mutex<Vec<Option<Arc<PmemPool>>>> {
    static REGISTRY: std::sync::OnceLock<Mutex<Vec<Option<Arc<PmemPool>>>>> =
        std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new((0..MAX_POOLS).map(|_| None).collect()))
}

/// Resolves a pool id to the pool's current base address.
///
/// Returns null for unregistered ids — callers treat that as a dangling
/// persistent pointer.
#[inline]
pub fn base_of(id: PoolId) -> *mut u8 {
    BASES[id as usize].load(Ordering::Acquire) as *mut u8
}

/// Resolves `len` bytes at `offset` in pool `id`, or `None` unless the id
/// is below [`MAX_POOLS`], the pool is registered and the bytes lie inside
/// it. For persistent pointers read optimistically, which a racing writer
/// can leave holding bytes that are not a pointer.
#[inline]
pub fn resolve_checked(id: PoolId, offset: u64, len: usize) -> Option<*const u8> {
    let id = id as usize;
    if id >= MAX_POOLS {
        return None;
    }
    let base = BASES[id].load(Ordering::Acquire);
    let end = offset.checked_add(len as u64)?;
    (base != 0 && end <= SIZES[id].load(Ordering::Acquire) as u64)
        .then(|| (base + offset as usize) as *const u8)
}

/// Returns the registered pool with this id, if any.
///
/// Takes the registry lock; cold-path only. Steady-state code should use
/// [`with_pool`], which caches handles per thread.
pub fn pool_by_id(id: PoolId) -> Option<Arc<PmemPool>> {
    registry().lock().get(id as usize)?.clone()
}

/// Per-slot media counters, without any lock.
///
/// Valid for any id below [`MAX_POOLS`]; an unregistered slot's counters are
/// simply dormant (the bank is reset when the slot is next used).
#[inline]
pub fn stats_of(id: PoolId) -> &'static PoolStats {
    &POOL_STATS[id as usize]
}

/// Runs `f` on the registered pool with this id, resolving the handle
/// through a per-thread cache.
///
/// The steady state costs one atomic generation load plus a TLS array index;
/// the registry mutex is only taken when the cache misses (first use on this
/// thread, or after any pool was created/destroyed). The cached `Arc` keeps
/// the pool's images alive even if another thread destroys it mid-call, so
/// `f` never observes a freed pool.
///
/// `f` must not reenter `with_pool` on the same thread — which rules out
/// anything that persists, such as a crash-consistent
/// [`PmemAllocator::alloc`] or [`free`](PmemAllocator::free): [`crate::persist`]
/// runs inside `with_pool`. Cold paths wanting a handle use [`pool_by_id`].
#[inline]
pub fn with_pool<R>(id: PoolId, f: impl FnOnce(&PmemPool) -> R) -> Option<R> {
    POOL_CACHE.with(|c| {
        let mut c = c.borrow_mut();
        let gen = REGISTRY_GEN.load(Ordering::Acquire);
        if c.gen != gen {
            c.pools = [const { None }; MAX_POOLS];
            c.gen = gen;
        }
        let slot = c.pools.get_mut(id as usize)?;
        if slot.is_none() {
            *slot = pool_by_id(id);
        }
        slot.as_deref().map(f)
    })
}

/// Returns the registered pool with this name, if any.
pub fn pool_by_name(name: &str) -> Option<Arc<PmemPool>> {
    registry()
        .lock()
        .iter()
        .flatten()
        .find(|p| p.name == name)
        .cloned()
}

/// Finds which pool an address belongs to; returns `(pool_id, offset)`.
///
/// Lock-free: scans the base/size tables up to the high-water mark, trying
/// the calling thread's last hit first (persist streams overwhelmingly
/// target one pool at a time).
#[inline]
pub fn lookup_addr(ptr: *const u8) -> Option<(PoolId, u64)> {
    thread_local! {
        static LAST_HIT: Cell<usize> = const { Cell::new(0) };
    }
    #[inline]
    fn slot_contains(slot: usize, p: usize) -> Option<(PoolId, u64)> {
        let base = BASES[slot].load(Ordering::Acquire);
        if base == 0 {
            return None;
        }
        let size = SIZES[slot].load(Ordering::Acquire);
        (p >= base && p < base + size).then(|| (slot as PoolId, (p - base) as u64))
    }
    let p = ptr as usize;
    let hint = LAST_HIT.with(Cell::get);
    let hw = POOL_HIGH_WATER.load(Ordering::Acquire);
    if hint < hw {
        if let Some(hit) = slot_contains(hint, p) {
            return Some(hit);
        }
    }
    for slot in 0..hw {
        if slot == hint {
            continue;
        }
        if let Some(hit) = slot_contains(slot, p) {
            LAST_HIT.with(|c| c.set(slot));
            return Some(hit);
        }
    }
    None
}

/// How many registered pools keep a media image (crash simulation).
#[inline]
pub fn media_pool_count() -> usize {
    MEDIA_POOLS.load(Ordering::Acquire)
}

/// NUMA node of a registered pool (0 if unregistered).
#[inline]
pub fn node_of(id: PoolId) -> u16 {
    NODES[id as usize].load(Ordering::Acquire) as u16
}

/// Marks a pool as emulated DRAM: the NVM performance model ignores it
/// (used for hybrid DRAM+NVM index baselines and ablations).
pub fn set_dram(id: PoolId, dram: bool) {
    DRAM[id as usize].store(dram as usize, Ordering::Release);
}

/// Whether a pool is emulated DRAM.
#[inline]
pub fn is_dram(id: PoolId) -> bool {
    DRAM[id as usize].load(Ordering::Acquire) != 0
}

/// Unregisters and drops a pool. Any persistent pointers into it dangle.
pub fn destroy_pool(id: PoolId) {
    let mut reg = registry().lock();
    if let Some(slot) = reg.get_mut(id as usize) {
        BASES[id as usize].store(0, Ordering::Release);
        SIZES[id as usize].store(0, Ordering::Release);
        DRAM[id as usize].store(0, Ordering::Release);
        if slot.take().is_some_and(|p| p.crash_sim()) {
            MEDIA_POOLS.fetch_sub(1, Ordering::Release);
        }
        REGISTRY_GEN.fetch_add(1, Ordering::Release);
    }
}

/// Iterates over all live pools.
pub fn all_pools() -> Vec<Arc<PmemPool>> {
    registry().lock().iter().flatten().cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_lookup() {
        let pool = PmemPool::create(PoolConfig::volatile("t-create", 1 << 20)).unwrap();
        assert_eq!(pool.size() % POOL_ALIGN, 0);
        let base = pool.base();
        assert_eq!(base_of(pool.id()), base);
        let (id, off) = lookup_addr(base.wrapping_add(100)).unwrap();
        assert_eq!(id, pool.id());
        assert_eq!(off, 100);
        destroy_pool(pool.id());
        assert!(lookup_addr(base).is_none());
    }

    /// The contract `with_pool` states: `f` must not reenter it. A
    /// crash-consistent `free` persists its log, and persisting resolves
    /// the pool through `with_pool` again, so the nested call finds the
    /// per-thread cache borrowed and panics.
    #[test]
    #[should_panic(expected = "already borrowed")]
    fn with_pool_rejects_a_persisting_free_inside_it() {
        struct Destroy(PoolId);
        impl Drop for Destroy {
            fn drop(&mut self) {
                destroy_pool(self.0);
            }
        }
        let pool = PmemPool::create(PoolConfig::durable("t-reenter", 1 << 20)).unwrap();
        let _destroy = Destroy(pool.id());
        let ptr = pool.allocator().alloc(64).unwrap();
        with_pool(pool.id(), |p| p.allocator().free(ptr, 64));
    }

    #[test]
    fn duplicate_name_rejected() {
        let p = PmemPool::create(PoolConfig::volatile("t-dup", 1 << 20)).unwrap();
        assert!(matches!(
            PmemPool::create(PoolConfig::volatile("t-dup", 1 << 20)),
            Err(PmemError::PoolExists(_))
        ));
        destroy_pool(p.id());
    }

    /// Regression: the DRAM mark used to outlive its pool, so whichever pool
    /// next landed in the slot was silently skipped by the NVM model.
    #[test]
    fn dram_mark_dies_with_the_pool() {
        let p = PmemPool::create(PoolConfig::volatile("t-dram-a", 1 << 20)).unwrap();
        let slot = p.id();
        set_dram(slot, true);
        assert!(is_dram(slot));
        destroy_pool(slot);
        assert!(!is_dram(slot), "destroy_pool clears the mark");
        // Lowest free slot first: unless a parallel test took it, this is
        // `slot` again. No pool of this test binary is DRAM either way.
        let q = PmemPool::create(PoolConfig::volatile("t-dram-b", 1 << 20)).unwrap();
        assert!(!is_dram(q.id()), "a reused slot starts as NVM");
        destroy_pool(q.id());
    }

    #[test]
    fn persist_survives_crash() {
        let pool = PmemPool::create(PoolConfig::durable("t-crash", 1 << 20)).unwrap();
        let off = pool.allocator().alloc(64).unwrap().offset();
        let p = pool.at(off);
        // SAFETY: freshly allocated 64 bytes inside the pool.
        unsafe {
            p.write_bytes(0x11, 64);
        }
        pool.persist_range(off, 64);
        // Unpersisted sibling write.
        let off2 = pool.allocator().alloc(64).unwrap().offset();
        // SAFETY: freshly allocated 64 bytes inside the pool.
        unsafe { pool.at(off2).write_bytes(0x22, 64) };
        pool.simulate_crash(false);
        // SAFETY: offsets are in bounds; pool remounted in place.
        unsafe {
            assert_eq!(*pool.at(off), 0x11, "persisted data survives");
            assert_eq!(*pool.at(off2), 0x00, "unpersisted data is lost");
        }
        destroy_pool(pool.id());
    }

    #[test]
    fn crash_with_moved_base() {
        let pool = PmemPool::create(PoolConfig::durable("t-move", 1 << 20)).unwrap();
        let off = pool.allocator().alloc(8).unwrap().offset();
        // SAFETY: allocated 8 bytes, 8-byte aligned.
        unsafe { (pool.at(off) as *mut u64).write(0xDEAD_BEEF) };
        pool.persist_range(off, 8);
        let old_base = pool.base();
        pool.simulate_crash(true);
        assert_ne!(pool.base(), old_base);
        // SAFETY: offset still in bounds after remount.
        unsafe { assert_eq!((pool.at(off) as *const u64).read(), 0xDEAD_BEEF) };
        assert_eq!(pool.crash_count(), 1);
        destroy_pool(pool.id());
    }

    /// A loaded image is arbitrary: data past what this pool has allocated
    /// must be installed, and must then survive a crash like any other.
    #[test]
    fn crash_image_raises_the_extent() {
        let pool = PmemPool::create(PoolConfig::durable("t-image", 1 << 20)).unwrap();
        let mut image = pool.media_snapshot().unwrap();
        let far = pool.size() - 2 * CACHE_LINE;
        assert!(far > pool.touched_extent());
        image[far] = 0x5A;
        pool.load_crash_image(&image);
        assert_eq!(pool.touched_extent(), far + CACHE_LINE);
        // SAFETY: `far` is in bounds.
        unsafe { assert_eq!(*pool.at(far as u64), 0x5A) };
        pool.simulate_crash(true);
        // SAFETY: as above, after the remount.
        unsafe { assert_eq!(*pool.at(far as u64), 0x5A) };
        assert_eq!(pool.media_snapshot().unwrap(), image);
        destroy_pool(pool.id());
    }

    #[test]
    fn eviction_makes_line_durable() {
        let pool = PmemPool::create(PoolConfig::durable("t-evict", 1 << 20)).unwrap();
        let off = pool.allocator().alloc(64).unwrap().offset();
        // SAFETY: freshly allocated 64 bytes inside the pool.
        unsafe { pool.at(off).write_bytes(0x33, 64) };
        pool.evict_line(off);
        pool.simulate_crash(false);
        // SAFETY: offset in bounds.
        unsafe { assert_eq!(*pool.at(off), 0x33) };
        destroy_pool(pool.id());
    }
}
