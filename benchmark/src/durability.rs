//! The durability pass: a fast index that loses acknowledged writes scores
//! nothing. Untimed, after the timed runs: acknowledged inserts on the
//! paper-faithful durable configuration, a simulated power failure that
//! keeps only what was flushed (some cache lines evicted at random first,
//! as real hardware would), recovery, and every acknowledged key read back.

use pactree::{PacTree, PacTreeConfig};
use pmem::crash;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ycsb::KeySpace;

use crate::tape::preload_value;

/// Pool size of the durable tree: media images double it, and the inserts
/// need a few MiB.
const POOL_BYTES: usize = 16 << 20;

/// Inserts `inserts` keys, crashes, recovers, and returns how many
/// acknowledged keys were lost (unreadable or holding another value).
pub fn lost_after_crash(inserts: u64, seed: u64) -> u64 {
    let cfg = PacTreeConfig::durable("durability").with_pool_size(POOL_BYTES);
    let tree = PacTree::create(cfg.clone()).expect("create durable pools");
    let key = |id: u64| KeySpace::Integer.encode(id ^ seed);
    for id in 0..inserts {
        // Returning is the acknowledgement.
        tree.insert(&key(id), preload_value(id))
            .expect("pool space");
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let pools = tree.pools();
    for p in &pools {
        crash::evict_random_lines(p, 128, &mut rng);
    }
    // A real crash kills the updater thread with the process.
    tree.stop_updater();
    crash::crash_all(&pools, true);
    drop(tree);
    drop(pools);

    let tree = PacTree::recover(cfg).expect("recover");
    let lost = (0..inserts)
        .filter(|&id| tree.lookup(&key(id)) != Some(preload_value(id)))
        .count() as u64;
    tree.destroy();
    lost
}
