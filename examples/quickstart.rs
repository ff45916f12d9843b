//! Quickstart: create a PACTree, do point and range operations.
//!
//! ```sh
//! cargo run -p pactree-examples --bin quickstart
//! ```

use pactree::{PacTree, PacTreeConfig};

fn main() {
    // A PACTree lives in a set of emulated persistent-memory pools: one for
    // the trie search layer, one per NUMA node for the data layer, one for
    // the SMO log.
    let tree = PacTree::create(PacTreeConfig::named("quickstart")).expect("create index");

    // Point operations. Keys are byte strings ordered lexicographically;
    // values are 8-byte words (commonly pointers into your own heap).
    tree.insert(b"apple", 1).unwrap();
    tree.insert(b"banana", 2).unwrap();
    tree.insert(b"cherry", 3).unwrap();
    assert_eq!(tree.lookup(b"banana"), Some(2));

    // An update stores the key's 8-byte value word in place and persists
    // it: no new slot, no split, no allocation.
    let old = tree.update(b"banana", 20).unwrap();
    assert_eq!(old, Some(2));

    // Integer keys: encode big-endian so byte order equals numeric order.
    for i in 0..1000u64 {
        tree.insert(&i.to_be_bytes(), i * i).unwrap();
    }

    // Ordered range scan across data nodes.
    let first_five = tree.scan(&10u64.to_be_bytes(), 5);
    println!("five keys from 10:");
    for pair in &first_five {
        let k = u64::from_be_bytes(pair.key.as_slice().try_into().unwrap());
        println!("  {k} -> {}", pair.value);
    }

    // Removal.
    assert_eq!(tree.remove(b"apple").unwrap(), Some(1));
    assert_eq!(tree.lookup(b"apple"), None);

    println!(
        "tree holds {} pairs in {} data nodes; splits so far: {}",
        tree.count_pairs(),
        tree.node_count(),
        tree.stats()
            .splits
            .load(std::sync::atomic::Ordering::Relaxed),
    );
    tree.destroy();
}
