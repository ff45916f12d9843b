//! Shared harness for the evaluation binaries.
//!
//! Every figure/table of the paper's evaluation (§6) is a row of the
//! `figures` binary, which prints the same rows/series the paper plots.
//! Because the original experiments ran on a 2-socket, 112-thread Optane
//! machine with 64M-key workloads and ours run in an emulated environment,
//! the harness:
//!
//! * runs at one of two fixed scales, [`Scale::full`] or [`Scale::quick`];
//! * drives the NVM performance model time-dilated
//!   ([`pmem::model::NvmModelConfig::optane_dilated`]) so that concurrent
//!   threads genuinely overlap their modeled NVM stalls even on a small
//!   host — that is what makes thread-sweep scalability *shapes*
//!   reproducible;
//! * reports dilation-corrected throughput (model-time Mops/s).
//!
//! Absolute numbers are not comparable with the paper's hardware; the
//! relative ordering and curve shapes are the reproduction target (see
//! EXPERIMENTS.md).

use std::sync::Arc;

use baselines::bztree::BzTree;
use baselines::fastfair::{FastFair, KeyMode};
use baselines::fptree::FpTree;
use pactree::{PacTree, PacTreeConfig};
use pdl_art::{PdlArt, PdlArtConfig};
use ycsb::{KeySpace, RangeIndex};

/// Workload scale.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Keys loaded before the measured phase (paper: 64M).
    pub keys: u64,
    /// Measured operations (paper: 64M).
    pub ops: u64,
    /// Thread counts for sweep figures (paper: up to 112).
    pub threads: Vec<usize>,
    /// Time-dilation factor for the NVM model.
    pub dilation: f64,
    /// Pool size per pool.
    pub pool_size: usize,
}

impl Scale {
    /// The scale EXPERIMENTS.md's headline table is measured at (a full
    /// `figures` run takes ~73 min on 2 vCPUs).
    pub fn full() -> Scale {
        Scale {
            keys: 100_000,
            ops: 30_000,
            threads: vec![1, 2, 4, 8, 16],
            dilation: 192.0,
            pool_size: 512 << 20,
        }
    }

    /// The smoke scale (`--quick`): every row in about a minute on 2 vCPUs.
    pub fn quick() -> Scale {
        Scale {
            keys: 8_000,
            ops: 4_000,
            threads: vec![1, 2, 4],
            dilation: 32.0,
            pool_size: 256 << 20,
        }
    }

    /// Max thread count of the sweep.
    pub fn max_threads(&self) -> usize {
        *self.threads.last().unwrap_or(&1)
    }
}

/// The indexes compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PacTree,
    PdlArt,
    BzTree,
    FastFair,
    FpTree,
}

impl Kind {
    /// Every index (Figure 10's integer-key lineup).
    pub fn all() -> [Kind; 5] {
        [
            Kind::PacTree,
            Kind::PdlArt,
            Kind::BzTree,
            Kind::FastFair,
            Kind::FpTree,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Kind::PacTree => "PACTree",
            Kind::PdlArt => "PDL-ART",
            Kind::BzTree => "BzTree",
            Kind::FastFair => "FastFair",
            Kind::FpTree => "FPTree",
        }
    }
}

/// A uniform handle over every index type (cloneable for the driver).
#[derive(Clone)]
pub enum AnyIndex {
    Pac(Arc<PacTree>),
    Pdl(Arc<PdlArt>),
    Bz(Arc<BzTree>),
    Ff(Arc<FastFair>),
    Fp(Arc<FpTree>),
}

impl AnyIndex {
    /// Creates an index of `kind` named `name`.
    pub fn create(kind: Kind, name: &str, space: KeySpace, scale: &Scale) -> AnyIndex {
        let sz = scale.pool_size;
        match kind {
            Kind::PacTree => AnyIndex::Pac(
                PacTree::create(
                    PacTreeConfig::named(name)
                        .with_pool_size(sz)
                        .with_numa_pools(pmem::numa::nodes()),
                )
                .expect("create pactree"),
            ),
            Kind::PdlArt => AnyIndex::Pdl(
                PdlArt::create(PdlArtConfig::named(name).with_pool_size(sz))
                    .expect("create pdl-art"),
            ),
            Kind::BzTree => {
                AnyIndex::Bz(BzTree::create(name, sz, key_mode(space)).expect("create bztree"))
            }
            Kind::FastFair => {
                AnyIndex::Ff(FastFair::create(name, sz, key_mode(space)).expect("create fastfair"))
            }
            Kind::FpTree => AnyIndex::Fp(FpTree::create(name, sz).expect("create fptree")),
        }
    }

    /// Destroys the index and unregisters its pools.
    pub fn destroy(self) {
        match self {
            AnyIndex::Pac(t) => t.destroy(),
            AnyIndex::Pdl(t) => t.destroy(),
            AnyIndex::Bz(t) => t.destroy(),
            AnyIndex::Ff(t) => t.destroy(),
            AnyIndex::Fp(t) => t.destroy(),
        }
    }

    /// The PACTree handle, when this is one (factor analysis, skew,
    /// jump-distance experiments).
    pub fn as_pactree(&self) -> Option<&Arc<PacTree>> {
        match self {
            AnyIndex::Pac(t) => Some(t),
            _ => None,
        }
    }

    /// The FPTree handle, when this is one (HTM statistics).
    pub fn as_fptree(&self) -> Option<&Arc<FpTree>> {
        match self {
            AnyIndex::Fp(t) => Some(t),
            _ => None,
        }
    }
}

fn key_mode(space: KeySpace) -> KeyMode {
    match space {
        KeySpace::Integer => KeyMode::Integer,
        KeySpace::String => KeyMode::String,
    }
}

impl RangeIndex for AnyIndex {
    fn name(&self) -> &'static str {
        match self {
            AnyIndex::Pac(t) => t.name(),
            AnyIndex::Pdl(t) => t.name(),
            AnyIndex::Bz(t) => t.name(),
            AnyIndex::Ff(t) => t.name(),
            AnyIndex::Fp(t) => t.name(),
        }
    }

    fn insert(&self, key: &[u8], value: u64) {
        match self {
            AnyIndex::Pac(t) => t.insert(key, value),
            AnyIndex::Pdl(t) => t.insert(key, value),
            AnyIndex::Bz(t) => t.insert(key, value),
            AnyIndex::Ff(t) => t.insert(key, value),
            AnyIndex::Fp(t) => t.insert(key, value),
        }
    }

    fn update(&self, key: &[u8], value: u64) {
        match self {
            AnyIndex::Pac(t) => t.update(key, value),
            other => other.insert(key, value),
        }
    }

    fn lookup(&self, key: &[u8]) -> Option<u64> {
        match self {
            AnyIndex::Pac(t) => t.lookup(key),
            AnyIndex::Pdl(t) => t.lookup(key),
            AnyIndex::Bz(t) => t.lookup(key),
            AnyIndex::Ff(t) => t.lookup(key),
            AnyIndex::Fp(t) => t.lookup(key),
        }
    }

    fn remove(&self, key: &[u8]) -> Option<u64> {
        match self {
            AnyIndex::Pac(t) => RangeIndex::remove(t, key),
            AnyIndex::Pdl(t) => RangeIndex::remove(t, key),
            AnyIndex::Bz(t) => RangeIndex::remove(t, key),
            AnyIndex::Ff(t) => RangeIndex::remove(t, key),
            AnyIndex::Fp(t) => RangeIndex::remove(t, key),
        }
    }

    fn scan(&self, start: &[u8], count: usize) -> usize {
        match self {
            AnyIndex::Pac(t) => RangeIndex::scan(t, start, count),
            AnyIndex::Pdl(t) => RangeIndex::scan(t, start, count),
            AnyIndex::Bz(t) => RangeIndex::scan(t, start, count),
            AnyIndex::Ff(t) => RangeIndex::scan(t, start, count),
            AnyIndex::Fp(t) => RangeIndex::scan(t, start, count),
        }
    }

    fn supports_strings(&self) -> bool {
        !matches!(self, AnyIndex::Fp(_))
    }

    fn op_histograms(&self) -> Option<&obsv::OpHistograms> {
        match self {
            AnyIndex::Pac(t) => RangeIndex::op_histograms(t),
            AnyIndex::Pdl(t) => RangeIndex::op_histograms(t),
            AnyIndex::Bz(t) => RangeIndex::op_histograms(t),
            AnyIndex::Ff(t) => RangeIndex::op_histograms(t),
            AnyIndex::Fp(t) => RangeIndex::op_histograms(t),
        }
    }

    fn with_batch(&self, f: &mut dyn FnMut()) {
        match self {
            AnyIndex::Pac(t) => RangeIndex::with_batch(t, f),
            AnyIndex::Pdl(t) => RangeIndex::with_batch(t, f),
            AnyIndex::Bz(t) => RangeIndex::with_batch(t, f),
            AnyIndex::Ff(t) => RangeIndex::with_batch(t, f),
            AnyIndex::Fp(t) => RangeIndex::with_batch(t, f),
        }
    }

    fn drain(&self, timeout: std::time::Duration) -> bool {
        match self {
            AnyIndex::Pac(t) => RangeIndex::drain(t, timeout),
            AnyIndex::Pdl(t) => RangeIndex::drain(t, timeout),
            AnyIndex::Bz(t) => RangeIndex::drain(t, timeout),
            AnyIndex::Ff(t) => RangeIndex::drain(t, timeout),
            AnyIndex::Fp(t) => RangeIndex::drain(t, timeout),
        }
    }
}

/// The commit of the checkout this crate was built from (short hash,
/// `-dirty` suffixed when the tree has local modifications), or `"unknown"`
/// when that checkout is gone. Git runs in the crate's own directory, so a
/// binary started elsewhere still stamps its own commit.
pub fn git_commit() -> String {
    let out = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let Some(hash) = out(&["rev-parse", "--short=12", "HEAD"]) else {
        return "unknown".to_string();
    };
    let dirty = out(&["status", "--porcelain"]).is_none_or(|s| !s.trim().is_empty());
    format!("{}{}", hash.trim(), if dirty { "-dirty" } else { "" })
}

/// Provenance stamp embedded in every result-JSON artifact: the git commit
/// the binary ran from plus the effective workload configuration, so a
/// results file is attributable without its shell history.
pub fn stamp_json(scale: &Scale) -> String {
    format!(
        "{{\"git_commit\":\"{}\",\"keys\":{},\"ops\":{},\"threads\":{:?},\"dilation\":{},\"pool_bytes\":{}}}",
        git_commit(),
        scale.keys,
        scale.ops,
        scale.threads,
        scale.dilation,
        scale.pool_size
    )
}

/// Prints a standard figure header.
pub fn banner(figure: &str, what: &str, scale: &Scale) {
    println!("== {figure}: {what}");
    println!(
        "   scale: {} keys, {} ops, threads {:?}, dilation {}x (paper: 64M keys/ops, up to 112 threads)",
        scale.keys, scale.ops, scale.threads, scale.dilation
    );
}

/// Prints one table row: a label plus right-aligned columns.
pub fn row(label: &str, cols: &[String]) {
    print!("{label:<22}");
    for c in cols {
        print!(" {c:>12}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_json_is_wellformed() {
        let s = stamp_json(&Scale::quick());
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"git_commit\":\""));
        assert!(s.contains("\"keys\":8000"));
        assert!(s.contains("\"threads\":[1, 2, 4]"));
    }

    #[test]
    fn any_index_roundtrip_every_kind() {
        let scale = Scale::quick();
        for kind in Kind::all() {
            let name = format!("bench-any-{}", kind.name());
            let idx = AnyIndex::create(kind, &name, KeySpace::Integer, &scale);
            let k = 77u64.to_be_bytes();
            idx.insert(&k, 1);
            assert_eq!(idx.lookup(&k), Some(1), "{}", kind.name());
            idx.update(&k, 2);
            assert_eq!(idx.lookup(&k), Some(2));
            assert_eq!(RangeIndex::scan(&idx, &k, 10), 1);
            assert_eq!(RangeIndex::remove(&idx, &k), Some(2));
            assert_eq!(idx.lookup(&k), None);
            idx.destroy();
        }
    }
}
