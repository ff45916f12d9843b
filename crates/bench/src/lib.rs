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
}
