//! Seeded, time-budgeted checking campaigns and deterministic replay.
//!
//! A campaign repeats *episodes* until the budget or the state target is
//! hit. Each episode runs one traced workload (fresh pools, fresh seed),
//! then walks its crash windows newest-first: small windows are enumerated
//! exhaustively, large ones sampled with a seeded RNG. Every crash state is
//! materialized into the live pools with
//! [`load_crash_image`](pmem::pool::PmemPool::load_crash_image), recovered
//! through the index's own recovery path, and checked by the oracle.
//! Failing states are shrunk toward fully flushed and serialized as replay
//! files; a one-line JSON summary lands in the results directory.

use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pmem::pool::destroy_pool;
use pmem::trace;
use ycsb::IndexKind;

use crate::enumerate::{sampler, Rewinder, Window};
use crate::journal::Expectation;
use crate::oracle::{self, Violation};
use crate::shrink::{shrink, Replay};
use crate::workload::{run_traced, RunArtifacts, WorkloadSpec};

/// Campaign configuration.
#[derive(Clone, Debug)]
pub struct CampaignOpts {
    /// Index under test.
    pub kind: IndexKind,
    /// Base seed; episode `e` runs workload seed `seed + e`.
    pub seed: u64,
    /// Wall-clock budget.
    pub budget: Duration,
    /// Stop once this many crash states were checked (0 = budget only).
    pub target_states: u64,
    /// Keys per workload.
    pub keyspace: u64,
    /// Ops per workload.
    pub ops: usize,
    /// Size of every backing pool.
    pub pool_size: usize,
    /// MVCC snapshot cadence in ops (0 = never); see
    /// [`WorkloadSpec::snapshot_every`].
    pub snapshot_every: usize,
    /// Windows with at most this many states are enumerated exhaustively.
    pub max_exhaustive: u128,
    /// Samples drawn from windows above the exhaustive cap.
    pub samples_per_window: u64,
    /// Stop after this many violations (each costs shrinking time).
    pub max_violations: usize,
    /// Where replay files and the JSON summary go (`None` = don't write).
    pub out_dir: Option<PathBuf>,
}

impl CampaignOpts {
    /// Defaults tuned so a CI smoke run clears >10k states in seconds.
    pub fn new(kind: IndexKind, seed: u64) -> CampaignOpts {
        let spec = WorkloadSpec::default_for(seed);
        CampaignOpts {
            kind,
            seed,
            budget: Duration::from_secs(30),
            target_states: 0,
            keyspace: spec.keyspace,
            ops: spec.ops,
            pool_size: spec.pool_size,
            snapshot_every: 0,
            max_exhaustive: 64,
            samples_per_window: 24,
            max_violations: 3,
            out_dir: None,
        }
    }

    fn spec(&self, episode: u64) -> WorkloadSpec {
        WorkloadSpec {
            seed: self.seed.wrapping_add(episode),
            keyspace: self.keyspace,
            ops: self.ops,
            pool_size: self.pool_size,
            snapshot_every: self.snapshot_every,
        }
    }
}

/// One found-and-shrunk violation.
#[derive(Clone, Debug)]
pub struct ViolationReport {
    /// The shrunk failing state.
    pub replay: Replay,
    /// Where the replay file was written, if an output directory was set.
    pub path: Option<PathBuf>,
}

/// Campaign outcome.
#[derive(Debug, Default)]
pub struct CampaignSummary {
    pub index: String,
    pub seed: u64,
    /// Crash states materialized, recovered and checked.
    pub states: u64,
    /// Crash points (fence windows) visited.
    pub windows: u64,
    /// Traced workload executions.
    pub episodes: u64,
    pub violations: Vec<ViolationReport>,
    pub elapsed_ms: u64,
    /// Where the JSON summary was written, if anywhere.
    pub summary_path: Option<PathBuf>,
}

impl CampaignSummary {
    /// One-line JSON for dashboards and CI logs.
    pub fn to_json(&self) -> String {
        let replays: Vec<String> = self
            .violations
            .iter()
            .map(|v| {
                format!(
                    "\"{}\"",
                    v.path
                        .as_deref()
                        .map(|p| p.display().to_string())
                        .unwrap_or_else(|| v.replay.violation.clone())
                        .replace('\\', "/")
                        .replace('"', "'")
                )
            })
            .collect();
        format!(
            "{{\"tool\":\"crashcheck\",\"index\":\"{}\",\"seed\":{},\"states\":{},\"crash_points\":{},\"episodes\":{},\"violations\":{},\"replays\":[{}],\"elapsed_ms\":{}}}",
            self.index,
            self.seed,
            self.states,
            self.windows,
            self.episodes,
            self.violations.len(),
            replays.join(","),
            self.elapsed_ms
        )
    }
}

/// Everything that stays fixed while testing the states of one window.
struct StateCtx<'a> {
    art: &'a RunArtifacts,
    expect: &'a Expectation,
    kind: IndexKind,
    name: &'a str,
    pool_size: usize,
}

/// Materializes one crash state, recovers, and runs the oracle.
/// Returns the violation if the state is bad.
fn test_state(
    rew: &mut Rewinder,
    window: &Window,
    choices: &[u32],
    ctx: &StateCtx,
) -> Option<Violation> {
    rew.with_state(window, choices, |images| {
        for (pool, image) in ctx.art.pools.iter().zip(images) {
            pool.load_crash_image(image);
        }
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let recovered = ctx.kind.recover(ctx.name, ctx.pool_size);
            let idx = match recovered {
                Ok(idx) => idx,
                Err(e) => {
                    return Some(Violation {
                        kind: "recovery-error",
                        detail: format!("recovery failed: {e:?}"),
                    })
                }
            };
            oracle::check(&idx, ctx.expect).err()
        }));
        match outcome {
            Ok(v) => v,
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Some(Violation {
                    kind: "recovery-panic",
                    detail: msg,
                })
            }
        }
    })
}

/// Runs a full campaign.
pub fn run_campaign(opts: &CampaignOpts) -> Result<CampaignSummary, String> {
    let _session = trace::session();
    let started = Instant::now();
    let mut summary = CampaignSummary {
        index: opts.kind.slug().to_string(),
        seed: opts.seed,
        ..CampaignSummary::default()
    };
    let deadline = started + opts.budget;
    let done = |s: &CampaignSummary| {
        Instant::now() >= deadline
            || (opts.target_states != 0 && s.states >= opts.target_states)
            || s.violations.len() >= opts.max_violations
    };

    let mut episode = 0u64;
    while !done(&summary) {
        let spec = opts.spec(episode);
        let name = format!("cc-{}-{}-{}", opts.kind.slug(), opts.seed, episode);
        let art = run_traced(opts.kind, &name, &spec).map_err(|e| format!("workload: {e:?}"))?;
        summary.episodes += 1;
        let pool_ids: Vec<_> = art.pools.iter().map(|p| p.id()).collect();
        let mut rew = Rewinder::new(&art.trace, &pool_ids, art.snapshots.clone());
        let mut rng = sampler(spec.seed ^ 0x9e37_79b9_7f4a_7c15);

        while let Some(window) = rew.next_window() {
            if done(&summary) {
                break;
            }
            summary.windows += 1;
            let expect = Expectation::at(&art.journal, window.fence_seq);
            let ctx = StateCtx {
                art: &art,
                expect: &expect,
                kind: opts.kind,
                name: &name,
                pool_size: spec.pool_size,
            };
            let run_one =
                |rew: &mut Rewinder, choices: &[u32], summary: &mut CampaignSummary| -> bool {
                    summary.states += 1;
                    let Some(v) = test_state(rew, &window, choices, &ctx) else {
                        return false;
                    };
                    // Shrink toward fully flushed; any violation counts as
                    // still-failing (shrinking may shift the failure mode).
                    let shrunk = shrink(&window, choices, |c| {
                        test_state(rew, &window, c, &ctx).is_some()
                    });
                    let final_v = test_state(rew, &window, &shrunk, &ctx).unwrap_or(v);
                    let replay = Replay {
                        index: opts.kind.slug().to_string(),
                        spec,
                        fence_seq: window.fence_seq,
                        stale: Replay::stale_from_choices(&window, &shrunk),
                        violation: final_v.to_string(),
                    };
                    let path = opts.out_dir.as_deref().and_then(|dir| {
                        let path = dir.join(format!(
                            "replay-{}-{}-{}.txt",
                            opts.kind.slug(),
                            opts.seed,
                            summary.violations.len()
                        ));
                        std::fs::create_dir_all(dir).ok()?;
                        std::fs::write(&path, replay.serialize()).ok()?;
                        Some(path)
                    });
                    summary.violations.push(ViolationReport { replay, path });
                    true
                };

            if window.state_count() <= opts.max_exhaustive {
                let mut choices = vec![0u32; window.lines.len()];
                loop {
                    if done(&summary) {
                        break;
                    }
                    if run_one(&mut rew, &choices, &mut summary) {
                        break; // one shrunk violation per window is enough
                    }
                    if !window.next_choices(&mut choices) {
                        break;
                    }
                }
            } else {
                // Always include the fully flushed baseline, then sample.
                let mut drawn = vec![window.last_choices()];
                for _ in 0..opts.samples_per_window {
                    drawn.push(window.sample_choices(&mut rng));
                }
                for choices in drawn {
                    if done(&summary) {
                        break;
                    }
                    if run_one(&mut rew, &choices, &mut summary) {
                        break;
                    }
                }
            }
        }
        art.pools.iter().for_each(|p| destroy_pool(p.id()));
        episode += 1;
    }

    summary.elapsed_ms = started.elapsed().as_millis() as u64;
    if let Some(dir) = opts.out_dir.as_deref() {
        summary.summary_path = write_summary(dir, &summary);
    }
    Ok(summary)
}

fn write_summary(dir: &Path, summary: &CampaignSummary) -> Option<PathBuf> {
    std::fs::create_dir_all(dir).ok()?;
    let path = dir.join(format!(
        "crashcheck-{}-{}.json",
        summary.index, summary.seed
    ));
    std::fs::write(&path, summary.to_json() + "\n").ok()?;
    Some(path)
}

/// Re-executes a replay file: re-runs the traced workload deterministically,
/// seeks the recorded crash window, materializes the recorded state, and
/// returns the violation it reproduces (`None` = no longer failing).
pub fn run_replay(replay: &Replay) -> Result<Option<Violation>, String> {
    let kind = IndexKind::parse(&replay.index)
        .ok_or_else(|| format!("unknown index: {}", replay.index))?;
    let _session = trace::session();
    let name = format!("cc-replay-{}-{}", replay.index, replay.spec.seed);
    let art = run_traced(kind, &name, &replay.spec).map_err(|e| format!("workload: {e:?}"))?;
    let pool_ids: Vec<_> = art.pools.iter().map(|p| p.id()).collect();
    let mut rew = Rewinder::new(&art.trace, &pool_ids, art.snapshots.clone());

    let mut result = Err(format!(
        "crash window with fence_seq {} not found; the execution is not \
         reproducing deterministically",
        replay.fence_seq
    ));
    while let Some(window) = rew.next_window() {
        if window.fence_seq != replay.fence_seq {
            continue;
        }
        let expect = Expectation::at(&art.journal, window.fence_seq);
        let ctx = StateCtx {
            art: &art,
            expect: &expect,
            kind,
            name: &name,
            pool_size: replay.spec.pool_size,
        };
        result = replay
            .choices_for(&window)
            .map(|choices| test_state(&mut rew, &window, &choices, &ctx));
        break;
    }
    art.pools.iter().for_each(|p| destroy_pool(p.id()));
    result
}
