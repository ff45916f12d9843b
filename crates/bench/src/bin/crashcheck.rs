//! Crash-state model-checking CLI.
//!
//! ```text
//! crashcheck run [--index pactree,pdl-art|all] [--seed N] [--budget-secs N]
//!                [--target-states N] [--ops N] [--keyspace N]
//!                [--snapshot-every N] [--expect-clean pactree,pdl-art]
//!                [--out results]
//! crashcheck replay <file>
//! ```
//!
//! `run` executes one campaign per selected index and writes a one-line
//! JSON summary (plus shrunk replay files for any violation) to the output
//! directory. The exit code is non-zero only if an index named in
//! `--expect-clean` reported a violation — the baselines are *expected* to
//! have torn-state findings; that is what the checker is for.
//!
//! `replay` re-runs a serialized failing crash state deterministically.
//!
//! `--snapshot-every N` turns on the MVCC version-chain campaign: the
//! traced workload takes a snapshot every N ops, so the enumerated crash
//! states cover data-node freezes, and every snapshot's view is
//! verified against a shadow model during the run. Indexes without
//! snapshot support ignore the flag.

use std::process::ExitCode;
use std::time::Duration;

use crashcheck::{run_campaign, run_replay, CampaignOpts, IndexKind, Replay};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  crashcheck run [--index <names|all>] [--seed N] [--budget-secs N]\n               \
         [--target-states N] [--ops N] [--keyspace N]\n               \
         [--snapshot-every N] [--expect-clean <names>] [--out <dir>]\n  crashcheck replay <file>"
    );
    ExitCode::from(2)
}

fn parse_kinds(arg: &str) -> Result<Vec<IndexKind>, String> {
    if arg == "all" {
        return Ok(IndexKind::all().to_vec());
    }
    arg.split(',')
        .map(|s| IndexKind::parse(s.trim()).ok_or_else(|| format!("unknown index: {s}")))
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        _ => usage(),
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut kinds = IndexKind::all().to_vec();
    let mut expect_clean: Vec<IndexKind> = vec![IndexKind::PacTree, IndexKind::PdlArt];
    let mut seed = 42u64;
    let mut budget = Duration::from_secs(30);
    let mut target_states = 0u64;
    let mut ops = None;
    let mut keyspace = None;
    let mut snapshot_every = 0usize;
    let mut out: Option<String> = Some("results".to_string());

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let res: Result<(), String> = (|| {
            match flag.as_str() {
                "--index" => kinds = parse_kinds(&val()?)?,
                "--expect-clean" => expect_clean = parse_kinds(&val()?)?,
                "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--budget-secs" => {
                    budget = Duration::from_secs(
                        val()?.parse().map_err(|e| format!("--budget-secs: {e}"))?,
                    )
                }
                "--target-states" => {
                    target_states = val()?
                        .parse()
                        .map_err(|e| format!("--target-states: {e}"))?
                }
                "--ops" => ops = Some(val()?.parse().map_err(|e| format!("--ops: {e}"))?),
                "--keyspace" => {
                    keyspace = Some(val()?.parse().map_err(|e| format!("--keyspace: {e}"))?)
                }
                "--snapshot-every" => {
                    snapshot_every = val()?
                        .parse()
                        .map_err(|e| format!("--snapshot-every: {e}"))?
                }
                "--out" => {
                    let v = val()?;
                    out = (v != "none").then_some(v);
                }
                other => return Err(format!("unknown flag: {other}")),
            }
            Ok(())
        })();
        if let Err(e) = res {
            eprintln!("error: {e}");
            return usage();
        }
    }

    let mut failed = false;
    for kind in kinds {
        let mut opts = CampaignOpts::new(kind, seed);
        opts.budget = budget;
        opts.target_states = target_states;
        if let Some(n) = ops {
            opts.ops = n;
        }
        if let Some(n) = keyspace {
            opts.keyspace = n;
        }
        opts.snapshot_every = snapshot_every;
        opts.out_dir = out.clone().map(Into::into);
        match run_campaign(&opts) {
            Ok(summary) => {
                println!("{}", summary.to_json());
                for v in &summary.violations {
                    eprintln!(
                        "{}: VIOLATION {}{}",
                        kind.slug(),
                        v.replay.violation,
                        v.path
                            .as_deref()
                            .map(|p| format!(" (replay: {})", p.display()))
                            .unwrap_or_default()
                    );
                }
                if !summary.violations.is_empty() && expect_clean.contains(&kind) {
                    eprintln!(
                        "{}: expected clean but found {} violation(s)",
                        kind.slug(),
                        summary.violations.len()
                    );
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("{}: campaign failed: {e}", kind.slug());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let [path] = args else { return usage() };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let replay = match Replay::parse(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run_replay(&replay) {
        Ok(Some(v)) => {
            println!("reproduced: {v}");
            ExitCode::SUCCESS
        }
        Ok(None) => {
            println!("state no longer fails (fixed?)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
