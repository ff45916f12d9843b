//! pacbench — the repo's one benchmark.
//!
//! ```text
//! pacbench run  [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! pacbench diff A.json B.json
//! pacbench aa   [--seed N] [--seconds S] [--smoke]
//! ```
//!
//! `run` without `--workload` runs all five workloads (and with `--trace 1`
//! the per-layer ladder after them), stores the result under `results/` and
//! prints its path. With `--workload` it runs that one (and with `--trace 1`
//! the ladder after it) and ends with the one-line JSON result described in
//! `BENCHMARK.json`: the bounded end-to-end metrics with `--trace 0`, the
//! per-layer ones with `--trace 1`. See README.md for the catalogue.

mod catalogue;
mod client;
mod durability;
mod json;
mod ladder;
mod report;
mod span;
mod stats;
mod systems;
mod tape;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use catalogue::{WorkloadDef, WORKLOADS};
use json::Value;
use systems::Scale;

/// Seed used when none is given. 1337 is the held-out seed: claims made
/// while developing on 42 must also hold there.
const DEFAULT_SEED: u64 = 42;

/// Run length (`run_seconds` in BENCHMARK.json), and the 1/20 of it a smoke
/// run takes. A workload's operation count is fixed by this, not by a clock:
/// the seconds are what the commit that added the benchmark takes over them.
/// `--seconds` exists because the driver's contract passes it; nothing else
/// should.
const DEFAULT_SECONDS: f64 = 10.0;
const SMOKE_SECONDS: f64 = DEFAULT_SECONDS / 20.0;

const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results");

struct RunArgs {
    workload: Option<&'static WorkloadDef>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut seconds: Option<f64> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                r.workload = Some(catalogue::workload(name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}` (known: {})", known.join(", "))
                })?);
            }
            "--seed" => r.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                r.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => r.smoke = true,
            "--out" => r.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let default = if r.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    };
    r.seconds = seconds.unwrap_or(default);
    Ok(r)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Runs the ladder, prints it and writes its spans to `results/trace.json`.
fn traced_pass(scale: &Scale, args: &RunArgs) -> Result<ladder::Ladder, String> {
    let l = ladder::run(scale, args.seed, args.seconds);
    report::print_ladder(&l);
    let path = Path::new(RESULTS_DIR).join("trace.json");
    write_file(&path, &l.trace_json())?;
    println!("spans written to {}", path.display());
    Ok(l)
}

fn durability_pass(scale: &Scale, seed: u64) -> (u64, u64) {
    let lost = durability::lost_after_crash(scale.durable_inserts, seed);
    println!(
        "durability  acked inserts {}  durability_lost {lost}",
        scale.durable_inserts
    );
    (scale.durable_inserts, lost)
}

/// `run`: returns the number of failed operations (lost writes included).
fn run(args: &RunArgs) -> Result<u64, String> {
    let scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    println!(
        "pacbench run  seed {}  {} s per workload  {} keys  cpus {}",
        args.seed,
        args.seconds,
        scale.keys,
        std::thread::available_parallelism().map_or(0, usize::from)
    );

    if let Some(def) = args.workload {
        // The driver's form: one workload, tracing off, and after it the
        // ladder when the per-layer metrics are asked for.
        let o = workloads::run(def, &scale, args.seed, args.seconds);
        report::print_outcome(&o, args.seed);
        let (mut attempted, mut failed) = (o.attempted, o.failed);
        let metrics = if args.traced {
            let l = traced_pass(&scale, args)?;
            attempted += l.attempted;
            failed += l.failed;
            report::per_layer_json(&l, &o)
        } else {
            report::end_to_end_json(&o, false)
        };
        let (acked, lost) = durability_pass(&scale, args.seed);
        attempted += acked;
        failed += lost;
        println!("{}", report::result_line(attempted, failed, metrics));
        return Ok(failed);
    }

    let mut failed = 0;
    let mut stored = Vec::new();
    for def in &WORKLOADS {
        let o = workloads::run(def, &scale, args.seed, args.seconds);
        report::print_outcome(&o, args.seed);
        failed += o.failed;
        stored.push((def.name, report::workload_json(&o)));
    }
    let mut doc = vec![
        ("schema", Value::Str(report::SCHEMA.to_string())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("smoke", Value::Bool(args.smoke)),
        ("workloads", Value::obj(stored)),
    ];
    if args.traced {
        let l = traced_pass(&scale, args)?;
        failed += l.failed;
        doc.push((
            "per_layer",
            Value::obj([
                ("probe_kernel", Value::Str(l.kernel.to_string())),
                ("metrics", report::ladder_json(&l)),
            ]),
        ));
    }
    let (acked, lost) = durability_pass(&scale, args.seed);
    failed += lost;
    doc.push((
        "durability",
        Value::obj([
            ("acked", Value::Num(acked as f64)),
            ("lost", Value::Num(lost as f64)),
        ]),
    ));
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(RESULTS_DIR).join(format!("run-seed{}.json", args.seed)));
    write_file(&path, &(Value::obj(doc).render() + "\n"))?;
    println!("result written to {}", path.display());
    Ok(failed)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn diff_files(a: &str, b: &str) -> Result<report::Diff, String> {
    let d = report::diff(&load(a)?, &load(b)?)?;
    for line in &d.lines {
        println!("{line}");
    }
    println!(
        "regressions {}  unresolved {}  exact counts changed {}",
        d.regressions, d.unresolved, d.count_changes
    );
    Ok(d)
}

/// The A/A acceptance check: the full traced set twice on the same code —
/// each side a fresh process, as two separate runs would be — must agree
/// within the bounds, every exact count must repeat, and a pair that either
/// run could not resolve fails the check too: noise is not agreement.
fn aa(args: &[String]) -> Result<bool, String> {
    let r = parse_run_args(args)?;
    if r.workload.is_some() || r.out.is_some() {
        return Err("aa takes --seed, --seconds and --smoke only".to_string());
    }
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut paths = Vec::new();
    for side in ["a", "b"] {
        let path = Path::new(RESULTS_DIR).join(format!("aa-{side}-seed{}.json", r.seed));
        let status = std::process::Command::new(&exe)
            .arg("run")
            .args(args)
            .args(["--trace", "1"])
            .arg("--out")
            .arg(&path)
            .status()
            .map_err(|e| format!("start side {side}: {e}"))?;
        if !status.success() {
            return Ok(false);
        }
        paths.push(path.display().to_string());
    }
    let d = diff_files(&paths[0], &paths[1])?;
    Ok(d.regressions == 0 && d.count_changes == 0 && d.unresolved == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run_args(&args[1..])
            .and_then(|r| run(&r))
            .map(|failed| failed == 0),
        Some("diff") if args.len() == 3 => {
            diff_files(&args[1], &args[2]).map(|d| d.regressions == 0)
        }
        Some("aa") => aa(&args[1..]),
        _ => Err("usage: pacbench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE] | diff A.json B.json | aa [--seed N] [--seconds S] [--smoke]".to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pacbench: {e}");
            ExitCode::from(2)
        }
    }
}
