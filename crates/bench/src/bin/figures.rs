//! figures: the paper's evaluation — Figures 2–15, §6.7, §6.8, §3.1.1, GA3
//! and two extensions (§3.5 eADR, restart time) — from one driver at one
//! fixed scale.
//!
//! `figures [--quick] [ROW...]` runs the named rows (every row when none is
//! named, always in the paper's order) at [`Scale::full`], or at
//! [`Scale::quick`] under `--quick`. Each row prints its claim, the tables
//! its figure plots, then one verdict line:
//!
//! * `PASS` — the numbers have the shape the paper reports: an ordering or a
//!   rough factor, never an absolute Mops value (the substrate is an
//!   emulated, time-dilated Optane; see EXPERIMENTS.md);
//! * `DIVERGES` — they do not; the line gives the numbers that break it.
//!
//! A DIVERGES row is a result, not an error. Every table and verdict also
//! lands in `results/figures.json` (schema `figures/v1`). The run exits
//! non-zero when a row panics or prints a malformed table (see
//! [`defects`]).
//!
//! Rows share one process, so each sets the process-wide state it depends
//! on before it runs (NUMA topology, NVM model, histogram sampling) and
//! names its pools uniquely: no row's result depends on which rows ran
//! before it.

use std::fmt::Display;
use std::time::Instant;

use baselines::fptree::FpTree;
use bench::{banner, row, stamp_json, Scale};
use pactree::{PacTree, PacTreeConfig};
use pdl_art::{PdlArt, PdlArtConfig};
use pmem::model::{self, CoherenceMode, NvmModelConfig};
use pmem::pool::{destroy_pool, PmemPool, PoolConfig};
use pmem::AllocMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ycsb::{
    driver, AnyIndex, Distribution, DriverConfig, IndexKind, KeySpace, Mix, RangeIndex, Report,
    Workload,
};

const INT: KeySpace = KeySpace::Integer;
const ZIPF: Distribution = Distribution::Zipfian(0.99);

/// One row of EXPERIMENTS.md's headline table.
struct Row {
    /// Its name on the command line and in the JSON: the function's name.
    id: &'static str,
    /// Where the paper makes its claim, and the claim the verdict checks.
    claim: &'static str,
    run: fn(&Scale, &mut Sheet) -> Verdict,
}

/// `row_fn: "claim";` entries, in the paper's order.
macro_rules! rows {
    ($($run:ident: $claim:literal;)*) => {
        [$(Row { id: stringify!($run), claim: $claim, run: $run }),*]
    };
}

const ROWS: [Row; 18] = rows! {
    fig02: "Figure 2 (FastFair, YCSB-A): directory-coherence throughput plateaus early; snoop is ~2.5x better at high threads.";
    fig03: "Figure 3 (PDL-ART, insert-only): the PMDK allocator's crash consistency (six flushes per alloc/free pair) halves throughput vs Jemalloc.";
    fig04: "Figure 4 (YCSB-C): with string keys the B+tree (FastFair) reads 7.7x more NVM and the trie (PDL-ART) is 3.7x faster (GA1).";
    fig05: "Figure 5 (scans, integer keys): FastFair's sorted leaves scan 1.5x faster with 1.6x fewer NVM reads than PDL-ART (GA5).";
    fig06: "Figure 6 (FPTree, 50% lookup + 50% insert): HTM aborts/op grow with data-set size and threads (5.4/op at 56 threads, 64M keys) (GC3).";
    fig09: "Figure 9 (YCSB, string keys, Zipfian): PACTree wins every mix, by up to 4x on writes and 3.2x on reads.";
    fig10: "Figure 10 (YCSB, integer keys, Zipfian): Figure 9's ordering with FPTree added; FPTree is competitive only on read-only W-C.";
    fig11: "Figure 11 (low-bandwidth machine, uniform): with ~3x less NVM bandwidth PACTree's lead over PDL-ART widens.";
    fig12: "Figure 12 (factor analysis, string keys): PACTree's features add up to gains over ART(SC) except on read-only W-C; a DRAM search layer gains <10%.";
    fig13: "Figure 13 (tail latency, uniform integer keys): PACTree's p99.99 is up to 20x lower on write-intensive mixes; FPTree is worst on scans.";
    fig14: "Figure 14 (single thread): PACTree is similar or up to 3x better on every mix.";
    fig15: "Figure 15 (PACTree, Zipfian skew sweep): the lookup+update mix gains with skew; the lookup+insert mix stays flat.";
    jump: "§6.7 (jump-node distance, W-A at 112 threads): 68% of locates reach their node directly, 30% need one hop.";
    recovery: "§6.8 (crash injection): 100/100 crashes recover with every acknowledged key accessible.";
    directory: "§3.1.1 (remote random reads): 870 MB of reads write 481 MB of directory state under the directory protocol, none under snoop.";
    alloc: "GA3 (insert-only): FastFair spends 2%, PDL-ART 20% and BzTree 40% of its time in the allocator.";
    eadr: "§3.5 (ADR vs eADR, YCSB-A): everyone gains from eADR, and the PAC ordering is unchanged.";
    restart: "§1/§4.2 (restart): PACTree's NVM search layer recovers near-instantly; FPTree rebuilds its DRAM inner nodes from every leaf.";
};

fn main() {
    let mut quick = false;
    let mut wanted: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            id if ROWS.iter().any(|r| r.id == id) => wanted.push(arg),
            _ => {
                let ids: Vec<&str> = ROWS.iter().map(|r| r.id).collect();
                eprintln!("figures: unknown argument {arg:?}");
                eprintln!("usage: figures [--quick] [ROW...]; rows: {}", ids.join(" "));
                std::process::exit(2);
            }
        }
    }
    let scale = if quick { Scale::quick() } else { Scale::full() };

    let start = Instant::now();
    let (mut rows, mut diverged, mut malformed) = (Vec::new(), 0, 0);
    let selected = |r: &&Row| wanted.is_empty() || wanted.iter().any(|w| w == r.id);
    for r in ROWS.iter().filter(selected) {
        // Every row runs on the paper's two-socket machine.
        pmem::numa::set_topology(2);
        let (t0, mut sheet) = (Instant::now(), Sheet::default());
        banner(r.id, r.claim, &scale);
        let (pass, note) = (r.run)(&scale, &mut sheet);
        let verdict = if pass { "PASS" } else { "DIVERGES" };
        println!("-- {verdict}: {note}");
        diverged += usize::from(!pass);
        for defect in defects(r.id, &sheet) {
            println!("-- MALFORMED: {defect}");
            malformed += 1;
        }
        let (id, claim, note) = (quote(r.id), quote(r.claim), quote(&note));
        let (tables, wall) = (sheet.json(), num(t0.elapsed().as_secs_f64()));
        rows.push(format!(
            "{{\"id\":{id},\"claim\":{claim},\"numbers\":{tables},\"verdict\":\"{verdict}\",\
             \"note\":{note},\"wall_s\":{wall}}}"
        ));
    }
    let (stamp, wall) = (stamp_json(&scale), start.elapsed().as_secs_f64());
    let doc = format!(
        "{{\"schema\":\"figures/v1\",\"stamp\":{stamp},\"quick\":{quick},\"wall_s\":{},\
         \"rows\":[{}]}}",
        num(wall),
        rows.join(",")
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/figures.json", doc).expect("write results/figures.json");
    let passed = rows.len() - diverged;
    println!("figures: {passed} PASS, {diverged} DIVERGES in {wall:.0} s");
    if malformed > 0 {
        eprintln!("figures: {malformed} malformed tables");
        std::process::exit(1);
    }
}

// ------------------------------------------------------------------ helpers

/// A row's shape check: whether its numbers have the paper's shape, and
/// the numbers that decide it.
type Verdict = (bool, String);

/// The tables a row prints, kept for the JSON as they are printed.
#[derive(Default)]
struct Sheet(Vec<Table>);

/// Title, column labels, and labelled rows of values.
struct Table(String, Vec<String>, Vec<(String, Vec<f64>)>);

impl Sheet {
    /// Starts a table: prints its title (when there is one) and a header
    /// row of `columns` labelled `corner`.
    fn table<T: Display>(&mut self, title: &str, corner: &str, columns: &[T]) {
        if !title.is_empty() {
            println!("-- {title}");
        }
        let columns: Vec<String> = columns.iter().map(|c| c.to_string()).collect();
        row(corner, &columns);
        self.0.push(Table(title.to_string(), columns, Vec::new()));
    }

    /// Prints one row of the current table.
    fn row(&mut self, label: &str, values: &[f64]) {
        let cols: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
        row(label, &cols);
        let table = self.0.last_mut().expect("a row belongs to a table");
        table.2.push((label.to_string(), values.to_vec()));
    }

    /// `[{"title": .., "columns": [..], "rows": {"<label>": [..]}}]`.
    fn json(&self) -> String {
        let table = |Table(title, columns, rows): &Table| {
            let columns: Vec<String> = columns.iter().map(|c| quote(c)).collect();
            let row = |(label, values): &(String, Vec<f64>)| quote(label) + ":" + &nums(values);
            let rows: Vec<String> = rows.iter().map(row).collect();
            let (title, columns, rows) = (quote(title), columns.join(","), rows.join(","));
            format!("{{\"title\":{title},\"columns\":[{columns}],\"rows\":{{{rows}}}}}")
        };
        let tables: Vec<String> = self.0.iter().map(table).collect();
        format!("[{}]", tables.join(","))
    }
}

/// What keeps `sheet` from standing as row `id`'s numbers: no tables, a
/// table without rows, a row without one finite value per column, and for
/// fig13 a mix that misses an index or whose percentiles fall.
fn defects(id: &str, sheet: &Sheet) -> Vec<String> {
    let mut out = Vec::new();
    if sheet.0.is_empty() {
        out.push("no tables".to_string());
    }
    for Table(title, columns, rows) in &sheet.0 {
        if rows.is_empty() {
            out.push(format!("table {title:?} has no rows"));
        }
        for (label, values) in rows {
            if values.len() != columns.len() || !values.iter().all(|v| v.is_finite()) {
                out.push(format!(
                    "{title:?}/{label}: {values:?} does not fill {columns:?}"
                ));
            }
            if id == "fig13" && values.windows(2).any(|w| w[1] < w[0]) {
                out.push(format!("{title:?}/{label}: percentiles fall: {values:?}"));
            }
        }
        if id == "fig13" {
            for kind in IndexKind::all() {
                if !rows.iter().any(|(label, _)| label == kind.name()) {
                    out.push(format!("{title:?} misses {}", kind.name()));
                }
            }
        }
    }
    out
}

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn nums(vs: &[f64]) -> String {
    let vs: Vec<String> = vs.iter().map(|&v| num(v)).collect();
    format!("[{}]", vs.join(","))
}

fn ratio(a: f64, b: f64) -> f64 {
    a / b.max(1e-9)
}

/// "W-A 1.31x, W-B 0.92x": ratios labelled by mix or thread count.
fn ratios<L: Display>(xs: &[(L, f64)]) -> String {
    let parts: Vec<String> = xs.iter().map(|(l, r)| format!("{l} {r:.2}x")).collect();
    parts.join(", ")
}

fn last(s: &[f64]) -> f64 {
    *s.last().expect("a sweep has a thread count")
}

/// The dilated Optane model (snoop coherence) most rows measure under.
fn optane(s: &Scale) -> NvmModelConfig {
    NvmModelConfig::optane_dilated(CoherenceMode::Snoop, s.dilation)
}

/// A fresh `kind` index named `name`, in the evaluation's configuration.
fn fresh(kind: IndexKind, name: &str, space: KeySpace, s: &Scale) -> AnyIndex {
    kind.create(name, s.pool_size, space, false)
        .expect("create index")
}

/// A `kind` index named `name`, loaded with the scale's keys.
fn loaded(kind: IndexKind, name: &str, space: KeySpace, s: &Scale) -> AnyIndex {
    let idx = fresh(kind, name, space, s);
    driver::populate(&idx, space, s.keys, 4);
    idx
}

/// Runs `f` with the NVM model set to `model`, then disables the model.
fn with_model<R>(model: &NvmModelConfig, f: impl FnOnce() -> R) -> R {
    model::set_config(model.clone());
    let r = f();
    model::set_config(NvmModelConfig::disabled());
    r
}

/// Runs `w` against `idx` from `threads` workers under `model`. The report
/// counts the operations the workers executed, and its throughput is in
/// model time (`model`'s dilation taken out).
fn measure<I: RangeIndex + Clone + 'static>(
    idx: &I,
    model: &NvmModelConfig,
    w: &Workload,
    space: KeySpace,
    threads: usize,
    ops: u64,
) -> Report {
    let dilation = model.time_dilation;
    let cfg = DriverConfig {
        threads,
        ops,
        dilation,
        ..Default::default()
    };
    with_model(model, || driver::run_workload(idx, w, space, &cfg))
}

/// Worker `t`'s share of `total` operations split over `threads` workers:
/// shares differ by at most one and sum to `total`.
fn share(total: u64, threads: usize, t: usize) -> u64 {
    let n = threads as u64;
    total / n + u64::from((t as u64) < total % n)
}

// ------------------------------------------------ Figures 2-6: PAC guidelines

fn fig02(s: &Scale, out: &mut Sheet) -> Verdict {
    out.table("", "threads", &s.threads);
    let mut at_max = Vec::new();
    for coherence in [CoherenceMode::Directory, CoherenceMode::Snoop] {
        let idx = loaded(IndexKind::FastFair, &format!("fig02-{coherence:?}"), INT, s);
        let model = NvmModelConfig::optane_dilated(coherence, s.dilation);
        let w = Workload::zipfian(Mix::A, s.keys);
        let run = |&t: &usize| measure(&idx, &model, &w, INT, t, s.ops).mops;
        let series: Vec<f64> = s.threads.iter().map(run).collect();
        idx.destroy();
        out.row(&format!("{coherence:?} (Mops/s)"), &series);
        at_max.push(last(&series));
    }
    fig02_verdict(at_max[0], at_max[1])
}

fn fig02_verdict(directory: f64, snoop: f64) -> Verdict {
    let r = ratio(snoop, directory);
    let note = format!("snoop/directory at max threads {r:.2}x (want >= 1)");
    (r >= 1.0, note)
}

fn fig03(s: &Scale, out: &mut Sheet) -> Verdict {
    out.table("", "allocator", &["Mops/s", "flushes"]);
    let (threads, mut m) = (s.max_threads().min(28), Vec::new());
    let modes = [
        ("Jemalloc", AllocMode::Transient),
        ("PMDK", AllocMode::CrashConsistent),
    ];
    for (label, mode) in modes {
        let cfg = PdlArtConfig::named(&format!("fig03-{label}")).with_pool_size(s.pool_size);
        let idx = PdlArt::create(cfg.with_alloc_mode(mode)).expect("create pdl-art");
        let w = Workload::uniform(Mix::LoadA, 0);
        let r = measure(&idx, &optane(s), &w, INT, threads, s.ops);
        idx.destroy();
        out.row(label, &[r.mops, r.stats.flushes as f64]);
        m.push(r.mops);
    }
    fig03_verdict(m[0], m[1])
}

fn fig03_verdict(jemalloc: f64, pmdk: f64) -> Verdict {
    let r = ratio(jemalloc, pmdk);
    (r >= 1.0, format!("Jemalloc/PMDK {r:.2}x (want >= 1)"))
}

fn fig04(s: &Scale, out: &mut Sheet) -> Verdict {
    out.table("", "config", &["Mops/s", "NVM read GiB"]);
    let (threads, mut got) = (s.max_threads().min(28), Vec::new());
    for space in [INT, KeySpace::String] {
        for kind in [IndexKind::FastFair, IndexKind::PdlArt] {
            let idx = loaded(kind, &format!("fig04-{}-{space:?}", kind.name()), space, s);
            let w = Workload::zipfian(Mix::C, s.keys);
            let r = measure(&idx, &optane(s), &w, space, threads, s.ops);
            idx.destroy();
            got.push([r.mops, r.stats.read_gib()]);
            out.row(&format!("{space:?}/{}", kind.name()), &got[got.len() - 1]);
        }
    }
    // The string-key pair, FastFair then PDL-ART.
    fig04_verdict(got[2], got[3])
}

/// `[Mops, NVM read GiB]` of FastFair and PDL-ART on string keys.
fn fig04_verdict(fastfair: [f64; 2], pdl_art: [f64; 2]) -> Verdict {
    let reads = ratio(fastfair[1], pdl_art[1]);
    let speed = ratio(pdl_art[0], fastfair[0]);
    let note = format!("FastFair/PDL-ART NVM reads {reads:.2}x, PDL-ART/FastFair Mops {speed:.2}x");
    (reads >= 1.0 && speed >= 1.0, note + " (want >= 1 for both)")
}

fn fig05(s: &Scale, out: &mut Sheet) -> Verdict {
    out.table("", "index", &["scan Mops/s", "NVM read GiB"]);
    let (threads, scans) = (s.max_threads().min(28), s.ops / 10); // a scan visits ~100 pairs
    let mut got = Vec::new();
    for kind in [IndexKind::FastFair, IndexKind::PdlArt] {
        let idx = loaded(kind, &format!("fig05-{}", kind.name()), INT, s);
        let (secs, delta) = with_model(&optane(s), || {
            let (before, start) = (pmem::stats::global().snapshot(), Instant::now());
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let idx = idx.clone();
                    scope.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(t as u64 + 5);
                        for _ in 0..share(scans, threads, t) {
                            let key = INT.encode(rng.gen_range(0..s.keys));
                            std::hint::black_box(idx.scan(&key, 100));
                        }
                    });
                }
            });
            let secs = start.elapsed().as_secs_f64() / s.dilation;
            (secs, pmem::stats::global().snapshot().since(&before))
        });
        idx.destroy();
        got.push([scans as f64 / secs / 1e6, delta.read_gib()]);
        out.row(kind.name(), &got[got.len() - 1]);
    }
    fig05_verdict(got[0], got[1])
}

/// `[scan Mops, NVM read GiB]` of FastFair and PDL-ART.
fn fig05_verdict(fastfair: [f64; 2], pdl_art: [f64; 2]) -> Verdict {
    let speed = ratio(fastfair[0], pdl_art[0]);
    let fewer = ratio(pdl_art[1], fastfair[1]);
    let note = format!("FastFair/PDL-ART Mops {speed:.2}x, PDL-ART/FastFair reads {fewer:.2}x");
    (speed >= 1.0 && fewer >= 1.0, note + " (want >= 1 for both)")
}

fn fig06(s: &Scale, out: &mut Sheet) -> Verdict {
    // The paper uses 10M vs 64M keys (6.4x); we keep the same ratio.
    let mut aborts = Vec::new();
    for (label, keys) in [("small", (s.keys / 6).max(1000)), ("large", s.keys)] {
        let title = format!("data set: {label} ({keys} keys)");
        out.table(&title, "threads", &s.threads);
        let idx = fresh(IndexKind::FpTree, &format!("fig06-{label}"), INT, s);
        driver::populate(&idx, INT, keys, 4);
        let htm = &idx.as_fptree().expect("fptree").htm.stats;
        let w = Workload::uniform(Mix::ReadInsert, keys);
        let (mut m, mut a) = (Vec::new(), Vec::new());
        for &t in &s.threads {
            htm.reset();
            m.push(measure(&idx, &optane(s), &w, INT, t, s.ops).mops);
            a.push(htm.aborts_per_op());
        }
        idx.destroy();
        out.row("Mops/s", &m);
        out.row("aborts/op", &a);
        aborts.push(a);
    }
    fig06_verdict(&aborts[0], &aborts[1])
}

/// Aborts/op over the thread sweep, small and large data set.
fn fig06_verdict(small: &[f64], large: &[f64]) -> Verdict {
    let rising = |s: &[f64]| s.windows(2).all(|w| w[1] >= w[0]);
    let larger = large.iter().zip(small).all(|(l, s)| l >= s);
    let note = format!("aborts/op small {small:.2?}, large {large:.2?}");
    let want = " (want non-decreasing in threads, large >= small)";
    (rising(small) && rising(large) && larger, note + want)
}

// ----------------------------------------- Figures 9-15: PACTree vs baselines

/// Per mix, each index's Mops at the highest thread count.
type AtMax = Vec<(&'static str, Vec<(IndexKind, f64)>)>;

/// Every index that takes `space`'s keys (FPTree has no string keys).
fn lineup(space: KeySpace) -> Vec<IndexKind> {
    let takes = |&k: &IndexKind| space.is_integer() || k != IndexKind::FpTree;
    IndexKind::all().into_iter().filter(takes).collect()
}

/// Runs every mix at each thread count of `s` against one loaded index per
/// kind of `lineup(space)`, one table per mix (Figures 9–11).
fn ycsb(
    id: &str,
    space: KeySpace,
    dist: Distribution,
    model: &NvmModelConfig,
    s: &Scale,
    out: &mut Sheet,
) -> AtMax {
    // One index per kind, loaded once; mixes run back to back like the
    // paper's harness.
    let load = |k: IndexKind| (k, loaded(k, &format!("{id}-{}", k.name()), space, s));
    let indexes: Vec<(IndexKind, AnyIndex)> = lineup(space).into_iter().map(load).collect();
    let mut at_max = Vec::new();
    for mix in Mix::all() {
        // L-A is measured on fresh trees in the paper; approximate by
        // inserting fresh keys beyond the populated range.
        let title = format!("{} ({space:?} keys, {dist:?})", mix.short_name());
        out.table(&title, "threads", &s.threads);
        let w = Workload::new(mix, dist, s.keys);
        let mut per_kind = Vec::new();
        for (kind, idx) in &indexes {
            let run = |&t: &usize| measure(idx, model, &w, space, t, s.ops).mops;
            let series: Vec<f64> = s.threads.iter().map(run).collect();
            out.row(kind.name(), &series);
            per_kind.push((*kind, last(&series)));
        }
        at_max.push((mix.short_name(), per_kind));
    }
    indexes.into_iter().for_each(|(_, idx)| idx.destroy());
    at_max
}

/// PACTree's Mops over the best index `rival(mix, kind)` admits, per mix.
fn lead(at_max: &AtMax, rival: impl Fn(&str, IndexKind) -> bool) -> Vec<(&'static str, f64)> {
    let lead = |(mix, per_kind): &(&'static str, Vec<(IndexKind, f64)>)| {
        let pac = per_kind.iter().find(|p| p.0 == IndexKind::PacTree);
        let pac = pac.expect("PACTree is in every lineup").1;
        let is_rival = |&&(k, _): &&(IndexKind, f64)| k != IndexKind::PacTree && rival(mix, k);
        let rivals = per_kind.iter().filter(is_rival);
        let best = rivals.map(|p| p.1).fold(0.0, f64::max);
        (*mix, ratio(pac, best))
    };
    at_max.iter().map(lead).collect()
}

fn leads(leads: &[(&str, f64)], min: f64, over: &str) -> Verdict {
    let (pass, leads) = (leads.iter().all(|&(_, r)| r >= min), ratios(leads));
    let note = format!("PACTree/{over}: {leads} (want >= {min} on every mix)");
    (pass, note)
}

fn fig09(s: &Scale, out: &mut Sheet) -> Verdict {
    fig09_verdict(&ycsb("fig09", KeySpace::String, ZIPF, &optane(s), s, out))
}

fn fig09_verdict(at_max: &AtMax) -> Verdict {
    leads(&lead(at_max, |_, _| true), 1.0, "best rival")
}

fn fig10(s: &Scale, out: &mut Sheet) -> Verdict {
    fig10_verdict(&ycsb("fig10", INT, ZIPF, &optane(s), s, out))
}

fn fig10_verdict(at_max: &AtMax) -> Verdict {
    let rival = |mix: &str, k| !(mix == "W-C" && k == IndexKind::FpTree);
    let over = "best rival (FPTree exempt on W-C)";
    leads(&lead(at_max, rival), 1.0, over)
}

fn fig11(s: &Scale, out: &mut Sheet) -> Verdict {
    let mut low_bw = NvmModelConfig::low_bandwidth();
    low_bw.time_dilation = s.dilation;
    let mut one = s.clone();
    one.threads = vec![s.max_threads().min(32)];
    let uniform = Distribution::Uniform;
    fig11_verdict(&ycsb("fig11", INT, uniform, &low_bw, &one, out))
}

/// Only the lead is checked: its widening against the default machine
/// would need Figure 10 rerun uniform at Figure 11's thread count.
fn fig11_verdict(at_max: &AtMax) -> Verdict {
    leads(&lead(at_max, |_, k| k == IndexKind::PdlArt), 1.0, "PDL-ART")
}

/// One Figure 12 rung: every mix against `idx`, loaded here.
fn fig12_rung<I: RangeIndex + Clone + 'static>(idx: &I, s: &Scale) -> Vec<f64> {
    driver::populate(idx, KeySpace::String, s.keys, 4);
    let (model, threads) = (optane(s), s.max_threads().min(28));
    let w = |mix| Workload::zipfian(mix, s.keys);
    let run = |mix| measure(idx, &model, &w(mix), KeySpace::String, threads, s.ops / 2).mops;
    Mix::all().into_iter().map(run).collect()
}

fn fig12(s: &Scale, out: &mut Sheet) -> Verdict {
    let mixes: Vec<&str> = Mix::all().iter().map(|m| m.short_name()).collect();
    out.table("", "configuration", &mixes);
    // Rung 0: ART(SC) — PDL-ART itself (kv pairs out of node, everything
    // synchronous, single pool).
    let art = PdlArt::create(PdlArtConfig::named("fig12-artsc").with_pool_size(s.pool_size));
    let art = art.expect("create pdl-art");
    let mut ladder = vec![fig12_rung(&art, s)];
    art.destroy();
    out.row("ART(SC)", &ladder[0]);
    // The paper's ladder is ART(SC) → +Per-NUMA pool → +Slotted leaf →
    // +Selective persistence → +Async update. Ours introduces the slotted
    // data layer first (it is what separates PDL-ART from PACTree
    // structurally), then adds the same factors cumulatively; the DRAM
    // search layer is the reference rung. "+Slotted Leaf" is slotted data
    // nodes with this tree's one update protocol, an in-place value store
    // (not the paper's §5.5 out-of-place slot swap).
    let rungs = [
        ("+Slotted Leaf", 1, true, false, false),
        ("+Per-NUMA Pool", 2, true, false, false),
        ("+Selective Persist", 2, false, false, false),
        ("+Async Update", 2, false, true, false),
        ("DRAM Search Layer", 2, false, true, true),
    ];
    for (i, (label, pools, persist_permutation, async_smo, dram)) in rungs.into_iter().enumerate() {
        let mut cfg = PacTreeConfig::named(&format!("fig12-rung{i}")).with_pool_size(s.pool_size);
        cfg.numa_pools = pools;
        cfg.persist_permutation = persist_permutation;
        cfg.async_smo = async_smo;
        cfg.search_layer_dram = dram;
        let tree = PacTree::create(cfg).expect("create pactree");
        ladder.push(fig12_rung(&tree, s));
        tree.destroy();
        out.row(label, &ladder[i + 1]);
    }
    fig12_verdict(&mixes, &ladder[0], &ladder[4], &ladder[5])
}

/// ART(SC), the full design (+Async Update) and the DRAM-search-layer
/// reference, one Mops value per mix.
fn fig12_verdict(mixes: &[&str], art: &[f64], full: &[f64], dram: &[f64]) -> Verdict {
    let per_mix = |a: &[f64], b: &[f64]| -> Vec<(&str, f64)> {
        let pairs = mixes.iter().zip(a.iter().zip(b));
        pairs.map(|(&m, (&x, &y))| (m, ratio(x, y))).collect()
    };
    let (gain, dram) = (per_mix(full, art), per_mix(dram, full));
    let pass = gain.iter().all(|&(m, r)| m == "W-C" || r >= 1.0) && dram.iter().all(|p| p.1 <= 1.1);
    let (gain, dram) = (ratios(&gain), ratios(&dram));
    let note = format!("full/ART(SC) {gain} (want >= 1 except W-C); DRAM/NVM search layer {dram}");
    (pass, note + " (want <= 1.1)")
}

fn fig13(s: &Scale, out: &mut Sheet) -> Verdict {
    // Tail percentiles want every operation in the histogram, not the
    // default 1-in-16 latency sample; recording cost is irrelevant under
    // the dilated NVM model. Restored below for the rows that follow.
    obsv::set_sample_shift(0);
    let threads = s.max_threads().min(56);
    // Recorded latencies are wall-clock ns; report model-time µs.
    let us = 1e-3 / s.dilation.max(1.0);
    let mut p9999 = Vec::new();
    for mix in [Mix::A, Mix::B, Mix::C, Mix::E] {
        let cols = ["p50", "p90", "p99", "p99.9", "p99.99"];
        out.table(mix.short_name(), "index (us)", &cols);
        let mut tails = Vec::new();
        for kind in IndexKind::all() {
            let name = format!("fig13-{}-{}", mix.short_name(), kind.name());
            let (idx, w) = (loaded(kind, &name, INT, s), Workload::uniform(mix, s.keys));
            let r = measure(&idx, &optane(s), &w, INT, threads, s.ops);
            idx.destroy();
            let all = r.hist.merged();
            let q = |q: f64| all.quantile(q) as f64 * us;
            out.row(kind.name(), &[q(0.5), q(0.9), q(0.99), q(0.999), q(0.9999)]);
            tails.push(q(0.9999));
        }
        p9999.push(tails);
    }
    obsv::set_sample_shift(obsv::DEFAULT_SAMPLE_SHIFT);
    fig13_verdict(&p9999[0], &p9999[3])
}

/// Each index's p99.99 on W-A and on W-E, in [`IndexKind::all`] order: PACTree
/// first, FPTree last.
fn fig13_verdict(w_a: &[f64], w_e: &[f64]) -> Verdict {
    let (pac, fp) = (w_a[0], w_e[4]);
    let lowest = w_a[1..].iter().copied().fold(f64::INFINITY, f64::min);
    let highest = w_e[..4].iter().copied().fold(0.0, f64::max);
    let a = format!("W-A p99.99 PACTree {pac:.1} us vs lowest other {lowest:.1} us");
    let e = format!("W-E p99.99 FPTree {fp:.1} us vs highest other {highest:.1} us");
    let pass = pac <= lowest && fp >= highest;
    (pass, format!("{a}, {e} (want lowest, highest)"))
}

fn fig14(s: &Scale, out: &mut Sheet) -> Verdict {
    let mixes: Vec<&'static str> = Mix::all().iter().map(|m| m.short_name()).collect();
    let mut by_space = Vec::new();
    for space in [INT, KeySpace::String] {
        out.table(&format!("{space:?} keys"), "index", &mixes);
        let mut at_max: AtMax = mixes.iter().map(|&m| (m, Vec::new())).collect();
        for kind in lineup(space) {
            let idx = loaded(kind, &format!("fig14-{space:?}-{}", kind.name()), space, s);
            let w = |mix| Workload::zipfian(mix, s.keys);
            let run = |mix| measure(&idx, &optane(s), &w(mix), space, 1, s.ops / 4).mops;
            let cols: Vec<f64> = Mix::all().into_iter().map(run).collect();
            idx.destroy();
            out.row(kind.name(), &cols);
            for ((_, per_kind), &m) in at_max.iter_mut().zip(&cols) {
                per_kind.push((kind, m));
            }
        }
        by_space.push(lead(&at_max, |_, _| true));
    }
    fig14_verdict(&by_space[0], &by_space[1])
}

/// PACTree over its best rival on each mix, integer and string keys. The
/// paper's "similar" reads as within 10%.
fn fig14_verdict(integer: &[(&str, f64)], string: &[(&str, f64)]) -> Verdict {
    let both: Vec<(&str, f64)> = integer.iter().chain(string).copied().collect();
    leads(&both, 0.9, "best rival, integer then string keys")
}

fn fig15(s: &Scale, out: &mut Sheet) -> Verdict {
    let thetas = [0.5, 0.6, 0.7, 0.8, 0.9, 0.99];
    let threads = [(s.max_threads() / 2).max(1), s.max_threads()];
    let mut by_mix = Vec::new();
    let mixes = [
        ("50% lookup + 50% update", Mix::A),
        ("50% lookup + 50% insert", Mix::ReadInsert),
    ];
    for (label, mix) in mixes {
        out.table(label, "theta", &thetas);
        let mut per_threads = Vec::new();
        for t in threads {
            let name = format!("fig15-{}-{t}", mix.short_name());
            let idx = loaded(IndexKind::PacTree, &name, INT, s);
            let w = |theta| Workload::new(mix, Distribution::Zipfian(theta), s.keys);
            let run = |theta| measure(&idx, &optane(s), &w(theta), INT, t, s.ops / 2).mops;
            let cols: Vec<f64> = thetas.into_iter().map(run).collect();
            idx.destroy();
            out.row(&format!("{t} threads"), &cols);
            per_threads.push(cols);
        }
        by_mix.push(per_threads);
    }
    fig15_verdict(&threads, &by_mix[0], &by_mix[1])
}

/// `update[i]` and `insert[i]` are Mops over the θ sweep at `threads[i]`.
fn fig15_verdict(threads: &[usize], update: &[Vec<f64>], insert: &[Vec<f64>]) -> Verdict {
    let gains = |m: &[Vec<f64>]| -> Vec<(String, f64)> {
        let gain = |(t, s): (&usize, &Vec<f64>)| (format!("{t}T"), ratio(last(s), s[0]));
        threads.iter().zip(m).map(gain).collect()
    };
    let (up, ins) = (gains(update), gains(insert));
    let pass = up.iter().zip(&ins).all(|(u, i)| u.1 >= 1.0 && u.1 >= i.1);
    let (up, ins) = (ratios(&up), ratios(&ins));
    let note = format!("θ 0.99/0.5 Mops: update {up}; insert {ins}");
    (pass, note + " (want update >= 1 and >= insert)")
}

// ------------------------------------------------------ §6.7, §6.8, §3, GA3

fn jump(s: &Scale, out: &mut Sheet) -> Verdict {
    let idx = loaded(IndexKind::PacTree, "exp-jump", INT, s);
    let stats = idx.as_pactree().expect("pactree").stats();
    stats.reset();
    let (w, threads) = (Workload::zipfian(Mix::A, s.keys), s.max_threads());
    measure(&idx, &optane(s), &w, INT, threads, s.ops);
    let hist = stats.jump_histogram();
    idx.destroy();
    let total = hist.iter().map(|&(_, c)| c).sum::<u64>().max(1) as f64;
    let hops: Vec<usize> = hist.iter().map(|&(h, _)| h).collect();
    out.table("", "hops", &hops);
    let share = |&(_, c): &(usize, u64)| 100.0 * c as f64 / total;
    let pct: Vec<f64> = hist.iter().map(share).collect();
    out.row("% of locates", &pct);
    jump_verdict(&pct)
}

/// `pct[h]` is the percentage of locates that walked `h` hops.
fn jump_verdict(pct: &[f64]) -> Verdict {
    let (direct, one) = (pct[0], pct.get(1).copied().unwrap_or(0.0));
    let note = format!("{direct:.1}% direct, {one:.1}% one hop");
    let want = " (want a direct majority, >= 10% one hop, >= 95% within one)";
    let pass = direct >= 50.0 && one >= 10.0 && direct + one >= 95.0;
    (pass, note + want)
}

/// Operations between two injected crashes.
const OPS_PER_CRASH: u64 = 300;

fn recovery(s: &Scale, out: &mut Sheet) -> Verdict {
    let rounds = s.ops / OPS_PER_CRASH;
    let mut cfg = PacTreeConfig::durable("exp-recovery").with_pool_size(s.pool_size);
    cfg.numa_pools = 1;
    let mut tree = PacTree::create(cfg.clone()).expect("create pactree");
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut model = std::collections::BTreeMap::new();
    let mut ok = 0;
    for round in 0..rounds {
        for _ in 0..OPS_PER_CRASH {
            let k: u64 = rng.gen_range(0..20_000);
            if rng.gen_bool(0.8) {
                let v: u64 = rng.gen();
                PacTree::insert(&tree, &k.to_be_bytes(), v).expect("insert");
                model.insert(k, v);
            } else {
                PacTree::remove(&tree, &k.to_be_bytes()).expect("remove");
                model.remove(&k);
            }
        }
        for p in tree.pools() {
            pmem::crash::evict_random_lines(&p, 32, &mut rng);
        }
        let pools = tree.pools();
        tree.stop_updater();
        pmem::crash::crash_all(&pools, round % 5 == 0);
        drop(tree);
        tree = PacTree::recover(cfg.clone()).expect("recover pactree");
        let gone = |(k, v): &(&u64, &u64)| tree.lookup(&k.to_be_bytes()) != Some(**v);
        let lost: Vec<&u64> = model.iter().filter(gone).map(|(k, _)| k).collect();
        if !lost.is_empty() {
            println!("round {round}: keys {lost:?} LOST");
        }
        tree.check_invariants();
        ok += u64::from(lost.is_empty());
    }
    tree.destroy();
    out.table("", "index", &["rounds", "recovered"]);
    out.row("PACTree", &[rounds as f64, ok as f64]);
    recovery_verdict(ok, rounds)
}

fn recovery_verdict(recovered: u64, rounds: u64) -> Verdict {
    let note = format!("{recovered}/{rounds} recoveries verified (want all)");
    (recovered == rounds && rounds > 0, note)
}

fn directory(_: &Scale, out: &mut Sheet) -> Verdict {
    let (size, reads) = (64usize << 20, 1_000_000);
    let cols = ["media read MB", "directory write MB", "ratio"];
    out.table("", "coherence", &cols);
    let mut written = Vec::new();
    for coherence in [CoherenceMode::Directory, CoherenceMode::Snoop] {
        let name = format!("exp-dir-{coherence:?}");
        let pool = PmemPool::create(PoolConfig::volatile(&name, size).on_node(1)).expect("pool");
        pmem::numa::pin_thread(0); // reader on node 0, media on node 1
        let mut cfg = NvmModelConfig::accounting();
        cfg.coherence = coherence;
        cfg.cpu_cache_lines = 0; // pure random working set >> cache
        let d = with_model(&cfg, || {
            let (before, mut rng) = (pool.stats().snapshot(), StdRng::seed_from_u64(11));
            for _ in 0..reads {
                model::on_read(pool.id(), rng.gen_range(0..size as u64 / 64) * 64, 64);
            }
            pool.stats().snapshot().since(&before)
        });
        destroy_pool(pool.id());
        let read = d.media_read_bytes as f64 / 1e6;
        let write = d.directory_write_bytes as f64 / 1e6;
        let label = format!("{coherence:?}");
        out.row(&label, &[read, write, ratio(write, read)]);
        written.push(write);
    }
    directory_verdict(written[0], written[1])
}

fn directory_verdict(directory_mb: f64, snoop_mb: f64) -> Verdict {
    let note = format!("directory writes {directory_mb:.1} MB under directory, {snoop_mb:.1} MB");
    let pass = directory_mb > 0.0 && snoop_mb == 0.0;
    (pass, note + " under snoop (want > 0 and 0)")
}

fn alloc(s: &Scale, out: &mut Sheet) -> Verdict {
    let threads = s.max_threads().min(28);
    out.table("", "index", &["alloc-time %", "allocs/op", "Mops/s"]);
    let mut pct = Vec::new();
    for kind in [
        IndexKind::FastFair,
        IndexKind::PdlArt,
        IndexKind::BzTree,
        IndexKind::PacTree,
    ] {
        let idx = fresh(kind, &format!("exp-alloc-{}", kind.name()), INT, s);
        // No latency model: this compares real CPU time in the allocator.
        let (off, w) = (NvmModelConfig::disabled(), Workload::uniform(Mix::LoadA, 0));
        let r = measure(&idx, &off, &w, INT, threads, s.ops);
        idx.destroy();
        let busy_ns = r.seconds * 1e9 * threads as f64;
        pct.push(100.0 * r.stats.alloc_ns as f64 / busy_ns.max(1.0));
        let per_op = r.stats.allocs as f64 / r.ops.max(1) as f64;
        out.row(kind.name(), &[pct[pct.len() - 1], per_op, r.mops]);
    }
    alloc_verdict(pct[0], pct[1], pct[2])
}

fn alloc_verdict(fastfair: f64, pdl_art: f64, bztree: f64) -> Verdict {
    let note = format!("FastFair {fastfair:.1}%, PDL-ART {pdl_art:.1}%, BzTree {bztree:.1}%");
    let pass = fastfair <= pdl_art && pdl_art <= bztree;
    (pass, note + " (want ascending)")
}

fn eadr(s: &Scale, out: &mut Sheet) -> Verdict {
    let kinds = [IndexKind::PacTree, IndexKind::FastFair, IndexKind::PdlArt];
    let eadr = NvmModelConfig::optane_eadr_dilated(CoherenceMode::Snoop, s.dilation);
    let (models, threads) = ([optane(s), eadr], s.max_threads().min(16));
    out.table("", "index", &["ADR Mops/s", "eADR Mops/s", "speedup"]);
    let mut by_model = [Vec::new(), Vec::new()];
    for kind in kinds {
        for (i, model) in models.iter().enumerate() {
            let idx = loaded(kind, &format!("eadr-{}-{i}", kind.name()), INT, s);
            let w = Workload::zipfian(Mix::A, s.keys);
            by_model[i].push(measure(&idx, model, &w, INT, threads, s.ops).mops);
            idx.destroy();
        }
        let (adr, eadr) = (last(&by_model[0]), last(&by_model[1]));
        out.row(kind.name(), &[adr, eadr, ratio(eadr, adr)]);
    }
    eadr_verdict(&kinds, &by_model[0], &by_model[1])
}

fn eadr_verdict(kinds: &[IndexKind], adr: &[f64], eadr: &[f64]) -> Verdict {
    let order = |m: &[f64]| {
        let mut ranked: Vec<usize> = (0..m.len()).collect();
        ranked.sort_by(|&a, &b| m[b].total_cmp(&m[a]));
        let names: Vec<&str> = ranked.iter().map(|&i| kinds[i].name()).collect();
        names.join(" > ")
    };
    let speedup = |i: usize| (kinds[i].name(), ratio(eadr[i], adr[i]));
    let speedups: Vec<(&str, f64)> = (0..kinds.len()).map(speedup).collect();
    let (before, after) = (order(adr), order(eadr));
    let pass = speedups.iter().all(|&(_, r)| r >= 1.0) && before == after;
    let gains = ratios(&speedups);
    let note = format!("eADR/ADR {gains} (want >= 1); order ADR {before}, eADR {after}");
    (pass, note + " (want the same)")
}

/// Keys loaded before each `restart` recovery, at every scale: recovery
/// time grows with the keys to rebuild, and at `--quick`'s 8 000 keys both
/// recoveries are too short to order run after run.
const RESTART_KEYS: u64 = 100_000;

fn restart(s: &Scale, out: &mut Sheet) -> Verdict {
    let keys = RESTART_KEYS;
    let (probe, want) = (INT.encode(keys / 2), Some(keys / 2 + 1));
    out.table(&format!("{keys} keys"), "index", &["recover ms"]);
    // PACTree: drop the instance, recover from the pools (log replay plus a
    // generation bump).
    let cfg = PacTreeConfig::named("rt-pac").with_pool_size(s.pool_size);
    let t = PacTree::create(cfg.clone()).expect("create pactree");
    driver::populate(&t, INT, keys, 4);
    t.stop_updater();
    drop(t);
    let t0 = Instant::now();
    let t = PacTree::recover(cfg).expect("recover pactree");
    let pac_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(t.lookup(&probe), want, "PACTree lost a key");
    t.destroy();
    out.row("PACTree", &[pac_ms]);
    // FPTree: same data volume, inner structure rebuilt from the leaf chain.
    let fp = FpTree::create("rt-fp", s.pool_size, false).expect("create fptree");
    driver::populate(&fp, INT, keys, 4);
    drop(fp);
    let t0 = Instant::now();
    let fp = FpTree::recover("rt-fp").expect("recover fptree");
    let fp_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(RangeIndex::lookup(&fp, &probe), want, "FPTree lost a key");
    fp.destroy();
    out.row("FPTree", &[fp_ms]);
    restart_verdict(pac_ms, fp_ms)
}

fn restart_verdict(pactree_ms: f64, fptree_ms: f64) -> Verdict {
    let r = ratio(fptree_ms, pactree_ms);
    let note = format!("FPTree/PACTree recovery time {r:.2}x (want >= 1)");
    (r >= 1.0, note)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn passes((pass, note): Verdict) -> bool {
        assert!(!note.is_empty());
        pass
    }

    #[test]
    fn op_shares_sum_to_the_requested_total() {
        for (total, threads) in [(3_000, 7), (10, 4), (5, 8), (29_999, 16), (0, 3), (12, 1)] {
            let shares: Vec<u64> = (0..threads).map(|t| share(total, threads, t)).collect();
            assert_eq!(shares.iter().sum::<u64>(), total, "{total} over {threads}");
            let (lo, hi) = (shares.iter().min().unwrap(), shares.iter().max().unwrap());
            assert!(hi - lo <= 1, "{total} over {threads}: {shares:?}");
        }
    }

    #[test]
    fn sheet_json_quotes_labels_and_nulls_non_finite_values() {
        let mut sheet = Sheet::default();
        sheet.table("W-A", "index", &["p50"]);
        sheet.row("a\"b", &[0.5, f64::NAN]);
        let want = r#"[{"title":"W-A","columns":["p50"],"rows":{"a\"b":[0.5,null]}}]"#;
        assert_eq!(sheet.json(), want);
    }

    #[test]
    fn defects_name_gaps_non_finite_values_and_falling_fig13_percentiles() {
        assert_eq!(defects("fig02", &Sheet::default()), ["no tables"]);
        let mut sheet = Sheet::default();
        sheet.table("W-A", "index", &["p50", "p99"]);
        sheet.row("a", &[1.0, 2.0]);
        assert!(defects("fig02", &sheet).is_empty());
        sheet.row("b", &[1.0]);
        sheet.row("c", &[1.0, f64::INFINITY]);
        sheet.table("W-B", "index", &["p50"]);
        let got = defects("fig02", &sheet);
        assert_eq!(got.len(), 3, "{got:?}");
        assert!(got[2].contains("no rows"), "{got:?}");

        let mut sheet = Sheet::default();
        sheet.table("W-A", "index (us)", &["p50", "p99"]);
        for kind in IndexKind::all() {
            sheet.row(kind.name(), &[1.0, 2.0]);
        }
        assert!(defects("fig13", &sheet).is_empty());
        sheet.table("W-E", "index (us)", &["p50", "p99"]);
        sheet.row("PACTree", &[2.0, 1.0]);
        let got = defects("fig13", &sheet);
        assert_eq!(
            got.len(),
            5,
            "one falling row, four missing indexes: {got:?}"
        );
        assert!(got[0].contains("percentiles fall"), "{got:?}");
    }

    #[test]
    fn fig02_snoop_must_not_trail_directory_at_max_threads() {
        assert!(passes(fig02_verdict(1.5, 3.0)));
        assert!(!passes(fig02_verdict(1.5, 1.4)));
    }

    #[test]
    fn fig03_transient_allocator_is_faster() {
        assert!(passes(fig03_verdict(2.0, 1.0)));
        assert!(!passes(fig03_verdict(0.9, 1.0)));
    }

    #[test]
    fn fig04_btree_reads_more_and_trie_is_faster() {
        assert!(passes(fig04_verdict([1.0, 7.7], [3.7, 1.0])));
        assert!(!passes(fig04_verdict([1.0, 7.7], [0.5, 1.0])));
    }

    #[test]
    fn fig05_fastfair_scans_faster_with_fewer_reads() {
        assert!(passes(fig05_verdict([1.5, 1.0], [1.0, 1.6])));
        assert!(!passes(fig05_verdict([1.5, 2.0], [1.0, 1.6])));
    }

    #[test]
    fn fig06_aborts_rise_with_threads_and_size() {
        assert!(passes(fig06_verdict(&[0.1, 0.2, 0.4], &[0.2, 0.5, 1.0])));
        assert!(!passes(fig06_verdict(&[0.1, 0.3, 0.2], &[0.2, 0.5, 1.0])));
        assert!(!passes(fig06_verdict(&[0.1, 0.2, 0.4], &[0.1, 0.1, 0.3])));
    }

    fn at_max(rows: &[(&'static str, &[(IndexKind, f64)])]) -> AtMax {
        rows.iter().map(|(m, r)| (*m, r.to_vec())).collect()
    }

    #[test]
    fn fig09_pactree_wins_every_mix() {
        use IndexKind::*;
        let win = at_max(&[
            (
                "W-A",
                &[
                    (PacTree, 4.0),
                    (PdlArt, 1.0),
                    (BzTree, 1.0),
                    (FastFair, 2.0),
                ],
            ),
            (
                "W-C",
                &[
                    (PacTree, 3.2),
                    (PdlArt, 3.2),
                    (BzTree, 1.0),
                    (FastFair, 1.0),
                ],
            ),
        ]);
        assert!(passes(fig09_verdict(&win)));
        let lose = at_max(&[("W-A", &[(PacTree, 1.0), (PdlArt, 1.0), (FastFair, 1.1)])]);
        assert!(!passes(fig09_verdict(&lose)));
    }

    #[test]
    fn fig10_exempts_fptree_on_read_only_c_only() {
        use IndexKind::*;
        let lineup = |mix| {
            let r = [
                (PacTree, 1.0),
                (PdlArt, 0.9),
                (BzTree, 0.5),
                (FastFair, 0.5),
                (FpTree, 1.2),
            ];
            vec![(mix, r.to_vec())]
        };
        assert!(passes(fig10_verdict(&lineup("W-C"))));
        assert!(!passes(fig10_verdict(&lineup("W-A"))));
    }

    #[test]
    fn fig11_pactree_leads_pdl_art() {
        use IndexKind::*;
        let lead = at_max(&[("W-B", &[(PacTree, 1.5), (PdlArt, 1.0), (FpTree, 2.0)])]);
        assert!(passes(fig11_verdict(&lead)));
        let trail = at_max(&[("W-B", &[(PacTree, 0.9), (PdlArt, 1.0), (FpTree, 0.1)])]);
        assert!(!passes(fig11_verdict(&trail)));
    }

    #[test]
    fn fig12_full_design_beats_art_and_dram_gains_little() {
        let m = ["L-A", "W-C"];
        assert!(passes(fig12_verdict(
            &m,
            &[1.0, 1.0],
            &[2.0, 0.9],
            &[2.1, 0.95]
        )));
        assert!(!passes(fig12_verdict(
            &m,
            &[1.0, 1.0],
            &[0.9, 1.0],
            &[0.9, 1.0]
        )));
        assert!(!passes(fig12_verdict(
            &m,
            &[1.0, 1.0],
            &[2.0, 1.0],
            &[2.5, 1.0]
        )));
    }

    #[test]
    fn fig13_pactree_lowest_on_writes_fptree_highest_on_scans() {
        // IndexKind::all() order: PACTree, PDL-ART, BzTree, FastFair, FPTree.
        let w_e = [5.0, 6.0, 7.0, 8.0, 20.0];
        assert!(passes(fig13_verdict(
            &[10.0, 200.0, 300.0, 50.0, 40.0],
            &w_e
        )));
        assert!(!passes(fig13_verdict(
            &[2293.0, 11.0, 368.0, 79.0, 41.0],
            &w_e
        )));
        let w_e = [88.0, 129.0, 335.0, 56.0, 39.0];
        assert!(!passes(fig13_verdict(
            &[10.0, 200.0, 300.0, 50.0, 40.0],
            &w_e
        )));
    }

    #[test]
    fn fig14_pactree_similar_or_better_single_threaded() {
        assert!(passes(fig14_verdict(
            &[("W-A", 0.95), ("W-C", 3.0)],
            &[("W-A", 1.2)]
        )));
        assert!(!passes(fig14_verdict(&[("W-A", 0.95)], &[("W-E", 0.7)])));
    }

    #[test]
    fn fig15_update_gains_with_skew_more_than_insert() {
        let update = [vec![1.0, 1.3], vec![2.0, 2.5]];
        let flat = [vec![1.0, 1.0], vec![2.0, 2.1]];
        assert!(passes(fig15_verdict(&[8, 16], &update, &flat)));
        let steeper = [vec![1.0, 1.0], vec![2.0, 3.0]];
        assert!(!passes(fig15_verdict(&[8, 16], &update, &steeper)));
        assert!(!passes(fig15_verdict(
            &[8],
            &[vec![1.0, 0.8]],
            &[vec![1.0, 0.5]]
        )));
    }

    #[test]
    fn jump_needs_a_visible_one_hop_share() {
        assert!(passes(jump_verdict(&[68.0, 30.0, 2.0])));
        assert!(!passes(jump_verdict(&[99.9, 0.1])));
    }

    #[test]
    fn recovery_needs_every_round() {
        assert!(passes(recovery_verdict(100, 100)));
        assert!(!passes(recovery_verdict(99, 100)));
    }

    #[test]
    fn directory_writes_only_under_directory_coherence() {
        assert!(passes(directory_verdict(481.0, 0.0)));
        assert!(!passes(directory_verdict(481.0, 3.0)));
    }

    #[test]
    fn alloc_share_ordered_fastfair_pdl_bztree() {
        assert!(passes(alloc_verdict(2.0, 20.0, 40.0)));
        assert!(!passes(alloc_verdict(2.0, 40.0, 20.0)));
    }

    #[test]
    fn eadr_gains_everywhere_and_keeps_the_order() {
        let kinds = [IndexKind::PacTree, IndexKind::FastFair, IndexKind::PdlArt];
        assert!(passes(eadr_verdict(
            &kinds,
            &[3.0, 2.0, 1.0],
            &[4.0, 2.5, 1.5]
        )));
        assert!(!passes(eadr_verdict(
            &kinds,
            &[3.0, 2.0, 1.0],
            &[3.1, 3.5, 1.5]
        )));
        assert!(!passes(eadr_verdict(
            &kinds,
            &[3.0, 2.0, 1.0],
            &[2.9, 2.5, 1.5]
        )));
    }

    #[test]
    fn restart_pactree_recovers_faster() {
        assert!(passes(restart_verdict(1.0, 50.0)));
        assert!(!passes(restart_verdict(50.0, 1.0)));
    }
}
