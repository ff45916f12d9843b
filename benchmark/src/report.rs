//! What a run prints and stores, and `diff`: two stored runs compared
//! metric by metric against the bounds the catalogue fixes.

use crate::catalogue::{self, Better, EndToEnd, PerLayer, DEMOTED, END_TO_END, LADDER};
use crate::json::Value;
use crate::ladder::Ladder;
use crate::workloads::Outcome;

pub const SCHEMA: &str = "pacbench/v1";

/// One end-to-end value as stored: metrics timed over slices (or over the
/// run's set-ups) carry their spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub spread: Option<f64>,
}

fn sliced(s: crate::stats::SliceStat) -> Measured {
    Measured {
        value: s.median,
        spread: Some(s.spread),
    }
}

/// The bounded scoreboard of one workload, in catalogue order.
pub fn end_to_end_values(o: &Outcome) -> Vec<(&'static EndToEnd, Measured)> {
    END_TO_END
        .iter()
        .map(|m| {
            let single = |value| Measured {
                value,
                spread: None,
            };
            let v = match m.name {
                "setup_s" => sliced(o.setup_s),
                "rss_mb" => single(o.rss_mb),
                "space_amp" => single(o.space_amp),
                other => unreachable!("no value for {other}"),
            };
            (m, v)
        })
        .collect()
}

/// The timed scoreboard of one workload: measured like the rest, not bounded.
pub fn demoted_values(o: &Outcome) -> Vec<(&'static PerLayer, Measured)> {
    DEMOTED
        .iter()
        .map(|m| {
            let v = match m.name {
                "workload.ops_per_s" => o.ops_per_s,
                "workload.p50_us" => o.p50_us,
                "workload.p99_us" => o.p99_us,
                other => unreachable!("no value for {other}"),
            };
            (m, sliced(v))
        })
        .collect()
}

fn metric_json(value: f64, unit: &str, spread: Option<f64>) -> Value {
    let mut fields = vec![
        ("value", Value::Num(value)),
        ("unit", Value::Str(unit.to_string())),
    ];
    if let Some(s) = spread {
        fields.push(("spread", Value::Num(s)));
    }
    Value::obj(fields)
}

/// The bounded scoreboard as stored (`with_spread`) or as the driver reads
/// it (exactly `value` and `unit` per metric).
pub fn end_to_end_json(o: &Outcome, with_spread: bool) -> Value {
    Value::obj(end_to_end_values(o).into_iter().map(|(m, v)| {
        let spread = v.spread.filter(|_| with_spread);
        (m.name, metric_json(v.value, m.unit, spread))
    }))
}

fn demoted_json(o: &Outcome, with_spread: bool) -> impl Iterator<Item = (&'static str, Value)> {
    demoted_values(o).into_iter().map(move |(m, v)| {
        let spread = v.spread.filter(|_| with_spread);
        (m.name, metric_json(v.value, m.unit, spread))
    })
}

fn ladder_fields(l: &Ladder) -> impl Iterator<Item = (&'static str, Value)> {
    l.metrics().into_iter().map(|(name, value)| {
        let unit = catalogue::ladder_metric(name).expect("catalogued").unit;
        (name, metric_json(value, unit, None))
    })
}

/// The ladder as stored.
pub fn ladder_json(l: &Ladder) -> Value {
    Value::obj(ladder_fields(l))
}

/// Every `per_layer` metric of BENCHMARK.json, as the driver reads them: the
/// ladder, then the timed scoreboard of the workload the run named.
pub fn per_layer_json(l: &Ladder, o: &Outcome) -> Value {
    Value::obj(ladder_fields(l).chain(demoted_json(o, false)))
}

pub fn print_outcome(o: &Outcome, seed: u64) {
    let why = catalogue::workload(o.name).expect("catalogued").why;
    println!("{}: {why}", o.name);
    println!(
        "{}  seed {seed}  tape {:#018x}  attempted {}  failed {}  fail_ratio {}  latency samples/slice {}",
        o.name,
        o.tape_hash,
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64,
        o.samples
    );
    let slices: Vec<String> = o
        .ops_per_s_slices
        .iter()
        .map(|v| format!("{v:.0}"))
        .collect();
    println!(
        "  ops_per_s by slice (first is warm-up): {}",
        slices.join(" ")
    );
    let rounds: Vec<String> = o.setup_s_rounds.iter().map(|v| format!("{v:.3}")).collect();
    println!("  setup_s by set-up: {}", rounds.join(" "));
    for (m, v) in end_to_end_values(o) {
        match v.spread {
            Some(s) => println!(
                "  {:<18} {:>16.3} {:<6} .spread {:.3}",
                m.name, v.value, m.unit, s
            ),
            None => println!("  {:<18} {:>16.3} {}", m.name, v.value, m.unit),
        }
    }
    for (m, v) in demoted_values(o) {
        println!(
            "  {:<18} {:>16.3} {:<6} .spread {:.3}  (no bound)",
            m.name,
            v.value,
            m.unit,
            v.spread.unwrap_or(0.0)
        );
    }
}

pub fn print_ladder(l: &Ladder) {
    println!(
        "per-layer ladder  probe kernel {}  attempted {}  failed {}",
        l.kernel, l.attempted, l.failed
    );
    for (name, value) in l.metrics() {
        let m = catalogue::ladder_metric(name).expect("catalogued");
        let exact = if m.exact { " (exact)" } else { "" };
        println!(
            "  {name:<42} {value:>14.3} {:<6}{exact}  -> {}",
            m.unit, m.moves
        );
    }
    println!("  spans kept for trace.json, by name: count, median duration, median self time");
    for (name, count, dur_ns, self_ns) in l.span_summary() {
        println!("  {name:<42} {count:>6} {dur_ns:>12.0} ns {self_ns:>12.0} ns");
    }
}

/// The stored form of one workload's run.
pub fn workload_json(o: &Outcome) -> Value {
    Value::obj([
        ("tape_hash", Value::Str(format!("{:#018x}", o.tape_hash))),
        ("attempted", Value::Num(o.attempted as f64)),
        ("failed", Value::Num(o.failed as f64)),
        ("samples", Value::Num(o.samples as f64)),
        ("unbounded", Value::obj(demoted_json(o, true))),
        ("metrics", end_to_end_json(o, true)),
    ])
}

/// The line the driver reads: last on standard output, exactly these keys.
pub fn result_line(attempted: u64, failed: u64, metrics: Value) -> String {
    Value::obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics),
    ])
    .render()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regression,
    /// A side's own slices differ by more than the bound: the run cannot
    /// tell a change of that size from its noise, so it is not "unchanged".
    Unresolved,
}

/// By what share of `a` the metric got worse going from `a` to `b`.
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn verdict(m: &EndToEnd, a: Measured, b: Measured) -> Verdict {
    if a.spread.unwrap_or(0.0) > m.bound || b.spread.unwrap_or(0.0) > m.bound {
        return Verdict::Unresolved;
    }
    let worse = worse_by(m.better, a.value, b.value);
    if worse > m.bound {
        Verdict::Regression
    } else if worse < -m.bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

#[derive(Debug, Default)]
pub struct Diff {
    pub lines: Vec<String>,
    pub regressions: usize,
    pub unresolved: usize,
    /// Exact counts that differ. Between two commits that is information;
    /// between two runs of one commit (`aa`) it is a broken promise.
    pub count_changes: usize,
}

fn measured(metrics: &Value, name: &str) -> Option<Measured> {
    let m = metrics.get(name)?;
    Some(Measured {
        value: m.get("value")?.as_f64()?,
        spread: m.get("spread").and_then(Value::as_f64),
    })
}

/// Compares stored run `b` against stored run `a`.
pub fn diff(a: &Value, b: &Value) -> Result<Diff, String> {
    for doc in [a, b] {
        if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} result file"));
        }
    }
    let mut d = Diff::default();
    let none = Value::Obj(Vec::new());
    let a_w = a.get("workloads").unwrap_or(&none);
    let b_w = b.get("workloads").unwrap_or(&none);
    for (name, wa) in a_w.fields() {
        let Some(wb) = b_w.get(name) else {
            d.lines.push(format!("{name}: only in the first file"));
            continue;
        };
        let same_tape = wa.get("tape_hash") == wb.get("tape_hash");
        d.lines.push(format!(
            "{name}  ({})",
            if same_tape {
                "same tape"
            } else {
                "DIFFERENT tapes: seeds differ"
            }
        ));
        let failed = |w: &Value| w.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        if failed(wb) > failed(wa) {
            d.regressions += 1;
            d.lines.push(format!(
                "  failed {} -> {}  regression",
                failed(wa),
                failed(wb)
            ));
        }
        let (ma, mb) = (
            wa.get("metrics").unwrap_or(&none),
            wb.get("metrics").unwrap_or(&none),
        );
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (measured(ma, m.name), measured(mb, m.name)) else {
                continue;
            };
            let v = verdict(m, va, vb);
            match v {
                Verdict::Regression => d.regressions += 1,
                Verdict::Unresolved => d.unresolved += 1,
                Verdict::Ok | Verdict::Improved => {}
            }
            d.lines.push(format!(
                "  {:<18} {:>14.3} -> {:>14.3} {:<6} worse by {:>+7.2}% (bound {:.0}%)  {}",
                m.name,
                va.value,
                vb.value,
                m.unit,
                100.0 * worse_by(m.better, va.value, vb.value),
                100.0 * m.bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Improved => "improved",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved (own spread over bound)",
                }
            ));
        }
        let (ua, ub) = (
            wa.get("unbounded").unwrap_or(&none),
            wb.get("unbounded").unwrap_or(&none),
        );
        for m in &DEMOTED {
            if let (Some(va), Some(vb)) = (measured(ua, m.name), measured(ub, m.name)) {
                d.lines.push(format!(
                    "  {:<18} {:>14.3} -> {:>14.3} {:<6} worse by {:>+7.2}% (no bound; own spreads {:.2} / {:.2})",
                    m.name,
                    va.value,
                    vb.value,
                    m.unit,
                    100.0 * worse_by(m.better, va.value, vb.value),
                    va.spread.unwrap_or(0.0),
                    vb.spread.unwrap_or(0.0),
                ));
            }
        }
    }
    let layers = |doc: &Value| doc.get("per_layer").and_then(|p| p.get("metrics")).cloned();
    if let (Some(la), Some(lb)) = (layers(a), layers(b)) {
        d.lines.push("per-layer ladder, rung by rung".to_string());
        for m in &LADDER {
            let (Some(va), Some(vb)) = (measured(&la, m.name), measured(&lb, m.name)) else {
                continue;
            };
            let note = if !m.exact {
                ""
            } else if va.value == vb.value {
                "exact: equal"
            } else {
                d.count_changes += 1;
                "exact: CHANGED"
            };
            let delta = if va.value == 0.0 {
                String::from("      -")
            } else {
                format!("{:>+7.2}%", 100.0 * (vb.value - va.value) / va.value)
            };
            d.lines.push(format!(
                "  {:<42} {:>14.3} -> {:>14.3} {:<6} {delta}  {note}",
                m.name, va.value, vb.value, m.unit
            ));
        }
    }
    let lost = |doc: &Value| {
        doc.get("durability")
            .and_then(|x| x.get("lost"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    if lost(b) > 0.0 {
        d.regressions += 1;
        d.lines.push(format!(
            "durability_lost {} -> {}  REGRESSION",
            lost(a),
            lost(b)
        ));
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn m(name: &str) -> &'static EndToEnd {
        catalogue::end_to_end(name).unwrap()
    }

    fn at(value: f64, spread: f64) -> Measured {
        Measured {
            value,
            spread: Some(spread),
        }
    }

    /// `b` worse than `a` by `share` of `a`, in the metric's own direction.
    fn worse(m: &EndToEnd, a: f64, share: f64) -> f64 {
        match m.better {
            Better::Higher => a * (1.0 - share),
            Better::Lower => a * (1.0 + share),
        }
    }

    #[test]
    fn verdict_follows_direction_and_bound() {
        for m in &END_TO_END {
            let quiet = m.bound / 5.0;
            let v = |share: f64| verdict(m, at(100.0, quiet), at(worse(m, 100.0, share), quiet));
            assert_eq!(v(m.bound * 0.9), Verdict::Ok, "{}", m.name);
            assert_eq!(v(m.bound * 1.1), Verdict::Regression, "{}", m.name);
            assert_eq!(v(-m.bound * 0.9), Verdict::Ok, "{}", m.name);
            assert_eq!(v(-m.bound * 1.1), Verdict::Improved, "{}", m.name);
        }
        // Direction, spelled out once: more throughput is never worse.
        assert_eq!(worse_by(Better::Higher, 100.0, 200.0), -1.0);
        assert_eq!(worse_by(Better::Lower, 100.0, 200.0), 1.0);
    }

    #[test]
    fn wide_slices_on_either_side_are_unresolved_not_unchanged() {
        let setup = m("setup_s");
        let (quiet, wide) = (setup.bound / 5.0, setup.bound * 1.2);
        assert_eq!(
            verdict(setup, at(100.0, wide), at(100.0, quiet)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(setup, at(100.0, quiet), at(200.0, wide)),
            Verdict::Unresolved
        );
        // Single-valued metrics have no slices and always resolve.
        let single = |value| Measured {
            value,
            spread: None,
        };
        assert_eq!(
            verdict(m("space_amp"), single(6.0), single(6.2)),
            Verdict::Regression
        );
        assert_eq!(
            verdict(m("space_amp"), single(6.0), single(6.1)),
            Verdict::Ok
        );
    }

    fn stored(setup: f64, setup_spread: f64, flushes: f64, gen_ns: f64) -> Value {
        json::parse(&format!(
            r#"{{"schema":"pacbench/v1","workloads":{{"embed_read":{{"tape_hash":"0x1","failed":0,
            "unbounded":{{"workload.ops_per_s":{{"value":{gen_ns},"unit":"1/s","spread":0.9}}}},
            "metrics":{{"setup_s":{{"value":{setup},"unit":"s","spread":{setup_spread}}},
                        "rss_mb":{{"value":800,"unit":"MB"}}}}}}}},
            "per_layer":{{"metrics":{{"pmem.flushes_per_write":{{"value":{flushes},"unit":"count"}},
                                      "ycsb.gen_ns":{{"value":{gen_ns},"unit":"ns"}}}}}},
            "durability":{{"lost":0}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn diff_counts_regressions_unresolved_and_changed_counts() {
        let base = stored(1.0, 0.03, 2.5, 100.0);
        // Unbounded values and plain rungs move freely: no verdict on them.
        let same = diff(&base, &stored(1.1, 0.03, 2.5, 40.0)).unwrap();
        assert_eq!(
            (same.regressions, same.unresolved, same.count_changes),
            (0, 0, 0)
        );
        let slow = diff(&base, &stored(1.4, 0.03, 2.5, 100.0)).unwrap();
        assert_eq!((slow.regressions, slow.unresolved), (1, 0));
        let noisy = diff(&base, &stored(1.4, 0.40, 2.5, 100.0)).unwrap();
        assert_eq!((noisy.regressions, noisy.unresolved), (0, 1));
        let fewer = diff(&base, &stored(1.0, 0.03, 2.0, 100.0)).unwrap();
        assert_eq!((fewer.regressions, fewer.count_changes), (0, 1));
        assert!(diff(&base, &Value::obj([("schema", Value::Str("other".into()))])).is_err());
    }
}
