//! Prometheus text exposition of a registry [`Sample`].
//!
//! The page the plain-HTTP `GET /metrics` listener serves;
//! [`crate::fleet::FleetScraper`] parses it back. Output follows the
//! Prometheus text format (version 0.0.4): dotted registry names are
//! sanitized to `[a-zA-Z0-9_:]`, scalar gauges become `gauge` families,
//! and histogram sources become `summary` families labelled by op kind
//! (values in nanoseconds).

use crate::recorder::OpKind;
use crate::registry::Sample;

/// Quantiles exported per op-kind summary.
const QUANTILES: [(f64, &str); 4] = [
    (0.50, "0.5"),
    (0.90, "0.9"),
    (0.99, "0.99"),
    (0.999, "0.999"),
];

/// Maps an arbitrary registry name onto the Prometheus metric-name
/// alphabet `[a-zA-Z0-9_:]` (leading digits get a `_` prefix; every
/// other illegal char becomes `_`).
fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, ch) in name.chars().enumerate() {
        if i == 0 && ch.is_ascii_digit() {
            out.push('_');
        }
        if ch.is_ascii_alphanumeric() || ch == '_' || ch == ':' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Renders one scrape: every gauge and every histogram source (as a
/// summary, values in ns). The output is a complete Prometheus text-format
/// page.
pub fn render(sample: &Sample) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("# TYPE obsv_scrape_timestamp_ns gauge\n");
    out.push_str(&format!("obsv_scrape_timestamp_ns {}\n", sample.ts_ns));

    for (name, v) in &sample.gauges {
        let n = sanitize_metric_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
    }

    for (source, set) in &sample.hists {
        let n = sanitize_metric_name(&format!("{source}_latency_ns"));
        out.push_str(&format!("# TYPE {n} summary\n"));
        for kind in OpKind::ALL {
            let h = set.get(kind);
            if h.count() == 0 {
                continue;
            }
            let op = kind.name();
            for (q, label) in QUANTILES {
                out.push_str(&format!(
                    "{n}{{op=\"{op}\",quantile=\"{label}\"}} {}\n",
                    h.quantile(q)
                ));
            }
            out.push_str(&format!("{n}_count{{op=\"{op}\"}} {}\n", h.count()));
            out.push_str(&format!("{n}_sum{{op=\"{op}\"}} {}\n", h.sum()));
            // Cumulative bucket lines keyed by exact bucket *lower* edge
            // (not a rounded `le` bound): successive differences plus
            // `hist::from_bucket_rows` rebuild the snapshot losslessly,
            // which is how a fleet scraper merges nodes into exact
            // cluster-wide percentiles.
            let mut cum = 0u64;
            for (low, _, count) in h.nonzero_buckets() {
                cum += count;
                out.push_str(&format!("{n}_bucket{{op=\"{op}\",le=\"{low}\"}} {cum}\n"));
            }
            out.push_str(&format!("{n}_bucket{{op=\"{op}\",le=\"+Inf\"}} {cum}\n"));
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::OpHistograms;
    use std::collections::BTreeMap;

    #[test]
    fn sanitizes_names() {
        assert_eq!(
            sanitize_metric_name("pactree.t.smo.pending"),
            "pactree_t_smo_pending"
        );
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("a:b_c1"), "a:b_c1");
        assert_eq!(sanitize_metric_name(""), "_");
    }

    #[test]
    fn renders_gauges_and_summaries() {
        let ops = OpHistograms::new();
        ops.record(OpKind::Lookup, 1_000);
        ops.record(OpKind::Lookup, 2_000);
        let sample = Sample {
            ts_ns: 42,
            gauges: [("svc.queue.depth".to_string(), 3.5)].into_iter().collect(),
            hists: [("svc".to_string(), ops.snapshot())]
                .into_iter()
                .collect::<BTreeMap<_, _>>(),
        };
        let text = render(&sample);
        assert!(text.contains("obsv_scrape_timestamp_ns 42\n"), "{text}");
        assert!(
            text.contains("# TYPE svc_queue_depth gauge\nsvc_queue_depth 3.5\n"),
            "{text}"
        );
        assert!(text.contains("# TYPE svc_latency_ns summary\n"), "{text}");
        assert!(
            text.contains("svc_latency_ns{op=\"lookup\",quantile=\"0.99\"}"),
            "{text}"
        );
        assert!(
            text.contains("svc_latency_ns_count{op=\"lookup\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("svc_latency_ns_bucket{op=\"lookup\",le=\"+Inf\"} 2\n"),
            "{text}"
        );
        assert!(!text.contains("op=\"scan\""), "{text}");
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (head, value) = line.rsplit_once(' ').expect("line has a value");
            assert!(!head.is_empty() && value.parse::<f64>().is_ok(), "{line}");
        }
    }
}
