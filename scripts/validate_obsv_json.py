#!/usr/bin/env python3
"""Schema validation for the observability JSON artifacts (CI smoke job).

Usage: validate_obsv_json.py results/figures.json results/obsv_report.json \\
           results/trace_chrome.json

Validates by the embedded "schema" tag:

* ``figures/v1`` — the paper's evaluation from ``figures``. Every row needs
  an id, the paper's claim, a verdict (PASS or DIVERGES) with a note, and
  numbers: tables whose rows carry one finite value per column. The fig13
  row must list all five indexes per mix with monotone percentiles
  (p50 <= p90 <= ... <= p99.99).
* ``obsv_report/v1`` — registry time series. Needs a non-empty sample
  list; every sample carries ts_ns/gauges/hists; the final (post-quiesce)
  sample must show the SMO replay-lag, epoch-backlog (count and age) and
  MVCC (live snapshots, version-chain length) gauges drained to zero, the
  structural node gauges (count, occupancy) sane, and the pmem gauges
  present; somewhere in the series a snapshot must have been live (the
  report's MVCC exercise).
* ``trace_chrome/v1`` — Chrome trace-event JSON from ``trace-report``.
  Every complete ("X") event needs ts/dur/pid/tid and span args; every
  trace (pid) needs a root span whose interval covers its children.
* ``slo_events/v1`` — one JSON object per line from an
  ``obsv::SloEngine`` or ``obsv::fleet::FleetScraper`` event sink;
  fire/clear must alternate per objective, starting with fire, with
  monotone timestamps.
* tsdb dumps (``.jsonl`` lines with ``ts_ns``/``gauges``/``hists`` and
  no ``schema`` tag) — from ``Tsdb::dump_jsonl``; timestamps must be
  monotone. If SLO gauges are present, some
  ``slo.*.firing`` gauge must both fire and end clear (the health-demo
  alert episode).
* ``.txt`` files — Prometheus text exposition from the health endpoint:
  well-formed ``# TYPE``/sample lines, the scrape timestamp family, and
  sane ``slo_firing`` values when present.

``.jsonl`` files are dispatched by the ``schema`` tag of their first
line (``slo_events/v1``, or none -> tsdb dump).
"""

import json
import sys

INDEXES = ["PACTree", "PDL-ART", "BzTree", "FastFair", "FPTree"]
HIST_KEYS = ["count", "mean", "p50", "p90", "p99", "p999", "p9999", "max"]
PERCENTILE_ORDER = ["p50", "p90", "p99", "p999", "p9999", "max"]


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def check_hist(h, where):
    for k in HIST_KEYS:
        if not isinstance(h.get(k), (int, float)):
            fail(f"{where}: missing/non-numeric '{k}': {h.get(k)!r}")
    seq = [h[k] for k in PERCENTILE_ORDER]
    if seq != sorted(seq):
        fail(f"{where}: percentiles not monotone: {seq}")
    if h["count"] < 0:
        fail(f"{where}: negative count")


def validate_figures(doc, path):
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        fail(f"{path}: empty or missing 'rows'")
    ids = [r.get("id") for r in rows]
    if len(set(ids)) != len(ids):
        fail(f"{path}: duplicate row ids {ids}")
    for r in rows:
        where = f"{path}: row {r.get('id')!r}"
        for k in ["id", "claim", "note"]:
            if not isinstance(r.get(k), str) or not r[k]:
                fail(f"{where}: missing '{k}'")
        if r.get("verdict") not in ("PASS", "DIVERGES"):
            fail(f"{where}: verdict {r.get('verdict')!r} (want PASS or DIVERGES)")
        tables = r.get("numbers")
        if not isinstance(tables, list) or not tables:
            fail(f"{where}: no numbers")
        for t in tables:
            if not t.get("rows"):
                fail(f"{where}: table {t.get('title')!r} has no rows")
            for label, values in t["rows"].items():
                if len(values) != len(t["columns"]) or not all(
                        isinstance(v, (int, float)) for v in values):
                    fail(f"{where}: {label!r} = {values} does not fill {t['columns']}")
        if r["id"] == "fig13":
            for t in tables:
                for idx in INDEXES:
                    seq = t["rows"].get(idx)
                    if seq is None:
                        fail(f"{where}: mix {t['title']} missing index {idx}")
                    if seq != sorted(seq):
                        fail(f"{where}: {t['title']}/{idx} percentiles not monotone: {seq}")
    print(f"OK: {path} (figures/v1, {len(rows)} rows)")


def validate_report(doc, path):
    samples = doc.get("samples")
    if not isinstance(samples, list) or not samples:
        fail(f"{path}: empty or missing 'samples'")
    for i, s in enumerate(samples):
        for k in ["ts_ns", "gauges", "hists"]:
            if k not in s:
                fail(f"{path}: sample {i} missing '{k}'")
    final = samples[-1]
    gauges = final["gauges"]
    if not any(k.startswith("pmem.") for k in gauges):
        fail(f"{path}: final sample has no pmem.* gauges")
    for drained in ["smo.pending", "epoch.backlog", "epoch.backlog_age_ns",
                    "mvcc.live_snapshots", "mvcc.chain_max"]:
        matches = [k for k in gauges if k.endswith(drained)]
        if not matches:
            fail(f"{path}: final sample has no *.{drained} gauge")
        for k in matches:
            if gauges[k] != 0:
                fail(f"{path}: {k} = {gauges[k]} after quiesce (want 0)")
    counts = [k for k in gauges if k.endswith("node.count")]
    if not counts or any(gauges[k] <= 0 for k in counts):
        fail(f"{path}: final sample missing positive *.node.count gauge")
    for k in [k for k in gauges if k.endswith("node.occupancy")]:
        if not 0.0 < gauges[k] <= 1.0:
            fail(f"{path}: {k} = {gauges[k]} not a fraction in (0, 1]")
    # The report holds a snapshot open across part of the run, so the MVCC
    # gauges must have moved somewhere in the series, not just existed.
    if not any(v > 0 for s in samples
               for k, v in s["gauges"].items()
               if k.endswith("mvcc.live_snapshots")):
        fail(f"{path}: no sample ever saw a live snapshot (mvcc exercise missing)")
    if doc.get("drained") is not True:
        fail(f"{path}: quiesce reported drained={doc.get('drained')!r}")
    for source, hists in final["hists"].items():
        for kind, h in hists.items():
            check_hist(h, f"{path}: {source}/{kind}")
    print(f"OK: {path} (obsv_report/v1, {len(samples)} samples)")


STALL_KINDS = ["read", "flush", "fence", "throttle"]
SPAN_KINDS = ["root", "admission", "queue", "batch", "index_op", "smo", "epoch",
              "rpc_call", "map_refresh", "bounce_resend", "migrate_phase",
              "remote"]


def validate_trace_chrome(doc, path):
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: empty or missing 'traceEvents'")
    spans = [e for e in events if e.get("ph") == "X"]
    if not spans:
        fail(f"{path}: no complete ('X') span events")
    by_pid = {}
    for i, e in enumerate(spans):
        where = f"{path}: event {i} ({e.get('name')!r})"
        if e.get("name") not in SPAN_KINDS:
            fail(f"{where}: unknown span name")
        for k in ["ts", "dur", "pid", "tid"]:
            if not isinstance(e.get(k), (int, float)):
                fail(f"{where}: missing/non-numeric '{k}'")
        if e["dur"] < 0:
            fail(f"{where}: negative duration")
        args = e.get("args")
        if not isinstance(args, dict):
            fail(f"{where}: missing 'args'")
        for k in ["trace_id", "span_id", "parent"] + [f"stall_{s}_ns" for s in STALL_KINDS]:
            if not isinstance(args.get(k), int):
                fail(f"{where}: args missing/non-integer '{k}'")
        by_pid.setdefault(e["pid"], []).append(e)
    for pid, evs in by_pid.items():
        roots = [e for e in evs if e["name"] == "root"]
        if len(roots) != 1:
            fail(f"{path}: pid {pid} has {len(roots)} root spans (want 1)")
        root = roots[0]
        r0, r1 = root["ts"], root["ts"] + root["dur"]
        for e in evs:
            # 1us slack: ts/dur are microseconds rounded to 3 decimals.
            if e["ts"] < r0 - 1.0 or e["ts"] + e["dur"] > r1 + 1.0:
                fail(
                    f"{path}: pid {pid} span {e['name']!r} "
                    f"[{e['ts']}, {e['ts'] + e['dur']}] outside root [{r0}, {r1}]"
                )
    print(f"OK: {path} (trace_chrome/v1, {len(by_pid)} traces, {len(spans)} spans)")


def jsonl_lines(path):
    with open(path) as f:
        raw = [ln for ln in f.read().splitlines() if ln.strip()]
    if not raw:
        fail(f"{path}: empty jsonl file")
    out = []
    for i, ln in enumerate(raw):
        try:
            out.append((i + 1, json.loads(ln)))
        except json.JSONDecodeError as e:
            fail(f"{path}: line {i + 1} is not valid JSON: {e}")
    return out


def validate_slo_events(path):
    lines = jsonl_lines(path)
    last_event = {}
    last_ts = 0
    for n, doc in lines:
        where = f"{path}: line {n}"
        if doc.get("schema") != "slo_events/v1":
            fail(f"{where}: bad schema {doc.get('schema')!r}")
        if not isinstance(doc.get("slo"), str) or not doc["slo"]:
            fail(f"{where}: missing 'slo'")
        if doc.get("event") not in ("fire", "clear"):
            fail(f"{where}: event {doc.get('event')!r} (want fire|clear)")
        if not isinstance(doc.get("ts_ns"), int) or doc["ts_ns"] < last_ts:
            fail(f"{where}: ts_ns {doc.get('ts_ns')!r} not monotone")
        last_ts = doc["ts_ns"]
        for k in ["burn_fast", "burn_slow", "burn_threshold"]:
            if not isinstance(doc.get(k), (int, float)) or doc[k] < 0:
                fail(f"{where}: missing/invalid '{k}': {doc.get(k)!r}")
        slo = doc["slo"]
        expected = "clear" if last_event.get(slo) == "fire" else "fire"
        if doc["event"] != expected:
            fail(f"{where}: {slo} got '{doc['event']}' (want '{expected}': "
                 f"fire/clear must alternate, starting with fire)")
        last_event[slo] = doc["event"]
    print(f"OK: {path} (slo_events/v1, {len(lines)} transitions, "
          f"{len(last_event)} objectives)")


def validate_tsdb_dump(path):
    lines = jsonl_lines(path)
    last_ts = 0
    samples = 0
    firing = {}
    for n, doc in lines:
        where = f"{path}: line {n}"
        for k in ["ts_ns", "gauges", "hists"]:
            if k not in doc:
                fail(f"{where}: sample missing '{k}'")
        if not isinstance(doc["ts_ns"], int) or doc["ts_ns"] < last_ts:
            fail(f"{where}: ts_ns not monotone")
        last_ts = doc["ts_ns"]
        samples += 1
        for k, v in doc["gauges"].items():
            if k.startswith("slo.") and k.endswith(".firing"):
                firing.setdefault(k, []).append(v)
    if samples == 0:
        fail(f"{path}: no samples")
    if firing:
        # The alert episode must be visible: some objective fired inside
        # the retained window and every objective ended clear.
        if not any(any(v > 0.5 for v in vs) for vs in firing.values()):
            fail(f"{path}: slo firing gauges present but none ever fired")
        for k, vs in firing.items():
            if vs[-1] > 0.5:
                fail(f"{path}: {k} still firing in the final sample")
    note = f", {len(firing)} slo objectives" if firing else ""
    print(f"OK: {path} (tsdb dump, {samples} samples{note})")


PROM_TYPES = ("gauge", "counter", "summary", "histogram", "untyped")


def validate_prom_text(path):
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    if not lines:
        fail(f"{path}: empty exposition")
    families = set()
    samples = 0
    for n, ln in enumerate(lines, 1):
        where = f"{path}: line {n}"
        if ln.startswith("# TYPE "):
            parts = ln.split()
            if len(parts) != 4 or parts[3] not in PROM_TYPES:
                fail(f"{where}: malformed TYPE line: {ln!r}")
            families.add(parts[2])
            continue
        if ln.startswith("#"):
            continue
        name_labels, _, value = ln.rpartition(" ")
        if not name_labels:
            fail(f"{where}: sample line has no value: {ln!r}")
        try:
            v = float(value)
        except ValueError:
            fail(f"{where}: non-numeric value {value!r}")
        name = name_labels.split("{", 1)[0]
        if not name or not all(c.isalnum() or c in "_:" for c in name):
            fail(f"{where}: invalid metric name {name!r}")
        samples += 1
        if name == "slo_firing" and v not in (0.0, 1.0):
            fail(f"{where}: slo_firing must be 0 or 1, got {v}")
    if "obsv_scrape_timestamp_ns" not in families:
        fail(f"{path}: missing obsv_scrape_timestamp_ns family")
    if len(families) < 2 or samples < 2:
        fail(f"{path}: exposition carries no metrics beyond the timestamp")
    print(f"OK: {path} (prometheus text, {len(families)} families, "
          f"{samples} samples)")


def main():
    if len(sys.argv) < 2:
        fail("usage: validate_obsv_json.py <file.json|file.jsonl|file.txt>...")
    for path in sys.argv[1:]:
        if path.endswith(".txt"):
            validate_prom_text(path)
            continue
        if path.endswith(".jsonl"):
            _, first = jsonl_lines(path)[0]
            schema = first.get("schema")
            if schema == "slo_events/v1":
                validate_slo_events(path)
            elif schema is None:
                validate_tsdb_dump(path)
            else:
                fail(f"{path}: unknown jsonl schema {schema!r}")
            continue
        with open(path) as f:
            doc = json.load(f)
        schema = doc.get("schema")
        if schema == "figures/v1":
            validate_figures(doc, path)
        elif schema == "obsv_report/v1":
            validate_report(doc, path)
        elif schema == "trace_chrome/v1":
            validate_trace_chrome(doc, path)
        else:
            fail(f"{path}: unknown schema {schema!r}")
    print("all observability artifacts valid")


if __name__ == "__main__":
    main()
