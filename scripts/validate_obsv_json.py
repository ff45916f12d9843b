#!/usr/bin/env python3
"""Schema validation for the observability JSON artifacts (CI smoke job).

Usage: validate_obsv_json.py results/fig13_tail.json results/obsv_report.json \\
           results/trace_chrome.json

Validates by the embedded "schema" tag:

* ``fig13_tail/v1`` — per-mix, per-index, per-op-kind latency percentiles
  from the shared histogram type. All five indexes must be present for
  every mix, every histogram must carry the percentile keys, and
  percentiles must be monotone (p50 <= p90 <= ... <= max).
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
* ``bench_node_search/v2`` — SIMD probe-kernel A/B from
  ``bench-node-search``. Needs per-shape ns-per-probe for all three
  kernel sets (positive, scalar slowest), the PDL-ART ``floor`` block
  (positive ns/lookup and ns/floor with their ratio consistent and within
  the binary's <= 3 gate), the forced-SWAR vs dispatched end-to-end arms,
  and a provenance stamp with a git commit.
* ``mvcc_bench/v1`` — versioning-layer acceptance numbers from
  ``mvcc-bench``. Needs the per-size snapshot-cost rows (positive ns),
  the flatness ratio, the writer A/B block (baseline / held-snapshot /
  after-release throughput with retention and ab_ratio), the scan
  interference block, and a provenance stamp.
* ``pacsrv_bench/v2`` — service-mode throughput from ``pacsrv-bench``;
  v2 adds the ``scan_interference`` phase (writer retention under live
  vs snapshot-isolated scans through the wire protocol).
* ``obsv_overhead/v1`` — observability-overhead A/B from
  ``bench_obsv_overhead``. Needs the three toggle-arm medians plus the
  scraper arm (raw and 1 s-rescaled overhead, on/off throughput) and
  both verdicts.
* ``paccluster_bench/v1`` — cluster-rebalance acceptance numbers from
  ``paccluster-bench``. Needs the three latency windows (steady /
  migration / post, each with ops and monotone p50<=p99), migration
  accounting (pairs moved, seal/rebalance durations), the p99 ratio
  within its limit, a converged router block (final epoch >= 2, zero
  sweep bounces), per-node bounce counts, zero errors, clean=true, and
  a provenance stamp.
* ``fleet_heat/v1`` — per-partition heat telemetry from
  ``paccluster-bench``: per-partition op/byte/p99 rows, the
  rebalance-advisor verdict, and the fleet-merged-vs-direct p99 gate
  (within the documented histogram reconstruction bound).
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


def validate_fig13(doc, path):
    for k in ["keys", "ops", "threads", "dilation", "unit", "mixes"]:
        if k not in doc:
            fail(f"{path}: missing top-level '{k}'")
    if not doc["mixes"]:
        fail(f"{path}: no mixes")
    for mix, per_index in doc["mixes"].items():
        for idx in INDEXES:
            if idx not in per_index:
                fail(f"{path}: mix {mix} missing index {idx}")
            hists = per_index[idx]
            if "all" not in hists:
                fail(f"{path}: {mix}/{idx} missing merged 'all' histogram")
            for kind, h in hists.items():
                check_hist(h, f"{path}: {mix}/{idx}/{kind}")
            if hists["all"]["count"] <= 0:
                fail(f"{path}: {mix}/{idx} recorded no operations")
    print(f"OK: {path} (fig13_tail/v1, {len(doc['mixes'])} mixes x {len(INDEXES)} indexes)")


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


def validate_node_search(doc, path):
    kernel = doc.get("kernel")
    if not isinstance(kernel, str) or not kernel:
        fail(f"{path}: missing 'kernel'")
    micro = doc.get("micro_ns_per_probe")
    if not isinstance(micro, dict):
        fail(f"{path}: missing 'micro_ns_per_probe'")
    for shape in ["fp64", "node16"]:
        row = micro.get(shape)
        if not isinstance(row, dict):
            fail(f"{path}: micro missing shape '{shape}'")
        for k in ["scalar", "swar", "simd"]:
            v = row.get(k)
            if not isinstance(v, (int, float)) or v <= 0:
                fail(f"{path}: {shape}/{k} not a positive number: {v!r}")
        if row["scalar"] < row["swar"]:
            fail(f"{path}: {shape} scalar ({row['scalar']}) beat swar ({row['swar']})")
    if not isinstance(doc.get("fp64_speedup_simd_vs_swar"), (int, float)):
        fail(f"{path}: missing 'fp64_speedup_simd_vs_swar'")
    floor = doc.get("floor")
    if not isinstance(floor, dict):
        fail(f"{path}: missing 'floor'")
    if not isinstance(floor.get("anchors"), int) or floor["anchors"] <= 0:
        fail(f"{path}: floor/anchors not a positive integer")
    lookup_ns = check_num(floor, "lookup_ns", f"{path}: floor", positive=True)
    floor_ns = check_num(floor, "floor_ns", f"{path}: floor", positive=True)
    ratio = check_num(floor, "ratio", f"{path}: floor", positive=True)
    if abs(ratio - floor_ns / lookup_ns) > 0.05 * ratio:
        fail(f"{path}: floor/ratio {ratio} is not floor_ns/lookup_ns")
    if ratio > 3.0:
        fail(f"{path}: floor costs {ratio}x a lookup (bound: <= 3)")
    for arm, keys in [("ycsb_c", ["swar_mops", "simd_mops", "delta_pct"]),
                      ("scan", ["swar_mkeys", "simd_mkeys", "delta_pct"])]:
        a = doc.get(arm)
        if not isinstance(a, dict):
            fail(f"{path}: missing '{arm}'")
        for k in keys:
            if not isinstance(a.get(k), (int, float)):
                fail(f"{path}: {arm} missing/non-numeric '{k}'")
    stamp = doc.get("stamp")
    if not isinstance(stamp, dict) or not stamp.get("git_commit"):
        fail(f"{path}: missing provenance stamp with git_commit")
    print(f"OK: {path} (bench_node_search/v2, kernel {kernel}, "
          f"fp64 {doc['fp64_speedup_simd_vs_swar']}x vs swar, "
          f"floor/lookup {ratio})")


def check_num(doc, key, where, positive=False):
    v = doc.get(key)
    if not isinstance(v, (int, float)) or (positive and v <= 0):
        fail(f"{where}: missing/invalid '{key}': {v!r}")
    return v


def check_stamp(doc, path):
    stamp = doc.get("stamp")
    if not isinstance(stamp, dict) or not stamp.get("git_commit"):
        fail(f"{path}: missing provenance stamp with git_commit")


def validate_scan_interference(si, where):
    for k in ["scanners", "scan_len", "live_scans", "snapshot_scans"]:
        if not isinstance(si.get(k), int) or si[k] < 0:
            fail(f"{where}: missing/invalid '{k}': {si.get(k)!r}")
    for k in ["live_mops", "live_retention", "snapshot_mops", "snapshot_retention"]:
        check_num(si, k, where, positive=True)
    if si["live_scans"] == 0 or si["snapshot_scans"] == 0:
        fail(f"{where}: a scan mode made no progress: {si}")


def validate_mvcc_bench(doc, path):
    costs = doc.get("snapshot_cost")
    if not isinstance(costs, list) or len(costs) < 2:
        fail(f"{path}: need >= 2 snapshot_cost sizes, got {costs!r}")
    for i, c in enumerate(costs):
        check_num(c, "keys", f"{path}: snapshot_cost[{i}]", positive=True)
        check_num(c, "ns", f"{path}: snapshot_cost[{i}]", positive=True)
    flatness = check_num(doc, "flatness", path, positive=True)
    if flatness < 1.0:
        fail(f"{path}: flatness {flatness} < 1 (must be max/min)")
    writer = doc.get("writer")
    if not isinstance(writer, dict):
        fail(f"{path}: missing 'writer'")
    for k in ["baseline_mops", "held_snapshot_mops", "retention",
              "after_release_mops", "ab_ratio"]:
        check_num(writer, k, f"{path}: writer", positive=True)
    si = doc.get("interference")
    if not isinstance(si, dict):
        fail(f"{path}: missing 'interference'")
    validate_scan_interference(si, f"{path}: interference")
    check_stamp(doc, path)
    print(f"OK: {path} (mvcc_bench/v1, flatness {flatness}x, "
          f"retention {writer['retention']})")


def validate_pacsrv_bench(doc, path):
    for block in ["embedded", "service", "overload_2x"]:
        if not isinstance(doc.get(block), dict):
            fail(f"{path}: missing '{block}'")
    svc = doc["service"]
    for k in ["mops", "ratio", "p50_us", "p99_us", "p999_us"]:
        check_num(svc, k, f"{path}: service", positive=True)
    si = doc.get("scan_interference")
    if not isinstance(si, dict):
        fail(f"{path}: missing 'scan_interference'")
    check_num(si, "baseline_mops", f"{path}: scan_interference", positive=True)
    validate_scan_interference(si, f"{path}: scan_interference")
    if doc.get("drained") is not True:
        fail(f"{path}: drained={doc.get('drained')!r}")
    check_stamp(doc, path)
    print(f"OK: {path} (pacsrv_bench/v2, ratio {svc['ratio']}, "
          f"snapshot-scan retention {si['snapshot_retention']})")


def validate_obsv_overhead(doc, path):
    for k in ["keys", "threads", "slices", "slice_ops", "trials"]:
        check_num(doc, k, path, positive=True)
    for k in ["sampled_pct", "full_fidelity_pct", "tracing_pct"]:
        check_num(doc, k, path)
    scraper = doc.get("scraper")
    if not isinstance(scraper, dict):
        fail(f"{path}: missing 'scraper' arm")
    check_num(scraper, "interval_ms", f"{path}: scraper", positive=True)
    for k in ["raw_pct", "scaled_1s_pct"]:
        check_num(scraper, k, f"{path}: scraper")
    for k in ["on_mops", "off_mops"]:
        check_num(scraper, k, f"{path}: scraper", positive=True)
    for k in ["verdict", "scraper_verdict"]:
        if doc.get(k) not in ("PASS", "FAIL"):
            fail(f"{path}: '{k}' is {doc.get(k)!r} (want PASS|FAIL)")
    if not doc.get("git_commit"):
        fail(f"{path}: missing git_commit")
    print(f"OK: {path} (obsv_overhead/v1, scraper {scraper['scaled_1s_pct']:.4f}% "
          f"at 1 s, verdict {doc['scraper_verdict']})")


def validate_paccluster_bench(doc, path):
    for k in ["nodes", "partitions", "clients"]:
        check_num(doc, k, path, positive=True)
    check_num(doc, "hot_fraction", path, positive=True)
    if not isinstance(doc.get("hot_partition"), int) or doc["hot_partition"] < 0:
        fail(f"{path}: missing/invalid 'hot_partition'")
    for window in ["steady", "migration", "post"]:
        w = doc.get(window)
        if not isinstance(w, dict):
            fail(f"{path}: missing '{window}' window")
        check_num(w, "ops", f"{path}: {window}", positive=True)
        for k in ["p50_us", "p99_us"]:
            check_num(w, k, f"{path}: {window}", positive=True)
        if w["p50_us"] > w["p99_us"]:
            fail(f"{path}: {window} p50 {w['p50_us']} > p99 {w['p99_us']}")
    mig = doc["migration"]
    for k in ["rebalance_ms", "seal_ms", "moved_pairs", "delta_pairs"]:
        if not isinstance(mig.get(k), (int, float)) or mig[k] < 0:
            fail(f"{path}: migration missing/invalid '{k}': {mig.get(k)!r}")
    if mig["moved_pairs"] <= 0:
        fail(f"{path}: migration moved no pairs")
    ratio = check_num(doc, "p99_ratio", path, positive=True)
    limit = check_num(doc, "p99_ratio_limit", path, positive=True)
    check_num(doc, "p99_floor_us", path, positive=True)
    router = doc.get("router")
    if not isinstance(router, dict):
        fail(f"{path}: missing 'router'")
    for k in ["final_epoch", "refreshes", "wrong_partition_seen",
              "retried_reads", "sweep_bounces"]:
        if not isinstance(router.get(k), int) or router[k] < 0:
            fail(f"{path}: router missing/invalid '{k}': {router.get(k)!r}")
    if router["final_epoch"] < 2:
        fail(f"{path}: final_epoch {router['final_epoch']} (migration never flipped)")
    if router["sweep_bounces"] != 0:
        fail(f"{path}: convergence sweep bounced {router['sweep_bounces']} times")
    wp = doc.get("wrong_partition_total")
    if not isinstance(wp, list) or len(wp) != doc["nodes"]:
        fail(f"{path}: wrong_partition_total must list all {doc.get('nodes')} nodes")
    if not isinstance(doc.get("errors"), int) or doc["errors"] != 0:
        fail(f"{path}: errors={doc.get('errors')!r}")
    if doc.get("clean") is not True:
        fail(f"{path}: clean={doc.get('clean')!r}")
    if ratio > limit:
        fail(f"{path}: p99_ratio {ratio} exceeds limit {limit}")
    check_stamp(doc, path)
    print(f"OK: {path} (paccluster_bench/v1, p99 ratio {ratio}x <= {limit}x, "
          f"epoch {router['final_epoch']}, seal {mig['seal_ms']} ms)")


def validate_fleet_heat(doc, path):
    """``fleet_heat/v1`` — per-partition heat telemetry from
    ``paccluster-bench``: per-partition op/byte counters with a batch-p99,
    the rebalance advisor's pick, and the fleet-vs-direct p99 gate."""
    if not isinstance(doc.get("hot_partition"), int) or doc["hot_partition"] < 0:
        fail(f"{path}: missing/invalid 'hot_partition'")
    parts = doc.get("partitions")
    if not isinstance(parts, list) or not parts:
        fail(f"{path}: empty or missing 'partitions'")
    total_ops = 0
    for i, p in enumerate(parts):
        where = f"{path}: partition {i}"
        if p.get("id") != i:
            fail(f"{where}: id {p.get('id')!r} out of order")
        for k in ["ops", "bytes", "p99_ns"]:
            if not isinstance(p.get(k), int) or p[k] < 0:
                fail(f"{where}: missing/invalid '{k}': {p.get(k)!r}")
        if p["ops"] > 0 and p["bytes"] == 0:
            fail(f"{where}: {p['ops']} ops moved zero bytes")
        total_ops += p["ops"]
    if total_ops == 0:
        fail(f"{path}: no partition recorded any ops")
    advisor = doc.get("advisor")
    if not isinstance(advisor, dict):
        fail(f"{path}: missing 'advisor'")
    hottest = advisor.get("hottest")
    if not isinstance(hottest, int) or not 0 <= hottest < len(parts):
        fail(f"{path}: advisor hottest {hottest!r} not a partition id")
    if parts[hottest]["ops"] != max(p["ops"] for p in parts):
        fail(f"{path}: advisor picked partition {hottest}, which is not the "
             f"hottest by ops")
    if advisor.get("ok") is not True:
        fail(f"{path}: advisor ok={advisor.get('ok')!r}")
    fleet = doc.get("fleet")
    if not isinstance(fleet, dict):
        fail(f"{path}: missing 'fleet'")
    check_num(fleet, "nodes", f"{path}: fleet", positive=True)
    p99 = check_num(fleet, "p99_ns", f"{path}: fleet", positive=True)
    direct = check_num(fleet, "direct_p99_ns", f"{path}: fleet", positive=True)
    bound = check_num(fleet, "rel_error_bound", f"{path}: fleet", positive=True)
    diff = abs(p99 - direct) / max(direct, 1)
    if diff > bound:
        fail(f"{path}: fleet p99 {p99} vs direct merge {direct} differs by "
             f"{diff:.4f} > bound {bound}")
    check_stamp(doc, path)
    print(f"OK: {path} (fleet_heat/v1, {len(parts)} partitions, hottest "
          f"{hottest}, fleet p99 within {bound * 100:.3f}% of direct merge)")


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
        if schema == "fig13_tail/v1":
            validate_fig13(doc, path)
        elif schema == "obsv_report/v1":
            validate_report(doc, path)
        elif schema == "trace_chrome/v1":
            validate_trace_chrome(doc, path)
        elif schema == "bench_node_search/v2":
            validate_node_search(doc, path)
        elif schema == "mvcc_bench/v1":
            validate_mvcc_bench(doc, path)
        elif schema == "pacsrv_bench/v2":
            validate_pacsrv_bench(doc, path)
        elif schema == "obsv_overhead/v1":
            validate_obsv_overhead(doc, path)
        elif schema == "paccluster_bench/v1":
            validate_paccluster_bench(doc, path)
        elif schema == "fleet_heat/v1":
            validate_fleet_heat(doc, path)
        else:
            fail(f"{path}: unknown schema {schema!r}")
    print("all observability artifacts valid")


if __name__ == "__main__":
    main()
