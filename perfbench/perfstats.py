"""Summary statistics, output checks and metric derivation for perfbench.

`run.py` hands this module the raw JSON the `perfbench` binary writes (see
src/main.cpp) and the recorded reference digests; everything here is a pure
function of those, so the self-tests (test_perfbench.py) can drive it with
hand-made inputs.
"""

import re
import statistics

NAME_PATTERN = re.compile(r"^[A-Za-z0-9_.-]+$")

# Spans the benchmark records, in the order of src/observe.hpp's SpanKind.
SPAN_NAMES = ("expt.cell", "moo.algorithm.run", "aedb.evaluate_batch",
              "par.net.send", "par.net.recv", "expt.reduce")

# Work counters of a cell; exact for a given round seed on the deterministic
# workloads.
WORK_COUNTERS = ("sim_events", "sim_runs", "full_evals", "screen_evals")


# ---------------------------------------------------------------- statistics

def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if not values:
        return (0.0, 0.0, 0.0)
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def tail(values, beyond=10):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, sample_count).  With n sorted samples the
    value is the (n - beyond)-th smallest (nearest rank), whose percentile
    is 100 * (n - beyond) / n.  With `beyond` samples or fewer no such
    percentile exists; the maximum is returned with percentile 100.
    """
    n = len(values)
    if n == 0:
        return (0.0, 0.0, 0)
    ordered = sorted(values)
    if n <= beyond:
        return (ordered[-1], 100.0, n)
    rank = n - beyond
    return (ordered[rank - 1], 100.0 * rank / n, n)


# ------------------------------------------------------------------- checks

def summary(rnd):
    """What a round must reproduce: output digests and work counters."""
    return {
        "seed": rnd["seed"],
        "csv_digest": rnd["csv_digest"],
        "fronts_digest": rnd["fronts_digest"],
        "cell_digests": [c["front_digest"] for c in rnd["cells"]],
        "work": {name: sum(c[name] for c in rnd["cells"]) for name in WORK_COUNTERS},
        "net_msgs": rnd["messages"],
    }


def _mismatches(rnd, expected):
    """Indices of the cells whose outputs differ from `expected`."""
    if (rnd["csv_digest"] != expected["csv_digest"] or
            rnd["fronts_digest"] != expected["fronts_digest"] or
            len(rnd["cells"]) != len(expected["cell_digests"])):
        return set(range(len(rnd["cells"])))
    return {i for i, (cell, digest) in enumerate(zip(rnd["cells"], expected["cell_digests"]))
            if cell["front_digest"] != digest}


def outcome(raw, recorded):
    """Counts attempted and failed cells; returns (attempted, failed, notes).

    `recorded` maps seeds to the per-round summaries stored for them.  A
    cell fails when its round threw, when the in-process checks flagged it,
    or, on a deterministic workload, when its outputs differ from the
    untraced warm-up run of round 0 (round 0 only) or from the digests recorded
    for this seed and round.  A round whose indicator CSV or reference
    fronts differ fails as a whole.  Work counters that differ from the
    warm-up are a failure too (the same process did different work), and so
    is a round whose transport message count differs from the warm-up's;
    counters or message counts that differ from the recorded values are a
    behaviour change, noted.
    """
    notes = []
    attempted = failed = 0
    per_round = raw["cells_per_round"]
    deterministic = bool(raw["deterministic"])
    repeat = raw["warmup_round"]
    history = (recorded or {}).get(str(raw["seed"]), [])

    for k, rnd in enumerate(raw["rounds"]):
        attempted += per_round
        if rnd["error"]:
            failed += per_round
            notes.append("round %d failed: %s" % (k, rnd["error"]))
            continue
        bad = set()
        for i, cell in enumerate(rnd["cells"]):
            if cell["check"]:
                bad.add(i)
                notes.append("round %d cell %d: %s" % (k, i, cell["check"]))
        if deterministic and k == 0:
            if repeat["error"]:
                bad |= set(range(len(rnd["cells"])))
                notes.append("the warm-up run of round 0 failed: " + repeat["error"])
            else:
                differ = _mismatches(rnd, summary(repeat))
                for i, (mine, again) in enumerate(zip(rnd["cells"], repeat["cells"])):
                    if any(mine[name] != again[name] for name in WORK_COUNTERS):
                        differ.add(i)
                if rnd["messages"] != repeat["messages"]:
                    differ |= set(range(len(rnd["cells"])))
                    notes.append("round 0: %d transport messages, the warm-up sent %d"
                                 % (rnd["messages"], repeat["messages"]))
                if differ:
                    notes.append("round 0: %d cells differ from the untraced warm-up"
                                 % len(differ))
                bad |= differ
        if deterministic and k < len(history):
            differ = _mismatches(rnd, history[k])
            if differ:
                notes.append("round %d: %d cells differ from the digests recorded "
                             "for seed %s" % (k, len(differ), raw["seed"]))
            bad |= differ
            drift = [name for name, value in summary(rnd)["work"].items()
                     if value != history[k]["work"][name]]
            if rnd["messages"] != history[k]["net_msgs"]:
                drift.append("net_msgs")
            if drift:
                notes.append("behaviour change: round %d work counters %s differ "
                             "from the recorded values" % (k, ", ".join(drift)))
        failed += len(bad)
    return attempted, failed, notes


# ------------------------------------------------------------ end to end

END_TO_END_UNITS = {
    "setup_s": "s",
    "evals_per_s": "1/s",
    "candidates_per_s": "1/s",
    "cells_per_s": "1/s",
    "cell_s.p50": "s",
    "cell_s.tail": "s",
    "peak_rss_mb": "MiB",
}


def typical_cell(cells):
    """The typical cell wall time: the median of each (algorithm, scenario)
    group's cell times, combined over the groups by geometric mean.

    With one group this is the plain median.  With several groups of
    different cost (moea-grid's d100 and sparse-wide cells differ about
    2x) the pooled median of an even split falls in the gap between the
    groups and jumps with the gap's edges; the group medians do not.
    """
    groups = {}
    for cell in cells:
        groups.setdefault((cell["algorithm"], cell["scenario"]), []).append(cell["wall_s"])
    if not groups:
        return 0.0
    return statistics.geometric_mean([median(walls) for walls in groups.values()])


def end_to_end(raw):
    """Returns ({name: value}, tail_info) for the end-to-end metrics.

    Rates are work over wall time summed across the measured rounds,
    reductions included.  (Not a median over rounds: an elastic-race round
    lasts as long as its slowest worker, so round times cluster by how many
    costly cells a round drew, and a median would jump between clusters.)
    `raw["setup_s"]` holds the process-start-to-dispatch times `run.py`
    measured.
    """
    ok = [r for r in raw["rounds"] if not r["error"]]
    cells = [c for r in ok for c in r["cells"]]
    tail_value, percentile, count = tail([c["wall_s"] for c in cells])
    wall = sum(r["wall_s"] for r in raw["rounds"])

    def rate(work):
        return sum(work(c) for c in cells) / wall if wall > 0 else 0.0

    metrics = {
        "setup_s": median(raw["setup_s"]),
        "evals_per_s": rate(lambda c: c["full_evals"]),
        "candidates_per_s": rate(lambda c: c["full_evals"] + c["screen_rejected"]),
        "cells_per_s": rate(lambda c: 1),
        "cell_s.p50": typical_cell(cells),
        "cell_s.tail": tail_value,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    return metrics, {"percentile": percentile, "cells": count}


# -------------------------------------------------------------- per layer

def _union(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0
    cursor = None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def self_times(spans):
    """{span id: self ns}: duration minus the part its children cover."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        lo, hi = span["start"], span["end"]
        covered = _union([(max(lo, c["start"]), min(hi, c["end"]))
                          for c in children.get(span["id"], [])
                          if c["end"] > lo and c["start"] < hi])
        out[span["id"]] = (hi - lo) - covered
    return out


def _span_dicts(raw):
    return [{"id": s[0], "parent": s[1], "name": s[2], "thread": s[3],
             "start": s[4], "end": s[5], "units": s[6]} for s in raw["spans"]]


PER_LAYER_UNITS = {
    "sim.events_per_run": "count",
    "sim.ns_per_event": "ns",
    "sim.ms_per_run": "ms",
    "sim.ms_per_run.loaded": "ms",
    "sim.collisions_per_run": "count",
    "sim.mac_drops_per_run": "count",
    "aedb.ms_per_eval": "ms",
    "aedb.runs_per_eval": "count",
    "aedb.screen_evals": "count",
    "aedb.full_evals": "count",
    "aedb.screen_reject_frac": "ratio",
    "moo.self_share": "ratio",
    "moo.nds_us_per_call": "us",
    "moo.archive_insert_ns": "ns",
    "moo.engine.chunks_per_batch": "count",
    "core.eval_busy_share": "ratio",
    "core.tail_wait_s": "s",
    "core.accepted_moves": "count",
    "core.resets": "count",
    "core.archive_inserts": "count",
    "core.screened": "count",
    "core.promoted": "count",
    "par.net.msgs_per_cell": "count",
    "par.net.bytes_per_cell": "B",
    "par.net.worker_wait_ms.p50": "ms",
    "expt.driver_busy_share": "ratio",
    "expt.reduce_s": "s",
    "expt.cell_overhead_ms": "ms",
    "work.sim_events": "count",
    "work.sim_runs": "count",
    "work.full_evals": "count",
    "work.screen_evals": "count",
    "work.net_msgs": "count",
    "work.net_bytes": "B",
}
for _name in SPAN_NAMES:
    PER_LAYER_UNITS["self_ms." + _name] = "ms"


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(raw):
    """{name: value} for every per-layer metric (0 where a layer is unused)."""
    ok = [r for r in raw["rounds"] if not r["error"]]
    cells = [c for r in ok for c in r["cells"]]
    n_rounds = max(1, len(ok))
    n_cells = len(cells)
    total = lambda key: sum(c[key] for c in cells)
    spans = _span_dicts(raw)
    selfs = self_times(spans)
    by_name = {name: [s for s in spans if s["name"] == name] for name in SPAN_NAMES}
    dur = lambda s: s["end"] - s["start"]
    kids = {}
    for span in spans:
        kids.setdefault(span["parent"], []).append(span)

    evals = total("full_evals") + total("screen_evals")
    eval_ns = sum(dur(s) for s in by_name["aedb.evaluate_batch"])
    probes = raw["probes"] or {}
    m = {}
    m["sim.events_per_run"] = _ratio(total("sim_events"), total("sim_runs"))
    m["sim.ns_per_event"] = _ratio(probes.get("sim_s", 0) * 1e9, probes.get("sim_events", 0))
    m["sim.ms_per_run"] = _ratio(probes.get("sim_s", 0) * 1e3, probes.get("sim_runs", 0))
    m["sim.ms_per_run.loaded"] = _ratio(eval_ns * 1e-6, total("sim_runs"))
    m["sim.collisions_per_run"] = _ratio(probes.get("sim_collisions", 0), probes.get("sim_runs", 0))
    m["sim.mac_drops_per_run"] = _ratio(probes.get("sim_mac_drops", 0), probes.get("sim_runs", 0))

    m["aedb.ms_per_eval"] = _ratio(eval_ns * 1e-6, evals)
    m["aedb.runs_per_eval"] = _ratio(total("sim_runs"), evals)
    m["aedb.screen_evals"] = total("screen_evals") / n_rounds
    m["aedb.full_evals"] = total("full_evals") / n_rounds
    m["aedb.screen_reject_frac"] = _ratio(total("screen_rejected"), total("screened"))

    runs = by_name["moo.algorithm.run"]
    m["moo.self_share"] = _ratio(sum(selfs[s["id"]] for s in runs),
                                 sum(dur(s) for s in runs))
    m["moo.nds_us_per_call"] = _ratio(probes.get("nds_s", 0) * 1e6, probes.get("nds_calls", 0))
    m["moo.archive_insert_ns"] = _ratio(probes.get("archive_s", 0) * 1e9,
                                        probes.get("archive_inserts", 0))
    m["moo.engine.chunks_per_batch"] = _ratio(total("engine_chunks"), total("engine_batches"))

    busy = capacity = 0
    tail_waits = []
    for run in (s for s in runs if s["units"] > 0):
        children = [c for c in kids.get(run["id"], []) if c["name"] == "aedb.evaluate_batch"]
        busy += sum(dur(c) for c in children)
        capacity += run["units"] * dur(run)
        last_by_thread = {}
        for child in children:
            last_by_thread[child["thread"]] = max(last_by_thread.get(child["thread"], 0),
                                                  child["end"])
        if last_by_thread:
            tail_waits.append((run["end"] - min(last_by_thread.values())) * 1e-9)
    m["core.eval_busy_share"] = _ratio(busy, capacity)
    m["core.tail_wait_s"] = sum(tail_waits) / len(tail_waits) if tail_waits else 0.0
    for metric, key in (("core.accepted_moves", "accepted_moves"),
                        ("core.resets", "resets"),
                        ("core.archive_inserts", "archive_inserts"),
                        ("core.screened", "screened"),
                        ("core.promoted", "promoted")):
        m[metric] = total(key) / n_rounds

    messages = sum(r["messages"] for r in ok)
    traffic = sum(r["bytes"] for r in ok)
    m["par.net.msgs_per_cell"] = _ratio(messages, n_cells)
    m["par.net.bytes_per_cell"] = _ratio(traffic, n_cells)
    m["par.net.worker_wait_ms.p50"] = median(raw["worker_waits_ns"]) * 1e-6

    wall = sum(r["wall_s"] for r in raw["rounds"])
    cell_spans = by_name["expt.cell"]
    m["expt.driver_busy_share"] = _ratio(sum(dur(s) for s in cell_spans) * 1e-9,
                                         raw["driver_workers"] * wall)
    reduces = by_name["expt.reduce"]
    m["expt.reduce_s"] = _ratio(sum(dur(s) for s in reduces) * 1e-9, len(reduces))
    overhead = [dur(s) - sum(dur(c) for c in kids.get(s["id"], [])
                             if c["name"] == "moo.algorithm.run")
                for s in cell_spans]
    m["expt.cell_overhead_ms"] = _ratio(sum(overhead) * 1e-6, len(overhead))

    for name in SPAN_NAMES:
        m["self_ms." + name] = _ratio(sum(selfs[s["id"]] for s in by_name[name]) * 1e-6,
                                      n_cells)
    first = raw["rounds"][0]
    for name in WORK_COUNTERS:
        m["work." + name] = sum(c[name] for c in first["cells"])
    m["work.net_msgs"] = first["messages"]
    m["work.net_bytes"] = first["bytes"]
    return m
