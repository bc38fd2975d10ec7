"""The maghom benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Generates the workload's inputs from the seed, runs them through
``maghom.cli.main`` in fresh interpreters (one batch each, one at a
time, no threads), checks every output with ``checks.py``, and prints a
report whose last line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--seconds`` fixes the amount of work, not a deadline: each workload
runs ``round(S / nominal batch seconds)`` batches of identical
composition (see ``workloads.py``), about S seconds on the reference
machine below, so every commit is measured on the same inputs for a seed.

End-to-end metrics (``--trace 0``):

* ``items_per_s``: median over batches of the items that passed their
  check per second of call time.
* ``item_ms.p50``: median time of one item (a ``classify`` record is
  timed from the previous record's output line).
* ``item_ms.tail``: the highest percentile of item time with at least ten
  samples beyond it; the report line gives the percentile and counts.
* ``peak_rss_mb``: median over batches of the worker's peak RSS.
* ``setup_s``: median over at least seven fresh interpreters of the time
  from spawn through ``import maghom`` and reading the batch.
* ``ok_share``: items that passed / items attempted.  It is 1 - fail
  share; a failure is an exception, a non-zero exit, a budget hit or a
  failed output check.

The first three are wall times scaled to the reference machine's speed: each
call's time is multiplied by the host speed the worker measured around
it (``worker.py``).  A report line gives the unscaled wall-time values
and the host speeds seen.

Per-layer metrics (``--trace 1``) come from half as many batches, run
three times: untraced (for the overhead), traced, and once more traced on
a relabelled copy of the first batch, whose exact counts must equal the
first traced batch's.  Times are self times of the spans in
``tracer.py`` summed over the run, except ``homology.diagonal_s``, the
whole time inside ``is_diagonal_up_to``.

Why the scaling: on the reference machine (a 2-vCPU Xeon VM without
hardware counters, Python 3.11) the speed of the host drifts by about
+-20% over seconds to minutes (G3 at l = 8 took 1.07-1.90 s; CPU time
tracks wall).  Averaging longer does not remove it: over five minutes of
one repeated magnitude call, 10 s and 60 s window means spread alike
(0.12 and 0.10 of their median, quartile distance).  The worker's
calibration loop drifts with the calls, and the ratio of the two spread
by 0.03-0.05 over the same windows.  Unscaled, the time metrics of ten
runs spread by 0.1-0.27 of their median; counts and RSS repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import CACHES  # noqa: E402

DEADLINE_S = 170       # a run must end within 180 s
SETUP_SAMPLES = 7

END_TO_END = [
    ("items_per_s", "1/s"), ("item_ms.p50", "ms"), ("item_ms.tail", "ms"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"), ("ok_share", "share"),
]

SPAN_TIMES = [
    "graph.parse", "graph.pawful", "graph.ahk", "polyq.gcd", "magnitude.rational",
    "magnitude.det", "magnitude.series", "homology.enumerate", "homology.boundary",
    "homology.table", "snf.snf", "ai_complex.build_pair", "ai_complex.relative_homology",
    "matching.certificate", "matching.build_matching", "matching.search", "matching.star",
    "morse.poset", "morse.verify", "morse.acyclic", "morse.rank_check", "cli.self",
]
EXACT_COUNTS = [
    "polyq.gcd_calls", "homology.basis_cells", "homology.boundary_nnz", "snf.calls",
    "snf.nnz_in", "snf.divisors", "ai_complex.cells", "ai_complex.quotient_cells",
    "matching.critical_cells",
]
HOMOLOGY_CACHES = ("enumerate_sequences", "_boundary_snf")


def per_layer_units() -> list[tuple[str, str]]:
    out = [(f"{s}_s", "s") for s in SPAN_TIMES] + [("homology.diagonal_s", "s")]
    out += [(c, "count") for c in EXACT_COUNTS + ["magnitude.result_degree"]]
    out += [(f"homology.cache_{k}", "count") for k in ("hits", "misses", "entries")]
    out += [(f"cache.{c}.{k}", "count") for _, c in CACHES for k in ("hits", "misses", "entries")]
    out += [("cli.self_share", "share"), ("trace.items_per_s_untraced", "1/s"),
            ("trace.items_per_s_traced", "1/s"), ("trace.overhead_pct", "%")]
    return out


# ---------------------------------------------------------------------------
# running batches


def spawn(batch_file: Path, trace: bool, deadline: float):
    """Run one worker to completion; return (report, error)."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(batch_file), "1" if trace else "0"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "worker hit the run deadline"
    if proc.returncode != 0 or not out.strip():
        return None, f"worker exited {proc.returncode}: {err.strip()[-300:]}"
    report = json.loads(out.splitlines()[-1])
    report["setup_s"] = report["ready"] - start
    return report, None


def run_pass(batches, workdir: Path, tag: str, trace: bool, deadline: float):
    reports = []
    for b, calls in enumerate(batches):
        argvs = [workloads.materialize(call, workdir / f"{tag}-{b}-{i}")
                 for i, call in enumerate(calls)]
        batch_file = workdir / f"{tag}-{b}.json"
        batch_file.write_text(json.dumps(argvs))
        reports.append(spawn(batch_file, trace, deadline))
    return reports


def verdicts(call: dict, res: dict) -> list:
    """One None-or-reason per item of the call."""
    kind, rc, out = call["kind"], res["rc"], res["out"]
    if kind == "morse":
        return [checks.check_morse(call["n"], call["edges"], call["a"], call["b"],
                                   call["ell"], rc, out)]
    if rc != 0:
        return [f"exit code {rc}: {res['err'].strip()[-200:]}"] * workloads.item_count(call)
    if kind == "census":
        return checks.check_census(call["graphs"], workloads.CENSUS_LMAX, out)
    if kind == "magnitude":
        return [checks.check_magnitude(call["n"], call["edges"], call["cycle"],
                                       workloads.SERIES_ORDER, out)]
    ref = checks.G3_TABLE if call["name"] == "G3" else None
    return [checks.check_mh_table(call["n"], call["edges"], call["lmax"], out, ref)]


def evaluate(batches, reports, scaled: bool = True) -> dict:
    """Verdicts and timings of one pass.  With ``scaled``, each call's
    times are multiplied by its ``speed`` (see ``worker.py``)."""
    ev = dict(item_ms=[], busy_s=0.0, attempted=0, failed=0, reasons=[], rss_mb=[], setup_s=[],
              rates=[])
    for calls, (report, error) in zip(batches, reports):
        items = sum(workloads.item_count(c) for c in calls)
        ev["attempted"] += items
        if report is None:
            ev["failed"] += items
            ev["reasons"].append(error)
            continue
        ev["rss_mb"].append(report["rss_kb"] / 1024)
        ev["setup_s"].append(report["setup_s"])
        ok, busy = 0, 0.0
        for call, res in zip(calls, report["calls"]):
            found = verdicts(call, res)
            n = len(found)
            bad = [v for v in found if v]
            ok += n - len(bad)
            speed = res["speed"] if scaled else 1.0
            busy += res["s"] * speed
            ev["failed"] += len(bad)
            ev["reasons"] += bad
            per_line = call["kind"] == "census" and len(res["line_ms"]) == n
            ms = res["line_ms"] if per_line else [res["s"] * 1e3 / n] * n
            ev["item_ms"] += [t * speed for t in ms]
        ev["busy_s"] += busy
        ev["rates"].append(ok / busy if busy else 0.0)
    return ev


def tail(values):
    """(value, percentile, samples beyond, samples) of the highest
    percentile with at least ten samples beyond it (the minimum when
    there are ten samples or fewer)."""
    s = sorted(values)
    j = max(1, len(s) - 10)
    return s[j - 1], 100.0 * j / len(s), len(s) - j, len(s)


def end_to_end(ev: dict, setup: list[float]) -> dict:
    ok = ev["attempted"] - ev["failed"]
    ms = ev["item_ms"] or [0.0]
    return {
        "items_per_s": statistics.median(ev["rates"]) if ev["rates"] else 0.0,
        "item_ms.p50": statistics.median(ms),
        "item_ms.tail": tail(ms)[0],
        "peak_rss_mb": statistics.median(ev["rss_mb"]) if ev["rss_mb"] else 0.0,
        "setup_s": statistics.median(setup) if setup else 0.0,
        "ok_share": ok / ev["attempted"] if ev["attempted"] else 0.0,
    }


def trace_totals(batches, reports) -> dict:
    """Per-layer values summed over the workers of one traced pass."""
    self_s, total_s, counts = Counter(), Counter(), Counter()
    for calls, (report, _) in zip(batches, reports):
        if report is None:
            continue
        tr = report["trace"]
        self_s.update(tr["self_s"])
        total_s.update(tr["total_s"])
        counts.update(tr["counts"])
        for name, (hits, misses, entries) in tr["caches"].items():
            counts.update({f"cache.{name}.hits": hits, f"cache.{name}.misses": misses,
                           f"cache.{name}.entries": entries})
        for call, res in zip(calls, report["calls"]):
            if call["kind"] == "magnitude" and res["rc"] == 0:
                out = json.loads(res["out"])
                counts["magnitude.result_degree"] += max(len(out["num"]), len(out["den"])) - 1
    out = {f"{s}_s": self_s[s] for s in SPAN_TIMES}
    out["homology.diagonal_s"] = total_s["homology.diagonal"]
    for key in ("hits", "misses", "entries"):
        out[f"homology.cache_{key}"] = sum(counts[f"cache.{c}.{key}"] for c in HOMOLOGY_CACHES)
    for name, unit in per_layer_units():
        if unit == "count" and name not in out:
            out[name] = counts[name]
    return out


def exact_counts(values: dict) -> dict:
    return {name: values[name] for name, unit in per_layer_units() if unit == "count"}


# ---------------------------------------------------------------------------


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Returns (result, report lines)."""
    deadline = monotonic() + DEADLINE_S
    rng = random.Random(f"{workload}:{seed}")
    seen: set = set()
    nb = workloads.batch_count(workload, seconds)
    if trace:  # three passes instead of one; keep the run near --seconds
        nb = max(1, nb // 2)
    batches = [workloads.make_batch(workload, rng, seen) for _ in range(nb)]
    composition, _, why = workloads.WORKLOADS[workload]
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "git_rev": git_rev(), "python": platform.python_version(), "nproc": os.cpu_count(),
        "input": composition, "batches": nb,
        "items": sum(workloads.item_count(c) for calls in batches for c in calls), "why": why,
    }
    lines = [f"# meta {json.dumps(meta)}"]

    setup, reasons = [], []
    if not trace:
        probe = workdir / "probe.json"
        probe.write_text("[]")
        for _ in range(max(0, SETUP_SAMPLES - nb)):
            report, error = spawn(probe, False, deadline)
            if report is None:
                reasons.append(f"set-up probe: {error}")
            else:
                setup.append(report["setup_s"])
    reports = run_pass(batches, workdir, "u", False, deadline)
    ev = evaluate(batches, reports)
    metrics = end_to_end(ev, setup + ev["setup_s"])
    attempted, failed = ev["attempted"], ev["failed"]
    reasons += ev["reasons"]
    correct = failed == 0 and not reasons

    if trace:
        untraced = metrics["items_per_s"]
        t_reports = run_pass(batches, workdir, "t", True, deadline)
        rng2, seen2 = random.Random(f"relabel:{workload}:{seed}"), set()
        relabelled = [[workloads.relabelled(c, rng2, seen2) for c in batches[0]]]
        r_reports = run_pass(relabelled, workdir, "r", True, deadline)
        t_ev, r_ev = evaluate(batches, t_reports), evaluate(relabelled, r_reports)
        for e in (t_ev, r_ev):
            attempted += e["attempted"]
            failed += e["failed"]
            reasons += e["reasons"]
        values = trace_totals(batches, t_reports)
        first = exact_counts(trace_totals(batches[:1], t_reports[:1]))
        again = exact_counts(trace_totals(relabelled, r_reports))
        differ = sorted(k for k in first if first[k] != again[k])
        if differ:
            reasons.append(f"exact counts differ on the relabelled first batch: {differ}")
        correct = correct and failed == 0 and not differ
        traced = end_to_end(t_ev, [])["items_per_s"]
        wall_s = evaluate(batches, t_reports, scaled=False)["busy_s"]
        values.update({
            "cli.self_share": values["cli.self_s"] / wall_s if wall_s else 0.0,
            "trace.items_per_s_untraced": untraced,
            "trace.items_per_s_traced": traced,
            "trace.overhead_pct": 100.0 * (untraced / traced - 1) if traced else 0.0,
        })
        missing = sorted({m for rep, _ in t_reports if rep for m in rep["trace"]["missing"]})
        if missing:
            lines.append(f"# functions not found, their spans read 0: {missing}")
        lines.append(f"# exact counts on the relabelled first batch: "
                     f"{'identical' if not differ else 'DIFFER'} ({len(first)} counts)")
        units = dict(per_layer_units())
        metrics = {name: values[name] for name, _ in per_layer_units()}
    else:
        units = dict(END_TO_END)
        _, pct, beyond, n = tail(ev["item_ms"] or [0.0])
        lines.append(f"# item_ms.tail is p{pct:.1f} of {n} items, {beyond} beyond it; "
                     f"fail share {failed / attempted:.4f}")
        wall = end_to_end(evaluate(batches, reports, scaled=False), [])
        speeds = [res["speed"] for rep, _ in reports if rep for res in rep["calls"]] or [0.0]
        lines.append("# unscaled wall time: " + ", ".join(
            f"{k} {wall[k]:.4f}" for k in ("items_per_s", "item_ms.p50", "item_ms.tail")) +
            f"; host speed median {statistics.median(speeds):.3f}, "
            f"range {min(speeds):.3f}-{max(speeds):.3f}")
    for name, value in metrics.items():
        lines.append(f"# {name:32s} {value:14.6f} {units[name]}")
    for reason in reasons[:10]:
        lines.append(f"# failure: {reason}")
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "maghom" / "__init__.py").is_file():
        print(f"error: no maghom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = ROOT / ".perfbench_tmp" / f"{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        results = {}
        for name in names:
            results[name], lines = run_workload(name, args.seed, args.seconds,
                                                bool(args.trace), workdir)
            print("\n".join(lines), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
