"""The repository benchmark: four workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mst_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` sets up the workload, then runs operations in a closed
loop for ``--seconds`` seconds and at least the workload's ``min_ops``
operations, checking every answer against a sequential oracle.  Further
timed setups run between the first operations; ``setup_s`` is the median
of all of them.  Every timed sample is scaled by a host probe taken
around it (see ``host_scaled``).  ``--trace 1`` sets up with the layer
entry points wrapped (see layers.py), then runs ``2 * min_ops``
operations, pairs of them traced and untraced in turn, and reports
per-layer figures.

Every run prints human-readable ``#`` lines (the machine fingerprint,
what the cold and warm calls are, medians and tails with sample counts,
the host probe, the error rate), writes a JSON record and, when traced,
a Chrome trace to
``.perfbench_out/`` at the repository root, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every answer matched its oracle and nothing raised.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("mst_grid", "pa_large", "pa_large_sharded", "service_churn")

clock = time.perf_counter


# -- machine fingerprint and memory --------------------------------------
def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def git_commit() -> str:
    """HEAD's commit read from .git (the benchmark may run without git)."""
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    commit = _read(os.path.join(ROOT, ".git", ref))
    if commit:
        return commit
    for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def fingerprint() -> dict:
    import numpy

    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "l3": _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def _hwm_kb(pid) -> int:
    for line in _read(f"/proc/{pid}/status").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its live worker processes."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb += sum(_hwm_kb(p.pid) for p in multiprocessing.active_children())
    return kb / 1024.0


#: Probe time that host-scaled times are expressed against: a reported
#: time is the wall the same work would take on a host where one
#: ``workloads.host_probe`` runs for this long (about the faster speed
#: level of a 2-core Xeon VM).
REFERENCE_PROBE_S = 0.004


def host_scaled(seconds: float, probe: float) -> float:
    """``seconds`` measured while a probe took ``probe`` seconds, scaled to
    a host where a probe takes :data:`REFERENCE_PROBE_S`."""
    return seconds * REFERENCE_PROBE_S / probe


# -- statistics -----------------------------------------------------------
def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(samples):
    """Highest percentile with at least ten samples beyond it, as
    (percentile, value); ``None`` with fewer than 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    return (100.0 * (n - 10) / n, sorted(samples)[n - 11])


def latency_lines(name, samples):
    ms = [t * 1000 for t in samples]
    line = (f"{name}: n={len(ms)} p10={percentile(ms, 10):.3f} ms "
            f"p50={statistics.median(ms):.3f} ms")
    t = tail(ms)
    if t is None:
        return line + " (too few samples for a tail)"
    return line + f" p{t[0]:.1f}={t[1]:.3f} ms (tail)"


# -- one workload ---------------------------------------------------------
class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, res) -> None:
        self.attempted += res.attempted
        self.failed += res.failed

    def crash(self, where: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(where)
        traceback.print_exc(file=sys.stderr)


def run_ops(wl, state, tally, seconds, seed, setups):
    """Closed loop: operation k+1 starts when k has returned.

    Runs for ``seconds`` and at least ``min_ops`` operations.  The timed
    setups after the first are spread between the first ``min_ops``
    operations, so they sample the host at different moments rather than
    in one burst (several per gap when there are more setups than
    operations); each one is closed right away.  ``setups`` collects
    (wall, host probe) pairs, the probe being the mean of those taken
    just before and just after the setup.

    Returns the results and the peak RSS taken once the first ``min_ops``
    operations are done, so memory held per operation (the sharded
    backend keeps recently shipped setups) does not grow the figure with
    the run length.
    """
    from workloads import NO_SPANS, host_probe

    setup_after = collections.Counter(
        r * wl.min_ops // wl.setup_reps for r in range(1, wl.setup_reps)
    )
    results = []
    rss = None
    start = clock()
    k = 0
    while k < wl.min_ops or clock() - start < seconds:
        try:
            res = wl.run_op(state, k, NO_SPANS)
            for _ in range(setup_after[k]):
                before = host_probe()
                t0 = clock()
                spare = wl.setup(seed, NO_SPANS)
                wall = clock() - t0
                after = host_probe()
                setups.append((wall, (before + after) / 2))
                wl.close(spare)
                del spare
                gc.collect()
        except Exception:
            tally.crash(f"op {k}")
            break
        tally.add(res)
        results.append(res)
        k += 1
        if k == wl.min_ops:
            rss = peak_rss_mb()
    return results, rss


def stop_workers(wl, state, tally) -> None:
    """Close the workload's session; every worker it forked must be gone."""
    try:
        wl.close(state)
    except Exception:
        tally.crash("close")
    leaked = multiprocessing.active_children()
    for proc in leaked:
        proc.terminate()
        proc.join()
    if leaked:
        tally.attempted += 1
        tally.failed += 1
        tally.errors.append(f"{len(leaked)} worker process(es) left running")


def end_to_end(wl, seed, seconds, tally, report):
    from workloads import NO_SPANS, host_probe

    before = host_probe()
    t0 = clock()
    state = wl.setup(seed, NO_SPANS)
    wall = clock() - t0
    after = host_probe()
    setups = [(wall, (before + after) / 2)]
    wl.warm_up(state)
    gc.collect()

    results, rss = run_ops(wl, state, tally, seconds, seed, setups)
    stop_workers(wl, state, tally)
    if hasattr(wl, "parity_check") and 0 in state["ops"]:
        tally.attempted += 3
        try:
            tally.failed += wl.parity_check(state)
        except Exception:
            tally.crash("parity check")
    if len(results) < wl.min_ops:
        return None

    setup_s = [host_scaled(t, p) for t, p in setups]
    cold = [host_scaled(t, p) for r in results
            for t, p in zip(r.cold_s, r.cold_probe_s)]
    warm = [host_scaled(t, p) for r in results
            for t, p in zip(r.warm_s, r.warm_probe_s)]
    probes = [p for _, p in setups] + [
        p for r in results for p in r.cold_probe_s + r.warm_probe_s
    ]
    counted = results[:wl.min_ops]
    units = sum(r.units for r in results)
    busy = sum(r.busy_s for r in results)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "cold_p50_ms": (statistics.median(cold) * 1000, "ms"),
        "warm_p50_ms": (statistics.median(warm) * 1000, "ms"),
        "rounds_per_op": (sum(r.rounds for r in counted) / len(counted),
                          "count"),
        "messages_per_op": (sum(r.messages for r in counted) / len(counted),
                            "count"),
        "peak_rss_mb": (rss, "MB"),
    }
    cold_name, warm_name, unit_name = NAMES[wl.name]
    report["samples"] = {
        "setup_s": setup_s, "cold_s": cold, "warm_s": warm,
        "setup_wall_s": [t for t, _ in setups],
        "cold_wall_s": [t for r in results for t in r.cold_s],
        "warm_wall_s": [t for r in results for t in r.warm_s],
        "host_probe_s": probes, "ops": len(results),
    }
    report["throughput_per_s"] = units / busy
    report["lines"] = [
        f"{wl.name}: {len(results)} ops, {len(setups)} setups; times "
        f"scaled to a {REFERENCE_PROBE_S * 1000:g} ms host probe",
        latency_lines("setup", setup_s),
        latency_lines(f"cold = {cold_name}", cold),
        latency_lines(f"warm = {warm_name}", warm),
        latency_lines("unscaled setup", report["samples"]["setup_wall_s"]),
        latency_lines("unscaled cold", report["samples"]["cold_wall_s"]),
        latency_lines("unscaled warm", report["samples"]["warm_wall_s"]),
        f"throughput = {units / busy:.6g} {unit_name} per second of "
        "library wall",
        latency_lines("host probe around each sample", probes),
    ]
    return metrics


#: What the cold call, the warm call and a throughput unit are, per workload.
NAMES = {
    "mst_grid": ("mst_s (session + MST call)", "MST call alone", "MST calls"),
    "pa_large": ("prepare_solve_s", "warm_solve_s", "operations"),
    "pa_large_sharded": ("prepare_solve_s", "warm_solve_s", "operations"),
    "service_churn": ("update_p50_ms (one churn step)",
                      "query_p50_ms (submit to answer)", "queries (qps)"),
}


def interleaved_ops(wl, state, tally, rec):
    """``2 * min_ops`` operations in pairs, traced and untraced in turn.

    Alternating cancels the host's slow drifts out of the overhead ratio;
    pairs keep the service's churn steps (every second wave) on both
    sides.  Returns the traced and the untraced results.
    """
    from workloads import NO_SPANS

    traced, plain = [], []
    for k in range(2 * wl.min_ops):
        on = (k // 2) % 2 == 0
        try:
            if on:
                rec.install()
                rec.op = k
                with rec.span("bench.op"):
                    res = wl.run_op(state, k, rec)
            else:
                res = wl.run_op(state, k, NO_SPANS)
        except Exception:
            tally.crash(f"op {k}")
            break
        finally:
            rec.uninstall()
            rec.op = None
        tally.add(res)
        (traced if on else plain).append(res)
    return traced, plain


def per_layer(wl, seed, tally, report, trace_path):
    from layers import Recorder

    rec = Recorder()
    rec.install()
    try:
        with rec.span("bench.setup"):
            state = wl.setup(seed, rec)
    finally:
        rec.uninstall()
    wl.warm_up(state)
    traced, plain = interleaved_ops(wl, state, tally, rec)
    stats = wl.session_stats(state)
    stop_workers(wl, state, tally)
    rec.write_chrome(trace_path, wl.name)
    if len(traced) < wl.min_ops or len(plain) < wl.min_ops:
        return None

    table = rec.layer_table()
    report["layers"] = table
    roots = sum(table[r]["total_s"] for r in ("bench.setup", "bench.op"))

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    phases = ("congest.array_phase", "congest.scalar_phase")
    phase_self = sum(self_s(p) for p in phases)
    phase_calls = sum(calls(p) for p in phases)
    phase_msgs = sum(table.get(p, {}).get("extra", 0) for p in phases)
    agg = {}
    for st in stats:
        for key, value in st.as_dict().items():
            agg[key] = agg.get(key, 0) + value
    acquired = (agg["cache_hits"] + agg["prepares"] + agg["coarsenings"]
                + agg["refinements"])
    sharded = agg["sharded_solves"] + agg["sharded_fallbacks"]
    dispatched = rec.dispatch[True] + rec.dispatch[False]
    service = state.get("service") if isinstance(state, dict) else None

    metrics = {
        "graphs.generate_s": (self_s("graphs.generate"), "s"),
        "core.spanning_tree.elect_s": (self_s("core.spanning_tree.elect"), "s"),
        "core.subparts.division_s": (self_s("core.subparts.division"), "s"),
        "core.shortcut.build_s": (self_s("core.shortcut.build"), "s"),
        "core.blocks.annotate_s": (self_s("core.blocks.annotate"), "s"),
        "core.verify.share": (ratio(self_s("core.verify"), roots), "ratio"),
        "core.wave.solve_s": (self_s("core.wave"), "s"),
        "core.wave.calls": (calls("core.wave"), "count"),
        "core.wave.array_ratio": (ratio(rec.dispatch[True], dispatched),
                                  "ratio"),
        "congest.array_phase.calls": (calls("congest.array_phase"), "count"),
        "congest.array_phase.self_s": (self_s("congest.array_phase"), "s"),
        "congest.scalar_phase.calls": (calls("congest.scalar_phase"),
                                       "count"),
        "congest.scalar_phase.share": (
            ratio(self_s("congest.scalar_phase"), roots), "ratio"),
        "congest.us_per_phase": (ratio(phase_self, phase_calls) * 1e6, "us"),
        "congest.ns_per_message": (ratio(phase_self, phase_msgs) * 1e9, "ns"),
        "runtime.session.solve_s": (self_s("runtime.session.solve"), "s"),
        "runtime.session.prepare.calls": (calls("runtime.session.prepare"),
                                          "count"),
        "runtime.session.prepare.self_s": (self_s("runtime.session.prepare"),
                                           "s"),
        "runtime.session.cache_hit_ratio": (
            ratio(agg["cache_hits"], acquired), "ratio"),
        "runtime.session.rebuild_ratio": (
            ratio(agg["rebuilds"], agg["coarsenings"] + agg["refinements"]),
            "ratio"),
        "algorithms.mst.calls": (calls("algorithms.mst"), "count"),
        "algorithms.mst.self_share": (ratio(self_s("algorithms.mst"), roots),
                                      "ratio"),
        "service.flush.calls": (calls("service.flush"), "count"),
        "service.flush_share": (ratio(self_s("service.flush"), roots),
                                "ratio"),
        "service.update.calls": (calls("service.update"), "count"),
        "service.update_share": (ratio(self_s("service.update"), roots),
                                 "ratio"),
        "service.queries_per_wave": (
            ratio(service.stats.queries, service.stats.waves)
            if service is not None else 0.0, "ratio"),
        "shard.solve.calls": (calls("shard.solve"), "count"),
        "shard.ship_share": (ratio(total_s("shard.ship"), roots), "ratio"),
        "shard.solve_max_share": (
            ratio(table.get("shard.solve", {}).get("extra", 0.0), roots),
            "ratio"),
        "shard.barrier_wait_share": (ratio(total_s("shard.barrier_wait"),
                                           roots), "ratio"),
        "shard.merge_share": (ratio(total_s("shard.merge"), roots), "ratio"),
        "shard.served_ratio": (ratio(agg["sharded_solves"], sharded),
                               "ratio"),
        "bench.trace_overhead_ratio": (
            sum(r.busy_s for r in traced) / sum(r.busy_s for r in plain),
            "ratio"),
    }
    for derivation in ("coarsen", "refine", "repair"):
        name = f"runtime.session.{derivation}"
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.share"] = (ratio(self_s(name), roots), "ratio")

    report["lines"] = [
        f"{wl.name}: traced {len(traced)} ops; trace written to "
        f"{os.path.relpath(trace_path, ROOT)}",
        f"traced wall {roots:.3f} s (setup + ops); per layer "
        "(calls, self s, inclusive s):",
    ] + [
        f"  {name:34s} {row['calls']:7d} {row['self_s']:10.4f} "
        f"{row['total_s']:10.4f}"
        for name, row in table.items()
    ]
    return metrics


def declared_metrics(trace: int) -> set:
    """The metric names BENCHMARK.json promises for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args) -> int:
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    tally = Tally()
    report = {"workload": wl.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": fingerprint()}
    try:
        if args.trace:
            metrics = per_layer(wl, args.seed, tally, report,
                                os.path.join(OUT, tag + ".trace.json"))
        else:
            metrics = end_to_end(wl, args.seed, args.seconds, tally, report)
    except Exception:
        tally.crash("setup")
        metrics = None
    if metrics is not None:
        declared = declared_metrics(args.trace)
        if set(metrics) != declared:
            tally.errors.append(
                "metrics differ from BENCHMARK.json: "
                f"{sorted(set(metrics) ^ declared)}"
            )
            metrics = None

    correct = metrics is not None and tally.failed == 0
    error_rate = tally.failed / max(1, tally.attempted)
    report.update(correct=correct, attempted=tally.attempted,
                  failed=tally.failed, error_rate=error_rate,
                  errors=tally.errors,
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in (metrics or {}).items()})
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")

    print(f"# machine: {json.dumps(report['machine'])}")
    for line in report.get("lines", []):
        print(f"# {line}")
    for error in tally.errors:
        print(f"error: {error}", file=sys.stderr)
    print(f"# error_rate = {error_rate:.6g} "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for name, (value, unit) in (metrics or {}).items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, then the cross-workload check:
    the sharded backend must cost exactly what the local one does."""
    finals = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        status |= proc.returncode
        finals[name] = json.loads(lines[-1]) if lines else None

    correct = status == 0 and all(finals.values())
    if not args.trace and correct:
        local = finals["pa_large"]["metrics"]
        remote = finals["pa_large_sharded"]["metrics"]
        for key in ("rounds_per_op", "messages_per_op"):
            same = local[key]["value"] == remote[key]["value"]
            print(f"# pa_large_sharded {key} == pa_large: {same}")
            correct = correct and same
    attempted = sum(f["attempted"] for f in finals.values() if f)
    failed = sum(f["failed"] for f in finals.values() if f)
    metrics = {
        f"{name}.{key}": value
        for name, final in finals.items() if final
        for key, value in final["metrics"].items()
    }
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
