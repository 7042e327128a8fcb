"""Benchmark of the redpajama_data_ray engine on this host.

    python3 perfbench/run.py --workload quality_code --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run sets up a Ray session (start, input load, one
untimed warm-up call), runs whole closed-loop rounds while the next one
fits in ``--seconds`` of round time (at least ``MIN_ROUNDS``), checks
every round's output against independent answers, and prints the
end-to-end metrics as the last line of standard output. With
``--trace 1`` it runs a warm-up and one untimed round of the named
workload, then one traced round of every part in
``workloads.WORKLOADS`` (plus the paths only the traced run takes, and
the annotate kernel ledger), writes the spans and operator statistics
to ``.pbw/trace-<workload>-s<seed>.json``, and prints the per-layer
metrics derived from that file. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import session  # noqa: E402

DEADLINE_S = 175
# a run measures at least this many rounds, however long they take
MIN_ROUNDS = 3


def _import_program() -> None:
    sys.path.insert(0, session.ROOT)
    try:
        import redpajama_data_ray  # noqa: F401
    except ImportError as e:
        sys.exit(f"perfbench: cannot import the program from {session.ROOT}: {e}")


def _setup(wl) -> float:
    """Ray start, input load from the seeded cache, one warm-up call."""
    t0 = time.perf_counter()
    session.start_ray(session.ray_cpus())
    wl.load()
    wl.warm_up()
    gc.collect()
    return time.perf_counter() - t0


def _timed_round(wl, meter):
    meter.window_start()
    t0 = time.perf_counter()
    result = wl.round()
    wall = time.perf_counter() - t0
    w = meter.window_end()
    w.update(wall_s=wall, rows_per_s=wl.rows / wall, cpu_s_per_krow=1000 * w["cpu_s"] / wl.rows)
    return result, w


def med_wall(rounds) -> float:
    return statistics.median(r["wall_s"] for r in rounds)


def measure(name: str, seed: int, seconds: float):
    from workloads import WORKLOADS
    from tracing import Tracer

    # input generation and the oracles' answers stay outside any timing
    wl = WORKLOADS[name](seed, Tracer(False))
    meter = session.Meter()
    rounds, failures = [], []
    try:
        setup_s = _setup(wl)
        # whole rounds while the next one, at the median round time so
        # far, still fits in --seconds of round time
        spent = 0.0
        while len(rounds) < MIN_ROUNDS or spent + med_wall(rounds) <= seconds:
            result, w = _timed_round(wl, meter)
            rounds.append(w)
            failures += wl.check(result)
            del result
            # the round's garbage is collected here, not inside the next round
            gc.collect()
            spent += w["wall_s"]
    finally:
        meter.close()
        session.stop_ray()

    def med(k, rs=rounds):
        return statistics.median(r[k] for r in rs)

    # the driver's RSS creeps up from round to round, so memory is taken
    # over the first MIN_ROUNDS rounds only: how many rounds a run fits
    # follows the host's speed and must not move it
    first = rounds[:MIN_ROUNDS]
    metrics = {
        "rows_per_s": (med("rows_per_s"), "rows/s"),
        "cpu_s_per_krow": (med("cpu_s_per_krow"), "s/krow"),
        "driver_peak_rss_mb": (med("driver_peak_rss_mb", first), "MB"),
        "session_peak_rss_mb": (med("session_peak_rss_mb", first), "MB"),
        "setup_s": (setup_s, "s"),
    }
    info = {
        "workload": name, "seed": seed, "input_sha256": wl.checksum, "input_rows": wl.rows,
        "ray_cpus": session.ray_cpus(), "setup_s": setup_s, "rounds": rounds, "failures": failures,
    }
    return metrics, len(rounds) * wl.ops_per_round, failures, info


def traced(name: str, seed: int):
    from workloads import WORKLOADS, kernel_ledger
    from tracing import PER_LAYER, Tracer, derive

    tracer = Tracer(True)
    # the named workload first: one untimed round, then the traced one
    order = [name] + [n for n in WORKLOADS if n != name]
    wls = {n: WORKLOADS[n](seed, Tracer(False)) for n in order}
    meter = session.Meter()
    failures, walls, attempted = [], {}, 0
    try:
        session.start_ray(session.ray_cpus())
        for n, wl in wls.items():
            wl.load()
            if n == name:
                wl.warm_up()
                _, w = _timed_round(wl, meter)
                walls["untraced"] = w["wall_s"]
            wl.tracer = tracer
            with tracer.span(f"round.{n}", workload=n, rows=wl.rows, input_sha256=wl.checksum):
                with tracer.ray_calls():
                    t0 = time.perf_counter()
                    result = wl.round()
                    if n == name:
                        walls["traced"] = time.perf_counter() - t0
                    extra_failures = wl.extra()
            failures += wl.check(result) + extra_failures
            attempted += wl.ops_per_round + wl.extra_ops
            del result
        with tracer.span("stages.annotate.ledger"):
            tracer.ledger = kernel_ledger(wls["quality_code"].table)
    finally:
        meter.close()
        session.stop_ray()
    path = os.path.join(session.WORK, f"trace-{name}-s{seed}.json")
    tracer.dump(path, {"workload": name, "seed": seed, "overhead_ratio": walls["traced"] / walls["untraced"]})
    with open(path) as f:
        doc = json.load(f)
    metrics = {k: (v, PER_LAYER[k]) for k, v in derive(doc).items()}
    info = {"workload": name, "seed": seed, "trace": path, "failures": failures}
    return metrics, attempted, failures, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["quality_code", "dedup_planted"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    deadline = session.Deadline(DEADLINE_S)
    _import_program()
    os.makedirs(session.WORK, exist_ok=True)
    if args.trace:
        metrics, attempted, failures, info = traced(args.workload, args.seed)
    else:
        metrics, attempted, failures, info = measure(args.workload, args.seed, args.seconds)
    deadline.cancel()
    print(json.dumps(info))
    for f in failures:
        print(f"perfbench: check failed: {f}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
