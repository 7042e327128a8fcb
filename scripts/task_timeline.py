"""Print the Ray tasks of one quality round as a timeline.

Runs ``--rounds`` quality rounds (``annotate`` + ``write_outputs``, the
CLI ``quality`` job) over a parquet directory in one Ray session of
``--num-cpus`` CPUs, then prints every Ray Data operator task of the
last round from ``ray.timeline()``: its start relative to the round's
start, its duration, the worker that ran it and its operator. The
earlier rounds warm the workers' model caches, as in a long job. Works
offline and needs nothing beyond Ray.

Run: python scripts/task_timeline.py PARQUET_DIR [--num-cpus 3]
         [--rounds 3] [--blocks N] [--object-store-mb 512]
     (``--blocks`` defaults to the CLI's read split, 4 per annotate
     actor; the output goes to a temporary directory)
"""

import argparse
import os
import shutil
import sys
import tempfile
import time

import ray
import ray.data as rd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def round_tasks(events, start_us: float, end_us: float):
    """(start s, duration s, worker, operator) of each Ray Data map task
    that started inside ``[start_us, end_us]``, ordered by start."""
    rows = []
    for e in events:
        cat = e.get("cat", "")
        if not (cat.startswith("task::") and e.get("name", "").endswith("_map_task")):
            continue
        if not start_us <= e["ts"] <= end_us:
            continue
        worker = e.get("tid", "").split(":")[-1][:8]
        rows.append(
            ((e["ts"] - start_us) / 1e6, e["dur"] / 1e6, worker, cat[len("task::"):])
        )
    return sorted(rows)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("input", help="parquet directory of code documents")
    ap.add_argument("--num-cpus", type=int, default=3)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--blocks", type=int, default=None)
    ap.add_argument("--object-store-mb", type=int, default=512)
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    # Ray workers inherit the environment: let them import this checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH", "")) if p
    )
    ray.init(
        address="local",
        num_cpus=args.num_cpus,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=args.object_store_mb * 2**20,
    )
    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    from redpajama_data_ray.pipelines.outputs import write_outputs
    from redpajama_data_ray.pipelines.quality import (
        QualityConfig,
        _default_actors,
        annotate,
    )

    blocks = args.blocks or 4 * _default_actors()
    out = tempfile.mkdtemp(prefix="task_timeline_")
    try:
        for _ in range(args.rounds):
            shutil.rmtree(out, ignore_errors=True)
            start = time.time()
            ds = rd.read_parquet(args.input, override_num_blocks=blocks)
            write_outputs(annotate(ds, QualityConfig()), out)
            end = time.time()
        # task events reach the timeline a moment after the tasks end
        time.sleep(1.0)
        rows = round_tasks(ray.timeline(), start * 1e6, end * 1e6)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        ray.shutdown()
    print(
        f"last of {args.rounds} rounds: {end - start:.3f} s, "
        f"{args.num_cpus} Ray CPUs, {blocks} read blocks, {len(rows)} tasks"
    )
    print(f"{'start_s':>8} {'dur_s':>7} {'end_s':>7}  worker    operator")
    for t0, dur, worker, op in rows:
        print(f"{t0:8.3f} {dur:7.3f} {t0 + dur:7.3f}  {worker}  {op}")


if __name__ == "__main__":
    main()
