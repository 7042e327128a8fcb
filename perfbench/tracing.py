"""Spans, Ray Data operator statistics, and the per-layer metrics
derived from them.

A span is (id, name, start, end, parent, attrs); start and end are
seconds since the tracer began. While a traced round runs, the tracer
also wraps the ``ray.data.Dataset`` calls that execute a plan
(``materialize``, ``write_parquet``, ``take_all``, ``count``, ``sum``,
``iter_batches``) so every execution the program starts, including the
ones inside dedup and sampling, gets a span and, where Ray keeps them,
its parsed ``ds.stats()`` operator rows. Nothing inside the package is
changed; the wrappers are removed when the round ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import re
import time
from typing import Dict, List

_UNITS = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_NUM = r"([\d.]+)(us|ms|s)"
# "Operator 2 MapBatches(f): 8 tasks executed, 8 blocks produced in 0.5s"
_OP_RE = re.compile(r"^Operator \d+ (.+?): (\d+) tasks executed, \d+ blocks produced in " + _NUM)
# all-to-all operators (joins, keyed repartitions, aggregates) print a
# header line, then one block per suboperator (exchange side first)
_ALL_TO_ALL_RE = re.compile(r"^Operator \d+ (.+?): executed in " + _NUM)
_SUB_RE = re.compile(r"^\s*Suboperator (\d+) (.+?): (\d+) tasks executed")
_STAT_RE = re.compile(
    r"^\s*\* (Remote wall time|UDF time): "
    + _NUM + r" min, " + _NUM + r" max, " + _NUM + r" mean, " + _NUM + r" total"
)
_COUNT_RE = re.compile(
    r"^\s*\* Output (num rows|size bytes) per block: (\d+) min, (\d+) max, (\d+) mean, (\d+) total"
)


def _sec(v: str, unit: str) -> float:
    return float(v) * _UNITS[unit]


def parse_stats(text: str) -> List[dict]:
    """Operator rows of a ``Dataset.stats()`` summary: name, tasks,
    wall_s, task wall and UDF time (min/max/mean/total, seconds), and
    output rows and bytes per block (min/max/mean/total). A suboperator
    of an all-to-all operator is a row of its own, with ``sub`` set to
    its index (0 = the exchange side) and the operator's wall time.

    The summary of a dataset repeats the rows of the materialized
    datasets it was built from; ``unique_ops`` removes the repeats."""
    ops: List[dict] = []
    parent = None
    for line in text.splitlines():
        m = _OP_RE.match(line)
        if m:
            parent = None
            ops.append({"name": m.group(1), "tasks": int(m.group(2)), "wall_s": _sec(m.group(3), m.group(4))})
            continue
        m = _ALL_TO_ALL_RE.match(line)
        if m:
            parent = {"name": m.group(1), "wall_s": _sec(m.group(2), m.group(3))}
            continue
        m = _SUB_RE.match(line)
        if m and parent is not None:
            ops.append({"name": f"{parent['name']}/{m.group(2)}", "sub": int(m.group(1)),
                        "tasks": int(m.group(3)), "wall_s": parent["wall_s"]})
            continue
        if not ops:
            continue
        m = _STAT_RE.match(line)
        if m:
            key = "task_s" if m.group(1).startswith("Remote") else "udf_s"
            g = m.groups()[1:]
            ops[-1][key] = {
                k: _sec(g[2 * i], g[2 * i + 1]) for i, k in enumerate(("min", "max", "mean", "total"))
            }
            continue
        m = _COUNT_RE.match(line)
        if m:
            key = "rows" if m.group(1) == "num rows" else "bytes"
            ops[-1][key] = dict(zip(("min", "max", "mean", "total"), map(int, m.groups()[1:])))
    return ops


def unique_ops(ops: List[dict]) -> List[dict]:
    """Each operator execution once (same name, wall time and output)."""
    seen, out = set(), []
    for op in ops:
        key = (op["name"], op["wall_s"], json.dumps(op.get("rows")), json.dumps(op.get("bytes")))
        if key not in seen:
            seen.add(key)
            out.append(op)
    return out


class Tracer:
    """Collects spans and operator statistics while ``enabled``."""

    _WRAPPED = ("materialize", "write_parquet", "take_all", "count", "sum", "iter_batches")

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.t0 = time.perf_counter()
        self.spans: List[dict] = []
        self.ledger: Dict[str, float] = {}
        self._stack: List[int] = []
        self._saved: Dict[str, object] = {}
        self._in_ray = 0

    def _open(self, name: str, attrs: dict) -> dict:
        s = {
            "id": len(self.spans), "name": name,
            "start": time.perf_counter() - self.t0, "end": None,
            "parent": self._stack[-1] if self._stack else None, "attrs": dict(attrs),
        }
        self.spans.append(s)
        self._stack.append(s["id"])
        return s

    def _close(self, s: dict) -> None:
        s["end"] = time.perf_counter() - self.t0
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield {}
            return
        s = self._open(name, attrs)
        try:
            yield s["attrs"]
        finally:
            self._close(s)

    # -- Ray Data executions -------------------------------------------
    def _wrap(self, method: str, orig):
        tracer = self

        def _record(s, ds):
            s["attrs"]["ops"] = parse_stats(ds.stats())

        if method == "iter_batches":
            @functools.wraps(orig)
            def gen(ds, *a, **kw):
                if tracer._in_ray:
                    yield from orig(ds, *a, **kw)
                    return
                s = tracer._open("ray.data.iter_batches", {})
                tracer._in_ray += 1
                try:
                    yield from orig(ds, *a, **kw)
                finally:
                    tracer._in_ray -= 1
                    tracer._close(s)
                _record(s, ds)
            return gen

        @functools.wraps(orig)
        def call(ds, *a, **kw):
            if tracer._in_ray:
                return orig(ds, *a, **kw)
            s = tracer._open("ray.data." + method, {})
            tracer._in_ray += 1
            try:
                out = orig(ds, *a, **kw)
            finally:
                tracer._in_ray -= 1
                tracer._close(s)
            _record(s, out if method == "materialize" else ds)
            return out

        return call

    @contextlib.contextmanager
    def ray_calls(self):
        """Wrap the plan-executing Dataset methods for the duration."""
        if not self.enabled:
            yield
            return
        from ray.data import Dataset

        for m in self._WRAPPED:
            self._saved[m] = Dataset.__dict__[m]
            setattr(Dataset, m, self._wrap(m, self._saved[m]))
        try:
            yield
        finally:
            for m, f in self._saved.items():
                setattr(Dataset, m, f)
            self._saved.clear()

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "ledger": self.ledger, **extra}, f, indent=1)


# ---------------------------------------------------------------------
# per-layer metrics, derived from the trace JSON alone
# ---------------------------------------------------------------------

KERNELS = ("langid", "doc_signals", "line_signals", "perplexity", "classifier_dsir",
           "minhash", "minhash_poly64", "pii", "rules")

# name -> unit of every per-layer metric ``derive`` returns
PER_LAYER = {
    "pipelines.quality.read_s": "s",
    "stages.annotate.wall_s": "s",
    "stages.annotate.udf_s": "s",
    "stages.annotate.busy_frac": "ratio",
    "stages.annotate.straggler_ratio": "ratio",
    "pipelines.outputs.annotated_write_s": "s",
    "pipelines.outputs.derived_s": "s",
    **{f"functions.{k}": "ms/doc" for k in KERNELS},
    "stages.annotate.glue": "ms/doc",
    "dedupe.exact.s": "s",
    "dedupe.exact_join.s": "s",
    "dedupe.fuzzy.s": "s",
    "dedupe.fuzzy_dist.s": "s",
    "dedupe.lsh.explode_s": "s",
    "dedupe.lsh.cluster_s": "s",
    "dedupe.shuffle_mb": "MB",
    "dedupe.exact.dropped_rows": "count",
    "dedupe.fuzzy.dropped_rows": "count",
    "dedupe.lsh.band_rows": "count",
    "dedupe.lsh.dup_band_rows": "count",
    "dedupe.lsh.drop_ratio": "ratio",
    "functions.splits.cap_s": "s",
    "functions.splits.cap_join_s": "s",
    "functions.splits.budget_s": "s",
    "functions.splits.budget_join_s": "s",
    "functions.profile.s": "s",
    "functions.splits.join_block_skew": "ratio",
    "trace.overhead_ratio": "ratio",
}

def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def _children(spans: List[dict], parent: dict, name: str) -> List[dict]:
    return [s for s in spans if s["parent"] == parent["id"] and s["name"] == name]


def _descendants(spans: List[dict], root: dict) -> List[dict]:
    out, frontier = [], [root["id"]]
    while frontier:
        kids = [s for s in spans if s["parent"] in frontier]
        out += kids
        frontier = [s["id"] for s in kids]
    return out


def _ops(spans: List[dict], root: dict) -> List[dict]:
    return unique_ops([op for s in _descendants(spans, root) for op in s["attrs"].get("ops", [])])


def _one(spans: List[dict], name: str) -> dict:
    found = [s for s in spans if s["name"] == name]
    if len(found) != 1:
        raise KeyError(f"trace has {len(found)} spans named {name!r}")
    return found[0]


def _shuffle_bytes(ops: List[dict]) -> int:
    """Bytes out of the exchange side of every all-to-all operator."""
    return sum(op.get("bytes", {}).get("total", 0) for op in ops if op.get("sub") == 0)


def derive(doc: dict) -> Dict[str, float]:
    """Every per-layer metric, from a trace JSON document."""
    spans = doc["spans"]
    m: Dict[str, float] = {}

    # quality_code: the annotated pass is the write_parquet execution
    # whose plan holds the annotate actor pool; the derived sinks are
    # the rest of write_outputs
    wo = _one(spans, "pipelines.outputs.write_outputs")
    writes = _children(spans, wo, "ray.data.write_parquet")
    main = [w for w in writes if any("AnnotateStage" in op["name"] for op in w["attrs"]["ops"])]
    if len(main) != 1:
        raise KeyError("no single annotated write in write_outputs")
    ops = main[0]["attrs"]["ops"]
    read = next(op for op in ops if op["name"].startswith("ReadParquet"))
    ann = next(op for op in ops if "AnnotateStage" in op["name"])
    actors = wo["attrs"]["actors"]
    m["pipelines.quality.read_s"] = read["wall_s"]
    m["stages.annotate.wall_s"] = ann["wall_s"]
    m["stages.annotate.udf_s"] = ann["udf_s"]["total"]
    # busy time is the tasks' remote wall time: Ray's UDF time of the
    # fused assign_ids->AnnotateStage map can exceed it (4.6 s of UDF
    # time in 2.6 s of task time on one actor)
    m["stages.annotate.busy_frac"] = ann["task_s"]["total"] / (actors * ann["wall_s"])
    m["stages.annotate.straggler_ratio"] = ann["task_s"]["max"] / ann["task_s"]["mean"]
    m["pipelines.outputs.annotated_write_s"] = _dur(main[0])
    m["pipelines.outputs.derived_s"] = _dur(wo) - _dur(main[0])

    # kernel ledger (ms per document over a fixed sample)
    led = doc["ledger"]
    docs = led["docs"]
    for k in KERNELS:
        m[f"functions.{k}"] = 1000 * led[k] / docs
    # poly64 is the alternative shingle hash; the stage runs sha1 only
    in_call = sum(led[k] for k in KERNELS if k != "minhash_poly64")
    m["stages.annotate.glue"] = 1000 * (led["annotate_call"] - in_call) / docs

    # dedup_planted
    names = {
        "dedupe.exact.s": "dedupe.exact", "dedupe.exact_join.s": "dedupe.exact_join",
        "dedupe.fuzzy.s": "dedupe.fuzzy", "dedupe.fuzzy_dist.s": "dedupe.fuzzy_dist",
        "dedupe.lsh.explode_s": "dedupe.lsh.explode", "dedupe.lsh.cluster_s": "dedupe.lsh.cluster",
    }
    dd = {k: _one(spans, v) for k, v in names.items()}
    for k, s in dd.items():
        m[k] = _dur(s)
    dedup_ops = unique_ops([
        op for k in ("dedupe.exact.s", "dedupe.exact_join.s", "dedupe.fuzzy.s", "dedupe.fuzzy_dist.s")
        for op in _ops(spans, dd[k])
    ])
    m["dedupe.shuffle_mb"] = _shuffle_bytes(dedup_ops) / 2**20
    m["dedupe.exact.dropped_rows"] = dd["dedupe.exact.s"]["attrs"]["dropped_rows"]
    m["dedupe.fuzzy.dropped_rows"] = dd["dedupe.fuzzy.s"]["attrs"]["dropped_rows"]
    ex = dd["dedupe.lsh.explode_s"]["attrs"]
    m["dedupe.lsh.band_rows"] = ex["band_rows"]
    m["dedupe.lsh.dup_band_rows"] = ex["dup_band_rows"]
    m["dedupe.lsh.drop_ratio"] = m["dedupe.fuzzy.dropped_rows"] / ex["dup_band_rows"]

    # sample_skewed
    for k, v in (("cap_s", "cap"), ("cap_join_s", "cap_join"), ("budget_s", "budget"),
                 ("budget_join_s", "budget_join")):
        m[f"functions.splits.{k}"] = _dur(_one(spans, f"functions.splits.{v}"))
    m["functions.profile.s"] = _dur(_one(spans, "functions.profile"))
    # output blocks of the joins' finalize side (max / mean rows: the
    # operator statistics carry no median)
    skews = [
        op["rows"]["max"] / op["rows"]["mean"]
        for v in ("cap_join", "budget_join")
        for op in _ops(spans, _one(spans, f"functions.splits.{v}"))
        if op.get("sub") == 1 and op["name"].startswith("Join") and op.get("rows", {}).get("mean")
    ]
    m["functions.splits.join_block_skew"] = max(skews)

    m["trace.overhead_ratio"] = doc["overhead_ratio"]
    if set(m) != set(PER_LAYER):
        raise KeyError(f"derived metrics differ from PER_LAYER: {sorted(set(m) ^ set(PER_LAYER))}")
    return m
