"""Robustness: poison rows (nulls, odd unicode, huge tokens) must flow
through the full pipeline without failing any stage, and a worker
actor dying mid-run must not fail the job (at 100-TB scale worker
loss is routine; Ray Data actor pools default to max_restarts=-1 /
max_task_retries=-1, so the pipeline must complete with every row)."""

import os

import pyarrow as pa
import ray.data

from redpajama_data_ray.functions.rules import RuleConfig
from redpajama_data_ray.pipelines.quality import QualityConfig, annotate
from redpajama_data_ray.stages.annotate import AnnotateStage


def test_actor_death_mid_run_recovers(tmp_path):
    # the crash-once stage is defined INSIDE the test so cloudpickle
    # ships it by value: a class at test-module scope is pickled by
    # reference, and Ray workers cannot import pytest's rootdir-path
    # test modules (`ModuleNotFoundError: test_robustness` inside the
    # actor constructor, which Ray retries forever -> silent hang)
    class _CrashOnceAnnotate(AnnotateStage):
        """AnnotateStage whose hosting actor hard-exits on its first
        batch, exactly once per run (file sentinel shared across actor
        processes): the simulated worker loss every long multi-node
        run experiences."""

        def __init__(self, sentinel: str, **kwargs):
            super().__init__(**kwargs)
            self.sentinel = sentinel

        def __call__(self, batch: pa.Table) -> pa.Table:
            try:
                os.close(os.open(self.sentinel, os.O_CREAT | os.O_EXCL))
                os._exit(1)  # SIGKILL-grade death: no cleanup path
            except FileExistsError:
                pass
            return super().__call__(batch)

    n = 80
    t = pa.table(
        {
            "repo": ["r"] * n,
            "path": [f"f{i}.py" for i in range(n)],
            "commit": ["c"] * n,
            "lang": ["python"] * n,
            "content": [f"def f{i}():\n    return {i}\n" for i in range(n)],
        }
    )
    out = (
        ray.data.from_arrow(t)
        .map_batches(
            _CrashOnceAnnotate,
            fn_constructor_kwargs=dict(
                sentinel=str(tmp_path / "crashed_once"),
                include_scrub=True,
                rules=RuleConfig(),
            ),
            batch_format="pyarrow",
            batch_size=8,
            concurrency=(2, 2),
            num_cpus=1,
        )
        .to_pandas()
    )
    assert len(out) == n
    assert sorted(out.path) == sorted(f"f{i}.py" for i in range(n))
    assert out.keep.notna().all()
    assert (tmp_path / "crashed_once").exists()  # the kill really fired


def test_worker_loss_on_fused_task_plan(tmp_path):
    """The default plan runs annotation as tasks on shared workers, so
    a lost worker takes its cached stage with it: the retried task must
    rebuild it elsewhere and the run return every row. The crash sits
    in a registered plugin signal, which the fused stage calls on every
    batch (file sentinel: exactly once per run)."""
    from redpajama_data_ray.functions.registry import (
        register_signal,
        unregister_signal,
    )

    sentinel = str(tmp_path / "crashed_once")

    @register_signal("rps_doc_crash_once", pa.float64())
    def crash_once(texts):
        try:
            os.close(os.open(sentinel, os.O_CREAT | os.O_EXCL))
            os._exit(1)  # SIGKILL-grade death: no cleanup path
        except FileExistsError:
            pass
        return [float(len(t)) for t in texts]

    n = 80
    t = pa.table(
        {
            "repo": ["r"] * n,
            "path": [f"f{i}.py" for i in range(n)],
            "commit": ["c"] * n,
            "lang": ["python"] * n,
            "content": [f"def f{i}():\n    return {i}\n" for i in range(n)],
        }
    )
    try:
        out = annotate(
            ray.data.from_arrow(t).repartition(4),
            QualityConfig(include_line_signals=False),
        ).to_pandas()
    finally:
        unregister_signal("rps_doc_crash_once")
    assert len(out) == n
    assert sorted(out.path) == sorted(f"f{i}.py" for i in range(n))
    assert out.keep.notna().all()
    assert (out.rps_doc_crash_once == out.n_chars).all()
    assert os.path.exists(sentinel)  # the kill really fired


def test_poison_rows_survive_full_pipeline():
    rows = [
        ("r", "null.py", "c0", None),                      # null content
        ("r", "empty.py", "c1", ""),
        ("r", "nul_byte.py", "c2", "a\x00b\x00c"),
        ("r", "emoji.py", "c3", "🎉🎊 unicode 🚀 " * 20),
        ("r", "rtl.py", "c4", "مرحبا بالعالم " * 30),
        ("r", "cjk.py", "c5", "你好世界。这是一个测试。" * 40),
        ("r", "huge_token.py", "c6", "x" * 100_000),       # one giant word
        ("r", "newlines.py", "c7", "\n" * 500),
        ("r", "surrogateish.py", "c8", "a�￾-ish b"),
        ("r", "normal.py", "c9", "def f():\n    return 42\n"),
    ]
    t = pa.table(
        {
            "repo": [r[0] for r in rows],
            "path": [r[1] for r in rows],
            "commit": [r[2] for r in rows],
            "lang": ["python"] * len(rows),
            "content": pa.array([r[3] for r in rows], pa.string()),
        }
    )
    out = annotate(
        ray.data.from_arrow(t),
        QualityConfig(max_actors=2),
    ).to_pandas()
    assert len(out) == len(rows)
    # every row got a decision and a scrubbed hash
    assert out.keep.notna().all()
    assert out.content_scrubbed_sha256.str.len().eq(64).all()
    # null/empty/degenerate rows are dropped, the normal row's signals exist
    normal = out[out.path == "normal.py"].iloc[0]
    assert normal.rps_doc_word_count > 0
