"""Small hosts: the quality plans must finish, not hang, when the Ray
session has one or two CPUs. Each case runs in its own process with
its own Ray session, killed with its process group on timeout."""

import os
import signal
import subprocess
import sys

import pyarrow.parquet as pq
import pytest

from redpajama_data_ray.sources.corpus import generate_corpus_table

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 240


def _run_bounded(args):
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"{args} did not finish within {TIMEOUT_S} s")
    assert proc.returncode == 0, err[-3000:]
    return out


def _corpus(tmp_path, n=40):
    d = tmp_path / "corpus"
    d.mkdir()
    t = generate_corpus_table(n, seed=3, include_big_file=False)
    pq.write_table(t, str(d / "part.parquet"))
    return str(d), t.num_rows


def test_cli_quality_on_one_cpu(tmp_path):
    """The fused plan once wedged at one CPU: its annotate actor held
    the only CPU and the read tasks feeding it never scheduled."""
    src, n = _corpus(tmp_path)
    out = tmp_path / "out"
    _run_bounded(
        ["-m", "redpajama_data_ray.cli", "--num-cpus", "1", "quality",
         "--input", src, "--output", str(out)],
    )
    assert pq.read_table(str(out / "annotated")).num_rows == n


_PAIRS = """
import sys
import ray
import ray.data
from redpajama_data_ray.pipelines.quality import QualityConfig, annotate

ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
ds = ray.data.read_parquet(sys.argv[1], override_num_blocks=4)
cfg = QualityConfig(fused="pairs", include_line_signals=False)
print(annotate(ds, cfg).count())
"""


def test_pairs_plan_on_two_cpus(tmp_path):
    """The pairs pools once asked for every CPU of a 2-CPU session
    (budget floored at 2), leaving none for the read tasks."""
    src, n = _corpus(tmp_path)
    out = _run_bounded(["-c", _PAIRS, src])
    assert out.strip().splitlines()[-1] == str(n)
