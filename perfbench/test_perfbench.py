"""Self-tests for the benchmark at reduced problem sizes.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = workloads.Size(mixture_n=20_000, mixture_pool=2, regression_n=2_000,
                       regression_pool=2, batch_n=(1_000, 2_000),
                       batch_pool=1, n_x_grid=11,
                       batch_x_grid=11, setup_repeats=1)


def _records(wl, seed, traced):
    """Per-dataset records of one op on the first pooled input."""
    r = run.Run(wl, tracing.Tracer())
    r.setup(seed)
    ctx = wl.prepare(wl.items[0])
    try:
        if traced:
            with tracing.installed(r.tracer) as missing:
                with r.tracer.span("op", "root") as root:
                    result = wl.call(ctx)
            assert missing == []
            metrics = tracing.op_metrics(r.tracer.take(), root.id)
        else:
            result, metrics = wl.call(ctx), None
        return wl.check(ctx, result), metrics
    finally:
        wl.cleanup(ctx)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_changes_no_output(name, tmp_path):
    wl = workloads.WORKLOADS[name](SMALL, str(tmp_path / "work"))
    plain, _ = _records(wl, 3, traced=False)
    traced, _ = _records(wl, 3, traced=True)
    assert [r.failure for r in plain] == [None] * len(plain)
    assert [(r.key, r.digest) for r in traced] == \
        [(r.key, r.digest) for r in plain]


def test_cli_threads_write_identical_artifacts(tmp_path):
    one = workloads.BatchCliWorkload(SMALL, str(tmp_path / "t1"), threads=1)
    two = workloads.BatchCliWorkload(SMALL, str(tmp_path / "t2"), threads=2)
    recs1, _ = _records(one, 5, traced=False)
    recs2, _ = _records(two, 5, traced=False)
    assert len(recs1) == len(SMALL.batch_n) * workloads.BATCH_SEEDS
    assert [(r.key, r.digest) for r in recs1] == \
        [(r.key, r.digest) for r in recs2]


@pytest.mark.parametrize("name,threads", [("mixture-2e6", None),
                                          ("regression-crossing", None),
                                          ("batch-regression-cli", 1)])
def test_self_times_add_up_to_op_time(name, threads, tmp_path):
    kwargs = {} if threads is None else {"threads": threads}
    wl = workloads.WORKLOADS[name](SMALL, str(tmp_path / "work"), **kwargs)
    _, m = _records(wl, 7, traced=True)
    total = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert total + m["trace.root_self_s"] == pytest.approx(m["trace.op_s"],
                                                           rel=1e-9)
    assert m["trace.root_self_s"] < 0.05 * m["trace.op_s"]


def test_self_time_counts_overlapping_children_once():
    spans = [tracing.Span(0, None, "op", "root", 0.0, 10.0),
             tracing.Span(1, 0, "a", "cli", 1.0, 6.0),
             tracing.Span(2, 0, "b", "cli", 4.0, 8.0)]
    assert tracing.self_times(spans) == {0: 3.0, 1: 5.0, 2: 4.0}


def test_accuracy_gate_failure_is_counted(tmp_path, monkeypatch):
    wl = workloads.MixtureWorkload(SMALL, str(tmp_path))
    monkeypatch.setattr(wl, "gates", {"lambda": 1e-12})
    out = run.measure(wl, seed=1, seconds=0.01, trace=False)
    assert out["result"]["correct"] is False
    assert out["result"]["failed"] == out["result"]["attempted"] > 0
    assert out["details"]["failed_ratio"] == 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "mixture-2e6", "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    lines = proc.stdout.strip().splitlines()
    with pytest.raises((IndexError, json.JSONDecodeError)):
        json.loads(lines[-1])
