"""Tests of the benchmark itself: python3 -m pytest perfbench

They run the benchmark in subprocesses for about a second per workload,
so they take about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import advguard as ag  # noqa: E402
from spans import LAYER_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def output_digests(stdout):
    """The untraced and traced digests of the first timed cycle's outputs."""
    line = next(line for line in stdout.splitlines() if line.startswith("check outputs "))
    return dict(part.split("=") for part in line.split()[2:])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_and_untraced_runs_agree(workload):
    plain, traced = bench(workload, 0), bench(workload, 1)
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    # outputs of traced calls equal those of untraced calls, in this run and the plain one
    digests = output_digests(traced.stdout)
    assert digests["traced"] == digests["untraced"] == output_digests(plain.stdout)["untraced"]
    for proc in (plain, traced):
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
    layers = json.loads(traced.stdout.splitlines()[-1])["metrics"]
    assert {f"{name}.calls" for name in LAYER_NAMES} <= set(layers)


def all_bindings():
    mods = [m for name, m in sys.modules.items() if name == "advguard" or name.startswith("advguard.")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()} | {
        ("ModelClassifier", "__call__"): vars(ag.ModelClassifier)["__call__"]}


def test_tracer_covers_reimports_and_restores_them():
    before = all_bindings()
    tracer = Tracer()
    plane = np.random.default_rng(0).integers(0, 256, size=(28, 28), dtype=np.uint8)
    model = ag.ClassifierModel(np.full((784, 4), 0.01), np.zeros(4), np.full((4, 10), 0.01), np.zeros(10))
    with tracer:
        assert ag.attack.forward is not before[("advguard.attack", "forward")]
        ag.detect(ag.ModelClassifier(model), ag.Image(plane))
    assert all_bindings() == before
    totals = tracer.take()
    assert totals["detector.detect"][0] == 1
    assert totals["entropy.entropy_2d"][0] == 1
    assert totals["entropy.neighborhood_average"][0] == 1
    assert totals["classifier.ModelClassifier.call"][0] == 2
    assert totals["classifier.forward"][0] == 2
    detect_calls, detect_incl, detect_self = totals["detector.detect"]
    children = sum(totals[n][1] for n in ("entropy.entropy_2d", "denoise.adaptive_filter",
                                          "classifier.ModelClassifier.call"))
    assert detect_self == pytest.approx(detect_incl - children, abs=1e-9)
    assert tracer.spans == []


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("mnist-eval", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
