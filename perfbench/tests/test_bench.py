"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They run each workload once untraced and twice traced, about four minutes
on a 2-core machine.  Checked: traced counters repeat exactly, tracing does
not change a verdict, uce-toroidal and roots-ars never touch Cyclo, the
eala-qtorus counts pinned at the benchmark's first commit, the verdict
oracle, the probe's scaling of wall time, BENCHMARK.json against the
metrics the code prints, and refusal to run without the lietor sources or
with altered inputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import child as child_mod  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAMES = list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def child():
    cache = {}

    def get(name, trace, k=0):
        key = (name, trace, k)
        if key not in cache:
            result, _, error = run.run_child(name, 0, trace, False, time.monotonic() + 170)
            assert result is not None, error
            cache[key] = result
        return cache[key]

    return get


def counters(result):
    summary = result["trace"]
    return ({name: stat[0] for name, stat in summary["stats"].items()},
            summary["counts"], summary["tau_distinct"])


@pytest.mark.parametrize("name", NAMES)
def test_traced_counters_repeat(child, name):
    assert counters(child(name, True, 0)) == counters(child(name, True, 1))


@pytest.mark.parametrize("name", NAMES)
def test_tracing_keeps_verdicts(child, name):
    wl = workloads.WORKLOADS[name]
    plain, traced = child(name, False)["outcome"], child(name, True)["outcome"]
    statuses = [[(c["name"], c["status"]) for c in o["checks"]] for o in (plain, traced)]
    assert statuses[0] == statuses[1]
    assert wl.verdicts(plain) == wl.verdicts(traced)
    assert wl.check(plain) == (wl.n_verdicts, [])


@pytest.mark.parametrize("name", NAMES)
def test_active_hooks_record_calls(child, name):
    calls = counters(child(name, True))[0]
    assert [h for h in workloads.WORKLOADS[name].active if not calls[h]] == []


@pytest.mark.parametrize("name", ["uce-toroidal", "roots-ars"])
def test_cyclo_bypassed(child, name):
    calls = counters(child(name, True))[0]
    assert calls["scalars.cyclo_mul"] == 0
    assert calls["scalars.cyclo_add"] == 0
    assert calls["scalars.cyclo_inverse"] == 0


def test_aliases_and_by_name_imports_hooked(child):
    patched = child("eala-qtorus", True)["trace"]["patched"]
    assert "lietor.scalars.Cyclo.__rmul__" in patched["scalars.cyclo_mul"]
    assert "lietor.scalars.Cyclo.__radd__" in patched["scalars.cyclo_add"]
    assert {"lietor.uce.rref", "lietor.rootsys.rref"} <= set(patched["linalg.rref"])
    # The unhooked by-name imports reach rref and matmul through hooked names.
    sys.path.insert(0, str(run.SRC))
    from lietor import eala, linalg, matlie, uce

    assert eala.mat_rank is linalg.rank and uce.mat_rank is linalg.rank
    assert eala.solve is linalg.solve and uce.kernel is linalg.kernel
    assert eala.mat_bracket is matlie.bracket and uce.mat_bracket is matlie.bracket
    for fn in (linalg.rank, linalg.solve, linalg.kernel):
        assert "rref" in fn.__code__.co_names
    assert "matmul" in matlie.bracket.__code__.co_names


def test_eala_counts_at_first_commit(child):
    got = run.baseline_view(child("eala-qtorus", True)["trace"])
    assert got == run.EALA_BASELINE_COUNTS


def test_oracle_counts_wrong_and_missing_verdicts(child):
    wl = workloads.WORKLOADS["eala-qtorus"]
    outcome = json.loads(json.dumps(child("eala-qtorus", False)["outcome"]))
    for c in outcome["checks"]:
        if c["name"] == "IA3":
            c["status"] = "fail"
    outcome["checks"] = [c for c in outcome["checks"] if c["name"] != "EA2"]
    assert wl.check(outcome) == (wl.n_verdicts, ["IA3", "EA2"])
    assert wl.check(None) == (wl.n_verdicts, [name for name, _ in wl.verdicts({})])


def test_probe_scales_each_stretch_by_nearest_probes():
    ref = child_mod.REF_PROBE_S
    probe = child_mod.Probe()
    # One probe before t0 = 0.1, one between, one after t1 = 1.9.
    probe.marks = [(0.0, 2 * ref), (1.0, 1.0 + ref), (2.0, 2.0 + 2 * ref)]
    raw, at_ref = probe.times(0.1, 1.9)
    assert raw == pytest.approx(1.8 - ref)
    # Both stretches see probes of 2 ref, ref and 2 ref; their median is 2 ref.
    assert at_ref == pytest.approx((1.8 - ref) / 2)


def test_benchmark_json_matches_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == NAMES
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    per_layer = [(n, unit) for n, (unit, _) in run.PER_LAYER.items()]
    per_layer += list(run.TRACE_METRICS.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer


def _copy(tmp_path, with_src):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    if with_src:
        shutil.copytree(run.SRC, tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))


def _run(cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "roots-ars",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=cwd, capture_output=True, text=True, timeout=60)


def test_refuses_without_sources(tmp_path):
    _copy(tmp_path, with_src=False)
    proc = _run(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_refuses_altered_inputs(tmp_path):
    _copy(tmp_path, with_src=True)
    (tmp_path / "perfbench" / "inputs" / "q3.json").write_text(
        '{"kind":"qtorus","n":2,"q":[["1","-1"],["-1","1"]],"field":"Q"}\n')
    proc = _run(tmp_path)
    assert proc.returncode == 2
    assert "q3.json" in proc.stderr
