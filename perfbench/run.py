"""Benchmark of the lietor verifier chain, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--out FILE]

Run from the root of a checkout; lietor is imported from its ``src``.  The
benchmark is a closed loop with one client and no threads: it starts one
fresh interpreter (child.py) at a time, waits for it and starts the next.

``--trace 0`` measures the end-to-end metrics.  A warm-up child only
compiles bytecode; then timed children run until at least MIN_SAMPLES have
run and another one would end after ``--seconds``, each preceded by
SETUP_SAMPLES children that only set up.  Each metric is the median over
the children.  The workload's time is given at the reference host speed
(see child.py); the time as measured is printed beside it.

``--trace 1`` runs one untraced and one traced child and reports the
per-layer metrics of the traced one, the tracing overhead (traced minus
untraced ``wall_ref_s``), and fails if a hook that the workload must
exercise recorded no calls.  The spans go to ``perfbench/.work/trace-NAME.json``.

``--all`` runs every workload both ways, prints every metric and, with
``--out``, writes all results, samples and environment to one JSON file.

Every run checks each verdict of each child against the workload's oracle
(workloads.py); the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` (verdicts) and ``metrics``.  Exit
code 0 means the run completed, whatever its verdicts; 2 means the lietor
sources or the committed inputs are missing or altered; 1 means a child
failed to trace or another internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_SAMPLES = 2
SETUP_SAMPLES = 4  # set-up-only children before each timed child
RUN_BUDGET_S = 170.0  # a run must end within 180 s

END_TO_END = [("wall_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
# Printed beside them, not part of the result line: the workload's time as measured.
AS_MEASURED = [("wall_raw_s", "s")]

# Counts of the traced eala-qtorus run at the commit that added the
# benchmark; printed beside the measured ones (the tests assert them).
EALA_BASELINE_COUNTS = {
    "eala.bracket.calls": 215866,
    "eala.bracket.zero_calls": 128371,
    "scalars.cyclo_mul.calls": 538596,
    "graded.tau.calls": 177331,
    "graded.tau.distinct": 4468,
    "matlie.matmul.calls": 479738,
    "linalg.rref.calls": 1509,
}


class BenchError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _stat(summary, hook, i):
    return summary["stats"].get(hook, (0, 0.0, 0.0))[i]


def calls(hook):
    return "count", lambda s: _stat(s, hook, 0)


def self_s(hook):
    return "s", lambda s: _stat(s, hook, 2)


def ratio(num, hook):
    def f(s):
        base = _stat(s, hook, 0)
        return num(s) / base if base else 0.0
    return "ratio", f


def count(key):
    return "count", lambda s: s["counts"][key]


# name -> (unit, function of a traced child's summary)
PER_LAYER = {
    "scalars.cyclo_mul.calls": calls("scalars.cyclo_mul"),
    "scalars.cyclo_mul.self_s": self_s("scalars.cyclo_mul"),
    "scalars.cyclo_mul.int_monomial_ratio": ratio(
        lambda s: s["counts"]["cyclo_mul_int_monomial"], "scalars.cyclo_mul"),
    "scalars.cyclo_inverse.calls": calls("scalars.cyclo_inverse"),
    "scalars.cyclo_add.calls": calls("scalars.cyclo_add"),
    "linalg.rref.calls": calls("linalg.rref"),
    "linalg.rref.self_s": self_s("linalg.rref"),
    "linalg.rref.cells": count("rref_cells"),
    "linalg.rref.max_cells": count("rref_max_cells"),
    "graded.mul.calls": calls("graded.mul"),
    "graded.mul.self_s": self_s("graded.mul"),
    "graded.tau.calls": calls("graded.tau"),
    "graded.tau.distinct_ratio": ratio(lambda s: s["tau_distinct"], "graded.tau"),
    "lattices.contains.calls": calls("lattices.contains"),
    "lattices.window_elements.self_s": self_s("lattices.window_elements"),
    "lattices.is_subset_of.self_s": self_s("lattices.is_subset_of"),
    "rootsys.root_strings_exhaustive.self_s": self_s("rootsys.root_strings_exhaustive"),
    "rootsys.pairing.calls": calls("rootsys.pairing"),
    "rootsys.pairing.self_s": self_s("rootsys.pairing"),
    "refl.validate_axioms.self_s": self_s("refl.validate_axioms"),
    "refl.predicates.self_s": self_s("refl.predicates"),
    "refl.validate_ars_axioms.self_s": self_s("refl.validate_ars_axioms"),
    "refl.ars_structure.self_s": self_s("refl.ars_structure"),
    "matlie.matmul.calls": calls("matlie.matmul"),
    "matlie.matmul.self_s": self_s("matlie.matmul"),
    "matlie.homog_basis.calls": calls("matlie.homog_basis"),
    "matlie.verify_root_graded.self_s": self_s("matlie.verify_root_graded"),
    "matlie.form_pair.calls": calls("matlie.form_pair"),
    "uce.wedge_window.self_s": self_s("uce.wedge_window"),
    "uce.bracket.calls": calls("uce.bracket"),
    "uce.hc1_component.self_s": self_s("uce.hc1_component"),
    "uce.steinberg_check.self_s": self_s("uce.steinberg_check"),
    "eala.bracket.calls": calls("eala.bracket"),
    "eala.bracket.self_s": self_s("eala.bracket"),
    "eala.bracket.zero_ratio": ratio(lambda s: s["counts"]["eala_bracket_zero"],
                                     "eala.bracket"),
    "eala.form.calls": calls("eala.form"),
    "eala.t_alpha.calls": calls("eala.t_alpha"),
    "eala.build_E.self_s": self_s("eala.build_E"),
    "eala.validate_inv_data.self_s": self_s("eala.validate_inv_data"),
    "eala.verify_iara.self_s": self_s("eala.verify_iara"),
    "eala.verify_eala.self_s": self_s("eala.verify_eala"),
    "eala.core_and_tameness.calls": calls("eala.core_and_tameness"),
    "eala.core_and_tameness.self_s": self_s("eala.core_and_tameness"),
    "cli.main.self_s": self_s("cli.main"),
}
# Filled from the untraced and traced child of the same run.
TRACE_METRICS = {"trace.wall_ref_s": "s", "trace.overhead_s": "s"}


def baseline_view(summary):
    """The quantities EALA_BASELINE_COUNTS pins, from a traced child's summary."""
    return {
        "eala.bracket.calls": _stat(summary, "eala.bracket", 0),
        "eala.bracket.zero_calls": summary["counts"]["eala_bracket_zero"],
        "scalars.cyclo_mul.calls": _stat(summary, "scalars.cyclo_mul", 0),
        "graded.tau.calls": _stat(summary, "graded.tau", 0),
        "graded.tau.distinct": summary["tau_distinct"],
        "matlie.matmul.calls": _stat(summary, "matlie.matmul", 0),
        "linalg.rref.calls": _stat(summary, "linalg.rref", 0),
    }


# Children ------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    # Fixed string hashing, so set and dict layouts repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    # Bytecode is cached as for an installed command, whatever the caller set.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(name, seed, trace, setup_only, deadline):
    """Run child.py once; return (result dict or None, seconds, error text)."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        cmd = [sys.executable, str(HERE / "child.py"), name, str(seed),
               "1" if trace else "0", "1" if setup_only else "0", tmp]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - t0, "timed out"
        took = time.perf_counter() - t0
        path = Path(tmp) / "result.json"
        if proc.returncode != 0 or not path.is_file():
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            return None, took, f"exit {proc.returncode}: {tail}"
        result = json.loads(path.read_text())
    if not Path(result["lietor_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported lietor from {result['lietor_file']}, not {SRC}", 2)
    if trace and not setup_only and "trace" not in result:
        raise BenchError("traced child returned no trace", 1)
    return result, took, None


class Samples:
    """Children of one run and the verdicts they gave."""

    def __init__(self, wl):
        self.wl = wl
        self.timed = []       # results of children that ran the workload
        self.crashed = []     # seconds taken by timed children that crashed
        self.setup = []       # set-up times from every non-warm-up child
        self.attempted = 0
        self.failed = []      # wrong or missing verdicts, "child k: name"
        self.errors = []

    def add(self, result, took, error, setup_only=False):
        k = len(self.timed) + len(self.crashed)
        if not setup_only:
            # A crashed child counts every verdict as failed.
            n, bad = self.wl.check(result["outcome"] if result else None)
            self.attempted += n
            self.failed += [f"child {k}: {v}" for v in bad]
        if result is None:
            self.errors.append(f"child {k}{' (set-up only)' if setup_only else ''}: {error}")
            if not setup_only:
                self.crashed.append(took)
            return
        self.setup.append(result["setup_s"])
        if not setup_only:
            self.timed.append(result)


def quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def measure(wl, seed, seconds, deadline):
    """End-to-end samples of one workload (``--trace 0``)."""
    s = Samples(wl)
    run_child(wl.name, seed, False, True, deadline)  # warm-up: bytecode, page cache
    t_start = time.perf_counter()
    longest = 0.0
    while True:
        # Set-up takes milliseconds, so its samples are spread over the run
        # instead of all landing in one fast or slow moment of the host.
        for _ in range(SETUP_SAMPLES):
            s.add(*run_child(wl.name, seed, False, True, deadline), setup_only=True)
        result, took, error = run_child(wl.name, seed, False, False, deadline)
        s.add(result, took, error)
        longest = max(longest, took)
        elapsed = time.perf_counter() - t_start
        if len(s.timed) >= MIN_SAMPLES and elapsed + longest > seconds:
            break
        if deadline - time.monotonic() < 2 * longest + 10:
            break
    return s


def end_to_end(s):
    metrics, detail = {}, {}
    for name, unit in END_TO_END + AS_MEASURED:
        vals = s.setup if name == "setup_s" else [r[name] for r in s.timed]
        if not vals and name.startswith("wall"):
            vals = s.crashed
        if not vals:
            raise BenchError(f"no sample of {name}: " + "; ".join(s.errors), 1)
        q1, med, q3 = quartiles(vals)
        if (name, unit) in END_TO_END:
            metrics[name] = {"value": med, "unit": unit}
        detail[name] = {"median": med, "q1": q1, "q3": q3, "n": len(vals), "samples": vals}
    # Process CPU time beside wall time, to tell preemption from slower execution.
    detail["wall_raw_s"]["cpu_samples"] = [r["cpu_s"] for r in s.timed]
    return metrics, detail


def traced(wl, seed, deadline):
    """One untraced and one traced child (``--trace 1``)."""
    run_child(wl.name, seed, False, True, deadline)  # warm-up
    s = Samples(wl)
    plain, plain_took, plain_error = run_child(wl.name, seed, False, False, deadline)
    s.add(plain, plain_took, plain_error)
    result, took, error = run_child(wl.name, seed, True, False, deadline)
    s.add(result, took, error)
    if result is None:
        raise BenchError(f"traced child failed: {error}", 1)
    if plain is not None and wl.verdicts(plain["outcome"]) != wl.verdicts(result["outcome"]):
        s.failed.append("traced and untraced verdicts differ")
    summary = result["trace"]
    idle = [h for h in wl.active if _stat(summary, h, 0) == 0]
    if idle:
        raise BenchError(f"{wl.name}: hooks recorded no calls: {', '.join(idle)}", 1)
    metrics = {name: {"value": fn(summary), "unit": unit}
               for name, (unit, fn) in PER_LAYER.items()}
    plain_wall = plain["wall_ref_s"] if plain is not None else plain_took
    for name, value in (("trace.wall_ref_s", result["wall_ref_s"]),
                        ("trace.overhead_s", result["wall_ref_s"] - plain_wall)):
        metrics[name] = {"value": value, "unit": TRACE_METRICS[name]}
    return s, metrics, result


# Reporting -------------------------------------------------------------------

def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg())}


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def criterion2_budget(s):
    """Margin of roots-ars' criterion-2 part against its stated budget."""
    times = [r["outcome"]["criterion2_s"] for r in s.timed if "criterion2_s" in r["outcome"]]
    if not times:
        return None
    t, b = statistics.median(times), workloads.CRITERION2_BUDGET_S
    return {"median_s": t, "budget_s": b, "margin_s": b - t}


def report_lines(wl, seed, trace, env, s, metrics, detail, result=None):
    lines = [f"workload {wl.name}  seed {seed}  trace {trace}  "
             f"(closed loop, one client, one fresh interpreter per sample)",
             f"why: {wl.why}",
             f"env: python {env['python']}  cpu {env['cpu']}  nproc {env['nproc']}  "
             f"loadavg at start {' '.join(f'{x:.2f}' for x in env['loadavg'])}"]
    shown = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    shown += [(name, detail[name]["median"], unit) for name, unit in AS_MEASURED
              if name in detail]
    for name, value, unit in shown:
        line = f"  {name:42s} {fmt(value):>14s} {unit}"
        d = detail.get(name)
        if d:
            line += f"  (median; q1 {fmt(d['q1'])}  q3 {fmt(d['q3'])}  n={d['n']})"
        lines.append(line)
    ratio_ = len(s.failed) / s.attempted if s.attempted else 0.0
    lines.append(f"  {'failed_ratio':42s} {fmt(ratio_):>14s} ratio  "
                 f"({len(s.failed)} wrong or missing of {s.attempted} verdicts)")
    budget = criterion2_budget(s)
    if budget:
        lines.append(f"  criterion 2 part: {budget['median_s']:.3f} s against the "
                     f"{budget['budget_s']:g} s budget, margin {budget['margin_s']:.3f} s "
                     f"({budget['margin_s'] / budget['budget_s']:.1%} of the budget)")
    if wl.name == "eala-qtorus":
        lines.append("  note: EA1 samples with a fixed Random(7) and ignores --seed")
    if result is not None and wl.name == "eala-qtorus":
        got = baseline_view(result["trace"])
        for k, want in EALA_BASELINE_COUNTS.items():
            same = "same" if got[k] == want else "DIFFERS"
            lines.append(f"  baseline count {k}: {got[k]} (first commit {want}, {same})")
    lines += [f"  failed: {f}" for f in s.failed[:20]]
    lines += [f"  error: {e}" for e in s.errors]
    return lines


def run_one(name, seed, seconds, trace):
    wl = workloads.WORKLOADS[name]
    env = environment()
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        s, metrics, result = traced(wl, seed, deadline)
        detail = {}
        WORK.mkdir(exist_ok=True)
        (WORK / f"trace-{name}.json").write_text(json.dumps(
            {"workload": name, "seed": seed, "env": env, "summary": result["trace"],
             "spans": [dict(zip(("id", "name", "start_s", "end_s", "parent"), sp))
                       for sp in result["spans"]]}))
    else:
        s = measure(wl, seed, seconds, deadline)
        metrics, detail = end_to_end(s)
        result = None
    lines = report_lines(wl, seed, trace, env, s, metrics, detail, result)
    final = {"correct": not s.failed and not s.errors, "attempted": s.attempted,
             "failed": len(s.failed), "metrics": metrics}
    record = {"workload": name, "seed": seed, "trace": trace, "env": env,
              "criterion2": criterion2_budget(s), "final": final, "detail": detail,
              "errors": s.errors, "failed_verdicts": s.failed}
    return lines, final, record


def preflight():
    if not (SRC / "lietor" / "__init__.py").is_file():
        raise BenchError(f"lietor sources not found under {SRC}", 2)
    bad = workloads.input_problems()
    if bad:
        raise BenchError("committed inputs changed: " + "; ".join(bad), 2)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--all", action="store_true", help="every workload, traced and not")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="with --all: write every result to this JSON file")
    args = p.parse_args(argv)
    if not args.all and not args.workload:
        p.error("give --workload NAME or --all")
    try:
        preflight()
        if not args.all:
            lines, final, _ = run_one(args.workload, args.seed, args.seconds, args.trace)
            print("\n".join(lines))
            print(json.dumps(final), flush=True)
            return 0
        records = []
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                lines, final, record = run_one(name, args.seed, args.seconds, trace)
                print("\n".join(lines), flush=True)
                records.append(record)
        correct = all(r["final"]["correct"] for r in records)
        print(f"all workloads: correct {correct}")
        if args.out:
            Path(args.out).write_text(json.dumps({"results": records}, indent=1))
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
