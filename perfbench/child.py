"""One sample of one workload, in a fresh interpreter.  Started by run.py.

    python3 perfbench/child.py WORKLOAD SEED TRACE SETUP_ONLY WORK_DIR

Times the set-up (``import lietor`` and building the inputs) and, unless
SETUP_ONLY is 1, the workload itself.  With TRACE 1 the hooks of hooks.py
are installed after set-up.  Writes its result as JSON to WORK_DIR/result.json.

The workload's time is given twice: as measured (``wall_raw_s``) and at
the reference host speed (``wall_ref_s``).  The speed of a shared host's
cores drifts by up to 1.8x within seconds, so a fixed probe of interpreter
work runs next to the timed code (before and after it, and every
PROBE_INTERVAL_S during it, from a timer signal) and each stretch of timed
code is scaled by REF_PROBE_S over the median duration of the probes
nearest to it.  Probe time is excluded from both.
"""

from __future__ import annotations

import bisect
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

PROBE_INTERVAL_S = 0.2
# Duration of probe_work at the reference speed: about its median during
# the workloads on a 2-core 2.1 GHz Xeon host with Python 3.11.  A time at
# the reference speed is what the code would take on a host where the probe
# takes this long.
REF_PROBE_S = 0.00125
NEAREST = 3  # probes on each side of a stretch whose median scales it


def probe_work():
    """Fixed work in the interpreter, of the kinds lietor does: Fraction
    arithmetic, tuple keys, a dict.  About a millisecond.  It runs only
    after set-up, so importing fractions here takes nothing out of set-up."""
    from fractions import Fraction

    d = {}
    x = Fraction(0)
    for i in range(300):
        k = (i & 15, i >> 4)
        d[k] = d.get(k, 0) + i * i
        x += Fraction(i % 7 + 1, i % 5 + 1)
    return x, len(d)


class Probe:
    def __init__(self):
        self.marks = []  # (start, end) of every probe, in order

    def once(self, n=1):
        for _ in range(n):
            t0 = time.perf_counter()
            probe_work()
            self.marks.append((t0, time.perf_counter()))

    def _on_alarm(self, signum, frame):
        self.once()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def times(self, t0, t1):
        """(raw, at reference speed) seconds from t0 to t1, probes excluded."""
        starts = [s for s, _ in self.marks]
        cuts = [t0]
        for s, e in self.marks:
            if t0 <= s and e <= t1:
                cuts += [s, e]
        cuts.append(t1)
        raw = ref = 0.0
        for a, b in zip(cuts[::2], cuts[1::2]):
            i, j = bisect.bisect_left(starts, a), bisect.bisect_left(starts, b)
            near = self.marks[max(0, i - NEAREST):i] + self.marks[j:j + NEAREST]
            raw += b - a
            ref += (b - a) * REF_PROBE_S / statistics.median(e - s for s, e in near)
        return raw, ref


def main(argv):
    name, seed, trace, setup_only, work = argv
    seed, trace, setup_only, work = int(seed), trace == "1", setup_only == "1", Path(work)
    import workloads

    wl = workloads.WORKLOADS[name]
    t0 = time.perf_counter()
    state = wl.setup(seed)
    result = {"setup_s": time.perf_counter() - t0}
    if not setup_only:
        tracer = None
        if trace:
            import hooks

            tracer = hooks.install(hooks.Tracer())
        probe = Probe()
        probe.once(NEAREST + 1)  # the first one warms the probe's code up
        del probe.marks[0]
        probe.start()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            outcome = wl.run(state, seed, work)
        finally:
            t1, c1 = time.perf_counter(), time.process_time()
            probe.stop()
        probe.once(NEAREST)
        result["wall_raw_s"], result["wall_ref_s"] = probe.times(t0, t1)
        result["cpu_s"] = c1 - c0
        result["probes"] = len(probe.marks)
        result["outcome"] = outcome
        if tracer is not None:
            result["trace"] = tracer.summary()
            result["spans"] = tracer.spans
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    import lietor

    result["lietor_file"] = lietor.__file__
    (work / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
