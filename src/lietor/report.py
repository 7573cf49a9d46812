"""Check results, axiom reports and the seeded sampler of sampled checks.

A CheckResult is the one place that decides a check's status, formats its
text line and writes its JSON entry.
"""

from __future__ import annotations

import random


class CheckResult:
    def __init__(self, name: str, ok: bool, witness: str | None = None,
                 window: int | None = None, note: str | None = None,
                 detail: str | None = None):
        self.name = name
        self.ok = ok
        self.witness = witness
        self.window = window
        self.note = note
        self.detail = detail  # the value the check reports

    @property
    def status(self) -> str:
        if not self.ok:
            return "fail"
        return "windowed-pass" if self.window is not None else "pass"

    def to_json(self) -> dict:
        out = {"name": self.name, "status": self.status}
        for key in ("witness", "window", "note", "detail"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        return out

    def line(self) -> str:
        line = f"{self.name}: {self.status}"
        if self.window is not None:
            line += f" (window {self.window})"
        if self.detail is not None:
            line += f"  ({self.detail})"
        if not self.ok and self.witness:
            line += f"  witness: {self.witness}"
        if self.note:
            line += f"  [{self.note}]"
        return line


class AxiomReport:
    def __init__(self, checks: list | None = None):
        self.checks = [] if checks is None else checks

    def add(self, name, ok, witness=None, window=None, note=None, detail=None):
        return self.append(CheckResult(name, bool(ok), witness, window, note, detail))

    def append(self, check: CheckResult) -> CheckResult:
        self.checks.append(check)
        return check

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(c.name == name for c in self.checks)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def to_json(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_json() for c in self.checks]}

    def lines(self):
        return [c.line() for c in self.checks]


def sampled_triples(pool, count: int, seed: int):
    """count triples of pool, drawn with replacement by random.Random(seed).

    The triples are drawn lazily, so a check that stops at its first
    failure draws no further; a seed always gives the same triples.
    """
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(rng.choice(pool) for _ in range(3))


def sampled_check(name: str, pool, count: int, seed: int, holds) -> CheckResult:
    """Does holds(x, y, z) hold on count sampled triples of pool?  A failure's
    witness names the first failing triple and the seed."""
    bad = next((k for k, t in enumerate(sampled_triples(pool, count, seed), 1)
                if not holds(*t)), None)
    witness = None if bad is None else f"fails on triple {bad} of {count} (seed {seed})"
    return CheckResult(name, bad is None, witness, detail=f"{count} triples, seed {seed}")
