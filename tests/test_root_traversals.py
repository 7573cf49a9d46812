"""The root layer's traversals against the code they replaced.

root_strings_exhaustive walks each alpha-string once, from its bottom;
ars_structure reads max_string_len off the same strings; ReS3 and the
reduced flag read the real roots grouped by line.  The references below are
that code as it was before, kept test-only: the walk from every root beta
with a probe 3 points past each end, the count of roots b + i a for
|i| <= 6 (with the 13 steps i a precomputed), and the comparison of every
pair of real roots.
"""

import random
from fractions import Fraction
from operator import add

import pytest

from lietor.refl import (
    AffineReflectionSystem,
    PreReflectionSystem,
    _res3,
    ars_structure,
    build_affine_rs,
    predicates,
    untwisted_datum,
    validate_axioms,
)
from lietor.rootsys import (
    RootSystem,
    _strings,
    build_classical,
    build_exceptional,
    root_strings_exhaustive,
)
from lietor.scalars import QQ, frac_to_str as fs
from roots_reference import integer_model
from test_refl import ARS_CASES, _small, _variants

F = Fraction

CRITERION2 = ([("A", n) for n in range(1, 6)] + [("B", n) for n in range(2, 6)]
              + [("C", n) for n in range(3, 6)] + [("D", n) for n in range(4, 6)]
              + [("BC", n) for n in range(1, 6)]
              + [(fam, None) for fam in ("G2", "F4", "E6", "E7", "E8")])


def _strings_from_every_beta(rs, buffer=3, alphas=None):
    m = integer_model(rs)
    max_len = 0
    for ia in m.order if alphas is None else alphas:
        if not any(ia):
            continue
        alpha = m.given(ia)
        for ib in m.order:
            beta = m.given(ib)
            lo, cur = 0, ib
            while tuple(c - a for c, a in zip(cur, ia)) in m.roots:
                cur, lo = tuple(c - a for c, a in zip(cur, ia)), lo - 1
            hi, cur = 0, ib
            while tuple(c + a for c, a in zip(cur, ia)) in m.roots:
                cur, hi = tuple(c + a for c, a in zip(cur, ia)), hi + 1
            for i in list(range(lo - buffer, lo)) + list(range(hi + 1, hi + buffer + 1)):
                if tuple(b + i * a for b, a in zip(ib, ia)) in m.roots:
                    return False, max_len, (beta, alpha, "broken string")
            if hi + lo != -m.pairing(ib, ia):
                return False, max_len, (beta, alpha, "p - q mismatch")
            max_len = max(max_len, hi - lo + 1)
    return True, max_len, None


def _max_len_by_probe(ars, window):
    prs = ars.to_prs(window)
    m = integer_model(prs)
    max_len = 0
    for a in m.real:
        steps = [tuple(i * y for y in a) for i in range(-6, 7)]
        for b in m.roots:
            length = sum(tuple(map(add, b, s)) in m.roots for s in steps)
            max_len = max(max_len, length)
    return max_len


def _collinearity(a, b):
    ratio = None
    for x, y in zip(a, b):
        if bool(x) != bool(y):
            return None
        if x:
            r = Fraction(y) / x
            if ratio is None:
                ratio = r
            elif r != ratio:
                return None
    return ratio


def _pairwise_res3_and_reduced(prs):
    m = integer_model(prs)
    real = sorted(m.real)
    witness, reduced = None, True
    for i, a in enumerate(real):
        for b in real[i + 1:]:
            c = _collinearity(a, b)
            if c is None:
                continue
            if c not in (1, -1):
                reduced = False
            if witness is None and m.cor[b] != tuple(QQ(x, c) for x in m.cor[a]):
                witness = f"s_({fs(c)})*{fs(m.given(a))} != s_{fs(m.given(a))}"
    return (witness is None, witness), reduced


def _string_middles(rs):
    """Nonzero roots b with b - a and b + a roots for some nonzero root a."""
    m = integer_model(rs)
    nonzero = [a for a in m.roots if any(a)]
    return sorted(m.given(b) for b in nonzero if any(
        tuple(x - y for x, y in zip(b, a)) in m.roots
        and tuple(x + y for x, y in zip(b, a)) in m.roots for a in nonzero))


def _perturbed(rs, rng):
    """Drop a middle root of a string (when there is one) and rescale a coroot."""
    middles = _string_middles(rs)
    if middles:
        drop = rng.choice(middles)
        yield "drop-middle", RootSystem(rs.space, rs.roots - {drop},
                                        {k: v for k, v in rs.coroots.items() if k != drop})
    a = rng.choice(sorted(rs.nonzero_roots()))
    c = rng.choice([F(2), F(3), F(1, 2), F(-1)])
    yield "rescale", RootSystem(rs.space, rs.roots,
                                {**rs.coroots, a: tuple(c * x for x in rs.coroots[a])})


@pytest.mark.parametrize("fam,rk", CRITERION2, ids=[f"{f}{r or ''}" for f, r in CRITERION2])
def test_root_layer_matches_the_pairwise_and_every_beta_references(fam, rk):
    base = build_exceptional(fam) if rk is None else build_classical(fam, rk)
    rng = random.Random(f"{fam}{rk}")
    # The traversals read only roots and coroots, and scaling the form of an
    # irreducible system keeps its coroots: the normalized and 3x-form
    # variants that repeat a case are skipped.
    cases, seen = [], set()
    for name, rs in _variants(base).items():
        key = (frozenset(rs.roots), frozenset(rs.coroots.items()))
        if key in seen:
            continue
        seen.add(key)
        cases.append((name, rs))
        cases.extend((f"{name}/{kind}", p) for kind, p in _perturbed(rs, rng))
    reasons = set()
    for name, rs in cases:
        got = root_strings_exhaustive(rs)
        assert got == _strings_from_every_beta(rs), name
        reasons.add(got[2][2] if got[2] else "ok")
        # The scan stops at the first failure in sorted order, a p - q
        # mismatch on B2 and G2; read alone, each alpha along which a
        # dropped middle breaks a string names that broken string.
        if name.endswith("drop-middle"):
            for ia in filter(any, rs.model.order):
                got = _strings(rs.model, [ia])
                assert got == _strings_from_every_beta(rs, alphas=[ia]), (name, ia)
                reasons.add(got[2][2] if got[2] else "ok")
        prs = PreReflectionSystem.from_root_system(rs)
        res3, reduced = _pairwise_res3_and_reduced(prs)
        m = integer_model(prs)
        assert (_res3(m).ok, _res3(m).witness) == res3, name
        assert predicates(prs)["reduced"] is reduced, name
    # the plain system passes; the diag form and the rescaled coroot fail
    assert "ok" in reasons and "p - q mismatch" in reasons
    if (fam, rk) in (("B", 2), ("G2", None)):
        assert "broken string" in reasons


def test_res3_reference_sees_a_failing_pair():
    # BC1 with the coroot of 2e1 doubled: s_(2e1) != s_(e1)
    bc1 = build_classical("BC", 1)
    two = (F(2),)
    prs = PreReflectionSystem.from_root_system(
        RootSystem(bc1.space, bc1.roots, {**bc1.coroots, two: (F(2),)}))
    res3, reduced = _pairwise_res3_and_reduced(prs)
    rep = validate_axioms(prs)["ReS3"]
    assert res3[0] is False and (rep.ok, rep.witness) == res3
    assert reduced is False and predicates(prs)["reduced"] is False


@pytest.mark.parametrize("fam,rk,tier", [c[:3] for c in ARS_CASES],
                         ids=[f"{c[0]}{c[1] or ''}-t{c[2]}" for c in ARS_CASES])
def test_ars_max_string_len_matches_the_probe_count(fam, rk, tier):
    if fam == "A2/Z2":
        a2 = build_classical("A", 2)
        ed = untwisted_datum(a2, 2)
        ars = AffineReflectionSystem(a2, ed.S_prime, ed)
    else:
        ars = build_affine_rs(_small(fam, rk), tier)[0]
    for window in (1, 2, 3, 4):
        assert ars_structure(ars, window)["max_string_len"] == _max_len_by_probe(ars, window)
