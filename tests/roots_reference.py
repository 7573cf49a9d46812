"""Test-only reference for the root-level checks: the per-pair tuple bodies
that the row kernel of ``lietor.rootsys.IntegerRoots`` replaced, and the
Fraction bodies that the integer model replaced.

Most functions here loop over pairs (a, b) of integer root tuples, reflect
b by a with ``IntegerRoots.reflect``, pair with ``IntegerRoots.pairing`` and
walk root strings by building the tuples b + k a.  The differential tests
in ``test_root_rows.py`` compare them with ``lietor.refl`` and
``lietor.rootsys`` on the same inputs: verdicts, witnesses and values.

``coroot_from_form``, ``reflect`` and ``root_string`` work on Fraction
tuples, one root or one pair at a time: the coroot of one root from the
form, one reflection and one alpha-string.  ``direct_sum`` builds the
reducible inputs.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

from lietor.linalg import kernel, mat_vec, rank as mat_rank
from lietor.refl import PreReflectionSystem, _res3
from lietor.report import AxiomReport
from lietor.rootsys import IntegerRoots, RootSpace, RootSystem
from lietor.scalars import QQ, frac_to_str as fs

# How far past each end of a string root_strings_exhaustive looks for a root.
STRING_PROBE = 3


def coroot_from_form(space: RootSpace, a):
    """2 F a / (a | a) in Fractions, 0 for a = 0."""
    if not any(a):
        return (Fraction(0),) * space.dim
    norm = space.pair(a, a)
    if norm == 0:
        raise ValueError(f"isotropic nonzero root {a} under the given form")
    fa = mat_vec([list(r) for r in space.form], list(a), QQ)
    return tuple(2 * x / norm for x in fa)


def reflect(rs: RootSystem, alpha, x):
    """s_alpha(x) = x - <x, alpha_check> alpha; identity for alpha imaginary."""
    alpha = tuple(alpha)
    if alpha not in rs.roots:
        raise ValueError(f"{alpha} is not a root")
    c = rs.pairing(x, alpha)
    return tuple(xi - c * ai for xi, ai in zip(x, alpha)) if c else tuple(x)


def root_string(rs: RootSystem, beta, alpha):
    """The alpha-string through beta: (interval, p, q) with p - q = -<beta, alpha_check>."""
    beta, alpha = tuple(beta), tuple(alpha)
    if alpha not in rs.roots or not any(alpha):
        raise ValueError("alpha must be a nonzero root")
    if beta not in rs.roots:
        raise ValueError("beta must be a root")
    members = [i for i in range(-9, 10)
               if tuple(b + i * a for b, a in zip(beta, alpha)) in rs.roots]
    lo, hi = members[0], members[-1]
    if members != list(range(lo, hi + 1)):
        raise ArithmeticError(f"broken root string at beta={beta}, alpha={alpha}")
    p, q = hi, -lo
    a = -rs.pairing(beta, alpha)
    if p - q != a:
        raise ArithmeticError(
            f"string bounds p={p}, q={q} violate p - q = -<beta,alpha_check> = {a}"
        )
    return list(range(lo, hi + 1)), p, q


def direct_sum(*systems) -> RootSystem:
    """Direct sum on the orthogonal direct sum of the ambient spaces: a
    reducible input for the classification and component tests."""
    dim = sum(rs.dim for rs in systems)
    form = [[Fraction(0)] * dim for _ in range(dim)]
    offset = 0
    roots = {(Fraction(0),) * dim}
    for rs in systems:
        d = rs.dim
        for i in range(d):
            for j in range(d):
                form[offset + i][offset + j] = rs.space.form[i][j]
        for a in rs.roots:
            vec = [Fraction(0)] * dim
            vec[offset:offset + d] = list(a)
            roots.add(tuple(vec))
        offset += d
    return RootSystem(RootSpace(dim, tuple(tuple(r) for r in form)), roots)


def strings(m: IntegerRoots, a):
    """Each a-string once, as [b, b + a, ...] from its bottom b up."""
    for b in m.roots:
        if tuple(map(sub, b, a)) in m.roots:
            continue
        string = [b]
        nxt = tuple(map(add, b, a))
        while nxt in m.roots:
            string.append(nxt)
            nxt = tuple(map(add, nxt, a))
        yield string


def validate_axioms(prs: PreReflectionSystem) -> AxiomReport:
    m = IntegerRoots(prs.roots, prs.coroots)
    rep = AxiomReport()
    note0 = f"X = span(R), rank {mat_rank([list(r) for r in prs.roots], QQ)} in ambient dim {prs.dim}"
    ok0, witness0 = (0,) * prs.dim in m.roots, None
    if not ok0:
        witness0 = "0 missing from R"
    else:
        for a in m.real:
            if m.pairing(a, a) != 2:
                ok0 = False
                witness0 = f"s_alpha^2 != id at alpha={fs(m.orig[a])}"
                break
    rep.add("ReS0", ok0, witness0, note=note0)

    ok1, witness1 = True, None
    for a in m.real:
        if not any(a):
            ok1, witness1 = False, "0 assigned a nonzero coroot"
            break
        if m.reflect(a, a) != tuple(-x for x in a):
            ok1, witness1 = False, f"s_alpha(alpha) != -alpha at alpha={fs(m.orig[a])}"
            break
    rep.add("ReS1", ok1, witness1)

    real = sorted(m.real)
    real_then_imag = real + sorted(m.imag)
    ok2, witness2 = True, None
    for a in real:
        for b in real_then_imag:
            img = m.reflect(a, b)
            if img not in m.roots or (img in m.real) != (b in m.real):
                part = "real" if b in m.real else "imaginary"
                ok2, witness2 = False, f"s_{fs(m.orig[a])}({fs(m.orig[b])}) leaves the {part} part"
                break
        if not ok2:
            break
    rep.add("ReS2", ok2, witness2)
    rep.append(_res3(m))

    ok4, witness4 = True, None
    roots = sorted(m.roots)
    for a in real:
        cor_a = m.cor[a]
        for b in roots:
            cor_img = m.cor.get(m.reflect(a, b))
            if cor_img is None:
                continue  # already a ReS2 failure
            cor_b = m.cor[b]
            pba = m.pairing(a, b)
            expect = cor_b if not pba else tuple(cb - pba * ca for cb, ca in zip(cor_b, cor_a))
            if cor_img != expect:
                ok4 = False
                witness4 = f"s_a s_b s_a != s_(s_a b) at a={fs(m.orig[a])}, b={fs(m.orig[b])}"
                break
        if not ok4:
            break
    rep.add("ReS4", ok4, witness4)
    return rep


def predicates(prs: PreReflectionSystem) -> dict:
    m = IntegerRoots(prs.roots, prs.coroots)
    real = sorted(m.real)
    reduced = all(len({tuple(map(abs, a)) for a in group}) == 1
                  for group in m.collinear_classes())
    roots = real + sorted(m.imag)
    pair = [[m.pairing(b, a) for b in roots] for a in real]  # <roots[j], real[i]_check>
    integral = all(type(k) is int for row in pair for k in row)
    coherent = all((pair[i][j] == 0) == (pair[j][i] == 0)
                   for i in range(len(real)) for j in range(len(real)))
    cors = [list(prs.coroots[m.orig[a]]) for a in real]
    span_rows = [list(r) for r in prs.roots if any(r)]
    ker = kernel(cors, QQ, prs.dim)
    nondegenerate = True
    if ker and span_rows:
        nondegenerate = (mat_rank(span_rows + ker, QQ)
                         == mat_rank(span_rows, QQ) + mat_rank(ker, QQ))
    symmetric = all(tuple(-x for x in a) in m.roots for a in m.roots)
    tame = all(any(tuple(x - y for x, y in zip(d, a)) in m.real for a in real) for d in m.imag)
    return {
        "reduced": reduced,
        "integral": integral,
        "nondegenerate": nondegenerate,
        "symmetric": symmetric,
        "coherent": coherent,
        "tame": tame,
    }


def check_form(prs: PreReflectionSystem, form) -> dict:
    space = RootSpace(prs.dim, tuple(tuple(Fraction(x) for x in row) for row in form))
    basis = sorted(prs.roots)
    pair = space.pair
    m = IntegerRoots(prs.roots, prs.coroots)
    invariant = True
    for ia in m.real:
        a = m.orig[ia]
        na = pair(a, a)
        for ix, x in m.orig.items():
            if 2 * pair(x, a) != m.pairing(ix, ia) * na:
                invariant = False
                break
        if not invariant:
            break
    imaginary = {a for a in prs.roots if not any(prs.coroots[a])}
    rad_cond = all(all(pair(d, x) == 0 for x in basis) for d in imaginary)
    strictly = invariant and rad_cond
    in_rad = {a for a in prs.roots if all(pair(a, x) == 0 for x in basis)}
    affine = invariant and in_rad == imaginary
    return {"invariant": invariant, "strictly_invariant": strictly, "affine": affine}


def root_strings_exhaustive(rs):
    m = IntegerRoots(rs.roots, rs.coroots)
    max_len = 0
    for ia, alpha in m.orig.items():
        if not any(ia):
            continue
        p_aa = m.pairing(ia, ia)
        probes = [tuple(k * x for x in ia) for k in range(2, STRING_PROBE + 1)]
        place = {}  # root -> (length of its string, reason it fails or None)
        for string in strings(m, ia):
            n = len(string)
            broken = any(tuple(map(sub, string[0], v)) in m.roots
                         or tuple(map(add, string[-1], v)) in m.roots for v in probes)
            p_ba = m.pairing(string[0], ia)
            for q, ib in enumerate(string):
                reason = ("broken string" if broken
                          else "p - q mismatch" if n - 1 - 2 * q != -(p_ba + q * p_aa)
                          else None)
                place[ib] = (n, reason)
        for ib, beta in m.orig.items():
            n, reason = place[ib]
            if reason:
                return False, max_len, (beta, alpha, reason)
            max_len = max(max_len, n)
    return True, max_len, None


def connected_components(rs):
    m = IntegerRoots(rs.roots, rs.coroots)
    real = sorted(m.real)
    parent = list(range(len(real)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, a in enumerate(real):
        for j in range(i + 1, len(real)):
            if m.pairing(real[j], a) != 0:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i, a in enumerate(real):
        groups.setdefault(find(i), []).append(m.orig[a])
    return [sorted(g) for g in sorted(groups.values(), key=lambda g: min(g))]


def fractional_pairing(m: IntegerRoots):
    """The least (a, b) with <b, a_check> not an integer, or None."""
    return min(((a, b) for a in m.roots for b in m.roots if type(m.pairing(b, a)) is not int),
               default=None)


def ed1_sums(m: IntegerRoots, lam):
    fam = {a: lam(x) for a, x in m.orig.items()}
    roots = sorted(m.roots)
    for a in sorted(m.real):
        for b in roots:
            yield ((m.orig[a], m.orig[b]), fam[b], fam[a], -m.pairing(b, a),
                   fam.get(m.reflect(a, b)))


def max_string_len(m: IntegerRoots):
    """The longest a-string over the real a, as ars_structure counts it."""
    return max((len(string) for a in m.real for string in strings(m, a)), default=0)
