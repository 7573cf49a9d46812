"""Pre-reflection and reflection systems, extension data, affine reflection
systems and the affine root systems with their twisted labels.

Finite data is checked exhaustively.  Extension data, and the reflection
axioms ReS0-ReS4 and reducedness of an affine reflection system, are decided
exactly by coset arithmetic on the Lambda_xi (see lattices.LatticeSubset):
the axioms of R are those of the finite S plus ED1's coset containment.  Only
the root strings of an affine reflection system are read on a box window,
and that verdict records the window.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul, not_

from .lattices import LatticeSubset
from .linalg import integer_kernel, lattice_rank
from .report import AxiomReport, CheckResult
from .rootsys import (
    IntegerRoots,
    PreReflectionSystem,
    RootSystem,
    classify,
    connected_components,
    indivisible_part,
    integer_rows,
    length_partition,
    normalized,
    vec_scale,
)
from .scalars import frac_to_str as fs


def _res3(m: IntegerRoots) -> CheckResult:
    """ReS3 on the real roots of m, witnessed by the first failing pair of
    collinear roots in sorted order.  For b = c a, s_b == s_a iff
    b_check = a_check / c, that is iff a0 a_check = b0 b_check for the
    first nonzero coordinates a0 and b0 = c a0.  So a group passes iff each
    of its roots has the key of its first root a, and otherwise its first
    failing pair is (a, b) for the first b with another key."""
    bad = None
    for group in m.collinear_classes:
        key = [tuple(_lead(a) * x for x in m.cor[a]) for a in group]
        j = next((j for j in range(1, len(group)) if key[j] != key[0]), None)
        if j is not None and (bad is None or (group[0], group[j]) < bad):
            bad = group[0], group[j]
    witness = None
    if bad:
        a, b = bad
        witness = f"s_({fs(Fraction(_lead(b), _lead(a)))})*{fs(m.orig[a])} != s_{fs(m.orig[a])}"
    return CheckResult("ReS3", bad is None, witness)


def _lead(a):
    return next(x for x in a if x)


def validate_axioms(prs: PreReflectionSystem) -> AxiomReport:
    """ReS0 through ReS4, each reported separately with a witness on failure.

    ReS2 and ReS4 concern real a only: an imaginary reflection is the
    identity.  They pass when the model has a cover (IntegerRoots.cover),
    whose generators pass them and whose orbits reach every real root;
    otherwise they loop over every real a.  A reflected image with a
    fractional coordinate (None) is no root.
    """
    m = prs.model
    rep = AxiomReport()
    # X is the span of R; the ambient coordinates are only a carrier, so the
    # spanning half of ReS0 holds by construction and we record the rank.
    note0 = f"X = span(R), rank {lattice_rank(m.root_gram())} in ambient dim {prs.dim}"
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

    # ReS2 and ReS4 hold on a cover (IntegerRoots.cover).  Without one,
    # every real row is read, and the first failing a gives each witness.
    ok2 = ok4 = True
    witness2 = witness4 = None
    if m.cover is None:
        order, den_cokeys = m.order, m.coroot_keys()
        for i in range(m.n_real):
            _, j, b = m.reflection_faults(i, den_cokeys)
            a = m.orig[order[i]]
            if ok2 and j is not None:
                part = "real" if j < m.n_real else "imaginary"
                ok2, witness2 = False, f"s_{fs(a)}({fs(m.orig[order[j]])}) leaves the {part} part"
            if ok4 and b is not None:
                ok4, witness4 = False, f"s_a s_b s_a != s_(s_a b) at a={fs(a)}, b={fs(m.orig[b])}"
            if not (ok2 or ok4):
                break
    rep.add("ReS2", ok2, witness2)
    rep.append(_res3(m))
    rep.add("ReS4", ok4, witness4)
    return rep


def predicates(prs: PreReflectionSystem) -> dict:
    """The six basic flags evaluated by direct quantification.  integral
    and coherent read the row of each real representative of a cover
    (IntegerRoots.cover), or of every real root when there is none."""
    m = prs.model
    nr, den = m.n_real, m.den
    real = m.order[:nr] if m.cover is None else [m.order[i] for i in m.cover if i < nr]
    # Collinear real roots are +-each other.
    reduced = all(len({tuple(map(abs, a)) for a in group}) == 1
                  for group in m.collinear_classes)
    integral = coherent = True
    for a in real:
        row = m.row(m.cor[a])  # den <b, a_check>
        integral = integral and (den == 1 or not any(map(den.__rmod__, row)))
        # <b, a_check> = 0 iff <a, b_check> = 0, over the real b
        coherent = coherent and (list(map(not_, row[:nr]))
                                 == list(map(not_, m.corow(a)[:nr])))
        if not (integral or coherent):
            break
    # Nondegenerate: no nonzero vector of span(R) killed by every coroot,
    # that is rank [R; K] = rank R + dim K for rows K spanning the kernel of
    # the coroots.  Each rank and kernel is read off a dim x dim integer
    # Gram matrix X^T X, in integers: rank(R^T R + K^T K) = rank [R; K] for
    # any rows K that span the kernel, so its integer basis serves.
    ker = integer_kernel(m.coroot_gram(), prs.dim)
    gram = m.root_gram()
    nondegenerate = True
    if ker and any(map(any, gram)):
        both = [[x + sum(k[i] * k[j] for k in ker) for j, x in enumerate(row)]
                for i, row in enumerate(gram)]
        nondegenerate = lattice_rank(both) == lattice_rank(gram) + len(ker)
    symmetric = all(-k in m.slot for k in m.keys)
    real_keys = set(m.keys[:nr])
    tame = all(any(kd - ka in real_keys for ka in m.keys[:nr]) for kd in m.keys[nr:])
    return {
        "reduced": reduced,
        "integral": integral,
        "nondegenerate": nondegenerate,
        "symmetric": symmetric,
        "coherent": coherent,
        "tame": tame,
    }


def check_form(prs: PreReflectionSystem, form) -> dict:
    """Invariance flags of a symmetric bilinear form on the ambient space.

    The form is rescaled to an integer matrix F, and each root a gets the
    row of F a: the integers c (b | a) over the roots b, for one c > 0.
    Invariance asks 2 (b | a) = <b, a_check> (a | a) along the row of
    a_check, and a lies in the radical when (a | b) = 0 for every root b.
    """
    m = prs.model
    _, f_int = integer_rows(form)
    f_left = [list(col) for col in zip(*f_int)]  # b . F^T a = (a | b)
    symmetric = f_left == f_int
    two_den = 2 * m.den
    invariant, in_rad = True, set()
    for i, a in enumerate(m.order):
        # a is in root_scale coordinates: c = scale * root_scale^2
        dots = m.row([sum(map(mul, row, a)) for row in f_int])
        left = dots if symmetric else m.row([sum(map(mul, row, a)) for row in f_left])
        if not any(left):
            in_rad.add(a)
        if invariant and i < m.n_real:
            invariant = (list(map(two_den.__mul__, dots))
                         == list(map(dots[i].__mul__, m.row(m.cor[a]))))
    strictly = invariant and m.imag <= in_rad
    affine = invariant and in_rad == m.imag
    return {"invariant": invariant, "strictly_invariant": strictly, "affine": affine}


class ExtensionDatum:
    """Family of lattice subsets indexed by the roots of a finite root system."""

    def __init__(self, S: RootSystem, S_prime: frozenset, z_rank: int, family: dict):
        self.S = S
        self.S_prime = frozenset(tuple(r) for r in S_prime)
        self.z_rank = z_rank
        self.family = {tuple(k): v for k, v in family.items()}  # root -> LatticeSubset
        for r in S.roots:
            if tuple(r) not in self.family:
                raise ValueError(f"Lambda missing for root {fs(r)}")

    def lam(self, xi) -> LatticeSubset:
        return self.family[tuple(xi)]


def untwisted_datum(S: RootSystem, z_rank: int) -> ExtensionDatum:
    full = LatticeSubset.full(z_rank)
    return ExtensionDatum(
        S, frozenset(indivisible_part(S)), z_rank, {a: full for a in S.roots}
    )


def _integral_roots(S: RootSystem) -> IntegerRoots:
    """The IntegerRoots of S.

    Raises a ValueError naming the failing axiom or pair unless S passes
    ReS0-ReS4 and every pairing is an integer: an extension datum moves
    lattice points by these pairings.
    """
    bad = validate_axioms(S).failures()
    if bad:
        raise ValueError(f"S is not a reflection system: {bad[0].name} fails ({bad[0].witness})")
    m = S.model
    for a in m.order[:m.n_real]:
        frac = [b for b, d in zip(m.order, m.row(m.cor[a])) if d % m.den]
        if frac:
            b = min(frac)
            raise ValueError(f"S is not integral: <{fs(m.orig[b])}, {fs(m.orig[a])}_check> "
                             f"= {fs(m.pairing(b, a))}")
    return m


def _ed1_sums(m: IntegerRoots, lam):
    """The sums of ED1 as _first_escape takes them: ((xi, eta), Lambda_eta,
    Lambda_xi, -<eta, xi_check>, Lambda_(s_xi eta)) for real xi and every eta
    of m in sorted order, the last None when s_xi(eta) is no root of m."""
    order = m.order
    fam = [lam(m.orig[a]) for a in order]
    by_root = sorted(range(len(order)), key=order.__getitem__)
    for i, a in enumerate(order[:m.n_real]):
        row = m.row(m.cor[a])
        img = m.images(a, row)
        for j in by_root:
            k = img[j]
            yield ((m.orig[a], m.orig[order[j]]), fam[j], fam[i], -m.exact(row[j]),
                   None if k is None else fam[k])


def validate_extension_datum(ed: ExtensionDatum) -> AxiomReport:
    """ED1-ED3 and the derived properties of 3.3, each decided exactly by
    coset arithmetic on the Lambda_xi.  S must be a reflection system with
    integral pairings, else a ValueError names the failing axiom or pair."""
    rep = AxiomReport()
    m = _integral_roots(ed.S)
    roots = ed.S.sorted_roots()
    n = ed.z_rank
    real = [a for a in roots if any(a)]
    s_prime = [a for a in sorted(ed.S_prime) if any(a)]

    # ED1: Lambda_eta - <eta, xi_check> Lambda_xi lies in Lambda_(s_xi eta).
    witness = _first_escape("ED1 fails at xi={}, eta={}", _ed1_sums(m, ed.lam))
    rep.add("ED1", witness is None, witness)

    zero_vec = (0,) * n
    bad = [x for x in sorted(ed.S_prime) if zero_vec not in ed.lam(x)]
    rep.add("ED2", not bad, f"0 not in Lambda_{fs(bad[0])}" if bad else None)

    gens = []
    for a in roots:
        gens.extend(ed.lam(a).group_gens())
    ok3 = lattice_rank(gens) == n if n else True
    rep.add("ED3", ok3, None if ok3 else "union of Lambda_xi does not span")

    # Derived properties of 3.3.
    ok, witness = True, None
    for xi in real:
        if ed.lam(vec_scale(-1, xi)) != ed.lam(xi).neg():
            ok, witness = False, f"Lambda_(-xi) != -Lambda_xi at xi={fs(xi)}"
            break
    rep.add("negation", ok, witness)

    witness = _first_escape("2L-L not in L at xi={}", (
        ((xi,), ed.lam(xi).scale(2), ed.lam(xi), -1, ed.lam(xi)) for xi in real))
    rep.add("reflection-subspace", witness is None, witness)

    bad = next((where for where, lam_eta, _, _, lam_img in _ed1_sums(m, ed.lam)
                if lam_img != lam_eta and where[0] in ed.S_prime), None)
    rep.add("WS'-invariance", bad is None,
            None if bad is None else f"W_S'-invariance fails at xi'={fs(bad[0])}, eta={fs(bad[1])}")

    witness = _first_escape("Lambda_eta - <eta,xi'>Lambda_xi' not in Lambda_eta at eta={}, xi'={}", (
        (where[::-1], lam_eta, lam_xi, f, lam_eta)
        for where, lam_eta, lam_xi, f, _ in _ed1_sums(m, ed.lam) if where[0] in ed.S_prime))
    rep.add("S'-shift", witness is None, witness)

    ok, witness = True, None
    for xi_p in s_prime:
        if ed.lam(xi_p) != ed.lam(vec_scale(-1, xi_p)):
            ok, witness = False, f"Lambda_xi' != Lambda_(-xi') at xi'={fs(xi_p)}"
            break
    rep.add("S'-symmetry", ok, witness)

    _type_specific_checks(ed, rep)
    return rep


def _first_escape(label: str, sums):
    """Witness of the first (where, A, B, f, T) in sums with A + f B not
    inside T: label, formatted with the roots in where, and a point of
    A + f B outside T.  None if every sum lies inside its T.

    Each distinct (A, B, f, T) is decided once.  A rational f = p/q is
    decided as q A + p B inside q T, so a point of A + f B off Z^n escapes.
    """
    inside = set()
    for where, A, B, f, T in sums:
        key = (A, B, f, T)
        if key in inside:
            continue
        f = Fraction(f)
        q = f.denominator
        if q > 1:
            A, T = A.scale(q), T.scale(q)
        p = A.add(B.scale(f.numerator)).point_outside(T)
        if p is not None:
            p = fs(tuple(Fraction(x, q) for x in p)) if q > 1 else p
            return f"{label.format(*map(fs, where))}: {p} escapes"
        inside.add(key)
    return None


def _type_specific_checks(ed, rep: AxiomReport):
    S = ed.S
    if len(connected_components(S)) != 1:
        return
    rs = normalized(S)
    sh, lg, div, k = length_partition(rs)
    lam_sh = ed.lam(sorted(sh)[0])

    def sum_check(name, A, B, target, factor=1):
        witness = _first_escape(f"{name} fails", [((), A, B, factor, target)])
        rep.add(name, witness is None, witness)

    if lg:
        lam_lg = ed.lam(sorted(lg)[0])
        sum_check("Lsh+Llg<Lsh", lam_sh, lam_lg, lam_sh)
        sum_check(f"Llg+{k}Lsh<Llg", lam_lg, lam_sh, lam_lg, factor=k)
    div_nz = sorted(a for a in div if any(a))
    if div_nz:
        lam_div = ed.lam(div_nz[0])
        if not lg:  # BC_1
            sum_check("Lsh+Ldiv<Lsh", lam_sh, lam_div, lam_sh)
            sum_check("Ldiv+4Lsh<Ldiv", lam_div, lam_sh, lam_div, factor=4)
        else:  # BC_I, |I| >= 2
            sum_check("Llg+Ldiv<Llg", lam_lg, lam_div, lam_lg)
            sum_check("Ldiv+2Llg<Ldiv", lam_div, lam_lg, lam_div, factor=2)


class AffineReflectionSystem:
    """R = union of xi + Lambda_xi inside Y + Z for an extension datum."""

    def __init__(self, S: RootSystem, S_prime, datum: ExtensionDatum):
        self.S = S
        self.S_prime = frozenset(tuple(r) for r in S_prime)
        self.datum = datum
        self.y_dim = S.dim
        self.z_rank = datum.z_rank
        self.dim = self.y_dim + self.z_rank

    def root(self, xi, lam):
        return tuple(xi) + tuple(lam)

    def split(self, alpha):
        return tuple(alpha[: self.y_dim]), tuple(int(x) for x in alpha[self.y_dim:])

    def contains(self, alpha) -> bool:
        """Exact membership; a non-integral Z-coordinate is never in R."""
        if any(x != int(x) for x in alpha[self.y_dim:]):
            return False
        xi, lam = self.split(alpha)
        if tuple(xi) not in self.S.roots:
            return False
        return lam in self.datum.lam(xi)

    def coroot(self, xi):
        """Coroot covector of xi + lambda (independent of lambda)."""
        cor = self.S.coroots[tuple(xi)]
        return tuple(cor) + (0,) * self.z_rank

    def windowed_roots(self, window: int):
        out = []
        for xi in self.S.sorted_roots():
            for lam in self.datum.lam(xi).window_elements(window):
                out.append(self.root(xi, lam))
        return out

    def to_prs(self, window: int) -> PreReflectionSystem:
        roots = self.windowed_roots(window)
        coroots = {}
        for alpha in roots:
            xi, _ = self.split(alpha)
            if any(xi):
                coroots[alpha] = self.coroot(xi)
            else:
                coroots[alpha] = (0,) * self.dim
        return PreReflectionSystem(self.dim, roots, coroots)

    def imaginary_lattice(self) -> LatticeSubset:
        return self.datum.lam((0,) * self.y_dim)

    def lambda_diff_gens(self):
        gens = []
        for xi in self.S.sorted_roots():
            if any(xi):
                gens.extend(self.datum.lam(xi).difference_group_gens())
        return gens


def validate_ars_axioms(ars: AffineReflectionSystem) -> AxiomReport:
    """ReS0-ReS4 for an affine reflection system R, decided exactly.

    The coroot of xi + lambda is (xi_check, 0), so s_(xi+lambda)(eta+mu) =
    s_xi(eta) + (mu - <eta, xi_check> lambda).  So ReS0, ReS1, ReS3 and ReS4
    of R are those of S, ReS0 also asking for 0 in Lambda_0, and ReS2 adds
    ED1's containment to ReS2 of S.
    """
    S = ars.S
    finite = validate_axioms(S)
    rep = AxiomReport()
    witness = finite["ReS0"].witness
    if witness is None and (0,) * ars.z_rank not in ars.imaginary_lattice():
        witness = "0 not in Lambda_0"
    rep.add("ReS0", witness is None, witness)
    rep.append(finite["ReS1"])
    witness = finite["ReS2"].witness or _first_escape(
        "s_xi(eta + Lambda_eta) leaves R at xi={}, eta={}",
        _ed1_sums(S.model, ars.datum.lam))
    rep.add("ReS2", witness is None, witness)
    # For c(xi + lam) both real, s uses ((c xi)_check, c lam); equality of the
    # two reflections reduces to ReS3 of the quotient system S.
    rep.add("ReS3", finite["ReS3"].ok, finite["ReS3"].witness,
            note="reduces to ReS3 of the quotient root system")
    rep.append(finite["ReS4"])
    return rep


AFFINE_TABLE = (
    ("reduced", "1", "S^(1)", "S^(1)"),
    ("B_l (l >= 2)", "2", "B_l^(2)", "D_{l+1}^(2)"),
    ("C_l (l >= 3)", "2", "C_l^(2)", "A_{2l-1}^(2)"),
    ("F_4", "2", "F_4^(2)", "E_6^(2)"),
    ("G_2", "3", "G_2^(3)", "D_4^(3)"),
    ("BC_1", "-", "BC_1^(2)", "A_2^(2)"),
    ("BC_l (l >= 2)", "1", "BC_l^(2)", "A_{2l}^(2)"),
)


def affine_labels(family: str, rank: int, tier: int):
    """(Moody-Pianzola label, Kac label) for R(S, t(S))."""
    if family == "BC":
        if rank == 1:
            return ("BC_1^(2)", "A_2^(2)")
        if tier != 1:
            raise ValueError("tier must be 1 for BC with rank >= 2")
        return (f"BC_{rank}^(2)", f"A_{2 * rank}^(2)")
    if tier == 1:
        base = family if family in ("E6", "E7", "E8", "F4", "G2") else f"{family}_{rank}"
        base = {"E6": "E_6", "E7": "E_7", "E8": "E_8", "F4": "F_4", "G2": "G_2"}.get(base, base)
        return (f"{base}^(1)", f"{base}^(1)")
    if family == "B" and tier == 2 and rank >= 2:
        return (f"B_{rank}^(2)", f"D_{rank + 1}^(2)")
    if family == "C" and tier == 2 and rank >= 3:
        return (f"C_{rank}^(2)", f"A_{2 * rank - 1}^(2)")
    if family == "F4" and tier == 2:
        return ("F_4^(2)", "E_6^(2)")
    if family == "G2" and tier == 3:
        return ("G_2^(3)", "D_4^(3)")
    raise ValueError(f"invalid (family, rank, tier) = ({family}, {rank}, {tier})")


def build_affine_rs(S: RootSystem, tier: int):
    """The affine root system R(S, t(S)); returns (ars, mp_label, kac_label)."""
    comps = connected_components(S)
    if len(comps) != 1:
        raise ValueError("S must be irreducible")
    rs = normalized(S)
    label = classify(rs)
    if not label.ok:
        raise ValueError(f"S is no root system: {label.witness}")
    family, rank_ = label.components[0]
    sh, lg, div, k = length_partition(rs)
    if family == "BC":
        if rank_ >= 2 and tier not in (1,):
            raise ValueError("tier must be 1 for BC with rank >= 2")
        tier_eff = 1
    else:
        if tier == 1:
            tier_eff = 1
        elif k is not None and tier == k:
            tier_eff = tier
        else:
            raise ValueError(f"tier must be 1 or k(S)={k} for type {family}")
    mp, kac = affine_labels(family, rank_, tier if family != "BC" else (1 if rank_ >= 2 else tier))

    full = LatticeSubset.full(1)
    family_map = {}
    for a in rs.roots:
        if not any(a):
            family_map[a] = full  # Lambda_0 = Z: R contains the whole line Z delta
        elif a in sh:
            family_map[a] = full
        elif a in lg:
            family_map[a] = LatticeSubset.scaled_full(1, tier_eff)
        else:  # divisible
            family_map[a] = LatticeSubset(1, gens=[[2]], cosets=((1,),))
    ed = ExtensionDatum(rs, frozenset(indivisible_part(rs)), 1, family_map)
    ars = AffineReflectionSystem(rs, frozenset(indivisible_part(rs)), ed)
    return ars, mp, kac


def ars_structure(ars: AffineReflectionSystem, window: int = 4) -> dict:
    """Nullity, symmetry, string bounds and the EARS-family class flags."""
    lam0 = ars.imaginary_lattice()
    nullity = lattice_rank(lam0.group_gens())
    symmetric_im = lam0 == lam0.neg()

    diff_gens = ars.lambda_diff_gens()
    diff_lattice = LatticeSubset(ars.z_rank, gens=diff_gens)
    unbroken = diff_lattice.is_subset_of(lam0)
    tame = lam0.is_subset_of(diff_lattice)

    # The (-a)-strings are the a-strings read backwards, so of a real a and
    # -a only the one with the positive key is walked; an a whose -a is not
    # in the window is walked as well.
    m = ars.to_prs(window).model
    nr = m.n_real
    max_len = max((len(string) for a, k in zip(m.order[:nr], m.keys[:nr])
                   if k > 0 or m.slot.get(-k, nr) >= nr for string in m.strings(a)),
                  default=0)
    strings_ok = max_len <= 5

    connected = len(connected_components(ars.S)) == 1
    reduced = _ars_reduced(ars)

    # R = Re(R) means the only imaginary root is 0 itself.
    sears = lam0.basis == [] and lam0.cosets == ((0,) * ars.z_rank,)
    flags = {
        "EARS": connected and symmetric_im and reduced and tame and unbroken,
        "SEARS": connected and symmetric_im and sears,
        "LEARS": connected and sears,
        "GRRS": symmetric_im and reduced and unbroken,
    }
    return {
        "nullity": nullity,
        "symmetric": symmetric_im,
        "unbroken": unbroken,
        "tame": tame,
        "max_string_len": max_len,
        "strings_bounded": strings_ok,
        "connected": connected,
        "reduced": reduced,
        "class_flags": flags,
        "window": window,
        "note": "discreteness holds by the lattice model (datum lives in Z^n)",
    }


def _ars_reduced(ars: AffineReflectionSystem) -> bool:
    # R is reduced iff c Lambda_xi misses Lambda_(c xi) whenever xi and c xi
    # are both nonzero roots, c != 0, +-1.  A factor c = +-1/2 is the factor
    # 2c read from the root c xi, so the integers c suffice.
    zero = (0,) * ars.z_rank
    lam = ars.datum.lam
    for xi in ars.S.sorted_roots():
        if not any(xi):
            continue
        for c in (2, -2, 3, -3):
            cxi = vec_scale(c, xi)
            if cxi in ars.S.roots and zero in lam(cxi).add(lam(xi).scale(-c)):
                return False
    return True
