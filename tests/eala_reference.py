"""Test-only readings of a built E = C + L + D that no verdict of
``lietor`` reads.

- ``t_labels``: the part (C, h or D) of each vector of ``BuiltE.t_basis``;
- ``windowed_roots``: the (root, degree) of every nonzero root space on a
  window, found item by item;
- ``per_item_failures``: the root-space checks called on every item of
  ``windowed_roots``, the reference for ``BuiltE.class_list``, which calls
  them on its few items per class;
- ``root_reflection_data``: the windowed real and imaginary roots of (E, T)
  in Y + Z coordinates, compared with an affine reflection system;
- ``root_norm``: (t_alpha | t_alpha) from one solve per (root, degree), the
  reference for ``BuiltE.imaginary_norm``, which IA3 reads off a quadratic
  form;
- ``sigma_rows_reference`` and ``inv_e_reference``: every nonzero value of
  sigma_D on a window, and INV-e's witness from the invertible pair
  (``invertible_pair``) of every windowed (root, degree), the references
  for ``eala.sigma_rows`` and INV-e, which read the unit degrees e_i alone.
"""

from __future__ import annotations

from lietor.eala import sigma_d_values
from lietor.lattices import box
from lietor.linalg import lattice_rank, rank
from lietor.matlie import bracket, invertible_triple
from lietor.scalars import frac_to_str


def t_labels(E):
    """"C", "h" or "D" for each vector of E.t_basis(), in its order."""
    return (["C"] * len(E.data.T_C)
            + ["h"] * len(E.L.cartan_basis())
            + ["D"] * len(E.data.T_D))


def windowed_roots(E, window: int):
    """(root, degree) of each nonzero root space with the degree in the
    window's box, in the order of the degrees, then of the roots."""
    roots = [(0,) * E.L.n] + [tuple(ro) for ro in E.L.S.sorted_roots() if any(ro)]
    return tuple((ro, tuple(deg)) for deg in box(E.L.z_rank, window) for ro in roots
                 if E.root_space_basis(ro, deg))


def per_item_failures(E, window: int):
    """The first item of windowed_roots at which each check fails, or None:
    IA2's has_sl2_pair (off the zero root in degree 0), IA3's acts_by_root
    and anisotropic zero root (its norm from root_norm), and EA1's
    pairs_nondegenerately; and the nullity, the rank of the zero root's
    degrees."""
    items = windowed_roots(E, window)
    zero = (0,) * E.L.n
    imag = [deg for ro, deg in items if not any(ro)]
    return {
        "IA2": next((it for it in items if (any(it[0]) or any(it[1]))
                     and not E.has_sl2_pair(*it)), None),
        "T-action": next((it for it in items if not E.acts_by_root(*it)), None),
        "anisotropic": next((deg for deg in imag if root_norm(E, zero, deg)), None),
        "EA1": next((it for it in items if not E.pairs_nondegenerately(*it)), None),
        "nullity": lattice_rank([list(d) for d in imag]),
    }


def root_reflection_data(E, window: int):
    """(real, imaginary) windowed root sets of (E, T) in Y + Z coordinates."""
    real, imag = set(), set()
    for ro, deg in windowed_roots(E, window):
        vec = tuple(ro) + tuple(deg)
        if any(ro):
            real.add(vec)
        else:
            imag.add(vec)
    return real, imag


def root_norm(E, root, deg):
    """(t_alpha | t_alpha) for alpha = root + deg."""
    t = E.t_alpha(root, deg)
    return E.form(t, t)


def sigma_rows_reference(form, L, D, window: int):
    """Every nonzero value of sigma_D at the basis pairs of the window,
    keyed by degree, in the order of d1, the root, l1 and l2."""
    out = {}
    degs = box(L.z_rank, window)
    in_box = set(degs)
    for s in sorted({tuple(-g for g in dk.gamma) for dk in D}):
        for d1 in degs:
            d2 = tuple(a - b for a, b in zip(s, d1))
            if d2 not in in_box:
                continue
            for ro in L.S.sorted_roots():
                for l1 in L.homog_basis(ro, d1):
                    for l2 in L.homog_basis(tuple(-x for x in ro), d2):
                        vals = sigma_d_values((L, form, D), l1, l2)
                        if any(vals):
                            out.setdefault(s, []).append(vals)
    return out


def invertible_pair(L, root, deg, form):
    """(e, f) of the sl2-triple for a real root; for root = 0 a commuting
    pair, preferring one the form pairs nontrivially."""
    root = tuple(root)
    deg = tuple(deg)
    if any(root):
        triple = invertible_triple(L, root, deg)
        return None if triple is None else (triple.e, triple.f)
    basis = L.homog_basis(root, deg)
    if not basis or not any(deg):
        return None
    neg = L.homog_basis(root, tuple(-x for x in deg))
    fallback = None
    for e in basis:
        for f in neg:
            if not bracket(e, f):
                if form.pair(e, f):
                    return e, f
                if fallback is None:
                    fallback = (e, f)
    return fallback


def inv_e_reference(data, window: int):
    """INV-e's witness from the invertible pair of every windowed (root,
    degree), or None: sigma_D(e, f) lies in T_C when it adds nothing to the
    rank of the T_C functionals."""
    L = data.L
    t_c = [list(data.C[k].values) for k in data.T_C]
    t_rank = rank(t_c, L.field) if t_c else 0
    for deg in box(L.z_rank, window):
        for ro in L.S.sorted_roots():
            pair = invertible_pair(L, ro, deg, form=data.form)
            if pair is not None and rank(t_c + [sigma_d_values(data, *pair)], L.field) > t_rank:
                where = "outside T_C" if data.T_C else "nonzero with empty T_C"
                return f"sigma_D(e,f) {where} at ({frac_to_str(ro)}, {deg})"
    return None
