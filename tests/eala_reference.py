"""Test-only readings of a built E = C + L + D that no verdict of
``lietor`` reads.

- ``t_labels``: the part (C, h or D) of each vector of ``BuiltE.t_basis``;
- ``windowed_roots``: the (root, degree) of every nonzero root space on a
  window, found item by item;
- ``per_item_failures``: the root-space checks called on every item of
  ``windowed_roots``, the reference for ``BuiltE.class_list``, which calls
  them once per class;
- ``root_reflection_data``: the windowed real and imaginary roots of (E, T)
  in Y + Z coordinates, compared with an affine reflection system;
- ``root_norm``: (t_alpha | t_alpha) from one solve per (root, degree), the
  reference for ``BuiltE.imaginary_norm``, which IA3 reads off a quadratic
  form.
"""

from __future__ import annotations

from lietor.lattices import box
from lietor.linalg import lattice_rank


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
