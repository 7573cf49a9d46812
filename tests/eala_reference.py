"""Test-only readings of a built E = C + L + D that no verdict of
``lietor`` reads.

- ``t_labels``: the part (C, h or D) of each vector of ``BuiltE.t_basis``;
- ``root_reflection_data``: the windowed real and imaginary roots of (E, T)
  in Y + Z coordinates, compared with an affine reflection system;
- ``root_norm``: (t_alpha | t_alpha) from one solve per (root, degree), the
  reference for ``BuiltE.imaginary_norm``, which IA3 reads off a quadratic
  form.
"""

from __future__ import annotations


def t_labels(E):
    """"C", "h" or "D" for each vector of E.t_basis(), in its order."""
    return (["C"] * len(E.data.T_C)
            + ["h"] * len(E.L.cartan_basis())
            + ["D"] * len(E.data.T_D))


def root_reflection_data(E, window: int):
    """(real, imaginary) windowed root sets of (E, T) in Y + Z coordinates."""
    real, imag = set(), set()
    for ro, deg in E.windowed_roots(window):
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
