"""JSON round-trip schemas for the public value types.

Integers travel as decimal strings so arbitrary precision survives JSON.
Rationals render as "p" or "p/q"; cyclotomic scalars in a quantum matrix
accept the compact tokens "zN^k" / "-zN^k" next to plain rationals.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .lattices import LatticeSubset
from .refl import ExtensionDatum
from .rootsys import RootSpace, RootSystem, classify
from .scalars import Cyclo, QQ, cyclotomic_field, frac_to_str


def frac_from_str(s: str) -> Fraction:
    """A rational from "p" or "p/q"; a zero denominator is a ValueError."""
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


_ZPOW = re.compile(r"^(-?)z(\d+)(?:\^(-?\d+))?$")


def scalar_from_str(s: str, field=None):
    s = s.strip()
    m = _ZPOW.match(s)
    if m:
        sign, order, power = m.group(1), int(m.group(2)), m.group(3)
        fld = cyclotomic_field(order)
        out = fld.zeta(int(power) if power is not None else 1)
        return -out if sign == "-" else out
    if s.startswith("{"):
        from .scalars import scalar_from_json

        return scalar_from_json(json.loads(s))
    val = frac_from_str(s)
    if field is not None and field is not QQ:
        return field(val)
    return val


def root_system_to_json(rs: RootSystem) -> dict:
    out = {
        "space": {
            "dim": rs.dim,
            "form": [[frac_to_str(v) for v in row] for row in rs.space.form],
        },
        "roots": sorted([frac_to_str(x) for x in a] for a in rs.roots),
    }
    try:
        out["type"] = str(classify(rs))
    except ValueError:
        pass
    return out


def root_system_from_json(data: dict) -> RootSystem:
    dim = int(data["space"]["dim"])
    form = tuple(tuple(frac_from_str(v) for v in row) for row in data["space"]["form"])
    roots = {tuple(frac_from_str(x) for x in a) for a in data["roots"]}
    return RootSystem(RootSpace(dim, form), roots)


def datum_to_json(ed: ExtensionDatum) -> dict:
    fam = {}
    for root in ed.S.sorted_roots():
        key = ",".join(frac_to_str(x) for x in root)
        fam[key] = ed.lam(root).to_json()
    return {
        "S": root_system_to_json(ed.S),
        "S_prime": sorted([frac_to_str(x) for x in a] for a in ed.S_prime),
        "Z_rank": ed.z_rank,
        "family": fam,
    }


def datum_from_json(data: dict) -> ExtensionDatum:
    S = root_system_from_json(data["S"])
    sp = frozenset(tuple(frac_from_str(x) for x in a) for a in data["S_prime"])
    fam = {}
    for key, sub in data["family"].items():
        root = tuple(frac_from_str(x) for x in key.split(","))
        fam[root] = LatticeSubset.from_json(sub)
    return ExtensionDatum(S, sp, int(data["Z_rank"]), fam)


def coord_algebra_from_json(data) -> "GradedAssocAlgebra":
    """Coordinate algebra from its JSON description or a shorthand name."""
    from .graded import GradedAssocAlgebra

    if isinstance(data, str):
        name = data.lower()
        if name in ("laurent", "k[t,t^-1]"):
            return GradedAssocAlgebra.laurent()
        if name in ("poly", "polynomial", "k[t]"):
            return GradedAssocAlgebra.polynomial()
        raise ValueError(f"unknown coordinate algebra {data!r}")
    kind = data.get("kind", "group")
    if kind in ("group", "laurent"):
        n = int(data.get("n", 1))
        return GradedAssocAlgebra.group_algebra(n, support=data.get("support"))
    if kind in ("poly", "polynomial"):
        return GradedAssocAlgebra.polynomial()
    if kind == "qtorus":
        n = int(data["n"])
        fname = data.get("field", "Q")
        if fname == "Q":
            field = QQ
        elif fname.startswith("Q(zeta_") and fname.endswith(")"):
            field = cyclotomic_field(int(fname[len("Q(zeta_"):-1]))
        else:
            raise ValueError(f"unknown field {fname!r}")
        q = []
        for row in data["q"]:
            out_row = []
            for tok in row:
                v = scalar_from_str(tok, field)
                if field is not QQ and isinstance(v, Fraction):
                    v = field(v)
                if isinstance(v, Cyclo) and field is not QQ and v.field.order != field.order:
                    from .scalars import embed

                    v = embed(v, field)
                out_row.append(v)
            q.append(out_row)
        return GradedAssocAlgebra.quantum_torus(q, field)
    raise ValueError(f"unknown coordinate algebra kind {kind!r}")
