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
from .scalars import (
    Cyclo,
    QQ,
    cyclotomic_field,
    embed,
    frac_to_str,
    json_key,
    json_object,
    json_rank,
)


def frac_from_str(s: str) -> Fraction:
    """A rational from "p" or "p/q"; a zero denominator is a ValueError."""
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


_ZPOW = re.compile(r"^(-?)z(\d+)(?:\^(-?\d+))?$")


def scalar_from_str(s: str, field=None):
    if not isinstance(s, str):
        raise ValueError(f"a scalar is a string such as \"1/2\" or \"-z3^2\", got {s!r}")
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
    return (QQ if field is None else field)(frac_from_str(s))


def root_system_to_json(rs: RootSystem) -> dict:
    out = {
        "space": {
            "dim": rs.dim,
            "form": [[frac_to_str(v) for v in row] for row in rs.space.form],
        },
        "roots": sorted([frac_to_str(x) for x in a] for a in rs.roots),
    }
    label = classify(rs)
    if label.ok:
        out["type"] = str(label)
    return out


def _coordinate(x, what: str):
    """A rational from an int or a string "p" or "p/q", read by
    frac_from_str; a float, a bool or any other JSON value is refused,
    naming what it was read as."""
    if type(x) is int:
        return x
    if isinstance(x, str):
        return frac_from_str(x)
    raise ValueError(f"{what} must be an integer or a string \"p\" or \"p/q\", got {x!r}")


def _vector(coords, dim: int, what: str, entry: str) -> tuple:
    """The rationals of coords, refused unless there are exactly dim of them:
    a short vector must not be read as one padded with zeros."""
    if not isinstance(coords, list) or len(coords) != dim:
        raise ValueError(f"{what} {coords!r} must have {dim} coordinates")
    return tuple(_coordinate(x, entry) for x in coords)


def _vectors(rows, dim: int, what: str, key: str, owner: str) -> list:
    """The vectors of the list rows, each read by _vector; a coordinate
    that is refused names the key and the object it was read from."""
    if not isinstance(rows, list):
        raise ValueError(f"{key!r} of {owner} must be a list, got {rows!r}")
    return [_vector(v, dim, what, f"a coordinate of {key!r} of {owner}") for v in rows]


def root_system_from_json(data: dict) -> RootSystem:
    """The root system of a JSON object with the keys "space" and "roots",
    and "type", which root_system_to_json writes and which is not read.  The
    space has the keys "dim" and "form"; any other key is refused."""
    what, where = "a root system", "the space of a root system"
    data = json_object(data, what, ("space", "roots", "type"))
    space = json_object(json_key(data, "space", what), where, ("dim", "form"))
    dim = json_rank(json_key(space, "dim", where), "the dimension dim")
    form = json_key(space, "form", where)
    if not isinstance(form, list) or len(form) != dim:
        raise ValueError(f"the form must have {dim} rows")
    form = tuple(_vectors(form, dim, "form row", "form", where))
    return RootSystem(RootSpace(dim, form), _vectors(json_key(data, "roots", what), dim,
                                                     "root", "roots", what))


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
    data = json_object(data, "an extension datum")

    def entry(key):
        return json_key(data, key, "an extension datum")

    S = root_system_from_json(entry("S"))
    sp = frozenset(_vectors(entry("S_prime"), S.dim, "S' root", "S_prime", "an extension datum"))
    fam = {}
    for key, sub in json_object(entry("family"), "the family").items():
        fam[_vector(key.split(","), S.dim, "family key", "a coordinate of a family key")] = (
            LatticeSubset.from_json(sub))
    return ExtensionDatum(S, sp, json_rank(entry("Z_rank"), "the lattice rank Z_rank"), fam)


# The keys of each kind of coordinate algebra besides "kind"
_COORD_KEYS = {"group": ("n", "support"), "laurent": ("n", "support"), "poly": (),
               "polynomial": (), "qtorus": ("n", "field", "q")}


def coord_algebra_from_json(data) -> "GradedAssocAlgebra":
    """Coordinate algebra from its JSON description or a shorthand name.  A
    description names its "kind", and a key its kind does not read is
    refused, so that a mistyped key is never read as a default."""
    from .graded import GradedAssocAlgebra

    if isinstance(data, str):
        name = data.lower()
        if name in ("laurent", "k[t,t^-1]"):
            return GradedAssocAlgebra.laurent()
        if name in ("poly", "polynomial", "k[t]"):
            return GradedAssocAlgebra.polynomial()
        raise ValueError(f"unknown coordinate algebra {data!r}")
    what = "a coordinate algebra"
    kind = json_key(json_object(data, what), "kind", what)
    if not isinstance(kind, str) or kind not in _COORD_KEYS:
        raise ValueError(f"unknown coordinate algebra kind {kind!r}")
    json_object(data, what, ("kind",) + _COORD_KEYS[kind])
    if kind in ("group", "laurent"):
        n = json_rank(data.get("n", 1))
        return GradedAssocAlgebra.group_algebra(n, support=data.get("support"))
    if kind in ("poly", "polynomial"):
        return GradedAssocAlgebra.polynomial()
    n = json_rank(json_key(data, "n", what))
    fname = data.get("field", "Q")
    if fname == "Q":
        field = QQ
    elif isinstance(fname, str) and fname.startswith("Q(zeta_") and fname.endswith(")"):
        field = cyclotomic_field(int(fname[len("Q(zeta_"):-1]))
    else:
        raise ValueError(f"unknown field {fname!r}")
    rows = json_key(data, "q", what)
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise ValueError(f"q must be a list of rows, got {rows!r}")
    if len(rows) != n:
        raise ValueError(f"q must have n = {n} rows, got {len(rows)}")
    q = []
    for row in rows:
        out_row = []
        for tok in row:
            v = scalar_from_str(tok, field)
            if isinstance(v, Cyclo) and v.field != field:
                v = embed(v, field)
            out_row.append(v)
        q.append(out_row)
    return GradedAssocAlgebra.quantum_torus(q, field)
