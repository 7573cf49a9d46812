"""Call hooks for the traced run, installed from the benchmark's own files.

Two kinds of hook wrap lietor functions:

* a span at each coarse boundary (``cli.main``, the verifiers, ``build_E``,
  ``WedgeWindow``, ``rref``, ``root_strings_exhaustive``, the ``validate_*``
  functions) records (id, name, start, end, parent span id);
* a counter at each hot leaf (``Cyclo`` arithmetic, ``graded.mul``/``tau``,
  ``matmul``, ``BuiltE.bracket``/``form``, ``pairing``, ``contains``, ...)
  keeps only a call count and summed time, because eala-qtorus makes about
  1.8 million such calls.

Both kinds keep total and self time, where self time excludes the time spent
in nested hooked calls.  Spans stay in memory until the run ends.

A hook replaces every reference to the original function that lietor holds:
module attributes, by-name imports such as ``from .linalg import rref`` or
``bracket as mat_bracket``, and class aliases such as
``Cyclo.__rmul__ = __mul__``.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from fractions import Fraction
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stats = {}          # hook name -> [calls, total_s, self_s]
        self.spans = []          # [id, name, start_s, end_s, parent id (0 = none)]
        self.counts = {"cyclo_mul_int_monomial": 0, "rref_cells": 0,
                       "rref_max_cells": 0, "eala_bracket_zero": 0}
        self.tau_pairs = set()
        self.patched = {}        # hook name -> names rebound to the hook
        # One frame per active hooked call: [time in hooked children, span id].
        self._stack = [[0.0, 0]]
        self._t0 = perf_counter()

    def wrap(self, name, fn, span=False, before=None, after=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        t_origin = self._t0

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if before is not None:
                before(args)
            if span:
                sid = len(spans) + 1
                rec = [sid, name, 0.0, 0.0, stack[-1][1]]
                spans.append(rec)
                frame = [0.0, sid]
            else:
                frame = [0.0, stack[-1][1]]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                stack[-1][0] += d
                stat[0] += 1
                stat[1] += d
                stat[2] += d - frame[0]
                if span:
                    rec[2] = t0 - t_origin
                    rec[3] = t1 - t_origin
            if after is not None:
                after(result)
            return result

        return hooked

    # Observers for the ratios, run outside the timed part of the call.

    def _cyclo_mul_operands(self, args):
        if _int_monomial(args[0]) and _int_monomial(args[1]):
            self.counts["cyclo_mul_int_monomial"] += 1

    def _rref_shape(self, args):
        m = args[0]
        cells = len(m) * len(m[0]) if m else 0
        self.counts["rref_cells"] += cells
        if cells > self.counts["rref_max_cells"]:
            self.counts["rref_max_cells"] = cells

    def _tau_pair(self, args):
        self.tau_pairs.add((tuple(args[1]), tuple(args[2])))

    def _eala_bracket_result(self, result):
        if result.is_zero():
            self.counts["eala_bracket_zero"] += 1

    def summary(self):
        return {"stats": self.stats, "counts": self.counts,
                "tau_distinct": len(self.tau_pairs), "patched": self.patched}


def _int_monomial(x):
    """At most one nonzero coefficient, and that one an integer."""
    if isinstance(x, int):
        return True
    if isinstance(x, Fraction):
        return x.denominator == 1
    coeffs = getattr(x, "coeffs", None)
    if coeffs is None:
        return False
    nz = [c for c in coeffs if c]
    return len(nz) <= 1 and all(c.denominator == 1 for c in nz)


def _lietor_modules():
    import lietor

    for info in pkgutil.iter_modules(lietor.__path__, "lietor."):
        importlib.import_module(info.name)
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "lietor" or n.startswith("lietor."))]


def _references(modules, obj):
    """(namespace, attribute) pairs in lietor that hold obj."""
    seen = set()
    out = []
    for mod in modules:
        spaces = [mod] + [v for v in vars(mod).values()
                          if isinstance(v, type) and v.__module__.startswith("lietor")]
        for ns in spaces:
            if id(ns) in seen:
                continue
            seen.add(id(ns))
            out.extend((ns, k) for k, v in vars(ns).items() if v is obj)
    return out


def install(tracer: Tracer):
    """Hook the functions listed below everywhere lietor refers to them.

    Records in ``tracer.patched`` every name that was rebound, for example
    ``lietor.scalars.Cyclo.__rmul__`` and ``lietor.uce.rref``.
    """
    modules = _lietor_modules()
    from lietor import eala, graded, lattices, linalg, matlie, refl, rootsys, scalars, uce
    from lietor import cli

    t = tracer
    # (hook name, owner, attribute, span?, before, after)
    hooks = [
        ("cli.main", cli, "main", True, None, None),
        ("scalars.cyclo_mul", scalars.Cyclo, "__mul__", False, t._cyclo_mul_operands, None),
        ("scalars.cyclo_add", scalars.Cyclo, "__add__", False, None, None),
        ("scalars.cyclo_inverse", scalars.Cyclo, "inverse", False, None, None),
        ("linalg.rref", linalg, "rref", True, t._rref_shape, None),
        ("graded.mul", graded.GradedAssocAlgebra, "mul", False, None, None),
        ("graded.tau", graded.GradedAssocAlgebra, "tau", False, t._tau_pair, None),
        ("lattices.contains", lattices.LatticeSubset, "__contains__", False, None, None),
        ("lattices.window_elements", lattices.LatticeSubset, "window_elements",
         False, None, None),
        ("lattices.is_subset_of", lattices.LatticeSubset, "is_subset_of", False, None, None),
        ("rootsys.root_strings_exhaustive", rootsys, "root_strings_exhaustive",
         True, None, None),
        ("rootsys.pairing", rootsys.RootSystem, "pairing", False, None, None),
        ("refl.validate_axioms", refl, "validate_axioms", True, None, None),
        ("refl.predicates", refl, "predicates", True, None, None),
        ("refl.validate_ars_axioms", refl, "validate_ars_axioms", True, None, None),
        ("refl.validate_extension_datum", refl, "validate_extension_datum", True, None, None),
        ("refl.ars_structure", refl, "ars_structure", True, None, None),
        ("matlie.matmul", matlie.MatLieElement, "matmul", False, None, None),
        ("matlie.homog_basis", matlie.MatrixLieAlgebra, "homog_basis", False, None, None),
        ("matlie.verify_root_graded", matlie, "verify_root_graded", True, None, None),
        ("matlie.form_pair", matlie.SlInvariantForm, "pair", False, None, None),
        ("uce.wedge_window", uce.WedgeWindow, "__init__", True, None, None),
        ("uce.bracket", uce.UceAlgebra, "bracket", False, None, None),
        ("uce.hc1_component", uce, "hc1_component", True, None, None),
        ("uce.steinberg_check", uce, "steinberg_check", True, None, None),
        ("eala.bracket", eala.BuiltE, "bracket", False, None, t._eala_bracket_result),
        ("eala.form", eala.BuiltE, "form", False, None, None),
        ("eala.t_alpha", eala.BuiltE, "t_alpha", False, None, None),
        ("eala.validate_inv_data", eala, "validate_inv_data", True, None, None),
        ("eala.build_E", eala, "build_E", True, None, None),
        ("eala.verify_iara", eala, "verify_iara", True, None, None),
        ("eala.verify_eala", eala, "verify_eala", True, None, None),
        ("eala.core_and_tameness", eala, "core_and_tameness", True, None, None),
    ]
    for name, owner, attr, span, before, after in hooks:
        orig = vars(owner)[attr]
        hooked = t.wrap(name, orig, span=span, before=before, after=after)
        for ns, key in _references(modules, orig):
            setattr(ns, key, hooked)
            t.patched.setdefault(name, []).append(f"{ns.__module__}.{ns.__qualname__}.{key}"
                                                  if isinstance(ns, type)
                                                  else f"{ns.__name__}.{key}")
    return t
