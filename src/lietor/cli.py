"""The lietor command line.

Subcommands: roots, refl, ars, qtorus, alg, sl, uce, affine, hc1, eala,
table.  Exit codes: 0 all requested checks pass, 1 a check failed,
2 malformed input, 3 an internal error.  Reports print as text; --out
writes the JSON report.  Iteration orders are fixed, so identical inputs
give identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .graded import (
    GradedAssocAlgebra,
    centre_of_qtorus,
    centre_scan_oracle,
    commutator_decomposition,
    skew_centroidal_space,
)
from .lattices import box
from .matlie import MatrixLieAlgebra, bracket as mat_bracket, verify_root_graded
from .refl import (
    AFFINE_TABLE,
    PreReflectionSystem,
    ars_structure,
    build_affine_rs,
    check_form,
    predicates,
    validate_ars_axioms,
    validate_axioms,
    validate_extension_datum,
)
from .report import AxiomReport
from .rootsys import build_classical, build_exceptional, classify, normalized
from .serialize import (
    coord_algebra_from_json,
    datum_from_json,
    datum_to_json,
    root_system_from_json,
    root_system_to_json,
)


class InputError(Exception):
    pass


def clamp_window(w: int) -> int:
    """w, capped by LIETOR_MAX_WINDOW; a negative window or cap is malformed."""
    cap = os.environ.get("LIETOR_MAX_WINDOW")
    if cap is not None:
        if int(cap) < 0:
            raise InputError(f"LIETOR_MAX_WINDOW={cap} is negative")
        w = min(w, int(cap))
    if w < 0:
        raise InputError(f"window {w} is negative")
    return w


def build_system(family: str, rank: int):
    fam = family.upper()
    if fam in ("E6", "E7", "E8", "F4", "G2"):
        return build_exceptional(fam)
    return build_classical(fam, rank)


def load_json(path: str, run=None):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if run is not None:
        run.digest_input(path, data)
    return data


def load_coord(args, run=None):
    """Coordinate algebra from --coord: a shorthand name or a JSON file."""
    if args.coord.endswith(".json"):
        return coord_algebra_from_json(load_json(args.coord, run))
    if run is not None:
        run.digest_input(args.coord, args.coord)
    return coord_algebra_from_json(args.coord)


class Runner:
    """Collects check lines and the JSON report."""

    def __init__(self, argv):
        self.checks = []
        self.lines = []
        self.inputs = []
        self.command = " ".join(argv)

    def echo(self, text: str):
        self.lines.append(text)

    def digest_input(self, label: str, payload):
        import hashlib

        if isinstance(payload, str):
            data = payload.encode()
        else:
            data = json.dumps(payload, sort_keys=True).encode()
        self.inputs.append({"input": label, "sha256": hashlib.sha256(data).hexdigest()})

    def record(self, name: str, ok: bool, detail: str = None, window=None):
        entry = {"name": name, "status": "pass" if ok else "fail"}
        if window is not None:
            entry["window"] = window
            entry["status"] = "windowed-pass" if ok else "fail"
        if detail:
            entry["detail"] = detail
        self.checks.append(entry)
        line = f"{name}: {entry['status']}"
        if detail:
            line += f"  ({detail})"
        self.lines.append(line)

    def merge(self, rep: AxiomReport, prefix: str = ""):
        for c in rep.checks:
            entry = c.to_json()
            if prefix:
                entry["name"] = prefix + entry["name"]
            self.checks.append(entry)
        for line in rep.lines():
            self.lines.append(prefix + line)

    @property
    def ok(self) -> bool:
        return all(c["status"] != "fail" for c in self.checks)

    def finish(self, out_path=None) -> int:
        for line in self.lines:
            print(line)
        if out_path:
            report = {"command": self.command, "ok": self.ok,
                      "inputs": self.inputs, "checks": self.checks}
            with open(out_path, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
        return 0 if self.ok else 1


def render_affine_table() -> str:
    head = ("S", "t(S)", "label", "Kac label")
    rows = [head] + [tuple(r) for r in AFFINE_TABLE]
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    out = []
    for k, r in enumerate(rows):
        out.append("  ".join(r[i].ljust(widths[i]) for i in range(4)).rstrip())
        if k == 0:
            out.append("-" * (sum(widths) + 6))
    return "\n".join(out) + "\n"


def cmd_table(args, run: Runner) -> None:
    if args.what != "affine":
        raise InputError("only the affine table is available")
    sys.stdout.write(render_affine_table())


def cmd_roots(args, run: Runner) -> None:
    if args.action == "build":
        rs = build_system(args.family, args.rank)
        run.echo(f"family {args.family} rank {args.rank}: {len(rs.roots)} roots (0 included)")
        label = classify(rs)
        run.record("classify", True, detail=str(label))
        if args.out_roots:
            with open(args.out_roots, "w") as fh:
                json.dump(root_system_to_json(rs), fh, indent=2, sort_keys=True)
                fh.write("\n")
    elif args.action == "classify":
        rs = root_system_from_json(load_json(args.infile, run))
        label = classify(rs)
        run.record("classify", True, detail=str(label))
    else:
        raise InputError(f"unknown roots action {args.action!r}")


def cmd_refl(args, run: Runner) -> None:
    if args.infile:
        rs = root_system_from_json(load_json(args.infile, run))
    else:
        rs = build_system(args.family, args.rank)
    if args.normalized:
        rs = normalized(rs)
    prs = PreReflectionSystem.from_root_system(rs)
    run.merge(validate_axioms(prs))
    flags = predicates(prs)
    for k in sorted(flags):
        run.record(f"predicate:{k}", True, detail=str(flags[k]))
    ff = check_form(prs, rs.space.form)
    for k in ("invariant", "strictly_invariant", "affine"):
        run.record(f"form:{k}", True, detail=str(ff[k]))


def cmd_ars(args, run: Runner) -> None:
    window = clamp_window(args.window)
    if args.action == "build":
        S = build_system(args.type, args.rank)
        ars, mp, kac = build_affine_rs(S, args.tier)
        run.echo(f"labels: {mp}  {kac}")
        run.record("labels", True, detail=f"{mp} {kac}")
        rep = validate_ars_axioms(ars, window)
        run.merge(rep)
        st = ars_structure(ars, window)
        for k in ("nullity", "symmetric", "unbroken", "tame", "max_string_len"):
            run.record(f"structure:{k}", True, detail=str(st[k]), window=window)
        for k, v in sorted(st["class_flags"].items()):
            run.record(f"class:{k}", True, detail=str(v), window=window)
        if args.out_ars:
            with open(args.out_ars, "w") as fh:
                json.dump(datum_to_json(ars.datum), fh, indent=2, sort_keys=True)
                fh.write("\n")
    elif args.action == "check":
        ed = datum_from_json(load_json(args.infile, run))
        run.merge(validate_extension_datum(ed, window))
    else:
        raise InputError(f"unknown ars action {args.action!r}")


def _parse_degree(text, n: int):
    """Comma-separated degree; short vectors are zero-padded to length n."""
    if not text:
        return (0,) * n
    vals = [int(x) for x in text.split(",")]
    if len(vals) > n:
        raise InputError(f"degree has {len(vals)} coordinates, lattice rank is {n}")
    return tuple(vals + [0] * (n - len(vals)))


def _load_qtorus(args, run=None) -> GradedAssocAlgebra:
    data = load_json(args.q, run)
    A = coord_algebra_from_json(data)
    if A.kind != "qtorus":
        raise InputError("expected a quantum torus description")
    return A


def cmd_qtorus(args, run: Runner) -> None:
    A = _load_qtorus(args, run)
    if args.action == "centre":
        gamma = centre_of_qtorus(A)
        run.echo(f"Gamma basis: {gamma.basis}")
        window = clamp_window(args.window)
        oracle = centre_scan_oracle(A, window)
        agree = all(v in gamma for v in oracle) and all(
            tuple(v) in set(oracle) for v in gamma.window_elements(window)
        )
        run.record("centre-matches-scan", agree, window=window,
                   detail=f"basis {gamma.basis}")
    elif args.action == "scder":
        deg = _parse_degree(args.degree, A.n)
        basis = skew_centroidal_space(A, deg)
        run.record("scder-dim", True, detail=f"degree {deg}: dim {len(basis)}")
    elif args.action == "decompose":
        window = clamp_window(args.window)
        rep = commutator_decomposition(A, window)
        central = sum(1 for r in rep if r["central"])
        run.record("decomposition", True, window=window,
                   detail=f"{central} central degrees of {len(rep)} in the box")
    else:
        raise InputError(f"unknown qtorus action {args.action!r}")


def cmd_alg(args, run: Runner) -> None:
    window = clamp_window(args.window)
    A = load_coord(args, run)
    degs = [d for d in box(A.n, window) if A.in_support(d)]
    ok = True
    witness = None
    for d1 in degs:
        for d2 in degs:
            for d3 in degs:
                x = A.monomial(d1)
                y = A.monomial(d2)
                z = A.monomial(d3)
                try:
                    if (x * y) * z != x * (y * z):
                        ok, witness = False, f"associativity fails at {(d1, d2, d3)}"
                        break
                except ArithmeticError:
                    continue
            if not ok:
                break
        if not ok:
            break
    run.record("associativity", ok, witness, window=window)
    one = A.one()
    ok = all(one * A.monomial(d) == A.monomial(d) == A.monomial(d) * one for d in degs)
    run.record("unit", ok, window=window)


def cmd_sl(args, run: Runner) -> None:
    window = clamp_window(args.window)
    A = load_coord(args, run)
    L = MatrixLieAlgebra(args.n, A)
    rep = verify_root_graded(L, window)
    for k in ("RG1", "RG2", "RG3"):
        run.record(k, bool(rep[k]), detail=rep.get(f"{k}_witness"), window=window)
    for k in ("predivision", "division", "torus"):
        run.record(f"flag:{k}", True, detail=str(rep[k]), window=window)
    rng = random.Random(args.seed)
    basis = L.windowed_basis(min(window, 1))
    ok = True
    for _ in range(args.jacobi):
        x, y, z = (rng.choice(basis) for _ in range(3))
        total = (mat_bracket(mat_bracket(x, y), z)
                 + mat_bracket(mat_bracket(y, z), x)
                 + mat_bracket(mat_bracket(z, x), y))
        if total:
            ok = False
            break
    run.record("jacobi-sample", ok, detail=f"{args.jacobi} triples, seed {args.seed}")


def cmd_uce(args, run: Runner) -> None:
    from .uce import build_uce_sl, hc1_component, steinberg_check

    window = clamp_window(args.window)
    A = load_coord(args, run)
    U = build_uce_sl(args.n, A)
    run.merge(steinberg_check(U, min(window, 2)))
    rng = random.Random(args.seed)
    # A triple bracket of pool elements produces wedge terms of coordinate
    # size up to twice the pool window, so that is all the quotient needs.
    # The quotient is reduced one total degree at a time, and the block of a
    # degree enumerates (4 pool + 1)^(2n) degree pairs, so rank >= 2 keeps a
    # unit pool.
    pool_w = min(window, 2 if A.n <= 1 else 1)
    pool = U.homogeneous_pool(pool_w)
    ok = True
    for _ in range(args.jacobi):
        u1, u2, u3 = (rng.choice(pool) for _ in range(3))
        if not U.jacobi_holds(u1, u2, u3, window=2 * pool_w):
            ok = False
            break
    run.record("jacobi-sample", ok, detail=f"{args.jacobi} triples, seed {args.seed}")
    # HC_1 needs two windows >= 2 to compare; rank >= 2 stops at window 3.
    hc_max = window + 3 if A.n <= 1 else 3
    hc = hc1_component(A, (0,) * A.n, max_window=hc_max)
    run.record("projection-kernel-degree-0", hc["stable"], window=hc["window"],
               detail=f"dim {hc['dim']} (stable={hc['stable']})")


def cmd_affine(args, run: Runner) -> None:
    from .uce import build_affine

    if not args.g.startswith("sl"):
        raise InputError("only g = sl<m> is supported")
    m = int(args.g[2:])
    window = clamp_window(args.window)
    E = build_affine(m)
    run.record("root-spaces", E.verify_root_spaces(window), window=window)
    dims = E.root_space_dims(window)
    run.record("dim-E0", True, detail=str(dims[("delta", 0)]))
    if window >= 1:
        run.record("dim-E-delta", True, detail=str(dims[("delta", 1)]))
    if args.emit == "roots":
        for k in range(-window, window + 1):
            run.echo(f"delta-degree {k}: dim {dims[('delta', k)]}")


def cmd_hc1(args, run: Runner) -> None:
    from .uce import hc1_component

    A = load_coord(args, run)
    deg = _parse_degree(args.degree, A.n)
    res = hc1_component(A, deg, max_window=clamp_window(args.max_window))
    run.record("hc1", res["stable"], window=res["window"],
               detail=f"degree {deg}: dim {res['dim']} (stable={res['stable']})")


def cmd_eala(args, run: Runner) -> None:
    from .eala import (
        build_E,
        classify_variant,
        default_iara_data,
        jacobi_sample,
        nullity_of,
        verify_eala,
        verify_iara,
    )

    window = clamp_window(args.window)
    A = load_coord(args, run)
    L = MatrixLieAlgebra(args.n, A)
    data = default_iara_data(L, window=window,
                             C="dual" if args.C == "dual" else "min")
    if args.tau != "zero":
        raise InputError("only tau = zero is constructible; supply data programmatically")
    E = build_E(data, window=window)
    ia = verify_iara(E, window)
    run.merge(ia)
    if args.check in ("all", "eala"):
        ea = verify_eala(E, window, iara=ia)
        run.merge(ea)
        run.record("tame", ea["EA5"].ok, ea["EA5"].witness, window=window)
        run.record("nullity", True, detail=str(nullity_of(E, window)))
        cv = classify_variant(E, window, iara=ia, eala=ea)
        for k in ("IARA", "EALA", "LEALA", "GRLA", "toral-type"):
            run.record(f"variant:{k}", True, detail=str(cv[k]), window=window)
    if args.jacobi:
        run.record("jacobi-sample", jacobi_sample(E, args.jacobi, args.seed, window=1),
                   detail=f"{args.jacobi} triples, seed {args.seed}")


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lietor", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("table", help="render the affine label table")
    q.add_argument("what", choices=["affine"])

    q = sub.add_parser("roots", help="build or classify finite root systems")
    q.add_argument("action", choices=["build", "classify"])
    q.add_argument("--family", default="A")
    q.add_argument("--rank", type=int, default=2)
    q.add_argument("--in", dest="infile")
    q.add_argument("--out-roots", dest="out_roots")

    q = sub.add_parser("refl", help="reflection-system axioms and predicates")
    q.add_argument("--family", default="A")
    q.add_argument("--rank", type=int, default=2)
    q.add_argument("--in", dest="infile")
    q.add_argument("--normalized", action="store_true")

    q = sub.add_parser("ars", help="affine reflection systems")
    q.add_argument("action", choices=["build", "check"])
    q.add_argument("--type", default="A")
    q.add_argument("--rank", type=int, default=2)
    q.add_argument("--tier", type=int, default=1)
    q.add_argument("--window", type=int, default=3)
    q.add_argument("--in", dest="infile")
    q.add_argument("--out-ars", dest="out_ars")

    q = sub.add_parser("qtorus", help="quantum torus invariants")
    q.add_argument("action", choices=["centre", "scder", "decompose"])
    q.add_argument("--q", required=True)
    q.add_argument("--degree")
    q.add_argument("--window", type=int, default=4)

    q = sub.add_parser("alg", help="graded algebra sanity on a window")
    q.add_argument("--coord", default="laurent")
    q.add_argument("--window", type=int, default=2)

    q = sub.add_parser("sl", help="root-graded verification of sl_n(A)")
    q.add_argument("action", nargs="?", choices=["verify"], default="verify")
    q.add_argument("--n", type=int, default=3)
    q.add_argument("--coord", default="laurent")
    q.add_argument("--window", type=int, default=2)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--jacobi", type=int, default=200)

    q = sub.add_parser("uce", help="universal central extension checks")
    q.add_argument("action", nargs="?", choices=["check"], default="check")
    q.add_argument("--n", type=int, default=3)
    q.add_argument("--coord", default="laurent")
    q.add_argument("--window", type=int, default=3)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--jacobi", type=int, default=200)

    q = sub.add_parser("affine", help="the untwisted affine construction")
    q.add_argument("action", nargs="?", choices=["build"], default="build")
    q.add_argument("--g", default="sl3")
    q.add_argument("--window", type=int, default=5)
    q.add_argument("--emit", choices=["roots", "none"], default="none")

    q = sub.add_parser("hc1", help="first cyclic homology, windowed")
    q.add_argument("--coord", default="laurent")
    q.add_argument("--degree")
    q.add_argument("--max-window", type=int, default=8)

    q = sub.add_parser("eala", help="build and verify E = C + L + D")
    q.add_argument("action", nargs="?", choices=["build"], default="build")
    q.add_argument("--coord", required=True)
    q.add_argument("--n", type=int, default=3)
    q.add_argument("--D", default="degree", choices=["degree"])
    q.add_argument("--C", default="min", choices=["min", "dual"])
    q.add_argument("--tau", default="zero")
    q.add_argument("--check", default="all", choices=["all", "iara", "eala"])
    q.add_argument("--window", type=int, default=3)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--jacobi", type=int, default=0)

    for name, sp in sub.choices.items():
        sp.add_argument("--out", dest="out")
    return p


_HANDLERS = {
    "table": cmd_table,
    "roots": cmd_roots,
    "refl": cmd_refl,
    "ars": cmd_ars,
    "qtorus": cmd_qtorus,
    "alg": cmd_alg,
    "sl": cmd_sl,
    "uce": cmd_uce,
    "affine": cmd_affine,
    "hc1": cmd_hc1,
    "eala": cmd_eala,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    run = Runner(["lietor"] + argv)
    try:
        _HANDLERS[args.cmd](args, run)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return run.finish(getattr(args, "out", None))


if __name__ == "__main__":
    raise SystemExit(main())
