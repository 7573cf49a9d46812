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
import sys

from .graded import GradedAssocAlgebra, skew_centroidal_space
from .matlie import MatrixLieAlgebra, verify_root_graded
from .refl import (
    AFFINE_TABLE,
    ars_structure,
    build_affine_rs,
    check_form,
    predicates,
    validate_ars_axioms,
    validate_axioms,
    validate_extension_datum,
)
from .report import AxiomReport, CheckResult, sampled_check
from .rootsys import build_classical, build_exceptional, classify, normalized
from .scalars import frac_to_str
from .serialize import (
    coord_algebra_from_json,
    datum_from_json,
    datum_to_json,
    root_system_from_json,
    root_system_to_json,
)


class InputError(Exception):
    pass


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


class Runner(AxiomReport):
    """The checks of one command, with the lines echoed among them, the
    digests of its inputs and the command itself."""

    def __init__(self, argv):
        super().__init__()
        self.text = []
        self.inputs = []
        self.command = " ".join(argv)

    def echo(self, text: str):
        self.text.append(text)

    def digest_input(self, label: str, payload):
        import hashlib

        if isinstance(payload, str):
            data = payload.encode()
        else:
            data = json.dumps(payload, sort_keys=True).encode()
        self.inputs.append({"input": label, "sha256": hashlib.sha256(data).hexdigest()})

    def append(self, check: CheckResult) -> CheckResult:
        self.text.append(check.line())
        return super().append(check)

    def merge(self, rep: AxiomReport):
        for c in rep.checks:
            self.append(c)

    def finish(self, out_path=None) -> int:
        """Write the --out report, then print the report text.  The report
        is written first, so that it is there even when stdout is closed."""
        if out_path:
            report = {"command": self.command, "inputs": self.inputs, **self.to_json()}
            with open(out_path, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
        if sys.stdout is not None:
            for line in self.text:
                print(line)
            sys.stdout.flush()
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
    run.echo(render_affine_table().rstrip("\n"))


def cmd_roots_build(args, run: Runner) -> None:
    rs = build_system(args.family, args.rank)
    run.echo(f"family {args.family} rank {args.rank}: {len(rs.roots)} roots (0 included)")
    add_classify(run, rs)
    if args.out_roots:
        with open(args.out_roots, "w") as fh:
            json.dump(root_system_to_json(rs), fh, indent=2, sort_keys=True)
            fh.write("\n")


def cmd_roots_classify(args, run: Runner) -> None:
    rs = root_system_from_json(load_json(args.infile, run))
    add_classify(run, rs)


def add_classify(run: Runner, rs) -> None:
    """The classify check: the type as its detail, or the witness."""
    label = classify(rs)
    run.add("classify", label.ok, witness=label.witness, detail=str(label) if label.ok else None)


def cmd_refl(args, run: Runner) -> None:
    if args.infile:
        if args.family is not None or args.rank is not None:
            raise InputError("--in names the root system: --family and --rank "
                             "cannot be given with it")
        rs = root_system_from_json(load_json(args.infile, run))
    else:
        rs = build_system(args.family or "A", 2 if args.rank is None else args.rank)
    if args.normalized:
        rs = normalized(rs)
    run.merge(validate_axioms(rs))
    flags = predicates(rs)
    for k in sorted(flags):
        run.add(f"predicate:{k}", True, detail=str(flags[k]))
    ff = check_form(rs, rs.space.form)
    for k in ("invariant", "strictly_invariant", "affine"):
        run.add(f"form:{k}", True, detail=str(ff[k]))
    norms = sorted({rs.space.pair(a, a) for a in rs.nonzero_roots()})  # shows a wrong --normalized
    run.add("form:norms", True, detail=", ".join(frac_to_str(x) for x in norms))


def cmd_ars_build(args, run: Runner) -> None:
    window = args.window
    S = build_system(args.type, args.rank)
    ars, mp, kac = build_affine_rs(S, args.tier)
    run.add("labels", True, detail=f"{mp} {kac}")
    run.merge(validate_ars_axioms(ars))
    # Only the string lengths are read on the window; the rest is
    # decided exactly from the cosets of the datum.
    st = ars_structure(ars, window)
    for k in ("nullity", "symmetric", "unbroken", "tame"):
        run.add(f"structure:{k}", True, detail=str(st[k]))
    run.add("structure:max_string_len", True, detail=str(st["max_string_len"]),
            window=window)
    for k, v in sorted(st["class_flags"].items()):
        run.add(f"class:{k}", True, detail=str(v))
    if args.out_ars:
        with open(args.out_ars, "w") as fh:
            json.dump(datum_to_json(ars.datum), fh, indent=2, sort_keys=True)
            fh.write("\n")


def cmd_ars_check(args, run: Runner) -> None:
    ed = datum_from_json(load_json(args.infile, run))
    run.merge(validate_extension_datum(ed))


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
    if A.support is not None:
        raise InputError("expected a quantum torus description")
    return A


def cmd_qtorus_centre(args, run: Runner) -> None:
    A = _load_qtorus(args, run)
    run.add("centre", True, note="structural: Rad(q) = {lam : prod_j q_ij^lam_j = 1 for all i}, "
                                 "solved exactly", detail=f"basis {A.centre_lattice().basis}")
    # t^mu t^nu = q(mu, nu) t^nu t^mu, and q(e_i, lam - e_i) = q(e_i, lam) as q_ii = 1
    run.add("decomposition", True, note="structural: for lam not in Rad(q) some i has "
                                        "q(e_i, lam) != 1, so t^lam is a nonzero multiple of "
                                        "[t^(e_i), t^(lam - e_i)]")


def cmd_qtorus_scder(args, run: Runner) -> None:
    A = _load_qtorus(args, run)
    deg = _parse_degree(args.degree, A.n)
    basis = skew_centroidal_space(A, deg)
    run.add("scder-dim", True, detail=f"degree {deg}: dim {len(basis)}")


def cmd_alg(args, run: Runner) -> None:
    load_coord(args, run)
    run.add("associativity", True, note="by construction: A is a group algebra on Z^n, on its "
                                        "nonneg or zero part, or a quantum torus; each has a "
                                        "bilinear tau, and a bilinear tau is a 2-cocycle")
    run.add("unit", True, note="by construction: a bilinear tau has tau(0, .) = tau(., 0) = 1, "
                               "so t^0 is the unit of A")


def cmd_sl(args, run: Runner) -> None:
    A = load_coord(args, run)
    rep = verify_root_graded(MatrixLieAlgebra(args.n, A))
    # A is a quantum torus (a group algebra is q = 1), so no flag reads a
    # window (see matlie._root_graded)
    run.add("RG1", rep["RG1"])
    run.add("RG2", rep["RG2"], note="by construction: A is unital, so 1 is a unit of A^0")
    run.add("RG3", rep["RG3"], note="by construction: the [xE_ij, E_ji] span the trace-zero "
                                    "diagonals, and modulo those [xE_ij, yE_ji] = [x, y]E_ii, "
                                    "so the brackets span L_0^d")
    notes = {"predivision": "A^d = K t^d, and t^d is a unit iff -d is in the support",
             "division": "A^d = K t^d, so division is predivision",
             "torus": "dim A^0 = 1, so a torus is a predivision algebra"}
    for k, note in notes.items():
        run.add(f"flag:{k}", True, rep.get(f"{k}_witness"), detail=str(rep[k]),
                note=f"structural: {note}")
    run.add("jacobi", True, note="by construction: the bracket is xy - yx in gl_n(A), and A, "
                                 "a group algebra or a quantum torus with a bilinear "
                                 "2-cocycle tau, is associative")


def cmd_uce(args, run: Runner) -> None:
    from .uce import build_uce_sl, steinberg_check

    A = load_coord(args, run)
    U = build_uce_sl(args.n, A)
    run.merge(steinberg_check(U))
    # A triple bracket of pool elements produces wedge terms of coordinate
    # size up to twice the pool window, so that is all the quotient needs.
    # The quotient is reduced one total degree at a time, and the block of a
    # degree enumerates (4 pool + 1)^(2n) degree pairs, so rank >= 2 keeps a
    # unit pool.
    pool_w = min(args.window, 2 if A.n <= 1 else 1)
    sample = sampled_check("jacobi-sample", U.homogeneous_pool(pool_w), args.jacobi, args.seed,
                           lambda *t: U.jacobi_holds(*t, window=2 * pool_w))
    sample.detail += f", pool window {pool_w}"
    run.append(sample)
    _add_hc1(run, "projection-kernel-degree-0", A, (0,) * A.n)


def cmd_affine(args, run: Runner) -> None:
    from .uce import build_affine

    if not args.g.startswith("sl"):
        raise InputError("only g = sl<m> is supported")
    m = int(args.g[2:])
    E = build_affine(m)
    # Rad = Z: the degree classes are 0 and every k != 0, read off (1,)
    items, _ = E.class_list()
    run.add("root-spaces", all(E.acts_by_root(*item) for item in items))
    # dim E_(k delta): the root space of the zero root in t-degree k
    dims = {deg: len(E.root_space_basis((0,) * m, deg)) for ro, deg in items if not any(ro)}
    run.add("dim-E0", True, detail=str(dims[(0,)]))
    run.add("dim-E-delta", True, detail=str(dims[(1,)]))
    if args.emit == "roots":
        for deg, dim in dims.items():
            run.echo(f"delta-degree {'k != 0' if any(deg) else 0}: dim {dim}")


def _add_hc1(run: Runner, name: str, A, deg) -> None:
    from .uce import hc1_component

    if A.support:
        note = "HC_1 = Omega^1/dA: #{i : sigma_i != 0} - [sigma != 0] on the support, 0 off it"
    else:
        note = "HC_1^sigma = n - [sigma != 0] on Rad(q), 0 off it"
    run.add(name, True, note=f"structural: {note}", detail=f"dim {hc1_component(A, deg)}")


def cmd_hc1(args, run: Runner) -> None:
    A = load_coord(args, run)
    _add_hc1(run, "hc1", A, _parse_degree(args.degree, A.n))


def cmd_eala(args, run: Runner) -> None:
    from .eala import (
        build_E,
        classify_variant,
        default_iara_data,
        nullity_of,
        refuse_invalid,
        validate_inv_data,
        verify_eala,
        verify_iara,
    )

    window = args.window
    A = load_coord(args, run)
    L = MatrixLieAlgebra(args.n, A)
    data = default_iara_data(L, C="dual" if args.C == "dual" else "min")
    # INV-a - INV-f, the premises of the construction, are printed; they are
    # read through the E that the verifiers then use.
    E = build_E(data, validate=False)
    inv = validate_inv_data(E)
    refuse_invalid(inv)
    run.merge(inv)
    ia = verify_iara(E, window)
    run.merge(ia)
    ea = verify_eala(E, window, iara=ia)
    run.merge(ea)
    run.add("tame", ea["EA5"].ok, ea["EA5"].witness)
    nullity = nullity_of(E, window)  # at most n, so exact once it is n
    run.add("nullity", True, detail=str(nullity), window=None if nullity == A.n else window)
    cv = classify_variant(iara=ia, eala=ea)
    for k in ("IARA", "EALA", "LEALA", "GRLA", "toral-type"):
        run.add(f"variant:{k}", True, detail=str(cv[k]), window=cv["windows"][k])


def _count(least: int):
    """An argparse type: an int of at least least.  A negative window, or a
    sample of no triples, which would print a vacuous pass, is then a usage
    error."""
    def count(text):
        n = int(text)
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n
    return count


_COORD = ("--coord", dict(default="laurent"))
_N = ("--n", dict(type=int, default=3))
_RANK = ("--rank", dict(type=int, default=2))


def commands() -> dict:
    """The command tree.  A leaf is (help, handler, its options as (flag,
    keywords of add_argument)), and a command with actions is (help,
    {action: leaf}).  It is built on each call, so it holds the handlers
    that the module binds at that time."""
    return {
        "table": ("render the affine label table", cmd_table,
                  [("what", dict(choices=["affine"]))]),
        "roots": ("build or classify finite root systems", {
            "build": (None, cmd_roots_build, [
                ("--family", dict(default="A")), _RANK, ("--out-roots", dict(dest="out_roots"))]),
            "classify": (None, cmd_roots_classify,
                         [("--in", dict(dest="infile", required=True))]),
        }),
        "refl": ("reflection-system axioms and predicates", cmd_refl, [
            ("--family", dict(help="default A; not with --in")),
            ("--rank", dict(type=int, help="default 2; not with --in")),
            ("--in", dict(dest="infile")),
            ("--normalized", dict(action="store_true"))]),
        "ars": ("affine reflection systems", {
            "build": (None, cmd_ars_build, [
                ("--type", dict(default="A")), _RANK, ("--tier", dict(type=int, default=1)),
                ("--window", dict(type=_count(0), default=3,
                                  help="scopes structure:max_string_len alone")),
                ("--out-ars", dict(dest="out_ars"))]),
            "check": (None, cmd_ars_check, [("--in", dict(dest="infile", required=True))]),
        }),
        "qtorus": ("quantum torus invariants", {
            "centre": (None, cmd_qtorus_centre, [("--q", dict(required=True))]),
            "scder": (None, cmd_qtorus_scder, [("--q", dict(required=True)), ("--degree", {})]),
        }),
        "alg": ("associativity and unit of a coordinate algebra", cmd_alg, [_COORD]),
        "sl": ("root-graded verification of sl_n(A)", cmd_sl, [_N, _COORD]),
        "uce": ("universal central extension checks", cmd_uce, [
            _N, _COORD,
            ("--window", dict(type=_count(0), default=3,
                              help="scopes the Jacobi sample's pool alone, which reads window 2 "
                                   "at most on a rank <= 1 algebra and window 1 otherwise")),
            ("--seed", dict(type=int, default=0)),
            ("--jacobi", dict(type=_count(1), default=200))]),
        "affine": ("the untwisted affine construction", cmd_affine, [
            ("--g", dict(default="sl3")),
            ("--emit", dict(choices=["roots", "none"], default="none"))]),
        "hc1": ("first cyclic homology in one degree", cmd_hc1, [_COORD, ("--degree", {})]),
        "eala": ("build and verify E = C + L + D", cmd_eala, [
            ("--coord", dict(required=True)), _N,
            ("--C", dict(default="min", choices=["min", "dual"])),
            # read only on a bounded support, where the degrees have no three classes;
            # a window-0 box holds degree 0 alone, so a windowed line would read no
            # nonzero degree
            ("--window", dict(type=_count(1), default=3,
                              help="read only on a coordinate algebra of bounded support "
                                   "(\"support\": \"nonneg\" or \"zero\"); a line that reads it "
                                   "prints it"))]),
    }


def leaf_path(argv):
    """The leaf of commands() that argv's first one or two tokens name, such
    as ("eala",) or ("roots", "build"); None when they name none (no
    command, an option such as -h first, an unknown command, or a command
    without its action), for which the whole tree parses."""
    node = commands().get(argv[0]) if argv else None
    if node is None:
        return None
    if not isinstance(node[1], dict):
        return (argv[0],)
    return (argv[0], argv[1]) if len(argv) > 1 and argv[1] in node[1] else None


def make_parser(leaf=None) -> argparse.ArgumentParser:
    """The argparse tree of commands().  Each leaf takes only the options its
    handler reads, plus --out, and names that handler as ``args.handler``.

    Given a leaf path (see leaf_path), only the parsers on that path are
    built.  Each subcommand list still names every command of its level, so
    prog, usage and error text are those of the whole tree."""
    p = argparse.ArgumentParser(prog="lietor", description=__doc__)
    _add_commands(p, "cmd", commands(), leaf)
    return p


def _add_commands(parser, dest, nodes, path) -> None:
    # a metavar of the whole list keeps the usage line of the whole tree
    sub = parser.add_subparsers(
        dest=dest, required=True, metavar=None if path is None else "{" + ",".join(nodes) + "}")
    for name in nodes if path is None else path[:1]:
        node = nodes[name]
        q = sub.add_parser(name, help=node[0])
        if isinstance(node[1], dict):
            _add_commands(q, "action", node[1], None if path is None else path[1:])
            continue
        _, handler, options = node
        q.set_defaults(handler=handler)
        q.add_argument("--out", dest="out")
        for flag, kw in options:
            q.add_argument(flag, **kw)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = make_parser(leaf_path(argv)).parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    run = Runner(["lietor"] + argv)
    try:
        args.handler(args, run)
        return run.finish(args.out)
    except (InputError, ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            _drop_stdout()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _drop_stdout() -> None:
    """Point stdout at the null device once its reader has gone, so that
    the flush at exit does not fail again and turn the exit code into 120."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    raise SystemExit(main())
