"""Command-line front end: ingest operators, run diagnostics, emit reports.

Reports are JSON envelopes {"schema": "ritt-calc/1", "command", "seed",
"options", "timestamp", "result"}; ``--no-timestamp`` removes the
timestamp and timing fields so reruns with one seed are byte-identical.
Matrices are read from Matrix Market files (array or coordinate, real
or complex) or from JSON {"rows", "cols", "entries": [[re, im], ...]}.

Exit codes: 0 success, 1 failed verification assertions, a contour
that missed its quadrature target (``converged`` false) or a library
refusal (DivergenceError, SingularMatrixError, ContourSpectrumError,
AdmissibilityError) printed as one ``rittcalc: refused: ...`` line on
stderr, 2 usage errors, 3 ingestion errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import funcalc, lab, ritt, sqfun, stolz, verify
from .jsonutil import matrix_from_json, sanitize
from .numlin import (Hilbert, LpWeighted, SchattenP, ShapeError, SingularMatrixError, SupSeq,
                     check_vector)

__all__ = ["IngestError", "load_matrix", "main"]

SCHEMA = "ritt-calc/1"
# what the library raises when it declines an operator or a function
REFUSALS = (sqfun.DivergenceError, SingularMatrixError, funcalc.ContourSpectrumError,
            funcalc.AdmissibilityError)


class IngestError(ValueError):
    pass


def load_matrix(path: str, square: bool = False) -> np.ndarray:
    """Matrix Market or JSON matrix file, finite, and square if asked."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(64)
    except OSError as exc:
        raise IngestError(f"cannot open {path}: {exc}") from exc
    try:
        if head.startswith(b"%%MatrixMarket"):
            import scipy.io

            M = scipy.io.mmread(path)
            if hasattr(M, "todense"):
                M = M.todense()
            M = np.asarray(M, dtype=complex)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
            M = matrix_from_json(obj)
    except Exception as exc:
        raise IngestError(f"cannot parse matrix file {path}: {exc}") from exc
    if not np.all(np.isfinite(M)):
        raise IngestError(f"matrix file {path} has non-finite entries")
    if square and M.shape[0] != M.shape[1]:
        raise IngestError(f"matrix file {path} is {M.shape[0]}x{M.shape[1]}, "
                          "not a square operator")
    return M


def parse_space(spec: str, dim: int):
    """Space spec: hilbert | lp:P[:w1,w2,...] | schatten:P:N | sup.

    The model must act on vectors of length ``dim``, the matrix size.  A
    field past the ones its kind takes is refused, not ignored.
    """
    parts = spec.split(":")
    kind = parts[0].lower()
    fields = {"hilbert": 1, "lp": 3, "schatten": 3, "sup": 1}.get(kind)
    if fields is None:
        raise IngestError(f"unknown space spec {spec!r}")
    if len(parts) > fields:
        raise IngestError(f"bad space spec {spec!r}: trailing fields {parts[fields:]}")
    try:
        if kind == "hilbert":
            space = Hilbert(dim)
        elif kind == "lp":
            p = float(parts[1])
            if len(parts) > 2:
                w = tuple(float(v) for v in parts[2].split(","))
            else:
                w = tuple(1.0 for _ in range(dim))
            space = LpWeighted(p, w)
        elif kind == "schatten":
            space = SchattenP(float(parts[1]), int(parts[2]))
        else:
            space = SupSeq(dim)
    except (IndexError, ValueError) as exc:
        raise IngestError(f"bad space spec {spec!r}: {exc}") from exc
    if space.dim != dim:
        raise IngestError(f"space {spec!r} has dimension {space.dim}, "
                          f"the matrix has size {dim}")
    return space


def parse_mesh(spec: str) -> stolz.MeshSpec:
    """Mesh spec: SEGPANELS,ARCPANELS,POINTS[,RATIO]."""
    try:
        parts = spec.split(",")
        ratio = float(parts[3]) if len(parts) > 3 else 0.5
        return stolz.MeshSpec(segment_panels=int(parts[0]), arc_panels=int(parts[1]),
                              points_per_panel=int(parts[2]), grading_ratio=ratio)
    except (IndexError, ValueError) as exc:
        raise IngestError(f"bad mesh spec {spec!r}: {exc}") from exc


def _arg_type(parse, keep_text: bool = False):
    """argparse type from ``parse``: a value it rejects with ValueError is
    a usage error (exit 2).  ``keep_text`` keeps the text it accepts."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
        return text if keep_text else value
    return convert


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def _schur_delta(text: str) -> float:
    # the symbols are drawn from [-1 + delta, 1], inside [-1, 1]
    value = float(text)
    if not 0.0 <= value <= 2.0:
        raise ValueError("must lie in [0, 2]")
    return value


def _kappa(text: str) -> float:
    value = float(text)
    if not 1.0 <= value < np.inf:  # also NaN
        raise ValueError("must be finite and >= 1")
    return value


def _kappa_list(text: str) -> list:
    return [_kappa(v) for v in text.split(",")]


def _schatten_p(text: str) -> float:
    return SchattenP(float(text), 1).p


def _tail_tol(text: str) -> float:
    return sqfun.SFConfig(tail_tol=float(text)).tail_tol


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items()
                if k not in ("timestamp", "seconds")}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def _emit(report: dict, args) -> None:
    if args.no_timestamp:
        report = _strip_timing(report)
    else:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(sanitize(report), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _envelope(command: str, seed: int, options: dict, result) -> dict:
    return {"schema": SCHEMA, "command": command, "seed": seed,
            "options": sanitize(options), "result": result}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    T = load_matrix(args.matrix, square=True)
    space = parse_space(args.space, T.shape[0])
    cfg = ritt.RittConfig(N=args.N)
    rep = ritt.ritt_verdict(T, space, cfg)
    _emit(_envelope("analyze", args.seed,
                    {"space": args.space, "N": args.N, "matrix": args.matrix},
                    rep.to_json_dict()), args)
    return 0


def cmd_funcalc(args) -> int:
    T = load_matrix(args.matrix, square=True)
    phi = funcalc.named_function(args.phi)
    mesh = parse_mesh(args.mesh) if args.mesh else None
    rep = funcalc.eval_contour(T, phi, beta=args.beta, gamma=args.gamma, mesh=mesh)
    _emit(_envelope("funcalc", args.seed,
                    {"phi": args.phi, "beta": args.beta, "gamma": args.gamma,
                     "mesh": args.mesh, "matrix": args.matrix},
                    rep.to_json_dict()), args)
    return 0 if rep.converged else 1


def cmd_sqfun(args) -> int:
    T = load_matrix(args.matrix, square=True)
    space = parse_space(args.space, T.shape[0])
    cfg = sqfun.SFConfig(m=args.m, tail_tol=args.tail_tol)
    result: dict = {"space": repr(space), "m": args.m}
    if args.constant:
        result["sf_constant"] = sqfun.sf_constant(T, args.m, space, cfg=cfg)
    else:
        x = load_matrix(args.x) if args.x else np.ones(T.shape[0], dtype=complex)
        try:  # a row or column holds the flat element
            x = check_vector(x.reshape(-1) if 1 in x.shape else x, space)
        except ShapeError as exc:
            raise IngestError(f"--x {args.x}: {exc}") from exc
        rep = sqfun.square_function(T, x, space, cfg)
        result.update(rep.to_json_dict())
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(rep.per_k_csv())
            result["per_k_csv"] = args.csv
    _emit(_envelope("sqfun", args.seed,
                    {"space": args.space, "m": args.m, "tail_tol": args.tail_tol,
                     "constant": args.constant, "matrix": args.matrix},
                    result), args)
    return 0


def cmd_verify(args) -> int:
    if args.suite == "all":
        result = verify.run_all(args.seed)
    else:
        suite = verify.run_suite(args.suite, args.seed)
        result = {"seed": args.seed, "suites": [suite], "pass": suite["pass"]}
    for s in result["suites"]:
        for c in s["checks"]:
            print(f"[{'PASS' if c['pass'] else 'FAIL'}] {s['name']}/{c['name']}",
                  file=sys.stderr)
    _emit(_envelope("verify", args.seed, {"suite": args.suite}, result), args)
    return 0 if result["pass"] else 1


def cmd_gallery(args) -> int:
    if args.n < 2 and (args.kind == "conditional-basis"
                       or args.kind == "markov" and not args.flip):
        args.usage_error(f"argument --n: '{args.n}': {args.kind} needs n >= 2")
    if args.n > 12 and args.kind == "c0-witness":
        args.usage_error(f"argument --n: '{args.n}': c0-witness needs n <= 12")
    if args.kind == "schur":
        if args.t:
            t = load_matrix(args.t)
            try:
                inst = lab.gallery_schur(t, p=args.p)
            except ValueError as exc:
                raise IngestError(f"--t {args.t}: {exc}") from exc
        else:
            rng = np.random.Generator(np.random.Philox(key=args.seed))
            t = rng.uniform(-1.0 + args.delta, 1.0, size=(args.n, args.n))
            inst = lab.gallery_schur(t, p=args.p)
        analysis = ritt.ritt_verdict(inst.operator, inst.space,
                                     ritt.RittConfig(N=args.N)).to_json_dict()
    elif args.kind == "markov":
        inst = (lab.gallery_markov_flip() if args.flip
                else lab.gallery_markov(args.n, seed=args.seed, p=args.p))
        analysis = ritt.ritt_verdict(inst.operator, inst.space,
                                     ritt.RittConfig(N=args.N)).to_json_dict()
    elif args.kind == "c0-witness":
        out = lab.c0_growth_witness(args.n, seed=args.seed)
        _emit(_envelope("gallery", args.seed, {"kind": args.kind, "n": args.n}, out), args)
        return 0
    elif args.kind == "conditional-basis":
        if args.kappa_grid:
            grid = _kappa_list(args.kappa_grid)
            out = {"grid": [lab.conditional_basis_demo(args.n, k) for k in grid]}
        else:
            out = lab.conditional_basis_demo(args.n, args.kappa)
        _emit(_envelope("gallery", args.seed,
                        {"kind": args.kind, "n": args.n, "kappa": args.kappa,
                         "kappa_grid": args.kappa_grid}, out), args)
        return 0
    else:  # pragma: no cover - argparse chokes first
        raise IngestError(f"unknown gallery kind {args.kind}")
    _emit(_envelope("gallery", args.seed,
                    {"kind": args.kind, "n": args.n, "p": args.p, "N": args.N,
                     "flip": args.flip, "delta": args.delta, "t": args.t},
                    {"instance": inst.to_json_dict(), "analysis": analysis}), args)
    return 0


def cmd_plotdata(args) -> int:
    """Extract a CSV series from a report JSON.

    Supported series: "resolvent_sup" (analyze reports; columns
    beta,sup), "checks" (verify reports; columns suite,name,pass,
    observed,bound), "matrix" (any report with a value/operator matrix;
    columns row,col,re,im).
    """
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            rep = json.load(fh)
    except Exception as exc:
        raise IngestError(f"cannot read report {args.report}: {exc}") from exc
    result = rep.get("result", rep)
    lines = []
    if args.series == "resolvent_sup":
        pairs = result.get("resolvent_sup")
        if pairs is None:
            raise IngestError("report has no resolvent_sup series")
        lines = ["beta,sup"] + [f"{b},{v}" for b, v in pairs]
    elif args.series == "checks":
        suites = result.get("suites")
        if suites is None:
            raise IngestError("report has no verify suites")
        lines = ["suite,name,pass,observed,bound"]
        for s in suites:
            for c in s["checks"]:
                lines.append(f"{s['name']},{c['name']},{int(c['pass'])},"
                             f"{c['observed']},{c['bound']}")
    elif args.series == "matrix":
        obj = result.get("value") or result.get("operator") or (
            result.get("instance", {}).get("operator") if "instance" in result else None)
        if obj is None:
            raise IngestError("report has no matrix payload")
        rows, cols = obj["rows"], obj["cols"]
        lines = ["row,col,re,im"]
        for idx, (re, im) in enumerate(obj["entries"]):
            lines.append(f"{idx // cols},{idx % cols},{re},{im}")
    elif args.series == "trend":
        grid = result.get("grid")
        if grid is None:
            raise IngestError("report has no kappa grid (use gallery "
                              "conditional-basis --kappa-grid)")
        lines = ["kappa,sf_constant,lambda_min_M,lambda_max_M,equivalence_ratio"]
        for row in grid:
            lines.append(f"{row['kappa']},{row['sf_constant']},"
                         f"{row['lambda_min_M']},{row['lambda_max_M']},"
                         f"{row['equivalence_ratio']}")
    else:
        raise IngestError(f"unknown series {args.series!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rittcalc",
        description="Functional calculus and square-function diagnostics "
                    "for Ritt matrices.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=verify.DEFAULT_SEED,
                        help="seed for all randomized paths (default 0xC0FFEE)")
        sp.add_argument("--out", help="write the JSON report here instead of stdout")
        sp.add_argument("--no-timestamp", action="store_true",
                        help="omit timestamp/timing fields for byte-stable output")

    sp = sub.add_parser("analyze", help="Ritt diagnostics -> RittReport JSON")
    sp.add_argument("matrix", help="operator file (.mtx or .json)")
    sp.add_argument("--space", default="hilbert")
    sp.add_argument("--N", type=_arg_type(_positive_int), default=512)
    common(sp)
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("funcalc", help="contour functional calculus -> CalcReport JSON")
    sp.add_argument("matrix")
    sp.add_argument("--phi", required=True,
                    type=_arg_type(funcalc.named_function, keep_text=True),
                    help="function spec: poly:c0,c1,... | frac:delta | builtin name")
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--mesh", default=None,
                    help="SEGPANELS,ARCPANELS,POINTS[,RATIO]")
    common(sp)
    sp.set_defaults(fn=cmd_funcalc)

    sp = sub.add_parser("sqfun", help="square function / constant -> SFReport JSON")
    sp.add_argument("matrix")
    sp.add_argument("--m", type=_arg_type(_positive_int), default=1)
    sp.add_argument("--space", default="hilbert")
    sp.add_argument("--tail-tol", type=_arg_type(_tail_tol), default=1e-10)
    sp.add_argument("--constant", action="store_true",
                    help="compute the square-function constant instead")
    sp.add_argument("--x", help="vector file (defaults to the ones vector)")
    sp.add_argument("--csv", help="write per-k terms as CSV (columns k,term)")
    common(sp)
    sp.set_defaults(fn=cmd_sqfun)

    sp = sub.add_parser("verify", help="run verification suites; exit 1 on failure")
    sp.add_argument("suite", choices=list(verify.SUITES) + ["all"])
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("gallery", help="construct a gallery instance + analysis")
    sp.add_argument("kind", choices=["schur", "markov", "c0-witness",
                                     "conditional-basis"])
    sp.add_argument("--n", type=_arg_type(_positive_int), default=4,
                    help="size: n >= 2 for markov and conditional-basis, "
                         "n <= 12 for c0-witness")
    sp.add_argument("--p", type=_arg_type(_schatten_p), default=2.0,
                    help="Schatten exponent of schur and markov, in [1, inf)")
    sp.add_argument("--N", type=_arg_type(_positive_int), default=128)
    sp.add_argument("--t", help="Schur symbol matrix file (real entries in [-1,1])")
    sp.add_argument("--delta", type=_arg_type(_schur_delta), default=0.1,
                    help="random Schur symbols drawn from [-1+delta, 1]")
    sp.add_argument("--flip", action="store_true",
                    help="markov: the two-point flip witness instead of random")
    sp.add_argument("--kappa", type=_arg_type(_kappa), default=1e3,
                    help="conditional-basis: target basis condition number")
    sp.add_argument("--kappa-grid", type=_arg_type(_kappa_list, keep_text=True),
                    help="conditional-basis: comma list of kappas; emits a "
                         "trend series instead of a single instance")
    common(sp)
    sp.set_defaults(fn=cmd_gallery, usage_error=sp.error)

    sp = sub.add_parser("plotdata", help="extract CSV series from a report JSON")
    sp.add_argument("report")
    sp.add_argument("--series", default="checks",
                    choices=["resolvent_sup", "checks", "matrix", "trend"],
                    help="resolvent_sup: beta,sup | checks: suite,name,pass,"
                         "observed,bound | matrix: row,col,re,im | trend: "
                         "kappa,sf_constant,lambda_min_M,lambda_max_M,"
                         "equivalence_ratio")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_plotdata)
    return p


#: the parser of this process, built on the first call of :func:`main`
_parser = functools.lru_cache(maxsize=None)(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except IngestError as exc:
        print(f"rittcalc: ingestion error: {exc}", file=sys.stderr)
        return 3
    except REFUSALS as exc:
        print(f"rittcalc: refused: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
