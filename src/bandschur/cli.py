"""Command-line front end with stable text, JSON, and CSV output.

Every command's output layout is built here, from library results that
hold only what they computed and from the flags the command was given.

Exit codes: 0 on success, 2 on a validation error (malformed flag values,
inconsistent dimensions), 1 on a computation failure (an identity that does
not hold, a root beyond double range, unconverged scan points, an empty scan
hit set, a numeric determinant that overflows, a matrix too large to
allocate) and 1, silently, when stdout is a pipe whose reader has closed it
(as in `bandschur limitset ... | head -2`).
The cross-checks of `widom` and of `minor-det`'s dual route hold to one
fixed tolerance, DUAL_ROUTE_TOL = 1e-8, on the difference scaled by
max(1, |det|) (see _rel_diff).
Repeated invocations with the same arguments produce byte-identical
output: all orderings are canonical and all seeds are fixed.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import json
import math
import os
import sys

from .polyring import MultiPoly, expand_elementary
from .recurrence import verify_recurrence
from .schur import schur_jacobi_trudi, symbolic_det
from .shapes import (
    MinorSpec,
    SkewShape,
    min_k,
    parse_partition,
    shape_from_minor,
)
from .spectra import (
    GridSpec,
    finite_section_spectrum,
    limit_set_scan,
    poly_roots,
    root_modulus_profile,
    spectrum_vs_limitset,
)
from .tableaux import extension_sequences, insertion_step, schur_by_tableaux
from .toeplitz import (
    BandedSymbol,
    build_minor_numeric,
    build_minor_symbolic,
    det_numeric,
    format_complex,
    verify_minor_schur,
)
from .widom import check_separated, hall_schur_eval, widom_modified, widom_original

SYMBOL_HELP = (
    "comma-separated band coefficients s_0,...,s_n; each value is a complex "
    "number written as a, bi, or a+bi / a-bi (example: 1,0.5-2i,3); "
    "s_0 must be 1 and is prepended automatically when omitted"
)

SCAN_TOL_HELP = (
    "relative modulus-gap threshold (default: 1e-2); near a double root the "
    "scanned gaps are only good to about 3e-7, so a tol below about 1e-6 is "
    "below that noise"
)

SCAN_NOTE = (
    "hits mark curve-coincidence points of root moduli; "
    "isolated exceptional limit points are not detected"
)

DUAL_ROUTE_TOL = 1e-8
GAP_CROSSCHECK_TOL = 1e-4

# Which library operations each command drives; the test suite checks that
# every public operation appears here, that every name resolves, and that
# the command's README example enters each one.
COMMAND_OPERATIONS = {
    "schur": (
        "polyring.elementary_symmetric",
        "shapes.Partition.conjugate",
        "tableaux.schur_by_tableaux",
        "schur.jacobi_trudi_matrix",
        "schur.symbolic_det",
        "schur.schur_jacobi_trudi",
        "polyring.expand_elementary",
    ),
    "minor-det": (
        "toeplitz.build_minor_symbolic",
        "schur.symbolic_det",
        "toeplitz.build_minor_numeric",
        "toeplitz.det_numeric",
        "polyring.MultiPoly.evaluate",
        "polyring.expand_elementary",
    ),
    "check-identity": (
        "shapes.min_k",
        "shapes.shape_from_minor",
        "toeplitz.verify_minor_schur",
        "tableaux.extension_sequences",
        "tableaux.insertion_step",
        "polyring.expand_elementary",
    ),
    "recurrence": (
        "recurrence.char_coeffs",
        "recurrence.verify_recurrence",
        "toeplitz.build_minor_symbolic",
        "schur.leading_minors",
        "schur.symbolic_det",
        "shapes.min_k",
        "polyring.expand_elementary",
    ),
    "widom": (
        "spectra.poly_roots",
        "widom.check_separated",
        "widom.widom_original",
        "widom.widom_modified",
        "widom.hall_schur_eval",
        "toeplitz.build_minor_numeric",
        "toeplitz.det_numeric",
    ),
    "limitset": (
        "spectra.limit_set_scan",
        "spectra.root_modulus_profile",
    ),
    "eigs": (
        "spectra.finite_section_spectrum",
        "toeplitz.build_minor_numeric",
    ),
    "compare": (
        "spectra.limit_set_scan",
        "spectra.root_modulus_profile",
        "spectra.spectrum_vs_limitset",
        "spectra.finite_section_spectrum",
    ),
}


class UsageError(ValueError):
    """Bad flag value or inconsistent request; maps to exit code 2."""


def _flag(parse, flag: str, text: str):
    """parse(text), with its ValueError reported as a usage error of flag."""
    try:
        return parse(text)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _at_least(flag: str, value, lo):
    """value, or a usage error when it is below lo."""
    if value < lo:
        raise UsageError(f"{flag} must be >= {lo}, got {value}")
    return value


def _parse_indices(text: str, flag: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    out = []
    for tok in text.split(","):
        try:
            out.append(int(tok.strip()))
        except ValueError:
            raise UsageError(f"{flag}: bad index {tok.strip()!r}") from None
    return tuple(out)


def _make_spec(alpha: str, beta: str, band: int) -> MinorSpec:
    rows = _parse_indices(alpha, "--alpha")
    cols = _parse_indices(beta, "--beta")
    try:
        return MinorSpec(rows, cols, band)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _rooted_symbol(args, c_lo: int, c_top: int) -> BandedSymbol:
    """--symbol, with s_n != 0 so it has n roots, and --c in c_lo..n - c_top."""
    sym = _flag(BandedSymbol.parse, "--symbol", args.symbol)
    top = sym.band - c_top
    if not c_lo <= args.c <= top:
        raise UsageError(f"--c must be in {c_lo}..{top}, got {args.c}")
    if sym.coeffs[-1] == 0:
        raise UsageError("--symbol: top coefficient s_n must be nonzero")
    return sym


def _det_status(det: complex) -> tuple[int, str | None]:
    """Exit code and stderr line for a numeric determinant that may overflow."""
    if cmath.isfinite(det):
        return 0, None
    return 1, f"numeric determinant is not finite: {format_complex(det)}"


def _rel_diff(value: complex, ref: complex) -> float:
    """|value - ref| / max(1, |ref|), inf or nan when either is not finite.

    The floor 1 keeps exact-zero minors checkable: a purely relative rule
    fails them on rounding noise (`widom --symbol 1.0,0.0,-1.0 --c 1 --k 3`
    has det 0 and a widom-original of -7.2e-16).  Below |ref| = 1 the rule
    is therefore an absolute one; a sharper check needs a scale other than
    |ref|.

    abs() of a complex whose parts are nan and not inf can raise a stale
    OverflowError, so a non-finite difference goes through math.hypot.
    """
    diff = value - ref
    if cmath.isfinite(diff) and cmath.isfinite(ref):
        return abs(diff) / max(1.0, abs(ref))
    return math.hypot(diff.real, diff.imag) / max(1.0, math.hypot(ref.real, ref.imag))


def _fmt_parts(parts) -> str:
    return "(" + ",".join(str(p) for p in parts) + ")"


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2)


def _spec_json(spec: MinorSpec) -> dict:
    return {
        "alpha": list(spec.deleted_rows),
        "beta": list(spec.deleted_cols),
        "n": spec.band,
    }


def _run_schur(args) -> tuple[str, int, str | None]:
    nvars = _at_least("--nvars", args.nvars, 1)
    outer = _flag(parse_partition, "--outer", args.outer)
    inner = _flag(parse_partition, "--inner", args.inner)
    try:
        shape = SkewShape(outer, inner)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    polys: dict[str, MultiPoly] = {}
    if args.method in ("tableaux", "both"):
        polys["tableaux"] = schur_by_tableaux(shape, nvars)
    if args.method in ("jacobi-trudi", "both"):
        polys["jacobi-trudi"] = schur_jacobi_trudi(shape, nvars)
    equal = None
    if args.method == "both":
        equal = polys["tableaux"] == polys["jacobi-trudi"]
    if args.format == "json":
        obj = {
            "outer": list(outer.parts),
            "inner": list(inner.parts),
            "nvars": nvars,
        }
        if "tableaux" in polys:
            obj["tableaux"] = polys["tableaux"].to_json_obj()
        if "jacobi-trudi" in polys:
            obj["jacobi_trudi"] = polys["jacobi-trudi"].to_json_obj()
        if equal is not None:
            obj["equal"] = equal
        out = _dump_json(obj)
    else:
        lines = [f"{name}: {poly}" for name, poly in polys.items()]
        if equal is not None:
            lines.append(f"equal: {'true' if equal else 'false'}")
        out = "\n".join(lines)
    if equal is False:
        return out, 1, "engines disagree"
    return out, 0, None


def _run_minor_det(args) -> tuple[str, int, str | None]:
    if args.nvars is None and args.symbol is None:
        raise UsageError("give --nvars (symbolic), --symbol (numeric), or both")
    _at_least("--k", args.k, 0)
    sym = None
    if args.symbol is not None:
        sym = _flag(BandedSymbol.parse, "--symbol", args.symbol)
    if args.nvars is not None:
        band = _at_least("--nvars", args.nvars, 1)
        if sym is not None and sym.band != band:
            raise UsageError(
                f"--nvars {band} does not match --symbol band {sym.band}"
            )
    else:
        band = sym.band
    spec = _make_spec(args.alpha, args.beta, band)

    det_sym = None
    det_num = None
    if args.nvars is not None:
        det_sym = symbolic_det(build_minor_symbolic(spec, args.k))
    if sym is not None:
        det_num = det_numeric(build_minor_numeric(sym, spec, args.k))

    code, err = 0, None
    obj = {**_spec_json(spec), "k": args.k}
    lines = []
    if det_sym is not None and det_num is not None:
        # dual route: the exact polynomial is in e_1..e_n, and the symbol's
        # coefficients are the values of e_d, so it is evaluated at s_1..s_n
        value = det_sym.evaluate(sym.coeffs[1:])
        rel = _rel_diff(value, det_num)
        x_form = expand_elementary(det_sym)
        lines.append(f"det-symbolic: {x_form}")
        lines.append(f"det-numeric: {format_complex(det_num)}")
        lines.append(f"det-evaluated: {format_complex(value)}")
        lines.append(f"rel-diff: {rel:.12g}")
        obj["det_symbolic"] = x_form.to_json_obj()
        obj["det_numeric"] = format_complex(det_num)
        obj["det_evaluated"] = format_complex(value)
        obj["rel_diff"] = rel
        code, err = _det_status(det_num)
        if code == 0 and not rel <= DUAL_ROUTE_TOL:
            code, err = 1, f"symbolic and numeric routes disagree: {rel:.3e}"
    elif det_sym is not None:
        x_form = expand_elementary(det_sym)
        lines.append(f"det: {x_form}")
        obj["det"] = x_form.to_json_obj()
    else:
        lines.append(f"det: {format_complex(det_num)}")
        obj["det"] = format_complex(det_num)
        code, err = _det_status(det_num)
    out = _dump_json(obj) if args.format == "json" else "\n".join(lines)
    return out, code, err


def _run_check_identity(args) -> tuple[str, int, str | None]:
    nvars = _at_least("--nvars", args.nvars, 1)
    spec = _make_spec(args.alpha, args.beta, nvars)
    kmin = min_k(spec)
    if args.k < kmin:
        raise UsageError(f"--k must be >= min_k = {kmin} for this spec")

    ok_schur, residual = verify_minor_schur(spec, args.k)

    shape_k = shape_from_minor(spec, args.k)
    shape_next = shape_from_minor(spec, args.k + 1)
    seqs = extension_sequences(spec.r, spec.c - spec.r, nvars)
    step = insertion_step(shape_k, shape_next, seqs, nvars)

    lines = [
        f"spec: alpha={_fmt_parts(spec.deleted_rows)} "
        f"beta={_fmt_parts(spec.deleted_cols)} n={nvars}",
        f"min_k: {kmin}",
        f"k: {args.k}",
        f"shape: {shape_k} -> {shape_next}",
    ]
    if ok_schur:
        lines.append("minor-vs-schur: ok")
    else:
        lines.append(
            f"minor-vs-schur: FAILED (residual: {expand_elementary(residual)})"
        )
    if step.ok:
        lines.append(
            f"insertion-step: ok ({step.tableaux} tableaux, {step.sequences} "
            f"sequences, {step.next_tableaux} next-shape tableaux)"
        )
    elif not step.injective:
        lines.append("insertion-step: FAILED (a sequence merged two tableaux)")
    elif not step.covered:
        lines.append(
            f"insertion-step: FAILED (built {step.built} tableaux, "
            f"next shape has {step.next_tableaux})"
        )
    else:
        lines.append(
            "insertion-step: FAILED (an image's content is not its "
            "source's plus the sequence)"
        )
    good = ok_schur and step.ok
    obj = {
        **_spec_json(spec),
        "k": args.k,
        "min_k": kmin,
        "minor_vs_schur": ok_schur,
        "insertion_step": step.ok,
    }
    out = _dump_json(obj) if args.format == "json" else "\n".join(lines)
    if not good:
        return out, 1, "identity check failed"
    return out, 0, None


def _run_recurrence(args) -> tuple[str, int, str | None]:
    nvars = _at_least("--nvars", args.nvars, 1)
    spec = _make_spec(args.alpha, args.beta, nvars)
    kmin = min_k(spec)
    if args.jmax < kmin:
        raise UsageError(f"--jmax must be >= min_k = {kmin} for this spec")
    report = verify_recurrence(spec, args.jmax)

    if args.format == "json":
        obj = {
            "report": {
                "spec": _spec_json(spec),
                "b": report.b,
                "j_range": [kmin, args.jmax],
                "all_zero": report.all_zero,
                "first_failure": report.first_failure,
            },
            "b": report.b,
            "residuals": [
                {"j": j, "zero": p.is_zero} for j, p in enumerate(report.residuals)
            ],
        }
        out = _dump_json(obj)
    else:
        lines = [f"b: {report.b}", f"min_k: {kmin}"]
        for j, poly in enumerate(report.residuals):
            if poly.is_zero:
                lines.append(f"j={j}: zero")
            else:
                lines.append(f"j={j}: nonzero ({expand_elementary(poly)})")
        if report.all_zero:
            lines.append(
                f"holds: j >= {kmin} (verified through j = {args.jmax})"
            )
        else:
            lines.append(f"holds: FAILED at j = {report.first_failure}")
        out = "\n".join(lines)
    if not report.all_zero:
        return out, 1, f"nonzero residual at j = {report.first_failure}"
    return out, 0, None


def _run_widom(args) -> tuple[str, int, str | None]:
    sym = _rooted_symbol(args, 0, 0)
    _at_least("--k", args.k, 0)

    t_roots = poly_roots(list(sym.coeffs))
    check_separated(t_roots, "symbol roots")
    chi_points = tuple(-1.0 / t for t in t_roots)
    check_separated(chi_points, "reciprocal points")

    w_orig = widom_original(t_roots, sym.coeffs[-1], args.c, args.k)
    w_mod = widom_modified(chi_points, args.c, args.k)
    w_hall = hall_schur_eval((args.k,) * args.c, chi_points)
    spec = MinorSpec.contiguous(args.c, sym.band)
    det = det_numeric(build_minor_numeric(sym, spec, args.k))
    rel = [_rel_diff(v, det) for v in (w_orig, w_mod, w_hall)]
    worst = math.nan if any(map(math.isnan, rel)) else max(rel)

    if args.format == "json":
        obj = {
            "symbol": [format_complex(v) for v in sym.coeffs],
            "c": args.c,
            "k": args.k,
            "psi_roots": [format_complex(t) for t in t_roots],
            "chi_points": [format_complex(x) for x in chi_points],
            "widom_original": format_complex(w_orig),
            "widom_modified": format_complex(w_mod),
            "hall_schur": format_complex(w_hall),
            "minor_det": format_complex(det),
            "max_rel_diff": worst,
        }
        out = _dump_json(obj)
    else:
        out = "\n".join(
            [
                "psi-roots: "
                + ", ".join(format_complex(t) for t in t_roots),
                "chi-points: "
                + ", ".join(format_complex(x) for x in chi_points),
                f"widom-original: {format_complex(w_orig)}",
                f"widom-modified: {format_complex(w_mod)}",
                f"hall-schur: {format_complex(w_hall)}",
                f"minor-det: {format_complex(det)}",
                f"max-rel-diff: {worst:.12g}",
            ]
        )
    code, err = _det_status(det)
    if code == 0 and not worst <= DUAL_ROUTE_TOL:
        code, err = 1, f"formula values disagree beyond {DUAL_ROUTE_TOL}: {worst:.3e}"
    return out, code, err


def _crosscheck_hits(sym: BandedSymbol, c: int, report) -> None:
    """Recompute a few hit gaps through the one-point profile route."""
    hits = report.hits
    if not hits:
        return
    for idx in sorted({0, len(hits) // 2, len(hits) - 1}):
        re_v, im_v, gap = hits[idx]
        prof = root_modulus_profile(sym, c, complex(re_v, im_v))
        direct = (prof[c] - prof[c - 1]) / prof[c]
        if abs(direct - gap) > GAP_CROSSCHECK_TOL:
            raise RuntimeError(
                f"scan gap {gap:.6g} disagrees with direct profile "
                f"{direct:.6g} at v = {re_v:.6g}+{im_v:.6g}i"
            )


def _checked_scan(args):
    """Check limitset's and compare's flags, scan, and spot-check the hits."""
    sym = _rooted_symbol(args, 1, 1)
    grid = _flag(GridSpec.parse, "--grid", args.grid)
    if not math.isfinite(args.tol):
        raise UsageError(f"--tol must be finite, got {args.tol}")
    _at_least("--tol", args.tol, 0)
    report = limit_set_scan(sym, args.c, grid, args.tol)
    _crosscheck_hits(sym, args.c, report)
    return sym, grid, report


def _scan_failure_status(failures: int) -> tuple[int, str | None]:
    """Exit code and stderr line for a scan with this many unconverged points."""
    if failures:
        return 1, f"{failures} grid points did not converge"
    return 0, None


def _run_limitset(args) -> tuple[str, int, str | None]:
    sym, grid, report = _checked_scan(args)
    if args.format == "json":
        obj = {
            "symbol": [format_complex(v) for v in sym.coeffs],
            "c": args.c,
            "grid": dataclasses.asdict(grid),
            "tol": args.tol,
            "hits": [
                {"re": re_v, "im": im_v, "gap": gap}
                for re_v, im_v, gap in report.hits
            ],
            "failures": [
                {"re": re_v, "im": im_v, "error": msg}
                for re_v, im_v, msg in report.failures
            ],
            "note": SCAN_NOTE,
        }
        out = _dump_json(obj)
    elif args.format == "csv":
        rows = (
            f"{re_v:.12g},{im_v:.12g},{gap:.12g}" for re_v, im_v, gap in report.hits
        )
        out = "\n".join(["re_v,im_v,gap", *rows])
    else:
        out = "\n".join(
            [
                f"hits: {len(report.hits)}",
                f"failures: {len(report.failures)}",
                f"note: {SCAN_NOTE}",
            ]
        )
    return out, *_scan_failure_status(len(report.failures))


def _run_eigs(args) -> tuple[str, int, str | None]:
    sym = _flag(BandedSymbol.parse, "--symbol", args.symbol)
    _at_least("--k", args.k, 1)
    if args.c is not None:
        if args.alpha or args.beta:
            raise UsageError("give either --c or --alpha/--beta, not both")
        if not 1 <= args.c <= sym.band:
            raise UsageError(f"--c must be in 1..{sym.band}, got {args.c}")
        spec = MinorSpec.contiguous(args.c, sym.band)
    else:
        spec = _make_spec(args.alpha, args.beta, sym.band)
    eigs = finite_section_spectrum(sym, spec, args.k)
    if args.format == "json":
        obj = {
            **_spec_json(spec),
            "k": args.k,
            "eigenvalues": [{"re": z.real, "im": z.imag} for z in eigs],
        }
        out = _dump_json(obj)
    elif args.format == "csv":
        rows = (f"{z.real:.12g},{z.imag:.12g}" for z in eigs)
        out = "\n".join(["re,im", *rows])
    else:
        out = "\n".join(format_complex(z) for z in eigs)
    return out, 0, None


def _run_compare(args) -> tuple[str, int, str | None]:
    _at_least("--k", args.k, 1)
    sym, _, report = _checked_scan(args)
    result = spectrum_vs_limitset(sym, args.c, args.k, report)
    if args.format == "json":
        obj = {
            "k": args.k,
            "hit_count": result.hit_count,
            "median_distance": result.median_distance,
            "max_distance": result.max_distance,
        }
        out = _dump_json(obj)
    else:
        out = "\n".join(
            [
                f"k: {args.k}",
                f"hits: {result.hit_count}",
                f"median-distance: {result.median_distance:.12g}",
                f"max-distance: {result.max_distance:.12g}",
            ]
        )
    return out, *_scan_failure_status(result.failure_count)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The bandschur argument parser, built on first use.

    The parser is built once per process and shared by every call, so
    callers must not mutate it (add arguments, change defaults). Reuse is
    safe because parse_args returns a new Namespace each time, no action
    has a mutable default, and help text is formatted when it is printed.
    """
    parser = argparse.ArgumentParser(
        prog="bandschur",
        description=(
            "Minors of banded Toeplitz matrices as skew Schur polynomials: "
            "exact identities, determinant recurrences, Widom-style "
            "evaluation, and eigenvalue limit-set scans."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def fmt_flag(p, choices, default):
        p.add_argument(
            "--format", choices=choices, default=default,
            help=f"output format (default: {default})",
        )

    def scan_flags(p):
        p.add_argument(
            "--grid", required=True, help="re_min,re_max,im_min,im_max,nx,ny",
        )
        p.add_argument("--tol", type=float, default=1e-2, help=SCAN_TOL_HELP)

    p = sub.add_parser("schur", help="skew Schur polynomial by both engines")
    p.add_argument("--outer", required=True, help="outer partition, e.g. 4,2,1")
    p.add_argument("--inner", default="", help="inner partition (default empty)")
    p.add_argument("--nvars", type=int, required=True, help="number of variables")
    p.add_argument(
        "--method", choices=("tableaux", "jacobi-trudi", "both"),
        default="both", help="engine selection (default: both)",
    )
    fmt_flag(p, ("text", "json"), "text")
    p.set_defaults(func=_run_schur)

    p = sub.add_parser(
        "minor-det",
        help="determinant of a deleted-row/column leading minor "
        "(symbolic with --nvars, numeric with --symbol, both cross-checked)",
    )
    p.add_argument("--alpha", default="", help="deleted row indices, e.g. 2 or ''")
    p.add_argument("--beta", default="", help="deleted column indices")
    p.add_argument("--k", type=int, required=True, help="minor size")
    p.add_argument("--nvars", type=int, help="band width for the symbolic route")
    p.add_argument("--symbol", help=SYMBOL_HELP)
    fmt_flag(p, ("text", "json"), "text")
    p.set_defaults(func=_run_minor_det)

    p = sub.add_parser(
        "check-identity",
        help="verify minor determinant = skew Schur polynomial and the "
        "one-step insertion correspondence at size k",
    )
    p.add_argument("--alpha", default="", help="deleted row indices")
    p.add_argument("--beta", default="", help="deleted column indices")
    p.add_argument("--nvars", type=int, required=True, help="band width")
    p.add_argument("--k", type=int, required=True, help="minor size")
    fmt_flag(p, ("text", "json"), "text")
    p.set_defaults(func=_run_check_identity)

    p = sub.add_parser(
        "recurrence",
        help="residuals of the minor determinant linear recurrence",
    )
    p.add_argument("--alpha", default="", help="deleted row indices")
    p.add_argument("--beta", default="", help="deleted column indices")
    p.add_argument("--nvars", type=int, required=True, help="band width")
    p.add_argument("--jmax", type=int, required=True, help="largest offset")
    fmt_flag(p, ("text", "json"), "text")
    p.set_defaults(func=_run_recurrence)

    p = sub.add_parser(
        "widom",
        help="evaluate the minor determinant four ways from a numeric symbol",
        description=(
            "Evaluate the minor determinant four ways from a numeric symbol; "
            "exit 1 unless the three closed forms agree with the LU "
            f"determinant to {DUAL_ROUTE_TOL:g} relative to max(1, |det|)."
        ),
    )
    p.add_argument("--symbol", required=True, help=SYMBOL_HELP)
    p.add_argument("--c", type=int, required=True, help="deleted column count")
    p.add_argument("--k", type=int, required=True, help="minor size")
    fmt_flag(p, ("text", "json"), "text")
    p.set_defaults(func=_run_widom)

    p = sub.add_parser(
        "limitset",
        help="scan a grid for eigenvalue limit-set points of a banded symbol",
    )
    p.add_argument("--symbol", required=True, help=SYMBOL_HELP)
    p.add_argument("--c", type=int, required=True, help="shift index, 0 < c < n")
    scan_flags(p)
    fmt_flag(p, ("csv", "json", "text"), "csv")
    p.set_defaults(func=_run_limitset)

    p = sub.add_parser(
        "eigs", help="eigenvalues of a finite minor of the banded matrix",
    )
    p.add_argument("--symbol", required=True, help=SYMBOL_HELP)
    p.add_argument("--k", type=int, required=True, help="minor size")
    p.add_argument(
        "--c", type=int, default=None,
        help="delete the first c columns (contiguous minor)",
    )
    p.add_argument("--alpha", default="", help="deleted row indices")
    p.add_argument("--beta", default="", help="deleted column indices")
    fmt_flag(p, ("csv", "json", "text"), "csv")
    p.set_defaults(func=_run_eigs)

    p = sub.add_parser(
        "compare",
        help="distance from finite-minor eigenvalues to scanned limit-set hits",
    )
    p.add_argument("--symbol", required=True, help=SYMBOL_HELP)
    p.add_argument("--c", type=int, required=True, help="shift index, 0 < c < n")
    p.add_argument("--k", type=int, required=True, help="minor size")
    scan_flags(p)
    fmt_flag(p, ("text", "json"), "text")
    p.set_defaults(func=_run_compare)

    return parser


def _merge_dash_values(argv: list[str]) -> list[str]:
    """Join --grid/--symbol with their values so leading '-' survives argparse."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--grid", "--symbol") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_dash_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out, code, err = args.func(args)
        if out:
            print(out.rstrip("\n"))
        sys.stdout.flush()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader has gone.  Point the descriptor at devnull, so that the
        # flush at interpreter exit does not fail on the same pipe again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    if err:
        print(f"error: {err}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
