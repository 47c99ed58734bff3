"""End-to-end tests of the command line interface (in-process)."""

import argparse
import errno
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bandschur
from bandschur import cli, recurrence, spectra, tableaux, toeplitz
from bandschur.cli import COMMAND_OPERATIONS, DUAL_ROUTE_TOL, build_parser, main
from bandschur.polyring import MultiPoly
from bandschur.schur import symbolic_det
from bandschur.shapes import MinorSpec, Partition, SkewShape
from bandschur.spectra import LimitSetReport
from bandschur.toeplitz import (
    BandedSymbol,
    build_minor_numeric,
    build_minor_symbolic,
    det_numeric,
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _readme_examples() -> dict[str, list[str]]:
    """The argv of the README's example of each command, keyed by command."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("bandschur ")]
    return {argv[0]: argv for argv in (shlex.split(line)[1:] for line in lines)}


def _caches():
    """Every lru_cache defined in a bandschur module, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(bandschur.__path__):
        if info.name.startswith("__"):  # __main__ runs the CLI on import
            continue
        module = importlib.import_module(f"bandschur.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = obj
    return found


OOM = "Unable to allocate an index array for k = {k}"

SCHUR_GOLDEN = (
    "tableaux: x1^3 + 2*x1^2*x2 + 2*x1^2*x3 + 2*x1*x2^2 + 3*x1*x2*x3"
    " + 2*x1*x3^2 + x2^3 + 2*x2^2*x3 + 2*x2*x3^2 + x3^3\n"
    "jacobi-trudi: x1^3 + 2*x1^2*x2 + 2*x1^2*x3 + 2*x1*x2^2 + 3*x1*x2*x3"
    " + 2*x1*x3^2 + x2^3 + 2*x2^2*x3 + 2*x2*x3^2 + x3^3\n"
    "equal: true\n"
)

RECURRENCE_GOLDEN = (
    "b: 2\n"
    "min_k: 1\n"
    "j=0: nonzero (x1*x2)\n"
    "j=1: zero\n"
    "j=2: zero\n"
    "j=3: zero\n"
    "holds: j >= 1 (verified through j = 3)\n"
)


class TestSchurCommand:
    def test_golden_skew_example(self, capsys):
        code, out, err = run(
            capsys,
            [
                "schur", "--outer", "4,2,1", "--inner", "2,2",
                "--nvars", "3", "--method", "both",
            ],
        )
        assert code == 0 and err == ""
        assert out == SCHUR_GOLDEN

    def test_single_method(self, capsys):
        code, out, _ = run(
            capsys, ["schur", "--outer", "2", "--nvars", "2", "--method", "tableaux"]
        )
        assert code == 0
        assert out == "tableaux: x1^2 + x1*x2 + x2^2\n"

    def test_high_degree_monomial_prints(self, capsys):
        # a 1100 x 1100 Jacobi-Trudi matrix whose determinant is y1^1100
        code, out, err = run(
            capsys,
            ["schur", "--outer", "1100", "--nvars", "1", "--method", "jacobi-trudi"],
        )
        assert (code, out, err) == (0, "jacobi-trudi: x1^1100\n", "")

    def test_degree_past_the_exponent_fields_fails(self, capsys):
        # refused before any filling is enumerated
        code, out, err = run(
            capsys,
            ["schur", "--outer", str(2**32), "--nvars", "1", "--method", "tableaux"],
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: total degree 4294967296 overflows")

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, ["schur", "--outer", "2", "--nvars", "2", "--format", "json"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["outer"] == [2] and obj["nvars"] == 2
        assert obj["equal"] is True
        assert len(obj["tableaux"]) == 3

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_engines_disagree_exits_one(self, capsys, monkeypatch, fmt):
        # a Jacobi-Trudi engine that doubles every coefficient
        real = cli.schur_jacobi_trudi
        monkeypatch.setattr(cli, "schur_jacobi_trudi", lambda *args: real(*args) * 2)
        argv = ["schur", "--outer", "2,1", "--nvars", "2", "--format", fmt]
        code, out, err = run(capsys, argv)
        assert (code, err) == (1, "error: engines disagree\n")
        if fmt == "json":
            obj = json.loads(out)
            assert obj["equal"] is False
            assert [t["coeff"] for t in obj["tableaux"]] == ["1", "1"]
            assert [t["coeff"] for t in obj["jacobi_trudi"]] == ["2", "2"]
        else:
            assert out == (
                "tableaux: x1^2*x2 + x1*x2^2\n"
                "jacobi-trudi: 2*x1^2*x2 + 2*x1*x2^2\n"
                "equal: false\n"
            )

    def test_bad_partition_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["schur", "--outer", "2,x", "--nvars", "2"])
        assert code == 2
        assert "2,x" in err and "bad partition" in err

    def test_inner_must_fit(self, capsys):
        code, _, err = run(
            capsys, ["schur", "--outer", "1", "--inner", "2", "--nvars", "2"]
        )
        assert code == 2


class TestMinorDetCommand:
    def test_dual_route_agreement(self, capsys):
        code, out, err = run(
            capsys,
            [
                "minor-det", "--beta", "2", "--k", "3",
                "--nvars", "2", "--symbol", "1,5,6",
            ],
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "det-symbolic: x1^2 + x1*x2 + x2^2"
        assert lines[1] == "det-numeric: 19"
        rel = float(lines[3].split(": ")[1])
        assert rel <= 1e-8

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_routes_disagree_exits_one(self, capsys, monkeypatch, fmt):
        # a numeric route off by 1e-6 relative, far above DUAL_ROUTE_TOL
        real = cli.det_numeric
        monkeypatch.setattr(cli, "det_numeric", lambda m: real(m) * (1 + 1e-6))
        argv = ["minor-det", "--beta", "2", "--k", "3", "--nvars", "2",
                "--symbol", "1,5,6", "--format", fmt]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert err == "error: symbolic and numeric routes disagree: 1.000e-06\n"
        if fmt == "json":
            obj = json.loads(out)
            assert (obj["det_numeric"], obj["det_evaluated"]) == ("19.000019", "19")
            assert obj["rel_diff"] == pytest.approx(1e-6 / (1 + 1e-6))
        else:
            assert out.splitlines()[1:] == [
                "det-numeric: 19.000019",
                "det-evaluated: 19",
                "rel-diff: 9.9999899972e-07",
            ]

    # s = 1 + 2t + 3t^2, beta = 1, k = 60: the minor is h_60 at e = (2, 3)
    DEFECT_ARGV = ["minor-det", "--nvars", "2", "--symbol", "1,2,3",
                   "--beta", "1", "--k", "60"]
    DEFECT_EXACT = 249146898018349

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: the exact polynomial evaluated in floating "
        "point at s prints 2.47202657847e+14, 0.78% off the exact value",
    )
    def test_dual_route_holds_at_large_k(self, capsys):
        code, out, err = run(capsys, self.DEFECT_ARGV)
        assert (code, err) == (0, "")
        rel = float(out.splitlines()[3].removeprefix("rel-diff: "))
        assert rel <= DUAL_ROUTE_TOL

    def test_numeric_route_is_exact_at_large_k(self):
        # the numeric route is right where the dual route fails; the
        # printed det-numeric has too few digits to show it
        spec = MinorSpec.contiguous(1, 2)
        det = symbolic_det(build_minor_symbolic(spec, 60))
        exact = sum(int(c) * 2 ** a * 3 ** b for (a, b), c in det.terms())
        assert exact == self.DEFECT_EXACT
        value = det_numeric(build_minor_numeric(BandedSymbol.parse("1,2,3"), spec, 60))
        assert abs(value - exact) <= 1e-14 * exact

    def test_symbolic_only(self, capsys):
        code, out, _ = run(
            capsys, ["minor-det", "--beta", "2", "--k", "2", "--nvars", "2"]
        )
        assert code == 0
        assert out == "det: x1 + x2\n"

    def test_requires_nvars_or_symbol(self, capsys):
        code, _, err = run(capsys, ["minor-det", "--beta", "2", "--k", "2"])
        assert code == 2

    @pytest.mark.parametrize("symbol", [[], ["--symbol", "1,5,6"]])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_builds_only_the_requested_layout(self, capsys, monkeypatch, symbol, fmt):
        # the x-form is printed as text or listed as JSON terms, never both
        built = []
        real_str, real_json = MultiPoly.__str__, MultiPoly.to_json_obj
        monkeypatch.setattr(
            MultiPoly, "__str__", lambda p: built.append("text") or real_str(p)
        )
        monkeypatch.setattr(
            MultiPoly, "to_json_obj", lambda p: built.append("json") or real_json(p)
        )
        argv = ["minor-det", "--beta", "2", "--k", "3", "--nvars", "2", *symbol]
        code, _, err = run(capsys, [*argv, "--format", fmt])
        assert (code, err) == (0, "")
        assert built == [fmt]

    def test_zero_top_coefficient_with_both_routes_runs_and_agrees(self, capsys):
        # the dual route evaluates at s itself, so it needs no roots of the
        # symbol: det = e1^3 - 2 e1 e2 at (e1, e2) = (2, 0) is 8
        code, out, err = run(
            capsys,
            [
                "minor-det", "--nvars", "2", "--symbol", "1,2,0",
                "--beta", "1", "--k", "3",
            ],
        )
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[:3] == [
            "det-symbolic: x1^3 + x1^2*x2 + x1*x2^2 + x2^3",
            "det-numeric: 8",
            "det-evaluated: 8",
        ]
        assert float(lines[3].removeprefix("rel-diff: ")) <= 1e-15

    def test_zero_top_coefficient_numeric_only_is_accepted(self, capsys):
        code, out, err = run(capsys, ["minor-det", "--symbol", "1,2,0", "--k", "3"])
        assert (code, out, err) == (0, "det: 1\n", "")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_disagreement_fails(self, capsys):
        # the numeric determinant overflows to inf+nan*i, so rel-diff is nan;
        # the error names the overflow, not the cross-check
        code, out, err = run(
            capsys,
            [
                "minor-det", "--nvars", "2", "--symbol", "1,1e200,1e100",
                "--beta", "1", "--k", "3",
            ],
        )
        assert code == 1
        assert out.splitlines()[1:] == [
            "det-numeric: inf+nani",
            "det-evaluated: inf+nani",
            "rel-diff: nan",
        ]
        assert err == "error: numeric determinant is not finite: inf+nani\n"

    @pytest.mark.parametrize("fmt, det_line", [
        ("text", "det: inf+nani"),
        ("json", '  "det": "inf+nani"'),
    ])
    def test_non_finite_numeric_det_fails(self, capsys, fmt, det_line):
        # the true value is the real number 1e400, beyond double range
        code, out, err = run(
            capsys,
            [
                "minor-det", "--symbol", "1,1e100", "--beta", "1", "--k", "4",
                "--format", fmt,
            ],
        )
        assert code == 1
        assert det_line in out.splitlines()
        assert err == "error: numeric determinant is not finite: inf+nani\n"

    def test_large_finite_numeric_det_passes(self, capsys):
        code, out, err = run(
            capsys, ["minor-det", "--symbol", "1,1e100", "--beta", "1", "--k", "3"]
        )
        assert (code, out, err) == (0, "det: 1e+300\n", "")


class TestCheckIdentityCommand:
    def test_golden(self, capsys):
        code, out, err = run(
            capsys,
            ["check-identity", "--alpha", "2", "--beta", "1,3", "--nvars", "3", "--k", "2"],
        )
        assert code == 0 and err == ""
        assert out == (
            "spec: alpha=(2) beta=(1,3) n=3\n"
            "min_k: 1\n"
            "k: 2\n"
            "shape: (2,1)/(1) -> (3,2)/(2)\n"
            "minor-vs-schur: ok\n"
            "insertion-step: ok (9 tableaux, 3 sequences, 18 next-shape tableaux)\n"
        )

    def test_k_below_threshold_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            ["check-identity", "--beta", "2", "--nvars", "2", "--k", "0"],
        )
        assert code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_swapped_images_fail_the_weight_check(self, capsys, monkeypatch, fmt):
        # Two sequences trade their key shifts: every sequence stays
        # injective and the union still covers the next shape, so only the
        # content (x_S weight) check, made from the values, can see it.
        real = tableaux._delta
        swap = {(-1, 1): (-1, 2), (-1, 2): (-1, 1)}

        def swapped(values, nmax, width):
            return real(swap.get(values, values), nmax, width)

        monkeypatch.setattr(tableaux, "_delta", swapped)
        argv = ["check-identity", "--alpha", "2", "--beta", "1,3",
                "--nvars", "3", "--k", "2", "--format", fmt]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert err == "error: identity check failed\n"
        if fmt == "json":
            obj = json.loads(out)
            assert obj["insertion_step"] is False and obj["minor_vs_schur"] is True
        else:
            assert out.splitlines()[-1] == (
                "insertion-step: FAILED (an image's content is not its "
                "source's plus the sequence)"
            )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_image_with_a_column_violation_is_an_error(
        self, capsys, monkeypatch, fmt
    ):
        # An image that is no filling of the next shape is unpacked and
        # validated on its own, and the validator's message is the
        # command's error.  Here every inserted value is a 1, so the first
        # image, of rows (1,1),(2,2), has rows (1,1,1),(1,2,2).
        real = tableaux._delta

        def all_ones(values, nmax, width):
            return real((1,) * len(values), nmax, width)

        monkeypatch.setattr(tableaux, "_delta", all_ones)
        argv = ["check-identity", "--beta", "1,2", "--nvars", "3", "--k", "2",
                "--format", fmt]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == "error: column 1 not strictly increasing: 1 above 1\n"

    def test_image_of_another_shape_fails_the_cover_check(self, capsys, monkeypatch):
        # The sequences' images land on a shape with the next shape's row
        # lengths and no shared column, so each of them is a valid filling,
        # but not of the next shape: they must not count toward covering
        # it, even though there are as many of them as the next shape has
        # fillings.
        real = tableaux._insertion_target
        elsewhere = SkewShape(Partition((3, 1)), Partition((2,)))

        def misplaced(shape, length, negatives):
            return real(elsewhere, length, negatives)

        monkeypatch.setattr(tableaux, "_insertion_target", misplaced)
        argv = ["check-identity", "--alpha", "2", "--beta", "1,3",
                "--nvars", "3", "--k", "2"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (1, "error: identity check failed\n")
        assert out.splitlines()[-1] == (
            "insertion-step: FAILED (built 18 tableaux, next shape has 18)"
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_minor_vs_schur_failure_prints_the_residual(
        self, capsys, monkeypatch, fmt
    ):
        # the identity compared against the shape of k + 1: the residual is
        # h_1 - h_2, printed in x
        real = toeplitz.shape_from_minor
        monkeypatch.setattr(
            toeplitz, "shape_from_minor", lambda spec, k: real(spec, k + 1)
        )
        argv = ["check-identity", "--beta", "2", "--nvars", "2", "--k", "2",
                "--format", fmt]
        code, out, err = run(capsys, argv)
        assert (code, err) == (1, "error: identity check failed\n")
        if fmt == "json":
            obj = json.loads(out)
            assert (obj["minor_vs_schur"], obj["insertion_step"]) == (False, True)
        else:
            assert out.splitlines()[-2:] == [
                "minor-vs-schur: FAILED (residual: -x1^2 - x1*x2 - x2^2 + x1 + x2)",
                "insertion-step: ok (2 tableaux, 2 sequences, 3 next-shape tableaux)",
            ]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_repeated_filling_fails_the_injective_check(
        self, capsys, monkeypatch, fmt
    ):
        # adding one delta to distinct keys cannot merge them, so only an
        # enumeration that hands back a key twice reaches this branch
        real = tableaux._fillings

        def repeated(*args):
            fillings = real(*args)
            return fillings + fillings[:1]

        monkeypatch.setattr(tableaux, "_fillings", repeated)
        argv = ["check-identity", "--beta", "1", "--nvars", "2", "--k", "2",
                "--format", fmt]
        code, out, err = run(capsys, argv)
        assert (code, err) == (1, "error: identity check failed\n")
        if fmt == "json":
            obj = json.loads(out)
            assert (obj["minor_vs_schur"], obj["insertion_step"]) == (True, False)
        else:
            assert out.splitlines()[-2:] == [
                "minor-vs-schur: ok",
                "insertion-step: FAILED (a sequence merged two tableaux)",
            ]

    def test_enumerated_fillings_are_not_validated_again(self, capsys, monkeypatch):
        # every image of this step is an enumerated filling of the next
        # shape, and enumeration checks rows as it builds them, so no
        # finished filling goes through the validator
        calls = []
        real = tableaux._validate

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(tableaux, "_validate", counted)
        argv = ["check-identity", "--alpha", "1", "--beta", "1,2",
                "--nvars", "3", "--k", "3"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].startswith("insertion-step: ok (")
        assert calls == []


class TestRecurrenceCommand:
    def test_golden_boundary(self, capsys):
        code, out, err = run(
            capsys, ["recurrence", "--beta", "2", "--nvars", "2", "--jmax", "3"]
        )
        assert code == 0 and err == ""
        assert out == RECURRENCE_GOLDEN

    def test_json(self, capsys):
        code, out, _ = run(
            capsys,
            ["recurrence", "--beta", "2", "--nvars", "2", "--jmax", "2", "--format", "json"],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["report"]["all_zero"] is True
        assert obj["report"]["b"] == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_nonzero_residual_fails(self, capsys, monkeypatch, fmt):
        # Q_2 = e_2 with its sign flipped: every residual from j = 0 on is
        # nonzero, and the first one the threshold counts is j = 1
        real = recurrence.char_coeffs

        def flipped(band, extra):
            q = real(band, extra)
            return (*q[:-1], -q[-1])

        monkeypatch.setattr(recurrence, "char_coeffs", flipped)
        argv = ["recurrence", "--beta", "2", "--nvars", "2", "--jmax", "3",
                "--format", fmt]
        code, out, err = run(capsys, argv)
        assert (code, err) == (1, "error: nonzero residual at j = 1\n")
        if fmt == "json":
            obj = json.loads(out)
            assert obj["report"]["all_zero"] is False
            assert obj["report"]["first_failure"] == 1
            assert [r["zero"] for r in obj["residuals"]] == [False] * 4
        else:
            assert out == (
                "b: 2\n"
                "min_k: 1\n"
                "j=0: nonzero (-x1*x2)\n"
                "j=1: nonzero (-2*x1*x2)\n"
                "j=2: nonzero (-2*x1^2*x2 - 2*x1*x2^2)\n"
                "j=3: nonzero (-2*x1^3*x2 - 2*x1^2*x2^2 - 2*x1*x2^3)\n"
                "holds: FAILED at j = 1\n"
            )

    @pytest.mark.parametrize(
        "alpha, beta, nvars, jmax",
        [("", "2", "2", 3), ("2", "1,3", "3", 4), ("", "1,2", "4", 3)],
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_each_residual_computed_once(
        self, capsys, monkeypatch, alpha, beta, nvars, jmax, fmt
    ):
        # one leading-minor sweep per command, over the minor of size jmax + b
        sizes = []
        real = recurrence.leading_minors

        def counting(matrix):
            sizes.append(matrix.size)
            return real(matrix)

        monkeypatch.setattr(recurrence, "leading_minors", counting)
        recurrence.char_coeffs.cache_clear()
        code, out, _ = run(
            capsys,
            [
                "recurrence", "--alpha", alpha, "--beta", beta,
                "--nvars", nvars, "--jmax", str(jmax), "--format", fmt,
            ],
        )
        assert code == 0
        if fmt == "json":
            b = json.loads(out)["b"]
        else:
            b = int(out.splitlines()[0].removeprefix("b: "))
        assert sizes == [jmax + b]
        assert recurrence.char_coeffs.cache_info().misses == 1


class TestWidomCommand:
    def test_golden_integer_case(self, capsys):
        code, out, err = run(
            capsys, ["widom", "--symbol", "1,5,6", "--c", "1", "--k", "2"]
        )
        assert code == 0 and err == ""
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        assert lines["widom-original"].startswith("19")
        assert lines["widom-modified"].startswith("19")
        assert lines["hall-schur"].startswith("19")
        assert lines["minor-det"] == "19"
        assert float(lines["max-rel-diff"]) <= 1e-9

    def test_near_double_root_fails_honestly(self, capsys):
        # (1 + t)^4 has a fourfold root, which the eigensolver splits into
        # roots about 1e-4 apart: the rational formulas degrade and the
        # disagreement against the exact determinant is reported.
        code, out, err = run(
            capsys, ["widom", "--symbol", "1,4,6,4,1", "--c", "2", "--k", "3"]
        )
        assert code == 1
        assert "disagree" in err
        assert "max-rel-diff" in out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_disagreement_fails(self, capsys):
        # the closed forms and the numeric determinant overflow to inf or
        # nan, so every relative difference is nan; the error names the
        # overflow
        code, out, err = run(
            capsys, ["widom", "--symbol", "1,1e200", "--c", "1", "--k", "3"]
        )
        assert code == 1
        assert out.splitlines()[-5:] == [
            "widom-original: nan+nani",
            "widom-modified: nan+nani",
            "hall-schur: nan+nani",
            "minor-det: inf+nani",
            "max-rel-diff: nan",
        ]
        assert err == "error: numeric determinant is not finite: inf+nani\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_root_beyond_double_range_exits_one(self, capsys):
        # one root of 1 + 1e10 t + 1e-300 t^2 lies near -1e310
        code, out, err = run(
            capsys, ["widom", "--symbol", "1,1e10,1e-300", "--c", "1", "--k", "3"]
        )
        assert (code, out) == (1, "")
        assert err == "error: root or companion entry beyond double range\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_roots_far_apart_are_found(self, capsys):
        # roots 300 orders of magnitude apart; the determinant then overflows
        code, out, err = run(
            capsys, ["widom", "--symbol", "1,1e200,1e100", "--c", "1", "--k", "3"]
        )
        assert code == 1
        assert out.splitlines()[0] == "psi-roots: -1e-200, -1e+100"
        assert err == "error: numeric determinant is not finite: inf+nani\n"

    def test_coinciding_reciprocal_points_fail(self, capsys):
        # roots 1e-3, 1 and 1 + 1e-7 are apart relative to 1, but their
        # reciprocals -1 and -1 + 1e-7 are not relative to 1000
        symbol = "1,-1001.9999998999998,2000.9998999000097,-999.9999000000099"
        code, out, err = run(
            capsys, ["widom", "--symbol", symbol, "--c", "1", "--k", "2"]
        )
        assert (code, out) == (1, "")
        assert err == "error: reciprocal points 1 and 2 coincide within 1e-09 relative\n"

    @pytest.mark.parametrize(
        "symbol, c, k",
        [
            # roots near +-1e-5 i; a stop test scaled by the top coefficient,
            # 1e10, would pass iterates that are not yet roots
            ("1,1,1e10", "1", "3"),
            # the root -1e-100, next to which 1e100 dwarfs every residual
            ("1,1e100", "0", "4"),
        ],
    )
    def test_dominant_coefficient_roots_agree(self, capsys, symbol, c, k):
        code, out, err = run(
            capsys, ["widom", "--symbol", symbol, "--c", c, "--k", k]
        )
        assert (code, err) == (0, "")
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        assert float(lines["max-rel-diff"]) <= 1e-9

    def test_hall_schur_line_is_its_own_route(self, capsys, monkeypatch):
        # a perturbed subset sum moves only the widom-modified line, and the
        # check against the other routes catches it
        argv = ["widom", "--symbol", "1,5,6", "--c", "1", "--k", "2"]
        code, clean, err = run(capsys, argv)
        assert (code, err) == (0, "")
        widom_modified = cli.widom_modified
        monkeypatch.setattr(
            cli,
            "widom_modified",
            lambda *a: widom_modified(*a) * (1 + 1e-6),
        )
        code, out, err = run(capsys, argv)
        assert code == 1
        assert err.startswith("error: formula values disagree beyond 1e-08: ")
        before = dict(line.split(": ", 1) for line in clean.splitlines())
        after = dict(line.split(": ", 1) for line in out.splitlines())
        assert after["hall-schur"] == before["hall-schur"]
        assert after["widom-modified"] != before["widom-modified"]

    def test_tolerance_is_fixed(self, capsys):
        # widom checks against DUAL_ROUTE_TOL, and its help says so
        argv = ["widom", "--symbol", "1,5,6", "--c", "1", "--k", "2"]
        code, out, err = run(capsys, argv + ["--tol", "1e-3"])
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --tol 1e-3\n")
        code, out, err = run(capsys, argv + ["--help"])
        assert code == 0 and "--tol" not in out and "1e-08" in out


def _skew_scan_kernel(monkeypatch):
    """Make the scan kernel scale the c-th smallest modulus by 1 + 1e-3."""
    scan_moduli = spectra._kernels.scan_moduli

    def skewed(base, c_index, *args):
        moduli, ok = scan_moduli(base, c_index, *args)
        moduli[:, c_index - 1] *= 1 + 1e-3
        return moduli, ok

    monkeypatch.setattr(spectra._kernels, "scan_moduli", skewed)


class TestLimitsetCommand:
    ARGS = [
        "limitset", "--symbol", "1,0,1", "--c", "1",
        "--grid", "-2,2,-0.5,0.5,25,5", "--tol", "1e-2",
    ]

    def test_csv_structure(self, capsys):
        code, out, err = run(capsys, self.ARGS)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "re_v,im_v,gap"
        assert len(lines) > 1
        for line in lines[1:]:
            re_v, im_v, gap = map(float, line.split(","))
            assert -2 <= re_v <= 2 and im_v == 0
            assert 0 <= gap <= 1e-2

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, self.ARGS + ["--format", "text"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("hits: ")
        assert lines[1] == "failures: 0"
        assert lines[2].startswith("note: ")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, self.ARGS + ["--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["c"] == 1 and obj["grid"]["nx"] == 25
        assert all(h["gap"] <= 1e-2 for h in obj["hits"])

    def test_negative_grid_value_after_space(self, capsys):
        # argparse would read "-2,..." as an option if it were not joined to --grid
        code, out, _ = run(capsys, list(self.ARGS))
        assert code == 0

    def test_abbreviated_options_take_dash_values(self, capsys):
        # a prefix argparse accepts for --grid or --symbol takes a value
        # that begins with '-' as the full name does
        full = run(capsys, list(self.ARGS))
        abbreviated = ["--gri" if a == "--grid" else a for a in self.ARGS]
        assert run(capsys, abbreviated) == full
        widom = ["--symbol", "-1,2", "--c", "1", "--k", "2"]
        expected = run(capsys, ["widom", *widom])
        assert expected[0] == 0
        assert run(capsys, ["widom", "--sym", *widom[1:]]) == expected

    def test_bad_grid_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            ["limitset", "--symbol", "1,0,1", "--c", "1", "--grid", "1,2,3"],
        )
        assert code == 2
        assert "grid" in err

    def test_non_finite_grid_is_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            [
                "limitset", "--symbol", "1,0,1", "--c", "1",
                "--grid", "-2,inf,-1,1,5,5",
            ],
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: --grid: ")
        assert "grid bounds must be finite" in err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_is_usage_error(self, capsys, tol):
        code, out, err = run(
            capsys,
            [
                "limitset", "--symbol", "1,0,1", "--c", "1",
                "--grid", "-2,2,-1,1,5,5", "--tol", tol,
            ],
        )
        assert (code, out) == (2, "")
        assert err == f"error: --tol must be finite, got {float(tol)}\n"

    def test_unconverged_points_exit_one(self, capsys):
        # Iterates overflow at the 6 points with |1e200 - v| near 1e200;
        # the 3 at v = 1e200 + {-i, 0, i} converge.  The report prints in full.
        code, out, err = run(
            capsys,
            [
                "limitset", "--symbol", "1,1e200,1", "--c", "1",
                "--grid=-1,2e200,-1,1,3,3", "--format", "text",
            ],
        )
        assert code == 1
        assert out.splitlines()[:2] == ["hits: 1", "failures: 6"]
        assert err == "error: 6 grid points did not converge\n"

    def test_wrong_scan_fails_the_crosscheck(self, capsys, monkeypatch):
        # the companion-matrix profile of a few hits catches a scan kernel
        # whose c-th modulus is off by 1e-3 relative
        _skew_scan_kernel(monkeypatch)
        code, out, err = run(capsys, self.ARGS)
        assert (code, out) == (1, "")
        assert err.startswith("error: scan gap ")
        assert "disagrees with direct profile" in err

    def test_unsound_screen_fails_the_crosscheck(self, capsys, monkeypatch):
        # a threshold below every shift skips v = 0, where the roots +-i
        # have one modulus; the companion roots there catch it
        monkeypatch.setattr(spectra, "_pellet_threshold", lambda *args: -1.0)
        code, out, err = run(capsys, self.ARGS)
        assert (code, out) == (1, "")
        assert err.startswith("error: screened point v = 0+0i has direct profile gap ")
        assert err.endswith(", not above tol 0.01\n")

    def test_scan_with_no_point_to_check(self, capsys, monkeypatch):
        # one grid point, neither a hit nor skipped by the screen: the
        # spot-check has no point and solves nothing
        def unused(*args):
            raise AssertionError("root_modulus_profiles called")

        monkeypatch.setattr(cli, "root_modulus_profiles", unused)
        argv = ["limitset", "--symbol", "1,0.5,-0.3,0.2", "--c", "1",
                "--grid=-0.95,-0.95,-0.25,-0.25,1,1"]
        assert run(capsys, argv) == (0, "re_v,im_v,gap\n", "")

    def test_tol_one_reports_every_gap(self, capsys):
        # tol + PELLET_MARGIN >= 1 leaves no room for the screen
        code, out, err = run(capsys, self.ARGS[:-1] + ["1"])
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 1 + 25 * 5

    def test_large_roots_converge(self, capsys):
        # roots near 1e6 leave residuals above tol * max|c_m| that are only
        # rounding; the stop test accepts residuals at that floor
        code, out, err = run(
            capsys,
            [
                "limitset", "--symbol", "1,1e6,1", "--c", "1",
                "--grid=-3e6,3e6,-1,1,41,11", "--format", "text",
            ],
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == ["hits: 0", "failures: 0"]


class TestCrosscheckOrder:
    """The scan spot-check raises at its first bad point: hits, then the edge."""

    # at v = -1e300 the companion matrix has an entry beyond double range;
    # at v = 0 the two roots have one modulus, so the gap is 0
    SYMBOL = BandedSymbol((1, 1e-300, 1e-300))
    UNSOLVABLE = (-1e300, 0.0, 0.0)
    WRONG_GAP = (0.0, 0.0, 0.5)

    def check(self, hits, screen_edge=None):
        report = LimitSetReport(hits=hits, failures=(), screen_edge=screen_edge)
        cli._crosscheck_scan(self.SYMBOL, 1, 1e-2, report)

    def test_unsolvable_hit_before_a_wrong_gap(self):
        with pytest.raises(ValueError, match="beyond double range"):
            self.check((self.UNSOLVABLE, self.WRONG_GAP))

    def test_wrong_gap_before_an_unsolvable_hit(self):
        with pytest.raises(RuntimeError, match="scan gap 0.5 disagrees"):
            self.check((self.WRONG_GAP, self.UNSOLVABLE))

    def test_screen_edge_after_the_hits(self):
        with pytest.raises(RuntimeError, match="scan gap 0.5 disagrees"):
            self.check((self.WRONG_GAP,), screen_edge=self.UNSOLVABLE[:2])
        with pytest.raises(ValueError, match="beyond double range"):
            self.check((), screen_edge=self.UNSOLVABLE[:2])
        with pytest.raises(RuntimeError, match="screened point v = 0"):
            self.check((), screen_edge=(0.0, 0.0))


class TestEigsCommand:
    def test_contiguous_by_c(self, capsys):
        code, out, err = run(
            capsys, ["eigs", "--symbol", "1,0.7,0.3", "--k", "5", "--c", "1"]
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "re,im"
        assert len(lines) == 6
        reals = [float(line.split(",")[0]) for line in lines[1:]]
        assert reals == sorted(reals)

    def test_explicit_alpha_beta(self, capsys):
        code, out, _ = run(
            capsys,
            ["eigs", "--symbol", "1,0,1", "--k", "3", "--beta", "1"],
        )
        assert code == 0

    def test_c_and_beta_conflict(self, capsys):
        code, _, err = run(
            capsys,
            ["eigs", "--symbol", "1,0,1", "--k", "3", "--c", "1", "--alpha", "1"],
        )
        assert code == 2
        assert "not both" in err

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: plain eigvals on a non-normal section; the "
        "computed spectrum leaves the real segment by up to 0.3",
    )
    def test_non_normal_section_matches_closed_form(self, capsys):
        # tridiagonal Toeplitz with diagonal 0.5 and off-diagonals 1, 0.01:
        # eigenvalues 0.5 + 2 sqrt(0.01) cos(j pi/41), all real
        code, out, err = run(
            capsys, ["eigs", "--symbol", "1,0.5,0.01", "--c", "1", "--k", "40"]
        )
        assert (code, err) == (0, "")
        got = [complex(*map(float, line.split(","))) for line in out.splitlines()[1:]]
        expected = sorted(0.5 + 0.2 * math.cos(j * math.pi / 41) for j in range(1, 41))
        assert len(got) == 40
        assert max(abs(z - e) for z, e in zip(got, expected)) <= 1e-8

    def test_non_finite_symbol_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, ["eigs", "--symbol", "1,nan", "--k", "3", "--c", "1"]
        )
        assert (code, out) == (2, "")
        assert err == "error: --symbol: coefficients must be finite\n"


class TestCompareCommand:
    def test_text_output(self, capsys):
        code, out, err = run(
            capsys,
            [
                "compare", "--symbol", "1,0,1", "--c", "1", "--k", "10",
                "--grid", "-3,3,-1,1,121,41", "--tol", "1e-2",
            ],
        )
        assert code == 0 and err == ""
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        assert lines["k"] == "10"
        assert int(lines["hits"]) > 0
        assert float(lines["median-distance"]) <= 0.05
        assert float(lines["max-distance"]) <= 0.05

    def test_empty_hits_is_runtime_failure(self, capsys):
        code, _, err = run(
            capsys,
            [
                "compare", "--symbol", "1,0,1", "--c", "1", "--k", "4",
                "--grid", "5,6,1,2,3,3", "--tol", "1e-3",
            ],
        )
        assert code == 1
        assert "empty hit set" in err

    def test_non_finite_tol_is_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            [
                "compare", "--symbol", "1,0,1", "--c", "1", "--k", "4",
                "--grid", "-2,2,-1,1,5,5", "--tol", "nan",
            ],
        )
        assert (code, out, err) == (2, "", "error: --tol must be finite, got nan\n")

    def test_unconverged_points_exit_one(self, capsys):
        # v = 1e200 is the one hit; iterates overflow at the 6 points with
        # |1e200 - v| near 1e200.  The section's eigenvalues are
        # 1e200 + 2 cos(j pi/5), so each lies within a few ulps of 1e200.
        code, out, err = run(
            capsys,
            [
                "compare", "--symbol", "1,1e200,1", "--c", "1", "--k", "4",
                "--grid=-1,2e200,-1,1,3,3",
            ],
        )
        assert code == 1
        assert out == (
            "k: 4\n"
            "hits: 1\n"
            "median-distance: 8.49820788507e+183\n"
            "max-distance: 5.09892473104e+184\n"
        )
        distances = [float(line.split(": ")[1]) for line in out.splitlines()[2:]]
        assert max(distances) <= 1e-15 * 1e200
        assert err == "error: 6 grid points did not converge\n"

    def test_wrong_scan_fails_the_crosscheck(self, capsys, monkeypatch):
        # compare spot-checks the hits of its scan as limitset does, before
        # it measures distances to them
        _skew_scan_kernel(monkeypatch)
        code, out, err = run(
            capsys,
            [
                "compare", "--symbol", "1,0,1", "--c", "1", "--k", "10",
                "--grid=-3,3,-1,1,121,41",
            ],
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: scan gap ")
        assert "disagrees with direct profile" in err

    def test_unsound_screen_fails_the_crosscheck(self, capsys, monkeypatch):
        # compare spot-checks the screen as limitset does: a threshold
        # below every shift skips v = 0, where the roots +-i have one modulus
        monkeypatch.setattr(spectra, "_pellet_threshold", lambda *args: -1.0)
        code, out, err = run(
            capsys,
            [
                "compare", "--symbol", "1,0,1", "--c", "1", "--k", "10",
                "--grid=-3,3,-1,1,121,41",
            ],
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: screened point v = 0+0i has direct profile gap ")

    def test_large_roots_converge(self, capsys):
        # The 61-point rows hit v = 1e6, where the limit set crosses the
        # real axis; every one of the 671 points converges.
        code, out, err = run(
            capsys,
            [
                "compare", "--symbol", "1,1e6,1", "--c", "1", "--k", "10",
                "--grid=-3e6,3e6,-1,1,61,11",
            ],
        )
        assert (code, err) == (0, "")
        assert out == (
            "k: 10\n"
            "hits: 1\n"
            "median-distance: 1.30972146755\n"
            "max-distance: 1.91898594704\n"
        )
        # the section is tridiagonal Toeplitz, with eigenvalues
        # 1e6 + 2 cos(j pi/11), so the distances to v = 1e6 are |2 cos(j pi/11)|
        closed = sorted(abs(2 * math.cos(j * math.pi / 11)) for j in range(1, 11))
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        median = (closed[4] + closed[5]) / 2
        assert float(lines["median-distance"]) == pytest.approx(median, abs=1e-9)
        assert float(lines["max-distance"]) == pytest.approx(closed[-1], abs=1e-9)


SCAN_FAILED = "error: 6 grid points did not converge\n"

# (argv, exit code, stdout, stderr) of every layout a command prints from
# a library result: limitset, eigs and compare in each --format, and
# recurrence and widom --format json.
OUTPUT_GOLDENS = {
    "limitset-csv": (
        "limitset --symbol 1,0,1 --c 1 --grid=-1.5,1.5,-0.5,0.5,7,3 --tol"
        " 0.6",
        0,
        """\
re_v,im_v,gap
-1.5,-0.5,0.5
-1,-0.5,0.430383591642
-0.5,-0.5,0.399378992595
0,-0.5,0.390388203202
0.5,-0.5,0.399378992595
1,-0.5,0.430383591642
1.5,-0.5,0.5
-1.5,0,0
-1,0,0
-0.5,0,0
0,0,0
0.5,0,0
1,0,0
1.5,0,0
-1.5,0.5,0.5
-1,0.5,0.430383591642
-0.5,0.5,0.399378992595
0,0.5,0.390388203202
0.5,0.5,0.399378992595
1,0.5,0.430383591642
1.5,0.5,0.5
""",
        "",
    ),
    "limitset-json": (
        "limitset --symbol 1,0,1 --c 1 --grid=-1,1,-0.5,0.5,3,3 --tol 0.1"
        " --format json",
        0,
        """\
{
  "symbol": [
    "1",
    "0",
    "1"
  ],
  "c": 1,
  "grid": {
    "re_min": -1.0,
    "re_max": 1.0,
    "im_min": -0.5,
    "im_max": 0.5,
    "nx": 3,
    "ny": 3
  },
  "tol": 0.1,
  "hits": [
    {
      "re": -1.0,
      "im": 0.0,
      "gap": 0.0
    },
    {
      "re": 0.0,
      "im": 0.0,
      "gap": 0.0
    },
    {
      "re": 1.0,
      "im": 0.0,
      "gap": 0.0
    }
  ],
  "failures": [],
  "note": "hits mark curve-coincidence points of root moduli; isolated exceptional limit points are not detected"
}
""",
        "",
    ),
    "limitset-text": (
        "limitset --symbol 1,0,1 --c 1 --grid=-1,1,-0.5,0.5,3,3 --tol 0.1"
        " --format text",
        0,
        """\
hits: 3
failures: 0
note: hits mark curve-coincidence points of root moduli; isolated exceptional limit points are not detected
""",
        "",
    ),
    "limitset-fail-csv": (
        "limitset --symbol 1,1e200,1 --c 1 --grid=-1,2e200,-1,1,3,3",
        1,
        """\
re_v,im_v,gap
1e+200,0,0
""",
        SCAN_FAILED,
    ),
    "limitset-fail-json": (
        "limitset --symbol 1,1e200,1 --c 1 --grid=-1,2e200,-1,1,3,3"
        " --format json",
        1,
        """\
{
  "symbol": [
    "1",
    "1e+200",
    "1"
  ],
  "c": 1,
  "grid": {
    "re_min": -1.0,
    "re_max": 2e+200,
    "im_min": -1.0,
    "im_max": 1.0,
    "nx": 3,
    "ny": 3
  },
  "tol": 0.01,
  "hits": [
    {
      "re": 1e+200,
      "im": 0.0,
      "gap": 0.0
    }
  ],
  "failures": [
    {
      "re": -1.0,
      "im": -1.0,
      "error": "no convergence after 200 sweeps"
    },
    {
      "re": 2e+200,
      "im": -1.0,
      "error": "no convergence after 200 sweeps"
    },
    {
      "re": -1.0,
      "im": 0.0,
      "error": "no convergence after 200 sweeps"
    },
    {
      "re": 2e+200,
      "im": 0.0,
      "error": "no convergence after 200 sweeps"
    },
    {
      "re": -1.0,
      "im": 1.0,
      "error": "no convergence after 200 sweeps"
    },
    {
      "re": 2e+200,
      "im": 1.0,
      "error": "no convergence after 200 sweeps"
    }
  ],
  "note": "hits mark curve-coincidence points of root moduli; isolated exceptional limit points are not detected"
}
""",
        SCAN_FAILED,
    ),
    "limitset-fail-text": (
        "limitset --symbol 1,1e200,1 --c 1 --grid=-1,2e200,-1,1,3,3"
        " --format text",
        1,
        """\
hits: 1
failures: 6
note: hits mark curve-coincidence points of root moduli; isolated exceptional limit points are not detected
""",
        SCAN_FAILED,
    ),
    "eigs-csv": (
        "eigs --symbol 1,0.5-2i --k 3 --c 1",
        0,
        """\
re,im
0.5,-2
0.5,-2
0.5,-2
""",
        "",
    ),
    "eigs-json": (
        "eigs --symbol 1,0.5-2i --k 3 --c 1 --format json",
        0,
        """\
{
  "alpha": [],
  "beta": [
    1
  ],
  "n": 1,
  "k": 3,
  "eigenvalues": [
    {
      "re": 0.5,
      "im": -2.0
    },
    {
      "re": 0.5,
      "im": -2.0
    },
    {
      "re": 0.5,
      "im": -2.0
    }
  ]
}
""",
        "",
    ),
    "eigs-text": (
        "eigs --symbol 1,0.5-2i --k 3 --c 1 --format text",
        0,
        """\
0.5-2i
0.5-2i
0.5-2i
""",
        "",
    ),
    # a real section: conjugate pairs agree to the last digit, and real
    # eigenvalues print no imaginary part
    "eigs-real-text": (
        "eigs --symbol 1,2,3,4 --c 1 --k 6 --format text",
        0,
        """\
-0.20165727922-0.887734613121i
-0.20165727922+0.887734613121i
0.303046196466
2.1389677407
4.20153570305
5.75976491822
""",
        "",
    ),
    "eigs-alpha-beta-json": (
        "eigs --symbol 1,0,2 --k 3 --alpha 3 --beta 1,2 --format json",
        0,
        """\
{
  "alpha": [
    3
  ],
  "beta": [
    1,
    2
  ],
  "n": 2,
  "k": 3,
  "eigenvalues": [
    {
      "re": 0.0,
      "im": 0.0
    },
    {
      "re": 2.0,
      "im": 0.0
    },
    {
      "re": 2.0,
      "im": 0.0
    }
  ]
}
""",
        "",
    ),
    "compare-json": (
        "compare --symbol 1,2,1 --c 1 --k 1 --grid=0,4,0,0,3,1 --format"
        " json",
        0,
        """\
{
  "k": 1,
  "hit_count": 3,
  "median_distance": 0.0,
  "max_distance": 0.0
}
""",
        "",
    ),
    "compare-text": (
        "compare --symbol 1,2,1 --c 1 --k 1 --grid=0,4,0,0,3,1",
        0,
        """\
k: 1
hits: 3
median-distance: 0
max-distance: 0
""",
        "",
    ),
    "compare-fail-json": (
        "compare --symbol 1,1e200,1 --c 1 --k 4 --grid=-1,2e200,-1,1,3,3"
        " --format json",
        1,
        """\
{
  "k": 4,
  "hit_count": 1,
  "median_distance": 8.498207885068274e+183,
  "max_distance": 5.098924731040964e+184
}
""",
        SCAN_FAILED,
    ),
    "recurrence-json": (
        "recurrence --alpha 2 --beta 1,3 --nvars 3 --jmax 4 --format json",
        0,
        """\
{
  "report": {
    "spec": {
      "alpha": [
        2
      ],
      "beta": [
        1,
        3
      ],
      "n": 3
    },
    "b": 3,
    "j_range": [
      1,
      4
    ],
    "all_zero": true,
    "first_failure": null
  },
  "b": 3,
  "residuals": [
    {
      "j": 0,
      "zero": false
    },
    {
      "j": 1,
      "zero": true
    },
    {
      "j": 2,
      "zero": true
    },
    {
      "j": 3,
      "zero": true
    },
    {
      "j": 4,
      "zero": true
    }
  ]
}
""",
        "",
    ),
    "widom-json": (
        "widom --symbol 1,5,6 --c 1 --k 2 --format json",
        0,
        """\
{
  "symbol": [
    "1",
    "5",
    "6"
  ],
  "c": 1,
  "k": 2,
  "psi_roots": [
    "-0.333333333333",
    "-0.5"
  ],
  "chi_points": [
    "3",
    "2"
  ],
  "widom_original": "19",
  "widom_modified": "19",
  "hall_schur": "19",
  "minor_det": "19",
  "max_rel_diff": 1.3088945132422901e-15
}
""",
        "",
    ),
}


class TestOutputGoldens:
    """Byte-exact output of each layout cli builds from a library result."""

    @pytest.mark.parametrize(
        "argv, code, out, err", OUTPUT_GOLDENS.values(), ids=list(OUTPUT_GOLDENS)
    )
    def test_golden(self, capsys, argv, code, out, err):
        assert run(capsys, argv.split()) == (code, out, err)

    def test_compare_fail_distances_within_ulps(self, capsys):
        # the section's eigenvalues 1e200 + 2 cos(j pi/5) round to within a
        # few ulps of the hit v = 1e200
        argv = OUTPUT_GOLDENS["compare-fail-json"][0]
        code, out, _ = run(capsys, argv.split())
        doc = json.loads(out)
        assert code == 1
        assert 0 <= doc["median_distance"] <= doc["max_distance"] <= 1e-15 * 1e200


LIMITSET_SEGMENT_ARGS = [
    "limitset", "--symbol", "1,0,1", "--c", "1",
    "--grid=-3,3,0,0,61,1", "--tol", "1e-6", "--format", "text",
]


class TestHarness:
    def test_no_command_shows_usage(self, capsys):
        code, _, _ = run(capsys, [])
        assert code == 2

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        code, out, _ = run(capsys, ["--help"])
        assert code == 0
        assert "schur" in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bandschur", "schur", "--outer", "1", "--nvars", "2"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "x1 + x2" in proc.stdout

    @pytest.mark.parametrize("argv, message", [
        (["widom", "--symbol", "1,1,1", "--c", "1", "--k", "100000"], OOM),
        (["minor-det", "--symbol", "1,1,1", "--beta", "1", "--k", "100000"], OOM),
        (["eigs", "--symbol", "1,1,1", "--c", "1", "--k", "100000"], OOM),
        # a MemoryError with no message leaves nothing to put after a colon
        (["eigs", "--symbol", "1,1,1", "--c", "1", "--k", "100000"], None),
    ], ids=["argv0", "argv1", "argv2", "argv3"])
    def test_out_of_memory_is_an_error_line(self, capsys, monkeypatch, argv, message):
        # a real k this large may be killed by the host instead of raising
        def refuse(sym, spec, k):
            raise MemoryError() if message is None else MemoryError(message.format(k=k))

        monkeypatch.setattr(cli, "build_minor_numeric", refuse)
        monkeypatch.setattr(spectra, "build_minor_numeric", refuse)
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == (
            "error: out of memory\n" if message is None
            else "error: out of memory: Unable to allocate an index array for "
            "k = 100000\n"
        )

    @pytest.mark.parametrize("argv", [
        ["minor-det", "--symbol", "1,2,1", "--beta", "1", "--k", "3000000000"],
        ["eigs", "--symbol", "1,2,1", "--c", "1", "--k", "9999999999"],
        # the closed forms run first: each x^k is about log2(k) squarings
        ["widom", "--symbol", "1,2,3", "--c", "1", "--k", "9999999999"],
    ], ids=["minor-det", "eigs", "widom"])
    def test_huge_k_is_refused_before_any_k_step_loop(self, capsys, monkeypatch, argv):
        # numpy refuses a k x k section this large before it allocates
        # anything; a loop over k first would run for minutes, so fail it
        def no_loop(deleted, count):
            raise AssertionError(f"looped over k = {count} before sizing the section")

        monkeypatch.setattr(toeplitz, "surviving", no_loop)
        start = time.monotonic()
        code, out, err = run(capsys, argv)
        assert time.monotonic() - start < 5
        assert (code, out) == (1, "")
        assert err.startswith("error: array is too big")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("argv, message", [
        (
            ["widom", "--symbol", "1,1e200", "--c", "1", "--k", "3"],
            "numeric determinant is not finite: inf+nani",
        ),
        (
            [
                "minor-det", "--nvars", "2", "--symbol", "1,1e200,1e100",
                "--beta", "1", "--k", "3",
            ],
            "numeric determinant is not finite: inf+nani",
        ),
        (
            ["minor-det", "--symbol", "1,1e100", "--beta", "1", "--k", "4"],
            "numeric determinant is not finite: inf+nani",
        ),
        # |s_0 / s_n| overflows where the scan picks its starting circle
        (
            ["limitset", "--symbol", "1,0,1e-320", "--c", "1", "--grid=-1,1,-1,1,3,3"],
            "9 grid points did not converge",
        ),
        (
            [
                "limitset", "--symbol", "1,0,0,0,0,1e-320", "--c", "1",
                "--grid=-1,1,-1,1,3,3",
            ],
            "9 grid points did not converge",
        ),
        (
            [
                "compare", "--symbol", "1,0,1e-320", "--c", "1", "--k", "5",
                "--grid=-1,1,-1,1,3,3",
            ],
            "empty hit set: enlarge the grid or tolerance",
        ),
    ])
    def test_overflow_prints_only_the_error_line(self, argv, message):
        # run as a process, so any numpy warning would reach stderr
        proc = subprocess.run(
            [sys.executable, "-m", "bandschur", *argv],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("write_raises", [True, False])
    def test_closed_stdout_exits_one_without_traceback(
        self, capsys, monkeypatch, tmp_path, write_raises
    ):
        # A stdout whose reader has gone: print itself may raise, or only the
        # flush.  main points its descriptor at devnull and returns 1.
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

        class ClosedPipe:
            def write(self, text):
                if write_raises:
                    raise BrokenPipeError(errno.EPIPE, "Broken pipe")
                return len(text)

            def flush(self):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def fileno(self):
                return fd

        try:
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            code = main(LIMITSET_SEGMENT_ARGS)
            monkeypatch.undo()
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert code == 1
        assert capsys.readouterr().err == ""

    def test_closed_pipe_exits_one_without_traceback(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "bandschur", *LIMITSET_SEGMENT_ARGS],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")

    def test_byte_identical_repeat_runs(self, capsys):
        commands = [
            ["schur", "--outer", "4,2,1", "--inner", "2,2", "--nvars", "3"],
            ["recurrence", "--beta", "2", "--nvars", "2", "--jmax", "3"],
            [
                "limitset", "--symbol", "1,0,1", "--c", "1",
                "--grid", "-2,2,-0.5,0.5,25,5", "--tol", "1e-2",
            ],
        ]
        for argv in commands:
            first = run(capsys, list(argv))
            second = run(capsys, list(argv))
            assert first == second

    def test_operation_coverage_map_is_accurate(self, capsys):
        # Every advertised operation must resolve to a real attribute, and
        # the README example of its command must enter it.
        examples = _readme_examples()
        # check-identity expands its residual to x only when the minor and
        # the Schur polynomial differ, a path the README example never takes
        failure_path_only = {("check-identity", "polyring.expand_elementary")}
        seen = set()
        for command, operations in COMMAND_OPERATIONS.items():
            for cache in _caches().values():
                cache.cache_clear()  # a cache hit never enters the function
            entered = set()

            def record(frame, event, arg):
                if event == "call":
                    entered.add(frame.f_code)

            sys.setprofile(record)
            try:
                assert main(examples[command]) == 0, command
            finally:
                sys.setprofile(None)
            capsys.readouterr()
            for dotted in operations:
                seen.add(dotted)
                module_name, *attrs = dotted.split(".")
                obj = importlib.import_module(f"bandschur.{module_name}")
                for attr in attrs:
                    obj = getattr(obj, attr)
                assert callable(obj), dotted
                if (command, dotted) not in failure_path_only:
                    assert inspect.unwrap(obj).__code__ in entered, (command, dotted)
        required = {
            "tableaux.schur_by_tableaux",
            "schur.schur_jacobi_trudi",
            "schur.symbolic_det",
            "toeplitz.build_minor_symbolic",
            "toeplitz.build_minor_numeric",
            "toeplitz.det_numeric",
            "toeplitz.verify_minor_schur",
            "tableaux.insertion_step",
            "tableaux.extension_sequences",
            "recurrence.char_coeffs",
            "recurrence.verify_recurrence",
            "schur.transfer_map",
            "widom.widom_original",
            "widom.widom_modified",
            "widom.hall_schur_eval",
            "spectra.poly_roots",
            "spectra.root_modulus_profiles",
            "spectra.limit_set_scan",
            "spectra.finite_section_spectrum",
            "spectra.spectrum_vs_limitset",
        }
        assert required <= seen

    def test_every_cache_is_bounded(self):
        caches = _caches()
        assert "recurrence.char_coeffs" in caches
        for name, cache in caches.items():
            if name == "cli.build_parser":  # no arguments, so one entry
                continue
            module = sys.modules[cache.__module__]
            named = {
                value for key, value in vars(module).items()
                if key.isupper() and isinstance(value, int)
            }
            maxsize = cache.cache_info().maxsize
            assert maxsize is not None and maxsize in named, name


EIGS_JSON_GOLDEN = """{
  "alpha": [],
  "beta": [
    1
  ],
  "n": 1,
  "k": 2,
  "eigenvalues": [
    {
      "re": 2.0,
      "im": 0.0
    },
    {
      "re": 2.0,
      "im": 0.0
    }
  ]
}
"""

EIGS_MISSING_K_GOLDEN = (
    "usage: bandschur eigs [-h] --symbol SYMBOL --k K [--c C] [--alpha ALPHA]\n"
    "                      [--beta BETA] [--format {csv,json,text}]\n"
    "bandschur eigs: error: the following arguments are required: --k\n"
)


class TestSharedParser:
    """One parser serves every main() call in a process."""

    def test_second_call_builds_no_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        argv = ["minor-det", "--symbol", "1,3,2", "--beta", "1", "--k", "3"]
        assert run(capsys, argv) == (0, "det: 15\n", "")
        built.clear()
        assert run(capsys, argv) == (0, "det: 15\n", "")
        assert built == []

    def test_no_state_carries_between_calls(self, capsys, monkeypatch):
        # argparse wraps usage to the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        sequence = [
            (
                ["eigs", "--symbol", "1,2", "--k", "2", "--c", "1", "--format", "json"],
                (0, EIGS_JSON_GOLDEN, ""),
            ),
            (
                ["eigs", "--symbol", "1,2", "--k", "3", "--alpha", "", "--beta", "1"],
                (0, "re,im\n2,0\n2,0\n2,0\n", ""),
            ),
            (
                ["eigs", "--symbol", "1,2", "--k", "0"],
                (2, "", "error: --k must be >= 1, got 0\n"),
            ),
            (["eigs", "--symbol", "1,2"], (2, "", EIGS_MISSING_K_GOLDEN)),
            (
                [
                    "minor-det", "--nvars", "2", "--symbol", "1,3,2",
                    "--beta", "1", "--k", "3",
                ],
                (
                    0,
                    "det-symbolic: x1^3 + x1^2*x2 + x1*x2^2 + x2^3\n"
                    "det-numeric: 15\ndet-evaluated: 15\nrel-diff: 0\n",
                    "",
                ),
            ),
            (
                ["minor-det", "--symbol", "1,3,2", "--beta", "1", "--k", "3"],
                (0, "det: 15\n", ""),
            ),
        ]
        for argv, expected in sequence:
            assert run(capsys, argv) == expected, argv

    def test_help_follows_the_terminal_width(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "60")
        narrow = run(capsys, ["eigs", "--help"])
        assert run(capsys, ["eigs", "--help"]) == narrow
        monkeypatch.setenv("COLUMNS", "140")
        wide = run(capsys, ["eigs", "--help"])
        assert narrow[0] == wide[0] == 0
        assert narrow[1] != wide[1]
        assert max(map(len, narrow[1].splitlines())) <= 60
        assert max(map(len, wide[1].splitlines())) > 60


class TestArgvRouting:
    """A named command is parsed once, by its own subparser."""

    def test_one_parse_per_command(self, capsys, monkeypatch):
        parsed = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counting(self, *args, **kwargs):
            parsed.append(self.prog)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        argv = ["minor-det", "--symbol", "1,3,2", "--beta", "1", "--k", "3"]
        assert run(capsys, argv) == (0, "det: 15\n", "")
        assert parsed == ["bandschur minor-det"]

    def test_short_help_goes_to_the_top_level(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, ["-h"]) == (0, HELP_GOLDENS["bandschur"], "")


TOP_LEVEL_USAGE = "usage: bandschur [-h] command ...\n"
COMMAND_REQUIRED = (
    TOP_LEVEL_USAGE
    + "bandschur: error: the following arguments are required: command\n"
)

# (argv, stderr) of inputs that break exactly one usage rule, for every
# rule of every command; each exits 2 and prints nothing on stdout.
# argparse wraps its usage lines to COLUMNS, which the test sets to 80.
USAGE_ERRORS = {
    # argv that the top-level parser reads: no command, an unknown one, and
    # the arguments a command leaves over
    "no-command": ("", COMMAND_REQUIRED),
    "double-dash": ("--", COMMAND_REQUIRED),
    "unknown-command": (
        "eig --symbol 1,2 --k 2",
        (
            TOP_LEVEL_USAGE
            + "bandschur: error: argument command: invalid choice: 'eig' "
            "(choose from 'schur', 'minor-det', 'check-identity', "
            "'recurrence', 'widom', 'limitset', 'eigs', 'compare')\n"
        ),
    ),
    "command-unknown-flag": (
        "eigs --symbol 1,2 --k 2 --bogus",
        TOP_LEVEL_USAGE + "bandschur: error: unrecognized arguments: --bogus\n",
    ),
    "command-stray-positional": (
        "eigs --symbol 1,2 --k 2 extra",
        TOP_LEVEL_USAGE + "bandschur: error: unrecognized arguments: extra\n",
    ),
    "schur-nvars": (
        "schur --outer 2 --nvars 0",
        "error: --nvars must be >= 1, got 0\n",
    ),
    "schur-outer-token": (
        "schur --outer 2,x --nvars 2",
        (
            "error: --outer: bad partition '2,x': invalid literal for "
            "int() with base 10: 'x'\n"
        ),
    ),
    "schur-outer-order": (
        "schur --outer 1,2 --nvars 2",
        "error: --outer: not weakly decreasing: (1, 2)\n",
    ),
    "schur-outer-negative": (
        "schur --outer=2,-1 --nvars 2",
        "error: --outer: negative part in (2, -1)\n",
    ),
    "schur-inner-token": (
        "schur --outer 2 --inner x --nvars 2",
        (
            "error: --inner: bad partition 'x': invalid literal for "
            "int() with base 10: 'x'\n"
        ),
    ),
    "schur-inner-fits": (
        "schur --outer 1 --inner 2 --nvars 2",
        "error: inner 2 not contained in outer 1\n",
    ),
    "minor-det-route": (
        "minor-det --beta 1 --k 2",
        "error: give --nvars (symbolic), --symbol (numeric), or both\n",
    ),
    "minor-det-k": (
        "minor-det --beta 1 --k -1 --nvars 2",
        "error: --k must be >= 0, got -1\n",
    ),
    "minor-det-nvars": (
        "minor-det --beta 1 --k 2 --nvars 0",
        "error: --nvars must be >= 1, got 0\n",
    ),
    "minor-det-symbol-token": (
        "minor-det --beta 1 --k 2 --symbol 1,x",
        "error: --symbol: bad complex token 'x'\n",
    ),
    "minor-det-symbol-finite": (
        "minor-det --beta 1 --k 2 --symbol 1,inf",
        "error: --symbol: coefficients must be finite\n",
    ),
    "minor-det-symbol-short": (
        "minor-det --beta 1 --k 2 --symbol 1",
        "error: --symbol: symbol needs at least s_0, s_1\n",
    ),
    "minor-det-band-match": (
        "minor-det --beta 1 --k 2 --nvars 3 --symbol 1,3,2",
        "error: --nvars 3 does not match --symbol band 2\n",
    ),
    "minor-det-alpha-token": (
        "minor-det --alpha x --beta 1 --k 2 --nvars 2",
        "error: --alpha: bad index 'x'\n",
    ),
    "minor-det-beta-token": (
        "minor-det --beta 1,x --k 2 --nvars 2",
        "error: --beta: bad index 'x'\n",
    ),
    "minor-det-beta-positive": (
        "minor-det --beta 0 --k 2 --nvars 2",
        "error: deleted_cols must be positive: (0,)\n",
    ),
    "minor-det-beta-increasing": (
        "minor-det --beta 2,1 --k 2 --nvars 2",
        "error: deleted_cols must be strictly increasing: (2, 1)\n",
    ),
    "minor-det-rows-over-cols": (
        "minor-det --alpha 1 --k 2 --nvars 2",
        (
            "error: need len(deleted_rows) <= len(deleted_cols) <= "
            "band, got 1 <= 0 <= 2\n"
        ),
    ),
    "minor-det-cols-over-band": (
        "minor-det --beta 1,2,3 --k 2 --nvars 2",
        (
            "error: need len(deleted_rows) <= len(deleted_cols) <= "
            "band, got 0 <= 3 <= 2\n"
        ),
    ),
    "minor-det-row-below-col": (
        "minor-det --alpha 1 --beta 2 --k 2 --nvars 2",
        "error: deleted_rows[0] = 1 < deleted_cols[0] = 2\n",
    ),
    "check-identity-nvars": (
        "check-identity --beta 1 --nvars 0 --k 2",
        "error: --nvars must be >= 1, got 0\n",
    ),
    "check-identity-beta-token": (
        "check-identity --beta x --nvars 3 --k 1",
        "error: --beta: bad index 'x'\n",
    ),
    "check-identity-spec": (
        "check-identity --beta 1,1 --nvars 3 --k 1",
        "error: deleted_cols must be strictly increasing: (1, 1)\n",
    ),
    "check-identity-min-k": (
        "check-identity --beta 3 --nvars 3 --k 1",
        "error: --k must be >= min_k = 2 for this spec\n",
    ),
    "recurrence-nvars": (
        "recurrence --beta 1 --nvars 0 --jmax 2",
        "error: --nvars must be >= 1, got 0\n",
    ),
    "recurrence-spec": (
        "recurrence --alpha 2 --nvars 3 --jmax 3",
        (
            "error: need len(deleted_rows) <= len(deleted_cols) <= "
            "band, got 1 <= 0 <= 3\n"
        ),
    ),
    "recurrence-min-k": (
        "recurrence --beta 3 --nvars 3 --jmax 1",
        "error: --jmax must be >= min_k = 2 for this spec\n",
    ),
    "widom-symbol-token": (
        "widom --symbol 1,x --c 1 --k 2",
        "error: --symbol: bad complex token 'x'\n",
    ),
    "widom-symbol-abbreviated": (
        "widom --sym -1,2 --c 3 --k 2",
        "error: --c must be in 0..2, got 3\n",
    ),
    "widom-c-high": (
        "widom --symbol 1,3,2 --c 3 --k 2",
        "error: --c must be in 0..2, got 3\n",
    ),
    "widom-c-low": (
        "widom --symbol 1,3,2 --c -1 --k 2",
        "error: --c must be in 0..2, got -1\n",
    ),
    "widom-k": (
        "widom --symbol 1,3,2 --c 1 --k -1",
        "error: --k must be >= 0, got -1\n",
    ),
    "widom-top-coefficient": (
        "widom --symbol 1,3,0 --c 1 --k 2",
        "error: --symbol: top coefficient s_n must be nonzero\n",
    ),
    "limitset-symbol-token": (
        "limitset --symbol 1,x --c 1 --grid=-1,1,-1,1,3,3",
        "error: --symbol: bad complex token 'x'\n",
    ),
    "limitset-c-high": (
        "limitset --symbol 1,0,1 --c 2 --grid=-1,1,-1,1,3,3",
        "error: --c must be in 1..1, got 2\n",
    ),
    "limitset-c-low": (
        "limitset --symbol 1,0,1 --c 0 --grid=-1,1,-1,1,3,3",
        "error: --c must be in 1..1, got 0\n",
    ),
    "limitset-top-coefficient": (
        "limitset --symbol 1,0,0 --c 1 --grid=-1,1,-1,1,3,3",
        "error: --symbol: top coefficient s_n must be nonzero\n",
    ),
    "limitset-grid-count": (
        "limitset --symbol 1,0,1 --c 1 --grid 1,2",
        (
            "error: --grid: grid wants "
            "re_min,re_max,im_min,im_max,nx,ny, got '1,2'\n"
        ),
    ),
    "limitset-grid-token": (
        "limitset --symbol 1,0,1 --c 1 --grid 1,2,3,4,x,1",
        (
            "error: --grid: bad grid '1,2,3,4,x,1': invalid literal "
            "for int() with base 10: 'x'\n"
        ),
    ),
    "limitset-grid-finite": (
        "limitset --symbol 1,0,1 --c 1 --grid 0,1,0,inf,3,3",
        (
            "error: --grid: bad grid '0,1,0,inf,3,3': grid bounds must "
            "be finite\n"
        ),
    ),
    "limitset-grid-size": (
        "limitset --symbol 1,0,1 --c 1 --grid 0,1,0,1,0,3",
        (
            "error: --grid: bad grid '0,1,0,1,0,3': grid needs nx, ny "
            ">= 1, got 0, 3\n"
        ),
    ),
    "limitset-grid-order": (
        "limitset --symbol 1,0,1 --c 1 --grid 1,0,0,1,3,3",
        (
            "error: --grid: bad grid '1,0,0,1,3,3': grid ranges must "
            "satisfy max >= min\n"
        ),
    ),
    "limitset-grid-span": (
        "limitset --symbol 1,0,1 --c 1 --grid=-1e308,1e308,-1,1,5,1 --format json",
        (
            "error: --grid: bad grid '-1e308,1e308,-1,1,5,1': grid spans must "
            "be finite\n"
        ),
    ),
    "limitset-tol-negative": (
        "limitset --symbol 1,0,1 --c 1 --grid=-1,1,-1,1,3,3 --tol -1",
        "error: --tol must be >= 0, got -1.0\n",
    ),
    "limitset-tol-negative-exponent": (
        "limitset --symbol 1,0,1 --c 1 --grid=-1,1,-1,1,3,3 --tol -1e-2",
        "error: --tol must be >= 0, got -0.01\n",
    ),
    "limitset-tol-missing": (
        "limitset --symbol 1,0,1 --c 1 --grid=-1,1,-1,1,3,3 --tol --format text",
        (
            "usage: bandschur limitset [-h] --symbol SYMBOL --c C "
            "--grid GRID [--tol TOL]\n"
            "                          [--format {csv,json,text}]\n"
            "bandschur limitset: error: argument --tol: expected one "
            "argument\n"
        ),
    ),
    "limitset-grid-abbreviated": (
        "limitset --symbol 1,0,1 --c 2 --gri -3,3,-1,1,5,5",
        "error: --c must be in 1..1, got 2\n",
    ),
    "limitset-tol-nan": (
        "limitset --symbol 1,0,1 --c 1 --grid=-1,1,-1,1,3,3 --tol nan",
        "error: --tol must be finite, got nan\n",
    ),
    "limitset-tol-inf": (
        "limitset --symbol 1,0,1 --c 1 --grid=-1,1,-1,1,3,3 --tol inf",
        "error: --tol must be finite, got inf\n",
    ),
    "limitset-grid-missing": (
        "limitset --symbol 1,0,1 --c 1",
        (
            "usage: bandschur limitset [-h] --symbol SYMBOL --c C "
            "--grid GRID [--tol TOL]\n"
            "                          [--format {csv,json,text}]\n"
            "bandschur limitset: error: the following arguments are "
            "required: --grid\n"
        ),
    ),
    "eigs-symbol-token": (
        "eigs --symbol 1,x --k 2",
        "error: --symbol: bad complex token 'x'\n",
    ),
    "eigs-k": (
        "eigs --symbol 1,2 --k 0",
        "error: --k must be >= 1, got 0\n",
    ),
    "eigs-c-and-beta": (
        "eigs --symbol 1,2 --k 2 --c 1 --beta 1",
        "error: give either --c or --alpha/--beta, not both\n",
    ),
    "eigs-c-and-alpha": (
        "eigs --symbol 1,2 --k 2 --c 1 --alpha 1",
        "error: give either --c or --alpha/--beta, not both\n",
    ),
    "eigs-c-high": (
        "eigs --symbol 1,2 --k 2 --c 2",
        "error: --c must be in 1..1, got 2\n",
    ),
    "eigs-c-low": (
        "eigs --symbol 1,2 --k 2 --c 0",
        "error: --c must be in 1..1, got 0\n",
    ),
    "eigs-spec": (
        "eigs --symbol 1,2 --k 2 --beta 0",
        "error: deleted_cols must be positive: (0,)\n",
    ),
    "compare-symbol-token": (
        "compare --symbol 1,x --c 1 --k 10 --grid=-1,1,-1,1,3,3",
        "error: --symbol: bad complex token 'x'\n",
    ),
    "compare-c-high": (
        "compare --symbol 1,0,1 --c 2 --k 10 --grid=-1,1,-1,1,3,3",
        "error: --c must be in 1..1, got 2\n",
    ),
    "compare-c-low": (
        "compare --symbol 1,0,1 --c 0 --k 10 --grid=-1,1,-1,1,3,3",
        "error: --c must be in 1..1, got 0\n",
    ),
    "compare-top-coefficient": (
        "compare --symbol 1,0,0 --c 1 --k 10 --grid=-1,1,-1,1,3,3",
        "error: --symbol: top coefficient s_n must be nonzero\n",
    ),
    "compare-k": (
        "compare --symbol 1,0,1 --c 1 --k 0 --grid=-1,1,-1,1,3,3",
        "error: --k must be >= 1, got 0\n",
    ),
    "compare-grid-count": (
        "compare --symbol 1,0,1 --c 1 --k 10 --grid 1,2",
        (
            "error: --grid: grid wants "
            "re_min,re_max,im_min,im_max,nx,ny, got '1,2'\n"
        ),
    ),
    "compare-grid-size": (
        "compare --symbol 1,0,1 --c 1 --k 10 --grid 0,1,0,1,1,0",
        (
            "error: --grid: bad grid '0,1,0,1,1,0': grid needs nx, ny "
            ">= 1, got 1, 0\n"
        ),
    ),
    "compare-tol-negative": (
        "compare --symbol 1,0,1 --c 1 --k 10 --grid=-1,1,-1,1,3,3 --tol -1",
        "error: --tol must be >= 0, got -1.0\n",
    ),
    "compare-tol-nan": (
        "compare --symbol 1,0,1 --c 1 --k 10 --grid=-1,1,-1,1,3,3 --tol nan",
        "error: --tol must be finite, got nan\n",
    ),
    "compare-grid-missing": (
        "compare --symbol 1,0,1 --c 1 --k 10",
        (
            "usage: bandschur compare [-h] --symbol SYMBOL --c C --k K "
            "--grid GRID\n"
            "                         [--tol TOL] [--format {text,json}]\n"
            "bandschur compare: error: the following arguments are "
            "required: --grid\n"
        ),
    ),
}


class TestUsageErrors:
    """Byte-exact exit code, stdout and stderr of each usage error."""

    @pytest.mark.parametrize(
        "argv, err", USAGE_ERRORS.values(), ids=list(USAGE_ERRORS)
    )
    def test_usage_error(self, capsys, monkeypatch, argv, err):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, shlex.split(argv)) == (2, "", err)


# Each command's --help, and the top-level one, at COLUMNS=80.
HELP_GOLDENS = {
    "bandschur": """\
usage: bandschur [-h] command ...

Minors of banded Toeplitz matrices as skew Schur polynomials: exact
identities, determinant recurrences, Widom-style evaluation, and eigenvalue
limit-set scans.

positional arguments:
  command
    schur         skew Schur polynomial by both engines
    minor-det     determinant of a deleted-row/column leading minor (symbolic
                  with --nvars, numeric with --symbol, both cross-checked)
    check-identity
                  verify minor determinant = skew Schur polynomial and the
                  one-step insertion correspondence at size k
    recurrence    residuals of the minor determinant linear recurrence
    widom         evaluate the minor determinant four ways from a numeric
                  symbol
    limitset      scan a grid for eigenvalue limit-set points of a banded
                  symbol
    eigs          eigenvalues of a finite minor of the banded matrix
    compare       distance from finite-minor eigenvalues to scanned limit-set
                  hits

options:
  -h, --help      show this help message and exit
""",
    "schur": """\
usage: bandschur schur [-h] --outer OUTER [--inner INNER] --nvars NVARS
                       [--method {tableaux,jacobi-trudi,both}]
                       [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --outer OUTER         outer partition, e.g. 4,2,1
  --inner INNER         inner partition (default empty)
  --nvars NVARS         number of variables
  --method {tableaux,jacobi-trudi,both}
                        engine selection (default: both)
  --format {text,json}  output format (default: text)
""",
    "minor-det": """\
usage: bandschur minor-det [-h] [--alpha ALPHA] [--beta BETA] --k K
                           [--nvars NVARS] [--symbol SYMBOL]
                           [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --alpha ALPHA         deleted row indices, e.g. 2 or ''
  --beta BETA           deleted column indices
  --k K                 minor size
  --nvars NVARS         band width for the symbolic route
  --symbol SYMBOL       comma-separated band coefficients s_0,...,s_n; each
                        value is a complex number written as a, bi, or a+bi /
                        a-bi (example: 1,0.5-2i,3); s_0 must be 1 and is
                        prepended automatically when omitted
  --format {text,json}  output format (default: text)
""",
    "check-identity": """\
usage: bandschur check-identity [-h] [--alpha ALPHA] [--beta BETA] --nvars
                                NVARS --k K [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --alpha ALPHA         deleted row indices
  --beta BETA           deleted column indices
  --nvars NVARS         band width
  --k K                 minor size
  --format {text,json}  output format (default: text)
""",
    "recurrence": """\
usage: bandschur recurrence [-h] [--alpha ALPHA] [--beta BETA] --nvars NVARS
                            --jmax JMAX [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --alpha ALPHA         deleted row indices
  --beta BETA           deleted column indices
  --nvars NVARS         band width
  --jmax JMAX           largest offset
  --format {text,json}  output format (default: text)
""",
    "widom": """\
usage: bandschur widom [-h] --symbol SYMBOL --c C --k K [--format {text,json}]

Evaluate the minor determinant four ways from a numeric symbol; exit 1 unless
the three closed forms agree with the LU determinant to 1e-08 relative to
max(1, |det|).

options:
  -h, --help            show this help message and exit
  --symbol SYMBOL       comma-separated band coefficients s_0,...,s_n; each
                        value is a complex number written as a, bi, or a+bi /
                        a-bi (example: 1,0.5-2i,3); s_0 must be 1 and is
                        prepended automatically when omitted
  --c C                 deleted column count
  --k K                 minor size
  --format {text,json}  output format (default: text)
""",
    "limitset": """\
usage: bandschur limitset [-h] --symbol SYMBOL --c C --grid GRID [--tol TOL]
                          [--format {csv,json,text}]

options:
  -h, --help            show this help message and exit
  --symbol SYMBOL       comma-separated band coefficients s_0,...,s_n; each
                        value is a complex number written as a, bi, or a+bi /
                        a-bi (example: 1,0.5-2i,3); s_0 must be 1 and is
                        prepended automatically when omitted
  --c C                 shift index, 0 < c < n
  --grid GRID           re_min,re_max,im_min,im_max,nx,ny
  --tol TOL             relative modulus-gap threshold (default: 1e-2); near a
                        double root the scanned gaps are only good to about
                        3e-7, so a tol below about 1e-6 is below that noise
  --format {csv,json,text}
                        output format (default: csv)
""",
    "eigs": """\
usage: bandschur eigs [-h] --symbol SYMBOL --k K [--c C] [--alpha ALPHA]
                      [--beta BETA] [--format {csv,json,text}]

options:
  -h, --help            show this help message and exit
  --symbol SYMBOL       comma-separated band coefficients s_0,...,s_n; each
                        value is a complex number written as a, bi, or a+bi /
                        a-bi (example: 1,0.5-2i,3); s_0 must be 1 and is
                        prepended automatically when omitted
  --k K                 minor size
  --c C                 delete the first c columns (contiguous minor)
  --alpha ALPHA         deleted row indices
  --beta BETA           deleted column indices
  --format {csv,json,text}
                        output format (default: csv)
""",
    "compare": """\
usage: bandschur compare [-h] --symbol SYMBOL --c C --k K --grid GRID
                         [--tol TOL] [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --symbol SYMBOL       comma-separated band coefficients s_0,...,s_n; each
                        value is a complex number written as a, bi, or a+bi /
                        a-bi (example: 1,0.5-2i,3); s_0 must be 1 and is
                        prepended automatically when omitted
  --c C                 shift index, 0 < c < n
  --k K                 minor size
  --grid GRID           re_min,re_max,im_min,im_max,nx,ny
  --tol TOL             relative modulus-gap threshold (default: 1e-2); near a
                        double root the scanned gaps are only good to about
                        3e-7, so a tol below about 1e-6 is below that noise
  --format {text,json}  output format (default: text)
""",
}


class TestHelpGoldens:
    """Byte-exact --help of the parser and of each command."""

    @pytest.mark.parametrize("command", list(HELP_GOLDENS))
    def test_help(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [] if command == "bandschur" else [command]
        assert run(capsys, [*argv, "--help"]) == (0, HELP_GOLDENS[command], "")
