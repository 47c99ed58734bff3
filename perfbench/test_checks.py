"""Tests of perfbench's own checkers.

Run from the repository root:  python3 -m pytest -q perfbench

Each checker must accept what the CLI prints today and reject the same
output with one value changed.
"""

import contextlib
import io
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from bandschur import cli  # noqa: E402


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 0, err.getvalue()
    return out.getvalue(), err.getvalue()


def test_det_exact_matches_numpy_on_integer_matrices():
    rng = np.random.default_rng(0)
    for size in range(0, 7):
        m = rng.integers(-4, 5, (size, size))
        want = round(np.linalg.det(m)) if size else 1
        assert checks.det_exact(m.tolist()) == want


def test_det_exact_fractions_and_pivoting():
    m = [[0, Fraction(1, 2)], [Fraction(3, 4), 5]]
    assert checks.det_exact(m) == Fraction(-3, 8)
    assert checks.det_exact([[0, 1], [0, 2]]) == 0


def test_elementary_values_and_q():
    assert checks.elementary_values([2, 3, 5]) == [1, 10, 31, 30]
    # (t - 2)(t - 3) = t^2 - 5t + 6
    assert checks.recurrence_q([2, 3], 1) == [1, -5, 6]
    # extra = 2 over three variables: (t - 6)(t - 10)(t - 15)
    assert checks.recurrence_q([2, 3, 5], 2) == [1, -31, 300, -900]


def test_dual_jacobi_trudi_counts_tableaux():
    assert checks.dual_jacobi_trudi((2, 1), (), [1, 1, 1]) == 8
    assert checks.dual_jacobi_trudi((1,), (), [2, 3]) == 5
    assert checks.dual_jacobi_trudi((2, 2), (1,), [1, 1]) == 2
    assert checks.dual_jacobi_trudi((1, 1, 1), (), [1, 1]) == 0


def test_poly_text_and_complex_parsing():
    assert checks.eval_poly_text("2*x1^2*x2 - x2 + 4", [3, 5]) == 2 * 9 * 5 - 5 + 4
    assert checks.eval_poly_text("-x1", [7]) == -7
    assert checks.eval_poly_text("0", [1]) == 0
    for text, value in [("1.5", 1.5), ("-2i", -2j), ("1e-05+3.5i", 1e-5 + 3.5j),
                        ("-0.25-1.5e-07i", -0.25 - 1.5e-7j)]:
        assert checks.parse_complex(text) == value


def _mutations(out):
    """The output with each digit in turn bumped, one at a time."""
    for pos, ch in enumerate(out):
        if ch.isdigit():
            yield out[:pos] + str((int(ch) + 1) % 10) + out[pos + 1:]


def _rejects(check, out, err) -> bool:
    try:
        return check(out, err) is not None
    except (ValueError, IndexError, KeyError):  # unreadable output is rejected too
        return True


def _assert_checked(check, out, err=""):
    assert check(out, err) is None
    rejected = [_rejects(check, bad, err) for bad in _mutations(out)]
    assert rejected and all(rejected), "a changed digit went unnoticed"


def test_recurrence_checker():
    argv = ["recurrence", "--alpha", "2", "--beta", "1,3", "--nvars", "3", "--jmax", "3"]
    out, err = run_cli(argv)
    assert "nonzero" in out
    _assert_checked(
        lambda o, e: checks.check_recurrence(o, (2,), (1, 3), 3, 3, [2, 3, 5]), out, err
    )


def test_identity_and_schur_checkers():
    out, err = run_cli(["check-identity", "--alpha", "2", "--beta", "1,3",
                        "--nvars", "3", "--k", "2"])
    _assert_checked(lambda o, e: checks.check_identity(o, (2,), (1, 3), 3, 2), out, err)
    out, err = run_cli(["schur", "--outer", "3,2,1", "--inner", "1", "--nvars", "3"])
    _assert_checked(lambda o, e: checks.check_schur(o, (3, 2, 1), (1,), 3, [2, -3, 5]),
                    out, err)


def test_pointwise_checkers():
    s = [Fraction(1), Fraction(5), Fraction(6)]
    out, err = run_cli(["widom", "--symbol", "1,5,6", "--c", "1", "--k", "3"])
    assert checks.check_widom(out, s, 1, 3) is None
    assert checks.check_widom(out.replace("minor-det: ", "minor-det: 1"), s, 1, 3)
    out, err = run_cli(["minor-det", "--symbol", "1,5,6", "--nvars", "2", "--beta", "2",
                        "--k", "3"])
    assert checks.check_minor_det(out, s, (), (2,), 3, [2, 7]) is None
    assert checks.check_minor_det(out, s, (), (2,), 4, [2, 7])
    out, err = run_cli(["eigs", "--symbol", "1,0.3,0.8", "--c", "1", "--k", "12"])
    assert checks.check_tridiagonal_eigs(out, 0.3, 0.8, 12) is None
    assert checks.check_tridiagonal_eigs(out, 0.3, 0.81, 12)


def test_known_fault_eigs_fails_its_check():
    for k in (20, 50, 80):
        out, err = run_cli(["eigs", "--symbol", "1,0.5,0.01", "--c", "1", "--k", str(k)])
        assert checks.check_tridiagonal_eigs(out, 0.5, 0.01, k) is not None


def test_limitset_and_compare_checkers():
    grid = (-3.0, 3.0, -1.0, 1.0, 61, 21)
    text = "-3,3,-1,1,61,21"
    out, err = run_cli(["limitset", "--symbol", "1,0,1", "--c", "1", "--grid", text])
    assert checks.check_limitset(out, err, [1, 0, 1], 1, grid, 1e-2, segment=True) is None
    lines = out.splitlines()
    assert checks.check_limitset("\n".join(lines[:-1]), err, [1, 0, 1], 1, grid, 1e-2)
    assert checks.check_limitset(out, "error: 3 grid points did not converge",
                                 [1, 0, 1], 1, grid, 1e-2)
    out, err = run_cli(["compare", "--symbol", "1,0,1", "--c", "1", "--k", "10",
                        "--grid", text])
    assert checks.check_compare(out, [1, 0, 1], 1, 10, grid, 1e-2) is None
    assert checks.check_compare(out.replace("hits: ", "hits: 9"), [1, 0, 1], 1, 10, grid, 1e-2)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_rounds_are_seeded_and_distinct(name):
    rounds = workloads.round_count(name, 12)  # a full run at the benchmark's length

    def argvs(seed):
        batches = list(workloads.WORKLOADS[name](random.Random(f"{name}:{seed}"), rounds))
        assert len(batches) == rounds and len({len(b) for b in batches}) == 1
        return [c.argv for b in batches for c in b]

    first = argvs(1)
    assert first == argvs(1) and first != argvs(2)
    fresh = [tuple(a) for a in first if workloads.FAULT_SYMBOL not in a]
    assert len(set(fresh)) == len(fresh)


def test_run_longer_than_a_pool_is_refused():
    with pytest.raises(ValueError, match="smaller --seconds"):
        next(workloads.recurrence_rounds(random.Random(0),
                                         workloads.round_count("recurrence", 600)))
