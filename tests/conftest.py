import signal
from itertools import combinations

import pytest
from hypothesis import HealthCheck, settings

from bandschur.polyring import MultiPoly

# wall-clock seconds a test may run, set-up included; the slowest takes a
# few seconds, so a test past this is stuck in a loop, not slow
TEST_TIME_LIMIT_S = 60

settings.register_profile(
    "bandschur",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("bandschur")


class TimeLimitExceeded(BaseException):
    """A test ran past TEST_TIME_LIMIT_S.

    Not an Exception, nor pytest's Failed: hypothesis catches those to
    shrink the example, and would rerun the stuck one with no limit left.
    """


@pytest.fixture(autouse=True)
def _time_limit():
    """Fail a test that runs past TEST_TIME_LIMIT_S instead of hanging.

    SIGALRM interrupts the test between bytecodes and raises
    TimeLimitExceeded, which pytest reports as the test's failure.  The
    previous handler is restored afterwards.
    """

    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran past {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _vieta_x_coeffs(band, extra):
    """Q_0..Q_b in x_1..x_band, multiplied out in x: the x-product oracle.

    Q_i is (-1)^i times the i-th elementary symmetric polynomial of the
    subset products x_S, |S| = extra (Vieta on prod_S (t - x_S)).
    """
    products = []
    for combo in combinations(range(1, band + 1), extra):
        m = MultiPoly.one(band)
        for i in combo:
            m = m * MultiPoly.variable(band, i)
        products.append(m)
    out = []
    for i in range(len(products) + 1):
        esym = MultiPoly.zero(band)
        for combo in combinations(products, i):
            m = MultiPoly.one(band)
            for p in combo:
                m = m * p
            esym = esym + m
        out.append(esym if i % 2 == 0 else -esym)
    return out


@pytest.fixture(scope="session")
def vieta_x_coeffs():
    """The x-product oracle for recurrence coefficients, as a function."""
    return _vieta_x_coeffs
