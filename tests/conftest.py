"""Suite-wide settings: a wall-clock limit per test, and a shared draw of L's elements.

The limit turns an endless loop (say, a division that never steps down)
into a failing test instead of a hung suite.  It is set with
``signal.alarm``, so it holds where SIGALRM exists, and it covers each
test's setup, call and teardown together, and each module's collection.
"""

import signal

import pytest

from m2alg.poly import BiPoly

# seconds per test: about 30 times the slowest test of the suite
TEST_TIME_LIMIT = 60


def _time_out(signum, frame):
    raise TimeoutError(f"over the {TEST_TIME_LIMIT} s limit per test")


@pytest.hookimpl(hookwrapper=True)
def _under_alarm():
    """Run the wrapped hook, one test's run or one module's collection, under the alarm."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.alarm(TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


pytest_runtest_protocol = pytest_make_collect_report = _under_alarm


def random_element(ring, rng):
    """A random element of the quotient ring: up to four terms of s- and t-degree <= 2."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[(rng.randint(0, 2), rng.randint(0, 2))] = ring.field.random_element(rng)
    return ring.of(BiPoly(terms, ring.field))
