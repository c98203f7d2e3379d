"""The two seeded projection fuzzes at full size: how each case ends.

Usage::

    PYTHONPATH=src python tests/fuzz_projection.py [N]

Draws ``N`` cases (4,000 by default) of each fuzz from seed 0, with
:func:`helpers.near_dependent_problem` and :func:`helpers.moment_problem`,
the draws whose first 200 ``test_near_dependent_rows_fuzz`` and
``TestFace::test_moment_fuzz`` solve in the test suite.  Each case is
solved with :func:`totem.newton_project`, warnings raised as errors, and a
result is checked with the projection oracle at 1e-9.  For each fuzz it
prints the number returned, the count of each ``TotemError`` cause (its
type and its message up to the first number, so that a budget, a
no-descent and an underflow ``NonConvergenceError`` count apart), the
oracle misses and the untyped errors; a line of at most ten cases lists
their case numbers.  It exits 1 if there are misses or untyped errors.
The file is not named ``test_*``, so pytest does not collect it.
"""

import collections
import re
import sys
import warnings

import numpy as np

from totem import TotemError, newton_project

from helpers import assert_projection, moment_problem, near_dependent_problem

FUZZES = {"near-dependent": near_dependent_problem, "moments": moment_problem}


def outcome(reference, plex):
    """``"returned"``, ``"miss"`` (returned, but off the oracle at 1e-9),
    the cause of the ``TotemError`` raised, or ``"untyped <name>"``."""
    try:
        result = newton_project(reference, plex)
    except TotemError as exc:
        message = re.split(r"\d", str(exc), maxsplit=1)[0].rstrip(" (")
        return f"{type(exc).__name__}: {message}"
    except Exception as exc:  # a warning raised as an error lands here too
        return f"untyped {type(exc).__name__}"
    try:
        assert_projection(result, plex, reference, 1e-9)
    except AssertionError:
        return "miss"
    return "returned"


def outcomes(draw, n, seed=0):
    """The :func:`outcome` of each of the first ``n`` cases ``draw`` makes."""
    rng = np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return [outcome(*draw(rng)) for _ in range(n)]


def main(n):
    failed = False
    for name, draw in FUZZES.items():
        ends = outcomes(draw, n)
        cases = collections.defaultdict(list)
        for i, end in enumerate(ends):
            cases["oracle misses" if end == "miss" else
                  "untyped errors" if end.startswith("untyped") else end].append(i)
        print(f"{name}: {n} cases, seed 0")
        print(f"  {len(cases['returned']) + len(cases['oracle misses']):>5}  returned")
        for end in sorted(set(cases) - {"returned", "oracle misses", "untyped errors"}):
            listed = f" {cases[end]}" if len(cases[end]) <= 10 else ""
            print(f"  {len(cases[end]):>5}  {end}{listed}")
        untyped = [(i, ends[i]) for i in cases["untyped errors"]]
        print(f"  {len(cases['oracle misses']):>5}  oracle misses {cases['oracle misses']}")
        print(f"  {len(untyped):>5}  untyped errors {untyped}")
        failed = failed or bool(cases["oracle misses"] or cases["untyped errors"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 4_000))
