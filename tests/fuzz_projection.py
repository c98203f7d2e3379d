"""The three seeded fuzzes at full size: how each case ends.

Usage::

    PYTHONPATH=src python tests/fuzz_projection.py [N]

Draws ``N`` cases (4,000 by default) of each fuzz from seed 0, with
:func:`helpers.near_dependent_problem`, :func:`helpers.moment_problem` and
:func:`helpers.nested_problem`; the first two are the draws whose first 200
``test_near_dependent_rows_fuzz`` and ``TestFace::test_moment_fuzz`` solve
in the test suite.  The projection fuzzes solve each case with
:func:`totem.newton_project` and check a result with the projection oracle
at 1e-9; the nested fuzz runs :func:`totem.i_test` on the coarse and fine
elements and checks its ``Q`` against the likelihood-ratio form of the two
projections lifted to entities (:func:`helpers.likelihood_ratio_q`) within
its bound, 1e-10 relative plus 1e-12 absolute.  Warnings are raised as
errors.  For each fuzz it prints the number returned, the count of each
``TotemError`` cause (its type and its message up to the first number, so
that a budget, a no-descent and an underflow ``NonConvergenceError`` count
apart), the worst oracle error with its case, the oracle misses and the
untyped errors; a line of at most ten cases lists their case numbers.  It exits 1
if there are misses or untyped errors.  The file is not named ``test_*``,
so pytest does not collect it.
"""

import collections
import re
import sys
import warnings

import numpy as np

from totem import TotemError, i_test, newton_project

from helpers import (likelihood_ratio_q, moment_problem, near_dependent_problem, nested_problem,
                     projection_errors)


def project(reference, plex):
    """The projection oracle's error on :func:`newton_project`'s result, and
    whether it is within 1e-9."""
    result = newton_project(reference, plex)
    element = plex.element
    error = max(projection_errors(element.columns[0],
                                  element.group_sums(result.distribution.admissible),
                                  element.group_sums(plex.empirical.admissible),
                                  element.group_sums(reference.admissible)))
    return error, error <= 1e-9


def nested_test(reference, outer, plex):
    """``|Q - Q_lr|`` for :func:`i_test`'s ``Q`` and the entity-level
    likelihood-ratio form ``Q_lr``, in units of its bound
    ``1e-10 |Q_lr| + 1e-12``, and whether it is within it."""
    n = plex.empirical.n_samples
    q = i_test(reference, outer, plex.element, plex.empirical, n).q_statistic
    expected = likelihood_ratio_q(reference, outer, plex)
    error = abs(q - expected) / (1e-10 * abs(expected) + 1e-12)
    return error, error <= 1.0


FUZZES = {
    "near-dependent": (near_dependent_problem, project, "projection oracle error"),
    "moments": (moment_problem, project, "projection oracle error"),
    "nested": (nested_problem, nested_test, "Q error against the likelihood ratio / its bound"),
}


def outcome(check, case):
    """``("returned", error)``, ``("miss", error)`` (returned, but off the
    oracle), or the cause of the ``TotemError`` raised, or ``"untyped
    <name>"``, with no error."""
    try:
        error, within = check(*case)
    except TotemError as exc:
        message = re.split(r"\d", str(exc), maxsplit=1)[0].rstrip(" (")
        return f"{type(exc).__name__}: {message}", None
    except Exception as exc:  # a warning raised as an error lands here too
        return f"untyped {type(exc).__name__}", None
    return ("returned" if within else "miss"), error


def outcomes(draw, check, n, seed=0):
    """The :func:`outcome` of each of the first ``n`` cases ``draw`` makes."""
    rng = np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return [outcome(check, draw(rng)) for _ in range(n)]


def main(n):
    failed = False
    for name, (draw, check, measure) in FUZZES.items():
        ends = outcomes(draw, check, n)
        cases = collections.defaultdict(list)
        for i, (end, _) in enumerate(ends):
            cases["oracle misses" if end == "miss" else
                  "untyped errors" if end.startswith("untyped") else end].append(i)
        print(f"{name}: {n} cases, seed 0")
        print(f"  {len(cases['returned']) + len(cases['oracle misses']):>5}  returned")
        for end in sorted(set(cases) - {"returned", "oracle misses", "untyped errors"}):
            listed = f" {cases[end]}" if len(cases[end]) <= 10 else ""
            print(f"  {len(cases[end]):>5}  {end}{listed}")
        errors = [(error, i) for i, (_, error) in enumerate(ends) if error is not None]
        if errors:
            worst, case = max(errors)
            print(f"  worst {measure}: {worst:.3g} (case {case})")
        untyped = [(i, ends[i][0]) for i in cases["untyped errors"]]
        print(f"  {len(cases['oracle misses']):>5}  oracle misses {cases['oracle misses']}")
        print(f"  {len(untyped):>5}  untyped errors {untyped}")
        failed = failed or bool(cases["oracle misses"] or cases["untyped errors"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 4_000))
