"""The three seeded fuzzes at full size: how each case ends.

Usage::

    PYTHONPATH=src python tests/fuzz_projection.py [N]

Draws ``N`` cases (4,000 by default) of each fuzz from seed 0, with
:func:`helpers.near_dependent_problem`, :func:`helpers.moment_problem` and
:func:`helpers.nested_problem`; the first two are the draws whose first 200
``test_near_dependent_rows_fuzz`` and ``TestFace::test_moment_fuzz`` solve
in the test suite.  The projection fuzzes solve each case with
:func:`totem.newton_project` and check a result with the projection oracle
and with the weight oracle (:func:`helpers.weight_error`), each at 1e-9;
the nested fuzz runs :func:`totem.i_test` on the coarse and fine elements
and checks its ``Q`` against the likelihood-ratio form of the two
projections lifted to entities (:func:`helpers.likelihood_ratio_q`) within
its bound, 1e-10 relative plus 1e-12 absolute.  Warnings are raised as
errors.  For each fuzz it prints the number returned, the count of each
``TotemError`` cause (its type and its message up to the first number, so
that a budget, a no-descent and an underflow ``NonConvergenceError`` count
apart), then for each oracle the worst error with its case and the misses,
and the untyped errors; a line of at most ten cases lists their case
numbers.  It exits 1 if there are misses, other than those of
``KNOWN_MISSES``, or untyped errors.  The file is not named ``test_*``, so
pytest does not collect it.
"""

import collections
import re
import sys
import warnings

import numpy as np

from totem import TotemError, i_test, newton_project

from helpers import (likelihood_ratio_q, moment_problem, near_dependent_problem, nested_problem,
                     projection_errors, weight_error)

#: Misses reported but not failed, per fuzz and oracle.  Moments case 661
#: is 6.8e-5 off the weight oracle: on the 4 levels its face leaves,
#: ``_row_basis`` keeps rank 3 under ``PIVOT_TOL``, so the family there is
#: not one point.  That is a rank decision, not the stop.
KNOWN_MISSES = {("moments", "weight oracle"): {661}}


def project(reference, plex):
    """The projection and weight oracles' errors on :func:`newton_project`'s
    result, each with whether it is within 1e-9."""
    result = newton_project(reference, plex)
    element = plex.element
    masses = [element.group_sums(d.admissible)
              for d in (result.distribution, plex.empirical, reference)]
    rows = element.columns[0]
    errors = max(projection_errors(rows, *masses)), weight_error(rows, *masses)
    return tuple((error, error <= 1e-9) for error in errors)


def nested_test(reference, outer, plex):
    """``|Q - Q_lr|`` for :func:`i_test`'s ``Q`` and the entity-level
    likelihood-ratio form ``Q_lr``, in units of its bound
    ``1e-10 |Q_lr| + 1e-12``, with whether it is within it."""
    n = plex.empirical.n_samples
    q = i_test(reference, outer, plex.element, plex.empirical, n).q_statistic
    expected = likelihood_ratio_q(reference, outer, plex)
    error = abs(q - expected) / (1e-10 * abs(expected) + 1e-12)
    return ((error, error <= 1.0),)


FUZZES = {
    "near-dependent": (near_dependent_problem, project, ("projection oracle", "weight oracle")),
    "moments": (moment_problem, project, ("projection oracle", "weight oracle")),
    "nested": (nested_problem, nested_test, ("likelihood ratio",)),
}


def outcome(check, case):
    """``("returned", checks)`` with each oracle's ``(error, within)``, or the
    cause of the ``TotemError`` raised, or ``"untyped <name>"``, with
    ``None``."""
    try:
        return "returned", check(*case)
    except TotemError as exc:
        message = re.split(r"\d", str(exc), maxsplit=1)[0].rstrip(" (")
        return f"{type(exc).__name__}: {message}", None
    except Exception as exc:  # a warning raised as an error lands here too
        return f"untyped {type(exc).__name__}", None


def outcomes(draw, check, n, seed=0):
    """The :func:`outcome` of each of the first ``n`` cases ``draw`` makes."""
    rng = np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return [outcome(check, draw(rng)) for _ in range(n)]


def main(n):
    failed = False
    for name, (draw, check, oracles) in FUZZES.items():
        ends = outcomes(draw, check, n)
        cases = collections.defaultdict(list)
        for i, (end, _) in enumerate(ends):
            cases["untyped errors" if end.startswith("untyped") else end].append(i)
        print(f"{name}: {n} cases, seed 0")
        print(f"  {len(cases['returned']):>5}  returned")
        for end in sorted(set(cases) - {"returned", "untyped errors"}):
            listed = f" {cases[end]}" if len(cases[end]) <= 10 else ""
            print(f"  {len(cases[end]):>5}  {end}{listed}")
        for k, oracle in enumerate(oracles):
            checked = [(checks[k][0], i) for i, (_, checks) in enumerate(ends) if checks]
            misses = [i for i, (_, checks) in enumerate(ends) if checks and not checks[k][1]]
            if checked:
                worst, case = max(checked)
                print(f"  worst {oracle} error: {worst:.3g} (case {case})")
            known = KNOWN_MISSES.get((name, oracle), set()) & set(misses)
            note = f" (known: {sorted(known)})" if known else ""
            print(f"  {len(misses):>5}  {oracle} misses {misses}{note}")
            failed = failed or bool(set(misses) - known)
        untyped = [(i, ends[i][0]) for i in cases["untyped errors"]]
        print(f"  {len(untyped):>5}  untyped errors {untyped}")
        failed = failed or bool(untyped)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 4_000))
