"""Distributions over entity spaces and their information metrics.

A :class:`Distribution` is an immutable nonnegative weight vector over the
full entity enumeration, normalized to one.  Reference distributions may
put weight on inadmissible entities (prior knowledge is declared on the
full space); distributions built from data or produced by projections are
zero there by construction.

All metrics sum over admissible entities only, with numpy's pairwise
summation: the rounding error of a sum of ``n`` terms is bounded by about
``log2(n) * eps * sum|terms|`` (``eps = 2.2e-16``), below 1e-14 relative
to the terms' magnitude for any space that fits in memory.  The same rule
covers operator expectations, and with them every element's targets;
:func:`log_multinomial` alone keeps compensated summation.
Incompatible pairs (``p > 0`` where ``q == 0``) yield ``math.inf``;
callers are expected to test with ``math.isinf`` before feeding results
into further arithmetic.
"""

from __future__ import annotations

import json
import math
from math import fsum, lgamma

import numpy as np

from .errors import DataError, SpaceError, TotemError

__all__ = [
    "Distribution",
    "uniform",
    "cross_entropy",
    "i_divergence",
    "log_multinomial",
    "log_multinomial_leading",
    "max_norm_distance",
    "load_distribution",
    "distribution_to_dict",
    "distribution_from_dict",
]

_NORMALIZATION_TOL = 1e-12


class Distribution:
    """Immutable probability weights over the entities of a space.

    Parameters
    ----------
    space : EntitySpace
    weights : array_like
        One nonnegative weight per entity of the full enumeration,
        summing to one within 1e-12.

    ``counts`` and ``n_samples`` are ``None`` unless the distribution came
    from data through :meth:`from_counts`; its frequencies are then the
    exact ratios ``counts / n_samples``.
    """

    __slots__ = ("space", "weights", "counts", "n_samples", "_admissible", "_positive")

    def __init__(self, space, weights):
        self._check(space, np.array(weights, dtype=np.float64))

    def _check(self, space, weights):
        """Check and hold ``weights``, an array no one else holds; zero its rounding negatives."""
        if weights.shape != (space.n_entities,):
            raise SpaceError(
                f"weight vector has shape {weights.shape}, expected ({space.n_entities},)"
            )
        if not np.all(np.isfinite(weights)):
            raise TotemError("distribution weights must be finite")
        if weights.min(initial=0.0) < -1e-12:
            raise TotemError(f"negative weight {weights.min()} in distribution")
        weights[weights < 0.0] = 0.0
        total = float(np.sum(weights))
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise TotemError(f"weights sum to {total!r}, not 1 within {_NORMALIZATION_TOL}")
        self._hold(space, weights)
        return self

    def _hold(self, space, weights):
        """Set the slots on checked ``weights`` that no one else holds,
        frozen in place."""
        weights.setflags(write=False)
        self.space = space
        self.weights = weights
        self.counts = None
        self.n_samples = None
        if space.n_admissible == space.n_entities:
            self._admissible = weights.view()
        else:
            adm = weights[space.admissible_indices]
            adm.setflags(write=False)
            self._admissible = adm
        self._positive = None

    @classmethod
    def from_admissible_weights(cls, space, weights, renormalize=False):
        """Scatter compact per-admissible weights into the full enumeration,
        divided by their sum (which must be positive) when ``renormalize``."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (space.n_admissible,):
            raise SpaceError(
                f"expected {space.n_admissible} admissible weights, got {weights.shape}"
            )
        if space.n_admissible < space.n_entities:
            full = np.zeros(space.n_entities)
            full[space.admissible_indices] = weights
        else:  # the caller's array stays writable and unshared
            full = weights if renormalize else weights.copy()
        if renormalize:
            total = float(np.sum(full))
            if total <= 0:
                raise TotemError("cannot normalize an all-zero weight vector")
            full = full / total
        return cls.__new__(cls)._check(space, full)

    @classmethod
    def from_counts(cls, space, counts, n_samples=None):
        """Frequencies ``counts / N`` of whole, finite, nonnegative counts
        (whole floats such as ``2.0`` count; bools and strings do not)."""
        counts = _count_array(counts)
        if counts.shape != (space.n_entities,):
            raise SpaceError(
                f"count vector has shape {counts.shape}, expected ({space.n_entities},)"
            )
        total = int(counts.sum())
        n = total if n_samples is None else int(n_samples)
        if n <= 0:
            raise DataError("sample size must be positive")
        if total != n:
            raise DataError(f"counts sum to {total}, expected N={n}")
        if space.n_admissible < space.n_entities:
            violations = counts[~space.admissible_mask]
            if violations.any():
                bad = np.flatnonzero(~space.admissible_mask)[violations > 0][0]
                raise DataError(
                    f"declared nullentity {space.entity_at(int(bad))!r} observed "
                    f"{int(counts[bad])} time(s) in the data"
                )
        # whole nonnegative counts summing to n > 0: their frequencies are
        # finite, nonnegative and sum to one within rounding, unchecked
        dist = cls.__new__(cls)
        dist._hold(space, counts / n)
        counts = counts.copy()  # the caller's array stays writable
        counts.setflags(write=False)
        dist.counts = counts
        dist.n_samples = n
        return dist

    @property
    def admissible(self):
        """Weights restricted to admissible entities, in enumeration order.

        Read-only; for a space without nullentities it is a view of
        ``weights``, not a copy.
        """
        return self._admissible

    def _support(self):
        """The positive-weight entities: their indices in the full
        enumeration and their positions among the admissible entities.

        Computed on first use and cached, read-only; for a space without
        nullentities the two are one array.
        """
        if self._positive is None:
            full = np.flatnonzero(self.weights > 0.0)
            space = self.space
            if space.n_admissible == space.n_entities:
                adm = full
            else:
                adm = np.searchsorted(space.admissible_indices, full[space.admissible_mask[full]])
                adm.setflags(write=False)
            full.setflags(write=False)
            self._positive = (full, adm)
        return self._positive

    def __repr__(self):
        return f"Distribution(space={self.space!r}, support={int(np.count_nonzero(self.weights))})"


def uniform(space, support="admissible"):
    """Equal weight on every supported entity.

    ``support`` is one of two values: ``"admissible"`` (the default)
    spreads mass over admissible entities only, and ``"full"`` over the
    whole enumeration (the maximally agnostic reference, which may sit on
    declared nullentities).  Any other value raises :class:`SpaceError`.
    """
    if support == "admissible":
        w = np.full(space.n_admissible, 1.0 / space.n_admissible)
        return Distribution.from_admissible_weights(space, w)
    if support == "full":
        return Distribution(space, np.full(space.n_entities, 1.0 / space.n_entities))
    raise SpaceError(f"support must be 'full' or 'admissible', got {support!r}")


def _check_same_space(p, q):
    if not p.space.same_space(q.space):
        raise SpaceError("distributions live on different entity spaces")


def cross_entropy(p, q):
    """Negative expectation under ``p`` of ``log q`` over admissible entities.

    Returns ``math.inf`` when ``p`` puts weight where ``q`` has none.
    """
    _check_same_space(p, q)
    pw, qw = p.admissible, q.admissible
    mask = pw > 0.0
    if np.any(qw[mask] <= 0.0):
        return math.inf
    terms = -pw[mask] * np.log(qw[mask])
    return float(np.sum(terms))


def i_divergence(p, q):
    """Information divergence ``sum p log(p/q)`` over admissible entities.

    Nonnegative; zero iff the distributions coincide. ``math.inf`` when
    ``p`` puts weight where ``q`` has none.
    """
    _check_same_space(p, q)
    pw, qw = p.admissible, q.admissible
    mask = pw > 0.0
    if np.any(qw[mask] <= 0.0):
        return math.inf
    terms = pw[mask] * (np.log(pw[mask]) - np.log(qw[mask]))
    return max(float(np.sum(terms)), 0.0)


def _count_array(counts):
    """``counts`` as int64; :class:`DataError` unless every count is a whole,
    finite, nonnegative number.  Integer input is only checked for sign."""
    counts = np.asarray(counts)
    kind = counts.dtype.kind
    if kind == "f":
        # written so that NaN, which fails every comparison, fails the check
        if not np.all((counts >= 0.0) & (counts < 2.0**63) & (np.floor(counts) == counts)):
            raise DataError("counts must be whole, finite and nonnegative")
    elif kind not in "iu":
        raise DataError(f"counts must be whole numbers, got an array of {counts.dtype}")
    counts = counts.astype(np.int64, copy=False)
    if counts.min(initial=0) < 0:
        raise DataError("negative count")
    return counts


def _counts_over_full(space, counts):
    counts = _count_array(counts)
    if counts.shape == (space.n_admissible,):
        full = np.zeros(space.n_entities, dtype=np.int64)
        full[space.admissible_indices] = counts
        return full
    if counts.shape == (space.n_entities,):
        return counts
    raise SpaceError(
        f"count vector has shape {counts.shape}, expected ({space.n_entities},) "
        f"or ({space.n_admissible},)"
    )


def log_multinomial(counts, reference):
    """Exact log-probability of a count vector under multinomial sampling.

    ``log N! + sum_e [c_e log v_e - log c_e!]`` with the reference ``v``;
    computed through log-gamma.  Counts on reference-zero entities give
    ``-inf``.  The sum is compensated (`math.fsum`): its terms are of order
    ``N log N`` and cancel against ``log N!``.
    """
    counts = _counts_over_full(reference.space, counts)
    total = int(counts.sum())
    if total <= 0:
        raise DataError("empty count vector")
    w = reference.weights
    mask = counts > 0
    if np.any(w[mask] <= 0.0):
        return -math.inf
    c = counts[mask].astype(np.float64)
    terms = c * np.log(w[mask]) - np.array([lgamma(x + 1.0) for x in c])
    return lgamma(total + 1.0) + fsum(terms.tolist())


def log_multinomial_leading(counts, reference):
    """Truncated large-sample form of :func:`log_multinomial`.

    ``-N D(f||v) - (k-1)/2 log(2 pi N) + k/2 * l(u; f)`` with
    ``k = |E*|``, ``f = counts/N`` and ``u`` uniform over admissible
    entities.  The dropped remainder is O(1/N).  Requires every admissible
    count positive (otherwise the ``l(u; f)`` term diverges and -inf is
    returned).
    """
    space = reference.space
    counts = _counts_over_full(space, counts)
    n = int(counts.sum())
    if n <= 0:
        raise DataError("empty count vector")
    f = Distribution.from_counts(space, counts, n)
    k = space.n_admissible
    fa = f.admissible
    if np.any(fa <= 0.0):
        return -math.inf
    div = i_divergence(f, reference)
    if math.isinf(div):
        return -math.inf
    ell_uniform = -float(np.sum(np.log(fa) / k))
    return -n * div - 0.5 * (k - 1) * math.log(2.0 * math.pi * n) + 0.5 * k * ell_uniform


def max_norm_distance(p, q):
    """Largest absolute weight difference over the full enumeration."""
    _check_same_space(p, q)
    return float(np.max(np.abs(p.weights - q.weights)))


# --- serialization -------------------------------------------------------

def distribution_to_dict(dist):
    """JSON-ready document: space declaration, fingerprint, entity weights."""
    space = dist.space
    entries = [
        [list(space.entity_at(int(i))), float(dist.weights[i])]
        for i in space.admissible_indices
    ]
    for i in np.flatnonzero(~space.admissible_mask):
        if dist.weights[i] > 0.0:
            entries.append([list(space.entity_at(int(i))), float(dist.weights[i])])
    doc = {
        "format": "totem-distribution",
        "space": {
            "domains": [
                {"name": d.name, "levels": list(d.levels)} for d in space.domains
            ],
            "nullentities": [list(e) for e in space.nullentities],
        },
        "space_fingerprint": space.fingerprint,
        "weights": entries,
    }
    if dist.counts is not None:
        doc["n_samples"] = dist.n_samples
    return doc


def distribution_from_dict(doc, space=None):
    """Rebuild a distribution; verifies the fingerprint against ``space``."""
    from .entity import AttributeDomain, EntitySpace  # deferred: avoids cycle

    if not isinstance(doc, dict) or doc.get("format") != "totem-distribution":
        raise DataError("not a serialized distribution document")
    if space is None:
        domains = [
            AttributeDomain(d["name"], d["levels"]) for d in doc["space"]["domains"]
        ]
        space = EntitySpace(domains, doc["space"].get("nullentities", ()))
    if space.fingerprint != doc["space_fingerprint"]:
        raise DataError(
            "space fingerprint mismatch: the document was written for a "
            "different entity space"
        )
    weights = np.zeros(space.n_entities)
    for entity, value in doc["weights"]:
        weights[space.index_of(tuple(entity))] = float(value)
    return Distribution(space, weights)


def load_distribution(path, space=None):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and UTF-8
        raise DataError(f"cannot read a distribution from {path}: {exc}") from exc
    return distribution_from_dict(doc, space=space)
