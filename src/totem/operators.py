"""Characteristic operators, constructing elements and their linear algebra.

A characteristic operator is diagonal in the entity basis: one real
eigenvalue per admissible entity.  An ordered, linearly independent
collection of operators (a constructing element) pins down a family of
distributions through its expectations; two elements with the same row
space describe the same family and are *equivalent for all practical
purposes* (FAPP).  Rank, auto-reduce, nesting and equivalence all
derive from one orthonormal row basis, and classification and
projection build on them.

Entities that share an eigenvalue column are indistinguishable to an
element: its expectations, its projections (``q_e / v_e`` depends on an
entity only through its column) and its row space are decided by the
distinct columns.  :func:`make_element` partitions the columns of its
operators once and decides their independence on the distinct columns;
each element keeps that partition (:attr:`ConstructingElement.columns`),
and targets and nesting are computed on it.

Operators and elements are immutable; every function here is pure and
safe to call concurrently.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import OperatorError, SpaceError

__all__ = [
    "PIVOT_TOL",
    "CharacteristicOperator",
    "ConstructingElement",
    "Totemplex",
    "identity_op",
    "marginal_op",
    "moment_op",
    "success_op",
    "k_marginal_op",
    "product_op",
    "make_element",
    "fapp_equivalent",
    "is_nested",
    "operator_from_spec",
]

#: Relative pivot threshold for rank and independence decisions.
#: Eigenvalue matrices mix 0/1 indicators with real moments of very
#: different scales, so the threshold is relative to the largest entry.
PIVOT_TOL = 1e-9


class CharacteristicOperator:
    """Diagonal operator: one finite eigenvalue per admissible entity."""

    __slots__ = ("space", "eigenvalues", "label")

    def __init__(self, space, eigenvalues, label=""):
        # a copy: freezing the caller's array (or a view of it) would tie
        # the operator to later writes there
        eigenvalues = np.array(eigenvalues, dtype=np.float64)
        if eigenvalues.shape != (space.n_admissible,):
            raise OperatorError(
                f"expected {space.n_admissible} eigenvalues, got {eigenvalues.shape}"
            )
        if not np.all(np.isfinite(eigenvalues)):
            raise OperatorError(f"operator {label!r} has non-finite eigenvalues")
        eigenvalues.setflags(write=False)
        self.space = space
        self.eigenvalues = eigenvalues
        self.label = str(label)

    def expectation(self, dist):
        """Expectation of the operator under a distribution."""
        if not self.space.same_space(dist.space):
            raise SpaceError("operator and distribution live on different spaces")
        return float(np.sum(dist.admissible * self.eigenvalues))

    def __repr__(self):
        return f"CharacteristicOperator({self.label!r})"


# --- builders ------------------------------------------------------------

def identity_op(space):
    """Eigenvalue one on every admissible entity (normalization row)."""
    return CharacteristicOperator(space, np.ones(space.n_admissible), "identity")


def marginal_op(space, attributes, levels):
    """Indicator of entities matching ``levels`` on the named attributes.

    ``attributes`` may be a single name or a sequence of names, with
    ``levels`` shaped accordingly.
    """
    if isinstance(attributes, str):
        attributes = (attributes,)
        levels = (levels,)
    attributes = tuple(attributes)
    levels = tuple(str(level) for level in levels)
    if len(attributes) != len(levels):
        raise OperatorError("one level required per named attribute")
    eig = np.ones(space.n_admissible)
    for name, level in zip(attributes, levels):
        domain = space.attribute(name)
        pos = domain.position(level)
        eig *= (space.level_codes(name) == pos).astype(np.float64)
    spec = ",".join(f"{a}={l}" for a, l in zip(attributes, levels))
    return CharacteristicOperator(space, eig, f"marginal({spec})")


def moment_op(space, attribute, n):
    """``n``-th power of the numeric level of ``attribute`` per entity."""
    if n < 1 or int(n) != n:
        raise OperatorError(f"moment order must be a positive integer, got {n}")
    domain = space.attribute(attribute)
    if not domain.is_numeric:
        raise OperatorError(
            f"attribute {attribute!r} has non-numeric levels; moments are undefined"
        )
    values = np.asarray(domain.numeric_values)[space.level_codes(attribute)]
    return CharacteristicOperator(space, values ** int(n), f"moment({attribute},{int(n)})")


def _success_count(space, success, attributes):
    """Trial count ``L`` and each admissible entity's int64 number of trials
    at ``success``; the trials are ``attributes``, or all with that level.
    Counted in the smallest unsigned dtype that holds ``L``."""
    if attributes is None:
        attributes = [d.name for d in space.domains if success in d]
        if not attributes:
            raise OperatorError(f"no attribute carries the level {success!r}")
    attributes = list(attributes)
    count = np.zeros(space.n_admissible, dtype=np.min_scalar_type(len(attributes)))
    for name in attributes:
        domain = space.attribute(name)
        if domain.size != 2:
            raise OperatorError(
                f"attribute {name!r} is not binary; success counting is undefined"
            )
        if success not in domain:
            raise OperatorError(f"attribute {name!r} has no level {success!r}")
        count += space.level_codes(name) == domain.position(success)
    return len(attributes), count.astype(np.int64)


def _trial_label(space, success, attributes):
    """``success`` as a label names it, followed by the trial ``attributes``
    when they are not the default set (every attribute with that level)."""
    if attributes is None or list(attributes) == [d.name for d in space.domains
                                                  if success in d]:
        return success
    return ", ".join([success, *attributes])


def success_op(space, success, attributes=None):
    """Fraction of trial attributes set to the ``success`` level.

    By default every binary attribute whose domain contains ``success``
    counts as a trial; pass ``attributes`` to restrict (e.g. when the
    space carries an extra grouping attribute).  The label names
    ``attributes`` unless they are the default set, as the spec does:
    ``success(head, s1)``.
    """
    length, count = _success_count(space, success, attributes)
    return CharacteristicOperator(space, count / length,
                                  f"success({_trial_label(space, success, attributes)})")


def k_marginal_op(space, k, success, attributes=None):
    """Indicator of entities with exactly ``k`` trials at the success level.

    Summed over ``k = 0..L`` these operators resolve the identity.  The
    label names ``attributes`` unless they are the default set.
    """
    length, count = _success_count(space, success, attributes)
    if not 0 <= k <= length:
        raise OperatorError(f"k={k} outside [0, {length}]")
    return _count_indicator(space, count, k, _trial_label(space, success, attributes))


def _count_indicator(space, count, k, trials):
    """The ``k_marginal`` operator read off a precomputed success count;
    ``trials`` is the label's text for the success level and trials."""
    eig = (count == int(k)).astype(np.float64)
    return CharacteristicOperator(space, eig, f"k_marginal({int(k)},{trials})")


def product_op(a, b):
    """Elementwise eigenvalue product (diagonal operators commute)."""
    if not a.space.same_space(b.space):
        raise SpaceError("operators live on different spaces")
    return CharacteristicOperator(
        a.space, a.eigenvalues * b.eigenvalues, f"product({a.label},{b.label})"
    )


# --- dense linear algebra -------------------------------------------------

def _scale(matrix):
    m = float(np.max(np.abs(matrix), initial=0.0))
    return m if m > 0.0 else 1.0


def _row_basis(matrix):
    """Orthonormal basis ``Q`` of the row space and the indices it kept.

    Rows are taken in order, so the earliest independent rows win.  A row
    is kept when its residual against the rows kept before it exceeds
    ``PIVOT_TOL * max|entry|`` in its largest component; the residual is
    projected out twice (classical Gram-Schmidt with re-orthogonalization),
    one matrix product per row.  Stack a candidate row under a matrix to
    ask whether it lies in the row space: it does iff it is not kept.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    thresh = PIVOT_TOL * _scale(matrix)
    q = np.empty_like(matrix)
    kept = []
    for i, row in enumerate(matrix):
        basis = q[: len(kept)]
        for _ in range(2):
            row = row - (basis @ row) @ basis
        if np.max(np.abs(row), initial=0.0) > thresh:
            q[len(kept)] = row / np.linalg.norm(row)
            kept.append(i)
    return q[: len(kept)], kept


def _column_keys(matrix):
    """A 64-bit hash of each column's bits; equal columns get equal keys."""
    bits = matrix.view(np.uint64)
    multipliers = np.random.default_rng(0).integers(
        2**63, size=len(bits), dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    keys = np.zeros(bits.shape[1], dtype=np.uint64)
    for row, multiplier in zip(bits, multipliers):
        # fold the high bits (sign, exponent) down before the odd multiplier
        keys += (row ^ (row >> np.uint64(32))) * multiplier
    return keys


def _column_partition(matrix):
    """Distinct columns in order of first appearance, and each column's group.

    ``columns[:, group]`` equals ``matrix`` bit for bit, and ``columns`` is
    column-major.  Columns are grouped by a hash of their bits; should two
    distinct columns share a hash, the grouping falls back to sorting the
    raw column bytes.
    """
    contiguous = np.ascontiguousarray(matrix, dtype=np.float64)
    _, first, group = np.unique(_column_keys(contiguous), return_index=True, return_inverse=True)
    representative = first[group]
    if not all(np.array_equal(row[representative], row) for row in contiguous.view(np.uint64)):
        raw = np.ascontiguousarray(contiguous.T)
        raw = raw.view(np.dtype((np.void, raw.strides[0]))).ravel()
        _, first, group = np.unique(raw, return_index=True, return_inverse=True)
    order = np.argsort(first)
    relabel = np.empty_like(order)
    relabel[order] = np.arange(len(order))
    return contiguous[:, first[order]], relabel[group]


# --- constructing elements -------------------------------------------------

class ConstructingElement:
    """Ordered, linearly independent operators over a shared space.

    The eigenvalue matrix (operators by admissible entities) has full row
    rank, and the all-ones row lies in its row space: normalization is
    always part of the description.  Build through :func:`make_element`,
    which also sets the column partition.
    """

    __slots__ = ("space", "operators", "_fingerprint", "_columns")

    def __init__(self, space, operators):
        self.space = space
        self.operators = tuple(operators)
        # the bytes of the stacked eigenvalue matrix, row after row
        h = hashlib.sha256()
        h.update(space.fingerprint.encode())
        for op in self.operators:
            h.update(op.eigenvalues)
        self._fingerprint = h.hexdigest()

    @property
    def matrix(self):
        """The eigenvalue matrix (operators by admissible entities): a
        read-only stack of the operators' eigenvalues, built on each call."""
        matrix = np.vstack([op.eigenvalues for op in self.operators])
        matrix.setflags(write=False)
        return matrix

    @property
    def rank(self):
        return len(self.operators)

    @property
    def labels(self):
        return tuple(op.label for op in self.operators)

    @property
    def fingerprint(self):
        return self._fingerprint

    @property
    def kernel_dim(self):
        return self.space.n_admissible - self.rank

    @property
    def columns(self):
        """``(distinct columns D x G, group index per admissible entity)``.

        Groups are numbered in order of first appearance and
        ``columns[:, group]`` equals ``matrix`` exactly: the partition
        :func:`_column_partition` gives, set by :func:`make_element` from
        the partition it decided the operators' independence on.
        """
        return self._columns

    def group_sums(self, values):
        """Sum per-entity ``values`` over each column group."""
        columns, group = self.columns
        return np.bincount(group, weights=values, minlength=columns.shape[1])

    def _support_sums(self, dist):
        """``group_sums(dist.admissible)``, summed over ``dist``'s
        positive-weight entities only: the zeros it skips would leave every
        sum bit for bit the same."""
        columns, group = self.columns
        positive = dist._support()[1]
        return np.bincount(group[positive], weights=dist.admissible[positive],
                           minlength=columns.shape[1])

    def expectations(self, dist):
        """Vector of operator expectations under ``dist``.

        The group sums run over ``dist``'s support only.  Each expectation
        is a pairwise ``np.sum`` over the column groups, not a BLAS product,
        so the result does not depend on the thread count.
        """
        if not self.space.same_space(dist.space):
            raise SpaceError("element and distribution live on different spaces")
        return np.sum(self.columns[0] * self._support_sums(dist), axis=1)

    def __repr__(self):
        return f"ConstructingElement(D={self.rank}, ops={list(self.labels)})"


def make_element(operators, mode="strict"):
    """Assemble a constructing element from characteristic operators.

    ``mode="strict"`` demands the given operators be linearly independent
    (and imply normalization) as stated.  ``mode="auto-reduce"`` keeps the
    earliest linearly independent operators, drops the rest, and appends
    the identity operator when the all-ones row is missing from the row
    space.
    """
    operators = list(operators)
    if not operators:
        raise OperatorError("an element needs at least one operator")
    space = operators[0].space
    for op in operators:
        if not space.same_space(op.space):
            raise SpaceError("operators live on different spaces")
        if not np.any(op.eigenvalues):
            raise OperatorError(f"zero operator {op.label!r} cannot enter an element")
    # stacked last, the all-ones row is kept iff normalization is not implied;
    # the row space, and with it every decision below, is that of the
    # distinct columns, whose largest entry is the whole stack's
    columns, group = _column_partition(
        np.vstack([op.eigenvalues for op in operators] + [np.ones(space.n_admissible)]))
    _, kept = _row_basis(columns)
    normalized = kept[-1] < len(operators)
    if not normalized:
        kept.pop()

    if mode == "strict":
        if len(kept) != len(operators):
            dropped = [operators[i].label for i in range(len(operators)) if i not in kept]
            raise OperatorError(
                f"operators {dropped} are linearly dependent on earlier ones "
                "(use mode='auto-reduce' to drop them)"
            )
        if not normalized:
            raise OperatorError(
                "the identity row is not in the element's row space; "
                "normalization must be implied (add the identity operator)"
            )
    elif mode != "auto-reduce":
        raise OperatorError(f"mode must be 'strict' or 'auto-reduce', got {mode!r}")
    dropped = len(kept) < len(operators)
    operators = [operators[i] for i in kept]
    if not normalized:
        operators.append(identity_op(space))
        kept.append(len(columns) - 1)
    # the element's rows are the stack's rows ``kept``.  The all-ones row
    # splits no columns, but a dropped row may split columns that the kept
    # rows do not: only then are the distinct columns partitioned again.
    if dropped:
        columns, sub = _column_partition(columns[kept])
        group = sub[group]
    else:
        # the leading rows, column-major as _column_partition lays them
        # out: the element's sums and products depend on that layout
        columns = columns[: len(kept)].copy(order="F")
    columns.setflags(write=False)
    group.setflags(write=False)
    element = ConstructingElement(space, operators)
    element._columns = (columns, group)
    return element


def fapp_equivalent(a, b):
    """True iff two elements have the same row space.

    Elements have full row rank, so equal rank plus nesting decides it.
    """
    if not a.space.same_space(b.space):
        raise SpaceError("elements live on different spaces")
    return a.rank == b.rank and is_nested(a, b)


def is_nested(outer, inner):
    """True iff every operator of ``outer`` lies in ``inner``'s row space.

    The coarser (outer) description is then implied by the finer (inner)
    one, and the inner feasible family sits inside the outer family.
    Decided on the distinct joint columns of both elements.
    """
    return _nesting(outer, inner)[0]


def _nesting(outer, inner, values=None):
    """:func:`is_nested` and the joint groups ``(g, h, sums)`` it was
    decided on (see :func:`_joint_groups`, with ``a = inner``)."""
    if not outer.space.same_space(inner.space):
        raise SpaceError("elements live on different spaces")
    g, h, sums = _joint_groups(inner, outer, values)
    joint = np.vstack([inner.columns[0][:, g], outer.columns[0][:, h]])
    return _row_basis(joint)[1][-1] < inner.rank, (g, h, sums)


def _joint_groups(a, b, values=None):
    """The joint column groups of two elements: ``(g, h, sums)``.

    Two entities share a joint column iff they share a column in both
    elements, so the joint groups are the distinct pairs of group indices
    ``(g[k], h[k])``.  ``sums`` holds the per-entity ``values`` summed over
    each joint group, or is ``None`` without ``values``.
    """
    columns_a, group_a = a.columns
    columns_b, group_b = b.columns
    width = columns_b.shape[1]
    pairs = group_a * width
    pairs += group_b
    # a dense table of pair counts while it is no larger than the entity
    # count (one pass); a sort otherwise, so memory stays O(n)
    table = columns_a.shape[1] * width
    sums = None
    if table <= len(pairs):
        present = np.flatnonzero(np.bincount(pairs, minlength=table))
        if values is not None:
            sums = np.bincount(pairs, weights=values, minlength=table)[present]
    else:
        present, pair = np.unique(pairs, return_inverse=True)
        if values is not None:
            sums = np.bincount(pair, weights=values, minlength=len(present))
    return present // width, present % width, sums


class Totemplex:
    """A constructing element plus the target expectations it must match.

    Targets are the exact expectations of the element under a stored
    empirical distribution, so the constrained family is never empty (the
    empirical distribution itself belongs to it).
    """

    __slots__ = ("element", "targets", "empirical")

    def __init__(self, element, empirical):
        if not element.space.same_space(empirical.space):
            raise SpaceError("element and empirical distribution live on different spaces")
        self.element = element
        self.empirical = empirical
        targets = element.expectations(empirical)
        targets.setflags(write=False)
        self.targets = targets

    @property
    def space(self):
        return self.element.space

    def __repr__(self):
        return f"Totemplex(D={self.element.rank}, targets={self.targets!r})"


# --- operator spec grammar --------------------------------------------------
#
# identity
# marginal(attr=level, ...)
# moment(attr, n)
# success(level)
# k_marginal(k, level)
# product(spec, spec)

def _split_args(text):
    args, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise OperatorError(f"unbalanced parentheses in {text!r}")
        elif ch == "," and depth == 0:
            args.append(text[start:i].strip())
            start = i + 1
    if depth != 0:
        raise OperatorError(f"unbalanced parentheses in {text!r}")
    tail = text[start:].strip()
    if tail or not args:
        args.append(tail)
    return args


def operator_from_spec(space, spec):
    """Parse one operator declaration (see module grammar) into an operator."""
    spec = spec.strip()
    if spec == "identity":
        return identity_op(space)
    if "(" not in spec or not spec.endswith(")"):
        raise OperatorError(f"cannot parse operator spec {spec!r}")
    head, body = spec.split("(", 1)
    head = head.strip()
    body = body[:-1]
    args = _split_args(body)
    if head == "marginal":
        attrs, levels = [], []
        for arg in args:
            if "=" not in arg:
                raise OperatorError(f"marginal expects attr=level pairs, got {arg!r}")
            attr, level = arg.split("=", 1)
            attrs.append(attr.strip())
            levels.append(level.strip())
        return marginal_op(space, attrs, levels)
    if head == "moment":
        if len(args) != 2:
            raise OperatorError(f"moment expects (attr, n), got {spec!r}")
        try:
            order = int(args[1])
        except ValueError:
            raise OperatorError(f"moment order {args[1]!r} is not an integer") from None
        return moment_op(space, args[0], order)
    if head == "success":
        if len(args) < 1 or not args[0]:
            raise OperatorError("success expects a level")
        attrs = args[1:] or None
        return success_op(space, args[0], attrs)
    if head == "k_marginal":
        if len(args) != 2:
            raise OperatorError(
                f"k_marginal expects (k, level) - the success level is not "
                f"inferable from k alone; got {spec!r}"
            )
        try:
            k = int(args[0])
        except ValueError:
            raise OperatorError(f"k_marginal count {args[0]!r} is not an integer") from None
        return k_marginal_op(space, k, args[1])
    if head == "product":
        if len(args) != 2:
            raise OperatorError(f"product expects two operator specs, got {spec!r}")
        return product_op(operator_from_spec(space, args[0]), operator_from_spec(space, args[1]))
    raise OperatorError(f"unknown operator kind {head!r}")
