"""Attribute domains, entity spaces and tabular ingestion.

An entity is one fully specified configuration of all attributes.  The
entity space is the Cartesian product of the attribute domains, enumerated
row-major in declaration order so that layouts are reproducible across
runs.  Entities that are impossible a priori (structural zeros) or that a
study deliberately excludes are declared as *nullentities* and tracked
through an admissibility mask; everything downstream works on the
admissible subset.

All types here are immutable after construction and safe to share across
threads.  The one member built lazily, an entity space's table of level
codes, depends only on the space's shape and admissible entities: any
thread that builds it builds the same read-only table.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import Counter
from operator import itemgetter

import numpy as np

from .distribution import Distribution
from .errors import DataError, SpaceError

__all__ = [
    "AttributeDomain",
    "EntitySpace",
    "DataTable",
    "empirical_distribution",
    "ingest_csv",
]

#: Refuse to enumerate spaces larger than this unless explicitly overridden.
DEFAULT_ENTITY_CAP = 1 << 20


def _numeric_value(label):
    """Return the value of ``label`` as a decimal literal, or None.

    Only a full decimal literal counts: surrounding whitespace, ``nan`` and
    ``inf`` all disqualify the level from numeric treatment.
    """
    if label != label.strip():
        return None
    try:
        value = float(label)
    except ValueError:
        return None
    if math.isnan(value) or math.isinf(value):
        return None
    return value


class AttributeDomain:
    """An attribute with a fixed, ordered set of distinct level labels.

    The level ordering given at construction is preserved verbatim; it
    fixes the entity enumeration.  When every label is a decimal literal
    the domain carries parsed numeric values so moment operators can act
    on it.
    """

    __slots__ = ("name", "levels", "numeric_values", "_positions")

    def __init__(self, name, levels):
        name = str(name)
        if not name:
            raise SpaceError("attribute name must be nonempty")
        levels = tuple(str(level) for level in levels)
        if not levels:
            raise SpaceError(f"attribute {name!r} declares no levels")
        if len(set(levels)) != len(levels):
            raise SpaceError(f"attribute {name!r} has duplicate levels")
        self.name = name
        self.levels = levels
        self._positions = {label: i for i, label in enumerate(levels)}
        values = [_numeric_value(label) for label in levels]
        if all(v is not None for v in values):
            self.numeric_values = tuple(values)
        else:
            self.numeric_values = None

    @property
    def size(self):
        return len(self.levels)

    @property
    def is_numeric(self):
        return self.numeric_values is not None

    def position(self, label):
        """Index of ``label`` within the domain; SpaceError if unknown."""
        try:
            return self._positions[label]
        except KeyError:
            raise SpaceError(
                f"level {label!r} is not in the domain of attribute {self.name!r}"
            ) from None

    def __contains__(self, label):
        return label in self._positions

    def __eq__(self, other):
        return (
            isinstance(other, AttributeDomain)
            and self.name == other.name
            and self.levels == other.levels
        )

    def __hash__(self):
        return hash((self.name, self.levels))

    def __repr__(self):
        return f"AttributeDomain({self.name!r}, {list(self.levels)!r})"


class EntitySpace:
    """Cartesian product of attribute domains with an admissibility mask.

    Entities are enumerated row-major over the domains in declaration
    order: the last attribute varies fastest.  Declared nullentities are
    flagged inadmissible; the ``i``-th admissible entity (in enumeration
    order) occupies compact slot ``i`` in operator eigenvalue vectors.
    """

    __slots__ = (
        "domains",
        "nullentities",
        "shape",
        "n_entities",
        "admissible_mask",
        "admissible_indices",
        "n_admissible",
        "_axis_of",
        "_fingerprint",
        "_codes",
    )

    def __init__(self, domains, nullentities=(), entity_cap=DEFAULT_ENTITY_CAP):
        domains = tuple(domains)
        if not domains:
            raise SpaceError("an entity space needs at least one attribute")
        names = [d.name for d in domains]
        if len(set(names)) != len(names):
            raise SpaceError(f"duplicate attribute names in {names}")
        self.domains = domains
        self.shape = tuple(d.size for d in domains)
        n = 1
        for s in self.shape:
            n *= s
        if entity_cap is not None and n > entity_cap:
            raise SpaceError(
                f"entity space has {n} entities, above the cap {entity_cap}; "
                "pass entity_cap=None to override"
            )
        self.n_entities = n
        self._axis_of = {d.name: i for i, d in enumerate(domains)}

        mask = np.ones(n, dtype=bool)
        canonical = []
        for entity in nullentities:
            idx = self.index_of(entity)
            mask[idx] = False
            canonical.append(tuple(str(level) for level in entity))
        if not mask.any():
            raise SpaceError("all entities are declared null; nothing is admissible")
        mask.setflags(write=False)
        self.nullentities = tuple(sorted(set(canonical)))
        self.admissible_mask = mask
        self.admissible_indices = np.flatnonzero(mask)
        self.admissible_indices.setflags(write=False)
        self.n_admissible = int(mask.sum())
        self._codes = None

        h = hashlib.sha256()
        for d in domains:
            h.update(d.name.encode())
            h.update(b"\x00")
            for level in d.levels:
                h.update(level.encode())
                h.update(b"\x01")
            h.update(b"\x02")
        for entity in self.nullentities:
            h.update("\x01".join(entity).encode())
            h.update(b"\x03")
        self._fingerprint = h.hexdigest()

    @property
    def fingerprint(self):
        """Hash of the domain declaration; used for compatibility checks."""
        return self._fingerprint

    @property
    def attribute_names(self):
        return tuple(d.name for d in self.domains)

    def axis(self, name):
        """Position of attribute ``name`` in the declaration order."""
        try:
            return self._axis_of[name]
        except KeyError:
            raise SpaceError(f"unknown attribute {name!r}") from None

    def attribute(self, name):
        return self.domains[self.axis(name)]

    def index_of(self, entity):
        """Row-major enumeration index of an entity tuple."""
        entity = tuple(entity)
        if len(entity) != len(self.domains):
            raise SpaceError(
                f"entity {entity!r} has {len(entity)} components, "
                f"expected {len(self.domains)}"
            )
        idx = 0
        for domain, label in zip(self.domains, entity):
            idx = idx * domain.size + domain.position(str(label))
        return idx

    def entity_at(self, index):
        """Entity tuple at enumeration index ``index``."""
        if not 0 <= index < self.n_entities:
            raise SpaceError(f"entity index {index} out of range")
        labels = []
        for size, domain in zip(reversed(self.shape), reversed(self.domains)):
            index, pos = divmod(index, size)
            labels.append(domain.levels[pos])
        return tuple(reversed(labels))

    def admissible_entities(self):
        """Iterate admissible entity tuples in enumeration order."""
        return (self.entity_at(int(i)) for i in self.admissible_indices)

    def level_codes(self, name):
        """Per-admissible-entity level position of attribute ``name``: a
        read-only row of one table built on first use, in the smallest
        unsigned dtype that holds every position (uint8 for binary spaces).

        Each row is filled by broadcasting the positions ``0..size-1``
        along its axis of the ``shape``-shaped enumeration, with no
        division; the admissible entities are gathered only when there are
        nullentities."""
        axis = self.axis(name)
        if self._codes is None:
            ndim = len(self.shape)
            codes = np.empty((ndim, self.n_entities),
                             dtype=np.min_scalar_type(max(self.shape) - 1))
            for i, size in enumerate(self.shape):
                codes[i].reshape(self.shape)[...] = np.arange(size, dtype=codes.dtype).reshape(
                    (size,) + (1,) * (ndim - 1 - i))
            if self.n_admissible < self.n_entities:
                codes = codes[:, self.admissible_indices]
            codes.setflags(write=False)
            self._codes = codes
        return self._codes[axis]

    def same_space(self, other):
        return self is other or self.fingerprint == other.fingerprint

    def __eq__(self, other):
        return isinstance(other, EntitySpace) and self.same_space(other)

    def __hash__(self):
        return hash(self._fingerprint)

    def __repr__(self):
        return (
            f"EntitySpace({len(self.domains)} attributes, |E|={self.n_entities}, "
            f"|E*|={self.n_admissible})"
        )


class DataTable:
    """Distinct records over named columns, each with its multiplicity.

    ``records`` holds the distinct records, tuples of level labels (str),
    in order of first appearance, and ``counts`` their int64
    multiplicities; ``n`` is the total number of records.  ``counts``
    defaults to one per given record, and a record given more than once
    is merged into one with its counts summed, so a table costs memory
    per distinct record, not per record.
    """

    __slots__ = ("column_names", "records", "counts", "n", "domains")

    def __init__(self, column_names, records, counts=None, domains=None):
        self.column_names = tuple(str(c) for c in column_names)
        width = len(self.column_names)
        if len(set(self.column_names)) != width:
            raise DataError(f"duplicate column names in {self.column_names}")
        records = [tuple(record) for record in records]
        if counts is None:
            counts = [1] * len(records)
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (len(records),):
            raise DataError(f"{counts.size} counts for {len(records)} records")
        if counts.min(initial=1) < 1:
            raise DataError("record counts must be positive")
        merged = {}
        for i, (record, count) in enumerate(zip(records, counts.tolist())):
            if len(record) != width:
                raise DataError(f"record {i} has {len(record)} cells, expected {width}")
            merged[record] = merged.get(record, 0) + count
        if not merged:
            raise DataError("data table has no records")
        self.records = tuple(merged)
        self.counts = np.fromiter(merged.values(), dtype=np.int64, count=len(merged))
        self.counts.setflags(write=False)
        self.n = int(self.counts.sum())
        self.domains = tuple(domains) if domains is not None else None

    def __repr__(self):
        return (
            f"DataTable({self.n} records, {len(self.records)} distinct, "
            f"{len(self.column_names)} columns)"
        )


def _data_row(path, line):
    """1-based data row at which ``line`` first appears in the CSV file."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        next(csv.reader(handle))
        for row, other in enumerate(handle, start=1):
            if other == line:
                return row
    return "?"  # the file changed after it was counted


def _text_lines(raw_lines, rest):
    """The decoded lines of ``raw_lines`` (binary lines, which end at
    ``\\n``), split where text mode with ``newline=""`` splits them: at
    ``\\n``, ``\\r`` and ``\\r\\n``.  ``rest`` holds the pieces of the
    current raw line that are not yet yielded."""
    for raw in raw_lines:
        rest[:] = raw.splitlines(keepends=True)
        while rest:
            yield rest.pop(0).decode("utf-8")


def ingest_csv(path, schema="infer"):
    """Read a CSV file (UTF-8, header row) into a :class:`DataTable`.

    Each physical line after the header is one record, so a quoted field
    may not span lines.  Identical lines are counted, and each distinct
    line is parsed and checked once, in order of first appearance; lines
    that parse to the same record (other quoting, CRLF or LF, a final
    newline or none) are merged.  Errors name the first data row (1-based)
    at which the offending line appears.

    The file is read in binary mode and its raw lines, which end at
    ``\\n``, are counted as bytes.  Each distinct raw line is then split at
    ``\\n``, ``\\r`` and ``\\r\\n`` and each piece decoded once: these are
    the lines, and the order of first appearance, that text mode with
    ``newline=""`` gives.

    With ``schema="infer"`` each column's domain becomes the sorted set of
    observed values.  With an explicit list of :class:`AttributeDomain`,
    every column named by the schema must be present and every cell must
    belong to the matching domain.  Empty cells are rejected.
    """
    try:
        # a 1 MiB buffer: the raw-line count reads fewer, larger blocks
        with open(path, "rb", buffering=1 << 20) as handle:
            rest = []
            header = next(csv.reader(_text_lines(handle, rest)), None)
            raw_lines = Counter(handle)
        # the lines left over from the header's raw line come first
        lines = {}
        for piece in rest:
            line = piece.decode("utf-8")
            lines[line] = lines.get(line, 0) + 1
        for raw, count in raw_lines.items():
            for piece in raw.splitlines(keepends=True):
                line = piece.decode("utf-8")
                lines[line] = lines.get(line, 0) + count
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"unparseable CSV file {path}: {exc}") from exc
    if header is None:
        raise DataError(f"{path}: empty file, expected a header row")
    header = [h.strip() for h in header]
    if not lines:
        raise DataError(f"{path}: no data rows after the header")
    # One reader over the distinct lines: a record that takes more than one
    # line (a quoted field spanning lines) shows as a jump in line_num.
    distinct = list(lines)
    reader = csv.reader(distinct, strict=True)
    records = []
    try:
        for record in reader:
            if reader.line_num != len(records) + 1:
                raise csv.Error("a quoted field spans lines")
            records.append(tuple(record))
    except csv.Error as exc:
        raise DataError(
            f"{path}: row {_data_row(path, distinct[len(records)])} is not one "
            f"well-formed CSV line ({exc})"
        ) from None
    width = len(header)
    for line, record in zip(distinct, records):
        if len(record) != width:
            raise DataError(
                f"{path}: row {_data_row(path, line)} has {len(record)} cells, "
                f"expected {width}"
            )
        if "" in record:
            raise DataError(
                f"{path}: empty cell in column {header[record.index('')]!r}, "
                f"row {_data_row(path, line)}"
            )
    observed = [set(map(itemgetter(j), records)) for j in range(width)]

    if schema == "infer":
        if "" in header:
            raise DataError(
                f"{path}: column {header.index('') + 1} of the header has an empty name"
            )
        domains = tuple(
            AttributeDomain(name, sorted(values)) for name, values in zip(header, observed)
        )
    else:
        declared = {d.name: d for d in schema}
        missing = [name for name in declared if name not in header]
        if missing:
            raise DataError(f"{path}: missing column(s) {missing}")
        extra = [name for name in header if name not in declared]
        if extra:
            raise DataError(f"{path}: column(s) {extra} not covered by the schema")
        domains = tuple(declared[name] for name in header)
        for j, (name, domain) in enumerate(zip(header, domains)):
            if observed[j].issubset(domain._positions):
                continue
            k = next(k for k, record in enumerate(records) if record[j] not in domain)
            raise DataError(
                f"{path}: value {records[k][j]!r} in column {name!r}, "
                f"row {_data_row(path, distinct[k])} is outside the declared domain "
                f"{list(domain.levels)}"
            )
    return DataTable(header, records, list(lines.values()), domains=domains)


def empirical_distribution(space, data):
    """Count table records into relative frequencies over the full space.

    Each distinct record is encoded once and its multiplicity added to its
    entity's count in exact int64 arithmetic.  Every record must be an
    admissible entity: a positive count on a declared nullentity is a
    contradiction between the data and the space declaration and raises
    :class:`DataError`.  Entities absent from the
    data get frequency zero.  Counts and the sample size are kept on the
    returned distribution, so frequencies stay exact ratios.
    """
    names = data.column_names
    if set(names) != set(space.attribute_names):
        raise DataError(
            f"data columns {list(names)} do not match space attributes "
            f"{list(space.attribute_names)}"
        )
    column_of = {name: j for j, name in enumerate(names)}

    codes = np.empty((len(space.domains), len(data.records)), dtype=np.int64)
    for axis, domain in enumerate(space.domains):
        j = column_of[domain.name]
        positions = domain._positions
        try:
            codes[axis] = np.fromiter(
                map(positions.__getitem__, map(itemgetter(j), data.records)),
                dtype=np.int64, count=len(data.records),
            )
        except KeyError:
            record = next(r for r in data.records if r[j] not in positions)
            raise DataError(
                f"record {record!r}: value {record[j]!r} is not a level of "
                f"attribute {domain.name!r}"
            ) from None
    counts = np.zeros(space.n_entities, dtype=np.int64)
    np.add.at(counts, np.ravel_multi_index(codes, space.shape), data.counts)
    return Distribution.from_counts(space, counts)
