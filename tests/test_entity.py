import csv
import io
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totem import (
    AttributeDomain,
    DataError,
    DataTable,
    EntitySpace,
    SpaceError,
    empirical_distribution,
    ingest_csv,
)


@pytest.fixture
def two_by_two():
    return EntitySpace(
        [AttributeDomain("first", ["a", "b"]), AttributeDomain("second", ["x", "y"])]
    )


class TestAttributeDomain:
    def test_rejects_duplicate_levels(self):
        with pytest.raises(SpaceError):
            AttributeDomain("color", ["red", "red"])

    def test_rejects_empty_levels(self):
        with pytest.raises(SpaceError):
            AttributeDomain("color", [])

    def test_level_order_is_preserved(self):
        domain = AttributeDomain("rank", ["low", "high", "mid"])
        assert domain.levels == ("low", "high", "mid")
        assert domain.position("mid") == 2

    def test_numeric_detection(self):
        assert AttributeDomain("count", ["0", "1", "2.5"]).is_numeric
        assert not AttributeDomain("mixed", ["0", "two"]).is_numeric
        # whitespace, inf, nan disqualify
        assert not AttributeDomain("padded", [" 1", "2"]).is_numeric
        assert not AttributeDomain("weird", ["inf", "1"]).is_numeric


class TestEntitySpace:
    def test_two_binary_domains_full(self, two_by_two):
        assert two_by_two.n_entities == 4
        assert two_by_two.n_admissible == 4

    def test_one_nullentity(self):
        space = EntitySpace(
            [AttributeDomain("first", ["a", "b"]), AttributeDomain("second", ["x", "y"])],
            nullentities=[("a", "y")],
        )
        assert space.n_admissible == 3
        assert not space.admissible_mask[space.index_of(("a", "y"))]

    def test_bernoulli_cube(self):
        domains = [AttributeDomain(f"s{i}", ["head", "tail"]) for i in range(3)]
        assert EntitySpace(domains).n_entities == 8

    def test_enumeration_row_major(self, two_by_two):
        order = [two_by_two.entity_at(i) for i in range(4)]
        assert order == [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")]

    def test_enumeration_round_trip(self):
        rng = np.random.default_rng(7)
        domains = [
            AttributeDomain("first", ["a", "b", "c"]),
            AttributeDomain("second", ["x", "y"]),
            AttributeDomain("third", ["0", "1", "2", "3"]),
        ]
        space = EntitySpace(domains)
        for i in rng.integers(0, space.n_entities, size=50):
            assert space.index_of(space.entity_at(int(i))) == int(i)

    def test_unknown_level_in_nullentity(self):
        with pytest.raises(SpaceError):
            EntitySpace(
                [AttributeDomain("first", ["a", "b"])], nullentities=[("z",)]
            )

    def test_all_null_rejected(self):
        with pytest.raises(SpaceError):
            EntitySpace(
                [AttributeDomain("first", ["a"])], nullentities=[("a",)]
            )

    def test_entity_cap(self):
        domains = [AttributeDomain(f"b{i}", ["0", "1"]) for i in range(8)]
        with pytest.raises(SpaceError):
            EntitySpace(domains, entity_cap=100)
        assert EntitySpace(domains, entity_cap=None).n_entities == 256

    def test_fingerprint_sensitivity(self, two_by_two):
        reordered = EntitySpace(
            [AttributeDomain("first", ["b", "a"]), AttributeDomain("second", ["x", "y"])]
        )
        assert reordered.fingerprint != two_by_two.fingerprint


class TestLevelCodes:
    @pytest.mark.parametrize(
        "sizes, nulls, dtype",
        [
            ((2, 2, 2), [(1, 0, 1), (0, 0, 0)], np.uint8),
            ((3, 1, 5, 2), [(2, 0, 4, 1), (0, 0, 0, 0), (1, 0, 3, 0)], np.uint8),
            ((2, 300, 3), [(1, 299, 2), (0, 255, 0), (0, 256, 1)], np.uint16),
        ],
    )
    def test_table_matches_unravel_index(self, sizes, nulls, dtype):
        domains = [
            AttributeDomain(f"a{i}", [f"v{j}" for j in range(size)])
            for i, size in enumerate(sizes)
        ]
        nullentities = [tuple(f"v{j}" for j in entity) for entity in nulls]
        space = EntitySpace(domains, nullentities)
        expected = np.unravel_index(space.admissible_indices, space.shape)
        for axis, domain in enumerate(domains):
            codes = space.level_codes(domain.name)
            assert codes.dtype == dtype
            np.testing.assert_array_equal(codes, expected[axis])
            assert not codes.flags.writeable
            with pytest.raises(ValueError):
                codes[0] = 1
            # rows of one cached table, not a copy per call
            assert np.shares_memory(space.level_codes(domain.name), codes)


class TestEmpiricalDistribution:
    def test_direct_counting(self, two_by_two):
        table = DataTable(
            ["first", "second"],
            [("a", "x"), ("a", "x"), ("b", "x"), ("b", "y")],
        )
        f = empirical_distribution(two_by_two, table)
        np.testing.assert_allclose(f.weights, [0.5, 0.0, 0.25, 0.25])
        assert f.n_samples == 4

    def test_unseen_entity_gets_zero(self, two_by_two):
        table = DataTable(["first", "second"], [("a", "x"), ("b", "y")])
        f = empirical_distribution(two_by_two, table)
        assert f.weight_of(("a", "y")) == 0.0

    def test_point_mass_from_identical_rows(self, two_by_two):
        table = DataTable(["first", "second"], [("b", "y")] * 5)
        f = empirical_distribution(two_by_two, table)
        assert f.weight_of(("b", "y")) == 1.0

    def test_frequencies_sum_to_one(self):
        rng = np.random.default_rng(3)
        domains = [AttributeDomain("first", ["a", "b", "c"]), AttributeDomain("second", ["x", "y"])]
        space = EntitySpace(domains)
        rows = [
            (rng.choice(["a", "b", "c"]), rng.choice(["x", "y"]))
            for _ in range(10_000)
        ]
        f = empirical_distribution(space, DataTable(["first", "second"], rows))
        assert abs(float(f.weights.sum()) - 1.0) < 1e-12

    def test_observed_nullentity_rejected(self):
        space = EntitySpace(
            [AttributeDomain("first", ["a", "b"]), AttributeDomain("second", ["x", "y"])],
            nullentities=[("a", "y")],
        )
        table = DataTable(["first", "second"], [("a", "y")])
        with pytest.raises(DataError, match="nullentity"):
            empirical_distribution(space, table)

    def test_declared_nullentities_have_zero_frequency(self):
        space = EntitySpace(
            [AttributeDomain("first", ["a", "b"]), AttributeDomain("second", ["x", "y"])],
            nullentities=[("a", "y")],
        )
        table = DataTable(["first", "second"], [("a", "x"), ("b", "y")])
        f = empirical_distribution(space, table)
        assert f.weight_of(("a", "y")) == 0.0

    def test_unknown_level_rejected(self, two_by_two):
        table = DataTable(["first", "second"], [("a", "z")])
        with pytest.raises(DataError, match="not a level"):
            empirical_distribution(two_by_two, table)

    def test_column_order_independent(self, two_by_two):
        table = DataTable(["second", "first"], [("x", "a"), ("y", "b")])
        f = empirical_distribution(two_by_two, table)
        assert f.weight_of(("a", "x")) == 0.5


class TestIngestCsv:
    def test_basic_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("u,v,w\n" + "\n".join(["p,q,r"] * 10) + "\n")
        table = ingest_csv(path)
        assert table.n == 10
        assert table.column_names == ("u", "v", "w")
        assert table.records == (("p", "q", "r"),)
        assert table.counts.tolist() == [10]

    def test_inferred_binary_domain(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("flag\nyes\nno\nyes\n")
        table = ingest_csv(path)
        (domain,) = table.domains
        assert domain.levels == ("no", "yes")  # sorted observed values

    def test_value_outside_declared_domain(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("flag\nZ\n")
        with pytest.raises(DataError, match="outside the declared domain"):
            ingest_csv(path, schema=[AttributeDomain("flag", ["A", "B"])])

    def test_missing_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("other\nA\n")
        with pytest.raises(DataError, match="missing column"):
            ingest_csv(path, schema=[AttributeDomain("flag", ["A", "B"])])

    def test_empty_cell_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("u,v\na,\n")
        with pytest.raises(DataError, match="empty cell"):
            ingest_csv(path)

    @pytest.mark.parametrize("header", ["a,,b", "a, ,b"])
    def test_empty_header_name_rejected(self, tmp_path, header):
        path = tmp_path / "data.csv"
        path.write_text(header + "\nx,y,z\n")
        with pytest.raises(DataError, match=r"data\.csv: column 2 of the header has an empty name"):
            ingest_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            ingest_csv(tmp_path / "nope.csv")

    def test_lines_that_parse_alike_are_one_record(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b'u,v\r\n"a",b\r\na,b\nc,d\na,"b"\r\na,b')
        table = ingest_csv(path)
        assert table.records == (("a", "b"), ("c", "d"))
        assert table.counts.tolist() == [4, 1]
        assert table.n == 5


class TestDataTable:
    def test_repeated_records_are_merged(self):
        table = DataTable(["u", "v"], [("a", "x"), ("b", "y"), ("a", "x")], counts=[2, 1, 3])
        assert table.records == (("a", "x"), ("b", "y"))
        assert table.counts.tolist() == [5, 1]
        assert table.counts.dtype == np.int64
        assert table.n == 6

    def test_counts_default_to_one_per_record(self):
        table = DataTable(["u"], [("a",), ("a",), ("b",)])
        assert table.counts.tolist() == [2, 1]
        assert table.n == 3

    @pytest.mark.parametrize(
        "records, counts, match",
        [
            ([], None, "no records"),
            ([("a",)], [0], "positive"),
            ([("a",)], [1, 1], "2 counts for 1 records"),
            ([("a", "b")], None, "record 0 has 2 cells, expected 1"),
        ],
    )
    def test_invalid_tables(self, records, counts, match):
        with pytest.raises(DataError, match=match):
            DataTable(["u"], records, counts=counts)


def _write(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    return path


class TestIngestErrors:
    """Each error keeps its type and names the data row it first occurs in."""

    schema = [AttributeDomain("u", ["a", "b"]), AttributeDomain("v", ["x", "y"])]
    valid = "u,v\n" + "a,x\n" * 1000

    @pytest.mark.parametrize(
        "line, match",
        [
            ("a,z\n", "value 'z' in column 'v', row 1001 is outside the declared domain"),
            ("a\n", "row 1001 has 1 cells, expected 2"),
            ("a,\n", "empty cell in column 'v', row 1001"),
            ("\n", "row 1001 has 0 cells, expected 2"),
            ('a,"x\n', "row 1001 is not one well-formed CSV line"),
            ('a,"x"y\n', "row 1001 is not one well-formed CSV line"),
        ],
    )
    def test_row_number_after_repeated_valid_lines(self, tmp_path, line, match):
        path = _write(tmp_path, self.valid + line + "b,y\n" + line)
        with pytest.raises(DataError, match=match):
            ingest_csv(path, schema=self.schema)

    def test_width_error_beats_domain_errors(self, tmp_path):
        earlier = _write(tmp_path, "u,v\na,x\na\nz,x\n")
        with pytest.raises(DataError, match="row 2 has 1 cells"):
            ingest_csv(earlier, schema=self.schema)
        # width is checked on every row before any value is checked
        later = _write(tmp_path, "u,v\nz,x\na,x\na\n")
        with pytest.raises(DataError, match="row 3 has 1 cells"):
            ingest_csv(later, schema=self.schema)

    def test_blank_line_is_a_width_error(self, tmp_path):
        path = _write(tmp_path, "u,v\na,x\n\nb,y\n")
        with pytest.raises(DataError, match="row 2 has 0 cells, expected 2"):
            ingest_csv(path)

    def test_quoted_field_spanning_lines(self, tmp_path):
        path = _write(tmp_path, 'u,v\na,x\nb,"x\ny"\na,x\n')
        with pytest.raises(DataError, match=r"row 2 is not .* \(a quoted field spans lines\)"):
            ingest_csv(path)

    def test_unknown_value_in_count(self, two_by_two):
        table = DataTable(["first", "second"], [("a", "x"), ("b", "z")])
        with pytest.raises(DataError, match="'z' is not a level of attribute 'second'"):
            empirical_distribution(two_by_two, table)


_TEXT = st.text(alphabet="ab ,\"", min_size=1, max_size=3)
_DECIMAL = st.decimals(-50, 50, places=1, allow_nan=False).map(str)


@st.composite
def _csv_files(draw):
    """A small space and a CSV file over it, with the space's counts."""
    width = draw(st.integers(1, 3))
    levels = [
        draw(st.lists(st.one_of(_TEXT, _DECIMAL), min_size=1, max_size=3, unique=True))
        for _ in range(width)
    ]
    domains = [AttributeDomain(f"c{j}", lv) for j, lv in enumerate(levels)]
    order = draw(st.permutations(range(width)))
    records = draw(st.lists(
        st.tuples(*(st.sampled_from(lv) for lv in levels)), min_size=1, max_size=30
    ))
    endings = draw(st.sampled_from([["\n"], ["\r\n"], ["\r"], ["\n", "\r\n", "\r"]]))
    lines = []
    for record in [tuple(d.name for d in domains)] + records:
        out = io.StringIO()
        quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
        csv.writer(out, quoting=quoting, lineterminator="").writerow(
            [record[j] for j in order]
        )
        lines.append(out.getvalue() + draw(st.sampled_from(endings)))
    if not draw(st.booleans()):  # no final newline
        lines[-1] = lines[-1].rstrip("\r\n")
    bom = draw(st.booleans())
    return domains, "\ufeff" * bom + "".join(lines), bom


def _text_mode_table(path):
    """The header and the record counts, in order of first appearance, as
    the file reads in text mode: each line counted, then parsed once."""
    with open(path, encoding="utf-8", newline="") as handle:
        header = [h.strip() for h in next(csv.reader(handle))]
        lines = Counter(handle)
    records = {}
    for line, count in lines.items():
        (record,) = csv.reader([line])
        records[tuple(record)] = records.get(tuple(record), 0) + count
    return header, records


@settings(max_examples=200, deadline=None)
@given(_csv_files())
def test_counts_match_a_plain_csv_reader(case):
    domains, text, bom = case
    space = EntitySpace(domains)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode())
        inferred = ingest_csv(path)
        header, records = _text_mode_table(path)
        if bom:
            # the mark stays in the first column's name, as text mode reads it
            with pytest.raises(DataError, match="missing column"):
                ingest_csv(path, schema=domains)
        else:
            counted = empirical_distribution(space, ingest_csv(path, schema=domains))

    assert inferred.column_names == tuple(header)
    assert inferred.records == tuple(records)
    assert inferred.counts.tolist() == list(records.values())
    assert inferred.n == sum(records.values())
    assert [d.name for d in inferred.domains] == header
    for j, domain in enumerate(inferred.domains):
        assert domain.levels == tuple(sorted({record[j] for record in records}))
    if not bom:
        axis = [header.index(d.name) for d in domains]
        expected = np.zeros(space.n_entities, dtype=np.int64)
        for record, count in records.items():
            expected[space.index_of([record[j] for j in axis])] = count
        assert counted.counts.dtype == np.int64
        assert np.array_equal(counted.counts, expected)


class TestIngestBytes:
    """Bytes that do not decode, and files with nothing to count."""

    @pytest.mark.parametrize("data", [
        b"u,v\xff\na,b\n",
        b"u,v\na,b\na,\xc3\n",
        b"u,v\ra,b\rc,\xe9\r",
        b"u,v\r\na,b\r\n\xff,b",
    ], ids=["header", "data-row", "cr", "last-line"])
    def test_invalid_utf8_is_a_data_error(self, tmp_path, data):
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        with pytest.raises(DataError, match="unparseable CSV file"):
            ingest_csv(path)

    @pytest.mark.parametrize("data, match", [
        (b"", "empty file"),
        (b"u,v", "no data rows"),
        (b"u,v\n", "no data rows"),
        (b"u,v\r", "no data rows"),
        (b"u,v\r\n", "no data rows"),
        (b"\xef\xbb\xbfu,v\n", "no data rows"),
    ], ids=["empty", "header", "header-lf", "header-cr", "header-crlf", "header-bom"])
    def test_nothing_to_count(self, tmp_path, data, match):
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        with pytest.raises(DataError, match=match):
            ingest_csv(path)

    def test_header_and_records_share_a_raw_line(self, tmp_path):
        # bare CR endings: the whole file is one line to a binary read
        path = tmp_path / "data.csv"
        path.write_bytes(b"u,v\ra,b\rc,d\ra,b\n\ra,b")
        with pytest.raises(DataError, match="row 4 has 0 cells"):
            ingest_csv(path)
        path.write_bytes(b"u,v\ra,b\rc,d\ra,b\na,b\r\nc,d")
        table = ingest_csv(path)
        assert table.column_names == ("u", "v")
        assert table.records == (("a", "b"), ("c", "d"))
        assert table.counts.tolist() == [3, 2]
