"""Votes CSV round-trips, strict parse errors, and the synthetic generators."""

import csv
import io

import numpy as np
import pytest

from budgetcore import ballots
from budgetcore.ballots import (
    PROFILES,
    BallotError,
    gen_synthetic,
    parse_votes,
    write_votes,
)


class TestRoundTrip:
    def test_path_round_trip(self, tmp_path):
        M = np.array([[1.0, 0.0, 2.5], [0.0, 1 / 3, 0.0]])
        path = tmp_path / "votes.csv"
        write_votes(path, M, ["parks", "roads", "wifi"])
        out, names = parse_votes(path)
        assert np.allclose(out, M, rtol=1e-9, atol=0)  # 10 significant digits
        assert names == ["parks", "roads", "wifi"]

    def test_stream_round_trip_default_ids(self):
        M = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 3.0]])
        buf = io.StringIO()
        write_votes(buf, M, ["a", "b"])
        written = buf.getvalue().splitlines()[1:]
        assert [line.split(",")[0] for line in written] == ["v0", "v1", "v2"]
        buf.seek(0)
        out, names = parse_votes(buf)
        assert np.allclose(out, M)
        assert names == ["a", "b"]

    def test_writes_what_a_row_loop_writes(self):
        # Distinct values are formatted once per block of rows; the text must
        # match formatting every cell in turn, -0.0 and block edges included.
        rng = np.random.default_rng(5)
        pool = np.array([0.0, -0.0, 1.0, 1 / 3, 2.5, 1e-300, 123456789012.0])
        M = np.where(rng.random((5000, 3)) < 0.5, rng.choice(pool, (5000, 3)),
                     rng.uniform(0, 10, (5000, 3)))
        ids = [f"v{i}" for i in range(len(M))]
        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(["voter_id", "a", "b", "c"])
        for vid, row in zip(ids, M):
            writer.writerow([vid, *(f"{v:.10g}" for v in row)])
        got = io.StringIO()
        write_votes(got, np.asfortranarray(M), ["a", "b", "c"])
        assert got.getvalue() == want.getvalue()
        assert (np.signbit(M) & (M == 0)).any() and "-0" in got.getvalue()

    def test_write_validation(self):
        with pytest.raises(BallotError, match="matrix shape"):
            write_votes(io.StringIO(), np.ones((2, 3)), ["a", "b"])

    @pytest.mark.parametrize("body", ["v0,1,0\r\nv1,0,1\r\n", "v0,0.5,0\r\nv1,0,2.5\r\n"],
                             ids=["digits", "floats"])
    def test_byte_order_mark_dropped(self, tmp_path, body):
        # Spreadsheet "CSV UTF-8" exports start with U+FEFF; both readers see the text after it.
        text = "voter_id,a,b\r\n" + body
        want = parse_votes(io.StringIO(text))
        path = tmp_path / "votes.csv"
        path.write_text("\ufeff" + text, encoding="utf-8", newline="")
        for source in (path, io.StringIO("\ufeff" + text, newline="")):
            got = parse_votes(source)
            assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1] == ["a", "b"]

    def test_blank_lines_ignored(self):
        text = "voter_id,a,b\nv0,1,0\n\nv1,0,1\n   \n"
        out, _ = parse_votes(io.StringIO(text))
        assert out.tobytes() == np.array([[1.0, 0.0], [0.0, 1.0]]).tobytes()


class TestParseErrors:
    def parse(self, text):
        return parse_votes(io.StringIO(text))

    def test_empty_file(self):
        with pytest.raises(BallotError, match="missing header"):
            self.parse("")

    def test_bad_header(self):
        with pytest.raises(BallotError, match="must start with 'voter_id'"):
            self.parse("id,a,b\nv0,1,0\n")

    def test_padded_header_parses(self):
        matrix, names = self.parse(" voter_id , a,b \nv0,1,0\n")
        assert names == ["a", "b"] and matrix.tolist() == [[1.0, 0.0]]

    def test_header_without_items(self):
        with pytest.raises(BallotError, match="no items"):
            self.parse("voter_id\nv0\n")

    def test_empty_item_name(self):
        with pytest.raises(BallotError, match="empty item name"):
            self.parse("voter_id,a,,c\nv0,1,1,1\n")

    def test_duplicate_item_names(self):
        with pytest.raises(BallotError, match="duplicate item names"):
            self.parse("voter_id,a,a\nv0,1,0\n")

    def test_wrong_arity(self):
        with pytest.raises(BallotError, match="line 3: row has 1 value cells, expected 2"):
            self.parse("voter_id,a,b\nv0,1,0\nv1,1\n")

    def test_non_numeric_cell(self):
        with pytest.raises(BallotError, match="line 2, column 'b': not a number: 'x'"):
            self.parse("voter_id,a,b\nv0,1,x\n")

    def test_negative_and_nonfinite(self):
        with pytest.raises(BallotError, match="finite and nonnegative"):
            self.parse("voter_id,a,b\nv0,1,-2\n")
        with pytest.raises(BallotError, match="finite and nonnegative"):
            self.parse("voter_id,a,b\nv0,inf,0\n")

    def test_all_zero_row(self):
        with pytest.raises(BallotError, match="voter 'v1' approves nothing"):
            self.parse("voter_id,a,b\nv0,1,0\nv1,0,0\n")

    def test_no_voter_rows(self):
        with pytest.raises(BallotError, match="no voter rows"):
            self.parse("voter_id,a,b\n")


def reference_parse(source):
    """Row-by-row votes parser: each row's cells are converted and checked
    before the next row is read.  Kept as the reference for ``parse_votes``."""
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise BallotError("empty votes file: missing header row") from None
    if not header or header[0].strip() != "voter_id":
        raise BallotError("line 1: header must start with 'voter_id' followed by item names")
    item_names = [c.strip() for c in header[1:]]
    if not item_names:
        raise BallotError("line 1: header lists no items")
    if any(not name for name in item_names):
        raise BallotError("line 1: empty item name in header")
    if len(set(item_names)) != len(item_names):
        raise BallotError("line 1: duplicate item names in header")
    k = len(item_names)
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != k + 1:
            raise BallotError(f"line {lineno}: row has {len(row) - 1} value cells, expected {k}")
        vid = row[0].strip()
        cells = np.empty(k)
        for j, cell in enumerate(row[1:]):
            try:
                cells[j] = float(cell)
            except ValueError:
                raise BallotError(
                    f"line {lineno}, column '{item_names[j]}': not a number: {cell.strip()!r}"
                ) from None
        if not np.all(np.isfinite(cells)) or np.any(cells < 0):
            raise BallotError(f"line {lineno}: utilities must be finite and nonnegative")
        if not np.any(cells > 0):
            raise BallotError(f"line {lineno}: voter {vid!r} approves nothing (all-zero row)")
        rows.append(cells)
    if not rows:
        raise BallotError("votes file has a header but no voter rows")
    return np.stack(rows), item_names


POSITIVE_CELLS = ["1", " 1", "1e-3", "0.5 ", "2.5", "+3", "\t2\t"]
ZERO_CELLS = ["0", "-0", " 0.0"]
FAULTY_CELLS = ["x", "", "inf", "-inf", "nan", "-1", "1..2", "1e400", "1\x1c"]
# Spellings float() reads that most number parsers do not: an underscore and
# Unicode digits.
CSV_ONLY_CELLS = ["1_0", "\u0661", "\u0662.5"]
QUOTED = ['"a,b"', '"say ""hi"""']
DIGIT_CELLS = list("123456789")


def random_votes_text(rng):
    """A votes CSV: mixed number spellings, blank lines, LF, CRLF or bare-CR
    endings, sometimes no final newline, and in about half the files one to
    three injected faults.  About a third of the files also hold quoted ids
    and item names (with a comma or a doubled quote inside) and spellings
    only ``float()`` reads; of the rest, half hold only one-digit cells, for
    the byte path, and the others plain decimals, for the csv path."""
    k = int(rng.integers(1, 6))
    exotic = rng.random() < 0.35
    positive, zero = POSITIVE_CELLS, ZERO_CELLS
    if exotic:
        positive = POSITIVE_CELLS + CSV_ONLY_CELLS
    elif rng.random() < 0.5:
        positive, zero = DIGIT_CELLS, ["0"]
    rows = []
    for _ in range(int(rng.integers(0, 30))):
        pool = [zero if rng.random() < 0.3 else positive for _ in range(k)]
        cells = [p[int(rng.integers(len(p)))] for p in pool]
        cells[int(rng.integers(k))] = positive[int(rng.integers(len(positive)))]
        rows.append(cells)
    if rows and rng.random() < 0.5:
        for _ in range(int(rng.integers(1, 4))):
            i = int(rng.integers(len(rows)))
            fault = int(rng.integers(4))
            if fault == 0:
                rows[i][int(rng.integers(k))] = FAULTY_CELLS[int(rng.integers(len(FAULTY_CELLS)))]
            elif fault == 1:
                rows[i] = [zero[int(rng.integers(len(zero)))] for _ in range(k)]
            elif fault == 2:
                rows[i] = rows[i][:-1] if rng.random() < 0.5 else rows[i] + ["1"]
            else:
                rows[i] = rows[i] + [""]  # a trailing comma
    names = [f"item{j}" for j in range(k)]
    if exotic and rng.random() < 0.5:
        names[int(rng.integers(k))] = QUOTED[int(rng.integers(len(QUOTED)))]
    lines = ["voter_id," + ",".join(names)]
    for i, cells in enumerate(rows):
        if rng.random() < 0.1:
            lines.append("" if rng.random() < 0.5 else "   ")
        vid = QUOTED[int(rng.integers(len(QUOTED)))] if exotic and rng.random() < 0.2 else f" v{i}"
        lines.append(",".join([vid, *cells]))
    eol = ["\n", "\r\n", "\r"][int(rng.integers(3))]
    return eol.join(lines) + (eol if rng.random() < 0.8 else "")


# One-digit files in layouts the byte path reads.
BYTE_LAYOUTS = [
    "voter_id,a,b\nv0,1,0\nv1,0,1\n",  # \n endings only
    "voter_id,a,b\r\nv0,1,0\r\nv1,0,1",  # no final newline
    "voter_id,a,b\r\nv0,1,0\nv1,0,1\r\nv2,9,1\n",  # \r\n and \n mixed
    "voter_id,a,b\r\n v\u00e9 ,1,0\r\n\u4e2d\U0001f5f3,0,1\r\n",  # multi-byte UTF-8 ids
    "voter_id,a,b\r\n,1,0\r\n \t,0,1\r\n",  # empty ids
    "voter_id,a,b\nv\ud800,1,0\n\u00e9\udfff,0,1\n",  # lone surrogates (a caller's text)
    "voter_id,a,b\nv\x1c0,1,0\nv1,0,1\n",  # \x1c in an id: str.splitlines breaks there
]

# Hand-made files at the seams between the byte path and the csv path.
EDGE_FILES = [
    "voter_id,a\rv0,1\rv1,2",  # bare CR, no final newline
    "voter_id,a,b\nv0,1,\r1\n",  # a CR splits a row
    "voter_id,a\r\n\r\n\r\n",  # header and blank lines only
    "voter_id,a\nv0,1\n\r\r\n\n",
    "voter_id,a\nv0,1\x1c\n",  # float() does not strip \x1c-\x1f
    "voter_id,a\nv0,\x1f1\n",
    "voter_id,a,b\nv0,1\x1d,1\x1e\n",
    "voter_id,a\nv0,1\x0b\nv1,\x0c2\n",  # whitespace both strip
    "voter_id,a\nv0,1\xa0\nv1,\u20282\nv2,3\x85\n",
    "voter_id,a\nv0,\t1\t\nv1, 2 \n",
    "voter_id,a\nv0,1_0\n",
    "voter_id,a\nv0,\u0661\n",
    "voter_id,a\nv0,1\n \t \n",  # a whitespace-only line
    "voter_id,a\nv0,1,\n",  # a trailing comma
    "voter_id,a\n,1\n",  # an empty id
    "voter_id,a\nv\x000,1\n",  # a NUL in an id
    "voter_id,a\nv0,1\x00\n",
    "voter_id,a\n#v0,1\n",  # no comment character
    'voter_id,"a,b"\nv0,1\n',  # quoted header, plain body
    'voter_id,"a\nb"\nv0,1\n',  # a header over two lines
    'voter_id,a\n"v0,x",1\n"v""1",2\n',
    'voter_id,a,b\n"v0,1,0\nv1",1,0\n',  # one row, that the byte scan would read as two
    "voter_id,a\nv0,1e400\n",
    "voter_id,a\nv0,4.9e-324\nv1,0.1000000000000000055511151231257827\n",
    "voter_id,a\nv0,Infinity\n",
    "voter_id,a\nv0,-0\nv1,1\n",
    "voter_id,a,b\nv0,-0,1\nv1,.5,5.\nv2,1E5,+0\n",
    "voter_id,a\nv0,0x1\n",
    "voter_id,a\nv0,1\nv1\n",  # a short last row
    "voter_id,a\r\nv\r0,1\r\nv1,1\r\n",  # a lone CR in an id splits its row
    "voter_id,a,b\nv0,10,0\nv1,1,1\n",  # a two-digit cell
    "voter_id,a,b\nv0,1,0\nv1,10,1\n",  # ... below a one-digit first line
    "voter_id,a,b\nv0,1,0\nv,111\nv2,1,0,1\n",  # k commas over two lines
    "voter_id,a,b\nv0,1,0\nv1,x,1\nv2,1,/\n",  # one-byte cells that are not digits
    "voter_id,a,b\nv0, 1,0\nv1,1 ,1\n",  # a space around a digit
    *BYTE_LAYOUTS,
]


def fallback_ran(*args, **kwargs):
    raise AssertionError("the csv path ran")


def parse_outcome(parser, text):
    try:
        matrix, names = parser(io.StringIO(text, newline=""))
    except BallotError as e:
        return "error", str(e)
    return "ok", (matrix.shape, matrix.tobytes(), names)


class TestOnePassParse:
    def test_matches_row_by_row_reference(self, monkeypatch):
        kinds = ["not a number", "finite and nonnegative", "approves nothing",
                 "value cells", "no voter rows"]
        csv_ran = []  # the csv path's fromiter calls
        fromiter = np.fromiter

        def spy(*args, **kwargs):
            csv_ran.append(True)
            return fromiter(*args, **kwargs)

        monkeypatch.setattr(ballots.np, "fromiter", spy)
        rng = np.random.default_rng(20240607)
        seen = set()
        for _ in range(400):
            text = random_votes_text(rng)
            csv_ran.clear()
            got, want = parse_outcome(parse_votes, text), parse_outcome(reference_parse, text)
            assert got == want, text
            if want[0] == "ok":
                seen.add("ok via csv" if csv_ran else "ok via bytes")
            else:
                seen |= {m for m in kinds if m in want[1]}
        # clean files on both paths, and every row fault, occurred
        assert seen == {"ok via bytes", "ok via csv", *kinds}

    @pytest.mark.parametrize("text", EDGE_FILES)
    def test_edge_file_matches_reference(self, text):
        assert parse_outcome(parse_votes, text) == parse_outcome(reference_parse, text)

    def test_float_file_matches_reference(self, tmp_path):
        inst = gen_synthetic("k-approval", 2000, 12, seed=3)
        M = inst.utilities * np.linspace(0.1, 3.7, 12)
        plain = [f"item{j}" for j in range(12)]
        # csv.writer quotes a name holding a comma; only the body decides.
        for names in (plain, ["Parks, phase 2"] + plain[1:]):
            path = tmp_path / "votes.csv"
            write_votes(path, M, names)
            with open(path, encoding="utf-8", newline="") as fh:
                want = reference_parse(fh)
            got = parse_votes(path)
            assert got[0].flags.c_contiguous
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1:] == want[1:]

    @pytest.mark.parametrize("text", BYTE_LAYOUTS)
    def test_one_digit_layout_takes_byte_path(self, text, monkeypatch):
        monkeypatch.setattr(ballots.np, "fromiter", fallback_ran)
        assert parse_outcome(parse_votes, text) == parse_outcome(reference_parse, text)

    def test_generated_file_takes_byte_path(self, tmp_path, monkeypatch):
        # write_votes ends lines with csv.writer's \r\n and spells 0/1 as one
        # digit, so a generated approval file never reaches the csv path.
        inst = gen_synthetic("k-approval", 2000, 12, seed=3)
        path = tmp_path / "votes.csv"
        write_votes(path, inst.utilities, ["Parks, phase 2"] + [f"item{j}" for j in range(1, 12)])
        assert b"\r\n" in path.read_bytes()
        with open(path, encoding="utf-8", newline="") as fh:
            want = reference_parse(fh)
        monkeypatch.setattr(ballots.np, "fromiter", fallback_ran)
        got = parse_votes(path)
        assert got[0].flags.c_contiguous
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1:] == want[1:]

    def test_first_faulty_line_wins(self):
        cases = [
            # a non-number on line 3 beats a wrong arity on line 5
            ("voter_id,a,b\nv0,1,0\nv1,x,1\nv2,1,1\nv3,1\n",
             "line 3, column 'a': not a number: 'x'"),
            # an all-zero row on line 2 beats a non-number on line 4
            ("voter_id,a,b\nv0,0,0\nv1,1,1\nv2,1,y\n",
             "line 2: voter 'v0' approves nothing (all-zero row)"),
            # a negative cell on line 2 beats a wrong arity on line 3
            ("voter_id,a,b\nv0,-1,1\nv1,1,1,1\n",
             "line 2: utilities must be finite and nonnegative"),
            # within one row a non-number beats a negative cell
            ("voter_id,a,b\nv0,-1,z\n", "line 2, column 'b': not a number: 'z'"),
            # a one-digit file falls back from the byte path to name its line
            ("voter_id,a,b\r\nv0,1,0\r\nv1,0,0\r\nv2,1,1\r\n",
             "line 3: voter 'v1' approves nothing (all-zero row)"),
        ]
        for text, message in cases:
            with pytest.raises(BallotError) as err:
                parse_votes(io.StringIO(text))
            assert str(err.value) == message
            assert parse_outcome(reference_parse, text) == ("error", message)


class TestFigureProfiles:
    def test_majority_minority(self):
        inst = gen_synthetic("figure1a", n=6)
        # ceil(6/2) + 1 = 4 voters form the strict majority.
        assert inst.utilities[:4] == pytest.approx(np.tile([1.0, 0.0], (4, 1)))
        assert inst.utilities[4:] == pytest.approx(np.tile([0.0, 1.0], (2, 1)))
        with pytest.raises(BallotError, match="n >= 3"):
            gen_synthetic("figure1a", n=2)

    def test_shared_item(self):
        inst = gen_synthetic("figure1b", n=4)
        assert inst.utilities[:2] == pytest.approx(np.tile([0.6, 0.0, 0.4], (2, 1)))
        assert inst.utilities[2:] == pytest.approx(np.tile([0.0, 0.6, 0.4], (2, 1)))
        odd = gen_synthetic("figure1b", n=5)
        assert (odd.utilities[:, 0] > 0).sum() == 3  # ceil(5/2) in the first camp

    def test_lone_dissenter(self):
        inst = gen_synthetic("figure1c", n=6)
        assert inst.utilities[:5] == pytest.approx(np.tile([1.0, 0.0], (5, 1)))
        assert inst.utilities[5] == pytest.approx([0.0, 1.0])

    def test_free_rider(self):
        inst = gen_synthetic("figure2a", n=4)
        assert inst.utilities[0] == pytest.approx([1 / 3, 2 / 3])
        assert inst.utilities[1:] == pytest.approx(np.tile([1.0, 0.0], (3, 1)))

    def test_two_manipulators(self):
        inst = gen_synthetic("figure2b", n=4)
        assert inst.utilities[0] == pytest.approx([1 / 3, 2 / 3])
        assert inst.utilities[1] == pytest.approx([2 / 3, 1 / 3])
        assert inst.utilities[2:] == pytest.approx(np.tile([0.5, 0.5], (2, 1)))

    def test_fixed_k_rejected(self):
        with pytest.raises(BallotError, match="profile fixes k = 2, got 3"):
            gen_synthetic("figure1a", n=5, k=3)
        # Passing the matching k is fine.
        assert gen_synthetic("figure1b", n=4, k=3).k == 3


class TestRandomProfiles:
    def test_disjoint_groups_round_robin(self):
        inst = gen_synthetic("disjoint-groups", n=7, k=3)
        expect = np.zeros((7, 3))
        expect[np.arange(7), np.arange(7) % 3] = 1.0
        assert np.array_equal(inst.utilities, expect)
        with pytest.raises(BallotError, match="k >= 1"):
            gen_synthetic("disjoint-groups", n=5)

    def test_bernoulli_frozen_draw(self):
        inst = gen_synthetic("independent-bernoulli", n=100, k=5, seed=7)
        assert set(np.unique(inst.utilities)) <= {0.0, 1.0}
        assert int(inst.utilities.sum()) == 241
        assert inst.utilities.any(axis=1).all()  # no empty ballots
        again = gen_synthetic("independent-bernoulli", n=100, k=5, seed=7)
        assert np.array_equal(inst.utilities, again.utilities)

    def test_bernoulli_p_validation(self):
        with pytest.raises(BallotError, match="approval probability"):
            gen_synthetic("independent-bernoulli", n=10, k=3, p=0.0)
        dense = gen_synthetic("independent-bernoulli", n=10, k=3, p=1.0)
        assert dense.utilities.sum() == 30

    def test_block_correlated_structure(self):
        inst = gen_synthetic("block-correlated", n=50, k=7, seed=1)
        u = inst.utilities
        assert np.all(u[:, 0] == 1.0)  # anchor approved by everyone
        # k=7 splits into blocks {1,2,3} and {4,5,6}; columns agree in-block.
        for block in ((1, 2, 3), (4, 5, 6)):
            for j in block[1:]:
                assert np.array_equal(u[:, block[0]], u[:, j])
        assert not np.array_equal(u[:, 1], u[:, 4])  # coins differ

    def test_block_correlated_validation(self):
        with pytest.raises(BallotError, match="k >= 3"):
            gen_synthetic("block-correlated", n=10, k=2)
        with pytest.raises(BallotError, match="coin probability"):
            gen_synthetic("block-correlated", n=10, k=5, p=1.0)

    def test_k_approval_rows_and_sizes(self):
        inst = gen_synthetic("k-approval", n=30, k=10, seed=3, budget=500.0)
        assert np.all(inst.utilities.sum(axis=1) == 4)  # default approval count
        assert inst.sizes.shape == (10,)
        assert np.all((inst.sizes >= 0.08 * 500.0) & (inst.sizes <= 0.25 * 500.0))
        # One row's draw after another, as every generated election was made.
        rng = np.random.default_rng(3)
        want = np.zeros((30, 10))
        for i in range(30):
            want[i, rng.choice(10, size=4, replace=False)] = 1.0
        assert np.array_equal(inst.utilities, want)
        assert np.array_equal(inst.sizes, rng.uniform(0.08, 0.25, size=10) * 500.0)
        narrow =gen_synthetic("k-approval", n=30, k=10, seed=3, approvals=2)
        assert np.all(narrow.utilities.sum(axis=1) == 2)
        with pytest.raises(BallotError, match=r"approvals must lie in \[1, k\]"):
            gen_synthetic("k-approval", n=10, k=3, approvals=5)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_k_approval_default_approves_every_item_when_k_is_small(self, k):
        # The default approval count is min(4, k), so k <= 3 needs no 'approvals'.
        inst = gen_synthetic("k-approval", n=20, k=k, seed=5)
        assert np.all(inst.utilities.sum(axis=1) == k)

    @pytest.mark.parametrize("approvals", [2.5, 2.0, "2", 0, 6])
    def test_approvals_must_be_an_integer_in_range(self, approvals):
        # int() would quietly read 2.5 as 2 approvals.
        with pytest.raises(BallotError, match=r"approvals must lie in \[1, k\], got"):
            gen_synthetic("k-approval", n=6, k=5, approvals=approvals)

    def test_sizes_scale_with_budget(self):
        a = gen_synthetic("k-approval", n=10, k=5, seed=9, budget=1.0)
        b = gen_synthetic("k-approval", n=10, k=5, seed=9, budget=250.0)
        assert b.sizes == pytest.approx(a.sizes * 250.0)
        assert np.array_equal(a.utilities, b.utilities)


class TestGenDispatch:
    def test_unknown_profile(self):
        with pytest.raises(BallotError, match="unknown profile 'nope'; known profiles:"):
            gen_synthetic("nope", n=5)

    @pytest.mark.parametrize("profile, param", [
        ("independent-bernoulli", "p"), ("block-correlated", "p"), ("k-approval", "approvals"),
    ])
    def test_boolean_params_rejected(self, profile, param):
        # float(True) and int(True) are 1: a flag would pass as p = 1.0 or 1 approval.
        with pytest.raises(BallotError, match=f"{param} must be a number, got True"):
            gen_synthetic(profile, n=5, k=4, **{param: True})

    def test_unused_params_rejected(self):
        with pytest.raises(BallotError, match=r"unused parameters for profile 'figure1a': \['p'\]"):
            gen_synthetic("figure1a", n=5, p=0.5)

    def test_n_validation(self):
        with pytest.raises(BallotError, match="n must be at least 1"):
            gen_synthetic("figure1a", n=0)

    def test_budget_passed_through(self):
        assert gen_synthetic("figure1a", n=5, budget=40.0).budget == 40.0

    def test_profile_registry(self):
        assert set(PROFILES) == {
            "disjoint-groups",
            "independent-bernoulli",
            "block-correlated",
            "k-approval",
            "figure1a",
            "figure1b",
            "figure1c",
            "figure2a",
            "figure2b",
        }
