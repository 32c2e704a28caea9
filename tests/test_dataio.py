import re

import pytest
from hypothesis import given, settings, strategies as st

import rabipi.dataio
from rabipi.dataio import CsvFormatError, load_csv, parse_csv, write_csv
from rabipi.model import IDEAL, NoiseModel
from rabipi.simulate import DEFAULT_GRID, Dataset, make_grid, sample_dataset

HEADER = "t,shots,ones\n"


class TestParseCsv:
    def test_single_row(self):
        ds = parse_csv(HEADER + "0.0,8192,12\n0.1,8192,95\n")
        assert (ds.t[0], ds.shots[0], ds.ones[0]) == (0.0, 8192, 12)
        assert ds == Dataset([0.0, 0.1], 8192, [12, 95])
        assert ds.label == ""

    def test_label_comment(self):
        ds = parse_csv("# label: q1\n" + HEADER + "0.0,8,1\n1.0,8,2\n")
        assert ds.label == "q1"

    def test_default_label(self):
        ds = parse_csv(HEADER + "0.0,8,1\n1.0,8,2\n", default_label="q2.csv")
        assert ds.label == "q2.csv"

    def test_ones_exceeding_shots_reported_with_line(self):
        with pytest.raises(CsvFormatError, match="line 3"):
            parse_csv(HEADER + "0.0,8192,5\n0.1,8192,9000\n")

    @pytest.mark.parametrize("row, message", [
        ("0.1,8", "^line 3: expected 3 fields, got 2"),
        ("0.1,8,1,1", "^line 3: expected 3 fields, got 4"),
        ("0.1,0,0", "^line 3: shots must be >= 1, got 0")])
    def test_bad_row_named_by_its_line(self, row, message):
        with pytest.raises(CsvFormatError, match=message):
            parse_csv(HEADER + f"0.0,8,1\n{row}\n0.2,8,1\n")

    def test_non_increasing_time_rejected(self):
        with pytest.raises(CsvFormatError, match="non-increasing"):
            parse_csv(HEADER + "0.2,8,1\n0.1,8,1\n")

    def test_bad_header_rejected(self):
        with pytest.raises(CsvFormatError, match="header"):
            parse_csv("time,n,k\n0.0,8,1\n")

    def test_non_numeric_field_rejected(self):
        with pytest.raises(CsvFormatError, match="line 2"):
            parse_csv(HEADER + "abc,8,1\n")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_time_rejected(self, bad):
        with pytest.raises(CsvFormatError, match=f"line 4: time {bad} is not finite"):
            parse_csv(HEADER + f"0.0,8,1\n0.1,8,1\n{bad},8,1\n")
        with pytest.raises(CsvFormatError, match=f"line 2: time {bad} is not finite"):
            parse_csv(HEADER + f"{bad},8,1\n0.1,8,1\n")

    def test_counts_beyond_int64_rejected(self):
        big = 10**20
        with pytest.raises(ValueError, match="int64"):
            parse_csv(HEADER + f"0.0,{big},1\n0.1,{big},2\n")

    def test_too_few_rows_rejected(self):
        with pytest.raises(CsvFormatError):
            parse_csv(HEADER + "0.0,8,1\n")


WALK = rabipi.dataio._walk
#: A decimal number; \d also matches non-ASCII digits, which take the walk.
DECIMAL = r"\A[-+]?(\d{1,25}\.?\d{0,25}|\.\d{1,25})([eE][-+]?\d{1,3})?\Z"


def walked(text):
    """``parse_csv``'s line walk on ``text``, a header and its data lines."""
    return WALK(text.splitlines(), 1, "")


class TestReaders:
    """NumPy's reader parses plain data lines, and the line walk every
    other file, to the same dataset, and the walk names a bad file's line."""

    @pytest.fixture
    def no_walk(self, monkeypatch):
        def walk(*args):
            raise AssertionError("the line walk ran")
        monkeypatch.setattr(rabipi.dataio, "_walk", walk)

    def test_decimals_parse_to_the_same_bits(self, no_walk):
        text = HEADER + ("-0.0,8,1\n1e-3,8,2\n0.1000000000000000055511151231257827,8,3\n"
                         "+0.5,+8,4\n 6.3 , 8 , 5 \n")
        ds = parse_csv(text)
        assert ds.t.tobytes() == walked(text).t.tobytes()
        assert ds == walked(text)
        assert ds.t.tolist() == [-0.0, 1e-3, 0.1, 0.5, 6.3]

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.from_regex(DECIMAL), min_size=2, max_size=20))
    def test_decimal_spellings_parse_as_python_does(self, times):
        text = HEADER + "".join(f"{t},8,{i % 9}\n" for i, t in enumerate(times))
        try:
            want = walked(text)
        except CsvFormatError as e:
            with pytest.raises(CsvFormatError, match=f"^{re.escape(str(e))}$"):
                parse_csv(text)
        else:
            assert parse_csv(text).t.tobytes() == want.t.tobytes()

    def test_python_spellings_still_parse(self):
        ds = parse_csv(HEADER + "1_0,8,1\n\u0661\u0662,1_6,\u0662\n")
        assert ds == Dataset([10.0, 12.0], [8, 16], [1, 2])

    @pytest.mark.parametrize("row", ["0.1,8,1 # x", "0.1,8\u01fe,1", "0.1,8\x1f,1"])
    def test_numbers_python_rejects_name_their_line(self, row):
        # NumPy's reader would take "8\u01fe" for 542 and \x1f for a space
        with pytest.raises(CsvFormatError, match="^line 3: non-numeric field"):
            parse_csv(HEADER + f"0.0,8,1\n{row}\n0.2,8,1\n")

    @pytest.mark.parametrize("row, message", [
        ("0.1,8.5,1", "^line 3: non-numeric field"),
        ("0.1,1e1,1", "^line 3: non-numeric field"),
        ("0.1,8,1.0", "^line 3: non-numeric field"),
        ("0.1,99999999999999999999,1", "must fit in int64"),
        ("0.1,9223372036854775808,1", "must fit in int64")])
    def test_integers_numpy_might_truncate_take_the_walk(self, monkeypatch, row, message):
        # NumPy releases with the 1.23 deprecation of parsing an integer via
        # a float would read "8.5" as 8, where ``int`` raises
        def loadtxt(*args, **kwargs):
            raise AssertionError("NumPy's reader ran")
        monkeypatch.setattr(rabipi.dataio.np, "loadtxt", loadtxt)
        with pytest.raises(ValueError, match=message):
            parse_csv(HEADER + f"0.0,8,1\n{row}\n0.2,8,1\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rows", ["", "0.0,8,1\n", "\n# x\n0.0,8,1\n\n"])
    def test_fewer_than_two_rows_fail_without_a_warning(self, rows):
        with pytest.raises(CsvFormatError, match="need at least 2 data rows"):
            parse_csv(HEADER + rows)

    def test_comment_and_blank_lines_between_rows(self, no_walk):
        text = HEADER + "0.0,8,1\n\n# x\n0.1,8,2\n"
        assert parse_csv(text) == Dataset([0.0, 0.1], 8, [1, 2])


class TestLoadCsv:
    @pytest.mark.parametrize("label", ["q1", ""])
    def test_byte_order_mark_and_crlf_load_as_the_clean_file(self, tmp_path, label):
        ds = sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=4, label=label)
        clean = write_csv(ds).encode()
        variants = {"clean": clean, "bom": b"\xef\xbb\xbf" + clean,
                    "crlf": clean.replace(b"\n", b"\r\n")}
        variants["bom_crlf"] = b"\xef\xbb\xbf" + variants["crlf"]
        loaded = {}
        for name, data in variants.items():
            (tmp_path / name).write_bytes(data)
            loaded[name] = load_csv(tmp_path / name)
        for name, got in loaded.items():
            assert got.label == (label or name)
            assert all(getattr(got, c).tobytes() == getattr(ds, c).tobytes()
                       for c in ("t", "shots", "ones"))


class TestWriteCsv:
    def test_round_trip_sampled(self):
        ds = sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=9, label="q1")
        assert parse_csv(write_csv(ds)) == ds

    def test_label_line_format(self):
        ds = sample_dataset(IDEAL, make_grid(0, 1, 0.5), 8, seed=0, label="q1")
        assert write_csv(ds).splitlines()[0] == "# label: q1"

    def test_grid_times_written_short(self):
        ds = sample_dataset(IDEAL, DEFAULT_GRID, 8, seed=0)
        lines = write_csv(ds).splitlines()
        assert lines[1].startswith("0.0,")
        assert lines[-1].startswith("6.3,")

    @settings(deadline=None, max_examples=50)
    @given(
        seed=st.integers(0, 2**32),
        shots=st.integers(1, 10**6),
        times=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2,
                       max_size=40, unique=True),
        fracs=st.lists(st.floats(0, 1), min_size=40, max_size=40),
        label=st.text(alphabet=st.characters(
                          blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                      max_size=20),
    )
    def test_round_trip_property(self, seed, shots, times, fracs, label):
        label = label.strip()
        if label.lower().startswith("label:"):
            label = "x" + label
        times = sorted(times)
        ds = Dataset(times, shots, [int(f * shots) for f in fracs[:len(times)]], label)
        assert parse_csv(write_csv(ds)) == ds
