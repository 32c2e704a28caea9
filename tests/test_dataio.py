import pytest
from hypothesis import given, settings, strategies as st

from rabipi.dataio import CsvFormatError, parse_csv, write_csv
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
