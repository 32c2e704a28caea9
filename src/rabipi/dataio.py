"""CSV serialization of shot-count datasets.

Wire format (UTF-8, LF line endings):

    # label: q1          <- optional comment line
    t,shots,ones
    0.0,8192,12
    0.1,8192,95
    ...

Times are written as their shortest exact decimal representation so that
parse(write(ds)) reproduces the dataset bit for bit.
"""

import os

from .simulate import Dataset, ShotRecord

__all__ = ["CsvFormatError", "parse_csv", "write_csv", "load_csv", "save_csv", "save_text"]

HEADER = "t,shots,ones"


class CsvFormatError(ValueError):
    """Malformed dataset file; message carries the offending line number."""


def parse_csv(text: str, default_label: str = "") -> Dataset:
    """Parse the wire format into a Dataset.

    The label is taken from a leading ``# label:`` comment if present,
    otherwise ``default_label`` (normally the file name).
    """
    lines = text.splitlines()
    label = default_label
    lineno = 0
    # leading comments; a "# label:" comment names the dataset
    while lineno < len(lines) and lines[lineno].lstrip().startswith("#"):
        comment = lines[lineno].lstrip()[1:].strip()
        if comment.lower().startswith("label:"):
            label = comment[len("label:"):].strip()
        lineno += 1
    if lineno >= len(lines) or lines[lineno].strip() != HEADER:
        raise CsvFormatError(
            f"line {lineno + 1}: expected header '{HEADER}', "
            f"got {lines[lineno].strip() if lineno < len(lines) else '<eof>'!r}")
    lineno += 1

    records = []
    prev_t = None
    for raw in lines[lineno:]:
        lineno += 1
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise CsvFormatError(f"line {lineno}: expected 3 fields, got {len(parts)}")
        try:
            t = float(parts[0])
            shots = int(parts[1])
            ones = int(parts[2])
        except ValueError:
            raise CsvFormatError(f"line {lineno}: non-numeric field in {line!r}")
        if shots < 1:
            raise CsvFormatError(f"line {lineno}: shots must be >= 1, got {shots}")
        if not 0 <= ones <= shots:
            raise CsvFormatError(f"line {lineno}: ones={ones} outside [0, {shots}]")
        if prev_t is not None and t <= prev_t:
            raise CsvFormatError(f"line {lineno}: non-increasing time {t} after {prev_t}")
        prev_t = t
        records.append(ShotRecord(t=t, shots=shots, ones=ones))
    if len(records) < 2:
        raise CsvFormatError(f"line {lineno}: need at least 2 data rows")
    return Dataset(records=tuple(records), label=label)


def _format_time(t: float) -> str:
    # shortest decimal that round-trips to the same float
    return repr(float(t))


def write_csv(ds: Dataset) -> str:
    """Serialize a Dataset to the wire format; round-trips exactly."""
    lines = []
    if ds.label:
        lines.append(f"# label: {ds.label}")
    lines.append(HEADER)
    for r in ds.records:
        lines.append(f"{_format_time(r.t)},{r.shots},{r.ones}")
    return "\n".join(lines) + "\n"


def load_csv(path) -> Dataset:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_csv(text, default_label=os.path.basename(str(path)))


def save_csv(ds: Dataset, path):
    save_text(write_csv(ds), path)


def save_text(text: str, path):
    """Write ``text`` to ``path`` as UTF-8 with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
