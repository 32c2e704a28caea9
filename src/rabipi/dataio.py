"""CSV serialization of shot-count datasets.

Wire format (UTF-8, LF line endings; ``load_csv`` also reads CRLF and a
leading byte-order mark):

    # label: q1          <- optional comment line
    t,shots,ones
    0.0,8192,12
    0.1,8192,95
    ...

Times are written as their shortest exact decimal representation so that
parse(write(ds)) reproduces the dataset bit for bit.
"""

import math
import os
import re

import numpy as np

from .simulate import Dataset

__all__ = ["CsvFormatError", "parse_csv", "write_csv", "load_csv", "save_csv", "save_text"]

HEADER = "t,shots,ones"
_ROW = np.dtype([("t", "f8"), ("shots", "i8"), ("ones", "i8")])
#: A data line that NumPy's reader parses to the bits of Python's ``float``
#: and ``int``.  Outside ASCII its integers are not Python's: it reads
#: "8\u01fe" as 542, where ``int`` raises; and it takes the unit separator
#: \x1f for a space, where ``float`` and ``int`` raise.  An integer field
#: holds no ".", no exponent and at most 18 characters, so int64 holds it:
#: where NumPy's integer parse fails, releases that still carry its 1.23
#: deprecation of parsing an integer via a float truncate the float ("8.5"
#: as 8), with only a warning.
_LINE = r"[-+.0-9eE \t]*,[-+0-9 \t]{0,18},[-+0-9 \t]{0,18}"
_PLAIN = re.compile(rf"{_LINE}(?:\n{_LINE})*")


class CsvFormatError(ValueError):
    """Malformed dataset file; message carries the offending line number."""


def parse_csv(text: str, default_label: str = "") -> Dataset:
    """Parse the wire format into a Dataset.

    The label is taken from a leading ``# label:`` comment if present,
    otherwise ``default_label`` (normally the file name).  NumPy's reader
    parses the data lines, blank and ``#`` lines dropped, when each is a
    plain decimal time and two plain integers of at most 18 characters, on
    which it gives Python's ``float`` and ``int`` bits; ``Dataset`` then
    checks them.  The line walk, which takes every spelling ``float`` and
    ``int`` accept (``1_0``, non-ASCII digits), parses the other files and
    names the first bad line of a file that fails.
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
    data = [line for line in map(str.strip, lines[lineno:]) if line and line[0] != "#"]
    # below 2 lines NumPy warns of an empty file, and the walk raises anyway
    if len(data) >= 2 and _PLAIN.fullmatch("\n".join(data)):
        try:
            rows = np.loadtxt(data, delimiter=",", dtype=_ROW, comments=None, ndmin=1)
            return Dataset(rows["t"], rows["shots"], rows["ones"], label=label)
        except ValueError:
            pass
    return _walk(lines, lineno, label)


def _walk(lines, lineno: int, label: str) -> Dataset:
    """The Dataset of the data lines ``lines[lineno:]``, parsed one line at
    a time; raises ``CsvFormatError`` naming the first bad line."""
    rows = []
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
        if not math.isfinite(t):
            raise CsvFormatError(f"line {lineno}: time {t} is not finite")
        if rows and t <= rows[-1][0]:
            raise CsvFormatError(
                f"line {lineno}: non-increasing time {t} after {rows[-1][0]}")
        rows.append((t, shots, ones))
    if len(rows) < 2:
        raise CsvFormatError(f"line {lineno}: need at least 2 data rows")
    return Dataset(*zip(*rows), label=label)


def _format_time(t: float) -> str:
    # shortest decimal that round-trips to the same float
    return repr(float(t))


def write_csv(ds: Dataset) -> str:
    """Serialize a Dataset to the wire format; round-trips exactly.

    Raises ``ValueError`` on a label that the ``# label:`` comment cannot
    carry: one with a line break or with leading or trailing whitespace.
    """
    if ds.label != ds.label.strip() or len(ds.label.splitlines()) > 1:
        raise ValueError(f"label {ds.label!r} has a line break or leading or "
                         f"trailing whitespace; it would not read back")
    lines = []
    if ds.label:
        lines.append(f"# label: {ds.label}")
    lines.append(HEADER)
    for t, shots, ones in zip(ds.t.tolist(), ds.shots.tolist(), ds.ones.tolist()):
        lines.append(f"{_format_time(t)},{shots},{ones}")
    return "\n".join(lines) + "\n"


def load_csv(path) -> Dataset:
    # "utf-8-sig" drops the byte-order mark a spreadsheet may write first
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    return parse_csv(text, default_label=os.path.basename(str(path)))


def save_csv(ds: Dataset, path):
    save_text(write_csv(ds), path)


def save_text(text: str, path):
    """Write ``text`` to ``path`` as UTF-8 with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
