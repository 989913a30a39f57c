"""Minimal Matrix Market reader/writer for real matrices.

Supports the coordinate format (general, symmetric, skew-symmetric) and
the array format (general, symmetric), real or integer valued.  Complex,
pattern and hermitian files are rejected: the benchmark pipeline is real
throughout.  The writer emits dense array files with 17 significant
digits, which round-trips IEEE doubles exactly.
"""

from contextlib import contextmanager
import os
import re

import numpy as np

from .errors import MissingFile, ParseError

__all__ = ["read_matrix", "write_matrix"]

_BANNER = "%%matrixmarket"


@contextmanager
def text_output(path_or_file):
    """Yield a text file to write to.

    An object with a ``write`` method is yielded as it is and left open.
    Anything else is taken as a path, opened for writing as UTF-8 and
    closed on exit.
    """
    if hasattr(path_or_file, "write"):
        yield path_or_file
    else:
        with open(path_or_file, "w", encoding="utf-8") as f:
            yield f


def read_lines(path):
    """The lines of a UTF-8 text file, as ``readlines`` returns them.

    Raises MissingFile if the path does not exist, and ParseError at the
    line of the first byte that is not UTF-8.
    """
    if not os.path.isfile(path):
        raise MissingFile(f"no such file: {path}")
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.readlines()
    except UnicodeDecodeError:
        pass
    # Read again with each undecodable byte b as the lone surrogate 0xDC00 + b.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            bad = re.search("[\udc80-\udcff]", line)
            if bad:
                byte = ord(bad.group()) - 0xDC00
                raise ParseError(path, lineno, f"byte {byte:#04x} is not UTF-8")


def _tokens(line):
    return line.strip().split()


def read_matrix(path):
    """Read one Matrix Market file into a dense float array.

    Raises
    ------
    MissingFile
        If the path does not exist.
    ParseError
        On malformed content; the message carries the line number.
    """
    lines = read_lines(path)
    if not lines:
        raise ParseError(path, 1, "empty file")

    header = _tokens(lines[0].lower())
    if len(header) != 5 or header[0] != _BANNER or header[1] != "matrix":
        raise ParseError(path, 1, "expected '%%MatrixMarket matrix <fmt> <field> <sym>'")
    fmt, field, sym = header[2], header[3], header[4]
    if fmt not in ("coordinate", "array"):
        raise ParseError(path, 1, f"unsupported format {fmt!r}")
    if field not in ("real", "integer"):
        raise ParseError(path, 1, f"real-valued required, got field {field!r}")
    if sym not in ("general", "symmetric", "skew-symmetric"):
        raise ParseError(path, 1, f"unsupported symmetry {sym!r}")
    if fmt == "array" and sym == "skew-symmetric":
        raise ParseError(path, 1, "skew-symmetric array files are not supported")

    # Skip comment lines to the size line.
    idx = 1
    while idx < len(lines) and lines[idx].lstrip().startswith("%"):
        idx += 1
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx >= len(lines):
        raise ParseError(path, len(lines), "missing size line")

    size_line = _tokens(lines[idx])
    lineno = idx + 1
    names = ("rows", "cols", "nnz") if fmt == "coordinate" else ("rows", "cols")
    if len(size_line) != len(names):
        raise ParseError(path, lineno, f"{fmt} size line needs '{' '.join(names)}'")
    try:
        sizes = [int(t) for t in size_line]
    except ValueError:
        raise ParseError(path, lineno, f"bad size line {lines[idx].strip()!r}")
    if min(sizes) < 0:
        raise ParseError(path, lineno, f"negative size in {lines[idx].strip()!r}")
    if fmt == "coordinate":
        return _read_coordinate(path, lines, idx + 1, *sizes, sym)
    return _read_array(path, lines, idx + 1, *sizes, sym)


def _data_lines(lines, start):
    for offset, raw in enumerate(lines[start:]):
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        yield start + offset + 1, stripped


def _read_coordinate(path, lines, start, rows, cols, nnz, sym):
    a = np.zeros((rows, cols))
    seen = 0
    for lineno, text in _data_lines(lines, start):
        parts = text.split()
        if len(parts) != 3:
            raise ParseError(path, lineno, f"expected 'i j value', got {text!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            v = float(parts[2])
        except ValueError:
            raise ParseError(path, lineno, f"bad entry {text!r}")
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise ParseError(path, lineno, f"index ({i}, {j}) outside {rows}x{cols}")
        if sym == "symmetric" and j > i:
            raise ParseError(path, lineno, "symmetric file stores lower triangle only")
        if sym == "skew-symmetric" and j >= i:
            raise ParseError(
                path, lineno, "skew-symmetric file stores strict lower triangle only"
            )
        a[i - 1, j - 1] += v
        if sym == "symmetric" and i != j:
            a[j - 1, i - 1] += v
        elif sym == "skew-symmetric":
            a[j - 1, i - 1] -= v
        seen += 1
    if seen != nnz:
        raise ParseError(
            path, len(lines), f"declared {nnz} entries but found {seen}"
        )
    return a


def _read_array(path, lines, start, rows, cols, sym):
    values = []
    for lineno, text in _data_lines(lines, start):
        for token in text.split():
            try:
                values.append(float(token))
            except ValueError:
                raise ParseError(path, lineno, f"bad value {token!r}")
    if sym == "general":
        expected = rows * cols
    else:
        if rows != cols:
            raise ParseError(path, start, "symmetric array file must be square")
        expected = rows * (rows + 1) // 2
    if len(values) != expected:
        raise ParseError(
            path, len(lines), f"expected {expected} values, found {len(values)}"
        )
    if sym == "general":
        return np.array(values).reshape((rows, cols), order="F")
    a = np.zeros((rows, cols))
    it = iter(values)
    for j in range(cols):
        for i in range(j, rows):
            v = next(it)
            a[i, j] = v
            a[j, i] = v
    return a


def write_matrix(path_or_file, a, comment=None):
    """Write a dense real matrix as a general array file.

    Values are written column-major with 17 significant digits, so a
    read-back reproduces the array bit for bit.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    with text_output(path_or_file) as f:
        f.write("%%MatrixMarket matrix array real general\n")
        if comment:
            for line in str(comment).splitlines():
                f.write(f"%{line}\n")
        rows, cols = a.shape
        f.write(f"{rows} {cols}\n")
        for j in range(cols):
            for i in range(rows):
                f.write(f"{a[i, j]:.16e}\n")
