"""Minimal Matrix Market reader/writer for real matrices.

Supports the coordinate format (general, symmetric, skew-symmetric) and
the array format (general, symmetric), real or integer valued.  Complex,
pattern and hermitian files are rejected: the benchmark pipeline is real
throughout.  A coordinate file is read into a ``scipy.sparse.csr_array``,
in memory proportional to its entries whatever its declared size; an
array file into a dense ndarray, read in blocks of whole lines, so reading
costs one pass over the text, not one Python call per value.  A block of at
least ``_FAST_MIN_CHARS`` characters holding one decimal number per line is
converted by scipy's C++ Matrix Market reader, and kept only where the
result is certified to be what numpy would read; every other block is
parsed by numpy, and its errors are found and reported by Python.
A size line that declares more than ``MAX_DIMENSION`` rows or columns is
rejected before anything is allocated: a CSR array stores one pointer per
row whatever its entries.

The writer takes a dense or a scipy.sparse matrix.  It emits a coordinate
file for a matrix with at most ``systems.SPARSE_DENSITY`` of its entries
nonzero and no negative zero (``symmetric``, lower triangle, when it equals
its transpose), and a dense array file otherwise.  Values carry 17
significant digits, so a read-back reproduces the matrix bit for bit in
either format.  A large finite array is formatted by scipy's C++ writer, in
the same bytes as Python's ``'{:.16e}'``; any other matrix by Python.
"""

from contextlib import contextmanager
import io
import os
import re

import numpy as np

from .errors import MissingFile, ParseError
from .systems import SPARSE_DENSITY, _issparse

__all__ = ["read_matrix", "write_matrix"]

_BANNER = "%%matrixmarket"

# Characters of an array file's data section read and parsed at a time.
_BLOCK_CHARS = 1 << 20

# Characters of array text from which a block, or a written matrix, goes
# through scipy's C++ Matrix Market reader or writer.  Smaller inputs never
# import scipy.io.
_FAST_MIN_CHARS = 1 << 16

# The bytes of a block the C++ reader may convert: one decimal number per
# line.  Any other byte (a space, a tab, a comment, a letter) sends the block
# to the Python parser.
_DECIMAL = b"0123456789.eE+-\n"

# Characters of one written value at most: '{:.16e}' with a sign and a
# three-digit exponent, and its newline.
_LINE_CHARS = 25

# Largest number of rows or columns a file may declare (a CSR row pointer
# array of 80 MB).
MAX_DIMENSION = 10**7


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


@contextmanager
def _text_input(path):
    """Yield a UTF-8 text file opened for reading.

    Raises MissingFile if the path is not a file.  A byte that is not UTF-8,
    met while reading, raises ParseError at that byte's line.
    """
    if not os.path.isfile(path):
        raise MissingFile(f"no such file: {path}")
    try:
        with open(path, "r", encoding="utf-8") as f:
            yield f
    except UnicodeDecodeError:
        # Read again with each undecodable byte b as the lone surrogate
        # 0xDC00 + b.
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
            for lineno, line in enumerate(f, start=1):
                bad = re.search("[\udc80-\udcff]", line)
                if bad:
                    byte = ord(bad.group()) - 0xDC00
                    raise ParseError(path, lineno,
                                     f"byte {byte:#04x} is not UTF-8") from None
        raise


def read_lines(path):
    """The lines of a UTF-8 text file, as ``readlines`` returns them.

    Raises MissingFile if the path does not exist, and ParseError at the
    line of the first byte that is not UTF-8.
    """
    with _text_input(path) as f:
        return f.readlines()


def read_matrix(path):
    """Read one Matrix Market file.

    A coordinate file gives a canonical ``scipy.sparse.csr_array`` (sorted
    indices, no stored zeros): entries at the same position sum in file
    order, as they would into a dense array of zeros, and the mirror
    entries of a symmetric or skew-symmetric file are added after them.
    An array file gives a dense float ndarray.

    Raises
    ------
    MissingFile
        If the path does not exist.
    ParseError
        On malformed content, or a size line declaring more than
        ``MAX_DIMENSION`` rows or columns; the message carries the line
        number.
    """
    with _text_input(path) as f:
        first = f.readline()
        if not first:
            raise ParseError(path, 1, "empty file")

        header = first.lower().split()
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

        # Skip comment lines, then blank lines, to the size line.
        lineno, line = 2, f.readline()
        while line.lstrip().startswith("%"):
            lineno, line = lineno + 1, f.readline()
        while line and not line.strip():
            lineno, line = lineno + 1, f.readline()
        if not line:
            raise ParseError(path, lineno - 1, "missing size line")

        size_line = line.split()
        names = ("rows", "cols", "nnz") if fmt == "coordinate" else ("rows", "cols")
        if len(size_line) != len(names):
            raise ParseError(path, lineno, f"{fmt} size line needs '{' '.join(names)}'")
        try:
            sizes = [int(t) for t in size_line]
        except ValueError:
            raise ParseError(path, lineno, f"bad size line {line.strip()!r}")
        if min(sizes) < 0:
            raise ParseError(path, lineno, f"negative size in {line.strip()!r}")
        if max(sizes[:2]) > MAX_DIMENSION:
            raise ParseError(path, lineno, f"more than {MAX_DIMENSION} rows or "
                             f"columns in {line.strip()!r}")
        if sym != "general" and sizes[0] != sizes[1]:
            raise ParseError(path, lineno, f"{sym} file must be square")
        if fmt == "coordinate":
            return _read_coordinate(path, f, lineno, *sizes, sym)
        return _read_array(path, f, lineno, *sizes, sym)


def _read_coordinate(path, f, lineno, rows, cols, nnz, sym):
    """The entries after the size line (line ``lineno``) of ``f``, as a
    CSR array.

    Every entry is checked and counted before the result is allocated; the
    entries, and then their mirror images, are summed in file order.
    """
    from scipy.sparse import csr_array

    ii, jj, vv = [], [], []
    for lineno, raw in enumerate(f, start=lineno + 1):
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
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
        ii.append(i - 1)
        jj.append(j - 1)
        vv.append(v)
    if len(vv) != nnz:
        raise ParseError(path, lineno, f"declared {nnz} entries but found {len(vv)}")

    ii, jj, vv = (np.array(ii, dtype=np.intp), np.array(jj, dtype=np.intp),
                  np.array(vv, dtype=float))
    if sym != "general":
        # Mirrors land in the strict upper triangle, which no stored entry
        # touches, so each element still sums in file order.
        off = ii != jj
        sign = 1.0 if sym == "symmetric" else -1.0
        ii, jj, vv = (np.concatenate([ii, jj[off]]), np.concatenate([jj, ii[off]]),
                      np.concatenate([vv, sign * vv[off]]))
    # A stable sort by position keeps file order among duplicates; each
    # position's entries then sum from zero in that order.
    order = np.lexsort((jj, ii))
    ii, jj, vv = ii[order], jj[order], vv[order]
    first = np.ones(len(vv), dtype=bool)
    first[1:] = (ii[1:] != ii[:-1]) | (jj[1:] != jj[:-1])
    sums = np.zeros(np.count_nonzero(first))
    np.add.at(sums, np.cumsum(first) - 1, vv)
    keep = sums != 0
    return csr_array((sums[keep], (ii[first][keep], jj[first][keep])),
                     shape=(rows, cols))


def _line_blocks(f):
    """The rest of ``f`` in blocks of whole lines of about _BLOCK_CHARS
    characters; only the last block may lack its closing newline."""
    pending = []
    while block := f.read(_BLOCK_CHARS):
        cut = block.rfind("\n") + 1
        if cut:
            pending.append(block[:cut])
            yield "".join(pending)
            pending = [block[cut:]]
        else:
            pending.append(block)
    tail = "".join(pending)
    if tail:
        yield tail


@contextmanager
def _one_fmm_thread():
    """Run scipy's C++ Matrix Market reader and writer on one thread.

    Its default, one thread per core, read a 6 MB file more slowly on a
    2-core host and raised peak memory.  The setting is a module global of
    scipy's, restored on exit.
    """
    import scipy.io._fast_matrix_market as fmm

    saved, fmm.PARALLELISM = fmm.PARALLELISM, 1
    try:
        yield
    finally:
        fmm.PARALLELISM = saved


def _convert_decimal_block(text):
    """The values of a block of one decimal number per line, converted by
    scipy's C++ reader, and the block's number of lines; or None where that
    reader cannot certify the values.

    Each line x is read as the complex entry ``x nan``.  The reader takes
    the longest number prefix of x as the real part and starts the
    imaginary part right after it, so a character of x that is not part of
    that number becomes the imaginary part or an error, never the NaN.  The
    reader drops the sign of a zero; it is put back from the first byte of
    the zero's line.
    """
    data = text.encode()
    raw = np.frombuffer(data, dtype=np.uint8)
    newline = raw == ord("\n")
    # A blank line is a newline first or right after another.
    if (data.translate(None, _DECIMAL) or newline[0]
            or (newline[1:] & newline[:-1]).any()):
        return None
    # A line starts at the first byte and after every newline but the last.
    starts = np.flatnonzero(np.r_[True, newline[:-1]])
    last = b"" if newline[-1] else b"\n"
    head = b"%%%%MatrixMarket matrix array complex general\n%d 1\n" % len(starts)
    import scipy.io

    with _one_fmm_thread():
        try:
            z = scipy.io.mmread(io.BytesIO(
                head + (data + last).replace(b"\n", b" nan\n")))[:, 0]
        except ValueError:
            return None
    if not np.isnan(z.imag).all():
        return None
    values = z.real.copy()
    zeros = values == 0
    values[zeros] = np.where(raw[starts[zeros]] == ord("-"), -0.0, 0.0)
    return values, len(starts)


def _parse_block(path, text, lineno):
    """The values of a block of lines whose first line is ``lineno``,
    skipping comment lines, and the block's number of lines."""
    if len(text) >= _FAST_MIN_CHARS:
        converted = _convert_decimal_block(text)
        if converted is not None:
            return converted
    lines = text.count("\n") + (not text.endswith("\n"))
    data = text
    if "%" in text:
        data = "\n".join(line for line in text.split("\n")
                         if not line.strip().startswith("%"))
    try:
        return np.array(data.split(), dtype=float), lines
    except ValueError:
        pass
    for offset, line in enumerate(text.split("\n")):
        stripped = line.strip()
        if stripped.startswith("%"):
            continue
        for token in stripped.split():
            try:
                float(token)
            except ValueError:
                raise ParseError(path, lineno + offset,
                                 f"bad value {token!r}") from None
    raise AssertionError("numpy rejected a block that float() accepts")


def _read_array(path, f, lineno, rows, cols, sym):
    """The values after the size line (line ``lineno``) of ``f``."""
    parts = [np.empty(0)]
    for text in _line_blocks(f):
        values, lines = _parse_block(path, text, lineno + 1)
        parts.append(values)
        lineno += lines
    values = np.concatenate(parts)
    expected = rows * cols if sym == "general" else rows * (rows + 1) // 2
    if len(values) != expected:
        raise ParseError(
            path, lineno, f"expected {expected} values, found {len(values)}"
        )
    if sym == "general":
        return values.reshape((rows, cols), order="F")
    # Column-major lower triangle: row r, column c of the upper one.
    r, c = np.triu_indices(rows)
    a = np.zeros((rows, cols))
    a[c, r] = values
    a[r, c] = values
    return a


def write_matrix(path_or_file, a, comment=None):
    """Write a real matrix, dense or scipy.sparse, as a Matrix Market file.

    A matrix with at most ``SPARSE_DENSITY`` of its entries nonzero and no
    negative zero is written as a coordinate file: ``symmetric`` with its
    lower triangle if it equals its transpose, else ``general``.  (The
    reader sums entries into zeros, so a stored -0.0 would read back as
    +0.0.)  Any other matrix is written as a general array file.  Values
    are written column-major with 17 significant digits, so a read-back
    reproduces the matrix bit for bit.  A sparse matrix is written in the
    same bytes as its dense twin, and is densified only for an array file.
    """
    sparse = _issparse(a)
    if sparse:
        a = a.tocsc(copy=True).astype(float, copy=False)
        a.sum_duplicates()
        values = a.data
    else:
        a = values = np.atleast_2d(np.asarray(a, dtype=float))
    rows, cols = a.shape
    coordinate = (np.count_nonzero(values) <= SPARSE_DENSITY * rows * cols
                  and not np.signbit(values[values == 0]).any())
    if coordinate:
        from scipy.sparse import csc_array

        a = csc_array(a)
        a.eliminate_zeros()
        symmetric = rows == cols and (a != a.T).nnz == 0
    elif sparse:
        a = a.toarray()
    with text_output(path_or_file) as f:
        if coordinate:
            f.write("%%MatrixMarket matrix coordinate real "
                    f"{'symmetric' if symmetric else 'general'}\n")
        else:
            f.write("%%MatrixMarket matrix array real general\n")
        if comment:
            for line in str(comment).splitlines():
                f.write(f"%{line}\n")
        if not coordinate:
            f.write(f"{rows} {cols}\n")
            if (rows * cols * _LINE_CHARS >= _FAST_MIN_CHARS
                    and np.isfinite(a).all()):
                _write_array_values(f, a)
            else:
                for j in range(cols):
                    f.write("".join(map("{:.16e}\n".format,
                                        a[:, j].tolist())))
            return
        # Column-major order: the columns of the CSC form, rows ascending.
        i, v = a.indices, a.data
        j = np.repeat(np.arange(cols), np.diff(a.indptr))
        if symmetric:
            i, j, v = i[i >= j], j[i >= j], v[i >= j]
        f.write(f"{rows} {cols} {len(i)}\n")
        f.write("".join(map("{} {} {:.16e}\n".format, (i + 1).tolist(),
                            (j + 1).tolist(), v.tolist())))


def _write_array_values(f, a):
    """Write the values of a finite dense matrix column-major, one
    ``'{:.16e}'`` line each, through scipy's C++ writer in blocks of whole
    columns of at most _BLOCK_CHARS characters.

    At 17 significant digits that writer formats a finite double as
    ``'{:.16e}'`` does; it writes an infinity as ``Infinity``, so only a
    finite matrix comes here.
    """
    import scipy.io

    rows, cols = a.shape
    step = max(1, _BLOCK_CHARS // (_LINE_CHARS * rows))
    with _one_fmm_thread():
        for j in range(0, cols, step):
            block = a[:, j:j + step]
            buf = io.BytesIO()
            scipy.io.mmwrite(buf, block, precision=17, symmetry="general")
            out = buf.getvalue()
            size_line = b"\n%d %d\n" % block.shape
            f.write(out[out.index(size_line) + len(size_line):].decode())
