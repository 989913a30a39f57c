import io
import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
import scipy.sparse

from morso import mmio
from morso.bench import RunConfig, generate_msd_chain
from morso.discretize import Scheme, write_consistency_curve
from morso.errors import MissingFile, ParseError
from morso.metrics import FrequencyGrid, frequency_response
from morso.mmio import read_matrix, write_matrix
from morso.recursion import RecursionDiagnostics


def _response():
    return frequency_response(generate_msd_chain(3, damping=0.5),
                              FrequencyGrid.log_continuous(count=5))


_WRITERS = {
    "write_matrix": lambda dest: write_matrix(dest, np.arange(6.0).reshape(2, 3),
                                              comment=" two\nlines"),
    "FrequencyResponse.to_csv": lambda dest: _response().to_csv(dest),
    "FrequencyResponse.write_summary": lambda dest: _response().write_summary(dest),
    "RunConfig.to_manifest": lambda dest: RunConfig(h=0.5).to_manifest(dest, "1.0"),
    "RecursionDiagnostics.to_csv": lambda dest: RecursionDiagnostics(
        steps_taken=2, sigma_s=[[2.0, 1.0], [2.5, 0.5]],
        angles_s=[0.25, 0.125], angles_r=[0.5, 0.0625]).to_csv(dest),
    "write_consistency_curve": lambda dest: write_consistency_curve(
        dest, generate_msd_chain(3, damping=0.5), [0.02, 0.01],
        Scheme.FORWARD_VELOCITY, [0.05j]),
}


@pytest.mark.parametrize("name", list(_WRITERS))
def test_writer_path_matches_file_object(tmp_path, name):
    path = tmp_path / "out.txt"
    _WRITERS[name](str(path))
    buf = io.StringIO()
    _WRITERS[name](buf)
    assert not buf.closed
    assert buf.getvalue()
    assert path.read_text(encoding="utf-8") == buf.getvalue()


def test_write_read_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((7, 3)) * np.exp(rng.uniform(-30, 30, (7, 3)))
    path = tmp_path / "a.mtx"
    write_matrix(path, a, comment=" test matrix")
    b = read_matrix(path)
    assert np.array_equal(a, b)


def _written(a):
    buf = io.StringIO()
    write_matrix(buf, a, comment=" kind")
    return buf.getvalue().splitlines()


# Finite values from the subnormals to +-1.8e308, and the infinities.
_VALUES = st.floats(allow_nan=False, allow_subnormal=True)
_NONZERO = _VALUES.filter(bool)


@st.composite
def _matrices(draw):
    """Dense, sparse, symmetric sparse and sparse-with-negative-zero
    matrices of up to 12 x 12."""
    kind = draw(st.sampled_from(["dense", "sparse", "symmetric", "negzero"]))
    rows = draw(st.integers(1, 12))
    cols = rows if kind == "symmetric" else draw(st.integers(1, 12))
    if kind == "dense":
        values = draw(st.lists(_VALUES, min_size=rows * cols,
                               max_size=rows * cols))
        return np.array(values).reshape(rows, cols)
    a = np.zeros((rows, cols))
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    for i, j in draw(st.lists(cells, max_size=rows * cols // 20)):
        a[i, j] = draw(_NONZERO)
        if kind == "symmetric":
            a[j, i] = a[i, j]
    if kind == "negzero":
        a[draw(cells)] = -0.0
    return a


@settings(max_examples=200, deadline=None)
@given(a=_matrices())
def test_write_read_roundtrip_hypothesis(tmp_path_factory, a):
    path = tmp_path_factory.getbasetemp() / "roundtrip.mtx"
    write_matrix(path, a)
    b = read_matrix(path)
    assert b.shape == a.shape
    if scipy.sparse.issparse(b):  # a coordinate file
        b = b.toarray()
    assert b.tobytes() == a.tobytes()
    stored = scipy.sparse.csr_array(a)  # drops zeros, -0.0 included
    assert _written(stored) == _written(stored.toarray())


def test_sparse_chain_stiffness_written_as_symmetric_coordinate():
    lines = _written(generate_msd_chain(400, damping=1.0).K)
    assert lines[0] == "%%MatrixMarket matrix coordinate real symmetric"
    assert lines[2] == "400 400 799"
    assert len(lines) == 3 + 799
    assert lines[3:5] == ["1 1 2.0000000000000000e+00",
                          "2 1 -1.0000000000000000e+00"]


def test_written_kind():
    sparse = np.zeros((6, 6))
    sparse[4, 1] = 3.0
    assert _written(sparse)[0] == "%%MatrixMarket matrix coordinate real general"
    assert _written(sparse)[2:] == ["6 6 1", "5 2 3.0000000000000000e+00"]
    with_negative_zero = sparse.copy()
    with_negative_zero[0, 0] = -0.0
    assert _written(with_negative_zero)[0] == (
        "%%MatrixMarket matrix array real general")
    assert _written(np.arange(1.0, 37.0).reshape(6, 6))[0] == (
        "%%MatrixMarket matrix array real general")


def _big_array_file(path, edit):
    """Write a general array file of more than two read blocks, after
    ``edit(data, k)`` has changed its data lines, where ``data[k]`` is the
    first to start past one and a half blocks.  Returns the unedited matrix
    and the line number of ``data[k]``.  A lone surrogate 0xDC00 + b in a
    line is written as the raw byte b."""
    a = np.random.default_rng(3).uniform(1.0, 2.0, (500, 200))
    data = [f"{v:.16e}" for v in a.ravel(order="F")]
    head = ["%%MatrixMarket matrix array real general", "% big", "500 200"]
    starts = np.cumsum([0] + [len(line) + 1 for line in head + data])
    k = int(np.searchsorted(starts, 1.5 * mmio._BLOCK_CHARS)) - len(head)
    assert starts[-1] > 2 * mmio._BLOCK_CHARS
    edit(data, k)
    path.write_bytes("".join(line + "\n" for line in head + data).encode(
        "utf-8", "surrogateescape"))
    return a, k + len(head) + 1


def test_array_reader_bad_value_in_second_block(tmp_path):
    def bad(data, k):
        data[k] = "1.0x"
    _, lineno = _big_array_file(tmp_path / "b.mtx", bad)
    with pytest.raises(ParseError, match="bad value '1.0x'") as exc:
        read_matrix(tmp_path / "b.mtx")
    assert exc.value.lineno == lineno


def test_array_reader_comments_blanks_and_rows_across_blocks(tmp_path):
    def reshape(data, k):
        data[k:k + 3] = [" ".join(data[k:k + 3])]
        data[k + 1:k + 1] = ["  % note 50%", ""]
        data[k - 9000:k - 8998] = [data[k - 9000] + "\t" + data[k - 8999]]
    a, _ = _big_array_file(tmp_path / "c.mtx", reshape)
    assert read_matrix(tmp_path / "c.mtx").tobytes() == a.tobytes()


def test_array_reader_non_utf8_past_first_block(tmp_path):
    def latin1(data, k):
        data[k] = "% caf\udce9"
    path = tmp_path / "u.mtx"
    _, lineno = _big_array_file(path, latin1)
    with pytest.raises(ParseError, match="0xe9") as exc:
        read_matrix(path)
    assert exc.value.lineno == lineno


@pytest.mark.parametrize("junk", ["1-2", "1.2.3", "1e5.0", "0.-1"])
def test_array_reader_junk_the_fast_reader_would_cut_short(tmp_path, junk):
    """scipy's C++ reader stops at the longest number prefix; at the real
    size gate the line still fails as a whole, at its own line."""
    def bad(data, k):
        data[k] = junk
    _, lineno = _big_array_file(tmp_path / "j.mtx", bad)
    with pytest.raises(ParseError, match=f"bad value '{junk}'") as exc:
        read_matrix(tmp_path / "j.mtx")
    assert exc.value.lineno == lineno


def test_array_reader_two_values_on_one_line_past_the_gate(tmp_path):
    """scipy's C++ reader would take the line "1 nan" for one complex
    entry; the fast path refuses the block for its space, so the line
    counts as two values, as Python's float reads it."""
    def two(data, k):
        data[k] = "1 nan"
    _big_array_file(tmp_path / "t.mtx", two)
    with pytest.raises(ParseError,
                       match="expected 100000 values, found 100001") as exc:
        read_matrix(tmp_path / "t.mtx")
    assert exc.value.lineno == 3 + 100000  # the last line


def test_array_reader_keeps_the_sign_of_zero(tmp_path, monkeypatch):
    """scipy's C++ reader reads -0 and -1e-400 as +0.0; the values read
    through it keep the sign bit Python's float gives them."""
    tokens = ["-0.0", "-1e-400", "-0", "0", "1e-400", "0.0"]

    def zeros(data, k):
        data[k:k + len(tokens)] = tokens
        data[10:10 + len(tokens)] = tokens
    certified = []

    def spy(text):
        values = convert(text)
        certified.append(values is not None)
        return values
    convert = mmio._convert_decimal_block
    monkeypatch.setattr(mmio, "_convert_decimal_block", spy)
    a, lineno = _big_array_file(tmp_path / "z.mtx", zeros)
    b = read_matrix(tmp_path / "z.mtx").ravel(order="F")
    assert all(certified) and len(certified) >= 2
    rest = np.ones(b.size, dtype=bool)
    for k in (10, lineno - 4):  # the value on line lineno is data[lineno - 4]
        assert b[k:k + len(tokens)].tolist() == [0.0] * len(tokens)
        assert np.signbit(b[k:k + len(tokens)]).tolist() == [
            True, True, True, False, False, False]
        rest[k:k + len(tokens)] = False
    assert b[rest].tobytes() == a.ravel(order="F")[rest].tobytes()


# Lines that scipy's C++ reader converts otherwise than Python's float, or
# not at all: it reads a number prefix, drops the sign of a zero, and would
# read "1 nan" as one complex entry.
_MISREAD = ["1-2", "1.2.3", "1e5.0", "1e5e5", "1e", "1.5-", "0.-1", "+1.5",
            "+0", "-0", "-0.0", "-1e-400", "1e-400", "1e999", "-1e999",
            "1e99999999999999999999", "-1e-99999999999999999999", "1 nan",
            "nan", "-inf"]
_DECIMALS = st.builds(
    str.format,
    st.sampled_from(["{:.16e}", "{!r}", "{:.3e}", "{:.6f}", "{:E}", "{:.0f}"]),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))


def _outcome(path, fast_min_chars, block_chars):
    """The array read from ``path``, or the ParseError raised, with the
    fast reader's size gate and the block size set as given."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mmio, "_FAST_MIN_CHARS", fast_min_chars)
        mp.setattr(mmio, "_BLOCK_CHARS", block_chars)
        try:
            a = read_matrix(path)
        except ParseError as exc:
            return type(exc), str(exc), exc.lineno
    return a.shape, a.tobytes()


@pytest.mark.parametrize("line", _MISREAD)
def test_fast_array_reader_misread_line(tmp_path, line):
    """Each line scipy's C++ reader misreads, as the middle value of a 3x1
    array file, reads to the same bytes or the same error and line with the
    size gate at 0 as with the gate above the file's size."""
    text = f"%%MatrixMarket matrix array real general\n3 1\n1.5\n{line}\n-2.5\n"
    path = tmp_path / "misread.mtx"
    path.write_text(text)
    assert (_outcome(path, 0, mmio._BLOCK_CHARS)
            == _outcome(path, len(text) + 1, mmio._BLOCK_CHARS))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_fast_array_reader_matches_python_reader(tmp_path_factory, data):
    """With the size gate at 0, every block goes first to scipy's C++
    reader.  An array file of decimals, edited with what that reader
    misreads, reads to the same bytes or the same error and line as with
    the gate above the file's size."""
    sym = data.draw(st.sampled_from(["general", "symmetric"]))
    rows = data.draw(st.integers(1, 6))
    cols = rows if sym == "symmetric" else data.draw(st.integers(1, 6))
    count = rows * (rows + 1) // 2 if sym == "symmetric" else rows * cols
    lines = data.draw(st.lists(_DECIMALS, min_size=count, max_size=count))
    for _ in range(data.draw(st.integers(0, 3))):
        edit = data.draw(st.sampled_from(
            ["junk", "junk", "blank", "comment", "whitespace", "non-ascii",
             "count"]))
        i = data.draw(st.integers(0, len(lines)))
        if edit == "blank":
            lines.insert(i, data.draw(st.sampled_from(["", " "])))
        elif edit == "comment":
            lines.insert(i, "% note")
        elif edit == "count":
            if data.draw(st.booleans()) and lines:
                del lines[min(i, len(lines) - 1)]
            else:
                lines.insert(i, data.draw(_DECIMALS))
        elif lines:
            i = min(i, len(lines) - 1)
            if edit == "junk":
                lines[i] = data.draw(st.sampled_from(_MISREAD))
            else:
                chars = ([" ", "\t", "\r"] if edit == "whitespace"
                         else ["\u00e9", "\udce9"])  # the latter as byte 0xe9
                char = data.draw(st.sampled_from(chars))
                at = data.draw(st.integers(0, len(lines[i])))
                lines[i] = lines[i][:at] + char + lines[i][at:]
    text = (f"%%MatrixMarket matrix array real {sym}\n{rows} {cols}\n"
            + "\n".join(lines) + data.draw(st.sampled_from(["\n", ""])))
    path = tmp_path_factory.getbasetemp() / "fast_reader.mtx"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    block_chars = data.draw(st.sampled_from([7, 64, mmio._BLOCK_CHARS]))
    assert (_outcome(path, 0, block_chars)
            == _outcome(path, len(text) + 1, block_chars))


def _python_array_text(a):
    """A general array file as written one '{:.16e}' line per value."""
    return ("%%MatrixMarket matrix array real general\n"
            f"{a.shape[0]} {a.shape[1]}\n"
            + "".join(map("{:.16e}\n".format, a.ravel(order="F").tolist())))


def _bit_patterns(rows, cols, seed):
    """Finite doubles from random bit patterns, with zeros of both signs,
    subnormals, +-max, integers and short decimals among them."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2**64, rows * cols, dtype=np.uint64).view(float)
    a[~np.isfinite(a)] = 1.5
    special = [0.0, -0.0, 5e-324, -2.2250738585072009e-308,
               np.finfo(float).max, -np.finfo(float).max, 42.0, -7.0, 0.1, 2.5]
    a[::97][:len(special)] = special
    return a.reshape((rows, cols), order="F")


@pytest.mark.parametrize("rows, cols", [(1000, 60), (44000, 2)])
def test_array_writer_blocks_match_python_format(rows, cols):
    """Column blocks of scipy's C++ writer, across a block boundary
    (41 columns per block) and at one column per block, give the bytes of
    '{:.16e}'."""
    a = _bit_patterns(rows, cols, seed=rows)
    buf = io.StringIO()
    write_matrix(buf, a)
    assert buf.getvalue() == _python_array_text(a)


def test_array_writer_keeps_python_format_for_infinities():
    """scipy's writer would write ``Infinity``; a non-finite matrix above
    the size gate is written as before."""
    a = _bit_patterns(1000, 10, seed=4)
    a[5, 3], a[7, 3], a[9, 9] = np.inf, -np.inf, np.nan
    buf = io.StringIO()
    write_matrix(buf, a)
    assert buf.getvalue() == _python_array_text(a)
    assert buf.getvalue().count("inf\n") == 2 and "Infinity" not in buf.getvalue()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fast_array_writer_matches_python_format(data):
    """With the size gate at 0, every finite dense matrix is written by
    scipy's C++ writer, in the bytes of '{:.16e}'."""
    rows, cols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    a = np.array(data.draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0),
        min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
    a[0, 0] = -0.0  # an array file, whatever the other values
    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mmio, "_FAST_MIN_CHARS", 0)
        mp.setattr(mmio, "_BLOCK_CHARS", data.draw(st.sampled_from([1, 100])))
        write_matrix(buf, a)
    assert buf.getvalue() == _python_array_text(a)


_ARRAY_HEADER = "%%MatrixMarket matrix array real general\n"


def test_missing_size_line_after_comments_and_blanks(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(_ARRAY_HEADER + "% only a comment\n\n")
    with pytest.raises(ParseError, match="missing size line") as exc:
        read_matrix(path)
    assert exc.value.lineno == 3


def test_blank_lines_before_size_line(tmp_path):
    path = tmp_path / "b.mtx"
    path.write_text(_ARRAY_HEADER + "% note\n\n  \n2 1\n1.5\n-2.5\n")
    assert np.array_equal(read_matrix(path), [[1.5], [-2.5]])


def test_array_file_without_trailing_newline(tmp_path):
    path = tmp_path / "t.mtx"
    path.write_text(_ARRAY_HEADER + "2 2\n1\n2\n3\n4.25")
    assert np.array_equal(read_matrix(path), [[1.0, 3.0], [2.0, 4.25]])


def test_bad_value_after_comment_in_array_data(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(_ARRAY_HEADER + "2 1\n1.0\n% a comment\nx\n")
    with pytest.raises(ParseError, match="bad value 'x'") as exc:
        read_matrix(path)
    assert exc.value.lineno == 5


def test_tiny_blocks_split_lines(tmp_path, monkeypatch):
    """Blocks of a few characters split lines, and some hold no newline at
    all; the values read are those of one whole block."""
    a = np.random.default_rng(5).standard_normal((6, 4)) * 1e-7
    path = tmp_path / "s.mtx"
    write_matrix(path, a)
    whole = read_matrix(path)
    monkeypatch.setattr(mmio, "_BLOCK_CHARS", 5)
    split = read_matrix(path)
    assert split.tobytes() == whole.tobytes() == a.tobytes()


def test_coordinate_count_checked_before_allocating(tmp_path):
    path = tmp_path / "t.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "1000000 1000000 2\n"
        "1 1 1.0\n"
    )
    with pytest.raises(ParseError, match="declared 2 entries but found 1") as exc:
        read_matrix(path)
    assert exc.value.lineno == 3


def test_huge_empty_coordinate_header_is_stored_sparse(tmp_path):
    path = tmp_path / "e.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "1000000 1000000 0\n")
    tracemalloc.start()
    try:
        a = read_matrix(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(a, scipy.sparse.csr_array)
    assert a.shape == (1000000, 1000000)
    assert a.nnz == 0
    assert peak < 16e6


def test_coordinate_duplicates_sum_in_file_order(tmp_path):
    path = tmp_path / "d.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 4\n"
        "2 1 1e16\n"
        "2 1 1.0\n"
        "2 1 -1e16\n"
        "2 2 -0.0\n"
    )
    a = read_matrix(path)
    assert a[1, 0] == a[0, 1] == (1e16 + 1.0) - 1e16
    assert np.signbit(a[1, 1]) == np.signbit(0.0 + -0.0)


def test_coordinate_general(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "% comment\n"
        "3 3 2\n"
        "1 1 2.5\n"
        "3 2 -1.0\n"
    )
    a = read_matrix(path)
    expected = np.zeros((3, 3))
    expected[0, 0] = 2.5
    expected[2, 1] = -1.0
    assert np.array_equal(a.toarray(), expected)


def test_coordinate_symmetric_expands(tmp_path):
    path = tmp_path / "s.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 4\n"
        "1 1 1.0\n"
        "2 1 2.0\n"
        "3 1 3.0\n"
        "3 3 4.0\n"
    )
    a = read_matrix(path)
    expected = np.array([[1.0, 2.0, 3.0], [2.0, 0.0, 0.0], [3.0, 0.0, 4.0]])
    assert np.array_equal(a.toarray(), expected)


def test_coordinate_comments_and_blanks_between_entries(tmp_path):
    path = tmp_path / "g.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 1 1.0\n"
        "% note\n"
        "\n"
        "2 2 2.0\n"
    )
    assert np.array_equal(read_matrix(path).toarray(), np.diag([1.0, 2.0]))


@pytest.mark.parametrize("sym, entry, message", [
    ("general", "1 1", "expected 'i j value', got '1 1'"),
    ("general", "1 1 1.0 0.0", "expected 'i j value', got '1 1 1.0 0.0'"),
    ("symmetric", "1 2 1.0", "symmetric file stores lower triangle only"),
    ("skew-symmetric", "2 2 1.0",
     "skew-symmetric file stores strict lower triangle only"),
])
def test_coordinate_entry_errors_have_line_number(tmp_path, sym, entry,
                                                  message):
    path = tmp_path / "e.mtx"
    path.write_text(
        f"%%MatrixMarket matrix coordinate real {sym}\n"
        "2 2 2\n"
        "2 1 1.0\n"
        f"{entry}\n"
    )
    with pytest.raises(ParseError, match=message) as exc:
        read_matrix(path)
    assert exc.value.lineno == 4


def test_coordinate_skew_symmetric(tmp_path):
    path = tmp_path / "k.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real skew-symmetric\n"
        "2 2 1\n"
        "2 1 5.0\n"
    )
    a = read_matrix(path)
    assert np.array_equal(a.toarray(), [[0.0, -5.0], [5.0, 0.0]])


def test_array_symmetric(tmp_path):
    path = tmp_path / "as.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real symmetric\n"
        "2 2\n"
        "1.0\n2.0\n3.0\n"
    )
    a = read_matrix(path)
    assert np.array_equal(a, [[1.0, 2.0], [2.0, 3.0]])


def test_array_column_major(tmp_path):
    path = tmp_path / "am.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n"
        "2 2\n"
        "1.0\n2.0\n3.0\n4.0\n"
    )
    assert np.array_equal(read_matrix(path), [[1.0, 3.0], [2.0, 4.0]])


def test_integer_field_accepted(tmp_path):
    path = tmp_path / "i.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate integer general\n"
        "2 2 1\n"
        "1 2 7\n"
    )
    assert read_matrix(path)[0, 1] == 7.0


def test_complex_rejected(tmp_path):
    path = tmp_path / "z.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate complex general\n"
        "1 1 1\n"
        "1 1 1.0 0.0\n"
    )
    with pytest.raises(ParseError, match="real-valued required"):
        read_matrix(path)


def test_bad_entry_has_line_number(tmp_path):
    path = tmp_path / "b.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "1 x 1.0\n"
    )
    with pytest.raises(ParseError) as exc:
        read_matrix(path)
    assert exc.value.lineno == 3


def test_index_out_of_range(tmp_path):
    path = tmp_path / "o.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "3 1 1.0\n"
    )
    with pytest.raises(ParseError, match="outside"):
        read_matrix(path)


def test_wrong_count(tmp_path):
    path = tmp_path / "w.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n"
        "1 1 1.0\n"
    )
    with pytest.raises(ParseError, match="declared 3"):
        read_matrix(path)


def test_missing_file():
    with pytest.raises(MissingFile):
        read_matrix("/nonexistent/path.mtx")


def test_bad_banner(tmp_path):
    path = tmp_path / "h.mtx"
    path.write_text("garbage\n1 1\n1.0\n")
    with pytest.raises(ParseError) as exc:
        read_matrix(path)
    assert exc.value.lineno == 1


@pytest.mark.parametrize("header,body", [
    ("coordinate real general", "-1 6 0\n"),
    ("array real symmetric", "-1 -1\n"),
    ("array real general", "-1 -1\n1.0\n"),
])
def test_negative_size_is_parse_error(tmp_path, header, body):
    path = tmp_path / "n.mtx"
    path.write_text(f"%%MatrixMarket matrix {header}\n% sizes\n{body}")
    with pytest.raises(ParseError, match="negative size") as exc:
        read_matrix(path)
    assert exc.value.lineno == 3


@pytest.mark.parametrize("size_line", ["1000000000000 1 0", "1 10000001 0",
                                       "1 1000000000000000000000000 0",
                                       "10000001 1"])
def test_size_above_max_dimension_is_parse_error(tmp_path, size_line):
    fmt = "coordinate" if size_line.count(" ") == 2 else "array"
    path = tmp_path / "h.mtx"
    path.write_text(f"%%MatrixMarket matrix {fmt} real general\n{size_line}\n")
    with pytest.raises(ParseError, match="more than 10000000 rows or columns") as exc:
        read_matrix(path)
    assert exc.value.lineno == 2


def test_max_dimension_is_accepted(tmp_path):
    path = tmp_path / "w.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    f"1 {mmio.MAX_DIMENSION} 0\n")
    assert read_matrix(path).shape == (1, mmio.MAX_DIMENSION)


def test_non_utf8_is_parse_error(tmp_path):
    path = tmp_path / "u.mtx"
    path.write_bytes(b"%%MatrixMarket matrix array real general\n"
                     b"% caf\xe9\n1 1\n1.0\n")
    with pytest.raises(ParseError, match="0xe9") as exc:
        read_matrix(path)
    assert exc.value.lineno == 2


def _parses_or_rejects(path):
    try:
        out = read_matrix(path)
    except ParseError:
        return
    assert isinstance(out, (np.ndarray, scipy.sparse.csr_array))


_HEADERS = st.builds(
    "%%MatrixMarket matrix {} {} {}".format,
    st.sampled_from(["array", "coordinate", "dense"]),
    st.sampled_from(["real", "integer", "complex"]),
    st.sampled_from(["general", "symmetric", "skew-symmetric", "hermitian"]))
_SIZES = st.lists(st.integers(-3, 10**6) | st.sampled_from([10**12, 10**24]),
                  min_size=2, max_size=3).map(
    lambda sizes: " ".join(map(str, sizes)))
_TOKENS = (st.integers(-3, 10**6).map(str)
           | st.sampled_from(["", "x", "1.5", "-0.0", "nan", "-inf", "1e999",
                              "0x10", "%", "1 2"]))


@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=200))
def test_read_matrix_fuzz_bytes(tmp_path_factory, data):
    """Arbitrary bytes either parse or raise ParseError."""
    path = tmp_path_factory.getbasetemp() / "fuzz_bytes.mtx"
    path.write_bytes(data)
    _parses_or_rejects(path)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_read_matrix_fuzz_mutations(tmp_path_factory, data):
    """A ``write_matrix`` file, array or coordinate, with up to three edits
    (a line deleted, a token replaced, the header or the size line
    rewritten) either parses or raises ParseError.

    Sizes reach 10^6: a coordinate file of that declared size is stored in
    proportion to its entries.  (An array file that large declares more
    values than any edit leaves in it, and fails its count.)  Sizes of
    10^12 and 10^24 are above ``MAX_DIMENSION`` and rejected.
    """
    kind = data.draw(st.sampled_from(["dense", "sparse", "sparse symmetric"]))
    if kind == "dense":
        rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        a = np.arange(rows * cols, dtype=float).reshape(rows, cols)
    else:  # one nonzero per row, at most 5 % full
        n = data.draw(st.integers(20, 24))
        shift = 0 if kind == "sparse symmetric" else 1
        a = np.zeros((n, n))
        a[np.arange(n), (np.arange(n) + shift) % n] = np.arange(1.0, n + 1)
    lines = _written(a)
    for _ in range(data.draw(st.integers(1, 3))):
        edit = data.draw(st.sampled_from(["delete", "replace", "header", "size"]))
        if edit == "header":
            lines[:1] = [data.draw(_HEADERS)]
        elif edit == "size":
            lines[2:3] = [data.draw(_SIZES)]  # header, comment, size line
        elif lines:
            i = data.draw(st.integers(0, len(lines) - 1))
            if edit == "delete":
                del lines[i]
            else:
                tokens = lines[i].split() or [""]
                tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(_TOKENS)
                lines[i] = " ".join(tokens)
    path = tmp_path_factory.getbasetemp() / "fuzz_edit.mtx"
    path.write_text("".join(line + "\n" for line in lines))
    _parses_or_rejects(path)
