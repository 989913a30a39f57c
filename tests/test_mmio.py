import io

import numpy as np
import pytest

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
    assert np.array_equal(a, expected)


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
    assert np.array_equal(a, expected)


def test_coordinate_skew_symmetric(tmp_path):
    path = tmp_path / "k.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real skew-symmetric\n"
        "2 2 1\n"
        "2 1 5.0\n"
    )
    a = read_matrix(path)
    assert np.array_equal(a, [[0.0, -5.0], [5.0, 0.0]])


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
