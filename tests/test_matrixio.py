"""Matrix file round trips and parse diagnostics."""

import itertools
import tracemalloc
import warnings as np_warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conic_newton import matrixio
from conic_newton.exceptions import _matrix
from conic_newton.matrixio import (
    MatrixFileError,
    read_matrix,
    read_vector,
    warn_if_asymmetric,
    write_matrix,
)
from conic_newton.ncm import NcmProblem
from conftest import write_vector


class TestRoundTrip:
    def test_matrix_market_bit_identical(self, tmp_path):
        rng = np.random.default_rng(60)
        mat = rng.standard_normal((5, 3)) * np.pi
        path = tmp_path / "m.mtx"
        write_matrix(path, mat)
        back = read_matrix(path)
        np.testing.assert_array_equal(back, mat)

    def test_csv_bit_identical(self, tmp_path):
        rng = np.random.default_rng(61)
        mat = rng.standard_normal((4, 4)) / 7.0
        path = tmp_path / "m.csv"
        path.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in mat))
        np.testing.assert_array_equal(read_matrix(path), mat)

    def test_vector_round_trip(self, tmp_path):
        vec = np.array([1.5, -2.25, 1e-17])
        path = tmp_path / "v.mtx"
        write_vector(path, vec)
        np.testing.assert_array_equal(read_vector(path), vec)


# Any double, including -0.0, subnormals and +-inf; NaN is excluded only
# because it does not compare equal to itself.
DOUBLES = st.floats(allow_nan=False, allow_subnormal=True)


class TestRoundTripProperty:
    @settings(max_examples=80)
    @given(
        st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
            lambda shape: arrays(np.float64, shape, elements=DOUBLES)
        )
    )
    def test_general_bit_identical(self, tmp_path_factory, mat):
        path = tmp_path_factory.mktemp("rt") / "m.mtx"
        write_matrix(path, mat)
        back = read_matrix(path)
        assert back.shape == mat.shape
        assert np.ascontiguousarray(back).tobytes() == mat.tobytes()

    @settings(max_examples=80)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.just(n), arrays(np.float64, n * (n + 1) // 2, elements=DOUBLES)
            )
        )
    )
    def test_symmetric_bit_identical(self, tmp_path_factory, case):
        n, lower = case
        expected = np.zeros((n, n))
        k = 0
        for j in range(n):  # lower triangle, column-major
            for i in range(j, n):
                expected[i, j] = expected[j, i] = lower[k]
                k += 1
        path = tmp_path_factory.mktemp("rt") / "s.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real symmetric\n"
            f"{n} {n}\n" + "".join(f"{v:.17g}\n" for v in lower.tolist())
        )
        assert read_matrix(path).tobytes() == expected.tobytes()


class TestWriteFormat:
    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "g.mtx"
        mat = np.array([[0.1, -0.0, np.inf], [5e-324, 1.0 / 3.0, -1e300]])
        write_matrix(path, mat)
        assert path.read_bytes() == (
            b"%%MatrixMarket matrix array real general\n"
            b"2 3\n"
            b"0.10000000000000001\n"
            b"4.9406564584124654e-324\n"
            b"-0\n"
            b"0.33333333333333331\n"
            b"inf\n"
            b"-1.0000000000000001e+300\n"
        )


class TestMatrixMarketParsing:
    def test_symmetric_array(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real symmetric\n"
            "% lower triangle, column major\n"
            "2 2\n1.0\n0.5\n2.0\n"
        )
        np.testing.assert_array_equal(
            read_matrix(path), np.array([[1.0, 0.5], [0.5, 2.0]])
        )

    def test_coordinate_symmetric(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 4\n1 1 1.0\n2 2 1.0\n3 3 1.0\n2 1 0.25\n"
        )
        expected = np.eye(3)
        expected[0, 1] = expected[1, 0] = 0.25
        np.testing.assert_array_equal(read_matrix(path), expected)

    def test_malformed_value_names_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real general\n2 1\n1.0\nbogus\n"
        )
        with pytest.raises(MatrixFileError, match=r":4:"):
            read_matrix(path)

    def test_malformed_value_after_skipped_lines_names_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real general\n"
            "% comment\n\n2 2\n1.0\n\n   % indented comment\n2.0\n\n"
            "%\nbogus\n4.0\n"
        )
        with pytest.raises(MatrixFileError, match=r":11: expected a number, got 'bogus'"):
            read_matrix(path)

    def test_surplus_value_names_first_extra_line(self, tmp_path):
        path = tmp_path / "long.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real general\n2 1\n1.0\n% c\n2.0\n\n3.0\n"
        )
        with pytest.raises(MatrixFileError, match=r":7: expected 2 values, found 3"):
            read_matrix(path)

    def test_negative_size_rejected(self, tmp_path):
        path = tmp_path / "neg.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n-1 2\n")
        with pytest.raises(MatrixFileError, match=r":2: negative size"):
            read_matrix(path)

    def test_wrong_count_reported(self, tmp_path):
        path = tmp_path / "short.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n")
        with pytest.raises(MatrixFileError, match="expected 4 values"):
            read_matrix(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "h.mtx"
        path.write_text("%%MatrixMarket matrix array complex general\n1 1\n1.0\n")
        with pytest.raises(MatrixFileError, match=r":1:"):
            read_matrix(path)


class TestCsvParsing:
    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(MatrixFileError, match=r":2:"):
            read_matrix(path)

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("1.0,2.0\nx,4.0\n")
        with pytest.raises(MatrixFileError, match=r":2:"):
            read_matrix(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("\n")
        with pytest.raises(MatrixFileError, match="no numeric data"):
            read_matrix(path)


    def test_comment_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# header\n\n1.0,2.0\n   \n  # indented\n\t\n3.0,4.0\n#\n")
        np.testing.assert_array_equal(read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_cells_with_surrounding_spaces(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b" 1.5 ,\t-2 \r\n3e0,  4\t\r\n")
        back = read_matrix(path)
        assert back.tobytes() == np.array([[1.5, -2.0], [3.0, 4.0]]).tobytes()

    @pytest.mark.parametrize("text, message", [
        ("# c\n\n1,2\n# c\n\n3\n", r":6: expected 2 columns, found 1$"),
        ("# c\n\n1,2\n\n  # c\nx,4\n", r":6: malformed numeric row 'x,4'$"),
        ("\n# c\n 1, \n", r":3: malformed numeric row ' 1, '$"),
    ], ids=["ragged", "non-numeric", "empty-cell"])
    def test_error_after_skipped_lines_names_its_line(self, tmp_path, text, message):
        path = tmp_path / "e.csv"
        path.write_text(text)
        with pytest.raises(MatrixFileError, match=message):
            read_matrix(path)

    def test_only_comments(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# a\n\n  # b\n")
        with pytest.raises(MatrixFileError, match=r"c\.csv: no numeric data found$"):
            read_matrix(path)


class TestVectorShape:
    def test_matrix_rejected_as_vector(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,0\n0,1\n")
        with pytest.raises(MatrixFileError, match="expected a vector"):
            read_vector(path)

    def test_row_vector_accepted(self, tmp_path):
        path = tmp_path / "row.csv"
        path.write_text("1.0,2.0,3.0\n")
        np.testing.assert_array_equal(read_vector(path), [1.0, 2.0, 3.0])


class TestSymmetrization:
    """The ``ncm`` input's two steps: ``warn_if_asymmetric`` warns about a
    material skew part, and ``NcmProblem`` checks and symmetrizes."""

    def test_silent_for_tiny_skew(self):
        warnings = []
        mat = np.eye(3)
        mat[0, 1] = 1e-14
        warn_if_asymmetric(mat, warn=warnings.append)
        assert warnings == []
        out = NcmProblem(mat).G
        np.testing.assert_array_equal(out, out.T)

    def test_warns_on_material_skew(self):
        warnings = []
        mat = np.eye(2)
        mat[0, 1] = 0.5
        warn_if_asymmetric(mat, warn=warnings.append)
        assert len(warnings) == 1
        assert "asymmetric" in warnings[0]

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_entries_near_the_largest_double_stay_finite(self):
        warnings = []
        mat = np.array([[1.0, 1e308], [1e308, 1.0]])
        np.testing.assert_array_equal(NcmProblem(mat).G, mat)
        warn_if_asymmetric(mat, warnings.append)
        assert warnings == []

    @pytest.mark.parametrize("mat", [
        [[1.0, 1e2], [-1e2, 1.0]],
        [[1.0, 1e200], [-1e200, 1.0]],  # unscaled, both norms overflow
        [[1e-300, 1e-300], [-1e-300, 1e-300]],  # unscaled, both norms are 0
    ], ids=["normal", "huge", "tiny"])
    def test_warns_on_skew_at_any_scale(self, mat):
        warnings = []
        mat = np.array(mat)
        with np_warnings.catch_warnings():
            np_warnings.simplefilter("error")
            warn_if_asymmetric(mat, warn=warnings.append)
            out = NcmProblem(mat).G
        assert len(warnings) == 1
        assert "asymmetric" in warnings[0]
        np.testing.assert_array_equal(out, np.diag(np.diag(mat)))

    @pytest.mark.parametrize("mat", [
        [[1.0, np.inf], [np.inf, 1.0]],
        [[1.0, -np.inf], [-np.inf, 1.0]],
        [[1.0, np.nan], [np.nan, 1.0]],
        [[1.0, np.inf], [-np.inf, 1.0]],  # the halved sum would be NaN
    ], ids=["inf", "-inf", "nan", "inf-facing-minus-inf"])
    def test_non_finite_entry_raises_before_any_arithmetic(self, mat):
        with np_warnings.catch_warnings():
            np_warnings.simplefilter("error")
            with pytest.raises(ValueError, match="input matrix contains non-finite"):
                NcmProblem(np.array(mat))

    def test_bit_identical_to_halved_sum_in_normal_range(self):
        rng = np.random.default_rng(62)
        for scale in (1e-3, 1.0, 1e150):
            mat = scale * rng.standard_normal((50, 50))
            out = NcmProblem(mat).G
            assert out.tobytes() == (0.5 * (mat + mat.T)).tobytes()


GENERAL = "%%MatrixMarket matrix array real general\n"
SYMMETRIC = "%%MatrixMarket matrix array real symmetric\n"

# Files off the plain form (size line, then exactly one number per line),
# and square files on it that the mirrored read may take, with the values or
# the error their checked parse gives.
ARRAY_FILES = [
    pytest.param(
        GENERAL + "2 2\n1.0\n% c\n\n2.0\n   \n\t\n3.0\n  % indented\n4.0\n",
        [[1.0, 3.0], [2.0, 4.0]],
        id="comments-and-blank-lines-among-values",
    ),
    pytest.param(
        GENERAL + "2 1\n1.5 ignored\n2.5\t7\n", [[1.5], [2.5]], id="two-tokens"
    ),
    pytest.param(
        GENERAL + "2 2\r\n  1.0\r\n2.0  \r\n\t3.0\t\r\n 4e0 \r\n",
        [[1.0, 3.0], [2.0, 4.0]],
        id="crlf-and-surrounding-spaces",
    ),
    pytest.param(
        GENERAL + "% one\n%\n\n% two\n1 2\n7\n8\n", [[7.0, 8.0]], id="header-comments"
    ),
    pytest.param(GENERAL + "+2 1\n1\n2\n", [[1.0], [2.0]], id="signed-size"),
    pytest.param(GENERAL + "1 1\n3\n\n", [[3.0]], id="trailing-blank-line"),
    pytest.param(
        SYMMETRIC + "% lower\n3 3\n1\n2\n\n3\n4\n% x\n5\n6\n",
        [[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]],
        id="symmetric-with-comments",
    ),
    pytest.param(
        GENERAL + "1 2\n7\n8\n9\n", r":5: expected 2 values, found 3$", id="surplus"
    ),
    pytest.param(
        GENERAL + "2 2\n7\n% c\n8\n9\n\n",
        r":6: expected 4 values, found 3$",
        id="short",
    ),
    pytest.param(
        GENERAL + "2 1\n1.0\n   \n",
        r":3: expected 2 values, found 1$",
        id="blank-line-filling-the-count",
    ),
    pytest.param(
        GENERAL + "2 1\n1.0\n% c\n",
        r":3: expected 2 values, found 1$",
        id="comment-filling-the-count",
    ),
    pytest.param(
        GENERAL + "2 1\n1.0\n1.0.0\n",
        r":4: expected a number, got '1\.0\.0'$",
        id="bad-number",
    ),
    pytest.param(
        GENERAL + "2 x\n1\n2\n", r":2: non-integer size in '2 x'$", id="non-digit-size"
    ),
    pytest.param(
        SYMMETRIC + "2 3\n1\n2\n3\n",
        r":2: symmetric files must be square$",
        id="symmetric-not-square",
    ),
    pytest.param(
        GENERAL + "% only a comment\n\n", r":3: missing size line$", id="missing-size"
    ),
    pytest.param(
        GENERAL + "2 2\n1\nx\n2\n3\n",
        r":4: expected a number, got 'x'$",
        id="square-bad-lower-line-valid-mirror",
    ),
    pytest.param(
        GENERAL + "2 2\n1\nbad\nbad\n3\n",
        r":4: expected a number, got 'bad'$",
        id="square-bad-mirrored-pair",
    ),
    pytest.param(
        GENERAL + "3 3\n1\n2\n3\n2\n4\n5\n3\n5\nsix\n",
        r":11: expected a number, got 'six'$",
        id="square-bad-diagonal-otherwise-symmetric",
    ),
    pytest.param(
        GENERAL + "2 2\r\n1\r\n0.5\r\n0.5\r\n2\r\n",
        [[1.0, 0.5], [0.5, 2.0]],
        id="square-crlf-symmetric",
    ),
    pytest.param(
        GENERAL + "2 2\r\n1\r\n0.5\r\n0.5\r\n2x\r\n",
        r":6: expected a number, got '2x'$",
        id="square-crlf-bad-diagonal",
    ),
]


class TestPlainFormEquivalence:
    """The plain-form read gives the checked parse's values and errors."""

    @pytest.mark.parametrize("text, expected", ARRAY_FILES)
    def test_off_plain_form(self, tmp_path, text, expected):
        path = tmp_path / "m.mtx"
        path.write_bytes(text.encode())
        if isinstance(expected, str):
            with pytest.raises(MatrixFileError, match=expected):
                read_matrix(path)
        else:
            np.testing.assert_array_equal(read_matrix(path), expected)

    @pytest.mark.parametrize("text, expected", ARRAY_FILES)
    def test_checked_parse_agrees(self, tmp_path, monkeypatch, text, expected):
        # the same file read with the plain form turned off
        path = tmp_path / "m.mtx"
        path.write_bytes(text.encode())
        try:
            fast = read_matrix(path)
        except MatrixFileError as exc:
            fast = str(exc)
        monkeypatch.setattr(matrixio, "_plain_array", lambda lines, symmetric: None)
        try:
            checked = read_matrix(path)
        except MatrixFileError as exc:
            assert fast == str(exc)
        else:
            assert fast.tobytes() == checked.tobytes()

    def test_special_values(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text(GENERAL + "5 1\n1_0\nnan\n-inf\n5e-324\n-0\n")
        back = read_matrix(path)
        expected = np.array([[10.0], [np.nan], [-np.inf], [5e-324], [-0.0]])
        assert back.tobytes() == expected.tobytes()


COORDINATE = "%%MatrixMarket matrix coordinate real symmetric\n"

# Coordinate files, with the values or the error they read as.
COORDINATE_FILES = [
    pytest.param(
        COORDINATE + "% c\n\n2 2 3\n1 1 1.0\n% mid\n\n  2 1 0.5\n\t\n2 2 2.0\n  % x\n",
        [[1.0, 0.5], [0.5, 2.0]],
        id="comments-and-blank-lines-among-entries",
    ),
    pytest.param(
        COORDINATE + "3 3 2\r\n 1 3\t-0.25 \r\n2 2 4\r\n",
        [[0.0, 0.0, -0.25], [0.0, 4.0, 0.0], [-0.25, 0.0, 0.0]],
        id="crlf-and-surrounding-spaces",
    ),
    pytest.param(
        COORDINATE + "% c\n2 2\n", r":3: expected 'rows cols nnz', got '2 2'$",
        id="two-field-size",
    ),
    pytest.param(
        COORDINATE + "2 2.0 1\n1 1 1\n", r":2: non-integer size in '2 2\.0 1'$",
        id="non-integer-size",
    ),
    pytest.param(
        COORDINATE + "-1 -1 0\n", r":2: negative size in '-1 -1 0'$", id="negative-size"
    ),
    pytest.param(
        COORDINATE + "2 2 -1\n", r":2: negative size in '2 2 -1'$", id="negative-count"
    ),
    pytest.param(
        COORDINATE + "2 3 0\n", r":2: coordinate symmetric files must be square$",
        id="not-square",
    ),
    pytest.param(
        COORDINATE + "2 2 3\n1 1 1\n% c\n2 2 1\n\n",
        r":5: expected 3 entries, found 2$",
        id="short",
    ),
    pytest.param(
        COORDINATE + "2 2 1\n\n", r":2: expected 1 entries, found 0$", id="no-entries"
    ),
    pytest.param(
        COORDINATE + "2 2 1\n1 1 1\n% c\n2 2 1\n2 1 3\n",
        r":5: expected 1 entries, found 3$",
        id="surplus",
    ),
    pytest.param(
        COORDINATE + "2 2 1\n% c\n1 1\n", r":4: expected 'i j value', got '1 1'$",
        id="two-token-entry",
    ),
    pytest.param(
        COORDINATE + "2 2 1\n1 1 x\n", r":3: malformed entry '1 1 x'$",
        id="bad-number",
    ),
    pytest.param(
        COORDINATE + "2 2 1\n1.0 1 1\n", r":3: malformed entry '1\.0 1 1'$",
        id="non-integer-index",
    ),
    pytest.param(
        COORDINATE + "2 2 2\n1 1 1\n0 1 1\n", r":4: index out of range in '0 1 1'$",
        id="index-0",
    ),
    pytest.param(
        COORDINATE + "2 2 1\n1 3 1\n", r":3: index out of range in '1 3 1'$",
        id="index-n-plus-1",
    ),
    pytest.param(
        COORDINATE + "% only a comment\n", r":2: missing size line$", id="missing-size"
    ),
    pytest.param(
        COORDINATE + "3 3 2\n1 3 -0.25\n% c\n1 3 4\n",
        r":5: entry \(1, 3\) repeats the entry on line 3$",
        id="repeated-entry",
    ),
    pytest.param(
        COORDINATE + "3 3 2\n1 3 -0.25\n\n3 1 4\n",
        r":5: entry \(3, 1\) repeats the entry on line 3$",
        id="repeated-mirror",
    ),
    pytest.param(
        COORDINATE + "3 3 3\n2 2 1\n1 1 1\n2 2 1\n",
        r":5: entry \(2, 2\) repeats the entry on line 3$",
        id="repeated-diagonal",
    ),
]


class TestCoordinateParsing:
    @pytest.mark.parametrize("text, expected", COORDINATE_FILES)
    def test_coordinate_file(self, tmp_path, text, expected):
        path = tmp_path / "c.mtx"
        path.write_bytes(text.encode())
        if isinstance(expected, str):
            with pytest.raises(MatrixFileError, match=expected):
                read_matrix(path)
        else:
            assert read_matrix(path).tobytes() == np.array(expected).tobytes()

    def test_coordinate_and_array_files_read_alike(self, tmp_path):
        rng = np.random.default_rng(63)
        half = rng.standard_normal((5, 5)) * np.pi
        mat = half + half.T
        rows, cols = np.tril_indices(5)
        coordinate = tmp_path / "c.mtx"
        coordinate.write_text(COORDINATE + f"5 5 {len(rows)}\n" + "".join(
            f"{i + 1} {j + 1} {mat[i, j]:.17g}\n" for i, j in zip(rows, cols)
        ))
        array = tmp_path / "a.mtx"
        write_matrix(array, mat)
        assert read_matrix(coordinate).tobytes() == read_matrix(array).tobytes()
        assert read_matrix(coordinate).tobytes() == mat.tobytes()


# Lower-triangle entries facing an upper value x: the mirror x itself (so
# some matrices are bitwise symmetric) or another value, which may be equal
# to x under == but differ in its bits.
FACING = ["mirror", "negated", 0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324]


@st.composite
def nearly_symmetric(draw):
    n = draw(st.integers(1, 6))
    mat = draw(arrays(np.float64, (n, n), elements=st.floats(allow_subnormal=True)))
    mirror_all = draw(st.booleans())
    for i in range(n):
        for j in range(i):
            facing = "mirror" if mirror_all else draw(st.sampled_from(FACING))
            if facing == "mirror":
                mat[i, j] = mat[j, i]
            elif facing == "negated":
                mat[i, j] = -mat[j, i]
            else:
                mat[i, j] = facing
    return mat


class TestWriteProperty:
    @settings(max_examples=150)
    @given(nearly_symmetric())
    def test_bytes_match_per_value_format(self, tmp_path_factory, mat):
        path = tmp_path_factory.mktemp("w") / "m.mtx"
        write_matrix(path, mat)
        n = mat.shape[0]
        reference = (
            f"%%MatrixMarket matrix array real general\n{n} {n}\n"
            + "".join("%.17g\n" % v for v in mat.T.ravel().tolist())
        )
        assert path.read_bytes() == reference.encode()


# Ways to write one value: the writer's own, Python's shortest repr (1.0 for
# 1, -0.0 for -0), and capitals (NaN, Infinity, 1E-05)
SPELLINGS = [
    lambda v: "%.17g" % v,
    repr,
    lambda v: ("%.17g" % v).replace("nan", "NaN").replace("inf", "Infinity")
    .replace("e", "E"),
]


class TestMirroredRead:
    """A square general file whose mirrored lines have equal text is read
    from one triangle; every file reads as one ``float`` per line would."""

    @settings(max_examples=150)
    @given(nearly_symmetric(), st.data())
    def test_bitwise_equal_to_per_line_float(self, tmp_path_factory, mat, data):
        n = mat.shape[0]
        uniform = data.draw(st.booleans())
        texts = [
            SPELLINGS[0](v) if uniform else data.draw(st.sampled_from(SPELLINGS))(v)
            for v in mat.T.ravel().tolist()
        ]
        path = tmp_path_factory.mktemp("m") / "m.mtx"
        path.write_text(GENERAL + f"{n} {n}\n" + "".join(t + "\n" for t in texts))
        reference = np.array([float(t) for t in texts]).reshape(n, n).T
        assert read_matrix(path).tobytes() == reference.tobytes()

    def test_symmetric_file_reads_in_c_order_and_passes_uncopied(self, tmp_path):
        # the mirrored read fills a bitwise symmetric array, which is the
        # matrix in C order: the matrix rule takes it as it is
        rng = np.random.default_rng(64)
        mat = rng.standard_normal((7, 7))
        path = tmp_path / "s.mtx"
        write_matrix(path, mat + mat.T)
        back = read_matrix(path)
        lines = path.read_text().splitlines()[2:]
        reference = np.array([float(t) for t in lines]).reshape(7, 7).T
        assert back.flags.c_contiguous
        assert back.tobytes() == reference.tobytes()
        assert np.shares_memory(_matrix(back, "input matrix"), back)

    def test_mirror_check_stops_at_a_differing_spelling(self):
        lines = ["1", "2", "3", "2", "4", "5", "3", "5", "6"]
        assert matrixio._mirrored(lines, 0, 3)
        assert not matrixio._mirrored(lines[:7] + ["5.0"] + lines[8:], 0, 3)

    def test_peak_memory_no_higher_than_the_per_line_read(self, tmp_path):
        n = 200
        rng = np.random.default_rng(63)
        mat = rng.standard_normal((n, n))
        path = tmp_path / "s.mtx"
        write_matrix(path, mat + mat.T)

        def split():
            with open(path, "r", encoding="utf-8") as fh:
                return fh.read().splitlines()

        def per_line(lines):
            source = itertools.islice(lines, 2, None)
            return np.fromiter(map(float, source), float, count=n * n)

        def peak(read):
            read()
            tracemalloc.start()
            try:
                read()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 16 kB for the reader's own frames and slices, far below the n^2
        # pointers (320 kB) of an object array of the lines
        slack = 16 * 1024
        assert peak(lambda: read_matrix(path)) <= peak(lambda: per_line(split())) + slack
        # the text and its lines make the larger part of both peaks above,
        # so the parse is also measured on its own, from the lines
        lines = split()
        parse = peak(lambda: matrixio._parse_matrix_market(path, lines))
        assert parse <= peak(lambda: per_line(lines)) + slack
