"""Reading dense matrices from MatrixMarket or CSV files; writing MatrixMarket.

MatrixMarket is the primary interchange format: ASCII, widely supported,
and exact for doubles when written with 17 significant digits.  Supported
flavors are ``array real general``, ``array real symmetric``, and
``coordinate real symmetric``.  Any file whose first line does not start
with the MatrixMarket banner is parsed as comma-separated numeric rows.

Parse errors name the offending line.

An ``array real general`` file of a square matrix whose mirrored entries
are written alike (as ``write_matrix`` writes a symmetric matrix) is read
with one float conversion per mirrored pair: equal text gives an equal
double, so the matrix is bit for bit that of the per-entry read.
"""

from __future__ import annotations

import itertools

import numpy as np


class MatrixFileError(ValueError):
    """Unreadable or malformed matrix file; message names the bad line."""


def _fail(path, line_no, message):
    raise MatrixFileError(f"{path}:{line_no}: {message}")


def read_matrix(path) -> np.ndarray:
    """Load a dense matrix, sniffing the format from the first line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines and lines[0].startswith("%%MatrixMarket"):
        return _parse_matrix_market(path, lines)
    return _parse_csv(path, lines)


def read_vector(path) -> np.ndarray:
    """Load a vector: any matrix file with a single row or column."""
    mat = read_matrix(path)
    if 1 in mat.shape:
        return mat.reshape(-1)
    raise MatrixFileError(f"{path}: expected a vector, got shape {mat.shape}")


def _parse_matrix_market(path, lines):
    header = lines[0].split()
    if len(header) != 5 or header[1] != "matrix" or header[3] != "real":
        _fail(path, 1, f"unsupported MatrixMarket header {lines[0]!r}")
    layout, symmetry = header[2], header[4]
    if layout not in ("array", "coordinate"):
        _fail(path, 1, f"unsupported layout {layout!r}")
    if symmetry not in ("general", "symmetric"):
        _fail(path, 1, f"unsupported symmetry {symmetry!r}")
    if layout == "coordinate" and symmetry != "symmetric":
        _fail(path, 1, "coordinate files must be symmetric")
    if layout == "array":
        return _parse_array(path, lines, symmetry == "symmetric")

    body = _data_lines(path, lines)
    numbered = list(zip(_data_line_numbers(lines), body))
    size_no, size_line = numbered[0]
    entries = numbered[1:]
    fields = size_line.split()

    # coordinate real symmetric
    if len(fields) != 3:
        _fail(path, size_no, f"expected 'rows cols nnz', got {size_line!r}")
    try:
        rows, cols, nnz = (int(f) for f in fields)
    except ValueError:
        _fail(path, size_no, f"non-integer size in {size_line!r}")
    if rows != cols:
        _fail(path, size_no, "coordinate symmetric files must be square")
    if len(entries) != nnz:
        _fail(
            path,
            entries[-1][0] if entries else size_no,
            f"expected {nnz} entries, found {len(entries)}",
        )
    out = np.zeros((rows, cols))
    for no, line in entries:
        parts = line.split()
        if len(parts) != 3:
            _fail(path, no, f"expected 'i j value', got {line!r}")
        try:
            i, j = int(parts[0]) - 1, int(parts[1]) - 1
            value = float(parts[2])
        except ValueError:
            _fail(path, no, f"malformed entry {line!r}")
        if not (0 <= i < rows and 0 <= j < cols):
            _fail(path, no, f"index out of range in {line!r}")
        out[i, j] = value
        out[j, i] = value
    return out


def _is_data(line):
    """Whether a line after the banner holds data (not blank, not a comment)."""
    stripped = line.lstrip()
    return bool(stripped) and stripped[0] != "%"


def _data_lines(path, lines):
    """The data lines after the banner, the size line first."""
    body = list(filter(_is_data, lines[1:]))
    if not body:
        _fail(path, len(lines), "missing size line")
    return body


def _data_line_numbers(lines):
    """1-based file line numbers of the data lines after the banner."""
    return [no for no, line in enumerate(lines[1:], start=2) if _is_data(line)]


def _array_count(rows, cols, symmetric):
    return cols * (cols + 1) // 2 if symmetric else rows * cols


def _parse_array(path, lines, symmetric):
    """An ``array`` body: the size line, then one value per line in
    column-major order, the lower triangle only when ``symmetric``.

    A body in the plain form costs one ``float`` per value, or per mirrored
    pair; any other body takes the checked parse, which also words every
    error.
    """
    matrix = _plain_array(lines, symmetric)
    if matrix is None:
        rows, cols, values = _checked_array(path, lines, symmetric)
        matrix = _array_matrix(rows, cols, values, symmetric)
    return matrix


def _array_matrix(rows, cols, values, symmetric):
    """The matrix of column-major ``values``: every entry, or the lower
    triangle only when ``symmetric``."""
    if not symmetric:
        return values.reshape(cols, rows).T
    # lower triangle column by column = upper triangle row by row
    upper = np.triu_indices(cols)
    out = np.zeros((rows, cols))
    out[upper] = values
    out[upper[::-1]] = values
    return out


def _plain_array(lines, symmetric):
    """The matrix of a body in the plain form, else None.

    The plain form is a size line of two unsigned decimal integers (after
    any header comments), then exactly the expected number of lines, each
    holding one number.  ``float(line)`` strips the same whitespace as
    ``line.split()``, so the values are those of the checked parse.  A
    square ``general`` body whose every mirrored pair of lines has the same
    text is read as its lower triangle: equal text is an equal double.
    """
    k = 1
    while k < len(lines) and not _is_data(lines[k]):
        k += 1
    fields = lines[k].split() if k < len(lines) else ()
    if len(fields) != 2 or not (fields[0].isdecimal() and fields[1].isdecimal()):
        return None
    rows, cols = int(fields[0]), int(fields[1])
    expected = _array_count(rows, cols, symmetric)
    if (symmetric and rows != cols) or len(lines) - k - 1 != expected:
        return None
    first = k + 1
    try:
        if not symmetric and rows == cols and _mirrored(lines, first, cols):
            return _mirrored_matrix(lines, first, cols)
        values = np.fromiter(
            map(float, itertools.islice(lines, first, None)), float, count=expected
        )
    except ValueError:
        return None
    return _array_matrix(rows, cols, values, symmetric)


def _mirrored(lines, first, n):
    """Whether each strict-lower line of the n x n column-major body that
    starts at ``lines[first]`` has the text of its mirror; stops at the
    first column that differs."""
    end = first + n * n
    for c in range(n):
        col = first + c * n
        if lines[col + c + 1 : col + n] != lines[col + n + c : end : n]:
            return False
    return True


def _mirrored_matrix(lines, first, n):
    """The matrix of a body that passed ``_mirrored``: one ``float`` per
    line of the lower triangle, each column written to its row as well."""
    out = np.empty((n, n))
    for c in range(n):
        out[c, c:] = np.fromiter(
            map(float, lines[first + c * (n + 1) : first + (c + 1) * n]),
            float,
            count=n - c,
        )
        out[c:, c] = out[c, c:]
    # out holds column c in row c; it is symmetric, and its transpose (a
    # view) has the memory layout of the per-line read
    return out.T


def _checked_array(path, lines, symmetric):
    """``(rows, cols, values)`` of any body: blank and ``%`` lines are
    skipped, each value is the first token of its line, and every error
    names its line.

    The data lines' file line numbers are worked out only for an error
    message.
    """
    body = _data_lines(path, lines)

    def fail(k, message):
        _fail(path, _data_line_numbers(lines)[k], message)

    size_line = body[0]
    fields = size_line.split()
    if len(fields) != 2:
        fail(0, f"expected 'rows cols', got {size_line!r}")
    try:
        rows, cols = int(fields[0]), int(fields[1])
    except ValueError:
        fail(0, f"non-integer size in {size_line!r}")
    if rows < 0 or cols < 0:
        fail(0, f"negative size in {size_line!r}")
    if symmetric and rows != cols:
        fail(0, "symmetric files must be square")
    expected = _array_count(rows, cols, symmetric)
    entries = body[1:]
    try:
        values = np.array(
            [float(line.split()[0]) for line in entries[:expected]], dtype=float
        )
    except ValueError:
        for no, line in zip(_data_line_numbers(lines)[1:], entries):
            _parse_value(path, no, line)
        raise
    if len(entries) != expected:
        # the first surplus line, or the last line read when values are short
        fail(
            expected + 1 if len(entries) > expected else len(entries),
            f"expected {expected} values, found {len(entries)}",
        )
    return rows, cols, values


def _parse_value(path, no, line):
    try:
        return float(line.split()[0])
    except (ValueError, IndexError):
        _fail(path, no, f"expected a number, got {line!r}")


def _parse_csv(path, lines):
    rows = []
    width = None
    for no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        cells = [c.strip() for c in stripped.split(",")]
        try:
            row = [float(c) for c in cells]
        except ValueError:
            _fail(path, no, f"malformed numeric row {line!r}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            _fail(path, no, f"expected {width} columns, found {len(row)}")
        rows.append(row)
    if not rows:
        raise MatrixFileError(f"{path}: no numeric data found")
    return np.array(rows)


def write_matrix(path, matrix: np.ndarray) -> None:
    """Write a dense matrix as a MatrixMarket ``array real general`` file."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    rows, cols = matrix.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{rows} {cols}\n")
        fh.write(_array_body(matrix))


def _array_body(matrix):
    """One ``%.17g`` line per entry, column-major.

    A bitwise symmetric matrix formats only its upper triangle and places
    each string twice; bits, not ``==``, decide, so ``-0.0`` facing ``0.0``
    (or two different NaNs) takes the per-entry path.
    """
    rows, cols = matrix.shape
    bits = matrix.view(np.uint64)
    if rows != cols or not np.array_equal(bits, bits.T):
        values = matrix.T.ravel().tolist()
        return ("%.17g\n" * len(values)) % tuple(values)
    upper = np.triu_indices(cols)
    values = matrix[upper].tolist()
    lines = ("%.17g\n" * len(values) % tuple(values)).splitlines(keepends=True)
    slot = np.empty((rows, cols), dtype=np.intp)
    slot[upper] = slot[upper[::-1]] = np.arange(len(values))
    # symmetric, so row-major order is column-major order
    return "".join(np.array(lines, dtype=object)[slot.ravel()].tolist())


def write_vector(path, vector: np.ndarray) -> None:
    write_matrix(path, np.asarray(vector, dtype=float).reshape(-1, 1))


def symmetrize_checked(matrix: np.ndarray, warn) -> np.ndarray:
    """Symmetrize, calling ``warn(message)`` when the skew part is material.

    Both norms are taken of the matrix divided by a power of two that brings
    its largest entry into [1/2, 1), so they do not overflow (or underflow)
    and the test ``|skew| > 1e-9 |matrix|`` does not depend on the scale.
    A non-finite entry raises ValueError before any arithmetic.
    """
    matrix = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(matrix)):
        raise ValueError("input matrix contains non-finite entries")
    peak = float(np.max(np.abs(matrix), initial=0.0))
    shift = int(np.frexp(peak)[1])
    scaled = np.ldexp(matrix, -shift)
    skew = np.linalg.norm(scaled - scaled.T)
    if skew > 1e-9 * np.linalg.norm(scaled):
        warn(
            f"input matrix is asymmetric (skew norm {np.ldexp(skew, shift):.3e}); "
            "proceeding with its symmetric part"
        )
    return 0.5 * matrix + 0.5 * matrix.T
