"""Reading dense matrices from MatrixMarket or CSV files; writing MatrixMarket.

MatrixMarket is the primary interchange format: ASCII, widely supported,
and exact for doubles when written with 17 significant digits.  Supported
flavors are ``array real general``, ``array real symmetric``, and
``coordinate real symmetric``.  Any file whose first line does not start
with the MatrixMarket banner is parsed as comma-separated numeric rows.

Parse errors name the offending line; a ``coordinate`` entry given twice,
as ``(i, j)`` or as its mirror ``(j, i)``, names the first one's line too.
A body that is not in the plain form below, and every CSV or ``coordinate``
file, is read by one checked line walk (``_data_walk``) with one size-line
rule and one count rule.

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

    # coordinate real symmetric
    body, fail = _data_walk(path, lines, 1, "%")
    rows, cols, nnz = _sizes(body, fail, "rows cols nnz")
    if rows != cols:
        fail(0, "coordinate symmetric files must be square")
    _count(fail, nnz, len(body) - 1, "entries")
    out = np.zeros((rows, cols))
    seen = {}
    for k, line in enumerate(body[1:], start=1):
        parts = line.split()
        if len(parts) != 3:
            fail(k, f"expected 'i j value', got {line!r}")
        try:
            i, j, value = int(parts[0]) - 1, int(parts[1]) - 1, float(parts[2])
        except ValueError:
            fail(k, f"malformed entry {line!r}")
        if not (0 <= i < rows and 0 <= j < cols):
            fail(k, f"index out of range in {line!r}")
        if (first := seen.setdefault((max(i, j), min(i, j)), k)) != k:
            fail(k, f"entry ({i + 1}, {j + 1}) repeats the entry", first)
        out[i, j] = out[j, i] = value
    return out


def _is_data(line, comment="%"):
    """Whether a line holds data: it is not blank and does not begin with
    ``comment``."""
    stripped = line.lstrip()
    return bool(stripped) and stripped[0] != comment


def _data_walk(path, lines, start, comment):
    """The data lines of ``lines[start:]`` (``_is_data``), and
    ``fail(k, message, earlier=None)``, which raises ``MatrixFileError`` at
    the file line of data line ``k`` (the last line of the file when ``k``
    is past the last data line), naming data line ``earlier``'s line too.

    The file line numbers are worked out only for an error message.
    """
    body = [line for line in lines[start:] if _is_data(line, comment)]

    def fail(k, message, earlier=None):
        numbers = [
            no
            for no, line in enumerate(lines[start:], start=start + 1)
            if _is_data(line, comment)
        ] + [len(lines)]
        if earlier is not None:
            message += f" on line {numbers[earlier]}"
        _fail(path, numbers[k], message)

    return body, fail


def _sizes(body, fail, names):
    """The size line ``body[0]``: one nonnegative integer per name in
    ``names``."""
    if not body:
        fail(0, "missing size line")
    fields = body[0].split()
    if len(fields) != len(names.split()):
        fail(0, f"expected '{names}', got {body[0]!r}")
    try:
        sizes = [int(f) for f in fields]
    except ValueError:
        fail(0, f"non-integer size in {body[0]!r}")
    if min(sizes) < 0:
        fail(0, f"negative size in {body[0]!r}")
    return sizes


def _count(fail, expected, found, noun):
    """Raise unless ``expected`` data lines follow the size line, where
    ``found`` do; the error names the first surplus line, or the last line
    read when the body is short."""
    if found != expected:
        fail(
            expected + 1 if found > expected else found,
            f"expected {expected} {noun}, found {found}",
        )


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
    # out holds column c in row c as well; it is bitwise symmetric, so it is
    # the matrix itself, in C order
    return out


def _checked_array(path, lines, symmetric):
    """``(rows, cols, values)`` of any body: blank and ``%`` lines are
    skipped, each value is the first token of its line, and every error
    names its line."""
    body, fail = _data_walk(path, lines, 1, "%")
    rows, cols = _sizes(body, fail, "rows cols")
    if symmetric and rows != cols:
        fail(0, "symmetric files must be square")
    expected = _array_count(rows, cols, symmetric)
    values = []
    for k, line in enumerate(body[1 : expected + 1], start=1):
        try:
            values.append(float(line.split()[0]))
        except ValueError:
            fail(k, f"expected a number, got {line!r}")
    _count(fail, expected, len(body) - 1, "values")
    return rows, cols, np.array(values, dtype=float)


def _parse_csv(path, lines):
    body, fail = _data_walk(path, lines, 0, "#")
    if not body:
        raise MatrixFileError(f"{path}: no numeric data found")
    rows = []
    for k, line in enumerate(body):
        try:
            row = [float(cell) for cell in line.split(",")]
        except ValueError:
            fail(k, f"malformed numeric row {line!r}")
        if rows and len(row) != len(rows[0]):
            fail(k, f"expected {len(rows[0])} columns, found {len(row)}")
        rows.append(row)
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


def warn_if_asymmetric(matrix: np.ndarray, warn) -> None:
    """Call ``warn(message)`` when the skew part of a finite square matrix
    is material, that is ``|skew| > 1e-9 |matrix|``.

    Both norms are taken of the matrix divided by a power of two that brings
    its largest entry into [1/2, 1), so they do not overflow (or underflow)
    and the test does not depend on the scale.
    """
    peak = float(np.max(np.abs(matrix), initial=0.0))
    shift = int(np.frexp(peak)[1])
    scaled = np.ldexp(matrix, -shift)
    skew = np.linalg.norm(scaled - scaled.T)
    if skew > 1e-9 * np.linalg.norm(scaled):
        warn(
            f"input matrix is asymmetric (skew norm {np.ldexp(skew, shift):.3e}); "
            "proceeding with its symmetric part"
        )
