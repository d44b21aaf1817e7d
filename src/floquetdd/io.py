"""Deterministic CSV/JSON emission.

CSV files use a header row, LF line endings and a '.' decimal separator.
A :class:`Table` is a set of named columns, and each column's dtype
decides the text of all its cells at once: float columns must be finite
everywhere and print in scientific notation with 17 significant digits
(``%.16e``, the shortest lossless round-trip for doubles), integer and
boolean columns print as ``%d``, string columns verbatim (a cell holding
',' or a newline is refused), and any other dtype is a ``TypeError``;
every refusal comes before the file is opened.  A table of fewer than
``_VECTOR_CELLS`` cells, or with a string column, is written one ``%``
per row.  A larger one of float, integer and boolean columns is written
by a vectorized writer, in blocks of rows: it computes the 17 digits of
each float exactly (in double-double arithmetic) and leaves each cell it
cannot prove to ``'%.16e'`` itself, so both writers give the same bytes
for the same table.

JSON bundles carry a schema-version field and serialize matrices
row-major with explicit dimensions; they are the text of
``json.dumps(indent=2, sort_keys=True)``.  A bundle holds scalars and
small matrices (the largest has 16 entries): each table of a run, such as
the sideband weights, the coefficient breakdowns, the spin Hamiltonian or
the populations, is written once, to its CSV file, and no bundle repeats
it.  Identical inputs produce byte-identical files; wall-clock timing
therefore never enters a bundle and is reported on stderr by the command
line layer instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

SCHEMA_VERSION = "2"


@dataclass(frozen=True)
class Table:
    """Named columns destined for one CSV file: ``data`` holds one sequence per name."""

    columns: tuple
    data: tuple

    def __post_init__(self):
        if len(self.data) != len(self.columns):
            raise ValueError("every column needs exactly one name")
        if len({len(column) for column in self.data}) > 1:
            raise ValueError("columns differ in length")

    @property
    def rows(self) -> tuple:
        """The cells row by row."""
        return tuple(zip(*self.data))


def _cell_format(column: np.ndarray) -> str:
    """The %-format of every cell of one column, decided by its dtype."""
    kind = column.dtype.kind
    if kind == "f":
        if not np.all(np.isfinite(column)):
            raise RuntimeError(
                "internal error: non-finite value reached CSV emission "
                "(divergences must use the flag-column convention)"
            )
        return "%.16e"
    if kind in "biu":
        return "%d"
    if kind == "U":
        if any("," in cell or "\n" in cell for cell in column):
            raise ValueError("string cells must not contain separators")
        return "%s"
    raise TypeError(f"unsupported column dtype {column.dtype}")


# Tables of at least this many cells, all of them numbers, are written by
# _numeric_text; smaller ones by one '%' per row.  The two cost the same at
# about 110 cells of 9 float columns (0.103 ms by '%' against 0.094 ms at
# 128 cells) and at about 256 cells of 2 int and 1 float columns (0.090
# against 0.091 ms; 0.138 against 0.098 ms at 384), medians on 2 cores.
_VECTOR_CELLS = 256
# Rows are rendered in blocks of about this many cells, so the working
# memory of _numeric_text does not grow with the table.
_CHUNK_CELLS = 4096


def _powers_of_ten(q_min: int, q_max: int) -> tuple:
    """10**q for q in [q_min, q_max] as double-double pairs hi + lo: hi is
    10**q rounded to the nearest double and lo the rounded rest, both from
    exact integer arithmetic (int true division rounds correctly)."""
    his, los = [], []
    for q in range(q_min, q_max + 1):
        if q >= 0:
            hi = float(10**q)
            lo = float(10**q - int(hi))
        else:
            scale = 10**-q
            hi = 1 / scale
            num, den = hi.as_integer_ratio()
            lo = (den - num * scale) / (den * scale)
        his.append(hi)
        los.append(lo)
    return np.array(his), np.array(los)


# Digits are proven only for magnitudes in [1e-250, 1e250]; the scale
# 10**(16 - k) they need then lies in [1e-234, 1e266].
_PROVEN_MIN, _PROVEN_MAX = 1e-250, 1e250
_Q_MIN = -300
_POW_HI, _POW_LO = _powers_of_ten(_Q_MIN, 300)
# Dekker's split of a double into two 26-bit halves whose products are exact.
_SPLITTER = 2.0**27 + 1.0


def _words(texts) -> np.ndarray:
    """The concatenated texts as uint32 words, four bytes each."""
    return np.frombuffer(b"".join(texts), dtype=np.uint32)


def _digit_words(shown: np.ndarray) -> np.ndarray:
    """The four digits of each n in 0..9999 as a word, with a NUL for
    each place where ``shown[n, place]`` is false."""
    group = np.arange(10_000, dtype=np.int16)[:, None]
    place = 10 ** np.arange(3, -1, -1, dtype=np.int16)
    text = np.where(shown, ord("0") + group // place % 10, 0).astype(np.uint8)
    return text.view(np.uint32).ravel()


# A cell is rendered as whole uint32 words of text, with a NUL byte wherever
# it has no character; the NULs of a block of rows are dropped in one pass.
_DIGITS = _digit_words(np.True_)
# an integer's last group of digits, without leading zeros, and a group
# before it, which is empty for 0
_LAST = _digit_words(10 ** np.arange(3, -1, -1) <= np.arange(10_000, dtype=np.int16)[:, None].clip(1))
_LEADING = _digit_words(10 ** np.arange(3, -1, -1) <= np.arange(10_000, dtype=np.int16)[:, None])
# an integer's sign, in the word before its digits
_MINUS = _words([b"\0\0\0-"])[0]
# '[-]d.' by lead digit + 10 * negative
_LEAD = _words(bytes([0, sign, ord("0") + d, ord(".")]) for sign in (0, ord("-")) for d in range(10))
# 'e+dd' or 'e-ddd' in two words, by exponent + _EXPONENT_OFFSET, and a
# separator in the second byte of a word, the one the second word leaves free
_EXPONENT_OFFSET = 400
_E_SIGN_DIGITS, _E_LAST_DIGIT = _words(
    b"e" + text[:1] + text[1:].rjust(3, b"\0") + b"\0" * 3
    for text in (b"%+03d" % k for k in range(-_EXPONENT_OFFSET, _EXPONENT_OFFSET + 1))
).reshape(-1, 2).T.copy()
_SEPARATORS = {",": _words([b"\0,\0\0"])[0], "\n": _words([b"\0\n\0\0"])[0]}


def _split(a: np.ndarray) -> tuple:
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


def _decimal(x: np.ndarray) -> tuple:
    """Sign, 17 significant digits and decimal exponent of each double in
    the flat array x, exactly as ``'%.16e'`` rounds them.

    The digits are N = round(|x| * 10**(16 - k)) with k = floor(log10|x|),
    the product taken in double-double arithmetic (Dekker, Numer. Math. 18,
    224 (1971)) to within 1e-14 of a unit of the last digit.  A cell is left
    to ``'%.16e'`` itself unless the fraction of that product lies more than
    1e-9 from a half, its floor and N lie in [10**16, 10**17) (else k may
    not be the decade N is printed in) and |x| lies in [1e-250, 1e250];
    zeros are exact.
    """
    a = np.abs(x)
    zero = a == 0
    proven = (a >= _PROVEN_MIN) & (a <= _PROVEN_MAX)
    a = np.where(proven, a, 1.0)
    exponent = np.floor(np.log10(a)).astype(np.int64)
    index = 16 - _Q_MIN - exponent
    hi, lo = _POW_HI[index], _POW_LO[index]
    product = a * hi
    a_high, a_low = _split(a)
    hi_high, hi_low = _split(hi)
    error = a_low * hi_low - (((product - a_high * hi_high) - a_low * hi_high) - a_high * hi_low)
    rest = error + a * lo
    whole = np.floor(rest)
    fraction = rest - whole
    floor = product.astype(np.int64) + whole.astype(np.int64)
    digits = floor + (fraction >= 0.5)
    proven &= (np.abs(fraction - 0.5) > 1e-9) & (floor >= 10**16) & (digits < 10**17)
    digits[zero] = 0
    exponent[zero] = 0
    for i in np.flatnonzero(~(proven | zero)):
        mantissa, power = ("%.16e" % x[i]).split("e")
        digits[i] = int(mantissa.replace(".", "").lstrip("-"))
        exponent[i] = int(power)
    return np.signbit(x), digits, exponent


def _quotient(n: np.ndarray, divisor: int) -> tuple:
    """n // divisor and n % divisor (by one product: numpy's % is slow)."""
    high = n // divisor
    return high, n - high * divisor


def _float_words(x: np.ndarray, separators: np.ndarray) -> np.ndarray:
    """The ``'%.16e'`` text of the doubles x, of shape (rows, columns), each
    cell followed by its column's separator, as seven words a cell: '[-]d.',
    four groups of four digits, and 'e+dd' or 'e-ddd' with the separator."""
    negative, digits, exponent = (part.reshape(x.shape) for part in _decimal(x.ravel()))
    lead, rest = _quotient(digits, 10**16)
    upper, lower = _quotient(rest, 10**8)
    words = np.empty(x.shape + (7,), dtype=np.uint32)
    words[..., 0] = _LEAD[lead + 10 * negative]
    for word, group in enumerate((*_quotient(upper, 10**4), *_quotient(lower, 10**4)), 1):
        words[..., word] = _DIGITS[group]
    exponent += _EXPONENT_OFFSET
    words[..., 5] = _E_SIGN_DIGITS[exponent]
    words[..., 6] = _E_LAST_DIGIT[exponent] | separators
    return words


def _int_words(column: np.ndarray, separator: np.uint32) -> np.ndarray:
    """The ``'%d'`` text of an integer or boolean column: a word for the
    sign, as many groups of four digits as its largest magnitude needs, and
    a word for the separator."""
    signed = column.dtype.kind != "u"
    # abs(-2**63) wraps to -2**63, which reads as 2**63 unsigned
    magnitude = (np.abs(column.astype(np.int64)) if signed else column).astype(np.uint64)
    groups = (len(str(magnitude.max(initial=0))) + 3) // 4
    words = np.empty((column.size, groups + 2), dtype=np.uint32)
    words[:, 0] = np.where(column < 0, _MINUS, 0) if signed else 0
    rest = magnitude
    for word in range(groups, 0, -1):
        rest, group = _quotient(rest, 10_000)
        unpadded = (_LAST if word == groups else _LEADING)[group]
        words[:, word] = np.where(rest > 0, _DIGITS[group], unpadded)
    words[:, -1] = separator
    return words


def _numeric_text(columns: list):
    """The body of a table of float, integer and boolean columns, in blocks
    of rows, byte for byte the text of ``line % row``."""
    floats = [j for j, column in enumerate(columns) if column.dtype.kind == "f"]
    separators = np.array([_SEPARATORS[","]] * (len(columns) - 1) + [_SEPARATORS["\n"]])
    n_rows = columns[0].size
    blocks = -(-n_rows * len(columns) // _CHUNK_CELLS)
    step = -(-n_rows // blocks)
    for start in range(0, n_rows, step):
        rows = slice(start, start + step)
        float_cells = {}
        if floats:
            x = np.stack([columns[j][rows] for j in floats], axis=1).astype(np.float64)
            float_cells = dict(zip(floats, _float_words(x, separators[floats]).transpose(1, 0, 2)))
        pieces = [
            float_cells[j] if j in float_cells else _int_words(column[rows], separators[j])
            for j, column in enumerate(columns)
        ]
        yield np.concatenate(pieces, axis=1).tobytes().translate(None, b"\0").decode("ascii")


def _vectorized(columns: list) -> bool:
    """Whether ``emit_csv`` writes the table with :func:`_numeric_text`."""
    return (
        bool(columns)
        and columns[0].size * len(columns) >= _VECTOR_CELLS
        and all(
            column.ndim == 1
            and (column.dtype.kind in "biu" or column.dtype.kind == "f" and column.dtype.itemsize <= 8)
            for column in columns
        )
    )


def emit_csv(table: Table, path) -> None:
    columns = [np.asarray(column) for column in table.data]
    line = ",".join(_cell_format(column) for column in columns) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(table.columns) + "\n")
        if _vectorized(columns):
            fh.writelines(_numeric_text(columns))
        else:
            fh.writelines(line % row for row in zip(*columns))


def _parse_cell(cell: str):
    for parse in (int, float):
        try:
            return parse(cell)
        except ValueError:
            pass
    return cell


def read_csv(path) -> Table:
    """Read back an emitted CSV; numeric cells become floats/ints."""
    with open(path, "r", newline="\n") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("empty CSV file")
    columns = tuple(lines[0].split(","))
    rows = [tuple(_parse_cell(cell) for cell in line.split(",")) for line in lines[1:]]
    if any(len(row) != len(columns) for row in rows):
        raise ValueError("row length does not match column count")
    return Table(columns=columns, data=tuple(zip(*rows)) if rows else ((),) * len(columns))


def matrix_to_json(matrix: np.ndarray) -> dict:
    """Row-major matrix encoding with explicit dimensions."""
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "real": np.real(m).astype(np.float64).ravel().tolist(),
        "imag": np.imag(m).astype(np.float64).ravel().tolist(),
    }


@dataclass
class ResultBundle:
    """Inputs echo plus per-task outputs of one command-line run."""

    task: str
    inputs: dict
    outputs: dict
    version: str

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool": "floquetdd",
            "version": self.version,
            "task": self.task,
            "inputs": self.inputs,
            "outputs": self.outputs,
        }


# The start of the ValueError json.dumps(..., allow_nan=False) raises on a NaN
# or an infinity; its other ValueErrors (a reference cycle) name their own cause.
_JSON_NON_FINITE = "Out of range float values are not JSON compliant"


def emit_json(bundle: ResultBundle, path) -> None:
    try:
        text = json.dumps(bundle.to_dict(), indent=2, sort_keys=True, allow_nan=False)
    except ValueError as err:
        if str(err).startswith(_JSON_NON_FINITE):
            raise RuntimeError("internal error: non-finite value reached JSON emission") from None
        raise RuntimeError(f"internal error: bundle cannot be written as JSON: {err}") from None
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def read_json(path) -> ResultBundle:
    """Read back an emitted bundle; one of another schema version is a ``ValueError``."""
    with open(path, "r") as fh:
        data = json.load(fh)
    found = data.get("schema_version")
    if found != SCHEMA_VERSION:
        raise ValueError(f"bundle schema version {found!r} is not {SCHEMA_VERSION!r}")
    return ResultBundle(data["task"], data["inputs"], data["outputs"], data["version"])
