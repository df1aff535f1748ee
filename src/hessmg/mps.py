"""Free-format MPS writer, and the reader of its files.

The writer emits ROWS/COLUMNS/RHS/BOUNDS sections with one entry per line,
deterministically ordered, so exports are byte-stable. It works from the
model's arrays: COLUMNS walks the CSC of the objective row stacked on the
constraint matrix, so each column's objective entry comes first and its
rows follow in declaration order. Every distinct value is formatted once,
and lines go to the file in chunks, never as one list of the whole file.
A nonzero objective constant is the negated RHS entry of the N row.

The reader's job is the round trip of this writer: it shows that a file
holds the model bit for bit. It takes the writer's layout only, NAME ROWS
COLUMNS RHS BOUNDS ENDATA in that order with the one N row first, and
parses each section body in bulk, in pieces of whole lines. Anything else
raises MpsFormatError naming the file and the section: a comment or blank
line, another section (OBJSENSE, RANGES), an integer MARKER or bound, a PL
bound, a second N row, a repeated row name, an unknown name, a token that
is not a number, a line with the wrong number of fields, or text that is
not UTF-8.

Both sides use UTF-8, whatever the locale. The reader reads the file's
bytes once and works on them: it finds the section headers there, cuts
each body into pieces of whole lines, and counts each piece's fields on
its bytes, splitting at the ASCII whitespace of str.split (the codes 9-13
and 28-32). Only then is the piece decoded, for one str.split.
"""

from __future__ import annotations

import itertools
import re

import numpy as np
import scipy.sparse as sp

from .lp import EQ, GE, INF, LE, SENSES, ModelInstance, Rows

OBJ_ROW = "COST"
_ROW_TYPE = {LE: "L", EQ: "E", GE: "G"}    # sense code -> MPS row type, and back
_CHUNK = 1 << 14    # lines per write


class MpsFormatError(ValueError):
    """Unparseable MPS content."""


def _fmt(values) -> np.ndarray:
    """Each value as text with 17 significant digits, so it survives the
    round trip bit-exactly. Distinct values (by bit pattern, so -0.0 keeps
    its sign) are formatted once."""
    bits, inverse = np.unique(np.asarray(values, dtype=float).view(np.int64),
                              return_inverse=True)
    text = np.array(["%.17g" % v for v in bits.view(float).tolist()], dtype=object)
    return text[inverse]


def _write_lines(fh, template, *fields):
    """Write line i as ``template % (field[i] for each field)``, in chunks."""
    width = len(fields)
    for lo in range(0, len(fields[0]), _CHUNK):
        parts = [np.asarray(f[lo:lo + _CHUNK], dtype=object).tolist() for f in fields]
        flat = [None] * (len(parts[0]) * width)
        for i, part in enumerate(parts):
            flat[i::width] = part
        fh.write(template * len(parts[0]) % tuple(flat))


def _bound_lines(names, lower, upper):
    """(type, column, value text) of every BOUNDS line, in column order."""
    fixed = lower == upper
    free = ~fixed & (lower == -INF) & (upper == INF)
    rest = ~fixed & ~free
    minus_inf = rest & (lower == -INF)
    low = rest & ~minus_inf & (lower != 0.0)
    up = rest & (upper != INF)
    # slot 0 of a column carries FX/FR/MI/LO, slot 1 carries UP
    kind = np.full((len(names), 2), None, dtype=object)
    kind[fixed, 0], kind[free, 0], kind[minus_inf, 0] = "FX", "FR", "MI"
    kind[low, 0], kind[up, 1] = "LO", "UP"
    value = np.full((len(names), 2), "", dtype=object)
    with_lower = fixed | low
    value[with_lower, 0] = " " + _fmt(lower[with_lower])
    value[up, 1] = " " + _fmt(upper[up])
    present = (kind != None).ravel()  # noqa: E711  (elementwise)
    return (kind.ravel()[present], np.repeat(names, 2)[present],
            value.ravel()[present])


def write_mps(model: ModelInstance, path, name: str = "HESSMG"):
    """Write the model in free MPS format (minimization objective)."""
    row_names = np.array([OBJ_ROW] + model.row_names, dtype=object)
    col_names = np.array(model.col_names, dtype=object)
    types = np.array([_ROW_TYPE[code] for code in range(len(SENSES))], dtype=object)
    rhs = model.rhs_vector()
    lower, upper = model.bounds_arrays()
    # the objective is row 0, so it leads every column; a column in no row
    # and without cost gets an explicit zero cost, or it would not be written
    a = model.row_matrix()
    c = model.objective_vector()
    cost_cols = np.flatnonzero((c != 0.0) | (np.bincount(a.indices, minlength=len(c)) == 0))
    cost = sp.csr_matrix((c[cost_cols], cost_cols, [0, len(cost_cols)]),
                         shape=(1, len(c)))
    csc = sp.vstack([cost, a], format="csr").tocsc()

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"NAME {name}\nROWS\n N {OBJ_ROW}\n")
        _write_lines(fh, " %s %s\n", types[model.sense_codes()], row_names[1:])
        fh.write("COLUMNS\n")
        _write_lines(fh, " %s %s %s\n", np.repeat(col_names, np.diff(csc.indptr)),
                     row_names[csc.indices], _fmt(csc.data))
        fh.write("RHS\n")
        rows = np.flatnonzero(rhs) + 1
        values = rhs[rows - 1]
        if model.objective_constant != 0.0:
            rows = np.concatenate(([0], rows))
            values = np.concatenate(([-model.objective_constant], values))
        _write_lines(fh, " RHS %s %s\n", row_names[rows], _fmt(values))
        fh.write("BOUNDS\n")
        _write_lines(fh, " %s BND %s%s\n", *_bound_lines(col_names, lower, upper))
        fh.write("ENDATA\n")


# the sections write_mps writes, in order, with the fields on each line of
# their bodies; NAME and ENDATA have none
_LAYOUT = {"NAME": (), "ROWS": (2,), "COLUMNS": (3,), "RHS": (3,), "BOUNDS": (3, 4),
           "ENDATA": ()}
_PIECE = 1 << 20    # a section body is parsed this many bytes at a time
_OBJECTIVE = -1     # the row index of the N row, which ROWS holds first and once
_ROW_CODE = {"N": _OBJECTIVE, **{t: code for code, t in _ROW_TYPE.items()}}
_BOUND_CODE = {t: i for i, t in enumerate(("UP", "LO", "FX", "FR", "MI"))}
_VALUED = 3         # bound codes below this carry a value
_SETS_LOWER = np.array([False, True, True, True, True])    # by bound code
_SETS_UPPER = np.array([True, False, True, True, False])
# a line break followed by a byte that is not ASCII whitespace
_COLUMN_ZERO = re.compile(rb"\n[^\t-\r\x1c- ]")


def _starts_with_space(data: bytes, at: int) -> bool:
    """Whether the character at byte `at` is whitespace to str.isspace,
    which also takes some non-ASCII characters (U+00A0, U+2003)."""
    return data[at:at + 4].decode(errors="replace")[:1].isspace()


def _header_starts(data: bytes):
    """The byte offset of each line after the first that starts in column 0."""
    for m in _COLUMN_ZERO.finditer(data):
        if not _starts_with_space(data, m.start() + 1):
            yield m.start() + 1


def read_mps(path) -> ModelInstance:
    """Parse a file written by write_mps back into its model.

    Any other layout raises MpsFormatError naming the file and the section.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    reader = _Reader(path)
    if not data[:1] or _starts_with_space(data, 0):
        raise reader.error("NAME", "not the first line")
    # lines that start in column 0 are section headers; NAME's holds a name
    starts = [0, *itertools.islice(_header_starts(data), len(_LAYOUT))]
    found, bodies = [], []
    for a, b in zip(starts, starts[1:] + [len(data)]):
        end = data.find(b"\n", a, b)
        end = b if end < 0 else end
        head = data[a:end].decode(errors="replace").split()
        found.append(" ".join(head[:1] if head[0] == "NAME" else head))
        bodies.append((end + 1, b))
    if found != list(_LAYOUT):
        raise MpsFormatError(f"{path}: sections {' '.join(found)}; "
                             f"write_mps writes {' '.join(_LAYOUT)}")
    reader.text("NAME", data[:bodies[0][0]], 0)    # its name: the one header not compared
    for section, (start, stop) in zip(_LAYOUT, bodies):
        reader.body(section, data, start, stop)
    del data    # lowers peak memory while the model is assembled
    return reader.model()


def _fields_per_line(piece: bytes) -> np.ndarray:
    """The number of whitespace-separated fields on each line of `piece`,
    split at the ASCII whitespace of str.split: the codes 9-13 and 28-32."""
    b = np.frombuffer(piece, dtype=np.uint8)
    # uint8 subtraction wraps, so each range is one subtraction and one compare
    space = (b - np.uint8(9) < 5) | (b - np.uint8(28) < 5)
    # a field starts at non-whitespace that opens the piece or follows whitespace
    first = ~space
    first[1:] &= space[:-1]
    first = np.flatnonzero(first)
    line_end = np.flatnonzero(b == 10)
    if not piece.endswith(b"\n"):
        line_end = np.append(line_end, len(b))
    return np.diff(np.searchsorted(first, line_end), prepend=0)


def _parse_floats(texts):
    """The numbers in `texts` as one float array, parsing each distinct text
    once; ValueError names a text that is not a number."""
    distinct = dict.fromkeys(texts)
    parsed = np.array(list(distinct), dtype=float)
    index = dict(zip(distinct, range(len(distinct))))
    return parsed[np.fromiter(map(index.__getitem__, texts), np.int64, len(texts))]


class _Reader:
    """Parsing state of one file, fed one piece of a section body at a time.

    Each piece is parsed in bulk: one split, names mapped to indices through
    one dict, numbers converted by one ``np.array(..., float)``.
    """

    def __init__(self, path):
        self.path = path
        self.row_index: dict[str, int] = {}     # row name -> index
        self.row_codes: list[int] = []
        self.row_names: list[str] = []
        self.col_index: dict[str, int] = {}
        none = np.empty(0, dtype=np.int64)
        self.entries = [(none, none, np.empty(0))]      # COLUMNS (cols, rows, values)
        self.rhs_entries = [(none, np.empty(0))]        # RHS (rows, values)
        self.bound_entries = [(none, none, np.empty(0))]    # BOUNDS (codes, cols, values)

    def error(self, section, message):
        return MpsFormatError(f"{self.path}: {section}: {message}")

    def text(self, section, raw, offset) -> str:
        """`raw`, the part of `section` at byte `offset`, decoded as UTF-8."""
        try:
            return raw.decode()
        except UnicodeDecodeError as e:
            raise self.error(section, f"not UTF-8 text (byte 0x{e.object[e.start]:02x} "
                             f"at offset {offset + e.start}: {e.reason})") from None

    def body(self, section, data, start, stop):
        """Parse data[start:stop], the body of `section`, in pieces of whole
        lines, so that no piece's tokens take much memory."""
        while start < stop:
            cut = stop
            if stop - start > _PIECE:
                cut = data.find(b"\n", start + _PIECE, stop) + 1 or stop
            self.piece(section, data[start:cut], start)
            start = cut

    def piece(self, section, raw, offset):
        widths = _LAYOUT[section]
        fields = _fields_per_line(raw)
        wrong = ~np.isin(fields, widths)
        if wrong.any():
            raise self.error(section, f"a line of {fields[wrong.argmax()]} fields; "
                             f"write_mps writes {' or '.join(map(str, widths)) or 'none'}")
        tokens = self.text(section, raw, offset).split()
        if len(tokens) != fields.sum():
            raise self.error(section, "whitespace that is not ASCII")
        getattr(self, section.lower())(tokens, fields)    # rows, columns, rhs, bounds

    def lookup(self, section, kind, index, names) -> np.ndarray:
        try:
            return np.fromiter(map(index.__getitem__, names), np.int64, len(names))
        except KeyError as e:
            raise self.error(section, f"unknown {kind} {e.args[0]}") from None

    def numbers(self, section, texts) -> np.ndarray:
        try:
            return _parse_floats(texts)
        except ValueError as e:
            raise self.error(section, str(e)) from None

    def set_name(self, section, names, want):
        other = set(names) - {want}
        if other:
            raise self.error(section, f"set name {min(other)}; write_mps writes {want}")

    def rows(self, tokens, fields):
        names = tokens[1::2]
        codes = self.lookup("ROWS", "row type", _ROW_CODE, tokens[0::2])
        first = int(not self.row_index)     # 1 in the piece that opens ROWS
        n_rows = np.flatnonzero(codes < 0).tolist()
        if first and n_rows[:1] != [0]:
            raise self.error("ROWS", "the first row is not the N row")
        if n_rows[first:]:
            raise self.error("ROWS", f"a second N row {names[n_rows[first]]}")
        start = _OBJECTIVE if first else len(self.row_codes)
        index = dict(zip(names, range(start, start + len(names))))
        if len(index) < len(names) or not self.row_index.keys().isdisjoint(index):
            seen = set(self.row_index)
            repeated = next(name for name in names if name in seen or seen.add(name))
            raise self.error("ROWS", f"repeated row name {repeated}")
        self.row_index.update(index)
        self.row_codes.extend(codes[first:].tolist())
        self.row_names.extend(names[first:])

    def columns(self, tokens, fields):
        rows = self.lookup("COLUMNS", "row", self.row_index, tokens[1::3])
        values = self.numbers("COLUMNS", tokens[2::3])
        # a column's entries sit on consecutive lines: map each run's name once
        names = np.array(tokens[0::3], dtype=object)
        new_run = np.concatenate(([True], names[1:] != names[:-1]))
        run_cols = np.array([self.col_index.setdefault(name, len(self.col_index))
                             for name in names[new_run].tolist()], dtype=np.int64)
        self.entries.append((run_cols[np.cumsum(new_run) - 1], rows, values))

    def rhs(self, tokens, fields):
        self.set_name("RHS", tokens[0::3], "RHS")
        self.rhs_entries.append((self.lookup("RHS", "row", self.row_index, tokens[1::3]),
                                 self.numbers("RHS", tokens[2::3])))

    def bounds(self, tokens, fields):
        # lines of 3 and 4 fields mix: each line's first token places its fields
        at = np.cumsum(fields) - fields
        tokens = np.array(tokens, dtype=object)
        codes = self.lookup("BOUNDS", "bound type", _BOUND_CODE, tokens[at])
        valued = fields == 4
        wrong = (codes < _VALUED) != valued
        if wrong.any():
            i = wrong.argmax()
            raise self.error("BOUNDS", f"a {tokens[at[i]]} bound of {fields[i]} fields")
        self.set_name("BOUNDS", tokens[at + 1], "BND")
        cols = self.lookup("BOUNDS", "column", self.col_index, tokens[at + 2])
        values = np.zeros(len(at))
        values[valued] = self.numbers("BOUNDS", tokens[at[valued] + 3])
        self.bound_entries.append((codes, cols, values))

    def model(self) -> ModelInstance:
        if not self.row_index:
            raise self.error("ROWS", "no N row")
        # each BOUNDS line sets its bounds in file order; FR and MI set infinite ones
        codes, cols, values = map(np.concatenate, zip(*self.bound_entries))
        lower, upper = np.zeros(len(self.col_index)), np.full(len(self.col_index), INF)
        valued = codes < _VALUED
        sets = _SETS_LOWER[codes]
        lower[cols[sets]] = np.where(valued, values, -INF)[sets]
        sets = _SETS_UPPER[codes]
        upper[cols[sets]] = np.where(valued, values, INF)[sets]
        model = ModelInstance()
        model.add_columns(list(self.col_index), lower, upper)

        cols, rows, values = map(np.concatenate, zip(*self.entries))
        self.entries = []
        objective = rows == _OBJECTIVE
        model.add_objective(cols[objective], values[objective])
        cols, rows, values = cols[~objective], rows[~objective], values[~objective]
        # entries come column by column; turning that CSC into a CSR puts
        # them row by row in linear time
        m, n = len(self.row_codes), len(self.col_index)
        if (np.diff(cols) < 0).any():
            order = np.argsort(cols, kind="stable")
            cols, rows, values = cols[order], rows[order], values[order]
        col_ptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n))))
        a = sp.csc_matrix((values, rows, col_ptr), shape=(m, n)).tocsr()
        rows, values = map(np.concatenate, zip(*self.rhs_entries))
        objective = rows == _OBJECTIVE
        rhs = np.zeros(m)
        rhs[rows[~objective]] = values[~objective]
        model.add_rows([Rows("mps", self.row_names, a.indptr, a.indices, a.data,
                             self.row_codes, rhs)])
        model.objective_constant = -float(values[objective][-1]) if objective.any() else 0.0
        return model
