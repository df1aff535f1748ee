"""Free-format MPS writer and reader.

The writer emits ROWS/COLUMNS/RHS/BOUNDS sections with one entry per line,
deterministically ordered, so exports are byte-stable. It works from the
model's arrays: COLUMNS walks the CSC of the objective row stacked on the
constraint matrix, so each column's objective entry comes first and its
rows follow in declaration order. Every distinct value is formatted once,
and lines go to the file in chunks, never as one list of the whole file.

The reader parses the same dialect back into a ModelInstance for
round-trip checks and for feeding files produced by other tools. A ROWS,
COLUMNS or BOUNDS section in the regular layout (the same number of tokens
on every line, no comments) is parsed in bulk: one split of the section
text, names mapped to indices through one dict, numbers converted by one
``np.array(..., float)``. Any other section or layout is read line by
line, and every error names its line. The rows are added as one block. A
nonzero objective constant is carried as the (negated) RHS entry of the
objective row, the common solver convention. The first N row is the
objective; a later N row is a free row, dropped with its COLUMNS and RHS
entries. A row name given twice in ROWS is an error.
"""

from __future__ import annotations

import itertools
import re

import numpy as np
import scipy.sparse as sp

from .lp import EQ, GE, INF, LE, SENSES, ModelInstance

OBJ_ROW = "COST"
_SENSE_TO_TYPE = {LE: "L", GE: "G", EQ: "E"}
_TYPE_TO_CODE = {_SENSE_TO_TYPE[s]: i for i, s in enumerate(SENSES)}
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
    types = np.array([_SENSE_TO_TYPE[s] for s in SENSES], dtype=object)
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

    with open(path, "w", newline="\n") as fh:
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


_SECTIONS = ("NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "OBJSENSE")
_PIECE = 1 << 20    # a section body is parsed this many characters at a time
_ROW_TYPE = {"N": -1, **_TYPE_TO_CODE}     # N rows have a negative code
_OBJECTIVE, _FREE = -1, -2     # row_index of the first N row, of any later one
_WHITESPACE = np.zeros(256, dtype=bool)    # the ASCII whitespace of str.split
_WHITESPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True


def read_mps(path) -> ModelInstance:
    """Parse a free-format MPS file written by write_mps (or compatible)."""
    with open(path) as fh:
        text = fh.read()
    reader = _Reader(path)
    # lines that start in column 0 are section headers or comments
    starts = [m.start() + 1 for m in re.finditer(r"\n\S", text)]
    if text[:1] and not text[:1].isspace():
        starts.insert(0, 0)
    reader.body(text, 0, starts[0] if starts else len(text), 1)
    lineno, counted = 1, 0
    for a, b in zip(starts, starts[1:] + [len(text)]):
        lineno += text.count("\n", counted, a)
        counted = a
        end = text.find("\n", a, b)
        end = b if end < 0 else end
        head = text[a:end].split()
        if not head[0].startswith("*"):
            reader.header(head, lineno)
            if reader.done:
                break
        reader.body(text, end + 1, b, lineno + 1)
    del text    # lowers peak memory while the model is assembled
    return reader.model()


def _is_uniform(text: str, width: int) -> bool:
    """True if every line of `text` holds exactly `width` tokens or none,
    and no line can be a comment."""
    if "*" in text or not text.isascii():
        return False
    b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    space = _WHITESPACE[b]
    # a token starts where whitespace is followed by non-whitespace
    first = np.flatnonzero(space[:-1] > space[1:])
    line_end = np.concatenate((np.flatnonzero(b == 10), [len(b)]))
    per_line = np.diff(np.searchsorted(first, line_end), prepend=-int(not space[:1].all()))
    return bool(((per_line == 0) | (per_line == width)).all())


def _parse_floats(texts):
    """The numbers in `texts` as one float array (None if one is not a
    number), parsing each distinct text once."""
    distinct = dict.fromkeys(texts)
    try:
        parsed = np.array(list(distinct), dtype=float)
    except ValueError:
        return None
    index = dict(zip(distinct, range(len(distinct))))
    return parsed[np.fromiter(map(index.__getitem__, texts), np.int64, len(texts))]


class _Reader:
    """Parsing state of one file, fed one piece of a section body at a time.

    ROWS, COLUMNS and BOUNDS pieces in the regular layout (the same
    number of tokens on every line, no comments, every name known) are
    parsed in bulk. Anything else goes line by line, which also reports
    every error with its line number.
    """

    def __init__(self, path):
        self.path = path
        self.section = None
        self.done = False
        self.row_index: dict[str, int] = {}  # constraint row -> index; N rows < 0
        self.objective_read = False
        self.row_codes: list[int] = []
        self.row_names: list[str] = []
        self.col_index: dict[str, int] = {}
        self.entries: list[tuple] = []       # COLUMNS (cols, rows, values) blocks
        self.rhs: dict[int, float] = {}
        self.obj_constant = 0.0
        self.bounds: list[tuple] = []        # (type, column, value) in file order

    def error(self, lineno, message):
        return MpsFormatError(f"{self.path}:{lineno}: {message}")

    def number(self, text, lineno) -> float:
        try:
            return float(text)
        except ValueError:
            raise self.error(lineno, f"not a number: {text!r}") from None

    def header(self, head, lineno):
        self.section = head[0].upper()
        if self.section == "ENDATA":
            self.done = True
        elif self.section not in _SECTIONS:
            raise self.error(lineno, f"unknown section {self.section}")
        elif self.section == "OBJSENSE":
            self.objsense(head[1:], lineno)

    def body(self, text, start, stop, lineno):
        """Parse text[start:stop], which begins on line `lineno`, in pieces
        of whole lines, so that no piece's tokens take much memory."""
        while start < stop:
            cut = stop
            if stop - start > _PIECE:
                cut = text.find("\n", start + _PIECE, stop) + 1 or stop
            piece = text[start:cut]
            self.piece(piece, lineno)
            lineno += piece.count("\n")
            start = cut

    def piece(self, text, lineno):
        bulk = {"ROWS": (2, self.rows_bulk), "COLUMNS": (3, self.columns_bulk),
                "BOUNDS": (4, self.bounds_bulk)}.get(self.section)
        if bulk is not None and "MARKER" not in text and _is_uniform(text, bulk[0]):
            tokens = text.split()
            if not tokens or bulk[1](tokens):
                return
        handle = {None: self.stray, "NAME": None, "ROWS": self.row,
                  "COLUMNS": self.column_entry, "RHS": self.rhs_entry, "RANGES": self.ranges,
                  "BOUNDS": self.bound, "OBJSENSE": self.objsense}[self.section]
        for k, line in enumerate(text.split("\n")):
            tokens = line.split()
            if tokens and not tokens[0].startswith("*") and handle is not None:
                handle(tokens, lineno + k)

    # -- bulk: True when the whole piece was taken --------------------------

    def rows_bulk(self, tokens) -> bool:
        codes = list(map(_ROW_TYPE.get, map(str.upper, tokens[0::2])))
        if None in codes:
            return False
        codes = np.array(codes, dtype=np.int64)
        index = np.full(len(codes), _FREE)
        constraint = codes >= 0
        index[constraint] = len(self.row_codes) + np.arange(constraint.sum())
        if not self.objective_read and not constraint.all():
            index[constraint.argmin()] = _OBJECTIVE     # the file's first N row
        names = dict(zip(tokens[1::2], index.tolist()))
        if len(names) < len(codes) or not self.row_index.keys().isdisjoint(names):
            return False    # a repeated name: the line path reports its line
        self.objective_read |= not constraint.all()
        self.row_index.update(names)
        self.row_codes.extend(codes[constraint].tolist())
        self.row_names.extend(itertools.compress(tokens[1::2], constraint.tolist()))
        return True

    def columns_bulk(self, tokens) -> bool:
        n = len(tokens) // 3
        try:    # an unknown row name maps to None, which fromiter rejects
            rows = np.fromiter(map(self.row_index.get, tokens[1::3]), np.int64, n)
        except TypeError:
            return False
        values = _parse_floats(tokens[2::3])
        if values is None:
            return False
        # a column's entries sit on consecutive lines: map each run's name once
        names = np.array(tokens[0::3], dtype=object)
        new_run = np.concatenate(([True], names[1:] != names[:-1]))
        run_cols = np.array([self.col_index.setdefault(name, len(self.col_index))
                             for name in names[new_run].tolist()], dtype=np.int64)
        self.entries.append((run_cols[np.cumsum(new_run) - 1], rows, values))
        return True

    def bounds_bulk(self, tokens) -> bool:
        types = list(map(str.upper, tokens[0::4]))
        cols = list(map(self.col_index.get, tokens[2::4]))
        if not set(types) <= {"UP", "LO", "FX"} or None in cols:
            return False
        values = _parse_floats(tokens[3::4])
        if values is None:
            return False
        self.bounds.extend(zip(types, cols, values.tolist()))
        return True

    # -- line by line -------------------------------------------------------

    def stray(self, tokens, lineno):
        raise self.error(lineno, "content before any section")

    def ranges(self, tokens, lineno):
        raise self.error(lineno, "RANGES not supported")

    def row(self, tokens, lineno):
        if len(tokens) != 2:
            raise self.error(lineno, "ROWS entry is not a type and a name")
        rtype, name = tokens[0].upper(), tokens[1]
        if rtype not in _ROW_TYPE:
            raise self.error(lineno, f"bad row type {rtype}")
        if name in self.row_index:
            raise self.error(lineno, f"repeated row name {name}")
        if _ROW_TYPE[rtype] < 0:
            self.row_index[name] = _FREE if self.objective_read else _OBJECTIVE
            self.objective_read = True
        else:
            self.row_index[name] = len(self.row_codes)
            self.row_codes.append(_ROW_TYPE[rtype])
            self.row_names.append(name)

    def column_entry(self, tokens, lineno):
        if any("MARKER" in t for t in tokens):
            raise self.error(lineno, "integer markers are not supported")
        j = self.col_index.setdefault(tokens[0], len(self.col_index))
        if len(tokens) % 2 == 0:
            raise self.error(lineno, "odd COLUMNS entry")
        rows, values = [], []
        for name, value in zip(tokens[1::2], tokens[2::2]):
            i = self.row_index.get(name)
            if i is None:
                raise self.error(lineno, f"unknown row {name}")
            rows.append(i)
            values.append(self.number(value, lineno))
        self.entries.append((np.full(len(rows), j, dtype=np.int64),
                             np.array(rows, dtype=np.int64), np.array(values)))

    def rhs_entry(self, tokens, lineno):
        if len(tokens) % 2 == 0:
            raise self.error(lineno, "odd RHS entry")
        for name, value in zip(tokens[1::2], tokens[2::2]):
            i = self.row_index.get(name)
            if i is None:
                raise self.error(lineno, f"unknown row {name}")
            value = self.number(value, lineno)
            if i == _OBJECTIVE:
                self.obj_constant = -value
            elif i >= 0:
                self.rhs[i] = value

    def bound(self, tokens, lineno):
        if len(tokens) < 3:
            raise self.error(lineno, "BOUNDS entry without a column")
        btype, name = tokens[0].upper(), tokens[2]
        if name not in self.col_index:
            raise self.error(lineno, f"unknown column {name}")
        if btype in ("BV", "LI", "UI"):
            raise self.error(lineno, f"integer bound {btype} not supported")
        if btype not in ("UP", "LO", "FX", "FR", "MI", "PL"):
            raise self.error(lineno, f"bad bound type {btype}")
        value = None
        if btype in ("UP", "LO", "FX"):
            if len(tokens) != 4:
                raise self.error(lineno, f"bound {btype} needs one value")
            value = self.number(tokens[3], lineno)
        self.bounds.append((btype, self.col_index[name], value))

    def objsense(self, tokens, lineno):
        if tokens and tokens[0].upper() not in ("MIN", "MINIMIZE"):
            raise self.error(lineno, f"objective sense {tokens[0]} not supported "
                                     "(minimization only)")

    # -- the model ------------------------------------------------------------

    def model(self) -> ModelInstance:
        n = len(self.col_index)
        lower, upper = np.zeros(n), np.full(n, INF)
        for btype, j, value in self.bounds:
            if btype == "UP":
                upper[j] = value
            elif btype == "LO":
                lower[j] = value
            elif btype == "FX":
                lower[j] = upper[j] = value
            elif btype == "FR":
                lower[j], upper[j] = -INF, INF
            elif btype == "MI":
                lower[j] = -INF
            else:   # PL
                upper[j] = INF
        model = ModelInstance()
        model.add_columns(list(self.col_index), lower, upper)

        if self.entries:
            cols, rows, values = (np.concatenate(parts) for parts in zip(*self.entries))
            self.entries = []
        else:
            cols = rows = np.empty(0, dtype=np.int64)
            values = np.empty(0)
        objective = rows == _OBJECTIVE
        model.add_objective(cols[objective], values[objective])
        keep = rows >= 0
        cols, rows, values = cols[keep], rows[keep], values[keep]
        # entries come column by column; turning that CSC into a CSR puts
        # them row by row in linear time
        m = len(self.row_codes)
        if (np.diff(cols) < 0).any():
            order = np.argsort(cols, kind="stable")
            cols, rows, values = cols[order], rows[order], values[order]
        col_ptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n))))
        a = sp.csc_matrix((values, rows, col_ptr), shape=(m, n)).tocsr()
        rhs = np.zeros(m)
        rhs[list(self.rhs)] = list(self.rhs.values())
        model.add_rows("mps", self.row_names, a.indices, a.data, self.row_codes, rhs,
                       indptr=a.indptr)
        model.objective_constant = self.obj_constant
        return model
