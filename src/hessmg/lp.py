"""Sparse linear program container shared by the builder, solver and writers.

A model is held as arrays. Columns are registered per ``(kind, entity)``:
a design variable is one column, a per-step variable is one arithmetic
range of columns (``add_vars`` interleaves several of them step by step).
Each column is named ``kind.entity``, or ``kind.entity.k<step>``, when it
is added; outside the builder, that name is how a column is found.
Bounds and the minimization objective are dense arrays over the columns.
Rows arrive in blocks through ``add_rows`` and are stored as COO triplets,
sorted by column within each row, plus a sense code, a right-hand side and
a family code per row and a list of row names; ``add_row`` adds one row
through the same checks. ``row_matrix()`` assembles the CSR once and
caches it until the next row is added. The solver, ``verify`` and the
MPS writer all read that one CSR.

``rows`` gives the same rows as ``Row`` objects, made on access; it is
meant for tests and for inspecting models, not for hot paths.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

LE, EQ, GE = "<=", "==", ">="
SENSES = (LE, EQ, GE)   # a row's sense code indexes this tuple
_SENSE_CODE = {s: i for i, s in enumerate(SENSES)}

INF = math.inf


class ModelError(ValueError):
    """Ill-formed model: bad coefficient, bounds, or duplicate variable."""


@dataclass
class Row:
    cols: list[int]
    coefs: list[float]
    sense: str
    rhs: float
    name: str
    family: str


class RowView(Sequence):
    """Read-only sequence of a model's rows as Row objects. Each access
    makes a fresh Row, so a pass over the rows keeps none of them alive."""

    def __init__(self, model: "ModelInstance"):
        a = model.row_matrix()
        self._ptr, self._cols, self._coefs = (a.indptr.tolist(), a.indices.tolist(),
                                              a.data.tolist())
        self._senses = model.sense_codes().tolist()
        self._rhs = model.rhs_vector().tolist()
        self._names = list(model.row_names)
        self._families = [model.families[f] for f in model.family_codes().tolist()]

    def __len__(self):
        return len(self._names)

    def __getitem__(self, i: int) -> Row:
        i = range(len(self))[i]
        lo, hi = self._ptr[i], self._ptr[i + 1]
        return Row(self._cols[lo:hi], self._coefs[lo:hi], SENSES[self._senses[i]],
                   self._rhs[i], self._names[i], self._families[i])

    def __iter__(self):
        ptr, cols, coefs = self._ptr, self._cols, self._coefs
        for lo, hi, s, rhs, name, family in zip(ptr, ptr[1:], self._senses, self._rhs,
                                                self._names, self._families):
            yield Row(cols[lo:hi], coefs[lo:hi], SENSES[s], rhs, name, family)


class _Blocks:
    """A 1-D array grown by appending blocks, joined on first read."""

    def __init__(self, dtype):
        self._dtype = dtype
        self._parts: list[np.ndarray] = []

    def append(self, values):
        self._parts.append(np.array(values, dtype=self._dtype).ravel())

    @property
    def array(self) -> np.ndarray:
        if len(self._parts) != 1:
            self._parts = [np.concatenate(self._parts) if self._parts
                           else np.empty(0, self._dtype)]
        return self._parts[0]


class ModelInstance:
    """Sparse LP: bounded columns, sensed rows, dense minimize objective."""

    def __init__(self):
        self._index: dict[tuple, int | range] = {}   # (kind, entity) -> column(s)
        self._lb = _Blocks(float)
        self._ub = _Blocks(float)
        self._c = _Blocks(float)
        self._col_names: list[str] = []
        self.objective_constant: float = 0.0

        self._clear_rows()

    # -- columns -----------------------------------------------------------

    @property
    def n_vars(self) -> int:
        return len(self._col_names)

    @property
    def n_rows(self) -> int:
        return len(self.row_names)

    def add_columns(self, names, lb, ub):
        """Append columns known only by name (e.g. read from a file); `lb`
        and `ub` hold one bound per column."""
        lb = np.asarray(lb, dtype=float).ravel()
        ub = np.asarray(ub, dtype=float).ravel()
        bad = np.isnan(lb) | np.isnan(ub) | (lb > ub) | (lb == INF) | (ub == -INF)
        if bad.any():
            i = bad.argmax()
            raise ModelError(f"bad bounds [{lb[i]}, {ub[i]}] for {names[i]}")
        self._lb.append(lb)
        self._ub.append(ub)
        self._c.append(np.zeros(len(names)))
        self._col_names.extend(names)

    def add_var(self, kind, entity, lb=0.0, ub=INF) -> int:
        """Register one design column and return its index."""
        if (kind, entity) in self._index:
            raise ModelError(f"duplicate variable {(kind, entity)}")
        self.add_columns([f"{kind}.{entity}"], [lb], [ub])
        self._index[(kind, entity)] = self.n_vars - 1
        return self.n_vars - 1

    def add_vars(self, specs, n_steps: int):
        """Register steps 0..n_steps-1 of every ``(kind, entity, lb, ub)`` in
        `specs`, step-major: the columns of step k sit together in spec
        order. A bound is a scalar or one value per step."""
        width = len(specs)
        keys = [(kind, entity) for kind, entity, _, _ in specs]
        for key in keys:
            if key in self._index or keys.count(key) > 1:
                raise ModelError(f"duplicate variable {key}")
        prefixes = [f"{kind}.{entity}.k" for kind, entity in keys]
        names = [p + k for k in map(str, range(n_steps)) for p in prefixes]
        lower, upper = np.empty((n_steps, width)), np.empty((n_steps, width))
        for i, (_, _, lb, ub) in enumerate(specs):
            lower[:, i], upper[:, i] = lb, ub
        self.add_columns(names, lower, upper)
        first = self.n_vars - width * n_steps
        for i, key in enumerate(keys):
            self._index[key] = range(first + i, self.n_vars, width)

    def var(self, kind, entity, step=None) -> int:
        """Column of a design variable, or of one step of a per-step one."""
        cols = self._index.get((kind, entity))
        if step is None and isinstance(cols, int):
            return cols
        if step is not None and isinstance(cols, range) and 0 <= step < len(cols):
            return cols[step]
        raise KeyError((kind, entity, step))

    def columns(self, kind, entity) -> np.ndarray:
        """Column of every step of a per-step variable, in step order."""
        steps = self._index.get((kind, entity))
        if not isinstance(steps, range):
            raise KeyError((kind, entity))
        return np.arange(steps.start, steps.stop, steps.step)

    def entities(self, kind) -> list[str]:
        """Entities that have a per-step variable of `kind`."""
        return [e for (k, e), cols in self._index.items()
                if k == kind and isinstance(cols, range)]

    @property
    def col_names(self) -> list[str]:
        """Each column's name, fixed when the column is added."""
        return self._col_names

    @property
    def lower(self) -> list[float]:
        return self._lb.array.tolist()

    @property
    def upper(self) -> list[float]:
        return self._ub.array.tolist()

    def bounds_arrays(self):
        return self._lb.array.copy(), self._ub.array.copy()

    def set_bounds(self, col: int, lb, ub):
        if math.isnan(lb) or math.isnan(ub) or lb > ub:
            raise ModelError(f"bad bounds [{lb}, {ub}] for {self._col_names[col]}")
        self._lb.array[col] = lb
        self._ub.array[col] = ub

    # -- rows --------------------------------------------------------------

    def _clear_rows(self):
        self._ri = _Blocks(np.int64)     # COO row, column, value
        self._rj = _Blocks(np.int64)
        self._rv = _Blocks(float)
        self._sense = _Blocks(np.int8)
        self._rhs = _Blocks(float)
        self._family = _Blocks(np.int32)
        self.row_names: list[str] = []
        self.families: list[str] = []    # family code -> family name
        self._csr = self._rows = None

    def add_rows(self, family, names, cols, coefs, sense, rhs, indptr=None):
        """Append one block of rows.

        Terms come as `cols`/`coefs` of shape (n, width), one row each, or
        as flat arrays cut into rows by `indptr` (length n+1). `sense` is
        one sense for the block or a sense code (index into SENSES) per
        row; `rhs` is a scalar or one value per row. Exact zeros
        (-0.0 too) are dropped, then repeated columns in a row are summed.
        A row left without terms, a non-finite coefficient or right-hand
        side, or an unknown sense or column raises ModelError.
        """
        names = list(names)
        n = len(names)
        if n == 0:
            return
        cols = np.asarray(cols, dtype=np.int64)
        coefs = np.asarray(coefs, dtype=float)
        if indptr is None:
            if cols.ndim != 2 or len(cols) != n or coefs.shape != cols.shape:
                raise ModelError(f"block {family}: terms do not match {n} rows")
            row_of = np.repeat(np.arange(n), cols.shape[1])
            cols, coefs = cols.ravel(), coefs.ravel()
        else:
            counts = np.diff(np.asarray(indptr, dtype=np.int64))
            if len(counts) != n or cols.shape != coefs.shape or len(cols) != counts.sum():
                raise ModelError(f"block {family}: terms do not match {n} rows")
            row_of = np.repeat(np.arange(n), counts)

        if isinstance(sense, str):
            if sense not in _SENSE_CODE:
                raise ModelError(f"unknown sense {sense!r}")
            codes = np.full(n, _SENSE_CODE[sense], dtype=np.int8)
        else:
            codes = np.asarray(sense, dtype=np.int8)
            if codes.shape != (n,) or ((codes < 0) | (codes >= len(SENSES))).any():
                raise ModelError(f"block {family}: unknown sense code")
        bad = ~np.isfinite(coefs)
        if bad.any():
            raise ModelError(f"non-finite coefficient in row {names[row_of[bad.argmax()]]}")
        bad = (cols < 0) | (cols >= self.n_vars)
        if bad.any():
            raise ModelError(f"unknown column in row {names[row_of[bad.argmax()]]}")
        keep = coefs != 0.0
        row_of, cols, coefs = row_of[keep], cols[keep], coefs[keep]
        empty = np.bincount(row_of, minlength=n) == 0
        if empty.any():
            raise ModelError(f"empty row {names[empty.argmax()]}")
        rhs = np.full(n, rhs, dtype=float) if np.ndim(rhs) == 0 else np.asarray(rhs, float)
        if rhs.shape != (n,):
            raise ModelError(f"block {family}: {rhs.size} right-hand sides for {n} rows")
        bad = ~np.isfinite(rhs)
        if bad.any():
            raise ModelError(f"non-finite rhs in row {names[bad.argmax()]}")

        # canonical order: by row, then by column; repeated columns summed
        key = row_of * self.n_vars + cols
        step = np.diff(key)
        if (step < 0).any():
            order = np.argsort(key, kind="stable")
            row_of, cols, coefs, key = row_of[order], cols[order], coefs[order], key[order]
            step = np.diff(key)
        if (step == 0).any():
            starts = np.flatnonzero(np.concatenate(([True], step != 0)))
            coefs = np.add.reduceat(coefs, starts)
            row_of, cols = row_of[starts], cols[starts]

        if family not in self.families:
            self.families.append(family)
        self._ri.append(row_of + self.n_rows)
        self._rj.append(cols)
        self._rv.append(coefs)
        self._sense.append(codes)
        self._rhs.append(rhs)
        self._family.append(np.full(n, self.families.index(family)))
        self.row_names.extend(names)
        self._csr = self._rows = None

    def add_row(self, terms, sense, rhs, name, family):
        """terms: iterable of (column, coefficient)."""
        terms = list(terms)
        cols = np.array([col for col, _ in terms], dtype=np.int64)
        coefs = np.array([coef for _, coef in terms], dtype=float)
        self.add_rows(family, [name], cols[None, :], coefs[None, :], sense, rhs)

    # -- objective ---------------------------------------------------------

    def add_objective(self, cols, coefs):
        """Add coefficients to the objective, in order, column by column;
        `cols` is one column or several."""
        cols = np.atleast_1d(np.asarray(cols, dtype=np.int64))
        coefs = np.full(cols.shape, coefs) if np.ndim(coefs) == 0 else np.asarray(coefs, float)
        bad = ~np.isfinite(coefs)
        if bad.any():
            raise ModelError("non-finite objective coefficient for "
                             f"{self._col_names[cols[bad.argmax()]]}")
        np.add.at(self._c.array, cols, coefs)

    @property
    def objective(self) -> dict[int, float]:
        """Nonzero objective coefficients, {column: coefficient}."""
        c = self._c.array
        nz = np.flatnonzero(c)
        return dict(zip(nz.tolist(), c[nz].tolist()))

    def objective_vector(self) -> np.ndarray:
        return self._c.array.copy()

    # -- array views -------------------------------------------------------

    def row_matrix(self) -> sp.csr_matrix:
        """All rows stacked in declaration order, regardless of sense; terms
        sorted by column. Built once, until the next row is added."""
        if self._csr is None:
            counts = np.bincount(self._ri.array, minlength=self.n_rows)
            indptr = np.concatenate(([0], np.cumsum(counts)))
            self._csr = sp.csr_matrix((self._rv.array, self._rj.array, indptr),
                                      shape=(self.n_rows, self.n_vars))
        return self._csr

    def sense_codes(self) -> np.ndarray:
        """Per-row index into SENSES."""
        return self._sense.array

    def family_codes(self) -> np.ndarray:
        """Per-row index into `families`."""
        return self._family.array

    def rhs_vector(self) -> np.ndarray:
        return self._rhs.array.copy()

    @property
    def rows(self) -> "RowView":
        """Every row as a Row object, made on access."""
        if self._rows is None:
            self._rows = RowView(self)
        return self._rows

    @rows.setter
    def rows(self, rows):
        """Replace every row by `rows` (Row objects)."""
        rows = list(rows)
        self._clear_rows()
        for r in rows:
            self.add_row(zip(r.cols, r.coefs), r.sense, r.rhs, r.name, r.family)

    def signature(self):
        """Canonical, hashable form of the model, for equality and
        round-trip checks: names, bounds, rows with their terms sorted by
        column, and the nonzero objective. Row families are left out (MPS
        does not carry them)."""
        a = self.row_matrix()
        lb, ub = self.bounds_arrays()
        c = self._c.array
        nz = np.flatnonzero(c)
        return (
            tuple(self._col_names), tuple(lb.tolist()), tuple(ub.tolist()),
            tuple(self.row_names), tuple(self._sense.array.tolist()),
            tuple(self._rhs.array.tolist()),
            tuple(a.indptr.tolist()), tuple(a.indices.tolist()), tuple(a.data.tolist()),
            tuple(zip(nz.tolist(), c[nz].tolist())),
            self.objective_constant,
        )
