"""Sparse linear program container shared by the builder, solver and writers.

A model is held as arrays. Columns are registered per ``(kind, entity)``:
a design variable is one column, a per-step variable is one arithmetic
range of columns (several series can be interleaved step by step).
``add_layout`` registers a whole column layout in one call, and
``add_var``/``add_vars`` register one piece of one. Each column is named
``kind.entity``, or ``kind.entity.k<step>``, when it is added; outside the
builder, that name is how a column is found. Bounds and the minimization
objective are dense arrays over the columns; ``add_objective`` sums the
terms of one call per column in order, with one ``bincount``.
Rows arrive in blocks through ``add_rows``, which takes one family per
row as it takes one sense per row, so a whole model can arrive in one
call. They are stored as COO triplets, sorted by column within each row,
plus a sense code, a right-hand side and a family code per row and a list
of row names; ``add_row`` adds one row through the same checks.
``row_matrix()`` assembles the CSR once and caches it until the next row
is added. The solver, ``verify`` and the MPS writer all read that one CSR.

``rows`` gives the same rows as ``Row`` objects, made on access; it is
meant for tests and for inspecting models, not for hot paths.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=8)
def _step_labels(n: int) -> tuple[str, ...]:
    return tuple(map(str, range(n)))


@functools.lru_cache(maxsize=64)
def _series_names(prefix: str, n: int) -> tuple[str, ...]:
    """``prefix + str(k)`` for k in 0..n-1. The tuple is kept, so models of
    one layout (a sweep's designs) share their names: none is formatted
    twice."""
    return tuple([prefix + k for k in _step_labels(n)])


def step_names(prefixes, n: int) -> list[str]:
    """``prefix + str(k)`` for steps k in 0..n-1, step-major: every prefix at
    step k, in order, then step k+1."""
    names = [""] * (n * len(prefixes))
    for i, prefix in enumerate(prefixes):
        names[i::len(prefixes)] = _series_names(prefix, n)
    return names


def _check_bounds(names, lb: np.ndarray, ub: np.ndarray):
    """Raise ModelError for the first column no point can take: a NaN bound,
    lb > ub, a lower bound of +inf or an upper bound of -inf."""
    bad = np.isnan(lb) | np.isnan(ub) | (lb > ub) | (lb == INF) | (ub == -INF)
    if bad.any():
        i = bad.argmax()
        raise ModelError(f"bad bounds [{lb[i]}, {ub[i]}] for {names[i]}")


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
        # (kind, entity) -> a design column, or a read-only array of a series' columns
        self._index: dict[tuple, int | np.ndarray] = {}
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
        _check_bounds(names, lb, ub)
        self._lb.append(lb)
        self._ub.append(ub)
        self._c.append(np.zeros(len(names)))
        self._col_names.extend(names)

    def add_layout(self, segments):
        """Register a run of columns in one ``add_columns`` call. Each
        segment is ``(specs, n_steps)`` with specs ``(kind, entity, lb, ub)``:
        with `n_steps` None, one design column per spec, named
        ``kind.entity``; otherwise steps 0..n_steps-1 of every spec,
        step-major (the columns of step k sit together in spec order),
        named ``kind.entity.k<step>``. A per-step bound is a scalar or one
        value per step."""
        names, lower, upper, index = [], [], [], {}
        first = self.n_vars
        for specs, n_steps in segments:
            for kind, entity, _, _ in specs:
                if (kind, entity) in self._index or (kind, entity) in index:
                    raise ModelError(f"duplicate variable {(kind, entity)}")
                index[kind, entity] = None
            start, width = first + len(names), len(specs)
            if n_steps is None:
                for i, (kind, entity, lb, ub) in enumerate(specs):
                    names.append(f"{kind}.{entity}")
                    index[kind, entity] = start + i
                lower.append([lb for _, _, lb, _ in specs])
                upper.append([ub for _, _, _, ub in specs])
                continue
            names += step_names([f"{kind}.{entity}.k" for kind, entity, _, _ in specs],
                                n_steps)
            lo, hi = np.empty((n_steps, width)), np.empty((n_steps, width))
            for i, (kind, entity, lb, ub) in enumerate(specs):
                lo[:, i], hi[:, i] = lb, ub
                cols = np.arange(start + i, start + width * n_steps, width)
                cols.flags.writeable = False
                index[kind, entity] = cols
            lower.append(lo.ravel())
            upper.append(hi.ravel())
        self.add_columns(names, np.concatenate(lower), np.concatenate(upper))
        self._index.update(index)

    def add_var(self, kind, entity, lb=0.0, ub=INF) -> int:
        """Register one design column and return its index."""
        self.add_layout([([(kind, entity, lb, ub)], None)])
        return self.n_vars - 1

    def add_vars(self, specs, n_steps: int):
        """Register steps 0..n_steps-1 of every ``(kind, entity, lb, ub)`` in
        `specs`, step-major: the columns of step k sit together in spec
        order. A bound is a scalar or one value per step."""
        self.add_layout([(specs, n_steps)])

    def var(self, kind, entity, step=None) -> int:
        """Column of a design variable, or of one step of a per-step one."""
        cols = self._index.get((kind, entity))
        if step is None and isinstance(cols, int):
            return cols
        if step is not None and isinstance(cols, np.ndarray) and 0 <= step < len(cols):
            return int(cols[step])
        raise KeyError((kind, entity, step))

    def columns(self, kind, entity) -> np.ndarray:
        """Column of every step of a per-step variable, in step order, as
        a read-only array."""
        steps = self._index.get((kind, entity))
        if not isinstance(steps, np.ndarray):
            raise KeyError((kind, entity))
        return steps

    def entities(self, kind) -> list[str]:
        """Entities that have a per-step variable of `kind`."""
        return [e for (k, e), cols in self._index.items()
                if k == kind and isinstance(cols, np.ndarray)]

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
        """Set one column's bounds, checked as ``add_columns`` checks them."""
        _check_bounds([self._col_names[col]], np.array([lb], dtype=float),
                      np.array([ub], dtype=float))
        self._lb.array[col] = lb
        self._ub.array[col] = ub

    # -- rows --------------------------------------------------------------

    def _clear_rows(self):
        self._ri = _Blocks(np.int64)     # COO row, column, value
        self._rj = _Blocks(np.int32)     # int32 indices, as HiGHS takes them
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
        as flat arrays cut into rows by `indptr` (length n+1). `family` is
        one family name for the block, or a pair (family names, a code per
        row indexing them); families new to the model are registered in
        the order of their first row. `sense` is one sense for the block or
        a sense code (index into SENSES) per row; `rhs` is a scalar or one
        value per row. Exact zeros (-0.0 too) are dropped, then repeated
        columns in a row are summed. Terms already sorted by column within
        each row are taken in one pass; others are sorted. A row left
        without terms, a non-finite coefficient or right-hand side, or an
        unknown family code, sense or column raises ModelError.
        """
        names = list(names)
        n = len(names)
        if n == 0:
            return
        if isinstance(family, str):
            family_names, family_of = [family], np.zeros(n, dtype=np.int32)
        else:
            family_names, family_of = list(family[0]), np.asarray(family[1], dtype=np.int32)
        label = "/".join(family_names)
        if family_of.shape != (n,) or not 0 <= family_of.min() <= family_of.max() < len(
                family_names):
            raise ModelError(f"block {label}: unknown family code")
        cols = np.asarray(cols, dtype=np.int64)
        coefs = np.asarray(coefs, dtype=float)
        if indptr is None:
            if cols.ndim != 2 or len(cols) != n or coefs.shape != cols.shape:
                raise ModelError(f"block {label}: terms do not match {n} rows")
            row_of = np.repeat(np.arange(n), cols.shape[1])
            cols, coefs = cols.ravel(), coefs.ravel()
        else:
            indptr = np.asarray(indptr, dtype=np.int64)
            counts = indptr[1:] - indptr[:-1]
            if len(counts) != n or cols.shape != coefs.shape or len(cols) != counts.sum():
                raise ModelError(f"block {label}: terms do not match {n} rows")
            row_of = np.repeat(np.arange(n), counts)

        if isinstance(sense, str):
            if sense not in _SENSE_CODE:
                raise ModelError(f"unknown sense {sense!r}")
            codes = np.full(n, _SENSE_CODE[sense], dtype=np.int8)
        else:
            codes = np.asarray(sense, dtype=np.int8)
            if codes.shape != (n,) or not 0 <= codes.min() <= codes.max() < len(SENSES):
                raise ModelError(f"block {label}: unknown sense code")
        if not np.isfinite(coefs).all():
            bad = np.isfinite(coefs).argmin()
            raise ModelError(f"non-finite coefficient in row {names[row_of[bad]]}")
        if len(cols) and not 0 <= cols.min() <= cols.max() < self.n_vars:
            bad = ((cols < 0) | (cols >= self.n_vars)).argmax()
            raise ModelError(f"unknown column in row {names[row_of[bad]]}")
        keep = coefs != 0.0
        row_of, cols, coefs = row_of[keep], cols[keep], coefs[keep]
        terms = np.bincount(row_of, minlength=n)
        if terms.min() == 0:
            raise ModelError(f"empty row {names[terms.argmin()]}")
        rhs = np.full(n, rhs, dtype=float) if np.ndim(rhs) == 0 else np.asarray(rhs, float)
        if rhs.shape != (n,):
            raise ModelError(f"block {label}: {rhs.size} right-hand sides for {n} rows")
        if not np.isfinite(rhs).all():
            raise ModelError(f"non-finite rhs in row {names[np.isfinite(rhs).argmin()]}")

        # canonical order: by row, then by column; repeated columns summed
        key = row_of * self.n_vars + cols
        step = key[1:] - key[:-1]
        if len(step) and step.min() < 0:
            order = np.argsort(key, kind="stable")
            row_of, cols, coefs, key = row_of[order], cols[order], coefs[order], key[order]
            step = key[1:] - key[:-1]
        if len(step) and step.min() == 0:
            starts = np.flatnonzero(np.concatenate(([True], step != 0)))
            coefs = np.add.reduceat(coefs, starts)
            row_of, cols = row_of[starts], cols[starts]

        # the family of each run of rows, so families come in order of first row
        run_start = np.ones(n, dtype=bool)
        np.not_equal(family_of[1:], family_of[:-1], out=run_start[1:])
        table = np.zeros(len(family_names), dtype=np.int32)
        for f in dict.fromkeys(family_of[run_start].tolist()):
            if family_names[f] not in self.families:
                self.families.append(family_names[f])
            table[f] = self.families.index(family_names[f])
        self._ri.append(row_of + self.n_rows)
        self._rj.append(cols)
        self._rv.append(coefs)
        self._sense.append(codes)
        self._rhs.append(rhs)
        self._family.append(table[family_of])
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
        """Add coefficients to the objective; `cols` is one column or
        several. The terms of one call are summed per column in order, from
        0.0, and each column's sum is then added to its coefficient."""
        cols = np.atleast_1d(np.asarray(cols, dtype=np.int64))
        coefs = np.full(cols.shape, coefs) if np.ndim(coefs) == 0 else np.asarray(coefs, float)
        bad = ~np.isfinite(coefs)
        if bad.any():
            raise ModelError("non-finite objective coefficient for "
                             f"{self._col_names[cols[bad.argmax()]]}")
        bad = (cols < 0) | (cols >= self.n_vars)
        if bad.any():
            raise ModelError(f"unknown objective column {cols[bad.argmax()]}")
        self._c.array[:] += np.bincount(cols, weights=coefs, minlength=self.n_vars)

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
            indptr = np.zeros(self.n_rows + 1, dtype=np.int32)
            np.cumsum(np.bincount(self._ri.array, minlength=self.n_rows), out=indptr[1:])
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
