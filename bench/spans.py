"""Span tracer around the public entry points of each `hessmg` layer.

The tracer wraps functions from outside: while installed, every binding of
a target function in a loaded `hessmg` module (including aliases such as
`run.solve_model`) points at a wrapper that records a span. Nothing in the
package's files changes. Spans are kept in memory; `Tracer.dump` writes
them out when the run ends.

A span holds a name, a start, an end, its parent span and the run id of
the round it belongs to. A layer's self time is its spans' durations minus
the part covered by their child spans, so the self times of one round add
up to the root span, which covers the whole timed part of the round.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

ROOT = "round"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _model_size(attrs, args, kwargs, model):
    attrs["cols"] = model.n_vars
    attrs["rows"] = model.n_rows
    attrs["nnz"] = sum(len(r.cols) for r in model.rows)


def _solution(attrs, args, kwargs, sol):
    attrs.update(engine=sol.engine, iterations=sol.iterations, status=sol.status)


def _engine_result(attrs, args, kwargs, result):
    attrs["iterations"] = int(result[3])


def _bytes_written(attrs, args, kwargs, result):
    """Size of the file a writer produced: its first path argument."""
    path = kwargs.get("path") or next(a for a in args[1:]
                                      if isinstance(a, (str, os.PathLike)))
    attrs["bytes"] = os.path.getsize(path)


def _exp_id(attrs, args, kwargs, result):
    attrs["exp_id"] = result.exp_id


# (module, attribute, span name, attribute recorder)
TARGETS = (
    ("hessmg.data", "load_dataset", "data.load_dataset", None),
    ("hessmg.scenario", "build_scenario", "scenario.build_scenario", None),
    ("hessmg.run", "cached_scenario", "run.cached_scenario", None),
    ("hessmg.run", "context_from_config", "run.context_from_config", None),
    ("hessmg.builder", "build", "builder.build", _model_size),
    ("hessmg.lp", "ModelInstance.row_matrix", "lp.row_matrix", None),
    ("hessmg.solve", "solve", "solve.solve", _solution),
    ("hessmg.solve", "_solve_highs", "solve.highs", _engine_result),
    ("hessmg.solve", "_solve_simplex", "solve.simplex", _engine_result),
    ("hessmg.solve", "max_primal_residual", "solve.residual", None),
    ("hessmg.solve", "verify", "solve.verify", None),
    ("hessmg.costs", "audit", "costs.audit", None),
    ("hessmg.run", "run_one", "run.run_one", _exp_id),
    ("hessmg.run", "extract_traces", "run.extract_traces", None),
    ("hessmg.run", "write_summary", "run.write_outputs", _bytes_written),
    ("hessmg.run", "write_results_json", "run.write_outputs", _bytes_written),
    ("hessmg.run", "emit_traces", "run.write_outputs", _bytes_written),
    ("hessmg.mps", "write_mps", "mps.write", _bytes_written),
    ("hessmg.mps", "read_mps", "mps.read", None),
)

SPAN_NAMES = tuple(dict.fromkeys(t[2] for t in TARGETS))


class Tracer:
    """Records spans while installed; one tracer serves a whole run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name, run_id=None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(id=len(self.spans), name=name,
                    parent=parent.id if parent else None,
                    run_id=run_id or parent.run_id, start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def round(self, run_id: str):
        """Root span of one round; every layer span opens inside it."""
        span = self._open(ROOT, run_id)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name, fn, record):
        def traced(*args, **kwargs):
            if not self._stack:  # called outside a round, e.g. by a check
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if record is not None:
                record(span.attrs, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- installing the wrappers -------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Point every binding of each target at its traced wrapper."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hessmg" or n.startswith("hessmg."))]
        try:
            for module_name, attr, name, record in TARGETS:
                owner = sys.modules[module_name]
                if "." in attr:  # a method: patch the class once
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, meth, self._wrap(name, getattr(cls, meth), record))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, record)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
            yield self
        finally:
            while self._restore:
                obj, key, value = self._restore.pop()
                setattr(obj, key, value)

    def _patch(self, obj, key, value):
        self._restore.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    # -- reading the spans --------------------------------------------------

    def rounds(self) -> list[str]:
        return [s.run_id for s in self.spans if s.name == ROOT]

    def layer_metrics(self, run_id: str) -> dict[str, float]:
        """Self time per layer and the counts recorded at layer boundaries."""
        spans = [s for s in self.spans if s.run_id == run_id]
        child_time: dict[int, float] = {}
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds
        self_time = {name: 0.0 for name in (ROOT,) + SPAN_NAMES}
        calls = {name: 0 for name in SPAN_NAMES}
        for s in spans:
            self_time[s.name] += s.seconds - child_time.get(s.id, 0.0)
            if s.name != ROOT:
                calls[s.name] += 1

        def attr_sum(name, key):
            return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

        def attr_max(name, key):
            return max((s.attrs.get(key, 0) for s in spans if s.name == name),
                       default=0)

        solves = [s for s in spans if s.name == "solve.solve"]
        root = next(s for s in spans if s.name == ROOT)
        out = {f"{name}_s": self_time[name] for name in SPAN_NAMES}
        out.update({
            "builder.cols": attr_max("builder.build", "cols"),
            "builder.rows": attr_max("builder.build", "rows"),
            "builder.nnz": attr_max("builder.build", "nnz"),
            "lp.row_matrix_calls": calls["lp.row_matrix"],
            "lp.row_matrix_calls_per_design":
                calls["lp.row_matrix"] / len(solves) if solves else 0.0,
            "solve.highs_designs": sum(s.attrs["engine"] == "highs" for s in solves),
            "solve.simplex_designs": sum(s.attrs["engine"] == "simplex" for s in solves),
            "solve.highs_iterations": attr_sum("solve.highs", "iterations"),
            "solve.simplex_iterations": attr_sum("solve.simplex", "iterations"),
            "run.output_bytes": attr_sum("run.write_outputs", "bytes"),
            "mps.bytes": attr_sum("mps.write", "bytes"),
            "trace.wall_s": root.seconds,
            "trace.remainder_s": self_time[ROOT],
        })
        return out

    def designs(self) -> list[dict]:
        """Engine, iterations and solve time of every design, in order."""
        by_id = {s.id: s for s in self.spans}
        out = []
        for s in self.spans:
            if s.name == "solve.solve":
                parent = by_id.get(s.parent)
                out.append({"run_id": s.run_id,
                            "exp_id": parent.attrs.get("exp_id") if parent else None,
                            "engine": s.attrs.get("engine"),
                            "iterations": s.attrs.get("iterations"),
                            "status": s.attrs.get("status"),
                            "seconds": s.seconds})
        return out

    def dump(self, path, **header):
        """Write every span, the per-design table and the layer metrics."""
        with open(path, "w") as fh:
            json.dump({**header,
                       "spans": [asdict(s) for s in self.spans],
                       "designs": self.designs(),
                       "layers": {r: self.layer_metrics(r) for r in self.rounds()}},
                      fh)
