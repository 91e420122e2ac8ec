"""Spans around the public functions of each favard module, installed from outside.

A wrapper is installed at every binding site of a traced function: the
defining module, every favard module that bound it with ``from ... import``,
and the class for methods, so calls made inside the program are caught as
well as the benchmark's own. ``restore`` puts every original back.

Each finished span is kept in memory as (name, start, end, parent index,
op id) and written out by ``write_spans`` when the run ends. Self time is a
span's duration minus the durations of its direct children, counted as the
spans close. Hot leaves are aggregated per (name, parent name) instead of
being stored one by one.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (module, attribute path, span name); "Class.method" paths patch the class
TARGETS = (
    ("favard.cli", "main", "cli.main"),
    ("favard.solver", "reduce_system", "solver.reduce_system"),
    ("favard.solver", "reduce_weighted", "solver.reduce_weighted"),
    ("favard.solver", "fraction_determinant", "solver.fraction_determinant"),
    ("favard.solver", "solve_periodic", "solver.solve_periodic"),
    ("favard.solver", "nullspace_vector", "solver.nullspace_vector"),
    # the float advisory margin: matrix conversion plus numpy SVD
    ("favard.solver", "_margin", "solver.svd"),
    ("favard.exact", "Polynomial.__call__", "exact.Polynomial.__call__"),
    ("favard.exact", "PiecewisePolynomial.value_in_unit", "exact.PiecewisePolynomial.value_in_unit"),
    ("favard.exact", "PiecewisePolynomial.antiderivative", "exact.PiecewisePolynomial.antiderivative"),
    ("favard.numbers", "bernoulli_numbers", "numbers.bernoulli_numbers"),
    ("favard.numbers", "bernoulli_polynomial", "numbers.bernoulli_polynomial"),
    ("favard.numbers", "eval_periodic", "numbers.eval_periodic"),
    ("favard.roots", "rational_roots", "roots.rational_roots"),
    ("favard.roots", "isolate_roots", "roots.isolate_roots"),
    ("favard.roots", "count_roots", "roots.count_roots"),
    ("favard.kernels", "min_abs_integral", "kernels.min_abs_integral"),
    ("favard.kernels", "centered_abs_integral", "kernels.centered_abs_integral"),
    ("favard.witness", "build_witness", "witness.build_witness"),
    ("favard.witness", "verify_witness", "witness.verify_witness"),
    ("favard.witness", "witness_extrema", "witness.witness_extrema"),
    ("favard.constants", "favard_closed_form", "constants.favard_closed_form"),
    ("favard.sampling", "periodic_antiderivatives", "sampling.periodic_antiderivatives"),
    ("favard.acceptance", "Criterion.run", "acceptance.criterion"),
)

HOT = frozenset(
    {
        "exact.Polynomial.__call__",
        "exact.PiecewisePolynomial.value_in_unit",
        "numbers.eval_periodic",
        "roots.count_roots",
    }
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # non-hot spans, finished or reserved while open
        self.stats: dict[str, list] = {}  # non-hot name -> [calls, self_s, total_s]
        self.hot: dict[tuple[str, str], list] = {}  # (name, parent name) -> [calls, self_s, total_s]
        self.maxima: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.op_id: int | None = None
        self._stack: list[list] = [["", 0.0, 0.0, None]]  # frames: [name, start, child_s, span index]
        self._active: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a stored span called ``name``."""
        stack = self._stack
        parent = stack[-1]
        index = len(self.spans)
        self.spans.append(None)
        frame = [name, 0.0, 0.0, index]
        stack.append(frame)
        active = self._active
        active[name] = active.get(name, 0) + 1
        start = frame[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            active[name] -= 1
            duration = end - start
            parent[2] += duration
            self.spans[index] = (name, start, end, parent[3], self.op_id)
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += duration - frame[2]
            if active[name] == 0:  # inclusive time counts the outermost call only
                st[2] += duration

    def _hot_wrapper(self, name: str, original):
        """Aggregating wrapper for hot leaves, none of which recurses."""
        stack = self._stack
        hot = self.hot

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, 0.0, None]
            stack.append(frame)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                parent[2] += duration
                key = (name, parent[0])
                agg = hot.get(key)
                if agg is None:
                    agg = hot[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration - frame[2]
                agg[2] += duration

        return wrapper

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """(calls, self_s, total_s) of every traced name, zero where never called."""
        names = [name for _, _, name in TARGETS if name != "acceptance.criterion"]
        names += [f"acceptance.c{i:02d}" for i in range(1, 12)]
        out = {name: tuple(self.stats.get(name, (0, 0.0, 0.0))) for name in names}
        for (name, _), (calls, self_s, total_s) in self.hot.items():
            c, s, t = out[name]
            out[name] = (c + calls, s + self_s, t + total_s)
        return out

    def observe_max(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # ------------------------------------------------------- installing

    def _wrapper(self, name: str, original):
        if name in HOT:
            return self._hot_wrapper(name, original)
        if name == "acceptance.criterion":

            def run_criterion(crit, *args, **kwargs):
                return self.span(f"acceptance.c{crit.index:02d}", original, crit, *args, **kwargs)

            return run_criterion
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            result = self.span(name, original, *args, **kwargs)
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def install(self) -> None:
        owners = [importlib.import_module(module_name) for module_name, _, _ in TARGETS]
        modules = [m for key, m in list(sys.modules.items()) if key == "favard" or key.startswith("favard.")]
        for owner, (_, path, name) in zip(owners, TARGETS):
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrapper(name, original)
            self._patch(owner, attr, original, wrapper)
            if cls_path:
                continue
            for module in modules:
                if module is not owner:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---------------------------------------------------------- results

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps({"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4]}))
                    fh.write("\n")
            for (name, parent), (calls, self_s, total_s) in sorted(self.hot.items()):
                record = {"name": name, "parent_name": parent, "calls": calls, "self_s": self_s, "total_s": total_s}
                fh.write(json.dumps(record))
                fh.write("\n")


def _observe_system(tracer: Tracer, system) -> None:
    tracer.observe_max("solver.system_size.max", system.size)


def _observe_determinant(tracer: Tracer, det) -> None:
    tracer.observe_max("solver.det_bits.max", max(det.numerator.bit_length(), det.denominator.bit_length()))


def _observe_roots(tracer: Tracer, roots) -> None:
    tracer.add("roots.rational_roots.found", len(roots))


_OBSERVERS = {
    "solver.reduce_system": _observe_system,
    "solver.reduce_weighted": _observe_system,
    "solver.fraction_determinant": _observe_determinant,
    "roots.rational_roots": _observe_roots,
}
