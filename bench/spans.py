"""In-memory spans around the public functions of each radonrange module.

The tracer replaces a function by a wrapper in every ``radonrange.*``
namespace that binds the same object (and at ``numpy.linalg``), so nested
calls made inside the package are caught too.  Nothing under ``src/`` is
changed: ``install`` patches module attributes and ``uninstall`` puts the
originals back.

A span is ``[name, start_ns, end_ns, parent_index, op_label, raised]``.
Each op opens a root span named ``op``; every span inside it carries the
op's label.  Self time is a span's duration minus the durations of its
direct children (one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (metric prefix, module, attribute path); the class attributes are methods
SPANNED = (
    ("cli.main", "radonrange.cli", "main"),
    ("bodies.load_tangential", "radonrange.bodies", "load_tangential"),
    ("moments.moment", "radonrange.moments", "moment"),
    ("moments.synthesize_moments", "radonrange.reconstruct", "synthesize_moments"),
    ("circle.trigpoly_mul", "radonrange.circle", "TrigPoly.__mul__"),
    ("circle.trig_from_samples", "radonrange.circle", "trig_from_samples"),
    ("geometry.samples", "radonrange.geometry", "SupportFunction.rho_samples"),
    ("geometry.samples", "radonrange.geometry", "SupportFunction.rho2_samples"),
    ("geometry.samples", "radonrange.geometry", "TangentialData.density_samples"),
    ("geometry.fit_quadratic_form", "radonrange.geometry", "fit_quadratic_form"),
    ("rangetest.is_homogeneous_restriction", "radonrange.rangetest", "is_homogeneous_restriction"),
    ("reconstruct.reconstruct", "radonrange.reconstruct", "reconstruct"),
    ("algebra.hankel_certificate", "radonrange.algebra", "hankel_certificate"),
    ("algebra.conjugated_shift", "radonrange.algebra", "conjugated_shift"),
    ("algebra.krylov_spans", "radonrange.algebra", "krylov_spans"),
    ("algebra.identity_suite", "radonrange.algebra", "identity_suite"),
    ("exactla.solve", "radonrange.exactla", "solve"),
    ("exactla.det", "radonrange.exactla", "det"),
    ("exactla.inv", "radonrange.exactla", "inv"),
    ("exactla.rank", "radonrange.exactla", "rank"),
    ("exactla.char_poly", "radonrange.exactla", "char_poly"),
    ("exactla.mat_pow", "radonrange.exactla", "mat_pow"),
    ("linalg.solve", "numpy.linalg", "solve"),
    ("linalg.cond", "numpy.linalg", "cond"),
    ("linalg.det", "numpy.linalg", "det"),
)

# counted without a span, so their time stays in the caller's self time
COUNTED = (
    ("reconstruct.node", "radonrange.reconstruct", "_solve_at_index"),
    ("algebra.shift_matrix", "radonrange.algebra", "shift_matrix"),
)

HANKEL = "algebra.hankel_certificate"


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op_counts: defaultdict = defaultdict(Counter)
        self._stack: list = []
        self._depth: Counter = Counter()
        self._op = None
        self._patches: list = []

    # -- recording ------------------------------------------------------

    @contextmanager
    def op(self, label: str):
        self._op = label
        try:
            with self._span("op"):
                yield
        finally:
            self._op = None

    @contextmanager
    def _span(self, name: str):
        span = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1,
                self._op, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._depth[name] += 1
        try:
            yield span
        except BaseException:
            span[5] = True
            raise
        finally:
            span[2] = time.perf_counter_ns()
            self._depth[name] -= 1
            self._stack.pop()

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._span(name):
                result = fn(*args, **kwargs)
            if name == HANKEL:
                self.counts["algebra.hankel_nodes"] += result.grid_size
            return result

        return wrapper

    def _counted(self, name: str, fn):
        def count(key):
            self.counts[key] += 1
            self.op_counts[self._op][key] += 1

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(name + ".calls")
            if name == "algebra.shift_matrix" and self._depth[HANKEL]:
                count("algebra.shift_matrix.in_hankel")
            try:
                result = fn(*args, **kwargs)
            except ArithmeticError:  # DegeneratePointError at a grid node
                count(name + ".degenerate")
                raise
            count(name + ".returned")
            return result

        return wrapper

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever radonrange or numpy binds it."""
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "radonrange" or n.startswith("radonrange.")]
        for specs, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for name, module_name, path in specs:
                owner, attr = _resolve(module_name, path)
                original = getattr(owner, attr)
                wrapper = make(name, original)
                targets = [owner] + [ns for ns in namespaces if ns is not owner]
                for target in targets:
                    for key, value in list(vars(target).items()):
                        if value is original:
                            self._patches.append((target, key, original))
                            setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    # -- derived numbers --------------------------------------------------

    def self_times(self) -> list:
        """Self time (ns) of every span, by index."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_totals(self) -> dict:
        """name -> {calls, total_ns (outermost spans of that name), self_ns, raised}."""
        own = self.self_times()
        out = defaultdict(Counter)
        for i, (name, start, end, parent, _, raised) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_ns"] += own[i]
            row["raised"] += raised
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                row["total_ns"] += end - start
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
