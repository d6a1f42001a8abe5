"""Span tracing around each layer's entry point, as its caller sees it.

The package is not modified: while a `Tracer` is installed, the module
attributes that callers look up at call time (for example
`rankrelax.solver.svd`, which `solve_objective` calls) are replaced by
timing wrappers and restored afterwards. Spans stay in memory as
`[name, start, end, parent, op]` and are written out once, at exit.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from rankrelax import _blockmax, bench, envelope, proximal, solver

# (module, attribute, span name). Two bindings of one function share a
# name when they are the same layer seen from two callers.
LAYERS = (
    (proximal, "svd", "linalg.svd.in_prox"),
    (proximal, "compose", "linalg.compose"),
    (proximal, "prox_spectrum", "proximal.prox_spectrum"),
    (solver, "prox_Rh", "proximal.prox_Rh"),
    (solver, "data_update", "solver.data_update"),
    (solver, "solve_objective", "solver.solve_objective"),
    (solver, "svd", "linalg.svd.in_objective"),
    (solver, "eval_Rh", "envelope.eval_Rh"),
    (solver, "admm_complete", "solver.admm_complete"),
    (envelope, "eval_Rh", "envelope.eval_Rh"),
    (envelope, "maximizing_spectrum", "envelope.maximizing_spectrum"),
    (_blockmax, "piece_argmax", "blockmax.piece_argmax"),
    (bench, "admm_complete", "solver.admm_complete"),
    (bench, "run_sweep", "bench.run_sweep"),
    (bench, "gen_instance", "bench.gen_instance"),
    (bench, "mask_uniform", "bench.mask"),
    (bench, "mask_tracking", "bench.mask"),
    (bench, "instance_weights", "bench.instance_weights"),
)

FIELDS = ("name", "start_s", "end_s", "parent", "op")


class Tracer:
    """Records nested spans; single-threaded, like the benchmark's caller."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._origin = time.perf_counter()

    def _enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter() - self._origin, None, parent, self._op])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter() - self._origin

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)

        return traced

    @contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in LAYERS]
        for (mod, attr, fn), (_, _, name) in zip(saved, LAYERS):
            setattr(mod, attr, self._wrap(name, fn))
        try:
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    @contextmanager
    def op(self, op_id, name="op"):
        """Root span of one top-level operation; every span inside shares its id."""
        self._op = op_id
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)
            self._op = None

    def layers(self):
        """Per span name: [calls, self seconds, inclusive seconds].

        Self time is a span's duration minus the time its child spans cover.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _, _), covered in zip(self.spans, child):
            row = out[name]
            row[0] += 1
            row[1] += end - start - covered
            row[2] += end - start
        return out

    def write(self, path, **header):
        with open(path, "w") as fh:
            json.dump({**header, "fields": FIELDS, "spans": self.spans}, fh)
