"""In-memory spans around the benchmark's calls into jsrkit modules.

A span has a name, a module, an operation id, a parent span, a start and
an end (perf_counter seconds). Spans stay in memory and are written once,
when the run ends. A module's self time is the duration of its spans
minus the part covered by their child spans.
"""

import json
import time
from contextlib import contextmanager

MODULES = ("matrices", "sets", "kernels", "bounds", "lift", "algebra", "cli")


class Absent(Exception):
    """The public function a metric times does not exist in this jsrkit."""


def need(mod, name):
    """mod.name, or Absent when the module or the function is gone."""
    fn = getattr(mod, name, None)
    if fn is None:
        raise Absent(name)
    return fn


class Tracer:
    def __init__(self):
        self.spans = []  # [name, module, op, parent index, start, end]
        self._stack = []

    @contextmanager
    def span(self, name, module, op):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, module, op, parent, time.perf_counter(), None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][5] = time.perf_counter()

    def call(self, mod, name, op, *args, **kwargs):
        """Call mod.name(*args, **kwargs) inside a span named module.name."""
        fn = need(mod, name)
        module = mod.__name__.rsplit(".", 1)[-1].lstrip("_")
        with self.span(f"{module}.{name}", module, op):
            return fn(*args, **kwargs)

    def self_times(self):
        """Seconds of self time per module (modules without spans read 0)."""
        covered = [0.0] * len(self.spans)
        for name, module, op, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = dict.fromkeys(MODULES, 0.0)
        for (name, module, op, parent, start, end), cov in zip(self.spans, covered):
            if module in out:
                out[module] += (end - start) - cov
        return out

    def write(self, path):
        keys = ("name", "module", "op", "parent", "start", "end")
        with open(path, "w") as f:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans]}, f)
