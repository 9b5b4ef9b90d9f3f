"""Span tracing of the package's public functions, from outside the package.

:class:`Tracer` replaces each traced function by a wrapper wherever it is
looked up: in its defining module and in every ``dephasing`` module that
imported the name (``cli`` and ``witnesses`` bind ``propagators``,
``hermitian_eig`` and others at import time).  Spans are kept in memory as
``[name, start, end, parent, item]`` and written out once at the end.
"""

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

#: (module, function) pairs that get a span; ``cli.main`` is reported as ``cli``
TRACED = (
    ("model", "load_model"),
    ("model", "validate"),
    ("evolution", "propagators"),
    ("evolution", "joint_state"),
    ("criteria", "decide_from_props"),
    ("criteria", "build_decomposition"),
    ("linalg", "hermitian_eig"),
    ("linalg", "commutator_norm"),
    ("linalg", "simultaneous_diagonalize"),
    ("linalg", "partial_transpose"),
    ("backend", "assemble_joint"),
    ("backend", "minor_grid_3x3"),
    ("witnesses", "pt_spectrum"),
    ("witnesses", "witness_scan"),
    ("witnesses", "minor_Y"),
    ("cli", "main"),
)

PACKAGE = "dephasing"
HARNESS = "harness"


def span_name(module, function):
    return "cli" if (module, function) == ("cli", "main") else f"{module}.{function}"


SPAN_NAMES = tuple(span_name(mod, fn) for mod, fn in TRACED)


class Tracer:
    """Collects spans while installed; ``item`` tags spans with the item
    (or the setup phase) that caused them."""

    def __init__(self):
        self.spans = []
        self.returned = defaultdict(int)   # item -> witnesses returned
        self.item = None
        self._stack = []
        self._patched = []

    def _open(self, name):
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else -1, self.item]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if name == "witnesses.witness_scan":
                self.returned[self.item] += len(result.witnesses)
            return result
        return traced

    def install(self):
        modules = [mod for key, mod in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module, function in TRACED:
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], function)
            wrapper = self._wrap(span_name(module, function), original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def harness_span(self, item):
        """The harness's own root span around one item."""
        self.item = item
        span = self._open(HARNESS)
        try:
            yield span
        finally:
            self._close(span)
            self.item = None

    def self_times(self, weights):
        """Per-name (calls, weighted self seconds) over spans whose tag is a
        key of ``weights``; each span's self time is multiplied by the weight
        of its tag.

        A span's self time is its duration minus the durations of its direct
        children, which run strictly inside it on this single thread.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, item in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        selfs = defaultdict(float)
        for idx, (name, start, end, parent, item) in enumerate(self.spans):
            if item in weights:
                calls[name] += 1
                selfs[name] += (end - start - child[idx]) * weights[item]
        return calls, selfs

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item"],
                       "spans": self.spans}, fh)
