"""Spans around invred's public functions, recorded from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper in every
invred module that binds it (``epsilon`` is bound in ``invred.cli`` as well
as in ``invred.invariants``, ``is_invariant`` in ``invred.reduction``), and in
the class that owns it for methods. ``uninstall()`` puts the originals back.

Each span records its name, start, end, the span that was open when it
started and the operation it belongs to. Spans stay in memory until
``dump()``. Busy time of a name counts only its outermost spans; self time
is busy time minus the time its direct child spans cover.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (layer, module, attribute, class or None); methods are wrapped on the class
TRACED = [
    ("kernels", "invred._kernels", "rref_mod", None),
    ("kernels", "invred._kernels", "nullspace_mod", None),
    ("kernels", "invred._kernels", "next_slice_level", None),
    ("kernels", "invred._kernels", "matmul_mod", None),
    ("invariants", "invred.invariants", "slice_images", None),
    ("invariants", "invred.invariants", "invariant_basis", None),
    ("invariants", "invred.invariants", "epsilon", None),
    ("group", "invred.group", "is_invariant", None),
    ("group", "invred.group", "act", None),
    ("group", "invred.group", "enumerate_group", None),
    ("group", "invred.group", "fixed_space", None),
    ("poly", "invred.poly", "substitute", "Polynomial"),
    ("poly", "invred.poly", "__mul__", "Polynomial"),
    ("poly", "invred.poly", "from_coordinates", "Polynomial"),
    ("poly", "invred.poly", "evaluate", "Polynomial"),
    ("reduction", "invred.reduction", "reduce_degree", None),
    ("reduction", "invred.reduction", "extend_to_basis", None),
    ("reduction", "invred.reduction", "adapted_decomposition", None),
    ("cli", "invred.cli", "main", None),
    ("formats", "invred.formats", "load_group_spec", None),
    ("formats", "invred.formats", "render_report", None),
]

ALIASES = {"__mul__": "mul"}


def span_name(layer, attr):
    return f"{layer}.{ALIASES.get(attr, attr)}"


def _size(name, args):
    """Work size of one call, from its arguments' shapes."""
    if name == "kernels.rref_mod":
        rows, cols = np.shape(args[0])
        return rows * cols
    if name == "kernels.next_slice_level":
        nt = np.shape(args[1])[0]
        return nt * nt
    if name == "invariants.slice_images":
        return int(args[1])
    return 0


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, op, name, start, end, size)
        # distinct work within each round, for the distinct ratios
        self.level_keys = set()  # (round, substitution, level) of slice levels built
        self.basis_keys = set()  # (round, group, degree) of invariant_basis calls
        self.op = None
        self.round = 0
        self._stack = []
        self._saved = []

    # ---- wrapping --------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (sid, parent, tracer.op, name, start, end,
                                     _size(name, args))
                tracer._record_work(name, args)

        return wrapper

    def _record_work(self, name, args):
        if name == "invariants.slice_images":
            subst = np.ascontiguousarray(args[0])
            key = (subst.tobytes(), subst.shape)
            self.level_keys.update((self.round, key, k) for k in range(1, int(args[1]) + 1))
        elif name == "invariants.invariant_basis":
            spec = args[0]
            group = (int(spec.p), tuple(g.entries.tobytes() for g in spec.generators))
            self.basis_keys.add((self.round, group, int(args[1])))

    def install(self):
        import invred  # noqa: F401  (loads every submodule)

        modules = [m for k, m in sys.modules.items() if k == "invred" or k.startswith("invred.")]
        for layer, modname, attr, cls in TRACED:
            name = span_name(layer, attr)
            owner = sys.modules[modname]
            if cls is not None:
                klass = getattr(owner, cls)
                raw = klass.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._saved.append((klass, attr, raw))
                setattr(klass, attr, new)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    # ---- summaries -------------------------------------------------------

    def layer_totals(self):
        """Per span name: calls, busy, self and size sums."""
        spans = self.spans
        child_time = defaultdict(float)
        for s in spans:
            if s[1] >= 0:
                child_time[s[1]] += s[5] - s[4]
        totals = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "size": 0})
        for sid, parent, _op, name, start, end, size in spans:
            t = totals[name]
            t["calls"] += 1
            t["size"] += size
            t["self_s"] += (end - start) - child_time[sid]
            nested = False
            anc = parent
            while anc >= 0:
                if spans[anc][3] == name:
                    nested = True
                    break
                anc = spans[anc][1]
            if not nested:
                t["busy_s"] += end - start
        return totals

    def dump(self, path, summary):
        """Summary, column names, then one span per line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"summary": summary}) + "\n")
            fh.write(json.dumps({"columns": ["id", "parent", "op", "name", "start", "end", "size"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
