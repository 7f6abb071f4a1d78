"""Span tracing around the public functions of each clusterspt layer.

Wrappers are installed from the benchmark, not the program: every binding
of a wrapped function in any clusterspt namespace (the package, each module,
and the classes defined there) is replaced, then `check_coverage` proves
that no original is still reachable.  Inside `engine`, the LAPACK
`scipy.linalg.eigh` and ARPACK `scipy.sparse.linalg.eigsh` calls are timed
as child spans.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "analysis", "models", "clifford", "pauli", "engine")

# Public entry points per layer.  Tiny helpers such as conjugate_cz or
# PauliString.__mul__ stay unwrapped: their time lands in the caller's self
# time and a span per call would cost more than the call.
FUNCTIONS = {
    "cli": ("main", "cmd_verify", "cmd_spectrum", "cmd_protect", "cmd_scan"),
    "analysis": ("verify_stabilizer_algebra", "certify_protection",
                 "default_probe_set", "phase_scan", "transition_estimate",
                 "string_order", "string_order_operator"),
    "models": ("build_model", "cluster_hamiltonian", "perturbed_hamiltonian",
               "ising_perturbation", "cross_check_global",
               "global_symmetry_pair", "global_symmetry",
               "printed_global_string", "spin_flip_symmetries",
               "forbidden_set", "edge_generators", "local_symmetry_pair",
               "stabilizer"),
    "clifford": ("conjugate_ucp", "conjugate_circuit"),
    "pauli": ("commutator", "OperatorSum.compose"),
    "engine": ("apply", "expectation", "eig_low", "dense_matrix",
               "ground_projector", "resolve_sectors", "build_cluster_state",
               "splitting_class", "has_real_matrix"),
}


class Stat:
    __slots__ = ("calls", "total", "self", "work")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.work = 0


class Tracer:
    """Collects per-function call counts, self time and work counts, per op
    class and overall.  Spans live in memory only."""

    def __init__(self):
        self.stats = defaultdict(Stat)          # (op class, name) -> Stat
        self.matvecs = []                       # apply calls per eigsh solve
        self.op_class = "all"
        self._stack = []
        self._apply_calls = 0
        self._patched = []
        self._originals = {}

    # -- spans ---------------------------------------------------------
    def _record(self, name, dt, child, work):
        for key in {(self.op_class, name), ("all", name)}:
            st = self.stats[key]
            st.calls += 1
            st.total += dt
            st.self += dt - child
            st.work += work

    def _wrap(self, name, fn, work=None, suffix=None):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                w = work(args, kwargs) if work else 0
                tracer._record(name, dt, frame[0], w)
                if suffix:
                    tracer._record(f"{name}#{suffix(args)}", dt, frame[0], w)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _apply_work(self, args, kwargs):
        self._apply_calls += 1
        op, psi = args[0], args[1]
        terms = getattr(op, "term_count", 1)
        return terms << psi.length

    def _eigsh(self, fn):
        inner = self._wrap("engine.eigsh", fn)

        def eigsh(*args, **kwargs):
            before = self._apply_calls
            try:
                return inner(*args, **kwargs)
            finally:
                self.matvecs.append(self._apply_calls - before)

        eigsh.__wrapped__ = fn
        return eigsh

    # -- installation ----------------------------------------------------
    def _namespaces(self):
        import scipy.linalg
        import scipy.sparse.linalg
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "clusterspt" or n.startswith("clusterspt.")]
        spaces = []
        for m in mods:
            spaces.append(m)
            for v in list(vars(m).values()):
                if isinstance(v, type) and v.__module__ == m.__name__:
                    spaces.append(v)
        return spaces + [scipy.linalg, scipy.sparse.linalg]

    def install(self):
        """Replace every binding of every traced function by its wrapper."""
        import scipy.linalg
        import scipy.sparse.linalg
        if not self._originals:
            for layer, names in FUNCTIONS.items():
                mod = sys.modules[f"clusterspt.{layer}"]
                for qual in names:
                    owner = mod
                    for part in qual.split(".")[:-1]:
                        owner = getattr(owner, part)
                    fn = getattr(owner, qual.split(".")[-1])
                    name = f"{layer}.{qual.split('.')[-1]}"
                    work = suffix = None
                    if qual == "apply":
                        work = self._apply_work
                        suffix = lambda a: f"L{a[1].length}"
                    elif qual == "OperatorSum.compose":
                        work = lambda a, k: a[0].term_count * a[1].term_count
                    self._originals[fn] = self._wrap(name, fn, work, suffix)
            eigh = scipy.linalg.eigh
            self._originals[eigh] = self._wrap(
                "engine.eigh", eigh, lambda a, k: a[0].shape[0] ** 3)
            eigsh = scipy.sparse.linalg.eigsh
            self._originals[eigsh] = self._eigsh(eigsh)
        for space in self._namespaces():
            for attr, value in list(vars(space).items()):
                if _traceable(value) and value in self._originals:
                    setattr(space, attr, self._originals[value])
                    self._patched.append((space, attr, value))
        self.check_coverage()

    def uninstall(self):
        for space, attr, value in reversed(self._patched):
            setattr(space, attr, value)
        self._patched.clear()

    def check_coverage(self):
        """Raise if any traced function is reachable unwrapped from a
        clusterspt namespace or through engine's scipy binding."""
        engine = sys.modules["clusterspt.engine"]
        leaks = []
        for space in self._namespaces()[:-2]:
            for attr, value in vars(space).items():
                if _traceable(value) and value in self._originals:
                    leaks.append(f"{getattr(space, '__name__', space)}.{attr}")
        for path in ("linalg.eigh", "sparse.linalg.eigsh"):
            obj = engine.scipy
            for part in path.split("."):
                obj = getattr(obj, part)
            if obj in self._originals:
                leaks.append(f"clusterspt.engine.scipy.{path}")
        if leaks:
            raise RuntimeError(f"untraced bindings: {', '.join(leaks)}")

    # -- summaries -------------------------------------------------------
    def stat(self, name, op_class="all"):
        return self.stats.get((op_class, name), Stat())

    def self_shares(self, op_class):
        """Self time per function within one op class, largest first."""
        rows = [(name, st.self) for (cls, name), st in self.stats.items()
                if cls == op_class and "#" not in name]
        total = sum(s for _, s in rows) or 1.0
        return sorted(((n, s / total) for n, s in rows), key=lambda r: -r[1])

    def layer_self(self, layer, op_class="all"):
        return sum(st.self for (cls, name), st in self.stats.items()
                   if cls == op_class and name.startswith(layer + ".")
                   and "#" not in name)

    def matvec_summary(self):
        """(median, interquartile range) of apply calls per eigsh solve."""
        if not self.matvecs:
            return 0.0, 0.0
        if len(self.matvecs) == 1:
            return float(self.matvecs[0]), 0.0
        q1, q2, q3 = statistics.quantiles(self.matvecs, n=4)
        return float(statistics.median(self.matvecs)), float(q3 - q1)


def _traceable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return callable(value)
