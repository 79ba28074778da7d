"""Per-layer tracing from outside the program.

A traced run replaces each listed public function of pfhaf with a timing
wrapper, in every pfhaf module namespace that holds it (a function imported
by name into another module is looked up there, not in its home module),
and replaces the listed methods on their classes.  Each call records a span
(name, start, end, parent); spans stay in memory until the run ends, as
integers in an array, which the garbage collector never walks, so the
collections between rounds cost no more in a traced run than in an
untraced one.  A layer's self time is its spans' duration minus the time their child spans
cover, so the self times of all layers, the benchmark's own root spans
included, add up exactly to the wall time of those roots.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array

# (layer name, module, attribute, record input bit length).  A dotted
# attribute is a method, wrapped on its class.
LAYERS = (
    ("kernels.pf_fraction_free", "pfhaf.kernels", "pf_fraction_free", True),
    ("kernels.pf_elimination", "pfhaf.kernels", "pf_elimination", False),
    ("kernels.det_bareiss", "pfhaf.kernels", "det_bareiss", True),
    ("kernels.hf_recursive", "pfhaf.kernels", "hf_recursive", False),
    ("kernels.perm_ryser", "pfhaf.kernels", "perm_ryser", False),
    ("structured.fast_cauchy_hafnian", "pfhaf.structured", "fast_cauchy_hafnian", False),
    ("structured.fast_cauchy_perm", "pfhaf.structured", "fast_cauchy_perm", False),
    ("structured.build_cauchy", "pfhaf.structured", "build_cauchy", False),
    ("structured.cauchy_det_closed", "pfhaf.structured", "cauchy_det_closed", False),
    ("structured.build_schur", "pfhaf.structured", "build_schur", False),
    ("structured.build_hafnian_mat", "pfhaf.structured", "build_hafnian_mat", False),
    ("structured.schur_pf_closed", "pfhaf.structured", "schur_pf_closed", False),
    ("structured.substitution_witness", "pfhaf.structured", "substitution_witness", False),
    ("matrix.SquareMatrix", "pfhaf.matrix", "SquareMatrix.__init__", False),
    ("matrix.classify", "pfhaf.matrix", "classify", False),
    ("matrix.minor", "pfhaf.matrix", "minor", False),
    ("verify.make_instance", "pfhaf.verify", "make_instance", False),
    ("verify.check_identity", "pfhaf.verify", "check_identity", False),
    ("verify.gen_points", "pfhaf.verify", "gen_points", False),
    ("report.IdentityReport.to_json", "pfhaf.report", "IdentityReport.to_json", False),
    ("scalar.render_scalar", "pfhaf.scalar", "render_scalar", False),
)

SETUP, TIMED, CALIBRATION = "bench.setup", "bench.timed", "bench.calibration"
INPUT_BITS = "trace.input_bits"

_COUNTED = ("kernels.pf_fraction_free", "kernels.pf_elimination", "kernels.det_bareiss",
            "kernels.hf_recursive", "kernels.perm_ryser", "matrix.SquareMatrix")


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for name, _, _, bits in LAYERS:
        specs.append((f"{name}.self_ms", "ms", "lower"))
        if name in _COUNTED:
            specs.append((f"{name}.calls", "count", "lower"))
        if bits:
            specs.append((f"{name}.input_bits_max", "bits", "lower"))
    for root in (SETUP, TIMED):
        specs.append((f"{root}.wall_ms", "ms", "lower"))
        specs.append((f"{root}.self_ms", "ms", "lower"))
    specs.append((f"{CALIBRATION}.self_ms", "ms", "lower"))
    specs.append((f"{INPUT_BITS}.self_ms", "ms", "lower"))
    return specs


def _bits(v) -> int:
    if isinstance(v, int):
        return v.bit_length()
    if hasattr(v, "denominator"):  # Fraction (or gmpy2's mpq)
        return max(int(v.numerator).bit_length(), int(v.denominator).bit_length())
    if hasattr(v, "q"):  # QuadExt p + q sqrt(d)
        return max(_bits(v.p), _bits(v.q))
    raise TypeError(f"no bit length for {type(v).__name__}")


def input_bits(matrix) -> int:
    """Largest numerator or denominator bit length among a kernel's input
    entries: a SquareMatrix, or the list of rows pf_fraction_free takes."""
    rows = getattr(matrix, "entries", matrix)
    return max((_bits(v) for row in rows for v in row), default=0)


def layer_totals(spans, root=None):
    """{layer: [self_ns, calls, wall_ns]} over ``spans`` (records of
    [name, start_ns, end_ns, parent index]), or over the spans under the
    root span named ``root``.  Parents come before their children."""
    child = [0] * len(spans)
    roots = [0] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        roots[i] = i if parent < 0 else roots[parent]
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if root is not None and spans[roots[i]][0] != root:
            continue
        t = out.setdefault(name, [0, 0, 0])
        t[0] += end - start - child[i]
        t[1] += 1
        t[2] += end - start
    return out


class Tracer:
    def __init__(self):
        self.names = []  # layer names, by name id
        self._spans = array("q")  # name id, start_ns, end_ns, parent, per span
        self.bits = {}
        self._stack = [-1]
        self._installed = []  # (namespace, key, original)

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id):
        index = len(self._spans) // 4
        self._spans.extend((name_id, time.perf_counter_ns(), 0, self._stack[-1]))
        self._stack.append(index)
        return index

    def _close(self, index):
        self._spans[4 * index + 2] = time.perf_counter_ns()
        self._stack.pop()

    def spans(self):
        """The spans recorded so far as [name, start_ns, end_ns, parent]."""
        s = self._spans
        return [[self.names[s[i]], s[i + 1], s[i + 2], s[i + 3]]
                for i in range(0, len(s), 4)]

    @contextlib.contextmanager
    def root(self, name):
        """One of the benchmark's own root spans."""
        index = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name, fn, record_bits):
        name_id, bits_id = self._name_id(name), self._name_id(INPUT_BITS)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if record_bits:
                index = self._open(bits_id)
                width = input_bits(args[0])
                self._close(index)
                if width > self.bits.get(name, 0):
                    self.bits[name] = width
            index = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def _replace(self, namespace, key, value):
        self._installed.append((namespace, key, getattr(namespace, key)))
        setattr(namespace, key, value)

    def install(self):
        """Wrap every layer of the imported pfhaf package."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "pfhaf" or k.startswith("pfhaf.")]
        for name, module, attr, record_bits in LAYERS:
            home = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._replace(cls, meth, self.wrap(name, getattr(cls, meth), record_bits))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(name, original, record_bits)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapped)

    def uninstall(self):
        """Put back every function and method that ``install`` replaced."""
        while self._installed:
            namespace, key, original = self._installed.pop()
            setattr(namespace, key, original)

    def metrics(self):
        """Every per-layer metric of ``metric_specs``, 0 for a layer that did
        not run."""
        totals = layer_totals(self.spans())
        out = {}
        for metric, unit, _ in metric_specs():
            layer, _, kind = metric.rpartition(".")
            self_ns, calls, wall_ns = totals.get(layer, (0, 0, 0))
            value = {
                "self_ms": self_ns / 1e6,
                "wall_ms": wall_ns / 1e6,
                "calls": calls,
                "input_bits_max": self.bits.get(layer, 0),
            }[kind]
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        """Write the spans as JSON lines: [name, start_ns, end_ns, parent]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.spans():
                fh.write(json.dumps(rec) + "\n")
