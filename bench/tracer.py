"""Spans and counters around the public functions of each spinhl module.

The wrappers live in the benchmark, not in the library.  ``Tracer.install``
rebinds every traced function where callers look it up: the class attribute
for methods, and every global binding in a spinhl module for functions (so
``identities.f_lambda_series``, bound by ``from .series import ...``, is
wrapped as well as ``series.f_lambda_series``).  ``Tracer.uninstall`` puts
every original back.

Each span records its name, start, end, parent span, thread and job.  Span
stacks are thread-local because ``run_all`` runs checks on pool threads;
spans stay in memory until the run writes them out.  A span's self time is
its duration minus the time its child spans (same thread) cover.
"""

import importlib
import inspect
import sys
import threading
from time import perf_counter

CHECK_NAMES = ("main1", "cor", "main2", "hl", "kawanaka", "rec1", "rec2", "rec2v", "lemma1", "lemma2", "chain")
MARKER = "_bench_wrapped"


class _ThreadState:
    __slots__ = ("ident", "stack", "spans", "counts", "peaks")

    def __init__(self):
        self.ident = threading.get_ident()
        self.stack = []
        self.spans = []
        self.counts = {}
        self.peaks = {}

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key, value):
        if value > self.peaks.get(key, 0):
            self.peaks[key] = value


# ----------------------------------------------------------------------
# hooks: run after the wrapped call returns, outside its span


def _degree_histogram(series):
    hist = {}
    for e in series.coeffs:
        d = sum(e)
        hist[d] = hist.get(d, 0) + 1
    return hist


def _mul_hook(tracer, st, args, kwargs, out):
    a, b = args
    if hasattr(b, "coeffs"):
        ha, hb = _degree_histogram(a), _degree_histogram(b)
        products = sum(ca * sum(cb for db, cb in hb.items() if da + db <= a.cap) for da, ca in ha.items())
        pairs = len(a.coeffs) * len(b.coeffs)
    else:
        products = pairs = len(a.coeffs)
    st.add("series.mul.term_products", products)
    st.add("series.mul.pairs_visited", pairs)
    st.peak("series.mul.peak_terms", len(out.coeffs))


def _f_lambda_series_hook(tracer, st, args, kwargs, out):
    bound = tracer.f_signature.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    lam = tuple(a["lam"])
    var_indices = tuple(range(len(lam))) if a["var_indices"] is None else tuple(a["var_indices"])
    spin = a["spin"]
    key = (tracer.job, lam, var_indices, spin.prefix, spin.tail, a["t"], a["cap"], a["nvars"])
    with tracer.lock:
        repeat = key in tracer.f_seen
        tracer.f_seen.add(key)
    st.add("series.f_lambda_series.repeats", int(repeat))


def _lhs_sum_hook(tracer, st, args, kwargs, out):
    bits = max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in out.coeffs.values()),
        default=0,
    )
    st.peak("series.max_coeff_bits", bits)


def _length_hook(key):
    def hook(tracer, st, args, kwargs, out):
        st.add(key, len(out))

    return hook


# (span name, module, attribute path, hook).  Methods are "Class.method".
SPANS = (
    ("series.mul", "spinhl.series", "TruncSeries.__mul__", _mul_hook),
    ("series.mul", "spinhl.series", "TruncSeries.__rmul__", _mul_hook),
    ("series.add", "spinhl.series", "TruncSeries.__add__", None),
    ("series.add", "spinhl.series", "TruncSeries.__radd__", None),
    ("series.inv", "spinhl.series", "TruncSeries.inv", None),
    ("series.f_lambda_series", "spinhl.series", "f_lambda_series", _f_lambda_series_hook),
    ("series.divide_by_vandermonde", "spinhl.series", "divide_by_vandermonde", None),
    ("identities.lhs_sum", "spinhl.identities", "_lhs_sum", _lhs_sum_hook),
    ("identities.rhs_series", "spinhl.identities", "_rhs_main1_series", None),
    ("identities.rhs_series", "spinhl.identities", "_rhs_pf_series", None),
    ("identities.check", "spinhl.identities", "run_check", None),
    ("identities.run_all", "spinhl.identities", "run_all", None),
    ("pfaffian.laplace", "spinhl.pfaffian", "SkewMatrix.pfaffian", None),
    ("pfaffian.matchings", "spinhl.pfaffian", "SkewMatrix.pfaffian_matchings", None),
    ("pfaffian.det", "spinhl.pfaffian", "det", None),
    ("symfun.f_lambda", "spinhl.symfun", "f_lambda", None),
    ("symfun.antisymmetrize", "spinhl.symfun", "antisymmetrize", None),
    ("vertex.f_lambda_vertex", "spinhl.vertex", "f_lambda_vertex", None),
    ("robbins.enum", "spinhl.robbins", "robbins_star_enum", None),
    ("robbins.bialternant", "spinhl.robbins", "robbins_star_bialternant", None),
    ("bijection.lemma_connection", "spinhl.bijection", "verify_lemma_connection", None),
    ("cli.main", "spinhl.cli", "main", None),
    ("cli.emit", "spinhl.cli", "_emit", None),
)

# Functions too small or too frequent for a span: counted only.
COUNTERS = (
    ("identities.lhs_sum.partitions", "spinhl.symfun", "truncated_partition_list", _length_hook("identities.lhs_sum.partitions")),
    ("robbins.triangles", "spinhl.robbins", "monotone_triangles", _length_hook("robbins.triangles")),
    ("vertex.transfer_states", "spinhl.vertex", "_weighted_successors", None),
    ("arith.sample_point.calls", "spinhl.arith", "sample_point", None),
    ("arith.sample_point.draws", "spinhl.arith", "_draw_rational", None),
    ("arith.qpoch.calls", "spinhl.arith", "qpoch", None),
)


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


class Tracer:
    """Installs and removes the wrappers, and collects their spans and
    counts per thread until harvested."""

    def __init__(self):
        self.lock = threading.Lock()
        self.job = None
        self.f_seen = set()
        self._local = threading.local()
        self._threads = []
        self._patches = []
        self.f_signature = None

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self.lock:
                self._threads.append(st)
        return st

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, name, fn, hook):
        tracer = self
        check_span = name == "identities.check"

        def wrapper(*args, **kwargs):
            st = tracer._state()
            parent = st.stack[-1] if st.stack else None
            label = name
            if check_span:
                label = "identities.check_s." + (args[0] if args else kwargs["name"])
            rec = [label, 0.0, 0.0, parent, st.ident, tracer.job, 0.0]
            st.stack.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = end = perf_counter()
                st.stack.pop()
                if parent is not None:
                    parent[6] += end - rec[1]
                st.spans.append(rec)
            if hook is not None:
                hook(tracer, st, args, kwargs, out)
            return out

        return wrapper

    def _count_wrapper(self, name, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            st = tracer._state()
            if hook is None:
                st.add(name, 1)
            else:
                hook(tracer, st, args, kwargs, out)
            return out

        return wrapper

    def install(self):
        """Wrap every traced function where callers look it up."""
        # Import every traced module first: a module imported after patching
        # began would bind wrappers by its own imports and keep them.
        for _name, module_name, _path, _hook in SPANS + COUNTERS:
            importlib.import_module(module_name)
        modules = [m for key, m in sorted(sys.modules.items()) if key == "spinhl" or key.startswith("spinhl.")]
        self.f_signature = inspect.signature(importlib.import_module("spinhl.series").f_lambda_series)
        made = {}
        for table, factory in ((SPANS, self._span_wrapper), (COUNTERS, self._count_wrapper)):
            for name, module_name, path, hook in table:
                owner, attr = _resolve(module_name, path)
                original = owner.__dict__[attr]
                wrapper = made.get(id(original))
                if wrapper is None:
                    wrapper = factory(name, original, hook)
                    setattr(wrapper, MARKER, original)
                    made[id(original)] = wrapper
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        """Put every original back, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- harvesting -----------------------------------------------------

    def harvest(self):
        """Spans, counts and peaks recorded since the last harvest, merged
        over threads; the buffers are cleared."""
        with self.lock:
            states, self._threads = self._threads, []
            self.f_seen = set()
        self._local = threading.local()
        spans, counts, peaks = [], {}, {}
        for st in states:
            spans.extend(st.spans)
            for key, value in st.counts.items():
                counts[key] = counts.get(key, 0) + value
            for key, value in st.peaks.items():
                peaks[key] = max(peaks.get(key, 0), value)
        spans.sort(key=lambda rec: rec[1])
        return spans, counts, peaks


# ----------------------------------------------------------------------
# per-layer metrics of one traced pass


def _ratio(num, den):
    return num / den if den else 0.0


PER_LAYER = (
    ("series.mul.calls", "count"),
    ("series.mul.self_s", "s"),
    ("series.mul.term_products", "count"),
    ("series.mul.peak_terms", "count"),
    ("series.mul.useful_ratio", "ratio"),
    ("series.add.calls", "count"),
    ("series.add.self_s", "s"),
    ("series.inv.calls", "count"),
    ("series.inv.incl_s", "s"),
    ("series.f_lambda_series.calls", "count"),
    ("series.f_lambda_series.incl_s", "s"),
    ("series.f_lambda_series.self_s", "s"),
    ("series.f_lambda_series.repeat_ratio", "ratio"),
    ("series.divide_by_vandermonde.calls", "count"),
    ("series.divide_by_vandermonde.self_s", "s"),
    ("series.max_coeff_bits", "bits"),
    ("identities.lhs_sum.calls", "count"),
    ("identities.lhs_sum.incl_s", "s"),
    ("identities.lhs_sum.partitions", "count"),
    ("identities.rhs_series.incl_s", "s"),
) + tuple(("identities.check_s." + c, "s") for c in CHECK_NAMES) + (
    ("identities.run_all.wall_s", "s"),
    ("identities.run_all.concurrency", "ratio"),
    ("pfaffian.laplace.calls", "count"),
    ("pfaffian.laplace.incl_s", "s"),
    ("pfaffian.matchings.incl_s", "s"),
    ("pfaffian.det.incl_s", "s"),
    ("symfun.f_lambda.calls", "count"),
    ("symfun.f_lambda.incl_s", "s"),
    ("symfun.antisymmetrize.incl_s", "s"),
    ("vertex.f_lambda_vertex.calls", "count"),
    ("vertex.f_lambda_vertex.incl_s", "s"),
    ("vertex.transfer_states", "count"),
    ("robbins.enum.incl_s", "s"),
    ("robbins.bialternant.incl_s", "s"),
    ("robbins.triangles", "count"),
    ("bijection.lemma_connection.calls", "count"),
    ("bijection.lemma_connection.incl_s", "s"),
    ("arith.sample_point.calls", "count"),
    ("arith.sample_point.draws", "count"),
    ("arith.qpoch.calls", "count"),
    ("cli.main.incl_s", "s"),
    ("cli.emit.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_metrics(spans, counts, peaks):
    """Per-layer metrics of one traced pass.  Layers that did not run read 0.
    ``trace.overhead_ratio`` and ``cli.stdout_bytes`` are filled in by the run."""
    calls, incl, self_s = {}, {}, {}
    for name, start, end, _parent, _thread, _job, child in spans:
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start - child)
    out = {}
    for metric, _unit in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if metric in counts:
            out[metric] = counts[metric]
        elif metric in peaks:
            out[metric] = peaks[metric]
        elif field == "calls":
            out[metric] = calls.get(layer, 0)
        elif field == "incl_s":
            out[metric] = incl.get(layer, 0.0)
        elif field == "self_s":
            out[metric] = self_s.get(layer, 0.0)
        elif metric.startswith("identities.check_s."):
            out[metric] = incl.get(metric, 0.0)
        else:
            out[metric] = 0
    out["series.mul.useful_ratio"] = _ratio(
        counts.get("series.mul.term_products", 0), counts.get("series.mul.pairs_visited", 0)
    )
    out["series.f_lambda_series.repeat_ratio"] = _ratio(
        counts.get("series.f_lambda_series.repeats", 0), calls.get("series.f_lambda_series", 0)
    )
    run_all = [(start, end) for name, start, end, *_ in spans if name == "identities.run_all"]
    checks_in_run_all = sum(
        end - start
        for name, start, end, *_ in spans
        if name.startswith("identities.check_s.") and any(s <= start and end <= e for s, e in run_all)
    )
    out["identities.run_all.wall_s"] = incl.get("identities.run_all", 0.0)
    out["identities.run_all.concurrency"] = _ratio(checks_in_run_all, out["identities.run_all.wall_s"])
    return out
