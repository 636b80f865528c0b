"""In-memory span tracing of the vmfcorr public functions, from outside src/.

`Tracer.install` replaces every binding of each traced function, found by
identity across the loaded vmfcorr modules (so `cli.scf`, `arrays.scf_multicluster`
and `correlation.csinc_sqrt` are all caught), with a wrapper that records a
span: name, start, end and the span that caused it. `uninstall` restores the
originals. A name missing from the package is reported as absent.

Spans started on a pool thread with nothing open on that thread take as
parent the innermost span open on the installing thread, which is the call
that submitted the work. A span's self time is its duration minus the part
of it covered by its children's intervals.
"""

import functools
import inspect
import math
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# Public functions traced in each module.
TARGETS = {
    "cli": ("parse_config", "run"),
    "correlation": ("scf", "scf_isotropic", "scf_large_kappa", "scf_exact_log",
                    "scf_multicluster", "acf", "decorrelation_time", "doppler_params"),
    "vmf": ("csinc_sqrt", "vmf_pdf", "sample_vmf", "kappa_from_angular_width"),
    "oracles": ("scf_quadrature", "scf_montecarlo", "build_ensemble", "transfer_function"),
    "arrays": ("correlation_matrix", "scf_along_path", "linear_array", "circular_array",
               "planar_grid", "stationarity_check"),
    "radar": ("decorrelation_table", "radar_acf_curve", "scenario_to_cluster_and_motion"),
}

# Spans of these functions keep their arguments, which are read after the
# pass to count the work done.
KEEP_ARGS = frozenset({
    "correlation.scf", "vmf.vmf_pdf", "vmf.sample_vmf", "oracles.scf_montecarlo",
    "arrays.correlation_matrix", "radar.decorrelation_table",
})

BRANCHES = ("isotropic", "series", "direct", "large_kappa", "zero_d")

# Dispatch thresholds of the closed form at the time the benchmark was
# written: kappa above which sinh overflows, and the radius of the sinc series.
_LARGE_KAPPA = 700.0
_SERIES_RADIUS = 0.25

NAME, PARENT, START, END, ARGS = range(5)


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self, package: str = "vmfcorr"):
        self.package = package
        self.spans = []
        self.absent = []
        self.signatures = {}
        self._restore = []
        self._main_stack = []
        self._local = threading.local()

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        self.absent = []
        for module_name, names in TARGETS.items():
            module = sys.modules.get(f"{self.package}.{module_name}")
            for name in names:
                label = f"{module_name}.{name}"
                fn = getattr(module, name, None) if module is not None else None
                if not callable(fn):
                    self.absent.append(label)
                    continue
                try:
                    self.signatures[label] = inspect.signature(fn)
                except (TypeError, ValueError):
                    self.signatures[label] = None
                wrapper = self._wrap(label, fn)
                for owner in modules:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            setattr(owner, attr, wrapper)
                            self._restore.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore = []

    def _wrap(self, label, fn):
        spans = self.spans
        main_stack = self._main_stack
        main_thread = threading.get_ident()
        local = self._local
        keep = label in KEEP_ARGS
        clock = time.perf_counter
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if get_ident() == main_thread:
                stack = main_stack
                parent = stack[-1] if stack else None
            else:
                stack = getattr(local, "stack", None)
                if stack is None:
                    stack = local.stack = []
                parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            span = [label, parent, 0.0, 0.0, (args, kwargs) if keep else None]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return wrapper

    def take(self):
        """Hand over the spans recorded so far and start a fresh list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans

    def arguments(self, span) -> dict:
        args, kwargs = span[ARGS]
        signature = self.signatures.get(span[NAME])
        if signature is None:
            return dict(kwargs)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans) -> list:
    """Per span: duration minus the part its children's intervals cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[id(span[PARENT])].append(span)
    out = []
    for span in spans:
        start, end = span[START], span[END]
        kids = [(max(k[START], start), min(k[END], end)) for k in children.get(id(span), ())]
        out.append((end - start) - covered([k for k in kids if k[1] > k[0]]))
    return out


def scf_branch(arguments) -> str:
    """Dispatch branch that serves a closed-form call, from its arguments."""
    cluster = arguments["cluster"]
    d = [float(c) for c in arguments["d"]]
    if not any(d):
        return "zero_d"
    kappa = float(cluster.kappa)
    if kappa == 0.0:
        return "isotropic"
    if kappa > _LARGE_KAPPA:
        return "large_kappa"
    k0 = 2.0 * math.pi / float(arguments["wavelength"])
    mean = (math.cos(cluster.mu_phi) * math.cos(cluster.mu_psi),
            math.sin(cluster.mu_phi) * math.cos(cluster.mu_psi),
            math.sin(cluster.mu_psi))
    projection = sum(m * c for m, c in zip(mean, d))
    w = complex(k0 * k0 * sum(c * c for c in d) - kappa * kappa,
                -2.0 * kappa * k0 * projection)
    return "series" if abs(w) <= _SERIES_RADIUS else "direct"


def _count_work(span, arguments) -> tuple:
    """(counter name, amount) for the spans whose arguments size their work."""
    label = span[NAME]
    if label == "correlation.scf":
        return f"branch.{scf_branch(arguments)}", 1
    if label == "vmf.vmf_pdf":
        return "vmf.vmf_pdf.nodes", np.broadcast(arguments["phi"], arguments["psi"]).size
    if label == "vmf.sample_vmf":
        return "vmf.sample_vmf.directions", int(arguments["n"])
    if label == "oracles.scf_montecarlo":
        return "oracles.scf_montecarlo.realizations", int(arguments["n_realizations"])
    if label == "arrays.correlation_matrix":
        n = len(arguments["geometry"].positions)
        return "arrays.correlation_matrix.pairs", n * (n - 1) // 2
    if label == "radar.decorrelation_table":
        return "radar.decorrelation_table.cells", len(arguments["widths"]) * len(arguments["speeds"])
    return None, 0


def summarize_pass(tracer, spans, wall: float) -> dict:
    """Per-pass totals of one traced pass: calls, inclusive and self time per
    function, work counts, closed-form time per branch, acf calls under each
    decorrelation_time call, and the pass time no root span covers."""
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    self_s = defaultdict(float)
    counts = defaultdict(int)
    branch_s = defaultdict(float)
    acf_under = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        label = span[NAME]
        duration = span[END] - span[START]
        calls[label] += 1
        inclusive[label] += duration
        self_s[label] += own
        if span[ARGS] is not None:
            try:
                counter, amount = _count_work(span, tracer.arguments(span))
            except (KeyError, TypeError, AttributeError, ValueError):
                counter, amount = None, 0
            if counter is not None:
                counts[counter] += amount
                if counter.startswith("branch."):
                    branch_s[counter] += duration
        parent = span[PARENT]
        if label == "correlation.acf" and parent is not None \
                and parent[NAME] == "correlation.decorrelation_time":
            acf_under[id(parent)] += 1
    decorrelations = [s for s in spans if s[NAME] == "correlation.decorrelation_time"]
    roots = [(s[START], s[END]) for s in spans if s[PARENT] is None]
    return {
        "wall": wall,
        "calls": dict(calls),
        "inclusive": dict(inclusive),
        "self": dict(self_s),
        "counts": dict(counts),
        "branch_s": dict(branch_s),
        "acf_per_decorrelation": [acf_under.get(id(s), 0) for s in decorrelations],
        "uncovered": wall - covered(roots),
        "self_sum": sum(self_s.values()),
    }
