"""Span tracing around covspec's layer boundaries, installed from outside.

Nothing in ``src/`` knows about this module. :meth:`Tracer.install`
replaces each boundary function with a timing wrapper at every name a
caller looks it up by: the defining module and every covspec module that
imported it by name (``cli.solve_delta``, ``equivalent.solve_delta_complex``,
``conc_lab.sample_mixture``, ...). Methods are patched on their class.

Only layer boundaries are wrapped. Per-iteration helpers such as
``Mixture.spectral`` (tens of thousands of calls per command) are not; the
one-off joint-eigenbasis build behind it, ``model._joint_eigenbasis``, is.

Each call records a span: id, parent id, name, start, end, thread and the
counts read from the returned object. A span opened on a thread with no
open span of its own (a density pool worker) takes the innermost span open
on the main thread, the submitting ``density_prediction`` call, as its
parent. Spans stay in memory; the caller writes them out at the end.
"""

from __future__ import annotations

import inspect
import itertools
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


def _iterations(result, args):
    return {"iters": result.iterations, "unconverged": int(not result.converged)}


def _density(result, args):
    return {"points": int(result.density.size),
            "unconverged": int((~result.converged).sum())}


def _columns(result, args):
    matrix = getattr(result, "matrix", result)
    return {"columns": int(matrix.shape[1])}


def _trials(result, args):
    return {"trials": int(args["trials"])}


def _backend(result, args):
    return {"spectral": int(result is not None)}


def _bytes_read(result, args):
    return {"bytes": os.path.getsize(args["path"])}


def _bytes_written(result, args):
    return {"bytes": len(args["text"].encode())}


# (module, attribute, span name, counter). A counter maps the returned object
# and the bound call arguments to the span's counts.
TARGETS = (
    ("covspec.config", "load_config", "config.load", None),
    ("covspec.config", "ExperimentConfig.mixture", "model.build", None),
    ("covspec.config", "ExperimentConfig.generator_pairs", "model.build", None),
    ("covspec.model", "_joint_eigenbasis", "model.spectral", _backend),
    ("covspec.fixed_point", "solve_delta", "fixed_point.real", _iterations),
    ("covspec.fixed_point", "solve_delta_complex", "fixed_point.complex",
     _iterations),
    ("covspec.equivalent", "density_prediction", "equivalent.density", _density),
    ("covspec.equivalent", "stieltjes_from_delta", "equivalent.stieltjes", None),
    ("covspec.sampler", "sample_mixture", "sampler.sample", _columns),
    ("covspec.sampler", "sample_class", "sampler.sample", _columns),
    ("covspec.sampler", "empirical_spectrum", "sampler.spectrum", None),
    ("covspec.conc_lab", "delta_empirical", "conc_lab.delta_empirical", _trials),
    ("covspec.conc_lab", "resolvent_mean_error", "conc_lab.resolvent_mean",
     _trials),
    ("covspec.conc_lab", "observable_diameter", "conc_lab.diameter", _trials),
    ("covspec.conc_lab", "quadratic_form_check", "conc_lab.quadform", _trials),
    ("covspec.conc_lab", "tail_thresholds", "conc_lab.tail", None),
    ("covspec.conc_lab", "tail_profile", "conc_lab.tail", None),
    ("covspec.conc_lab", "fit_exponential_tail", "conc_lab.tail", None),
    ("covspec.io", "read_matrix", "io.read", _bytes_read),
    ("covspec.io", "write_csv", "io.write", None),
    ("covspec.io", "write_matrix", "io.write", None),
    ("covspec.io", "atomic_write_text", "io.write", _bytes_written),
)


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    counts: dict
    error: str | None

    @property
    def duration(self):
        return self.end - self.start

    def record(self, workload, pass_index):
        return asdict(self) | {"workload": workload, "pass": pass_index}


class Tracer:
    """Collects spans; :meth:`install` and :meth:`uninstall` patch covspec."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args=(), kwargs=None, counter=None, signature=None):
        """Run ``fn`` inside a span named ``name`` and return its result."""
        kwargs = kwargs or {}
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        sid = next(self._ids)
        stack.append(sid)
        error = None
        counts = {}
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            if error is None and counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = counter(result, bound.arguments)
            with self._lock:
                self.spans.append(Span(sid, parent, name, start, end,
                                       threading.get_ident(), counts, error))
        return result

    def _wrap(self, fn, name, counter):
        signature = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, counter, signature)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "covspec"
                                         or key.startswith("covspec."))]
        for module_name, attr, name, counter in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, self._wrap(original, name, counter))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, obj, key, wrapper):
        self._patched.append((obj, key, getattr(obj, key)))
        setattr(obj, key, wrapper)

    def uninstall(self):
        for obj, key, original in reversed(self._patched):
            setattr(obj, key, original)
        self._patched.clear()


def span_cost(calls: int = 20000) -> float:
    """Seconds that tracing adds to one call: a wrapped call with a counter
    minus a plain call, each timed over ``calls`` calls."""

    def work(x, scale=2):
        return x * scale

    def counter(result, args):
        return {"value": args["scale"]}

    wrapped = Tracer()._wrap(work, "cost", counter)
    timings = []
    for fn in (work, wrapped):
        start = time.perf_counter()
        for i in range(calls):
            fn(i)
        timings.append(time.perf_counter() - start)
    return max(timings[1] - timings[0], 0.0) / calls


def _union(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans, commands):
    """Per-layer metrics of one pass.

    ``spans`` are the pass's spans; ``commands`` maps the id of each command
    root span to its covspec subcommand. A layer's time sums its outermost
    spans (a span nested in one of the same name is not counted twice), so
    pool workers add their busy time. Self time is a span's duration minus
    the union of its children's intervals.
    """
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)

    def outermost(name):
        out = []
        for s in spans:
            if s.name != name:
                continue
            parent = by_id.get(s.parent)
            while parent is not None and parent.name != name:
                parent = by_id.get(parent.parent)
            if parent is None:
                out.append(s)
        return out

    def self_time(s):
        kids = [(c.start, c.end) for c in children[s.id]]
        return s.duration - _union(kids, s.start, s.end)

    def total(name, key=None):
        group = outermost(name)
        if key is None:
            return sum(s.duration for s in group)
        return sum(s.counts.get(key, 0) for s in group)

    def per_unit(seconds, count):
        return 1e6 * seconds / count if count else 0.0

    m = {}
    for kind in ("real", "complex"):
        # Self time: the first solve on a mixture also builds its joint
        # eigenbasis, which model.spectral_s reports.
        name = f"fixed_point.{kind}"
        secs = sum(self_time(s) for s in outermost(name))
        iters = total(name, "iters")
        m[f"{name}_s"] = secs
        m[f"{name}_iters"] = iters
        m[f"{name}_unconverged"] = total(name, "unconverged")
        m[f"{name}_us_per_iter"] = per_unit(secs, iters)
    m["fixed_point.complex_iters_max"] = max(
        (s.counts.get("iters", 0) for s in outermost("fixed_point.complex")),
        default=0)

    density = outermost("equivalent.density")
    m["equivalent.density_s"] = sum(s.duration for s in density)
    m["equivalent.density_self_s"] = sum(self_time(s) for s in density)
    m["equivalent.density_points"] = total("equivalent.density", "points")
    m["equivalent.density_unconverged"] = total("equivalent.density",
                                                "unconverged")
    m["equivalent.stieltjes_s"] = total("equivalent.stieltjes")

    sample_s, columns = total("sampler.sample"), total("sampler.sample",
                                                       "columns")
    m["sampler.sample_s"] = sample_s
    m["sampler.columns"] = columns
    m["sampler.us_per_column"] = per_unit(sample_s, columns)
    m["sampler.spectrum_s"] = total("sampler.spectrum")
    m["sampler.spectra"] = len(outermost("sampler.spectrum"))

    kernels = (outermost("conc_lab.delta_empirical")
               + outermost("conc_lab.resolvent_mean"))
    m["conc_lab.delta_empirical_s"] = total("conc_lab.delta_empirical")
    m["conc_lab.resolvent_mean_s"] = total("conc_lab.resolvent_mean")
    m["conc_lab.kernel_self_s"] = sum(self_time(s) for s in kernels)
    m["conc_lab.diameter_s"] = total("conc_lab.diameter")
    m["conc_lab.quadform_s"] = total("conc_lab.quadform")
    m["conc_lab.tail_s"] = total("conc_lab.tail")
    m["conc_lab.trials"] = sum(
        total(name, "trials") for name in (
            "conc_lab.delta_empirical", "conc_lab.resolvent_mean",
            "conc_lab.diameter", "conc_lab.quadform"))

    m["io.read_s"] = total("io.read")
    m["io.write_s"] = total("io.write")
    m["io.bytes_read"] = total("io.read", "bytes")
    # Bytes are counted where text reaches the file: atomic_write_text.
    m["io.bytes_written"] = sum(s.counts.get("bytes", 0) for s in spans
                                if s.name == "io.write")

    m["config.load_s"] = total("config.load")
    m["model.build_s"] = total("model.build")
    spectral = outermost("model.spectral")
    m["model.spectral_s"] = sum(s.duration for s in spectral)
    m["model.spectral_backend"] = (
        statistics.fmean(s.counts.get("spectral", 0) for s in spectral)
        if spectral else 0.0)

    m["cli.self_s"] = sum(self_time(by_id[sid]) for sid in commands)
    return m
