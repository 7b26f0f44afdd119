"""Spans recorded from outside the program, around its public functions.

``Tracer.installed()`` replaces selected public functions of the
``disc_ergodics`` modules with wrappers that open a span per call, and the
``__call__`` of each symbol class with a counter that charges evaluation
time and counts to the innermost open span instead of opening one per call.
Every module attribute bound to a wrapped function is replaced, so internal
calls (``classify`` calling ``denjoy_wolff``) and names imported by other
modules (``cli`` importing ``parse_symbol``) are traced as well.  Leaving
the context restores the originals; nothing inside ``src/`` is changed.

A span records its name, start, end, parent and request id.  Spans stay in
memory and are written out when the run ends.  A span's self time is its
duration minus the time covered by its child spans and by the symbol
evaluations charged to it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import time

import numpy as np

import disc_ergodics
from disc_ergodics import cli, dynamics, ergodicity, gallery, symbols, weighted

MODULES = (disc_ergodics, symbols, dynamics, ergodicity, weighted, cli, gallery)
SYMBOL_CLASSES = (symbols.Moebius, symbols.Blaschke, symbols.Polynomial, symbols.Taylor)


def is_linear_fractional(s) -> bool:
    """Moebius maps, degree-one Blaschke products and affine polynomials."""
    if isinstance(s, symbols.Moebius):
        return True
    if isinstance(s, symbols.Blaschke):
        return s.degree == 1
    coeffs = list(s.coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return len(coeffs) <= 2


class Span:
    __slots__ = ("name", "request", "parent", "start", "end", "child_s",
                 "eval_s", "scalar_evals", "array_evals", "array_points", "attrs")

    def __init__(self, name, request, parent):
        self.name = name
        self.request = request
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = self.eval_s = 0.0
        self.scalar_evals = self.array_evals = self.array_points = 0
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - self.eval_s


# ---------------------------------------------------------------------------
# What each wrapped call records besides its span

def _iterations(span, args, result, exc):
    source = exc if isinstance(exc, dynamics.NonConvergenceError) else result
    if source is not None:
        span.attrs["iterations"] = getattr(source, "iterations_used",
                                           getattr(source, "iterations", 0))


def _points_found(span, args, result, exc):
    if result is not None:
        span.attrs["points_found"] = len(result)


def _seed_steps(seeds_arg):
    def record(span, args, result, exc):
        seeds = args.get(seeds_arg, 0j)
        span.attrs["seed_steps"] = int(np.size(seeds)) * int(args["n"])
        span.attrs["lft"] = is_linear_fractional(args["s"])
    return record


def _steps(span, args, result, exc):
    span.attrs["steps"] = int(args["n"])


# (module, function, span name, recorder)
TARGETS = (
    (symbols, "parse_symbol", "symbols.parse", None),
    (symbols, "iterate", "symbols.iterate", None),
    (dynamics, "classify", "dynamics.classify", None),
    (dynamics, "denjoy_wolff", "dynamics.denjoy_wolff", _iterations),
    (dynamics, "boundary_periodic_points", "dynamics.boundary_periodic_points", _points_found),
    (dynamics, "sup_norm_sequence", "dynamics.sup_norm", None),
    (dynamics, "sup_norm_iterate", "dynamics.sup_norm", None),
    (dynamics, "sup_distance_sequence", "dynamics.sup_norm", None),
    (dynamics, "local_contraction_check", "dynamics.local_contraction_check", None),
    (ergodicity, "verdict", "ergodicity.verdict", None),
    (ergodicity, "cesaro_apply", "ergodicity.cesaro_apply", _seed_steps("z")),
    (ergodicity, "cesaro_final_means", "ergodicity.cesaro_final_means", _seed_steps("seeds")),
    (ergodicity, "cesaro_orbit_mean", "ergodicity.cesaro_orbit_mean", None),
    (ergodicity, "orbit_density", "ergodicity.orbit_density", _seed_steps("z")),
    (ergodicity, "density_sweep", "ergodicity.density_sweep", _seed_steps("seeds")),
    (ergodicity, "weyl_test", "ergodicity.weyl_test", None),
    (ergodicity, "monomial_mean", "ergodicity.monomial_mean", None),
    (ergodicity, "boundary_gap_witness", "ergodicity.boundary_gap_witness", _steps),
    (weighted, "lacunary_exponents", "weighted.lacunary_exponents", None),
    (weighted, "make_weight_v_alpha", "weighted.make_weight_v_alpha", None),
    (weighted, "counterexample_pair", "weighted.counterexample_pair", None),
    (cli, "main", "cli.main", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.current: Span | None = None
        self.request = ""

    def open(self, name: str) -> Span:
        span = Span(name, self.request, self.current)
        self.spans.append(span)
        self.current = span
        span.start = time.perf_counter()
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        self.current = span.parent
        if span.parent is not None:
            span.parent.child_s += span.duration

    @contextlib.contextmanager
    def request_span(self, rid: str):
        self.request = rid
        span = self.open("request")
        try:
            yield span
        finally:
            self.close(span)
            self.request = ""

    def _wrap(self, fn, name, record):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                self.close(span)
                if record is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    record(span, bound.arguments, result, exc)
        return wrapper

    def _wrap_eval(self, call):
        tracer = self

        def __call__(s, z):
            span = tracer.current
            if span is None:
                return call(s, z)
            t0 = time.perf_counter()
            try:
                return call(s, z)
            finally:
                span.eval_s += time.perf_counter() - t0
                if isinstance(z, np.ndarray):
                    span.array_evals += 1
                    span.array_points += z.size
                else:
                    span.scalar_evals += 1
        return __call__

    @contextlib.contextmanager
    def installed(self):
        """Trace the public functions in TARGETS and symbol evaluation."""
        undo = []
        try:
            for module, fname, name, record in TARGETS:
                original = getattr(module, fname)
                wrapper = self._wrap(original, name, record)
                for mod in MODULES:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            for cls in SYMBOL_CLASSES:
                original = cls.__dict__["__call__"]
                undo.append((cls, "__call__", original))
                cls.__call__ = self._wrap_eval(original)
            yield self
        finally:
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)

    def dump(self, fh, pass_no: int):
        """Write the spans as JSON lines, tagged with the pass number."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        for i, span in enumerate(self.spans):
            fh.write(json.dumps({
                "pass": pass_no, "id": i, "name": span.name, "request": span.request,
                "parent": index.get(id(span.parent)), "start": span.start, "end": span.end,
                "self_s": span.self_s, "eval_s": span.eval_s,
                "scalar_evals": span.scalar_evals, "array_evals": span.array_evals,
                "array_points": span.array_points, **span.attrs,
            }) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass

COUNT_METRICS = (
    "symbols.eval.scalar_calls", "symbols.eval.array_calls", "symbols.eval.array_points",
    "dynamics.classify.calls", "dynamics.denjoy_wolff.iterations",
    "dynamics.boundary_periodic_points.calls", "dynamics.boundary_periodic_points.eval_calls",
    "dynamics.boundary_periodic_points.points_found",
    "ergodicity.verdict.calls", "ergodicity.seed_steps", "ergodicity.boundary_gap_witness.steps",
    "cli.main.calls",
)
SELF_TIME_SPANS = (
    "symbols.iterate", "dynamics.classify", "dynamics.boundary_periodic_points",
    "dynamics.sup_norm", "dynamics.local_contraction_check", "ergodicity.verdict",
    "ergodicity.cesaro_final_means", "ergodicity.density_sweep", "ergodicity.cesaro_apply",
    "ergodicity.orbit_density", "ergodicity.weyl_test", "ergodicity.monomial_mean",
    "ergodicity.boundary_gap_witness", "weighted.lacunary_exponents",
    "weighted.make_weight_v_alpha", "weighted.counterexample_pair", "cli.main",
)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Counts and self times of one traced pass, keyed by metric name."""
    out: dict[str, float] = {f"{name}.self_s": 0.0 for name in SELF_TIME_SPANS}
    out.update({name: 0 for name in COUNT_METRICS})
    out["symbols.eval.self_s"] = 0.0
    steps = {True: [0, 0.0], False: [0, 0.0]}
    for span in spans:
        out["symbols.eval.scalar_calls"] += span.scalar_evals
        out["symbols.eval.array_calls"] += span.array_evals
        out["symbols.eval.array_points"] += span.array_points
        out["symbols.eval.self_s"] += span.eval_s
        if f"{span.name}.self_s" in out:
            out[f"{span.name}.self_s"] += span.self_s
        if f"{span.name}.calls" in out:
            out[f"{span.name}.calls"] += 1
        attrs = span.attrs
        if span.name == "dynamics.denjoy_wolff":
            out["dynamics.denjoy_wolff.iterations"] += attrs.get("iterations", 0)
        elif span.name == "dynamics.boundary_periodic_points":
            out["dynamics.boundary_periodic_points.eval_calls"] += (
                span.scalar_evals + span.array_evals)
            out["dynamics.boundary_periodic_points.points_found"] += attrs.get("points_found", 0)
        elif span.name == "ergodicity.boundary_gap_witness":
            out["ergodicity.boundary_gap_witness.steps"] += attrs["steps"]
        if "seed_steps" in attrs:
            out["ergodicity.seed_steps"] += attrs["seed_steps"]
            steps[attrs["lft"]][0] += attrs["seed_steps"]
            steps[attrs["lft"]][1] += span.duration
    evals = out["dynamics.boundary_periodic_points.eval_calls"]
    out["dynamics.boundary_periodic_points.points_per_eval"] = (
        out["dynamics.boundary_periodic_points.points_found"] / evals if evals else 0.0)
    for lft, label in ((True, "lft"), (False, "nonlinear")):
        count, seconds = steps[lft]
        out[f"ergodicity.seed_steps_per_s.{label}"] = count / seconds if seconds else 0.0
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first traced pass, timings as medians over passes."""
    merged = dict(passes[0])
    for name in merged:
        if name not in COUNT_METRICS:
            merged[name] = statistics.median(p[name] for p in passes)
    return merged
