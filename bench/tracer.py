"""Spans around levisqueeze's public functions, installed from outside the package.

``Instrumentation.install`` wraps every public function of the seven layer
modules, ``CovarianceMatrix.__post_init__`` and the ``drift_at`` /
``diffusion_at`` of every model a builder returns, and rebinds each alias
of a wrapped function in every levisqueeze module namespace and in
``models.MODEL_BUILDERS``.  ``restore`` puts the originals back and reports
whether any wrapper is left.  Spans stay in memory; ``write_jsonl`` dumps
them once the traced pass is over.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("cli", "figures", "metrics", "dynamics", "models", "gaussian", "montecarlo")
_MARK = "__bench_traced__"

#: Per-layer metrics reported by a traced pass, with their units.
PER_LAYER = (
    ("gaussian.drift_from_quadratic_calls", "count"),
    ("gaussian.drift_from_quadratic_s", "s"),
    ("models.drift_at_calls", "count"),
    ("models.drift_at_s", "s"),
    ("gaussian.covariance_calls", "count"),
    ("gaussian.covariance_s", "s"),
    ("dynamics.evolve_self_s", "s"),
    ("dynamics.evolve_steps", "count"),
    ("dynamics.evolve_stored", "count"),
    ("dynamics.step_us", "us"),
    ("dynamics.periodic_calls", "count"),
    ("dynamics.periodic_self_s", "s"),
    ("dynamics.steady_state_calls", "count"),
    ("dynamics.steady_state_us", "us"),
    ("dynamics.stability_calls", "count"),
    ("dynamics.threshold_bisections", "count"),
    ("dynamics.errors", "count"),
    ("metrics.sweep_points", "count"),
    ("metrics.sweep_self_s", "s"),
    ("metrics.ok_ratio", "ratio"),
    ("metrics.optimize_over_time_s", "s"),
    ("metrics.squeezing_metrics_calls", "count"),
    ("figures.calls", "count"),
    ("figures.self_s", "s"),
    ("cli.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.bytes_out", "bytes"),
    ("montecarlo.simulate_self_s", "s"),
    ("montecarlo.compare_s", "s"),
    ("montecarlo.normals_drawn", "count"),
    ("montecarlo.traj_step_ns", "ns"),
    ("montecarlo.max_z", "z"),
    ("trace.overhead_frac", "ratio"),
)


@dataclasses.dataclass(slots=True)
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at top level
    start: float = 0.0
    end: float = 0.0
    error: bool = False

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus counters fed by return-value hooks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_return=None):
        """Record a span around fn.

        on_return(tracer, result, args, kwargs), when given, sees each result
        and returns the value handed back to the caller.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if on_return is not None:
                result = on_return(self, result, args, kwargs)
            return result

        setattr(traced, _MARK, True)
        return traced

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end, "error": s.error}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of its interval its children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        pieces = sorted((max(k.start, s.start), min(k.end, s.end)) for k in kids)
        covered, reach = 0.0, s.start
        for lo, hi in pieces:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


# ---------------------------------------------------------------------------
# Return-value hooks
# ---------------------------------------------------------------------------


def _on_evolve(tracer: Tracer, result, args, kwargs):
    tracer.counters["evolve_steps"] += result.stats.n_steps
    tracer.counters["evolve_stored"] += result.stats.n_stored
    return result


def _on_sweep(tracer: Tracer, result, args, kwargs):
    tracer.counters["sweep_points"] += len(result.points)
    tracer.counters["sweep_ok"] += sum(p.status == "ok" for p in result.points)
    return result


def _on_simulate(tracer: Tracer, result, args, kwargs):
    model = args[0] if args else kwargs["model"]
    spec = args[2] if len(args) > 2 else kwargs["spec"]
    n_steps = max(1, int(round(spec.t_end / spec.dt)))
    tracer.counters["normals_drawn"] += spec.n_traj * model.basis.dim * (n_steps + 1)
    tracer.counters["traj_steps"] += spec.n_traj * n_steps
    return result


def _on_compare(tracer: Tracer, result, args, kwargs):
    tracer.counters["max_z"] = max(tracer.counters["max_z"], result.max_z)
    return result


def _on_build(tracer: Tracer, model, args, kwargs):
    return dataclasses.replace(
        model,
        drift_at=tracer.wrap("models.drift_at", model.drift_at),
        diffusion_at=tracer.wrap("models.diffusion_at", model.diffusion_at),
    )


_HOOKS = {
    "dynamics.evolve": _on_evolve,
    "metrics.sweep": _on_sweep,
    "montecarlo.simulate_ensemble": _on_simulate,
    "montecarlo.compare": _on_compare,
}


class Instrumentation:
    """Installs a tracer's wrappers into the levisqueeze modules and removes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        tracer = self.tracer
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"levisqueeze.{layer}")
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                qual = f"{layer}.{name}"
                hook = _on_build if name.startswith("build_") else _HOOKS.get(qual)
                wrappers[fn] = tracer.wrap(qual, fn, hook)
        for module in _package_modules():
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(module, name, wrappers[value])
                elif isinstance(value, dict) and not name.startswith("__"):
                    for key, entry in list(value.items()):
                        if inspect.isfunction(entry) and entry in wrappers:
                            self._set_item(value, key, wrappers[entry])
        from levisqueeze.gaussian import CovarianceMatrix

        post_init = CovarianceMatrix.__post_init__
        self._set(CovarianceMatrix, "__post_init__",
                  tracer.wrap("gaussian.CovarianceMatrix", post_init))

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _set_item(self, mapping: dict, key, value) -> None:
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def restore(self) -> bool:
        """Put every original back; True when no wrapper is reachable afterwards."""
        while self._undo:
            owner, name, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        return not leftover_wrappers()


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "levisqueeze" or n.startswith("levisqueeze."))]


def leftover_wrappers() -> list[str]:
    """Names under which a tracing wrapper is still bound."""
    found = []
    for module in _package_modules():
        for name, value in vars(module).items():
            if getattr(value, _MARK, False):
                found.append(f"{module.__name__}.{name}")
            elif isinstance(value, dict) and not name.startswith("__"):
                found += [f"{module.__name__}.{name}[{k!r}]" for k, v in value.items()
                          if getattr(v, _MARK, False)]
            elif inspect.isclass(value):
                found += [f"{module.__name__}.{name}.{k}" for k, v in vars(value).items()
                          if getattr(v, _MARK, False)]
    return found


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer, bytes_out: int) -> dict[str, float]:
    """Per-layer metrics (without trace.overhead_frac) from one traced pass."""
    spans = tracer.spans
    own = self_times(spans)
    calls: Counter = Counter()
    total: Counter = Counter()
    self_by_name: Counter = Counter()
    self_by_layer: Counter = Counter()
    errors: Counter = Counter()
    for s, t_self in zip(spans, own):
        calls[s.name] += 1
        total[s.name] += s.duration
        self_by_name[s.name] += t_self
        self_by_layer[s.layer] += t_self
        errors[s.layer] += s.error
    layer_calls = Counter(s.layer for s in spans)
    # find_threshold probes both bracket ends, then once per bisection step.
    probes: Counter = Counter(
        s.parent for s in spans
        if s.name == "dynamics.stability" and s.parent >= 0
        and spans[s.parent].name == "dynamics.find_threshold"
    )
    bisections = sum(max(0, n - 2) for n in probes.values())
    c = tracer.counters

    def per(value: float, count: float, scale: float) -> float:
        return scale * value / count if count else 0.0

    return {
        "gaussian.drift_from_quadratic_calls": calls["gaussian.drift_from_quadratic"],
        "gaussian.drift_from_quadratic_s": total["gaussian.drift_from_quadratic"],
        "models.drift_at_calls": calls["models.drift_at"],
        "models.drift_at_s": total["models.drift_at"],
        "gaussian.covariance_calls": calls["gaussian.CovarianceMatrix"],
        "gaussian.covariance_s": total["gaussian.CovarianceMatrix"],
        "dynamics.evolve_self_s": self_by_name["dynamics.evolve"],
        "dynamics.evolve_steps": c["evolve_steps"],
        "dynamics.evolve_stored": c["evolve_stored"],
        "dynamics.step_us": per(total["dynamics.evolve"], c["evolve_steps"], 1e6),
        "dynamics.periodic_calls": calls["dynamics.periodic_steady_state"],
        "dynamics.periodic_self_s": self_by_name["dynamics.periodic_steady_state"],
        "dynamics.steady_state_calls": calls["dynamics.steady_state"],
        "dynamics.steady_state_us": per(total["dynamics.steady_state"],
                                        calls["dynamics.steady_state"], 1e6),
        "dynamics.stability_calls": calls["dynamics.stability"],
        "dynamics.threshold_bisections": bisections,
        "dynamics.errors": errors["dynamics"],
        "metrics.sweep_points": c["sweep_points"],
        "metrics.sweep_self_s": self_by_name["metrics.sweep"],
        "metrics.ok_ratio": per(c["sweep_ok"], c["sweep_points"], 1.0),
        "metrics.optimize_over_time_s": total["metrics.optimize_over_time"],
        "metrics.squeezing_metrics_calls": calls["metrics.squeezing_metrics"],
        "figures.calls": layer_calls["figures"],
        "figures.self_s": self_by_layer["figures"],
        "cli.calls": layer_calls["cli"],
        "cli.self_s": self_by_layer["cli"],
        "cli.bytes_out": bytes_out,
        "montecarlo.simulate_self_s": self_by_name["montecarlo.simulate_ensemble"],
        "montecarlo.compare_s": total["montecarlo.compare"],
        "montecarlo.normals_drawn": c["normals_drawn"],
        "montecarlo.traj_step_ns": per(total["montecarlo.simulate_ensemble"],
                                       c["traj_steps"], 1e9),
        "montecarlo.max_z": c["max_z"],
    }


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
