"""Outside-in span tracer for eqchow's layers.

The tracer wraps the library's public functions and kernel methods from the
benchmark's own files; nothing under ``src/`` changes.  ``install`` replaces a
target at every binding site: the defining module, every eqchow module that
re-bound it with ``from .x import y`` (``pipeline``, ``localization``,
``verify``, ``cli`` and the package itself do), and every class attribute that
aliases it, so ``Polynomial.__rmul__`` is traced together with ``__mul__``.

Each wrapped call is a span.  Per span name the tracer keeps the call count,
the inclusive seconds ``s`` (outermost call only, so recursion is not counted
twice), the self seconds ``self_s`` (duration minus the time covered by child
spans) and size counters.  A counter whose name ends in ``_max`` merges by
maximum, every other field by sum.  Spans live in memory; the caller reads
``stats`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _terms_out(stat, args, result, token):
    if result is not NotImplemented:
        stat["terms_out"] = stat.get("terms_out", 0) + len(result)


def _terms_in_out_max(stat, args, result, token):
    stat["terms_in_max"] = max(stat.get("terms_in_max", 0), len(args[0]))
    _terms_out_max(stat, args, result, token)


def _terms_out_max(stat, args, result, token):
    stat["terms_out_max"] = max(stat.get("terms_out_max", 0), len(result))


def _lattice_shape(stat, args, result, token):
    stat["dim_max"] = max(stat.get("dim_max", 0), result.dim)
    stat["rank_max"] = max(stat.get("rank_max", 0), result.rank)


def _insert_changed(stat, args, result, token):
    stat["changed"] = stat.get("changed", 0) + bool(result)


def _hnf_is_fresh(args):
    # hnf() caches its result; only a recomputation sees the echelon rows.
    return getattr(args[0], "_hnf", None) is None


def _echelon_bits(stat, args, result, token):
    if token:
        bits = max(
            (abs(x).bit_length() for row in args[0].rows for x in row), default=0
        )
        stat["entry_bits_max"] = max(stat.get("entry_bits_max", 0), bits)


# (module, attribute path, span name, pre-hook, post-hook).  Hooks run outside
# the timed interval.  ``_try_exact_divide`` is the kernel behind
# ``exact_divide``, ``divides`` and ``StructuredFraction.reduced``.
TARGETS = (
    ("eqchow.poly", "Polynomial.__mul__", "poly.mul", None, _terms_out),
    ("eqchow.poly", "Polynomial.mono_shift", "poly.mono_shift", None, None),
    ("eqchow.poly", "Polynomial.substitute", "poly.substitute", None, None),
    ("eqchow.poly", "_try_exact_divide", "poly.exact_divide", None, None),
    ("eqchow.poly", "sum_fractions", "poly.sum_fractions", None, None),
    ("eqchow.symfunc", "symmetric_to_chern", "symfunc.symmetric_to_chern", None, _terms_in_out_max),
    ("eqchow.symfunc", "total_chern_poly", "symfunc.total_chern_poly", None, _terms_out_max),
    ("eqchow.symfunc", "is_symmetric", "symfunc.is_symmetric", None, None),
    ("eqchow.symfunc", "e_top", "symfunc.e_top", None, None),
    ("eqchow.localization", "veronese_pushforward", "localization.veronese_pushforward", None, None),
    ("eqchow.localization", "closed_form_pushforward", "localization.closed_form_pushforward", None, None),
    ("eqchow.ideal", "GradedIdeal.lattice", "ideal.lattice", None, _lattice_shape),
    ("eqchow.ideal", "GradedIdeal.simplified_generators", "ideal.simplified_generators", None, None),
    ("eqchow.ideal", "IntegerLattice.insert", "ideal.insert", None, _insert_changed),
    ("eqchow.ideal", "IntegerLattice.hnf", "ideal.hnf", _hnf_is_fresh, _echelon_bits),
    ("eqchow.ideal", "IntegerLattice.contains", "ideal.contains", None, None),
    ("eqchow.ideal", "IntegerLattice.reduce", "ideal.reduce", None, None),
    ("eqchow.ideal", "compare_up_to", "ideal.compare_up_to", None, None),
    ("eqchow.pipeline", "projective_bundle", "pipeline.projective_bundle", None, None),
    ("eqchow.pipeline", "excise_veronese", "pipeline.excise_veronese", None, None),
    ("eqchow.pipeline", "torsor_quotient", "pipeline.torsor_quotient", None, None),
    ("eqchow.pipeline", "alpha_family", "pipeline.alpha_family", None, None),
    ("eqchow.pipeline", "chern_series_divide", "pipeline.chern_series_divide", None, None),
    ("eqchow.pipeline", "m01", "pipeline.m01", None, None),
    ("eqchow.pipeline", "reduced_quadrics", "pipeline.reduced_quadrics", None, None),
    ("eqchow.pipeline", "orthogonal", "pipeline.orthogonal", None, None),
    ("eqchow.cli", "run", "cli.run", None, None),
)


class Tracer:
    """Collects span statistics; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, dict] = {}
        self._stack: list[list[float]] = []

    def wrap(self, name, fn, pre=None, post=None):
        """Return ``fn`` wrapped in a span named ``name``."""
        stat = self.stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        stack = self._stack
        clock = self.clock
        depth = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = pre(args) if pre else None
            children = [0.0]
            stack.append(children)
            depth[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[0] -= 1
                if stack:
                    stack[-1][0] += dt
                stat["calls"] += 1
                stat["self_s"] += dt - children[0]
                if not depth[0]:
                    stat["s"] += dt
            if post:
                post(stat, args, result, token)
            return result

        return traced

    def install(self, targets=TARGETS):
        """Wrap every target at every binding site.  Raises if a target no
        longer exists, so a renamed function cannot silently drop out of the
        trace."""
        importlib.import_module("eqchow.cli")  # imports every module
        namespaces = [
            module
            for name, module in list(sys.modules.items())
            if name == "eqchow" or name.startswith("eqchow.")
        ]
        for module_name, path, name, pre, post in targets:
            owner = importlib.import_module(module_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self.wrap(name, original, pre, post)
            holders = [owner] if cls_path else namespaces
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)


def merge(into: dict, stats: dict) -> dict:
    """Fold one process's span statistics into an aggregate."""
    for name, stat in stats.items():
        agg = into.setdefault(name, {})
        for key, value in stat.items():
            if key.endswith("_max"):
                agg[key] = max(agg.get(key, 0), value)
            else:
                agg[key] = agg.get(key, 0) + value
    return into


def layer_value(stats: dict, metric: str) -> float:
    """Value of a per-layer metric such as ``ideal.insert.self_s`` from
    aggregated statistics; a span that never ran reads 0."""
    name, field = metric.rsplit(".", 1)
    stat = stats.get(name, {})
    if field == "changed_ratio":
        return stat.get("changed", 0) / stat["calls"] if stat.get("calls") else 0.0
    if field == "max_entry_bits":
        field = "entry_bits_max"
    if field.endswith("_max") or field in ("calls", "s", "self_s", "terms_out"):
        return stat.get(field, 0)
    raise KeyError(metric)


def format_table(stats: dict) -> str:
    """Human-readable table of the spans that ran, slowest self time first."""
    lines = [f"{'span':<40} {'calls':>10} {'s':>10} {'self_s':>10}  counters"]
    ran = [kv for kv in stats.items() if kv[1]["calls"]]
    for name, stat in sorted(ran, key=lambda kv: -kv[1]["self_s"]):
        extra = " ".join(
            f"{k}={v}" for k, v in sorted(stat.items()) if k not in ("calls", "s", "self_s")
        )
        lines.append(
            f"{name:<40} {stat['calls']:>10} {stat['s']:>10.4f} {stat['self_s']:>10.4f}  {extra}"
        )
    return "\n".join(lines)
