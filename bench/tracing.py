"""Per-layer tracing from outside the library.

Every public function of the layer modules is wrapped, and the wrapper is
rebound under each name it has in every affinetest module, so calls between
modules, and calls inside a module through its globals, all pass through it.
Polynomial.values is wrapped on the class.  A span records its name, start,
end and parent; spans stay in memory and are written out once at the end.
The functools caches' own counters (cache_info) give the hit ratios.
Nothing in the library changes; uninstall() restores every binding.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("field", "forms", "gowers", "poly", "factor", "decompose", "tester", "cli")
TABLE_ROWS = 25  # spans in the printed per-layer table, largest self time first
# Helpers called per point, per coordinate or per term: wrapping them would
# measure the wrapper, and their time belongs to the caller's self time
# (pow_mod_array to poly.values).  gowers_norm_values is the body of
# gowers_norm, so its time stays in gowers_norm's self time.
UNWRAPPED = {
    "canonical_index", "index_to_vec", "vec_add", "vec_scale", "e_p", "unit_roots", "is_prime",
    "eval_form", "cell_of_index", "eval_factor", "gowers_norm_values", "pow_mod_array",
}

# name, unit: the per-layer metrics of BENCHMARK.json, in its order
PER_LAYER = (
    ("field.restrict_to_affine_span.calls", "count"),
    ("field.restrict_to_affine_span.self_s", "s"),
    ("forms.grid_point_indices.calls", "count"),
    ("forms.grid_point_indices.self_s", "s"),
    ("tester.affine_subspace_test.self_s", "s"),
    ("tester.trials_per_s", "1/s"),
    ("tester.violation_count.self_s", "s"),
    ("tester.find_induced_occurrence.self_s", "s"),
    ("tester.tuples_scanned", "count"),
    ("gowers.inverse_gowers_search.calls", "count"),
    ("gowers.inverse_gowers_search.self_s", "s"),
    ("gowers.inverse_gowers_search.candidates", "count"),
    ("gowers.gowers_norm.self_s", "s"),
    ("gowers.gowers_norm.exact_calls", "count"),
    ("gowers.gowers_norm.monte_carlo_calls", "count"),
    ("poly.values.calls", "count"),
    ("poly.values.self_s", "s"),
    ("poly.values.cache_hit_ratio", "ratio"),
    ("factor.bias_certificate.calls", "count"),
    ("factor.bias_certificate.self_s", "s"),
    ("factor.bias_certificate.points_scored", "count"),
    ("factor.conditional_expectation.self_s", "s"),
    ("factor.represents.self_s", "s"),
    ("factor.cell_index_array.cache_hit_ratio", "ratio"),
    ("factor.cell_histogram.self_s", "s"),
    ("factor.pattern_count.self_s", "s"),
    ("decompose.refine_step.calls", "count"),
    ("decompose.super_decompose.self_s", "s"),
    ("decompose.strong_decompose.self_s", "s"),
    ("decompose.select_subcell.self_s", "s"),
    ("decompose.cleanup.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("trace.overhead_s", "s"),
)


def _monomial_count(p: int, n: int, d: int) -> int:
    """Reduced monomials of total degree <= d (exponents <= p - 1)."""
    return sum(1 for e in itertools.product(range(min(p - 1, d) + 1), repeat=n) if sum(e) <= d)


def _counters(name, bound, result) -> dict:
    """Work counts derived from a call's inputs (and, for bias, its result)."""
    a = bound.arguments
    if name == "tester.affine_subspace_test":
        return {"tester.trials": a["trials"]}
    if name == "tester.violation_count" or (
        name == "tester.find_induced_occurrence" and a["mode"] == "exhaustive"
    ):
        return {"tester.tuples_scanned": a["f"].params.size ** a["ic"].constraint.ell}
    if name == "gowers.inverse_gowers_search":
        params = a["f"].params
        return {"gowers.inverse_gowers_search.candidates":
                params.p ** _monomial_count(params.p, params.n, a["d"])}
    if name == "gowers.gowers_norm":
        key = "exact_calls" if a["mode"] == "exact" else "monte_carlo_calls"
        return {f"gowers.gowers_norm.{key}": 1}
    if name == "factor.bias_certificate":
        params = a["factor"].params(a["params"])
        return {"factor.bias_certificate.points_scored": result.checked_combinations * params.size}
    return {}


COUNTED = {"tester.affine_subspace_test", "tester.violation_count", "tester.find_induced_occurrence",
           "gowers.inverse_gowers_search", "gowers.gowers_norm", "factor.bias_certificate"}


class Tracer:
    def __init__(self):
        import importlib

        from affinetest import factor, poly

        for layer in LAYERS:
            importlib.import_module(f"affinetest.{layer}")

        self._caches = {"poly.values": poly._poly_values,
                        "factor.cell_index_array": factor._cell_index_array}
        self._modules = [m for k, m in sorted(sys.modules.items())
                         if k == "affinetest" or k.startswith("affinetest.")]
        self._targets = {}  # original function -> span name
        for layer in LAYERS:
            mod = sys.modules[f"affinetest.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in UNWRAPPED):
                    self._targets[obj] = f"{layer}.{attr}"
        self._poly_cls = poly.Polynomial
        self._patches = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start ns, end ns, parent index, round)
        self._stack: list[int] = []
        self._round = -1
        self._counts = defaultdict(int)
        self._cache_stats = defaultdict(lambda: [0, 0])
        self.rounds: list[dict] = []

    # --- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        spans, stack, counts = self.spans, self._stack, self._counts
        sig = inspect.signature(fn) if name in COUNTED else None
        perf = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (nid, t0, perf(), parent, self._round)
                stack.pop()
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, v in _counters(name, bound, result).items():
                    counts[key] += v
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {fn: self._wrap(fn, name) for fn, name in self._targets.items()}
        for mod in self._modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        orig = self._poly_cls.values
        self._patches.append((self._poly_cls, "values", orig))
        self._poly_cls.values = self._wrap(orig, "poly.values")

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    # --- rounds -------------------------------------------------------------

    def absorb_caches(self) -> None:
        """Add the caches' hit/miss counters; call before every cache clear."""
        for key, cached in self._caches.items():
            info = cached.cache_info()
            self._cache_stats[key][0] += info.hits
            self._cache_stats[key][1] += info.misses

    def start_round(self) -> None:
        self._round += 1
        self._counts.clear()
        self._cache_stats.clear()
        self._first_span = len(self.spans)
        self.install()

    def end_round(self, bytes_written: int) -> None:
        """Close a round after uninstall(); bytes_written is what its CLI
        calls wrote, summed by the caller from the collected outputs."""
        self.absorb_caches()
        self.rounds.append(self._round_metrics(bytes_written))

    def _round_metrics(self, bytes_written: int) -> dict:
        rows = np.array(self.spans[self._first_span:], dtype=np.int64).reshape(-1, 5)
        nid, dur = rows[:, 0], (rows[:, 2] - rows[:, 1]) / 1e9
        parent = rows[:, 3] - self._first_span
        child = np.zeros(len(rows))
        has_parent = rows[:, 3] >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        out = dict(self._counts)
        for i, name in enumerate(self.names):
            sel = nid == i
            out[f"{name}.calls"] = int(sel.sum())
            out[f"{name}.self_s"] = float(self_s[sel].sum())
            out[f"{name}.total_s"] = float(dur[sel].sum())
        trials = out.get("tester.trials", 0)
        busy = out.get("tester.affine_subspace_test.total_s", 0.0)
        out["tester.trials_per_s"] = trials / busy if busy else 0.0
        for key, (hits, misses) in self._cache_stats.items():
            out[f"{key}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["cli.bytes_written"] = bytes_written
        return out

    # --- results ------------------------------------------------------------

    def _median(self, key) -> float:
        return statistics.median(r.get(key, 0) for r in self.rounds)

    def metrics(self, overhead_s: float) -> dict:
        out = {}
        for name, unit in PER_LAYER:
            value = overhead_s if name == "trace.overhead_s" else self._median(name)
            out[name] = {"value": value, "unit": unit}
        return out

    def table(self) -> str:
        rows = sorted(((self._median(f"{n}.self_s"), self._median(f"{n}.total_s"),
                        self._median(f"{n}.calls"), n) for n in self.names), reverse=True)
        lines = [f"per-round medians over {len(self.rounds)} traced round(s)",
                 f"{'span':44s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}"]
        for self_s, total_s, calls, name in rows[:TABLE_ROWS]:
            if calls:
                lines.append(f"{name:44s} {calls:9.0f} {total_s:10.4f} {self_s:10.4f}")
        return "\n".join(lines)

    def dump(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for nid, t0, t1, parent, rnd in self.spans:
                fh.write(json.dumps({"name": self.names[nid], "start_ns": t0, "end_ns": t1,
                                     "parent": parent, "round": rnd}) + "\n")
        return path
