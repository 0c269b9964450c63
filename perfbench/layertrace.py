"""Outside-in layer trace of the seven wignerkit modules.

Every public function of each module is replaced by a wrapper that records a
span (function, start, end, parent span, op id).  The wrapper is also bound
under every name another module imported it as (``wigner.jacobi_eval``,
``cli.run_suite``, ...) and on ``HaarGrid.matrices``, so calls between layers
are seen as well as calls into them.  Nothing inside ``src/`` changes.

Spans are kept in flat typed arrays (28 bytes each: a haar-grid op makes about
a quarter of a million ``binomial`` spans) and written out once, at the end of
the run.
A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over the spans of its functions.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("exactcomb", "specfun", "group", "wigner", "haar", "verify", "cli")
SUITES = {
    "routes": "suite_routes",
    "unitarity": "suite_unitarity",
    "homomorphism": "suite_homomorphism",
    "schur": "suite_schur",
    "character": "suite_character",
    "jacobi-orth": "suite_jacobi_orth",
    "legendre": "suite_legendre",
    "krawtchouk-sym": "suite_krawtchouk_sym",
    "identities": "identity_checks",
}
CLOSED_ROUTES = ("tmn_sum", "tmn_hyp", "tmn_hyp_symmetric", "tmn_jacobi", "tmn_rodrigues", "tmn_krawtchouk")
COMPLEX_BYTES = np.dtype(complex).itemsize


def load_modules() -> dict:
    return {layer: importlib.import_module(f"wignerkit.{layer}") for layer in LAYERS}


def coeff_caches(modules) -> list:
    """The exact-coefficient caches that every invocation starts cold."""
    specfun = modules["specfun"]
    return [specfun.hyp2f1_series_coeffs, specfun._jacobi_coeffs_cached]


def clear_caches(caches) -> None:
    for cache in caches:
        cache.cache_clear()


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class LayerTrace:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.caches = coeff_caches(modules)  # taken before install() rebinds them
        self.names: list[str] = []  # function id -> "layer.function"
        self.layer_of: list[int] = []  # function id -> index into LAYERS
        self.fns = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self.op_records: list[dict] = []
        self._patches = self._build_patches()

    # -- wrapping -----------------------------------------------------------

    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        return len(self.names) - 1

    def _span(self, fn, fid: int):
        fns, parents, ops = self.fns, self.parents, self.ops
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter
        trace = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fns)
            fns.append(fid)
            parents.append(stack[-1])
            ops.append(trace.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _count_stacks(self, matrices):
        counts = self.counts

        @functools.wraps(matrices)
        def counted(grid, l):
            # HaarGrid keeps one stack per spin in grid._matrices; a miss builds it.
            if l.twice not in grid._matrices:
                counts["haar.matrices.stack_builds"] += 1
                counts["haar.stack_bytes"] += grid.node_count * (l.twice + 1) ** 2 * COMPLEX_BYTES
            return matrices(grid, l)

        return counted

    def _count_nodes(self, build_grid):
        counts = self.counts

        @functools.wraps(build_grid)
        def counted(*args, **kwargs):
            grid = build_grid(*args, **kwargs)
            counts["haar.grid_nodes"] += grid.node_count
            return grid

        return counted

    def _build_patches(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        wrappers = {}
        for layer, module in self.modules.items():
            for name, fn in _public_functions(module):
                inner = self._count_nodes(fn) if (layer, name) == ("haar", "build_grid") else fn
                wrappers[id(fn)] = self._span(inner, self._register(f"{layer}.{name}", layer))
        patches = [
            (module, name, obj, wrappers[id(obj)])
            for module in self.modules.values()
            for name, obj in vars(module).items()
            if id(obj) in wrappers
        ]
        grid_cls = self.modules["haar"].HaarGrid
        method = grid_cls.matrices
        traced = self._span(self._count_stacks(method), self._register("haar.matrices", "haar"))
        patches.append((grid_cls, "matrices", method, traced))
        return patches

    def install(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    # -- per-op bookkeeping -------------------------------------------------

    def run_op(self, op_id: int, call):
        """Run call() as op op_id with cold caches; record its counters."""
        clear_caches(self.caches)
        before = Counter(self.counts)
        self.op_id = op_id
        try:
            return call()
        finally:
            self.op_id = -1
            infos = [cache.cache_info() for cache in self.caches]
            self.op_records.append({
                "op": op_id,
                **(self.counts - before),
                "cache_hits": sum(info.hits for info in infos),
                "cache_misses": sum(info.misses for info in infos),
            })

    # -- results ------------------------------------------------------------

    def _arrays(self):
        fn = np.frombuffer(self.fns, dtype=np.int32).astype(np.intp)
        parent = np.frombuffer(self.parents, dtype=np.int32).astype(np.intp)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(fn))
        return fn, parent, dur, dur - child

    def metrics(self, n_ops: int) -> dict:
        """Per-op averages of every per-layer metric the benchmark declares."""
        names = {name: fid for fid, name in enumerate(self.names)}
        n_fn = len(self.names)
        fn, parent, dur, self_t = self._arrays()
        calls = np.bincount(fn, minlength=n_fn)
        self_by_fn = np.bincount(fn, weights=self_t, minlength=n_fn)
        layer_of = np.asarray(self.layer_of, dtype=np.intp)
        parent_fn = np.where(parent >= 0, fn[np.maximum(parent, 0)], -1)

        def total(fids, under=None):
            # Inclusive time of the group's spans that do not sit directly in
            # another span of the group (or, with `under`, that sit in it).
            mask = np.isin(fn, fids)
            mask &= np.isin(parent_fn, fids, invert=True) if under is None else parent_fn == under
            return float(dur[mask].sum())

        out = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = float(self_by_fn[layer_of == i].sum())
            out[f"{layer}.calls"] = int(calls[layer_of == i].sum())
        for name in ("specfun.jacobi_eval", "exactcomb.binomial", "wigner.oracle_matrix",
                     "haar.matrices", "haar.pairwise_sum"):
            out[f"{name}.calls"] = int(calls[names[name]])
        for name in ("specfun.jacobi_eval", "specfun.krawtchouk", "haar.schur_check", "haar.pairwise_sum"):
            out[f"{name}.self_s"] = float(self_by_fn[names[name]])
        for name in ("wigner.oracle_matrix", "wigner.dmatrix_euler", "haar.matrices", "cli.main"):
            out[f"{name}.total_s"] = total([names[name]])
        out["wigner.closed_routes.total_s"] = total([names[f"wigner.{r}"] for r in CLOSED_ROUTES])
        run_suite = names["verify.run_suite"]
        for suite, func in SUITES.items():
            out[f"verify.suite.{suite}.total_s"] = total([names[f"verify.{func}"]], under=run_suite)

        per_op = {k: v / n_ops for k, v in out.items()}
        totals = Counter()
        for record in self.op_records:
            totals.update({k: v for k, v in record.items() if k != "op"})
        lookups = totals["cache_hits"] + totals["cache_misses"]
        per_op["specfun.coeff_cache.lookups"] = lookups / n_ops
        per_op["specfun.coeff_cache.hit_ratio"] = totals["cache_hits"] / lookups if lookups else 0.0
        builds, stack_calls = totals["haar.matrices.stack_builds"], out["haar.matrices.calls"]
        per_op["haar.matrices.stack_builds"] = builds / n_ops
        per_op["haar.matrices.reuse_ratio"] = 1 - builds / stack_calls if stack_calls else 0.0
        per_op["haar.stack_bytes"] = totals["haar.stack_bytes"] / n_ops
        per_op["haar.grid_nodes"] = totals["haar.grid_nodes"] / n_ops
        return per_op

    def write_spans(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            fn=np.frombuffer(self.fns, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            op=np.frombuffer(self.ops, dtype=np.int32),
            start=np.frombuffer(self.starts),
            end=np.frombuffer(self.ends),
        )
