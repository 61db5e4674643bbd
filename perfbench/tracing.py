"""Spans around calls that cross from one zmeasures module into another.

``install`` replaces public names where the *calling* module looks them up
(``zmeasures.kernels.whittaker_W``, ``zmeasures.pfaffian.matrix_kernel``,
...), so the library runs unchanged and every span marks a layer boundary.
Each integrand handed to quadrature is wrapped too, so time spent in kernel
code called back from quadrature is not counted as quadrature time.
Integrand calls and partition-generator steps are too many to keep one by
one: each quadrature call gets one integrand span, and each generator one
span, that add up busy time and call counts.

Spans are kept in memory as lists (see the field indices below) and written
out by ``dump`` when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import time

clock = time.perf_counter

NAME, LAYER, START, END, PARENT, OP, ERROR, BUSY, COUNT = range(9)

# (module that calls, public name it looks up, layer the name belongs to)
CALLS = [
    ("kernels", "whittaker_W", "specfun"),
    ("kernels", "whittaker_W_deriv", "specfun"),
    ("kernels", "whittaker_W_second", "specfun"),
    ("kernels", "whittaker_W_third", "specfun"),
    ("cli", "whittaker_W", "specfun"),
    ("cli", "whittaker_W_deriv", "specfun"),
    ("kernels", "adaptive_gauss_legendre", "quadrature"),
    ("specfun", "adaptive_gauss_legendre", "quadrature"),
    ("pfaffian", "matrix_kernel", "kernels"),
    ("cli", "matrix_kernel", "kernels"),
    ("correlations", "assemble", "pfaffian"),
    ("correlations", "pfaffian", "pfaffian"),
    ("correlations", "continuum_correlation", "correlations"),
    ("correlations", "verify_limit", "correlations"),
    ("cli", "continuum_correlation", "correlations"),
    ("cli", "verify_limit", "correlations"),
    ("correlations", "lattice_correlation", "measures"),
    ("measures", "lattice_correlation", "measures"),
    ("cli", "lattice_correlation", "measures"),
]
GENERATORS = [
    ("measures", "iter_partition_tuples", "partitions"),
    ("cli", "iter_partition_tuples", "partitions"),
]
ASYMPTOTIC_X = 40.0  # zmeasures.specfun.ASYMPTOTIC_X: above it no mpmath call


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.errors: list[dict] = []
        self.counts = {"specfun.mpmath_calls": 0, "measures.terms_summed": 0}
        self._last_exc = None

    def _open(self, name: str, layer: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, layer, clock(), None, parent, self.op, None, 0.0, 0])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _raised(self, idx: int, exc: BaseException):
        span = self.spans[idx]
        span[ERROR] = type(exc).__name__
        if exc is not self._last_exc:
            # the first span an exception passes is the innermost one
            self._last_exc = exc
            self.errors.append({"op": span[OP], "layer": span[LAYER], "name": span[NAME],
                                "error": type(exc).__name__, "message": str(exc)[:200]})

    def wrap(self, name: str, layer: str, fn, caller: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer == "specfun" and len(args) > 2 and args[2] <= ASYMPTOTIC_X:
                self.counts["specfun.mpmath_calls"] += 1
            idx = self._open(name, layer)
            if layer == "quadrature":
                # the integrand is code of the module that called quadrature
                args = (self._integrand(args[0], caller),) + args[1:]
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._raised(idx, exc)
                raise
            finally:
                self.stack.pop()
                span = self.spans[idx]
                span[END] = clock()
                span[BUSY] = span[END] - span[START]
                span[COUNT] = 1
            if layer == "measures":
                self.counts["measures.terms_summed"] += result.terms_summed
            return result

        return traced

    def _accumulating(self, name: str, layer: str) -> int:
        """An open span that busy-time and call counts are added to."""
        idx = self._open(name, layer)
        self.stack.pop()
        return idx

    def _integrand(self, f, layer: str):
        idx = self._accumulating("integrand", layer)
        spans, stack = self.spans, self.stack

        def traced(t):
            span = spans[idx]
            stack.append(idx)
            t0 = clock()
            try:
                return f(t)
            except BaseException as exc:
                self._raised(idx, exc)
                raise
            finally:
                t1 = clock()
                stack.pop()
                span[BUSY] += t1 - t0
                span[COUNT] += 1
                span[END] = t1

        return traced

    def wrap_generator(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._accumulating(name, layer)
            span = self.spans[idx]
            gen = fn(*args, **kwargs)
            while True:
                self.stack.append(idx)
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except BaseException as exc:
                    self._raised(idx, exc)
                    raise
                finally:
                    t1 = clock()
                    self.stack.pop()
                    span[BUSY] += t1 - t0
                    span[END] = t1
                span[COUNT] += 1
                yield item

        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "errors": self.errors, "counts": self.counts}

    def merge(self, other: dict, op):
        """Add the spans of a traced child process, as if they ran here."""
        base = len(self.spans)
        for s in other["spans"]:
            s = list(s)
            s[PARENT] = None if s[PARENT] is None else s[PARENT] + base
            s[OP] = op
            self.spans.append(s)
        for e in other["errors"]:
            self.errors.append({**e, "op": op})
        for k, v in other["counts"].items():
            self.counts[k] = self.counts.get(k, 0) + v


def install(tracer: Tracer):
    import importlib

    for mod_name, name, layer in CALLS:
        mod = importlib.import_module(f"zmeasures.{mod_name}")
        setattr(mod, name, tracer.wrap(name, layer, getattr(mod, name), mod_name))
    for mod_name, name, layer in GENERATORS:
        mod = importlib.import_module(f"zmeasures.{mod_name}")
        setattr(mod, name, tracer.wrap_generator(name, layer, getattr(mod, name)))


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(data: dict) -> dict:
    """Per-layer counts and times from the spans of one run."""
    spans, counts = data["spans"], data["counts"]
    child_busy = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child_busy[s[PARENT]] += s[BUSY]

    def of(layer, name=None):
        return [i for i, s in enumerate(spans) if s[LAYER] == layer and (name is None or s[NAME] == name)]

    def self_s(layer):
        return sum((spans[i][BUSY] - child_busy[i] for i in of(layer)), 0.0)

    def busy(idx):
        return sum(spans[i][BUSY] for i in idx)

    def errors(layer):
        return sum(e["layer"] == layer for e in data["errors"])

    def enclosing(i, layer, name):
        p = spans[i][PARENT]
        while p is not None and not (spans[p][LAYER] == layer and spans[p][NAME] == name):
            p = spans[p][PARENT]
        return p

    specfun = [i for i in of("specfun") if spans[i][NAME] != "integrand"]
    blocks = of("kernels", "matrix_kernel")
    specfun_in_block: dict[int, int] = {}
    for i in specfun:
        b = enclosing(i, "kernels", "matrix_kernel")
        if b is not None:
            specfun_in_block[b] = specfun_in_block.get(b, 0) + 1
    cold = [b for b in blocks if b in specfun_in_block]
    warm = [b for b in blocks if b not in specfun_in_block]
    assembles = of("pfaffian", "assemble")
    blocks_in_assemble = sum(enclosing(b, "pfaffian", "assemble") is not None for b in blocks)
    lattice = of("measures")
    gens = of("partitions")
    visited = sum(spans[g][COUNT] for g in gens if enclosing(g, "measures", "lattice_correlation") is not None)
    return {
        "specfun.calls": len(specfun),
        "specfun.mpmath_calls": counts.get("specfun.mpmath_calls", 0),
        "specfun.us_per_call": 1e6 * busy(specfun) / len(specfun) if specfun else 0.0,
        "specfun.self_s": self_s("specfun"),
        "specfun.errors": errors("specfun"),
        "quadrature.calls": len(of("quadrature")),
        "quadrature.integrand_evals": sum(spans[i][COUNT] for i in range(len(spans)) if spans[i][NAME] == "integrand"),
        "quadrature.self_s": self_s("quadrature"),
        "quadrature.errors": errors("quadrature"),
        "kernels.blocks": len(blocks),
        "kernels.cold_blocks": len(cold),
        "kernels.warm_share": len(warm) / len(blocks) if blocks else 0.0,
        "kernels.cold_block_s_p50": _p50([spans[b][BUSY] for b in cold]),
        "kernels.warm_block_s_p50": _p50([spans[b][BUSY] for b in warm]),
        "kernels.specfun_calls_per_cold_block": sum(specfun_in_block.values()) / len(cold) if cold else 0.0,
        "kernels.self_s": self_s("kernels"),
        "pfaffian.assemble_calls": len(assembles),
        "pfaffian.blocks_per_assemble": blocks_in_assemble / len(assembles) if assembles else 0.0,
        "pfaffian.pfaffian_s_p50": _p50([spans[i][BUSY] for i in of("pfaffian", "pfaffian")]),
        "pfaffian.self_s": self_s("pfaffian"),
        "correlations.continuum_s_p50": _p50([spans[i][BUSY] for i in of("correlations", "continuum_correlation")]),
        "correlations.verify_limit_s_p50": _p50([spans[i][BUSY] for i in of("correlations", "verify_limit")]),
        "correlations.self_s": self_s("correlations"),
        "measures.lattice_calls": len(lattice),
        "measures.lattice_s_p50": _p50([spans[i][BUSY] for i in lattice]),
        "measures.partitions_visited": visited,
        "measures.terms_summed": counts.get("measures.terms_summed", 0),
        "measures.hit_ratio": counts.get("measures.terms_summed", 0) / visited if visited else 0.0,
        "measures.us_per_partition": 1e6 * busy(lattice) / visited if visited else 0.0,
        "measures.self_s": self_s("measures"),
        "partitions.yielded": sum(spans[g][COUNT] for g in gens),
        "partitions.self_s": self_s("partitions"),
        "trace.spans": len(spans),
    }
