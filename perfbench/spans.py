"""Per-layer tracing of twistkit from outside the package.

`install()` wraps the public functions and methods named in LAYERS with a
span that measures self time (span duration minus the time covered by
nested spans) and counts calls.  A function is rebound in every twistkit
module that holds it, because several modules import functions by name
(`twist.solve_sparse`, `cli.quantum_R_image`, ...): wrapping only the
defining module would miss those calls.

Spans are aggregated per layer as they close instead of being stored one
by one: one `check` batch makes over half a million `mono_mul` calls.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import Counter, defaultdict

# layer -> the functions it covers, as (twistkit submodule, qualified name)
LAYERS = {
    "linsolve.solve_sparse": [("linsolve", "solve_sparse")],
    "twist.solve_order": [("twist", "solve_order")],
    "twist.twist_residual_series": [("twist", "twist_residual_series")],
    "twist.symmetrize_order": [("twist", "symmetrize_order")],
    "twist.instantiate": [("twist", "TwistAnsatz.instantiate")],
    "pbw.mono_mul": [("pbw", "mono_mul")],
    "pbw.Element.mul": [("pbw", "Element.__mul__")],
    "tensor.TensorElement.mul": [("tensor", "TensorElement.__mul__")],
    "tensor.TensorElement3.mul": [("tensor", "TensorElement3.__mul__")],
    "hseries.HSeries.mul": [("hseries", "HSeries.__mul__")],
    "deform.phi": [("deform", "phi")],
    "rmatrix.quantum_R_image": [("rmatrix", "quantum_R_image")],
    "rmatrix.quasitriangular_residual": [("rmatrix", "quasitriangular_residual")],
    "reps.evaluate": [("reps", "evaluate")],
    "reps.RepMatrix.mul": [("reps", "RepMatrix.__mul__")],
    # rendering of command output
    "cli.format": [("tensor", "tensor_to_str"), ("tensor", "tensor_to_json"),
                   ("pbw", "element_to_json"), ("cli", "_json_dumps"),
                   ("cli", "format_phi_series"), ("reps", "RepMatrix.to_json"),
                   ("reps", "RepMatrix.render_text")],
}


class Tracer:
    """Self time and call counts per span name, from nested spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []                  # per open span: time covered by children
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.mono_keys = set()           # distinct mono_mul arguments
        self.solves = []                 # problem size of each solve_sparse call

    def wrap(self, name, fn, after=None):
        """fn inside a span called `name`; after(args, result) runs once the
        span has closed, so its bookkeeping is not charged to `name`.  The
        enclosing span is charged for none of the wrapper: the whole time
        from entering it to leaving it, bookkeeping and `after` included,
        counts as covered by this span."""
        clock, stack = self.clock, self.stack
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_enter = clock()
            try:
                covered = [0.0]
                stack.append(covered)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    self_s[name] += dur - covered[0]
                    calls[name] += 1
                if after is not None:
                    after(args, result)
                return result
            finally:
                if stack:
                    stack[-1][0] += clock() - t_enter

        return traced

    def _after_mono_mul(self, args, result):
        self.mono_keys.add((args[0], args[1]))

    def _after_solve_sparse(self, args, result):
        rows, _, ncols = args
        bits = 0
        for vec in [result.particular or []] + result.nullspace:
            for c in vec:
                if c:
                    bits = max(bits, c.numerator.bit_length(),
                               c.denominator.bit_length())
        self.solves.append({
            "rows": len(rows), "cols": ncols,
            "nnz": sum(len(r) for r in rows),
            "rank": len(result.pivot_log),
            "kernel_dim": len(result.nullspace),
            "status": result.status, "coeff_bits_max": bits})

    def raw(self) -> dict:
        """The aggregates of this process, in a form `merge` can add up."""
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "distinct": len(self.mono_keys), "solves": self.solves}


def merge(raws) -> dict:
    """Add up the aggregates of several traced processes."""
    total = {"self_s": Counter(), "calls": Counter(), "distinct": 0, "solves": []}
    for raw in raws:
        total["self_s"].update(raw["self_s"])
        total["calls"].update(raw["calls"])
        total["distinct"] += raw["distinct"]
        total["solves"].extend(raw["solves"])
    return total


def layer_metrics(raw) -> dict:
    """The per-layer metrics, zero for layers that were never called.
    Problem sizes are summed over solve_sparse calls; `distinct` counts
    distinct mono_mul arguments per process, summed over processes."""
    out = {f"{layer}.self_s": raw["self_s"].get(layer, 0.0) for layer in LAYERS}
    for layer in ("linsolve.solve_sparse", "pbw.mono_mul",
                  "tensor.TensorElement.mul", "hseries.HSeries.mul"):
        out[f"{layer}.calls"] = raw["calls"].get(layer, 0)
    out["pbw.mono_mul.distinct"] = raw["distinct"]
    solves = raw["solves"]
    sizes = {key: sum(s[key] for s in solves)
             for key in ("rows", "cols", "nnz", "rank", "kernel_dim")}
    for key, total in sizes.items():
        out[f"linsolve.solve_sparse.{key}"] = total
    out["linsolve.solve_sparse.inconsistent"] = sum(
        s["status"] == "inconsistent" for s in solves)
    out["linsolve.solve_sparse.pivot_yield"] = (
        sizes["rank"] / sizes["rows"] if sizes["rows"] else 0.0)
    out["linsolve.solve_sparse.coeff_bits_max"] = max(
        (s["coeff_bits_max"] for s in solves), default=0)
    return out


def twistkit_modules() -> list:
    """The twistkit package and every submodule, imported."""
    pkg = importlib.import_module("twistkit")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"twistkit.{info.name}"))
    return mods


def _resolve(module, qualname):
    """(owner, attribute) of a dotted name inside a module."""
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def rebind(modules, owner, attr, wrapper) -> None:
    """Point every binding of owner.attr in `modules` at wrapper."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)


def missed_bindings(modules, originals) -> list:
    """Names in `modules` still bound to one of the unwrapped originals."""
    ids = {id(fn) for fn in originals}
    missed = []
    for mod in modules:
        for name, value in vars(mod).items():
            if id(value) in ids:
                missed.append(f"{mod.__name__}.{name}")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                missed.extend(f"{mod.__name__}.{name}.{attr}"
                              for attr, member in vars(value).items()
                              if id(member) in ids)
    return sorted(missed)


def install(tracer: Tracer) -> list:
    """Wrap every layer function in every twistkit module that binds it.
    Returns the names a wrapper failed to reach (empty when all are)."""
    modules = twistkit_modules()
    by_name = {m.__name__: m for m in modules}
    after = {"pbw.mono_mul": tracer._after_mono_mul,
             "linsolve.solve_sparse": tracer._after_solve_sparse}
    originals = []
    for layer, targets in LAYERS.items():
        for modname, qualname in targets:
            owner, attr = _resolve(by_name[f"twistkit.{modname}"], qualname)
            fn = getattr(owner, attr)
            originals.append(fn)
            rebind(modules, owner, attr, tracer.wrap(layer, fn, after.get(layer)))
    return missed_bindings(modules, originals)
