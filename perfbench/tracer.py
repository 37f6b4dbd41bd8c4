"""Spans around conelab's module functions, installed from outside the package.

`Tracer.install()` wraps every function defined in a conelab module and
rebinds the wrapper in *every* conelab module namespace that holds the
original, because `from .lp import solve_standard_min` gives `delone` its
own binding that patching `conelab.lp` alone would miss.  `uninstall()`
puts the originals back, so traced and untraced passes can alternate in
one process.

Spans are aggregated as they close instead of being stored one by one (an
interior-dicing pass makes over ten thousand calls): per function the
call count, total and self time; per (caller, callee) edge the call count
and time.  A span's self time is its duration minus the time of the spans
it opened, so the self times of all spans add up to the time the root
spans cover, and `wall - covered` is the time no span covers.
"""

from __future__ import annotations

import importlib
import pkgutil
import time
import types
from collections import defaultdict

MODULES = ("exact", "lp", "tumatrix", "matroids", "quadforms", "cones",
           "delone", "verify", "cli")

# private functions of the Delone hull walk that the public spans hide;
# ROADMAP item 2 targets exactly these, so they get spans of their own
PRIVATE_SPANS = {
    "delone": ("_locate_cell", "_cross_facet", "_facets_of_cell",
               "_cell_meets_box", "_ellipsoid_inside_window",
               "_degenerate_delone"),
}


def _extra_solve_standard_min(stats, args, kwargs, result, exc):
    c = args[0] if args else kwargs["c"]
    a_eq = args[1] if len(args) > 1 else kwargs["a_eq"]
    stats["rows"] += len(a_eq)
    stats["columns"] += len(c)
    if exc is None and result.status != "optimal":
        stats["non_optimal"] += 1


def _extra_delone_subdivision(stats, args, kwargs, result, exc):
    if exc is not None:
        if type(exc).__name__ == "WindowError":
            stats["window_errors"] += 1
    else:
        stats["cells"] += len(result.cells)


def _extra_enumerate_in_ellipsoid(stats, args, kwargs, result, exc):
    if exc is None:
        stats["points"] += len(result)


# work counts read off a call's arguments and result, keyed by span name
EXTRA = {
    "lp.solve_standard_min": _extra_solve_standard_min,
    "delone.delone_subdivision": _extra_delone_subdivision,
    "quadforms.enumerate_in_ellipsoid": _extra_enumerate_in_ellipsoid,
}


def conelab_modules() -> list:
    """The package, its nine modules and any subpackage (fixtures)."""
    import conelab

    mods = [conelab]
    for info in pkgutil.walk_packages(conelab.__path__, "conelab."):
        mods.append(importlib.import_module(info.name))
    return mods


class Tracer:
    """Aggregated spans over conelab's functions; see the module docstring."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.edges = defaultdict(lambda: [0, 0.0])  # (parent, name) -> [calls, s]
        self.extra = defaultdict(lambda: defaultdict(int))
        self.covered_s = 0.0
        self._stack = []  # [name, child seconds]
        self._patched = []  # (namespace, attribute, original)

    def reset(self) -> None:
        self.calls.clear()
        self.total_s.clear()
        self.self_s.clear()
        self.edges.clear()
        self.extra.clear()
        self.covered_s = 0.0

    def _wrap(self, name: str, fn):
        extra = EXTRA.get(name)
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[1]
                parent = stack[-1][0] if stack else None
                edge = self.edges[(parent, name)]
                edge[0] += 1
                edge[1] += dur
                if stack:
                    stack[-1][1] += dur
                else:
                    self.covered_s += dur
                if extra is not None:
                    extra(self.extra[name], args, kwargs, result, exc)

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        span.__doc__ = getattr(fn, "__doc__", None)
        return span

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = conelab_modules()
        wrappers = {}  # id(original) -> wrapper
        for short in MODULES:
            mod = importlib.import_module(f"conelab.{short}")
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE_SPANS.get(short, ()):
                    continue
                name = f"{short}.{attr}"
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for mod in mods:
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((ns, attr, obj))
                    ns[attr] = hit[1]

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patched):
            ns[attr] = obj
        self._patched.clear()

    def module_self_s(self) -> dict:
        out = defaultdict(float)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return dict(out)

    def snapshot(self) -> dict:
        """Everything recorded, as plain JSON-ready data."""
        return {
            "functions": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total_s[name],
                    "self_s": self.self_s[name],
                    **dict(self.extra.get(name, {})),
                }
                for name in sorted(self.calls)
            },
            "edges": [
                {"parent": p, "child": c, "calls": n, "total_s": s}
                for (p, c), (n, s) in sorted(self.edges.items(),
                                             key=lambda kv: (str(kv[0][0]), kv[0][1]))
            ],
            "modules_self_s": self.module_self_s(),
            "covered_s": self.covered_s,
        }
