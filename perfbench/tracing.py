"""Spans around the calls into each idemod layer, for the traced run only.

Modules import their dependencies by name (``from .arith import
build_modulus``), so a wrapper installed only where a function is defined
misses the calls made from other modules.  ``Tracer.install`` puts one
wrapper into every idemod namespace that binds the function.  The wrapper
sits outside any ``lru_cache``, so cache hits are spans too, and it keeps
``cache_info``/``cache_clear`` reachable.

Each span has a name, start, end, parent span and operation id.  Self time is
a span's duration minus the time its child spans cover; it is accumulated as
spans close, so the per-layer numbers cover every span.  Raw spans are kept
for the first ``SPAN_CAP`` spans of each unit (the audit sweep makes millions)
and written out when the run ends.
"""
from __future__ import annotations

import functools
import sys
from time import perf_counter

from harness import cache_stats, maxrss_kib

# Functions that get a span, by defining module.  Beyond the layers the
# benchmark reports, the public functions the CLI calls get spans too, so
# that cli.main's self time is argument parsing and output formatting only.
SPANNED = {
    "arith": ["factorize", "multiplicative_order", "build_modulus"],
    "idempotents": ["order", "index", "tower_mod", "enumerate_idempotents"],
    "residues": ["orbit_gcd", "relative_order", "structure_table", "orbit",
                 "regular_set", "normal_set"],
    "congruence": ["omega_info", "solve", "gen_primitive_roots"],
    "counting": ["orbit_union_size", "rho_count", "r_count"],
    "quadratic": ["kernel", "sqrt_structure"],
    "algebra": ["verify_algebra", "idem_op"],
    "cli": ["main"],
}
# Every oracle_* function is one layer, "oracle".
ORACLE_PREFIX = "oracle_"
# Raw spans kept per unit; the rest are counted but not written.
SPAN_CAP = 2000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        self.reset(0)

    def reset(self, op: int) -> None:
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.stack: list[list] = []  # [span id, time covered by children]
        self.op = op
        self.orbit_entries = 0
        self.table_peak_kib = 0
        self.rss0_kib = 0

    def _index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            for acc in (self.calls, self.self_s, self.total_s):
                acc.append(0)
        return self.names.index(name)

    def span(self, name: str, fn):
        idx = self._index(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [tracer.next_id, 0.0]
            tracer.next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stack.pop()
                tracer.calls[idx] += 1
                tracer.total_s[idx] += dt
                tracer.self_s[idx] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((idx, t0, t1, parent[0] if parent else -1,
                                         tracer.op))
                else:
                    tracer.dropped += 1

        _keep_cache_api(wrapper, fn)
        return wrapper

    def _table_probe(self, fn):
        """Outside the structure_table span: on a cache miss, count the orbit
        entries the new table stores and the unit's RSS growth so far."""
        tracer = self

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            misses = fn.cache_info().misses
            table = fn(*args, **kwargs)
            if fn.cache_info().misses > misses:
                orbits = getattr(table, "orbits", None) or {}
                tracer.orbit_entries += sum(len(o) for o in orbits.values())
                tracer.table_peak_kib = max(tracer.table_peak_kib,
                                            maxrss_kib() - tracer.rss0_kib)
            return table

        _keep_cache_api(probe, fn)
        return probe

    def install(self) -> None:
        """Wrap every spanned function in every idemod namespace binding it."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "idemod" or name.startswith("idemod.")}
        targets = {}
        for short, fnames in SPANNED.items():
            mod = modules[f"idemod.{short}"]
            for fname in fnames:
                targets[id(getattr(mod, fname))] = (f"{short}.{fname}",
                                                    getattr(mod, fname))
        for fname, fn in vars(modules["idemod.oracle"]).items():
            if fname.startswith(ORACLE_PREFIX) and callable(fn):
                targets[id(fn)] = ("oracle", fn)
        wrapped = {}
        for key, (name, fn) in targets.items():
            w = self.span(name, fn)
            if name == "residues.structure_table":
                w = self._table_probe(w)
            wrapped[key] = w
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and obj is targets[id(obj)][1]:
                    self._installed.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])

    def wrap_claims(self, registry: dict) -> None:
        """One span per registry check: name audit.claim.<id>, and a new
        operation id for every (claim, modulus) check."""
        for tid, (scope, check) in list(registry.items()):
            def run_check(m, _check=check):
                self.op += 1
                return list(_check(m))
            registry[tid] = (scope, self.span(f"audit.claim.{tid}", run_check))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._installed):
            setattr(mod, attr, obj)
        self._installed.clear()

    def unit_summary(self) -> dict:
        return {
            "names": self.names,
            "calls": self.calls,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "spans": self.spans,
            "dropped": self.dropped,
            "orbit_entries": self.orbit_entries,
            "table_peak_kib": self.table_peak_kib,
            "cache_stats": cache_stats(),
        }


def _keep_cache_api(wrapper, fn) -> None:
    for attr in ("cache_info", "cache_clear"):
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
