"""Spans and counts around maghom's layer functions, for traced runs.

``Tracer.install`` replaces each function named in ``SPANS`` at every
maghom module attribute that refers to it (its import sites), so calls
from anywhere in the package are recorded.  A span's self time is its
duration minus the time of the spans it encloses; the worker wraps each
CLI call in a root span ``cli.self``, whose self time is what no layer
claimed.  Spans are summed in memory and reported once per process.

Functions that a later version of maghom no longer has are skipped and
listed under ``missing``; their metrics then read 0.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


def _basis(tr, args, result, missed):
    if missed:
        tr.count("homology.basis_cells", len(result))


def _nnz(tr, args, result, missed):
    tr.count("homology.boundary_nnz", len(result.entries))


def _snf(tr, args, result, missed):
    tr.count("snf.calls", 1)
    tr.count("snf.nnz_in", len(args[0].entries))
    tr.count("snf.divisors", len(result.divisors))


def _pair(tr, args, result, missed):
    if missed:
        tr.count("ai_complex.cells", len(result.complex))
        tr.count("ai_complex.quotient_cells", len(result.complex) - len(result.subcomplex))


def _critical(tr, args, result, missed):
    tr.count("matching.critical_cells", len(result.critical))


def _gcd(tr, args, result, missed):
    tr.count("polyq.gcd_calls", 1)


# (module, attribute, span, counter)
SPANS = [
    ("graph", "parse_graph", "graph.parse", None),
    ("graph", "parse_graph6", "graph.parse", None),
    ("graph", "parse_edge_list", "graph.parse", None),
    ("graph", "from_edges", "graph.parse", None),
    ("graph", "is_pawful", "graph.pawful", None),
    ("graph", "ahk_edge_cycle_check", "graph.ahk", None),
    ("polyq", "poly_gcd", "polyq.gcd", _gcd),
    ("magnitude", "magnitude_rational", "magnitude.rational", None),
    ("magnitude", "_det_bareiss", "magnitude.det", None),
    ("magnitude", "magnitude_series", "magnitude.series", None),
    ("homology", "enumerate_sequences", "homology.enumerate", _basis),
    ("homology", "boundary_matrix", "homology.boundary", _nnz),
    ("homology", "mh_table", "homology.table", None),
    ("homology", "mh_ab", "homology.table", None),
    ("homology", "is_diagonal_up_to", "homology.diagonal", None),
    ("snf", "smith_normal_form", "snf.snf", _snf),
    ("ai_complex", "enumerate_paths", "ai_complex.build_pair", None),
    ("ai_complex", "build_pair", "ai_complex.build_pair", _pair),
    ("ai_complex", "relative_homology", "ai_complex.relative_homology", None),
    ("matching", "build_pawful_S", "matching.certificate", None),
    ("matching", "parse_s", "matching.certificate", None),
    ("matching", "build_matching", "matching.build_matching", _critical),
    ("matching", "search_structure", "matching.search", None),
    ("matching", "check_star_property", "matching.star", None),
    ("morse", "FacePoset.from_cells", "morse.poset", None),
    ("morse", "verify_matching", "morse.verify", None),
    ("morse", "is_acyclic", "morse.acyclic", None),
    ("morse", "morse_rank_check", "morse.rank_check", None),
]

# The module-level lru_caches whose cache_info() is reported.
CACHES = [
    ("homology", "enumerate_sequences"),
    ("homology", "_boundary_snf"),
    ("ai_complex", "enumerate_paths"),
    ("ai_complex", "build_pair"),
    ("matching", "_quad_by_key"),
    ("matching", "_triple_by_key"),
]


def _lookup(module: str, attr: str):
    obj = sys.modules.get(f"maghom.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return obj


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)   # span -> summed self time
        self.total_s = defaultdict(float)  # span -> time of its outermost calls
        self.counts = defaultdict(int)
        self.missing: list[str] = []
        self.originals: dict[tuple[str, str], object] = {}
        self._stack: list[list] = []       # [span, start, child time]
        self._depth = defaultdict(int)

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def span(self, name: str, fn, *args, **kwargs):
        frame = [name, perf_counter(), 0.0]
        self._stack.append(frame)
        self._depth[name] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - frame[1]
            self._stack.pop()
            self._depth[name] -= 1
            self.self_s[name] += dur - frame[2]
            if not self._depth[name]:
                self.total_s[name] += dur
            if self._stack:
                self._stack[-1][2] += dur

    def _wrap(self, fn, name, counter):
        info = getattr(fn, "cache_info", None)

        def traced(*args, **kwargs):
            misses = info().misses if info else 0
            result = self.span(name, fn, *args, **kwargs)
            if counter:
                counter(self, args, result, not info or info().misses > misses)
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "maghom" or k.startswith("maghom.")]
        for module, attr, name, counter in SPANS:
            fn = _lookup(module, attr)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self.originals[(module, attr)] = fn
            traced = self._wrap(fn, name, counter)
            if "." in attr:
                cls_name, meth = attr.split(".")
                setattr(_lookup(module, cls_name), meth, staticmethod(traced))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)

    def caches(self) -> dict[str, list[int]]:
        """name -> [hits, misses, entries] of each original lru_cache."""
        out = {}
        for module, attr in CACHES:
            fn = self.originals.get((module, attr)) or _lookup(module, attr)
            info = getattr(fn, "cache_info", None)
            if info is not None:
                i = info()
                out[attr] = [i.hits, i.misses, i.currsize]
        return out

    def report(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "caches": self.caches(),
            "missing": self.missing,
        }
