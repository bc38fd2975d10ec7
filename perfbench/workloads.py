"""Seeded inputs for the three workloads.

A run is a list of batches; each batch runs in its own fresh interpreter,
so no maghom cache outlives it.  Every batch of a workload has the same
composition (the same graph families and sizes), and the number of
batches is fixed by ``--seconds``, so two commits run identical inputs
for a given seed and the item mix does not depend on speed.  Item costs
come in tiers, and the tier sizes are chosen so that the median item and
the tail item (the eleventh slowest of the run) fall inside a tier rather
than in the gap between two; see ``make_batch``.

A call is a JSON-able dict: ``kind`` names the subcommand and the rest
is what the output checks need.  ``materialize`` writes its input files
and returns the argv for ``maghom.cli.main``.
"""

from __future__ import annotations

import random
from itertools import combinations
from pathlib import Path

from graphs import (
    G1_CERTIFICATE, G1_EDGES, G3_EDGES, cycle, diameter, distances,
    edge_list, graph6, is_pawful, k33, petersen, relabel,
)

SERIES_ORDER = 8
CENSUS_LMAX = 4
CENSUS_BATCH = 300   # records per interpreter
CENSUS_CHUNK = 50    # records per classify call

# name -> (batch composition, nominal seconds per batch on the reference
# machine, why the workload exists).  The nominal time only turns
# --seconds into a batch count.
WORKLOADS = {
    "magnitude": (
        "C_15..C_18 and random connected graphs with n = 15..19 (m = 2n - 5, "
        f"diameter 5); magnitude --series {SERIES_ORDER} --json",
        7.0,
        "Bareiss determinants, gcd and Neumann series in polyq/magnitude and no "
        "homology: evaluation/interpolation must speed this up and nothing else",
    ),
    "homology": (
        "mh-table --json on G3 (l = 8), K_3,3 and Petersen (l = 7); morse --report "
        "on G1 with its certificate (l = 6, 6, 7, 7, 8) and random pawful 8-vertex "
        "graphs (l = 5 x4, 6 x3, 7 x3); all relabelled",
        11.5,
        "large complexes: enumeration, boundaries, SNF with cache reuse, Morse "
        "matchings. Host drift moves one item +-20% (G3 at l = 8: 1.07-1.90 s, "
        "CPU tracks wall); counts and RSS repeat",
    ),
    "census": (
        f"{CENSUS_BATCH} distinct connected labelled 7-vertex graphs "
        f"(m uniform in 6..21) as graph6 lines; classify --lmax {CENSUS_LMAX}",
        3.6,
        "a stream of thousands of tiny complexes with caches growing along it: "
        "per-record latency, peak RSS, pawfulness, star property and search",
    ),
}


def batch_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / WORKLOADS[workload][1]))


def _fresh_labelling(rng, n, edges, seen):
    """A random relabelling not used earlier in the run, when one is left."""
    for _ in range(200):
        perm = [0] + rng.sample(range(1, n + 1), n)
        out = relabel(edges, perm)
        if (n, out) not in seen:
            break
    seen.add((n, out))
    return perm, out


def _random_connected(rng, n, m, want_diameter=None):
    pairs = list(combinations(range(1, n + 1), 2))
    while True:
        edges = tuple(sorted(rng.sample(pairs, m)))
        d = diameter(n, distances(n, edges))
        if d > 0 and (want_diameter is None or d == want_diameter):
            return edges


def _walks(n, edges, a, b, length):
    """Number of edge walks of the given length from a to b."""
    adj = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    counts = [0] * (n + 1)
    counts[a] = 1
    for _ in range(length):
        nxt = [0] * (n + 1)
        for u in range(1, n + 1):
            for v in adj[u]:
                nxt[v] += counts[u]
        counts = nxt
    return counts[b]


def _pawful8(rng, ell):
    """A pawful 8-vertex graph with 16 edges and an endpoint pair whose
    walk count puts K_l(a, b) near a fixed size, so that seeds differ in
    graphs but not much in work."""
    lo, hi = {5: (300, 500), 6: (1500, 2500), 7: (7000, 11000)}[ell]
    pairs = list(combinations(range(1, 9), 2))
    while True:
        edges = tuple(sorted(rng.sample(pairs, 16)))
        dist = distances(8, edges)
        if not is_pawful(8, edges, dist):
            continue
        a, b = rng.sample(range(1, 9), 2)
        if lo <= _walks(8, edges, a, b, ell) <= hi:
            return edges, a, b


def make_batch(workload: str, rng: random.Random, seen: set) -> list[dict]:
    if workload == "census":
        graphs = []
        while len(graphs) < CENSUS_BATCH:
            edges = _random_connected(rng, 7, rng.randint(6, 21))
            if (7, edges) not in seen:
                seen.add((7, edges))
                graphs.append((7, edges))
        return [dict(kind="census", graphs=graphs[i:i + CENSUS_CHUNK])
                for i in range(0, CENSUS_BATCH, CENSUS_CHUNK)]
    if workload == "magnitude":
        calls = [dict(kind="magnitude", n=n, edges=cycle(n), cycle=True) for n in range(15, 19)]
        calls += [dict(kind="magnitude", n=n, edges=_random_connected(rng, n, 2 * n - 5, 5),
                       cycle=False) for n in range(15, 20)]
    elif workload == "homology":
        # Cost tiers per batch: 6 calls near 25 ms (G1 l = 6, P8 l = 5), 5 near
        # 0.15 s (G1 l = 7, P8 l = 6), 2 near 0.8 s (G1 l = 8, K33), 4 near 1.3 s
        # (G3, P8 l = 7) and Petersen near 2.7 s.  Over the three batches of a
        # 30-second run the median lands mid-way through the 0.15 s tier and
        # the tail item (eleventh slowest) mid-way through the 1.3 s tier.
        calls = [dict(kind="mh-table", name=name, n=n, edges=edges, lmax=lmax)
                 for name, n, edges, lmax in (("G3", 6, G3_EDGES, 8), ("K33", 6, k33(), 7),
                                              ("Petersen", 10, petersen(), 7))]
        calls += [dict(kind="morse", name="G1", n=6, edges=G1_EDGES, a=1, b=3, ell=ell,
                       certificate=G1_CERTIFICATE) for ell in (6, 6, 7, 7, 8)]
        for ell in (5, 5, 5, 5, 6, 6, 6, 7, 7, 7):
            edges, a, b = _pawful8(rng, ell)
            calls.append(dict(kind="morse", name="P8", n=8, edges=edges, a=a, b=b, ell=ell,
                              certificate=None))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [relabelled(call, rng, seen) for call in calls]


def relabelled(call: dict, rng: random.Random, seen: set) -> dict:
    """The same call on a relabelled copy of its graph(s)."""
    if call["kind"] == "census":
        graphs = [(n, _fresh_labelling(rng, n, edges, seen)[1]) for n, edges in call["graphs"]]
        return dict(call, graphs=graphs)
    perm, edges = _fresh_labelling(rng, call["n"], call["edges"], seen)
    out = dict(call, edges=edges)
    if call["kind"] == "morse":
        out.update(a=perm[call["a"]], b=perm[call["b"]])
        if call["certificate"]:
            out["certificate"] = "".join(
                line.split()[0] + "".join(f" {perm[int(x)]}" for x in line.split()[1:]) + "\n"
                for line in call["certificate"].splitlines()
            )
    return out


def item_count(call: dict) -> int:
    return len(call["graphs"]) if call["kind"] == "census" else 1


def materialize(call: dict, stem: Path) -> list[str]:
    """Write the call's input files next to ``stem``; return its argv."""
    kind = call["kind"]
    if kind == "census":
        path = stem.with_suffix(".g6")
        path.write_text("".join(graph6(n, edges) + "\n" for n, edges in call["graphs"]))
        return ["classify", str(path), "--lmax", str(CENSUS_LMAX)]
    path = stem.with_suffix(".edges")
    path.write_text(edge_list(call["edges"]))
    if kind == "magnitude":
        return ["magnitude", str(path), "--series", str(SERIES_ORDER), "--json"]
    if kind == "mh-table":
        return ["mh-table", str(path), "--lmax", str(call["lmax"]), "--json"]
    matching = "pawful"
    if call["certificate"]:
        cert = stem.with_suffix(".sstruct")
        cert.write_text(call["certificate"])
        matching = str(cert)
    return ["morse", str(path), "--a", str(call["a"]), "--b", str(call["b"]),
            "--ell", str(call["ell"]), "--matching", matching, "--report"]
