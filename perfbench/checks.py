"""Output checks that do not come from the code under test.

Each check takes the program's output for one item and returns ``None``
when it is right or a one-line reason when it is not.  The references:

* magnitude: the entry sum of Z(q)^-1, by exact elimination over the
  rationals at two small q; Leinster's n / sum_y q^d(x,y) on cycles
  (arXiv:1401.4623); and the Leinster-Willerton chain-count identity for
  the series coefficients.
* mh-table: the same identity, sum_k (-1)^k rank MH_k,l = sum_k (-1)^k
  #(degree-k length-l chains), and the G3 table published in the README.
* census: pawful => star => certificate found => diagonal, one record per
  input line, n and m as generated, pawfulness recomputed here.
* morse: exit 0 with ``homology model: ok``, and the critical-cell count
  equal to |Euler characteristic| of the (a, b) summand at length l.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from graphs import diameter, distances, is_pawful

# mh-table of fixtures/G3 through l = 6, as printed in the README:
# {(k, l): rank}; every other group with l <= 6 is trivial.
G3_TABLE = {
    (0, 0): 6, (1, 1): 16, (2, 2): 30, (2, 3): 2, (3, 3): 50, (3, 4): 10,
    (4, 4): 82, (4, 5): 28, (5, 5): 138, (4, 6): 2, (5, 6): 60, (6, 6): 242,
}


def euler_coefficients(n, dist, lmax, endpoints=None) -> list[int]:
    """c_l = sum_k (-1)^k #(x_0, ..., x_k), consecutive entries distinct,
    total length l; restricted to x_0 = a, x_k = b with ``endpoints``.

    h[v][l] is the signed count of chains ending at v; adding one point
    flips the sign, so h[w][l] = [start] - sum_{v != w} h[v][l - d(v,w)].
    """
    starts = range(1, n + 1) if endpoints is None else (endpoints[0],)
    h = [[0] * (lmax + 1) for _ in range(n + 1)]
    for s in starts:
        h[s][0] = 1
    for length in range(1, lmax + 1):
        for w in range(1, n + 1):
            h[w][length] = -sum(
                h[v][length - dist[v][w]]
                for v in range(1, n + 1)
                if v != w and dist[v][w] <= length
            )
    ends = range(1, n + 1) if endpoints is None else (endpoints[1],)
    return [sum(h[w][length] for w in ends) for length in range(lmax + 1)]


def inverse_entry_sum(n, dist, q: Fraction) -> Fraction:
    """Sum of the entries of Z(q)^-1, Z(q)[x][y] = q^d(x,y).

    Needs q < 1/(n-1): Z(q) is then strictly diagonally dominant, so
    elimination without pivoting never meets a zero pivot.
    """
    powers = [q ** d for d in range(max(max(r[1:]) for r in dist[1:]) + 1)]
    rows = [[powers[dist[x][y]] for y in range(1, n + 1)] + [Fraction(1)]
            for x in range(1, n + 1)]
    for c in range(n):
        pivot = rows[c]
        for r in range(c + 1, n):
            f = rows[r][c] / pivot[c]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], pivot)]
    w = [Fraction(0)] * n
    for c in range(n - 1, -1, -1):
        acc = rows[c][n] - sum(rows[c][j] * w[j] for j in range(c + 1, n))
        w[c] = acc / rows[c][c]
    return sum(w)


def _eval(coeffs, q: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * q + c
    return acc


def check_magnitude(n, edges, cycle: bool, series_order: int, text: str):
    try:
        out = json.loads(text)
        num, den, series = out["num"], out["den"], out["series"]
    except (ValueError, KeyError, TypeError):
        return f"unreadable magnitude output {text[:80]!r}"
    dist = distances(n, edges)
    if series != euler_coefficients(n, dist, series_order):
        return "series differs from the chain-count coefficients"
    for q in (Fraction(1, n), Fraction(2, 3 * n)):
        den_q = _eval(den, q)
        if den_q == 0:
            return f"denominator vanishes at q = {q}"
        value = _eval(num, q) / den_q
        if value != inverse_entry_sum(n, dist, q):
            return f"rational function differs from sum(Z^-1) at q = {q}"
        if cycle and value != n / sum(q ** dist[1][y] for y in range(1, n + 1)):
            return f"rational function differs from Leinster's formula at q = {q}"
    return None


def check_mh_table(n, edges, lmax: int, text: str, reference=None):
    try:
        out = json.loads(text)
        table = {
            tuple(int(x) for x in key.split(",")): (e["rank"], e["torsion"])
            for key, e in out["entries"].items()
        }
    except (ValueError, KeyError, TypeError, AttributeError):
        return f"unreadable mh-table output {text[:80]!r}"
    if out.get("lmax") != lmax:
        return f"lmax {out.get('lmax')} != {lmax}"
    coeffs = euler_coefficients(n, distances(n, edges), lmax)
    for length in range(lmax + 1):
        alt = sum((-1) ** k * table.get((k, length), (0, []))[0] for k in range(length + 1))
        if alt != coeffs[length]:
            return f"l = {length}: alternating rank sum {alt} != chain count {coeffs[length]}"
    if reference is not None:
        top = max(length for _, length in reference)
        for length in range(top + 1):
            for k in range(length + 1):
                got = table.get((k, length), (0, []))
                if got != (reference.get((k, length), 0), []):
                    return f"group ({k}, {length}) is {got}, reference rank {reference.get((k, length), 0)}"
    return None


def check_census(graphs, lmax: int, text: str) -> list:
    """One verdict per input graph, in input order."""
    lines = text.splitlines()
    if len(lines) != len(graphs):
        return [f"{len(lines)} records for {len(graphs)} input lines"] * len(graphs)
    return [_check_record(i, n, edges, lmax, line)
            for i, ((n, edges), line) in enumerate(zip(graphs, lines), start=1)]


def _check_record(index, n, edges, lmax, line):
    try:
        rec = json.loads(line)
        head = [rec["index"], rec["n"], rec["m"], rec["diagonal_up_to"]]
        chain = [rec["pawful"], rec["star"], rec["s_found"], rec["diagonal"]]
    except (ValueError, KeyError, TypeError):
        return f"unreadable record {line[:80]!r}"
    if head != [index, n, len(edges), lmax]:
        return f"record {index} does not describe its input line"
    dist = distances(n, edges)
    if rec["pawful"] is not is_pawful(n, edges, dist):
        return f"record {index}: pawful verdict is wrong"
    small = diameter(n, dist) <= 2
    if small != (rec["star"] is not None) or rec["s_found"] not in ((True, False) if small else (None,)):
        return f"record {index}: star/s_found do not match diameter <= 2"
    for weaker, stronger, name in zip(chain[1:], chain, ("star", "s_found", "diagonal")):
        if stronger is True and weaker is not True:
            return f"record {index}: implication chain broken at {name}"
    return None


def check_morse(n, edges, a: int, b: int, ell: int, rc, text: str):
    if rc != 0:
        return f"exit code {rc}"
    if "homology model: ok" not in text:
        return "homology model is not ok"
    found = {}
    for key, label in (("cells", "cells outside the subcomplex"),
                       ("pairs", "matched pairs"), ("critical", "critical cells")):
        m = re.search(rf"^{label}: (\d+)$", text, re.M)
        if m is None:
            return f"no '{label}' line"
        found[key] = int(m.group(1))
    if found["cells"] != 2 * found["pairs"] + found["critical"]:
        return "cells != 2 * matched pairs + critical cells"
    chi = euler_coefficients(n, distances(n, edges), ell, (a, b))[ell]
    if found["critical"] != abs(chi):
        return f"{found['critical']} critical cells, but |Euler characteristic| is {abs(chi)}"
    return None
