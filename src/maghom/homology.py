"""Magnitude chain complexes of graphs and their homology over Z.

Degree-k, length-l chains are generated by vertex tuples (x_0, ..., x_k)
with consecutive entries distinct and total metric length l.  The
boundary deletes interior smooth points with alternating signs; endpoint
entries are never deleted, so the complex splits over endpoint pairs.
Homology is computed exactly (free rank plus torsion divisors) by Smith
normal form of the boundary matrices.

Reversal R(x_0, ..., x_k) = (x_k, ..., x_0) maps the (a, b) summand onto
the (b, a) summand: position i of R(x) is smooth exactly when position
k - i of x is, so the boundary satisfies dR = (-1)^k Rd in degree k, and
R with the signs (-1)^(k(k+1)/2) is a chain isomorphism.  The whole
complex is therefore built only on the sequences with x_0 <= x_k (the
basis ``enumerate_sequences`` gives without endpoints), as two
complexes: the open part (x_0 < x_k), which stands for itself and its
reversal and counts with multiplicity 2, and the closed part
(x_0 = x_k), which counts once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, positive_int_env
from .graph import Graph
from .snf import SparseMatrix, homology_of_complex, smith_normal_form

DEFAULT_BASIS_CAP = 2_000_000
_BASIS_CAP_ENV = "MAGHOM_BASIS_CAP"


def basis_cap() -> int:
    return positive_int_env(_BASIS_CAP_ENV, DEFAULT_BASIS_CAP)


def sequence_length(g: Graph, points: tuple[int, ...]) -> int:
    """Sum of consecutive distances along the tuple."""
    return sum(g.dist[points[i]][points[i + 1]] for i in range(len(points) - 1))


def is_smooth(g: Graph, points: tuple[int, ...], i: int) -> bool:
    """Deleting position i preserves the length (0 < i < len-1 assumed)."""
    d = g.dist
    return d[points[i - 1]][points[i + 1]] == (
        d[points[i - 1]][points[i]] + d[points[i]][points[i + 1]]
    )


def enumerate_sequences(
    g: Graph, k: int, length: int, endpoints: tuple[int, int] | None = None
) -> tuple[tuple[int, ...], ...]:
    """Degree-k sequences of total length ``length``, lexicographically.

    With ``endpoints=(a, b)`` these are all sequences starting at a and
    ending at b.  Without endpoints they are those with x_0 <= x_k: one
    of each pair related by reversal, and every closed sequence; the
    others are their reversals.  Basis order is reproducible, since
    matrix snapshots depend on it.  Enumeration aborts with
    BudgetExceeded as soon as the full basis would outgrow the configured
    cap (without endpoints an open sequence counts twice), before memory
    does.
    """
    if k < 0 or length < 0:
        return ()
    if k == 0:
        if length != 0:
            return ()
        if endpoints is not None:
            a, b = endpoints
            return ((a,),) if a == b else ()
        return tuple((v,) for v in g.vertices)
    dist = g.dist
    maxd = max(max(row) for row in dist[1:])
    if not k <= length <= k * maxd:
        return ()  # each of the k gaps contributes between 1 and maxd
    cap = basis_cap()
    # others[u]: (v, d(u, v)) for v != u; spheres[u][r]: the v with d(u, v) = r
    others: list = [None]
    spheres: list = [None]
    for u in g.vertices:
        others.append([(v, dist[u][v]) for v in g.vertices if v != u])
        sphere: list[list[int]] = [[] for _ in range(maxd + 1)]
        for v in g.vertices:
            sphere[dist[u][v]].append(v)
        spheres.append(sphere)
    end = endpoints[1] if endpoints is not None else None
    out: list[tuple[int, ...]] = []
    size = 0  # of the full basis found so far
    # following[((v, r), gaps)]: the stubs after v when `gaps` gaps add up
    # to r; at most n * length * k lists of at most n stubs each
    following: dict[tuple[tuple[int, int], int], list[tuple[int, int]]] = {}

    def extend(prefix: tuple[int, ...], stubs: list, gaps: int) -> None:
        """Continue ``prefix`` by each stub (v, r): v, then ``gaps`` >= 1
        gaps adding up to r.  The last vertex comes from a distance sphere."""
        nonlocal size
        if gaps > 1:
            for stub in stubs:
                after = following.get((stub, gaps))
                if after is None:  # later gaps are >= 1 and <= maxd, and end at `end`
                    v, r = stub
                    lo = r - (gaps - 1) * maxd
                    hi = r - (gaps - 1)
                    after = following[(stub, gaps)] = [
                        (w, r - d)
                        for w, d in others[v]
                        if lo <= d <= hi and (end is None or dist[w][end] <= r - d)
                    ]
                if after:
                    extend(prefix + (stub[0],), after, gaps - 1)
            return
        if end is not None:
            new = [prefix + (v, end) for v, r in stubs if dist[v][end] == r]
            found = len(new)
        else:
            new = [
                prefix + (v, w) for v, r in stubs for w in spheres[v][r] if w >= first
            ]
            # an open sequence stands for itself and its reversal
            found = 2 * len(new) - [x[-1] for x in new].count(first)
        if size + found > cap:
            raise BudgetExceeded(
                f"degree-{k} length-{length} basis exceeds the cap of {cap}"
            )
        size += found
        out.extend(new)

    for first in [endpoints[0]] if endpoints is not None else g.vertices:
        extend((), [(first, length)], k)
    return tuple(out)


def boundary_matrix(
    g: Graph,
    basis_k: tuple[tuple[int, ...], ...],
    basis_lo: tuple[tuple[int, ...], ...],
) -> SparseMatrix:
    """Matrix of the boundary from the span of ``basis_k`` to ``basis_lo``.

    The bases are degrees k and k-1 of one length and one set of
    endpoint pairs: from ``enumerate_sequences`` with the same length and
    endpoints, or the open or the closed parts of its bases without
    endpoints.  Column x picks up (-1)^i at the row of x with position i
    deleted, for every smooth interior i (see ``is_smooth``); endpoints
    are kept.  A smooth deletion can never produce equal consecutive
    entries, so target rows always exist, and two deletions from one x
    never give the same row.
    """
    dist = g.dist
    index = {x: r for r, x in enumerate(basis_lo)}
    entries: dict[tuple[int, int], int] = {}
    for col, x in enumerate(basis_k):
        before = dist[x[0]]  # distances from x[i-1]
        sign = -1
        for i in range(1, len(x) - 1):
            here = dist[x[i]]
            after = x[i + 1]
            if before[after] == before[x[i]] + here[after]:
                entries[(index[x[:i] + x[i + 1 :]], col)] = sign
            before = here
            sign = -sign
    return SparseMatrix(entries, len(basis_lo), len(basis_k))


def _homology(
    g: Graph, bases: list[tuple[tuple[int, ...], ...]]
) -> list[tuple[int, tuple[int, ...]]]:
    """Homology of the complex spanned by ``bases`` (degree k at index k).

    Each boundary is built once and reaches the Smith form on its own, so
    only one is held in memory; a map to or from an empty basis is zero
    and is not built.
    """
    boundaries = (
        (k, boundary_matrix(g, bases[k], bases[k - 1]))
        for k in range(1, len(bases))
        if bases[k] and bases[k - 1]
    )
    return homology_of_complex([len(b) for b in bases], boundaries)


def merge_torsion(
    open_part: tuple[int, ...], closed_part: tuple[int, ...]
) -> tuple[int, ...]:
    """Invariant factors of T_open + T_open + T_closed.

    They are the divisors of the Smith form of the diagonal matrix of all
    the divisors.

    >>> merge_torsion((2,), (3,))
    (2, 6)
    >>> merge_torsion((2, 4), ())
    (2, 2, 4, 4)
    """
    divisors = open_part + open_part + closed_part
    n = len(divisors)
    diagonal = SparseMatrix({(i, i): d for i, d in enumerate(divisors)}, n, n)
    return smith_normal_form(diagonal).divisors


def mh_column(
    g: Graph, length: int, endpoints: tuple[int, int] | None = None
) -> list[tuple[int, tuple[int, ...]]]:
    """Free rank and torsion divisors of the length-l groups, degrees 0..l.

    With ``endpoints=(a, b)`` only the (a, b) summand is computed.
    Otherwise only the sequences with x_0 <= x_k are built, split into an
    open part (x_0 < x_k) and a closed part (x_0 = x_k); reversal gives
    the rest, so each group is the open group twice plus the closed one.
    Each basis is enumerated once, before any boundary is built.
    """
    if endpoints is not None:
        return _homology(
            g, [enumerate_sequences(g, k, length, endpoints) for k in range(length + 1)]
        )
    open_bases, closed_bases = [], []
    for k in range(length + 1):
        basis = enumerate_sequences(g, k, length)
        open_bases.append(tuple(x for x in basis if x[0] != x[-1]))
        closed_bases.append(tuple(x for x in basis if x[0] == x[-1]))
    open_column = _homology(g, open_bases)
    del open_bases  # not held while the closed part is reduced
    return [
        (2 * open_rank + closed_rank, merge_torsion(open_tors, closed_tors))
        for (open_rank, open_tors), (closed_rank, closed_tors) in zip(
            open_column, _homology(g, closed_bases)
        )
    ]


def mh_rank(g: Graph, k: int, length: int) -> tuple[int, tuple[int, ...]]:
    """Free rank and torsion divisors of the degree-k, length-l group."""
    return mh_column(g, length)[k] if 0 <= k <= length else (0, ())


def mh_ab(
    g: Graph, a: int, b: int, k: int, length: int
) -> tuple[int, tuple[int, ...]]:
    """Same as mh_rank, restricted to the (a, b) endpoint summand."""
    return mh_column(g, length, (a, b))[k] if 0 <= k <= length else (0, ())


@dataclass(frozen=True)
class MHTable:
    """Ranks and torsion of all groups with 0 <= k <= l <= lmax."""

    lmax: int
    entries: dict[tuple[int, int], tuple[int, tuple[int, ...]]]

    def rank(self, k: int, length: int) -> int:
        return self.entries.get((k, length), (0, ()))[0]

    def torsion(self, k: int, length: int) -> tuple[int, ...]:
        return self.entries.get((k, length), (0, ()))[1]

    def is_diagonal(self) -> bool:
        return all(
            rank == 0 and not tors
            for (k, length), (rank, tors) in self.entries.items()
            if k != length
        )

    def off_diagonal(self) -> dict[tuple[int, int], tuple[int, tuple[int, ...]]]:
        return {
            cell: val
            for cell, val in sorted(self.entries.items())
            if cell[0] != cell[1] and (val[0] or val[1])
        }

    def to_csv(self) -> str:
        """The l-rows-by-k-columns layout; trivial groups print as blanks."""
        header = "l\\k," + ",".join(str(k) for k in range(self.lmax + 1))
        lines = [header]
        for length in range(self.lmax + 1):
            cells = []
            for k in range(self.lmax + 1):
                rank, tors = self.entries.get((k, length), (0, ()))
                if rank == 0 and not tors:
                    cells.append("")
                elif tors:
                    cells.append(f"{rank}+T{list(tors)}")
                else:
                    cells.append(str(rank))
            lines.append(f"{length}," + ",".join(cells))
        return "\n".join(lines) + "\n"


def mh_table(
    g: Graph, lmax: int, endpoints: tuple[int, int] | None = None
) -> MHTable:
    """All groups with l <= lmax, or those of the (a, b) summand."""
    entries = {}
    for length in range(lmax + 1):
        for k, group in enumerate(mh_column(g, length, endpoints)):
            entries[(k, length)] = group
    return MHTable(lmax, entries)


def is_diagonal_up_to(g: Graph, lmax: int) -> bool:
    """Do all groups with k != l vanish (rank and torsion) for l <= lmax?

    Lengths are computed in increasing order, and the first one with a
    nonzero off-diagonal group settles the answer.
    """
    for length in range(lmax + 1):
        column = mh_column(g, length)
        if any(rank or tors for k, (rank, tors) in enumerate(column) if k != length):
            return False
    return True
