"""Magnitude chain complexes of graphs and their homology over Z.

Degree-k, length-l chains are generated by vertex tuples (x_0, ..., x_k)
with consecutive entries distinct and total metric length l.  The
boundary deletes interior smooth points with alternating signs; endpoint
entries are never deleted, so the complex splits over endpoint pairs.
Homology is computed exactly (free rank plus torsion divisors) by Smith
normal form of the boundary matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, positive_int_env
from .graph import Graph
from .snf import SparseMatrix, homology_of_complex

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
    g: Graph,
    k: int,
    length: int,
    endpoints: tuple[int, int] | None = None,
) -> tuple[tuple[int, ...], ...]:
    """All degree-k sequences of total length ``length``, lexicographically.

    With ``endpoints=(a, b)`` only sequences starting at a and ending at b
    are produced.  Basis order is reproducible, since matrix snapshots
    depend on it.  Enumeration aborts with BudgetExceeded as soon as the
    basis would outgrow the configured cap, before memory does.
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
    if length < k:
        return ()  # each of the k gaps contributes at least 1

    maxd = max(max(row) for row in g.dist[1:])
    cap = basis_cap()
    out: list[tuple[int, ...]] = []
    starts = [endpoints[0]] if endpoints is not None else list(g.vertices)
    target_end = endpoints[1] if endpoints is not None else None

    def extend(prefix: list[int], used: int) -> None:
        slot = len(prefix)  # index of the vertex about to be placed
        remaining = k + 1 - slot
        if remaining == 0:
            if len(out) >= cap:
                raise BudgetExceeded(
                    f"degree-{k} length-{length} basis exceeds the cap of {cap}"
                )
            out.append(tuple(prefix))
            return
        last = prefix[-1]
        for v in g.vertices:
            if v == last:
                continue
            u = used + g.dist[last][v]
            # every later gap is >= 1 and <= maxd
            lo = u + (remaining - 1)
            hi = u + (remaining - 1) * maxd
            if lo > length or hi < length:
                continue
            if remaining == 1:
                if u != length:
                    continue
                if target_end is not None and v != target_end:
                    continue
            prefix.append(v)
            extend(prefix, u)
            prefix.pop()

    for s in starts:
        extend([s], 0)
    return tuple(out)


def boundary_matrix(
    g: Graph,
    basis_k: tuple[tuple[int, ...], ...],
    basis_lo: tuple[tuple[int, ...], ...],
) -> SparseMatrix:
    """Matrix of the boundary from the span of ``basis_k`` to ``basis_lo``.

    Both bases come from ``enumerate_sequences`` with the same length and
    endpoints, in degrees k and k-1.  Column x picks up (-1)^i at the row
    of x with position i deleted, for every smooth interior i; endpoints
    are kept.  A smooth deletion can never produce equal consecutive
    entries, so target rows always exist.
    """
    index = {x: r for r, x in enumerate(basis_lo)}
    entries: dict[tuple[int, int], int] = {}
    for col, x in enumerate(basis_k):
        sign = -1
        for i in range(1, len(x) - 1):
            if is_smooth(g, x, i):
                row = index[x[:i] + x[i + 1 :]]
                s = entries.get((row, col), 0) + sign
                if s:
                    entries[(row, col)] = s
                else:
                    del entries[(row, col)]
            sign = -sign
    return SparseMatrix(entries, len(basis_lo), len(basis_k))


def mh_column(
    g: Graph, length: int, endpoints: tuple[int, int] | None = None
) -> list[tuple[int, tuple[int, ...]]]:
    """Free rank and torsion divisors of the length-l groups, degrees 0..l.

    With ``endpoints=(a, b)`` only the (a, b) summand is computed.  Each
    basis is enumerated once and each boundary built once; the boundaries
    reach the Smith form one at a time, so only one is held in memory.
    """
    bases = [enumerate_sequences(g, k, length, endpoints) for k in range(length + 1)]
    boundaries = (
        (k, boundary_matrix(g, bases[k], bases[k - 1])) for k in range(1, length + 1)
    )
    return homology_of_complex([len(b) for b in bases], boundaries)


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
    """Do all groups with k != l vanish (rank and torsion) for l <= lmax?"""
    return mh_table(g, lmax).is_diagonal()
