"""Insertion certificates and the acyclic matchings they induce.

On a diameter-2 graph, a certificate assigns to every ordered distance-2
pair a middle vertex (a triple rule), and to every (alpha, beta, delta)
with d(alpha,beta)=1, d(beta,delta)=2 a middle vertex between beta and
delta (a quadruple rule).  A middle lies in the interval
``Graph.between`` of its gap, so inserting it is the coface rule of
``homology.boundary_matrix``.  Scanning the vertex sequence of a cell of
K_l \\ K'_l for the first certificate pattern or distance-2 gap splits
the cells into three groups: untouched cells A (no gap, no pattern),
gap-first cells paired upward by inserting the certificate's middle
vertex, and pattern-first cells paired downward by deleting the vertex
after the pattern.  For a valid certificate this is a perfect pairing
off of everything but A, and the resulting matching is acyclic, which
the callers re-check rather than assume.  Cells are handled as sequences
and named by index; their (vertex, position) form appears only in error
messages.

Pawful graphs always carry such a certificate (``build_pawful_S`` takes
each middle as the smallest fitting vertex of ``Graph.between``);
``search_structure`` decides existence in general by exhaustive
backtracking.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .ai_complex import RelativeComplex
from .errors import (
    BudgetExceeded,
    CertificateError,
    ParseError,
    ValidationError,
    positive_int_env,
)
from .graph import Graph, diameter, is_pawful

logger = logging.getLogger(__name__)

DEFAULT_SEARCH_BUDGET = 10_000_000
_SEARCH_BUDGET_ENV = "MAGHOM_SEARCH_BUDGET"


def search_budget() -> int:
    return positive_int_env(_SEARCH_BUDGET_ENV, DEFAULT_SEARCH_BUDGET)


@dataclass(frozen=True)
class SStructure:
    """A certificate: quadruple-rule tuples and triple-rule tuples.

    Every quad (alpha, beta, gamma, delta) has d(alpha,beta) = d(beta,gamma)
    = d(gamma,delta) = 1 and d(beta,delta) = 2; every triple
    (beta, gamma, delta) has d(beta,gamma) = d(gamma,delta) = 1 and
    d(beta,delta) = 2.
    """

    quads: frozenset[tuple[int, int, int, int]]
    triples: frozenset[tuple[int, int, int]]


def _validate_structure(g: Graph, s: SStructure) -> None:
    for t in s.triples:
        if g.dist[t[0]][t[2]] != 2 or g.dist[t[0]][t[1]] != 1 or g.dist[t[1]][t[2]] != 1:
            raise ValidationError(f"triple {t} violates its distance conditions")
    for q in s.quads:
        if (
            g.dist[q[0]][q[1]] != 1
            or g.dist[q[1]][q[2]] != 1
            or g.dist[q[2]][q[3]] != 1
            or g.dist[q[1]][q[3]] != 2
        ):
            raise ValidationError(f"quadruple {q} violates its distance conditions")


def _by_key(tuples, mid: int, kind: str) -> dict[tuple[int, ...], int]:
    """Each tuple's entry at ``mid``, keyed by the tuple without it."""
    out: dict[tuple[int, ...], int] = {}
    for t in sorted(tuples):
        key = t[:mid] + t[mid + 1 :]
        if key in out and out[key] != t[mid]:
            raise CertificateError(f"two {kind} share the key {key}")
        out[key] = t[mid]
    return out


def build_pawful_S(g: Graph) -> SStructure:
    """The canonical certificate of a pawful graph.

    The triple over each ordered distance-2 pair (beta, delta) takes
    their smallest common neighbor.  The quadruple over each key
    (alpha, beta, delta), with d(alpha,beta) = 1 and d(beta,delta) = 2,
    takes alpha itself when d(alpha,delta) = 1, and otherwise
    (d(alpha,delta) = 2) the smallest vertex adjacent to all of alpha,
    delta and beta, which pawfulness provides.
    """
    witness = is_pawful(g)
    if not witness.verdict:
        raise ValidationError(f"graph is not pawful: {witness.reason()}")
    triples = frozenset((be, g.between[be][de][0], de) for be, de in _ordered_x_keys(g))
    quads = frozenset(
        (al, be, al, de)
        if g.dist[al][de] == 1
        else (al, be, next(ga for ga in g.between[be][de] if g.dist[al][ga] == 1), de)
        for al, be, de in _ordered_y_keys(g)
    )
    s = SStructure(quads, triples)
    _validate_structure(g, s)
    return s


@dataclass(frozen=True)
class MatchingBuild:
    """A constructed matching and its unmatched cells, as cell indices.

    ``matching`` holds (gap-first cell, pattern-first cell) pairs;
    ``critical`` the untouched cells in index order.
    """

    matching: frozenset[tuple[int, int]]
    critical: tuple[int, ...]


def build_matching(g: Graph, pair: RelativeComplex, s: SStructure) -> MatchingBuild:
    """Pair the cells of K_l(a,b) outside K'_l(a,b) using a certificate.

    ``pair`` is ``relative_complex(g, a, b, l)``.  Gap-first cells get the
    certificate's middle vertex inserted right after the gap start (in
    the simplex, at position +1, the unique choice that keeps positions
    cumulative); pattern-first cells lose the vertex after the pattern
    start.  Both directions are verified to be mutually inverse; any
    failure means the certificate is invalid for this graph.  Insertion
    is checked cell by cell, deletion by a count, since an insertion that
    deletion inverts is one-to-one; order only decides which failure gets
    reported, so only a count that differs sends the pattern-first cells
    through the check one by one.
    """
    if diameter(g) > 2:
        raise ValidationError("certificate matchings need diameter <= 2")
    _validate_structure(g, s)
    quad_mid = _by_key(s.quads, 2, "quadruples")
    triple_mid = _by_key(s.triples, 1, "triples")
    cells, show = pair.cells, pair.simplex
    index = {seq: c for c, seq in enumerate(cells)}

    dist, triples, quads = g.dist, s.triples, s.quads
    untouched: list[int] = []
    gap_first: list[int] = []
    pattern_first: list[int] = []
    at: dict[int, int] = {}  # the first gap or pattern start of each paired cell
    for c, seq in enumerate(cells):
        k = len(seq) - 1
        for t in range(k):
            # a pattern starts at t: the leading triple (t = 0) or the
            # quadruple window x_(t-1) .. x_(t+2), both only where
            # d(x_t, x_(t+2)) = 2, as validated; a gap: d(x_t, x_(t+1)) = 2
            row = dist[seq[t]]
            pattern = (
                t < k - 1
                and row[seq[t + 2]] == 2
                and (seq[t - 1 : t + 3] in quads if t else seq[:3] in triples)
            )
            gap = row[seq[t + 1]] == 2
            if pattern or gap:
                break
        else:
            untouched.append(c)
            continue
        if pattern and gap:
            raise CertificateError(f"cell {show(c)}: pattern and gap coincide at {t}")
        (gap_first if gap else pattern_first).append(c)
        at[c] = t

    def insert(c: int) -> int:
        seq, j = cells[c], at[c]
        if j == 0:
            mid = triple_mid.get((seq[0], seq[1]))
        else:
            mid = quad_mid.get((seq[j - 1], seq[j], seq[j + 1]))
        if mid is None:
            raise CertificateError(
                f"no certificate entry for the gap at {j} in {seq}"
            )
        out = index.get(seq[: j + 1] + (mid,) + seq[j + 1 :])
        if out is None:
            raise CertificateError(
                f"inserting {mid} into {seq} left the length-{pair.length} cell set"
            )
        return out

    def delete(c: int) -> int | None:
        seq, i = cells[c], at[c]
        return index.get(seq[: i + 1] + seq[i + 2 :])

    pattern_set = set(pattern_first)
    mate: dict[int, int] = {}
    for c in gap_first:
        m = insert(c)
        if m not in pattern_set:
            raise CertificateError(f"image of {show(c)} is not a pattern-first cell")
        if delete(m) != c:
            raise CertificateError(f"deletion does not invert insertion at {show(c)}")
        mate[c] = m
    # one-to-one into the pattern-first cells, so onto them when the counts agree
    if len(mate) == len(pattern_first):
        return MatchingBuild(frozenset(mate.items()), tuple(untouched))
    gap_set = set(gap_first)
    for c in pattern_first:
        m = delete(c)
        if m not in gap_set:
            raise CertificateError(f"preimage of {show(c)} is not a gap-first cell")
        if mate[m] != c:
            raise CertificateError(f"insertion does not invert deletion at {show(c)}")

    return MatchingBuild(frozenset(mate.items()), tuple(untouched))


# ---------------------------------------------------------------------------
# the general certificate conditions


def _ordered_y_keys(g: Graph) -> list[tuple[int, int, int]]:
    out = []
    for alpha in g.vertices:
        for beta in g.neighbors[alpha]:
            for delta in g.vertices:
                if g.dist[beta][delta] == 2:
                    out.append((alpha, beta, delta))
    return sorted(out)


def _ordered_x_keys(g: Graph) -> list[tuple[int, int]]:
    return sorted(
        (a, c)
        for a in g.vertices
        for c in g.vertices
        if g.dist[a][c] == 2
    )


def check_star_property(g: Graph) -> tuple[bool, tuple[int, int, int] | None]:
    """Does every (alpha, beta, delta) key admit a near middle vertex?

    Near means d(alpha, gamma) <= 1 on top of d(beta,gamma) =
    d(gamma,delta) = 1.  Pawful graphs always pass; the first failing key
    (lexicographically) is returned otherwise.
    """
    if diameter(g) > 2:
        raise ValidationError("the star property is defined for diameter <= 2")
    for alpha, beta, delta in _ordered_y_keys(g):
        if not any(
            g.dist[alpha][gamma] <= 1
            for gamma in g.between[beta][delta]
        ):
            return False, (alpha, beta, delta)
    return True, None


def verify_s_structure(
    g: Graph, f1, f2
) -> tuple[bool, str | None]:
    """Check the three certificate conditions for given images f1, f2.

    ``f1`` is a collection of triples (one per ordered distance-2 pair),
    ``f2`` a collection of quadruples (one per (alpha, beta, delta) key).
    Condition (i): both are sections of the key projections.  Condition
    (ii): no quadruple's first three coordinates appear as the last three
    of any quadruple, nor among the triples.  Condition (iii): a
    quadruple whose middle is far from alpha must use the unique common
    neighbor of beta and delta.
    """
    if diameter(g) > 2:
        raise ValidationError("certificates are defined for diameter <= 2")
    triples = sorted(tuple(t) for t in f1)
    quads = sorted(tuple(q) for q in f2)

    # (i) sections of the projections, defined on every key exactly once
    seen_x: dict[tuple[int, int], tuple] = {}
    for t in triples:
        if len(t) != 3:
            return False, f"(i): {t} is not a triple"
        a_, b_, c_ = t
        if g.dist[a_][b_] != 1 or g.dist[b_][c_] != 1 or g.dist[a_][c_] != 2:
            return False, f"(i): {t} has the wrong distance pattern"
        if (a_, c_) in seen_x:
            return False, f"(i): two triples over the pair {(a_, c_)}"
        seen_x[(a_, c_)] = t
    missing = [k for k in _ordered_x_keys(g) if k not in seen_x]
    if missing:
        return False, f"(i): no triple over the pair {missing[0]}"

    seen_y: dict[tuple[int, int, int], tuple] = {}
    for q in quads:
        if len(q) != 4:
            return False, f"(i): {q} is not a quadruple"
        al, be, ga, de = q
        if (
            g.dist[al][be] != 1
            or g.dist[be][ga] != 1
            or g.dist[ga][de] != 1
            or g.dist[be][de] != 2
        ):
            return False, f"(i): {q} has the wrong distance pattern"
        if (al, be, de) in seen_y:
            return False, f"(i): two quadruples over the key {(al, be, de)}"
        seen_y[(al, be, de)] = q
    missing_y = [k for k in _ordered_y_keys(g) if k not in seen_y]
    if missing_y:
        return False, f"(i): no quadruple over the key {missing_y[0]}"

    # (ii) first-three prefixes never reappear as suffixes or triples
    first3 = {q[:3] for q in quads}
    for q in quads:
        if q[1:] in first3:
            return False, f"(ii): suffix of {q} matches a quadruple prefix"
    triple_set = set(triples)
    for q in quads:
        if q[:3] in triple_set:
            return False, f"(ii): prefix of {q} is also a triple"
        if q[1:] in triple_set:
            # not forbidden by (ii); surfaced because it shadows the
            # leading-triple rule when scanning cells
            logger.info("quadruple %s has its suffix among the triples", q)

    # (iii) a far middle vertex must be the only middle vertex
    for q in quads:
        al, be, ga, de = q
        if g.dist[al][ga] == 2:
            others = [x for x in g.between[be][de] if x != ga]
            if others:
                return False, (
                    f"(iii): {q} has d(alpha,gamma)=2 but {others[0]} is "
                    f"another middle vertex"
                )
    return True, None


def search_structure(g: Graph, budget: int | None = None) -> SStructure | None:
    """Exhaustive backtracking search for a certificate.

    Returns a certificate, or None once the whole choice tree is ruled
    out.  Choice points are processed fewest-candidates-first; a node
    budget (default from MAGHOM_SEARCH_BUDGET) guards runaway searches,
    raising BudgetExceeded, which is distinct from exhaustion.
    """
    if diameter(g) > 2:
        raise ValidationError("certificates are defined for diameter <= 2")
    if budget is None:
        budget = search_budget()

    variables: list[tuple[str, tuple, list]] = []
    for key in _ordered_x_keys(g):
        a_, c_ = key
        variables.append(("T", key, g.between[a_][c_]))
    for key in _ordered_y_keys(g):
        al, be, de = key
        mids = g.between[be][de]
        allowed = [ga for ga in mids if g.dist[al][ga] <= 1 or len(mids) == 1]
        variables.append(("Q", key, allowed))
    variables.sort(key=lambda v: (len(v[2]), v[0], v[1]))
    if any(not v[2] for v in variables):
        return None

    chosen_triples: set[tuple[int, int, int]] = set()
    chosen_quads: set[tuple[int, int, int, int]] = set()
    # distinct keys can contribute the same prefix or suffix tuple, so
    # occupancy is counted rather than kept as a plain set
    first3: dict[tuple[int, int, int], int] = {}
    last3: dict[tuple[int, int, int], int] = {}
    nodes = 0

    def bump(counter, key, delta):
        new = counter.get(key, 0) + delta
        if new:
            counter[key] = new
        else:
            del counter[key]

    def assign(idx: int) -> bool:
        nonlocal nodes
        if idx == len(variables):
            return True
        kind, key, candidates = variables[idx]
        for mid in candidates:
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"certificate search exceeded {budget} nodes")
            if kind == "T":
                t = (key[0], mid, key[1])
                if t in first3:
                    continue
                chosen_triples.add(t)
                if assign(idx + 1):
                    return True
                chosen_triples.discard(t)
            else:
                al, be, de = key
                q = (al, be, mid, de)
                pre, suf = q[:3], q[1:]
                if suf in first3 or pre in last3 or pre in chosen_triples:
                    continue
                chosen_quads.add(q)
                bump(first3, pre, 1)
                bump(last3, suf, 1)
                if assign(idx + 1):
                    return True
                chosen_quads.discard(q)
                bump(first3, pre, -1)
                bump(last3, suf, -1)
        return False

    try:
        found = assign(0)
    finally:
        del assign  # it calls itself through its cell: unbound, the scope is freed on return
    if found:
        return SStructure(frozenset(chosen_quads), frozenset(chosen_triples))
    return None


# ---------------------------------------------------------------------------
# certificate files: lines "T beta gamma delta" and "Q alpha beta gamma delta"


def serialize_s(s: SStructure) -> str:
    lines = [f"T {b} {c} {d}" for b, c, d in sorted(s.triples)]
    lines += [f"Q {a} {b} {c} {d}" for a, b, c, d in sorted(s.quads)]
    return "\n".join(lines) + "\n"


def parse_s(text: str, g: Graph) -> SStructure:
    triples = set()
    quads = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            tag, nums = parts[0].upper(), [int(x) for x in parts[1:]]
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer entry in {raw!r}") from None
        if (tag, len(nums)) not in (("T", 3), ("Q", 4)):
            raise ParseError(
                f"line {lineno}: expected 'T b c d' or 'Q a b c d', got {raw!r}"
            )
        for v in nums:
            if not 1 <= v <= g.n:
                raise ParseError(f"line {lineno}: vertex {v} is outside 1..{g.n}")
        (triples if tag == "T" else quads).add(tuple(nums))
    s = SStructure(frozenset(quads), frozenset(triples))
    _validate_structure(g, s)
    return s
