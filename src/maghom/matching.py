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
off of everything but A, which ``build_matching`` proves in its
docstring and checks where a certificate can fail it.  The resulting
matching is acyclic, which the callers (the CLI's ``morse`` and
``match``) re-check rather than assume.  Cells are handled as sequences
and named by index; their (vertex, position) form appears only in error
messages.

Triples and quadruples share one distance shape, which ``_well_shaped``
alone decides on loading, on matching and in condition (i).

Pawful graphs always carry such a certificate (``build_pawful_S`` takes
each middle as the smallest fitting vertex of ``Graph.between``);
``search_structure`` decides existence in general by exhaustive
backtracking.  The star property, a near middle for every quadruple
key, is pawfulness on diameter <= 2 (see ``graph.is_pawful``).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

from .ai_complex import RelativeComplex
from .errors import (
    CertificateError,
    InternalCheckError,
    ParseError,
    ValidationError,
    check_search_budget,
    search_budget,
)
from .graph import Graph, diameter, is_pawful


@dataclass(frozen=True)
class SStructure:
    """A certificate: quadruple-rule tuples (alpha, beta, gamma, delta)
    and triple-rule tuples (beta, gamma, delta), each of the distance
    shape that ``_well_shaped`` decides."""

    quads: frozenset[tuple[int, int, int, int]]
    triples: frozenset[tuple[int, int, int]]


def _well_shaped(g: Graph, t: tuple[int, ...]) -> bool:
    """The distance shape of a certificate tuple: every step is 1 and
    d(t[-3], t[-1]) = 2, which is d(beta, delta) = 2 for both a triple
    (beta, gamma, delta) and a quadruple (alpha, beta, gamma, delta)."""
    dist = g.dist
    return all(dist[u][v] == 1 for u, v in zip(t, t[1:])) and dist[t[-3]][t[-1]] == 2


def _validate_structure(g: Graph, s: SStructure) -> None:
    for t in s.triples:
        if not _well_shaped(g, t):
            raise ValidationError(f"triple {t} violates its distance conditions")
    for q in s.quads:
        if not _well_shaped(g, q):
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
    return SStructure(quads, triples)


@dataclass(frozen=True)
class MatchingBuild:
    """A constructed matching and its unmatched cells, as cell indices.

    ``matching`` holds (gap-first cell, pattern-first cell) pairs;
    ``critical`` the untouched cells in index order.
    """

    matching: frozenset[tuple[int, int]]
    critical: tuple[int, ...]


def build_matching(pair: RelativeComplex, s: SStructure) -> MatchingBuild:
    """Pair the cells of K_l(a,b) outside K'_l(a,b) using a certificate.

    ``pair`` is ``relative_complex(g, a, b, l)``, and ``s`` a certificate
    for its graph ``pair.g``.  One scan stops each cell (x_0, .., x_k) at
    its first gap (d(x_t, x_(t+1)) = 2) or first pattern.  Gap-first
    cells get the certificate's middle vertex inserted right after the
    gap start (in the simplex, at position +1, the unique choice that
    keeps positions cumulative); pattern-first cells lose the vertex
    after the pattern start.  A well-shaped certificate is refused for
    two middles over one key (of triples or of quadruples), for no
    middle over the key of some gap, or for a gap-first cell whose image
    deletion at its pattern start does not take back to it.  Otherwise
    insertion is one-to-one, and it is onto as well, which the count
    comparison at the end only re-checks.  Acyclicity is not checked
    here.

    Nothing else can fail once ``_validate_structure`` has passed, since
    every step of a validated tuple is 1:

    - No position is both a gap and a pattern start: a pattern at t has
      the step d(x_t, x_(t+1)) = 1 of its tuple.
    - Take a gap-first cell with its gap at j.  Its middle, mid, is
      adjacent to x_j and to x_(j+1), so inserting it keeps the length
      and the endpoints and makes no two consecutive entries equal.  It
      raises the degree by one, to at most l, as a cell with a gap of 2
      has degree at most l - 1.  So the image is a cell.
    - The image agrees with the cell before position j, so it has no gap
      or pattern before j - 1.  It has no gap at j - 1 (the cell's step
      there is 1) or at j (a step of 1 to the middle).  It has a pattern
      at j: the triple (x_0, mid, x_1) when j = 0, or else the window
      (x_(j-1), x_j, mid, x_(j+1)), over d(x_j, x_(j+1)) = 2.  So it is
      pattern-first, with its pattern at j - 1 or j.

    Take a pattern-first cell c = (x_0, .., x_k) with its pattern at t,
    and let y be c with x_(t+1) deleted.  The pattern's two steps of 1
    become one of 2, so y is a cell: it has c's length l >= 3 and one
    degree less, at least 2, as a degree-2 cell with a pattern has
    length 2.
    Before t - 1, y agrees with c on every gap and pattern window, so it
    has neither there.  At t - 1, y has no gap (that gap is c's), and it
    has no pattern there either.  A pattern there would need
    d(x_t, x_(t+2)) = 1, or d(x_1, x_3) = 1 when t = 1, but c's pattern
    needs that distance to be 2.  So y is gap-first at t, its gap
    d(x_t, x_(t+2)) = 2.  Its certificate key is the key of c's
    pattern, and ``_by_key`` gives each key one middle, x_(t+1), so
    inserting into y gives back c.  So once the gap-first loop passes,
    every pattern-first cell has been matched.
    """
    g = pair.g
    if diameter(g) > 2:
        raise ValidationError("certificate matchings need diameter <= 2")
    _validate_structure(g, s)
    quad_mid = _by_key(s.quads, 2, "quadruples")
    triple_mid = _by_key(s.triples, 1, "triples")
    cells, dist, triples, quads = pair.cells, g.dist, s.triples, s.quads
    untouched: list[int] = []
    gap_first: list[int] = []
    at: dict[int, int] = {}  # the first gap or pattern start of each paired cell
    for c, seq in enumerate(cells):
        k = len(seq) - 1
        for t in range(k):
            # a gap: d(x_t, x_(t+1)) = 2; a pattern: the leading triple
            # (t = 0) or the quadruple window x_(t-1) .. x_(t+2), both
            # only where d(x_t, x_(t+2)) = 2, as validated
            row = dist[seq[t]]
            if row[seq[t + 1]] == 2:
                gap_first.append(c)
                break
            if (
                t < k - 1
                and row[seq[t + 2]] == 2
                and (seq[t - 1 : t + 3] in quads if t else seq[:3] in triples)
            ):
                break
        else:
            untouched.append(c)
            continue
        at[c] = t

    index = {seq: c for c, seq in enumerate(cells)}
    mates: list[tuple[int, int]] = []
    for c in gap_first:
        seq, j = cells[c], at[c]
        mid = triple_mid.get(seq[:2]) if j == 0 else quad_mid.get(seq[j - 1 : j + 2])
        if mid is None:
            raise CertificateError(f"no certificate entry for the gap at {j} in {seq}")
        m = index[seq[: j + 1] + (mid,) + seq[j + 1 :]]
        image, i = cells[m], at[m]
        if image[: i + 1] + image[i + 2 :] != seq:
            raise CertificateError(f"deletion does not invert insertion at {pair.simplex(c)}")
        mates.append((c, m))
    pattern_first = len(at) - len(gap_first)
    if len(mates) != pattern_first:
        raise InternalCheckError(f"{pattern_first - len(mates)} pattern-first cells unmatched")
    return MatchingBuild(frozenset(mates), tuple(untouched))


# ---------------------------------------------------------------------------
# the general certificate conditions


# Both key generators yield in lexicographic order with no sort: the
# vertices run 1..n, and ``from_edges`` sorts each ``neighbors`` row.
def _ordered_y_keys(g: Graph) -> Iterator[tuple[int, int, int]]:
    for alpha in g.vertices:
        for beta in g.neighbors[alpha]:
            for delta in g.vertices:
                if g.dist[beta][delta] == 2:
                    yield alpha, beta, delta


def _ordered_x_keys(g: Graph) -> Iterator[tuple[int, int]]:
    for a in g.vertices:
        for c in g.vertices:
            if g.dist[a][c] == 2:
                yield a, c


def verify_s_structure(g: Graph, f1, f2) -> tuple[bool, str | None]:
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
        if not _well_shaped(g, t):
            return False, f"(i): {t} has the wrong distance pattern"
        key = (t[0], t[2])
        if key in seen_x:
            return False, f"(i): two triples over the pair {key}"
        seen_x[key] = t
    missing = next((k for k in _ordered_x_keys(g) if k not in seen_x), None)
    if missing:
        return False, f"(i): no triple over the pair {missing}"

    seen_y: dict[tuple[int, int, int], tuple] = {}
    for q in quads:
        if len(q) != 4:
            return False, f"(i): {q} is not a quadruple"
        if not _well_shaped(g, q):
            return False, f"(i): {q} has the wrong distance pattern"
        key = (q[0], q[1], q[3])
        if key in seen_y:
            return False, f"(i): two quadruples over the key {key}"
        seen_y[key] = q
    missing = next((k for k in _ordered_y_keys(g) if k not in seen_y), None)
    if missing:
        return False, f"(i): no quadruple over the key {missing}"

    # (ii) first-three prefixes never reappear as suffixes or triples
    first3 = {q[:3] for q in quads}
    for q in quads:
        if q[1:] in first3:
            return False, f"(ii): suffix of {q} matches a quadruple prefix"
    triple_set = set(triples)
    for q in quads:
        if q[:3] in triple_set:
            return False, f"(ii): prefix of {q} is also a triple"

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
    budget (``errors.search_budget`` when not given) guards runaway
    searches, raising BudgetExceeded, which is distinct from exhaustion.
    The backtracking is a loop over a stack of candidate iterators, one
    per variable assigned, so any number of variables fits.
    """
    if diameter(g) > 2:
        raise ValidationError("certificates are defined for diameter <= 2")
    budget = search_budget(budget)

    variables = [("T", (a_, c_), g.between[a_][c_]) for a_, c_ in _ordered_x_keys(g)]
    for al, be, de in _ordered_y_keys(g):
        mids = g.between[be][de]
        allowed = [ga for ga in mids if g.dist[al][ga] <= 1 or len(mids) == 1]
        variables.append(("Q", (al, be, de), allowed))
    variables.sort(key=lambda v: (len(v[2]), v[0], v[1]))
    if any(not v[2] for v in variables):
        return None

    chosen: list[tuple[int, ...]] = []  # a triple or quadruple per assigned variable
    chosen_triples: set[tuple[int, int, int]] = set()
    # distinct keys can contribute the same prefix or suffix tuple, so
    # occupancy is counted rather than kept as a plain set
    first3: Counter[tuple[int, ...]] = Counter()
    last3: Counter[tuple[int, ...]] = Counter()
    nodes = 0
    # the candidates not yet tried for each assigned variable and the next
    pending = [iter(variables[0][2])] if variables else []
    while pending and len(chosen) < len(variables):
        kind, key, _ = variables[len(chosen)]
        for mid in pending[-1]:
            nodes += 1
            check_search_budget(nodes, budget)
            if kind == "T":
                t = (key[0], mid, key[1])
                if first3[t]:
                    continue
                chosen_triples.add(t)
                chosen.append(t)
            else:
                al, be, de = key
                q = (al, be, mid, de)
                pre, suf = q[:3], q[1:]
                if first3[suf] or last3[pre] or pre in chosen_triples:
                    continue
                first3[pre] += 1
                last3[suf] += 1
                chosen.append(q)
            if len(chosen) < len(variables):
                pending.append(iter(variables[len(chosen)][2]))
            break
        else:  # every candidate failed: undo the choice of the variable before
            pending.pop()
            if chosen:
                prev = chosen.pop()
                if len(prev) == 3:
                    chosen_triples.discard(prev)
                else:
                    first3[prev[:3]] -= 1
                    last3[prev[1:]] -= 1
    if len(chosen) < len(variables):
        return None
    quads = frozenset(x for x in chosen if len(x) == 4)
    return SStructure(quads, frozenset(chosen_triples))


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
