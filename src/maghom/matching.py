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

Triples and quadruples are one rule form: each is its key with the
middle put before the key's last vertex, ``key[:-1] + (middle,) +
key[-1:]``, over a key (beta, delta) or (alpha, beta, delta).  So they
share one distance shape, which ``_well_shaped`` alone decides on
loading, on matching and in condition (i), one middle table in
``build_matching`` and one search step in ``search_structure``.  A
rule's back is its last three vertices and its front all but its last;
condition (ii) says no front is a back.  A triple's front has two
vertices, so it is never a back: only a quadruple's prefix counts.

Pawful graphs always carry such a certificate (``build_pawful_S`` takes
each middle as the smallest fitting vertex of ``Graph.between``);
``search_structure`` decides existence in general by exhaustive
backtracking.  The star property, a near middle for every quadruple
key, is pawfulness on diameter <= 2 (see ``graph.is_pawful``).
"""

from __future__ import annotations

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
    for kind, rules in (("triple", s.triples), ("quadruple", s.quads)):
        for t in rules:
            if not _well_shaped(g, t):
                raise ValidationError(f"{kind} {t} violates its distance conditions")


def _by_key(rules, kind: str) -> dict[tuple[int, ...], int]:
    """Each rule's middle (its second-to-last vertex), keyed by the rule
    without it."""
    out: dict[tuple[int, ...], int] = {}
    for t in sorted(rules):
        key = t[:-2] + t[-1:]
        if key in out:  # distinct rules over one key: distinct middles
            raise CertificateError(f"two {kind} share the key {key}")
        out[key] = t[-2]
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
    ``critical`` the untouched cells in index order.  The relative
    complex's isolated cells have no index and are not listed, but they
    are untouched and critical too.
    """

    matching: frozenset[tuple[int, int]]
    critical: tuple[int, ...]


def require_diameter_2(g: Graph) -> None:
    """Refuse a graph of diameter > 2: a certificate names no middle for
    a gap of 3 or more.  The CLI asks before it builds the complex, so
    such a graph is refused the same way at every length."""
    if diameter(g) > 2:
        raise ValidationError("certificate matchings need diameter <= 2")


def build_matching(pair: RelativeComplex, s: SStructure) -> MatchingBuild:
    """Pair the cells of K_l(a,b) outside K'_l(a,b) using a certificate.

    ``pair`` is ``relative_complex(g, a, b, l)``, and ``s`` a certificate
    for its graph ``pair.g``.  One scan stops each cell (x_0, .., x_k) at
    its first gap (d(x_t, x_(t+1)) = 2) or first pattern, a rule of the
    certificate that is (x_0, x_1, x_2) or (x_(t-1), .., x_(t+2)).  A
    gap-first cell with its gap at j gets a middle inserted right after
    the gap start (in the simplex, at position +1, the unique choice that
    keeps positions cumulative): one table over the keys of both kinds
    gives the middle over (x_0, x_1) when j = 0 and over
    (x_(j-1), x_j, x_(j+1)) otherwise.  Pattern-first cells lose the
    vertex after the pattern start.  A well-shaped certificate is refused
    for two middles over one key (the quadruples are checked first), for
    no middle over the key of some gap, or for a gap-first cell whose
    image deletion at its pattern start does not take back to it.
    Otherwise insertion is one-to-one, and it is onto as well, which the
    count comparison at the end only re-checks.  Acyclicity is not
    checked here.

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
    require_diameter_2(g)
    _validate_structure(g, s)
    # triple and quadruple keys differ in length, so one table holds both;
    # with two middles over a key of each kind, the quadruple key is named
    middle = _by_key(s.quads, "quadruples") | _by_key(s.triples, "triples")
    cells, dist, rules = pair.cells, g.dist, s.quads | s.triples
    untouched: list[int] = []
    gap_first: list[int] = []
    at: dict[int, int] = {}  # the first gap or pattern start of each paired cell
    for c, seq in enumerate(cells):
        k = len(seq) - 1
        for t in range(k):
            # a gap: d(x_t, x_(t+1)) = 2; a pattern: the rule that is the
            # leading triple (t = 0) or the window x_(t-1) .. x_(t+2),
            # only where d(x_t, x_(t+2)) = 2, as validated
            row = dist[seq[t]]
            if row[seq[t + 1]] == 2:
                gap_first.append(c)
                break
            if (
                t < k - 1
                and row[seq[t + 2]] == 2
                and (seq[t - 1 : t + 3] if t else seq[:3]) in rules
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
        mid = middle.get(seq[j - 1 : j + 2] if j else seq[:2])
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
    Condition (i): both are sections of the key projections, which one
    loop checks for triples and then for quadruples, each rule's key
    being the rule without its middle.  Condition (ii): no quadruple's
    first three coordinates (its front) appear as the last three (the
    back) of any quadruple, nor among the triples.  Condition (iii): a
    quadruple whose middle is far from alpha must use the unique common
    neighbor of beta and delta.
    """
    if diameter(g) > 2:
        raise ValidationError("certificates are defined for diameter <= 2")
    triples = sorted(tuple(t) for t in f1)
    quads = sorted(tuple(q) for q in f2)

    # (i) sections of the projections, defined on every key exactly once
    for kind, over, size, rules, keys in (
        ("triple", "the pair", 3, triples, _ordered_x_keys(g)),
        ("quadruple", "the key", 4, quads, _ordered_y_keys(g)),
    ):
        seen: set[tuple[int, ...]] = set()
        for t in rules:
            if len(t) != size:
                return False, f"(i): {t} is not a {kind}"
            if not _well_shaped(g, t):
                return False, f"(i): {t} has the wrong distance pattern"
            key = t[:-2] + t[-1:]
            if key in seen:
                return False, f"(i): two {kind}s over {over} {key}"
            seen.add(key)
        missing = next((k for k in keys if k not in seen), None)
        if missing:
            return False, f"(i): no {kind} over {over} {missing}"

    # (ii) no front (a quadruple's first three) is a back (a quadruple's
    # last three, or a triple)
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
    out.  A variable is a key with its candidate middles: every vertex
    between beta and delta for a triple, and for a quadruple those near
    alpha, or the only one (condition (iii)).  Variables are assigned
    fewest candidates first, then quadruple keys before triple keys,
    then by key, and each variable's candidates in vertex order; this
    order decides which certificate is found and printed.  A candidate
    is refused when its back is a chosen front or its front a chosen
    back (condition (ii)); condition (i) holds by construction.  A node
    budget (``errors.search_budget`` when not given) guards runaway
    searches, raising BudgetExceeded, which is distinct from exhaustion.
    The backtracking is a loop over a stack of candidate iterators, one
    per variable assigned, so any number of variables fits.
    """
    if diameter(g) > 2:
        raise ValidationError("certificates are defined for diameter <= 2")
    budget = search_budget(budget)

    variables = [((be, de), g.between[be][de]) for be, de in _ordered_x_keys(g)]
    for al, be, de in _ordered_y_keys(g):
        mids = g.between[be][de]
        allowed = [ga for ga in mids if g.dist[al][ga] <= 1 or len(mids) == 1]
        variables.append(((al, be, de), allowed))
    # fewest candidates, then quadruple keys (three vertices), then by key
    variables.sort(key=lambda v: (len(v[1]), -len(v[0]), v[0]))
    if any(not v[1] for v in variables):
        return None

    chosen: list[tuple[int, ...]] = []  # the rule of each assigned variable
    # distinct rules can share a front or a back, so each is counted; a
    # triple's front has two vertices and never meets a back
    fronts: dict[tuple[int, ...], int] = {}
    backs: dict[tuple[int, ...], int] = {}
    nodes = 0
    # the candidates not yet tried for each assigned variable and the next
    pending = [iter(variables[0][1])] if variables else []
    while pending and len(chosen) < len(variables):
        key = variables[len(chosen)][0]
        for mid in pending[-1]:
            nodes += 1
            check_search_budget(nodes, budget)
            t = key[:-1] + (mid,) + key[-1:]
            front, back = t[:-1], t[-3:]
            if fronts.get(back) or backs.get(front):
                continue
            fronts[front] = fronts.get(front, 0) + 1
            backs[back] = backs.get(back, 0) + 1
            chosen.append(t)
            if len(chosen) < len(variables):
                pending.append(iter(variables[len(chosen)][1]))
            break
        else:  # every candidate failed: undo the choice of the variable before
            pending.pop()
            if chosen:
                prev = chosen.pop()
                fronts[prev[:-1]] -= 1
                backs[prev[-3:]] -= 1
    if len(chosen) < len(variables):
        return None
    quads = frozenset(t for t in chosen if len(t) == 4)
    return SStructure(quads, frozenset(t for t in chosen if len(t) == 3))


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
