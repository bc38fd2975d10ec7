import random
import time
from dataclasses import replace
from itertools import combinations
from math import prod

import pytest
from conftest import RP2_FACES, random_connected
from oracles import (
    determinant,
    determinantal_divisors,
    from_dense,
    homology_uncleared,
    indexed_boundary,
    is_smooth,
    is_zero,
    rank_fraction_free,
    rank_mod_p,
    sparse_matmul,
)

from maghom import boundary_matrix, enumerate_sequences, homology, snf
from maghom.ai_complex import (
    cell_boundaries,
    path_complex,
    relative_complex,
    relative_homology,
)
from maghom.homology import merge_torsion, mh_column
from maghom.snf import (
    SparseMatrix,
    _dense_smith_diagonal,
    homology_of_complex,
    smith_normal_form,
)
from maghom.symmetry import pair_orbits


def snf_dense(rows):
    return smith_normal_form(from_dense(rows))


def test_known_small_forms():
    assert snf_dense([[0]]).rank == 0
    assert snf_dense([[7]]) == type(snf_dense([[7]]))(1, (7,))
    r = snf_dense([[2, 4], [4, 8]])
    assert (r.rank, r.divisors) == (1, (2,))
    r = snf_dense([[2, 0], [0, 3]])          # chain fix-up: diag (1, 6)
    assert (r.rank, r.divisors) == (2, (6,))
    r = snf_dense([[1, 0], [0, 1]])
    assert (r.rank, r.divisors) == (2, ())


def test_divisor_chain_property():
    rng = random.Random(11)
    for _ in range(100):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        res = snf_dense(m)
        for a, b in zip(res.divisors, res.divisors[1:]):
            assert b % a == 0
        assert res.rank <= min(nr, nc)


def test_rank_agrees_with_fraction_free_elimination():
    rng = random.Random(20240817)
    for _ in range(200):
        nr, nc = rng.randint(1, 12), rng.randint(1, 12)
        m = [[rng.randint(-10, 10) for _ in range(nc)] for _ in range(nr)]
        assert snf_dense(m).rank == rank_fraction_free(m)


def test_invariance_under_elementary_operations():
    rng = random.Random(5)
    base = [[2, 0, 0], [0, 6, 0], [0, 0, 0]]
    for _ in range(25):
        m = [row[:] for row in base]
        for _ in range(12):
            i, j = rng.sample(range(3), 2)
            c = rng.randint(-3, 3)
            if rng.random() < 0.5:
                for t in range(3):
                    m[i][t] += c * m[j][t]          # row op
            else:
                for t in range(3):
                    m[t][i] += c * m[t][j]          # column op
        res = snf_dense(m)
        assert (res.rank, res.divisors) == (2, (2, 6))


def simplicial_chain(maximal_faces):
    """Dims and boundaries of the complex generated by the given faces."""
    cells = set()
    for f in maximal_faces:
        f = tuple(sorted(f))
        for k in range(1, len(f) + 1):
            cells.update(combinations(f, k))
    by_dim = {}
    for s in sorted(cells, key=lambda s: (len(s), s)):
        by_dim.setdefault(len(s) - 1, []).append(s)
    top = max(by_dim)
    dims = [len(by_dim[d]) for d in range(top + 1)]
    boundaries = {}
    for d in range(1, top + 1):
        lower = {s: i for i, s in enumerate(by_dim[d - 1])}
        entries = {}
        for col, s in enumerate(by_dim[d]):
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                entries[(lower[face], col)] = (-1) ** i
        boundaries[d] = SparseMatrix.from_entries(entries, dims[d - 1], dims[d])
    return dims, boundaries


LARGE_PRIME = 2**31 - 1


def prime_factors(d):
    out, q = set(), 2
    while q * q <= d:
        while d % q == 0:
            out.add(q)
            d //= q
        q += 1
    return out | ({d} if d > 1 else set())


def check_rank_mod_p(mat):
    """rank_p = rank - #{divisors that p divides}, for p = 2, 3, every prime
    factor of a divisor and one large prime; returns the primes checked."""
    res = smith_normal_form(mat)
    primes = {2, 3, LARGE_PRIME}.union(*map(prime_factors, res.divisors))
    for p in primes:
        assert rank_mod_p(mat, p) == res.rank - sum(d % p == 0 for d in res.divisors), p
    return primes


def test_rank_mod_p_on_random_matrices():
    rng = random.Random(2718)
    for _ in range(100):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        check_rank_mod_p(from_dense([[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]))
    assert check_rank_mod_p(from_dense([[2, 0], [0, 3]])) == {2, 3, LARGE_PRIME}
    assert rank_mod_p(from_dense([[2, 0], [0, 3]]), 2) == 1


def test_rank_mod_p_on_fixture_boundaries(c4, g1, g2, g3):
    # every boundary of the relative complexes and of the magnitude summands
    for g in (c4, g1, g2, g3):
        for a in g.vertices:
            for b in g.vertices:
                for ell in range(1, 6):
                    bases = [enumerate_sequences(g, k, ell, {(a, b): 1}) for k in range(ell + 1)]
                    for k in range(1, ell + 1):
                        if bases[k] and bases[k - 1]:
                            check_rank_mod_p(boundary_matrix(g, bases[k - 1]))
                    if ell >= 3:
                        for mat in relative_complex(g, a, b, ell).boundaries.values():
                            check_rank_mod_p(mat)


def test_torsion_of_projective_plane():
    dims, boundaries = simplicial_chain(RP2_FACES)
    for d in range(2, len(dims)):
        assert is_zero(sparse_matmul(boundaries[d - 1], boundaries[d]))
    # bottom-up (compressed) and top-down (nothing to drop), and the oracle
    h = homology_of_complex(dims, boundaries.items())
    assert h == homology_of_complex(dims, reversed(boundaries.items()))
    assert h == homology_uncleared(dims, boundaries.items())
    assert h[0] == (1, ())
    assert h[1] == (0, (2,))
    assert h[2] == (0, ())
    assert 2 in check_rank_mod_p(boundaries[2])
    assert rank_mod_p(boundaries[2], 2) == smith_normal_form(boundaries[2]).rank - 1
    for d in (1, 2):
        check_rank_mod_p(boundaries[d])


def grid_surface(vid):
    """Dims and boundaries of the 3x3 grid, each square split into two
    triangles, with grid point (i, j) glued to vertex ``vid(i, j)``."""
    faces = []
    for i in range(3):
        for j in range(3):
            faces.append((vid(i, j), vid(i + 1, j), vid(i, j + 1)))
            faces.append((vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1)))
    return simplicial_chain(faces)


def test_torus_homology():
    # 3x3 grid torus: Z, Z^2, Z
    dims, boundaries = grid_surface(lambda i, j: 3 * (i % 3) + (j % 3))
    assert dims == [9, 27, 18]
    h = homology_of_complex(dims, boundaries.items())
    assert h == homology_of_complex(dims, reversed(boundaries.items()))
    assert h == homology_uncleared(dims, boundaries.items())
    assert h[0] == (1, ())
    assert h[1] == (2, ())
    assert h[2] == (1, ())
    for d in (1, 2):
        check_rank_mod_p(boundaries[d])


def klein_bottle():
    """The 3x3 grid with (i, j + 3) ~ (-i mod 3, j), i periodic."""
    return grid_surface(lambda i, j: 3 * ((-1) ** (j // 3) * i % 3) + j % 3)


def test_klein_bottle_homology(monkeypatch):
    # Z, Z + Z/2, 0: a free rank and torsion in the same degree
    dims, boundaries = klein_bottle()
    assert dims == [9, 27, 18]
    residual_rows = []

    def recorded(m):
        residual_rows.append(len(m))
        return _dense_smith_diagonal(m)

    monkeypatch.setattr(snf, "_dense_smith_diagonal", recorded)
    h = homology_of_complex(dims, boundaries.items())
    assert h == [(1, ()), (1, (2,)), (0, ())]
    assert h == homology_of_complex(dims, reversed(boundaries.items()))
    assert h == homology_uncleared(dims, boundaries.items())
    # Z/2 comes out of the dense phase in each route: a 1 x 1 block once
    # compressed, 3 x 1 when d_2 is reduced whole
    assert residual_rows == [1, 3, 3]
    assert 2 in check_rank_mod_p(boundaries[2])
    for d in (1, 2):
        check_rank_mod_p(boundaries[d])


def test_no_unit_entry_reaches_the_dense_phase(g1, g3, monkeypatch):
    # the sparse phase pivots on every +-1 entry it meets, those that its
    # own fill makes included, so the dense block it hands on holds none
    blocks = []

    def recorded(m):
        blocks.append([row[:] for row in m])
        return _dense_smith_diagonal(m)

    monkeypatch.setattr(snf, "_dense_smith_diagonal", recorded)
    for dims, boundaries in (simplicial_chain(RP2_FACES), klein_bottle()):
        homology_of_complex(dims, boundaries.items())
        homology_of_complex(dims, reversed(boundaries.items()))
    for g in (g1, g3):
        bases = [enumerate_sequences(g, k, 6) for k in range(7)]
        for _, mat in magnitude_boundaries(g, bases):
            smith_normal_form(mat)
    rng = random.Random(46)
    for _ in range(300):
        nr, nc = rng.randint(2, 14), rng.randint(2, 14)
        entries = {
            (r, c): rng.choice((1, -1, 1, -1, 2, -2, 3, -3))
            for r in range(nr) for c in range(nc) if rng.random() < 0.3
        }
        smith_normal_form(SparseMatrix.from_entries(entries, nr, nc))
    assert len(blocks) > 100
    assert not [v for m in blocks for row in m for v in row if v in (1, -1)]


def test_sparse_matmul_shapes():
    a = SparseMatrix.from_entries({(0, 1): 2}, 2, 3)
    b = SparseMatrix.from_entries({(1, 0): 3}, 3, 1)
    prod = sparse_matmul(a, b)
    assert prod.entries == {(0, 0): 6}
    assert (prod.nrows, prod.ncols) == (2, 1)


def dense_smith(mat):
    """(rank, divisors) by the dense reduction alone, with no sparse phase."""
    dense = [[0] * mat.ncols for _ in range(mat.nrows)]
    for (r, c), v in mat.entries.items():
        dense[r][c] = v
    diag = _dense_smith_diagonal(dense)
    return len(diag), tuple(d for d in diag if d > 1)


def test_peeled_smith_form_agrees_with_the_dense_reduction():
    # sparse +-1 matrices (mostly peeled) and sparse integer matrices
    # (peeling, Markowitz pivots and a dense residual)
    rng = random.Random(8128)
    for trial in range(300):
        nr, nc = rng.randint(1, 14), rng.randint(1, 14)
        values = (-1, 1) if trial % 2 else (-3, -2, -1, 1, 2, 3, 4)
        density = rng.choice((0.1, 0.2, 0.35))
        entries = {
            (r, c): rng.choice(values)
            for r in range(nr)
            for c in range(nc)
            if rng.random() < density
        }
        mat = SparseMatrix.from_entries(entries, nr, nc)
        res = smith_normal_form(mat)
        assert (res.rank, res.divisors) == dense_smith(mat)
        # the unit pivot columns carry a unimodular minor: their columns of
        # the matrix have Smith form I
        cols = res.pivot_cols
        assert len(cols) <= res.rank and cols <= set(range(nc))
        sub = smith_normal_form(
            SparseMatrix.from_entries({rc: v for rc, v in entries.items() if rc[1] in cols}, nr, nc)
        )
        assert (sub.rank, sub.divisors) == (len(cols), ())
        # dropped rows are left out, whatever they hold
        dropped = frozenset(r for r in range(nr) if rng.random() < 0.3)
        kept = SparseMatrix.from_entries(
            {rc: v for rc, v in entries.items() if rc[0] not in dropped}, nr, nc
        )
        res = smith_normal_form(mat, dropped)
        assert (res.rank, res.divisors) == dense_smith(kept)
        assert res.pivot_cols == smith_normal_form(kept).pivot_cols


def test_smith_forms_agree_with_the_determinantal_divisors():
    # a second route with no elimination: the gcds of the minors
    rng = random.Random(1729)
    for _ in range(1500):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        bound = rng.choice((2, 4, 9, 30))
        m = [
            [0 if rng.random() < 0.3 else rng.randint(-bound, bound) for _ in range(nc)]
            for _ in range(nr)
        ]
        diag = determinantal_divisors(m)
        res = snf_dense(m)
        assert (res.rank, res.divisors) == (len(diag), tuple(d for d in diag if d > 1)), m
        assert _dense_smith_diagonal([row[:] for row in m]) == diag, m


def test_dense_phase_on_even_matrices_stays_fast():
    # no entry is a unit, so every pivot leaves remainders; a reduction that
    # swaps each remainder into the pivot place and starts over takes about
    # 20 s on the 60 x 60 matrix
    rng = random.Random(5)
    for n in (20, 40, 60):
        m = [[rng.randint(-9, 9) * 2 for _ in range(n)] for _ in range(n)]
        start = time.perf_counter()
        diag = _dense_smith_diagonal([row[:] for row in m])
        assert time.perf_counter() - start < 3
        assert len(diag) == n
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
        assert prod(diag) == abs(determinant(m))


def test_peeled_rows_add_unit_pivots_beside_the_stored_rows():
    # a matrix with ``peeled`` rows is I_|peeled| beside its stored entries,
    # which lie on the other rows
    rng = random.Random(4096)
    for trial in range(200):
        nr, nc = rng.randint(1, 12), rng.randint(1, 12)
        peeled = frozenset(r for r in range(nr) if rng.random() < 0.3)
        values = (-1, 1) if trial % 2 else (-3, -2, -1, 1, 2, 3, 4)
        entries = {
            (r, c): rng.choice(values)
            for r in range(nr)
            for c in range(nc)
            if r not in peeled and rng.random() < 0.25
        }
        res = smith_normal_form(replace(SparseMatrix.from_entries(entries, nr, nc), peeled=peeled))
        stored = smith_normal_form(SparseMatrix.from_entries(entries, nr, nc))
        assert (res.rank, res.divisors) == (len(peeled) + stored.rank, stored.divisors)
        # the peeled rows' unit columns are not numbered: the pivot columns
        # are those of the stored entries
        assert res.pivot_cols == stored.pivot_cols
        # the same matrix with each peeled row's unit column written out
        units = {(r, nc + i): rng.choice((-1, 1)) for i, r in enumerate(sorted(peeled))}
        whole = SparseMatrix.from_entries({**entries, **units}, nr, nc + len(peeled))
        assert (res.rank, res.divisors) == dense_smith(whole)


def test_dense_phase_pivots_are_not_dropped():
    # Z -> Z^2 -> Z with d_2 = (2, 3)^T and d_1 = (3, -2): exact, so all
    # groups vanish.  d_1 has no unit entry, so no row may be dropped from
    # d_2; leaving out either would give H_1 = Z/2 or Z/3.
    boundaries = [
        (1, SparseMatrix.from_entries({(0, 0): 3, (0, 1): -2}, 1, 2)),
        (2, SparseMatrix.from_entries({(0, 0): 2, (1, 0): 3}, 2, 1)),
    ]
    assert smith_normal_form(boundaries[0][1]).pivot_cols == frozenset()
    expected = [(0, ()), (0, ()), (0, ())]
    assert homology_uncleared([1, 2, 1], boundaries) == expected
    assert homology_of_complex([1, 2, 1], boundaries) == expected
    assert homology_of_complex([1, 2, 1], reversed(boundaries)) == expected


def magnitude_boundaries(g, bases):
    """(k, d_k) for the complex spanned by ``bases``, from the bottom
    degree up, its rows and columns the bases (``oracles.indexed_boundary``)."""
    return [
        (k, indexed_boundary(g, bases[k], bases[k - 1]))
        for k in range(1, len(bases))
        if bases[k] and bases[k - 1]
    ]


def test_compression_leaves_out_the_rows_at_the_unit_pivot_columns_below(g3, monkeypatch):
    bases = [enumerate_sequences(g3, k, 6) for k in range(7)]
    calls = []

    def recorded(mat, dropped=()):
        res = smith_normal_form(mat, dropped)
        calls.append((mat, dropped, res))
        return res

    monkeypatch.setattr(snf, "smith_normal_form", recorded)
    dims, boundaries = [len(b) for b in bases], magnitude_boundaries(g3, bases)
    expected = homology_uncleared(dims, boundaries)
    assert homology_of_complex(dims, reversed(boundaries)) == expected
    # top down, no map comes after the one below it: nothing is dropped
    assert all(not dropped for _, dropped, _ in calls)
    calls.clear()
    assert homology_of_complex(dims, boundaries) == expected
    # C_2 = 0 at length 6 (diameter 2), so d_3 is zero and not built
    assert [mat.ncols for mat, _, _ in calls] == dims[4:]
    assert not calls[0][1]
    for (mat, _, res), (above, dropped, _) in zip(calls, calls[1:]):
        assert mat.ncols == above.nrows
        assert dropped == res.pivot_cols
        # no dense phase here: every pivot is a unit pivot
        assert len(dropped) == smith_normal_form(mat).rank > 0
        # the dropped rows are combinations of the kept ones
        full = smith_normal_form(above)
        kept = SparseMatrix.from_entries(
            {rc: v for rc, v in above.entries.items() if rc[0] not in dropped},
            above.nrows,
            above.ncols,
        )
        assert smith_normal_form(kept) == full
    # the same complex as the homology module grows it, one complex of
    # every pair: the columns of each map below the top are the cells of
    # its degree with a smooth point, it leaves out the rows at the unit
    # pivots of the map below, and its top map is peeled: the rows
    # dropped from it are stored rows
    calls.clear()
    monkeypatch.setattr(homology, "smith_normal_form", recorded)
    [(_, column)] = homology._columns(g3, 6, homology._checked(g3, None), merged=True)
    assert column == expected
    smooth = [sum(any(is_smooth(g3, x, i) for i in range(1, k)) for x in bases[k]) for k in (4, 5)]
    assert [mat.ncols for mat, _, _ in calls[:-1]] == smooth
    for (_, _, res), (_, dropped, _) in zip(calls, calls[1:]):
        assert dropped == res.pivot_cols
    top, dropped, _ = calls[-1]
    assert top.peeled and dropped and not top.peeled & dropped


def deleted(g, upper, lower):
    """{(row, col): sign} of the boundary from ``upper`` to ``lower`` by
    the deletion rule: column x has (-1)^i at the row of x without its
    smooth interior point i."""
    index = {y: r for r, y in enumerate(lower)}
    return {
        (index[x[:i] + x[i + 1 :]], col): (-1) ** i
        for col, x in enumerate(upper)
        for i in range(1, len(x) - 1)
        if is_smooth(g, x, i)
    }


def by_cells(mat, rows, cols):
    """The stored entries of ``mat`` as {(row cell, column cell): value}."""
    return {(rows[r], cols[c]): v for (r, c), v in mat.entries.items()}


def test_entries_views_are_the_deletion_rule_and_count_the_stored_entries(g1, g3, monkeypatch):
    # the traced nnz counts read len(mat.entries): every map that the
    # homology module builds for G3 at length 6, as one complex of every
    # pair, and the maps of a relative complex, hold the entries the
    # deletion rule gives, no more
    bases = [enumerate_sequences(g3, k, 6) for k in range(7)]
    maps = []  # (row cells, column cells, map)
    inserted = homology.boundary_matrix

    def recorded(g, basis_lo, cofaces=None, faced=None, charge=None):
        cols = []
        mat = inserted(g, basis_lo, cols, faced, charge)
        if cofaces is not None:
            cofaces.extend(cols)
        maps.append((list(basis_lo), cols, mat))
        return mat

    monkeypatch.setattr(homology, "boundary_matrix", recorded)
    homology._columns(g3, 6, homology._checked(g3, None), merged=True)
    *below, (rows, cols, top) = maps
    for (lower, upper, mat), k in zip(below, (4, 5)):
        full = deleted(g3, bases[k], bases[k - 1])
        assert sorted(lower) == list(bases[k - 1]) and mat.ncols == len(upper)
        assert by_cells(mat, lower, upper) == {
            (bases[k - 1][r], bases[k][c]): v for (r, c), v in full.items()
        }
    # the top map peels the rows of its one-entry columns and stores the
    # other columns on the other rows, in order of first appearance
    full = {(bases[5][r], bases[6][c]): v for (r, c), v in deleted(g3, bases[6], bases[5]).items()}
    columns = {}
    for (y, x), v in full.items():
        columns.setdefault(x, {})[y] = v
    lone = {y for column in columns.values() if len(column) == 1 for y in column}
    kept = {(y, x): v for (y, x), v in full.items() if y not in lone}
    number = {y: r for r, y in enumerate(rows)}
    first = {}
    for y, x in kept:
        first[x] = min(first.get(x, len(rows)), number[y])
    assert {rows[r] for r in top.peeled} == lone
    assert cols == sorted(first, key=lambda x: (first[x], x)) and top.ncols == len(cols)
    assert by_cells(top, rows, cols) == kept
    monkeypatch.undo()
    # the relative complex's top slot lists its walks with a face
    pair = relative_complex(g1, 1, 3, 7)
    cells = [pair.cells[lo:hi] for lo, hi in zip(pair.starts, pair.starts[1:])]
    for d, mat in pair.boundaries.items():
        assert mat.entries == deleted(g1, cells[d], cells[d - 1])
    # the counts as they were when the entries were stored as one
    # {(row, col): value} dict
    counts = [len(mat.entries) for _, _, mat in maps] + [len(mat.entries) for mat in pair.boundaries.values()]
    assert counts == [374, 4324, 5098, 122, 614, 1108] and sum(counts) == 11_640


def test_compression_keeps_the_fixture_summands(c4, g1, g2, g3):
    for g in (c4, g1, g2, g3):
        for a in g.vertices:
            for b in g.vertices:
                for ell in range(1, 7):
                    bases = [enumerate_sequences(g, k, ell, {(a, b): 1}) for k in range(ell + 1)]
                    dims = [len(x) for x in bases]
                    expected = homology_uncleared(dims, magnitude_boundaries(g, bases))
                    assert mh_column(g, ell, {(a, b): 1}) == expected
                    if ell >= 3:
                        # the relative complex is the summand in degrees 2..l
                        pair = relative_complex(g, a, b, ell)
                        maps = pair.boundaries.items()
                        assert relative_homology(pair) == homology_uncleared(dims[2:], maps)


@pytest.mark.parametrize("seed", range(12))
def test_compression_keeps_each_orbit_summand_complex(seed):
    rng = random.Random(seed)
    g = random_connected(rng, 5 + seed % 3)
    for ell in range(1, 6):
        columns = []
        for pair, m in pair_orbits(g).items():
            bases = [enumerate_sequences(g, k, ell, {pair: 1}) for k in range(ell + 1)]
            dims, boundaries = [len(x) for x in bases], magnitude_boundaries(g, bases)
            columns.append((m, homology_uncleared(dims, boundaries)))
            assert homology_of_complex(dims, boundaries) == columns[-1][1]
            assert homology_of_complex(dims, reversed(boundaries)) == columns[-1][1]
        assert mh_column(g, ell) == [
            (sum(m * c[k][0] for m, c in columns), merge_torsion((c[k][1], m) for m, c in columns))
            for k in range(ell + 1)
        ]
        a, b = rng.choice(g.vertices), rng.choice(g.vertices)
        if ell >= 3:
            dims, maps = cell_boundaries([()] + sorted(path_complex(g, a, b, ell)))
            maps = list(maps)
            assert [k for k, _ in maps] == sorted(k for k, _ in maps)
            expected = homology_uncleared(dims, maps)
            assert homology_of_complex(dims, maps) == expected
            assert homology_of_complex(dims, reversed(maps)) == expected


def test_entries_outside_the_shape_are_refused():
    # the Smith form indexes its column tables by column: a negative
    # column would wrap round and a too-large one would overrun them
    for entry in ((0, -1), (0, 3), (-1, 0), (2, 0)):
        with pytest.raises(ValueError, match="outside 2 x 3"):
            SparseMatrix.from_entries({(0, 0): 1, entry: 1}, 2, 3)
    mat = SparseMatrix.from_entries({(1, 2): -1, (0, 0): 2}, 2, 3)
    assert mat.rows == {1: {2: -1}, 0: {0: 2}}
    assert mat.entries == {(0, 0): 2, (1, 2): -1} and len(mat.entries) == 2


@pytest.mark.parametrize(
    "entries, shape, dropped, form",
    [
        # lone columns holding 2 and -3 are no unit pivots: they keep
        # their divisors, 2 + 3 = 1 + 6
        ({(0, 0): 2, (1, 1): -3}, (2, 2), (), (2, (6,))),
        ({(0, 0): 2, (0, 1): 1, (1, 1): 1, (1, 2): -3, (2, 2): 4}, (3, 3), (), (3, (8,))),
        # a lone entry on row 0, the XOR of no other row id
        ({(0, 0): -1, (0, 1): 1, (1, 1): 1, (1, 2): 2, (2, 2): 2}, (3, 3), (), (3, (2,))),
        # column 3 is lone on row 0 once row 1 is retired: its XOR is 0
        ({(0, 3): 1, (1, 3): 1, (1, 0): 1}, (2, 4), (), (2, ())),
        # column 1 is lone only once row 3 is retired, column 2 only once
        # row 5 is; two lone columns share row 6
        (
            {(3, 0): 1, (3, 1): 1, (5, 1): -1, (5, 2): 1, (6, 2): 1, (6, 3): 1, (6, 4): -1},
            (7, 5),
            (),
            (3, ()),
        ),
        # no lone column: coreduction takes nothing
        ({(0, 0): 1, (0, 1): 1, (1, 1): 1, (1, 2): 3, (2, 2): 3, (2, 0): 3}, (3, 3), (), None),
        # a dropped row is column 1's only entry, and one of column 0's two
        ({(0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 2): 2}, (3, 3), (1,), (2, (2,))),
        # columns and rows past the last one used
        ({(0, 0): 1, (1, 1): 3}, (5, 9), (), (2, (3,))),
    ],
    ids=[
        "lone-2-and-minus-3",
        "lone-2-and-minus-3-beside-units",
        "lone-on-row-0",
        "lone-on-row-0-after-a-retirement",
        "lone-after-a-retirement",
        "no-lone-column",
        "dropped-lone-entry",
        "shape-past-the-entries",
    ],
)
def test_coreduction_edge_cases_agree_with_the_dense_reduction(entries, shape, dropped, form):
    mat = SparseMatrix.from_entries(entries, *shape)
    kept = SparseMatrix.from_entries(
        {rc: v for rc, v in entries.items() if rc[0] not in dropped}, *shape
    )
    res = smith_normal_form(mat, dropped)
    assert (res.rank, res.divisors) == dense_smith(kept)
    assert form is None or (res.rank, res.divisors) == form
    # the unit pivot columns carry a unimodular minor
    cols = res.pivot_cols
    sub = smith_normal_form(
        SparseMatrix.from_entries({rc: v for rc, v in kept.entries.items() if rc[1] in cols}, *shape)
    )
    assert (sub.rank, sub.divisors) == (len(cols), ())


def test_smith_form_leaves_its_input_as_it_was(g3):
    # a cycle of units: no lone column for coreduction, and every unit
    # pivot makes fill, as its row has an entry where the row it clears
    # has none; then G3's peeled top map at length 6, less the rows at
    # the unit pivot columns of the map below
    cycle = SparseMatrix.from_entries(
        {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1}, 3, 3
    )
    cols = {c: {r for r, rdata in cycle.rows.items() if c in rdata} for c in range(3)}
    assert all(len(rs) == 2 for rs in cols.values())
    assert all(cycle.rows[r].keys() - cycle.rows[r2].keys()
               for rs in cols.values() for r in rs for r2 in rs - {r})
    bases = [enumerate_sequences(g3, k, 6) for k in range(6)]
    below = indexed_boundary(g3, bases[5], bases[4])
    top = boundary_matrix(g3, bases[5], faced=set().union(*below.rows.values()))
    dropped = smith_normal_form(below).pivot_cols
    assert top.peeled and dropped and dropped <= top.rows.keys()
    for mat, rows, form in ((cycle, (), (3, (2,))), (top, dropped, None)):
        before = ({r: dict(d) for r, d in mat.rows.items()}, mat.nrows, mat.ncols, mat.peeled)
        res = smith_normal_form(mat, rows)
        assert form is None or (res.rank, res.divisors) == form
        assert (mat.rows, mat.nrows, mat.ncols, mat.peeled) == before
        assert smith_normal_form(mat, rows) == res
    # the relative complex keeps its maps for covers() after its homology
    pair = relative_complex(g3, 1, 6, 5)
    covers = list(pair.covers())
    relative_homology(pair)
    assert covers and list(pair.covers()) == covers
