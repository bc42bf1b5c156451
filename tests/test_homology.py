"""Exact linear algebra over the rationals and cellular homology."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import (NotNested, _integer_rank, betti, boundary_space,
                     cycle_space, filtration, image_betti)
from vanhom import (NotFaceClosed, Subspace, build_circle,
                    build_pinched_spheres, build_torus, chain_boundary,
                    rank_of, unit_chains, Velocity)
from vanhom.homology import _boundary_columns, _integer_reduce, kernel_basis

F = Fraction


def full(c):
    return c.cell_ids()


def ids_of_dim(c, j):
    return sorted(cell.id for cell in c.cells_of_dim(j))


def columns(c, ids):
    # boundary columns keyed by cell id
    return _boundary_columns(c, ids, {cid: cid for cid in c.cell_ids()})


class TestBoundaryMatrix:
    def test_circle_columns(self):
        c, _ = build_circle(5, 0)
        cols = columns(c, ids_of_dim(c, 1))
        assert len(cols) == 5
        assert {face for col in cols for face in col} == set(ids_of_dim(c, 0))
        for col in cols:
            assert sorted(col.values()) == [-1, 1]

    def test_entries_match_cell_data(self):
        c, _ = build_torus(0, 2, 3)
        ids = ids_of_dim(c, 2)
        for cid, col in zip(ids, columns(c, ids)):
            expected = {}
            for k, face in c.cell(cid).boundary:
                expected[face] = expected.get(face, 0) + k
            expected = {f: v for f, v in expected.items() if v}
            assert col == expected

    def test_rows_at_the_callers_keys(self):
        # each face lands at its key's row; RP^2's 2-cell keeps its 2e
        for c in (build_torus(0, 2, 3)[0], helpers.projective_plane()):
            ids = sorted(c.cell_ids())
            key = {cid: 3 * k + 1 for k, cid in enumerate(reversed(ids))}
            for cid, col in zip(ids, _boundary_columns(c, ids, key)):
                assert col == {key[face]: k
                               for face, k in columns(c, [cid])[0].items()}

    def test_empty_degree(self):
        c, _ = build_circle(3, 0)
        cols = columns(c, ids_of_dim(c, 2))
        assert cols == []
        assert _integer_rank(cols) == 0


class TestRank:
    def test_identity(self):
        cols = [{i: F(1)} for i in range(3)]
        assert rank_of(cols) == 3
        assert _integer_rank({i: 1} for i in range(3)) == 3

    def test_dependent_rows(self):
        cols = [{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}]
        assert rank_of(cols) == 1
        assert _integer_rank([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1

    def test_circle_boundary_rank(self):
        c, _ = build_circle(7, 0)
        assert _integer_rank(columns(c, ids_of_dim(c, 1))) == 6

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(12)
        for _ in range(25):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            entries = {(i, j): rng.randint(-3, 3)
                       for i in range(n) for j in range(m)
                       if rng.random() < 0.7}
            entries = {k: v for k, v in entries.items() if v}
            cols = [{i: v for (i, j), v in entries.items() if j == col}
                    for col in range(m)]
            rows = [{j: v for (i, j), v in entries.items() if i == row}
                    for row in range(n)]
            assert _integer_rank(cols) == _integer_rank(rows)
            assert rank_of({k: F(v) for k, v in col.items()}
                           for col in cols) == _integer_rank(cols)


class TestKernel:
    def test_combos_really_vanish(self):
        rng = random.Random(3)
        for _ in range(20):
            vecs = [{rng.randint(0, 4): F(rng.randint(-2, 2))
                     for _ in range(rng.randint(0, 4))}
                    for _ in range(rng.randint(1, 5))]
            vecs = [{k: v for k, v in vec.items() if v} for vec in vecs]
            for combo in kernel_basis(vecs):
                total = {}
                for idx, coeff in combo.items():
                    for k, v in vecs[idx].items():
                        total[k] = total.get(k, F(0)) + coeff * v
                assert all(v == 0 for v in total.values())

    def test_rank_nullity(self):
        rng = random.Random(4)
        for _ in range(20):
            vecs = [{rng.randint(0, 3): F(rng.randint(-2, 2))}
                    for _ in range(rng.randint(1, 6))]
            vecs = [{k: v for k, v in vec.items() if v} for vec in vecs]
            assert rank_of(vecs) + len(kernel_basis(vecs)) == len(vecs)


def random_vectors(rng):
    """Up to 7 rational vectors on keys -6..3, some of them zero."""
    return [{k: v for k, v in ((rng.randint(-6, 3),
                                F(rng.randint(-3, 3), rng.randint(1, 3)))
                               for _ in range(rng.randint(0, 4))) if v}
            for _ in range(rng.randint(0, 7))]


class TestEchelonContract:
    """Subspace rows and kernel_basis combinations, keys may be negative."""

    def test_rows_lead_at_their_lowest_key_with_coefficient_one(self):
        rng = random.Random(22)
        for _ in range(300):
            vecs = random_vectors(rng)
            space = Subspace(vecs)
            leads = [min(row) for row in space.basis()]
            assert leads == sorted(set(leads))
            assert all(row[min(row)] == 1 for row in space.basis())
            assert space.dim == rank_of(vecs) == len(leads)
            assert all(space.contains(vec) for vec in vecs)

    def test_kernel_combinations(self):
        rng = random.Random(23)
        for _ in range(300):
            vecs = random_vectors(rng)
            combos = kernel_basis(vecs)
            assert len(combos) == len(vecs) - rank_of(vecs)
            for combo in combos:
                total = {}
                for idx, coeff in combo.items():
                    for k, v in vecs[idx].items():
                        total[k] = total.get(k, F(0)) + coeff * v
                assert not any(total.values())
                # a combination holds its own vector, with coefficient 1,
                # and earlier ones only; so they are independent
                assert combo[max(combo)] == 1
            assert len({max(combo) for combo in combos}) == len(combos)
            assert rank_of(combos) == len(combos)

    def test_empty_list_and_zero_vectors(self):
        assert Subspace([]).dim == rank_of([]) == 0
        assert Subspace([]).basis() == kernel_basis([]) == []
        assert Subspace([{}, {}]).dim == 0
        assert kernel_basis([{}, {-3: F(2)}, {}]) == [{0: F(1)}, {2: F(1)}]
        # zero entries are no keys of a chain
        assert Subspace([{0: F(0)}, {-1: F(0), 2: F(3)}]).basis() == [
            {2: F(1)}]
        assert kernel_basis([{0: F(0)}, {1: F(2), 4: F(0)}]) == [{0: F(1)}]
        assert Subspace([{1: F(1)}]).contains({0: F(0), 1: F(5)})
        assert Subspace([]).contains({})
        assert not Subspace([{}]).contains({-1: F(1)})

    def test_negative_keys(self):
        space = Subspace([{-2: F(2), 5: F(1)}, {-5: F(3), -2: F(1)}])
        # the second vector sets -5 aside and clears -2 with the first row
        assert space.basis() == [{-5: F(1), 5: F(-1, 6)},
                                 {-2: F(1), 5: F(1, 2)}]
        assert space.contains({-5: F(3), -2: F(3), 5: F(1)})
        assert kernel_basis([{-1: F(1)}, {-1: F(-2)}]) == [{0: F(2),
                                                            1: F(1)}]


class TestIntegerReduce:
    def random_columns(self, rng):
        return [{k: v for k, v in ((rng.randint(0, 5), rng.randint(-3, 3))
                                   for _ in range(rng.randint(0, 4))) if v}
                for _ in range(rng.randint(1, 8))]

    def test_against_rational_elimination(self):
        rng = random.Random(41)
        for _ in range(300):
            cols = self.random_columns(rng)
            independent, kernels = _integer_reduce(cols, kernel=True)
            assert len(independent) == rank_of(
                {k: F(v) for k, v in col.items()} for col in cols)
            assert rank_of({k: F(v) for k, v in cols[i].items()}
                           for i in independent) == len(independent)
            assert len(independent) + len(kernels) == len(cols)
            assert list(independent) == sorted(independent)
            # elimination only cancels keys, so a pivot key is at or past
            # its column's least key; no key holds two pivots
            assert all(key >= min(cols[i]) for i, key in independent.items())
            assert len(set(independent.values())) == len(independent)
            for combo in kernels:
                assert all(type(v) is int and v for v in combo.values())
                assert gcd(*combo.values()) == 1
                total = {}
                for idx, coeff in combo.items():
                    for k, v in cols[idx].items():
                        total[k] = total.get(k, 0) + coeff * v
                assert not any(total.values())
            # each combination holds a new index, so they are independent
            assert len({max(combo) for combo in kernels}) == len(kernels)

    def test_same_steps_as_the_reference_kernel(self):
        # the fast paths (unit leads without a gcd, steps in place,
        # single-entry pivots) give what a gcd and a new dict per step
        # give: the same pivots, echelon columns and kernel combinations,
        # entry for entry and in the same order, and the inputs untouched
        rng = random.Random(43)
        for trial in range(300):
            unit = trial % 3 == 0  # only unit entries: every fast path
            cols = [{k: v for k, v in (
                (rng.randint(0, 7), rng.choice((-1, 1)) if unit
                 else rng.randint(-4, 4))
                for _ in range(rng.randint(0, 5))) if v}
                for _ in range(rng.randint(1, 10))]
            seeded = {}
            if trial % 2:
                # an echelon basis of a few more columns, some with one entry
                seeds = self.random_columns(rng) + [
                    {rng.randint(0, 7): rng.choice((-1, 1, 2))}]
                helpers.reference_integer_reduce(seeds, echelon=seeded)
            before = [dict(col) for col in cols]
            for kernel in (False, True):
                mine, theirs = dict(seeded), dict(seeded)
                got = _integer_reduce(cols, kernel=kernel, echelon=mine)
                want = helpers.reference_integer_reduce(cols, kernel=kernel,
                                                        echelon=theirs)
                assert got == want, (cols, seeded, kernel)
                assert [list(x.items()) for x in got[1]] == [
                    list(x.items()) for x in want[1]]
                assert list(mine) == list(theirs)
                assert [list(x.items()) for x in mine.values()] == [
                    list(x.items()) for x in theirs.values()]
                assert cols == before

    def test_rank_only_returns_no_kernel(self):
        cols = [{0: 2}, {0: 4}, {1: 1}]
        assert _integer_reduce(cols) == ({0: 0, 2: 1}, [])
        assert _integer_reduce(cols, kernel=True) == ({0: 0, 2: 1},
                                                      [{0: -2, 1: 1}])

    def test_pairing_lemma(self):
        # the pivots inside every leading block of columns and row keys
        # count the rank of that block
        rng = random.Random(42)
        for _ in range(150):
            cols = self.random_columns(rng)
            pivots, _ = _integer_reduce(cols)
            for k in range(len(cols) + 1):
                for m in range(7):
                    block = [{r: F(v) for r, v in col.items() if r < m}
                             for col in cols[:k]]
                    inside = sum(1 for i, key in pivots.items()
                                 if i < k and key < m)
                    assert inside == rank_of(block), (cols, k, m)


class TestSubspace:
    def vspace(self, *vecs):
        return Subspace([dict(v) for v in vecs])

    def test_dim_and_contains(self):
        u = self.vspace({0: F(1)}, {1: F(1)}, {0: F(2), 1: F(2)})
        assert u.dim == 2
        assert u.contains({0: F(3), 1: F(-5)})
        assert not u.contains({2: F(1)})

    def test_sum_and_intersection_dims(self):
        u = self.vspace({0: F(1)}, {1: F(1)})
        w = self.vspace({1: F(1)}, {2: F(1)})
        both = helpers.subspace_sum(u, w)
        meet = u.intersection(w)
        assert both.dim == 3
        assert meet.dim == 1
        assert meet.contains({1: F(7)})

    def test_dimension_formula(self):
        rng = random.Random(9)
        for _ in range(25):
            mk = lambda: self.vspace(*[
                {rng.randint(0, 4): F(rng.randint(-2, 2)) or F(1)}
                for _ in range(rng.randint(0, 4))])
            u, w = mk(), mk()
            assert (helpers.subspace_sum(u, w).dim + u.intersection(w).dim
                    == u.dim + w.dim)

    def test_intersection_contained_in_both(self):
        u = self.vspace({0: F(1), 1: F(1)}, {2: F(1)})
        w = self.vspace({0: F(1), 1: F(1), 2: F(3)})
        meet = u.intersection(w)
        assert helpers.contains_subspace(u, meet)
        assert helpers.contains_subspace(w, meet)

    def test_map_kernel(self):
        u = self.vspace({0: F(1)}, {1: F(1)})
        drop0 = lambda vec: {k: v for k, v in vec.items() if k != 0}
        ker = u.map_kernel(drop0)
        assert ker.dim == 1
        assert ker.contains({0: F(1)})

    def test_map_preimage(self):
        u = self.vspace({0: F(1)}, {1: F(1)}, {2: F(1)})
        target = self.vspace({0: F(1)})
        shift = lambda vec: {k + 10: v for k, v in vec.items()
                             if k != 2}
        pre = u.map_preimage(shift, self.vspace({10: F(1)}))
        assert pre.dim == 2
        assert pre.contains({0: F(1)})
        assert pre.contains({2: F(1)})
        assert not pre.contains({1: F(1)})
        assert target.dim == 1


class TestChainBoundary:
    def test_boundary_of_boundary(self):
        rng = random.Random(77)
        for _ in range(15):
            c, _ = helpers.random_complex(rng)
            for cell in c.cells():
                once = chain_boundary(c, {cell.id: F(1)})
                twice = chain_boundary(c, once)
                assert twice == {}

    def test_linearity(self):
        c, _ = build_torus(0, 2, 3)
        ids = sorted(c.ids_of_dim(2))
        a, b = {ids[0]: F(2)}, {ids[1]: F(-3)}
        combined = dict(a)
        combined.update(b)
        lhs = chain_boundary(c, combined)
        rhs = {}
        for part in (chain_boundary(c, a), chain_boundary(c, b)):
            for k, v in part.items():
                rhs[k] = rhs.get(k, F(0)) + v
        rhs = {k: v for k, v in rhs.items() if v}
        assert lhs == rhs


class TestBetti:
    def test_circle(self):
        c, _ = build_circle(6, 0)
        assert betti(c, full(c), 0) == 1
        assert betti(c, full(c), 1) == 1

    def test_torus(self):
        c, _ = build_torus(0, 2, 3)
        assert [betti(c, full(c), j) for j in range(3)] == [1, 2, 1]

    def test_pinched(self):
        c, _, _ = build_pinched_spheres(2, 3)
        assert [betti(c, full(c), j) for j in range(3)] == [1, 0, 1]

    def test_euler_agrees(self):
        rng = random.Random(55)
        for _ in range(15):
            c, _ = helpers.random_complex(rng)
            chi = sum((-1) ** j * betti(c, full(c), j)
                      for j in range(c.dim + 1))
            assert chi == c.euler_characteristic()


class TestImageBetti:
    def test_torus_filtration_step(self):
        c, rates = build_torus(0, 2, 3)
        f = filtration(c, rates, Velocity(F(2)))
        assert image_betti(c, f.level(1), f.level(2), 1) == 1

    def test_equal_sets_give_betti(self):
        c, _ = build_torus(0, 2, 3)
        for j in range(3):
            assert image_betti(c, full(c), full(c), j) == betti(c, full(c), j)

    def test_bounded_by_both_sides(self):
        rng = random.Random(23)
        for _ in range(15):
            c, _ = helpers.random_complex(rng)
            sub = helpers.random_subcomplex(rng, c)
            for j in range(c.dim + 1):
                img = image_betti(c, sub, full(c), j)
                assert img <= betti(c, sub, j)
                assert img <= betti(c, full(c), j)

    def test_not_nested_rejected(self):
        c, _ = build_circle(4, 0)
        edges = frozenset(c.ids_of_dim(1))
        verts = frozenset(c.ids_of_dim(0))
        with pytest.raises(NotNested):
            image_betti(c, full(c), verts, 0)
        with pytest.raises(NotFaceClosed):
            image_betti(c, edges, full(c), 1)


class TestSpaces:
    def test_cycles_contain_boundaries(self):
        rng = random.Random(31)
        for _ in range(10):
            c, _ = helpers.random_complex(rng)
            for j in range(c.dim + 1):
                z = cycle_space(c, full(c), j)
                b = boundary_space(c, full(c), j)
                assert helpers.contains_subspace(z, b)
                assert z.dim - b.dim == betti(c, full(c), j)

    def test_deterministic(self):
        c, _ = build_torus(1, 3, 3)
        one = [sorted(v.items()) for v in cycle_space(c, full(c), 1).basis()]
        two = [sorted(v.items()) for v in cycle_space(c, full(c), 1).basis()]
        assert one == two


@given(st.lists(st.lists(st.tuples(st.integers(0, 4),
                                   st.fractions(max_denominator=6)),
                          max_size=4),
                max_size=6))
@settings(deadline=None)
def test_unit_chain_span(raw):
    vecs = []
    for entry in raw:
        vec = {}
        for k, v in entry:
            vec[k] = vec.get(k, F(0)) + v
        vecs.append({k: v for k, v in vec.items() if v})
    space = Subspace(vecs)
    support = sorted({k for vec in vecs for k in vec})
    ambient = Subspace(unit_chains(support))
    assert helpers.contains_subspace(ambient, space)
    assert space.dim <= len(support)
