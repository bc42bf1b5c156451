"""Complex structure, builders, validation, unions, subcomplexes."""

import random
from fractions import Fraction

import pytest

import helpers
from helpers import betti, disjoint_union, vertex_support
from vanhom import (Cell, CellComplex, InvalidComplex, NotFaceClosed,
                    SimplicialBuilder, build_circle, build_pinched_spheres,
                    build_torus, validate)

F = Fraction


def labels(c):
    return {cell.label: cell.id for cell in c.cells()}


class TestCircle:
    def test_counts(self):
        c, rates = build_circle(5, 1)
        assert c.f_vector() == (5, 5)
        assert c.euler_characteristic() == 0
        assert set(rates.values()) == {F(1)}
        assert len(rates) == 5

    def test_valid(self):
        c, _ = build_circle(4, 0)
        assert validate(c).ok

    def test_betti(self):
        c, _ = build_circle(6, 2)
        assert betti(c, c.cell_ids(), 0) == 1
        assert betti(c, c.cell_ids(), 1) == 1

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            build_circle(2, 0)


class TestTorus:
    def test_counts(self):
        c, rates = build_torus(0, 2, 3)
        assert c.f_vector() == (9, 27, 18)
        assert c.euler_characteristic() == 0
        assert validate(c).ok

    def test_rates_by_family(self):
        c, rates = build_torus(0, 2, 3)
        ids = labels(c)
        for i in range(3):
            for j in range(3):
                assert rates[ids[f"h({i},{j})"]] == F(0)
                assert rates[ids[f"u({i},{j})"]] == F(2)
                assert rates[ids[f"d({i},{j})"]] == F(0)
                assert rates[ids[f"t1({i},{j})"]] == F(2)
                assert rates[ids[f"t2({i},{j})"]] == F(2)

    def test_factor_rates_are_sorted(self):
        a = build_torus(3, 1, 3)
        b = build_torus(1, 3, 3)
        assert a[1] == b[1]

    def test_betti(self):
        c, _ = build_torus(0, 2, 3)
        assert [betti(c, c.cell_ids(), j) for j in range(3)] == [1, 2, 1]


class TestPinchedSpheres:
    def test_counts(self):
        c, rates, circle = build_pinched_spheres(2, 3)
        assert c.f_vector() == (11, 27, 18)
        assert c.euler_characteristic() == 2
        assert validate(c).ok

    def test_betti_is_a_sphere(self):
        c, _, _ = build_pinched_spheres(2, 3)
        assert [betti(c, c.cell_ids(), j) for j in range(3)] == [1, 0, 1]

    def test_circle_subcomplex(self):
        c, rates, circle = build_pinched_spheres(2, 3)
        assert c.is_face_closed(circle)
        dims = sorted(c.cell(cid).dim for cid in circle)
        assert dims == [0, 0, 0, 1, 1, 1]
        assert all(rates[cid] == F(2)
                   for cid in circle if c.cell(cid).dim == 1)

    def test_rate_split(self):
        c, rates, circle = build_pinched_spheres(2, 3)
        fast = [cid for cid, r in rates.items() if r == F(2)]
        # the shared circle edges plus one collar triangle per edge per cap
        assert len(fast) == 3 + 6
        assert sum(1 for cid in fast if c.cell(cid).dim == 2) == 6

    def test_larger_n(self):
        c, rates, circle = build_pinched_spheres(1, 5)
        assert c.f_vector() == (17, 45, 30)
        assert c.euler_characteristic() == 2
        assert [betti(c, c.cell_ids(), j) for j in range(3)] == [1, 0, 1]


class TestValidation:
    def test_reports_bad_face_dim(self):
        c = CellComplex([
            Cell(0, 0), Cell(1, 2, ((1, 0),)),
        ])
        report = validate(c)
        assert not report.ok
        assert any("dim" in p for p in report.problems)

    def test_reports_unknown_face(self):
        c = CellComplex([Cell(0, 1, ((1, 7),))])
        assert not validate(c).ok

    def test_reports_broken_double_boundary(self):
        # a triangle glued to only two edges does not cancel
        c = CellComplex([
            Cell(0, 0), Cell(1, 0), Cell(2, 0),
            Cell(3, 1, ((1, 1), (-1, 0))),
            Cell(4, 1, ((1, 2), (-1, 1))),
            Cell(5, 1, ((1, 2), (-1, 0))),
            Cell(6, 2, ((1, 3), (1, 4), (1, 5))),
        ])
        report = validate(c)
        assert not report.ok
        assert any("cancel" in p for p in report.problems)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidComplex):
            CellComplex([Cell(0, 0), Cell(0, 0)])


class TestSubsets:
    def test_face_closure(self):
        c, _ = build_torus(0, 2, 3)
        ids = labels(c)
        closure = c.face_closure([ids["t1(0,0)"]])
        assert len(closure) == 7
        assert c.is_face_closed(closure)

    def test_restrict_requires_closure(self):
        c, _ = build_circle(4, 0)
        edge = labels(c)["e0"]
        with pytest.raises(NotFaceClosed):
            c.restrict(frozenset([edge]))

    def test_restrict_rejects_unknown_ids(self):
        c, _ = build_circle(3, 0)
        with pytest.raises(KeyError) as info:
            c.restrict([0, 99, -1])
        assert info.value.args == ("unknown cell ids [-1, 99]",)

    def test_restrict_identity(self):
        c, _ = build_circle(4, 0)
        r = c.restrict(c.cell_ids())
        assert r.cell_ids() == c.cell_ids()
        assert r.f_vector() == c.f_vector()

    def test_meridian_components(self):
        # three disjoint circles inside the torus one-skeleton
        c, _ = build_torus(0, 2, 3)
        ids = labels(c)
        meridians = frozenset(
            [ids[f"u({i},{j})"] for i in range(3) for j in range(3)]
            + [cell.id for cell in c.cells_of_dim(0)])
        assert c.is_face_closed(meridians)
        assert betti(c, meridians, 0) == helpers.component_count(c, meridians)
        assert betti(c, meridians, 0) == 3
        assert betti(c, meridians, 1) == 3

    def test_vertex_support(self):
        c, _ = build_torus(0, 2, 3)
        ids = labels(c)
        assert vertex_support(c, ids["t1(1,1)"]) == frozenset(
            [ids["v(1,1)"], ids["v(2,1)"], ids["v(2,2)"]])

    def test_betti_zero_matches_components_randomly(self):
        rng = random.Random(991)
        for _ in range(20):
            c, _ = helpers.random_complex(rng)
            s = helpers.random_subcomplex(rng, c)
            assert betti(c, s, 0) == helpers.component_count(c, s)


class TestSimplicialBuilder:
    def test_new_ids_follow_the_largest_so_far(self):
        b = SimplicialBuilder()
        b.add_vertex(10)
        b.add_vertex(3)
        assert b.add_simplex((10, 3)) == 11
        b.add_vertex(20)
        assert b.add_simplex((3, 20)) == 21
        assert b.add_simplex((20, 10)) == 22
        assert b.add_simplex((10, 3, 20)) == 23
        c = b.complex()
        assert sorted(c.cell_ids()) == [3, 10, 11, 20, 21, 22, 23]
        assert validate(c).ok

    def test_duplicate_vertex_rejected(self):
        b = SimplicialBuilder()
        b.add_vertex(0)
        with pytest.raises(InvalidComplex) as info:
            b.add_vertex(0)
        assert info.value.args == ("duplicate vertex 0",)

    @pytest.mark.parametrize("build", [
        lambda n: build_circle(n, 0), lambda n: build_torus(0, 2, n),
        lambda n: build_pinched_spheres(2, n)],
        ids=["circle", "torus", "pinched"])
    def test_builders_refuse_n_below_three(self, build):
        with pytest.raises(ValueError) as info:
            build(2)
        assert info.value.args == ("need n >= 3",)
        build(3)

    def test_rejected_simplex_takes_no_id(self):
        b = SimplicialBuilder()
        b.add_vertex(0)
        b.add_vertex(1)
        with pytest.raises(InvalidComplex):
            b.add_simplex((0, 2))
        assert b.add_simplex((0, 1)) == 2


class TestDisjointUnion:
    def test_counts_and_shift(self):
        a, _ = build_circle(3, 0)
        b, _ = build_circle(4, 1)
        u = disjoint_union(a, b)
        assert u.f_vector() == (7, 7)
        assert validate(u).ok
        assert betti(u, u.cell_ids(), 0) == 2
        assert betti(u, u.cell_ids(), 1) == 2

    def test_empty_identity(self):
        a, _ = build_circle(3, 0)
        u = disjoint_union(a, CellComplex([]))
        assert u.f_vector() == a.f_vector()
