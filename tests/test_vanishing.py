"""The vanishing dimension tables, both engines, and velocity sweeps."""

import itertools
import random
from fractions import Fraction

import pytest

import helpers
from helpers import (betti, disjoint_union, filtration, image_betti,
                     vanishing_euler)
from vanhom import (INF, Cell, CellComplex, ChainSubspaceComplex,
                    NotFaceClosed, Subspace, Velocity, build_circle,
                    build_pinched_spheres, build_torus, chain_boundary,
                    critical_rates, excision_check, is_thin, les_check,
                    rank_of, relative_vanishing, sweep, thin_chain_complex,
                    vanishing, vanishing_betti, vanishing_betti_oracle)
from vanhom.homology import _pivot_levels

F = Fraction


def random_velocity(rng):
    return Velocity(F(rng.randint(-1, 4), rng.choice([1, 1, 2])),
                    strict=rng.random() < 0.4)


class TestFixtures:
    def test_torus_slow_fast(self):
        c, rates = build_torus(0, 2, 3)
        t = vanishing_betti(c, rates, Velocity(F(2)))
        assert t.dims == {0: 0, 1: 1, 2: 1}
        assert t.euler == 0

    def test_torus_strict_cut_kills_everything(self):
        c, rates = build_torus(0, 2, 3)
        t = vanishing_betti(c, rates, Velocity(F(2), strict=True))
        assert t.dims == {0: 0, 1: 0, 2: 0}
        assert t.euler == 0

    def test_torus_between_the_rates(self):
        # the fast triangles are still collapsing at this cut, so the top
        # class survives alongside the single fast circle class
        c, rates = build_torus(0, 2, 3)
        t = vanishing_betti(c, rates, Velocity(F(1)))
        assert t.dims == {0: 0, 1: 1, 2: 1}
        assert t.euler == 0

    def test_torus_strictly_above_slow_rate(self):
        c, rates = build_torus(0, 2, 3)
        t = vanishing_betti(c, rates, Velocity(F(0), strict=True))
        assert t.dims == {0: 0, 1: 1, 2: 1}

    def test_torus_other_factor_pair(self):
        c, rates = build_torus(1, 3, 3)
        t = vanishing_betti(c, rates, Velocity(F(3)))
        assert t.dims == {0: 0, 1: 1, 2: 1}

    def test_circle(self):
        c, rates = build_circle(3, 2)
        assert vanishing_betti(c, rates, Velocity(F(2))).dims == {0: 0, 1: 1}
        assert (vanishing_betti(c, rates, Velocity(F(2), strict=True)).dims
                == {0: 0, 1: 0})

    def test_euler_alternates_over_positive_degrees(self):
        c, rates = build_circle(3, 2)
        t = vanishing_betti(c, rates, Velocity(F(2)))
        assert t.euler == -1
        assert vanishing_euler(t) == -1

    # every route gives degree 0 alone, with nothing vanishing; vertices
    # carry no rate and are never thin
    @pytest.mark.parametrize("cells", [(), (Cell(0, 0),)],
                             ids=["empty", "one-vertex"])
    def test_empty_complex(self, cells):
        c, rates, v = CellComplex(cells), {}, Velocity(F(0))
        for t in (vanishing_betti(c, rates, v),
                  vanishing_betti_oracle(c, rates, v)):
            assert (t.dims, t.euler) == ({0: 0}, 0)
        assert sweep(c, rates).dims == {0: (0,)}
        pair = relative_vanishing(c, rates, frozenset(), v)
        assert (pair.absolute, pair.relative, pair.attached) == ({0: 0},) * 3
        assert pair.exact
        les = les_check(c, rates, frozenset(), v)
        assert les.exact
        assert [(n.dim, n.rank_in, n.rank_out) for n in les.nodes] == [
            (0, 0, 0)] * 3

    def test_pinched(self):
        c, rates, _ = build_pinched_spheres(2, 3)
        t = vanishing_betti(c, rates, Velocity(F(2)))
        assert t.dims == {0: 0, 1: 1, 2: 0}


class TestOracleAgreement:
    def test_on_fixtures(self):
        cases = [build_torus(0, 2, 3), build_torus(1, 3, 3),
                 build_circle(4, 1), build_pinched_spheres(2, 3)[:2]]
        cuts = [Velocity(F(0)), Velocity(F(2)), Velocity(F(2), strict=True),
                Velocity(F(5, 2)), Velocity(F(-1))]
        for c, rates in cases:
            for v in cuts:
                assert (vanishing_betti(c, rates, v).dims
                        == vanishing_betti_oracle(c, rates, v).dims)

    def test_on_random_complexes(self):
        rng = random.Random(2024)
        for _ in range(30):
            c, rates = helpers.random_complex(rng)
            v = random_velocity(rng)
            left = vanishing_betti(c, rates, v)
            right = vanishing_betti_oracle(c, rates, v)
            assert left.dims == right.dims
            assert left.euler == right.euler


def assert_engines_agree(c, rates):
    """Engine and oracle agree at every breakpoint and its strict cut."""
    for bp in critical_rates(c, rates):
        for v in (Velocity(bp), Velocity(bp, strict=True)):
            assert (vanishing_betti(c, rates, v).dims
                    == vanishing_betti_oracle(c, rates, v).dims), v


class TestNonUnitCoefficients:
    FIXTURES = ((helpers.projective_plane, (1, 0, 0)),
                (helpers.klein_bottle, (1, 1, 0)))

    def test_rational_betti(self):
        for build, expected in self.FIXTURES:
            c = build()
            assert tuple(betti(c, c.cell_ids(), j) for j in range(3)) \
                == expected

    def test_every_rate_assignment_matches_the_oracle(self):
        for build, _ in self.FIXTURES:
            c = build()
            ids = [cell.id for cell in c.cells() if cell.dim > 0]
            for choice in itertools.product((F(0), F(1), F(2)),
                                            repeat=len(ids)):
                assert_engines_agree(c, dict(zip(ids, choice)))


class TestLargeComplexes:
    def test_random_rate_tori_match_the_oracle(self):
        rng = random.Random(606)
        for n, cells in ((6, 216), (8, 384)):
            c, rates = helpers.random_rate_torus(rng, n)
            assert len(c) == cells
            assert_engines_agree(c, rates)

    def test_random_complex_matches_the_oracle(self):
        c, rates = helpers.random_complex(random.Random(17), max_vertices=20,
                                          max_cells=250)
        assert len(c) == 236 and c.dim == 3
        assert_engines_agree(c, rates)

    def test_pinched_spheres_match_the_oracle(self):
        c, rates, _ = build_pinched_spheres(2, 16)
        assert len(c) == 290
        for v in (Velocity(F(1)), Velocity(F(2)),
                  Velocity(F(2), strict=True)):
            assert (vanishing_betti(c, rates, v).dims
                    == vanishing_betti_oracle(c, rates, v).dims), v

    def test_torus_closed_forms_do_not_depend_on_n(self):
        both, fast, none = ({0: 0, 1: 2, 2: 1}, {0: 0, 1: 1, 2: 1},
                            {0: 0, 1: 0, 2: 0})
        expected = [(Velocity(F(-1)), both), (Velocity(F(0)), both),
                    (Velocity(F(0), strict=True), fast),
                    (Velocity(F(1)), fast), (Velocity(F(2)), fast),
                    (Velocity(F(2), strict=True), none)]
        for n in (4, 8, 12):
            c, rates = build_torus(0, 2, n)
            for v, dims in expected:
                assert vanishing_betti(c, rates, v).dims == dims, (n, v)


class TestInvariants:
    def test_degree_zero_always_vanishes(self):
        rng = random.Random(88)
        for _ in range(20):
            c, rates = helpers.random_complex(rng)
            assert vanishing_betti(c, rates, random_velocity(rng)).dims[0] == 0

    def test_cut_above_all_rates_gives_zero(self):
        rng = random.Random(89)
        for _ in range(20):
            c, rates = helpers.random_complex(rng)
            rs = critical_rates(c, rates)
            top = (rs[-1] if rs else F(0)) + 1
            t = vanishing_betti(c, rates, Velocity(top))
            assert all(v == 0 for v in t.dims.values())

    def test_everything_thin_recovers_betti(self):
        # with every positive-dimensional cell collapsing, the vanishing
        # dimensions above degree zero are the ordinary ones
        rng = random.Random(90)
        for _ in range(15):
            c, rates = helpers.random_complex(rng)
            zero_rates = {cid: F(0) for cid in rates}
            t = vanishing_betti(c, zero_rates, Velocity(F(0)))
            for j in range(1, c.dim + 1):
                assert t.dims[j] == betti(c, c.cell_ids(), j)
            assert t.dims[0] == 0

    def test_disjoint_union_adds(self):
        rng = random.Random(91)
        for _ in range(10):
            ca, ra = helpers.random_complex(rng)
            cb, rb = helpers.random_complex(rng)
            c = disjoint_union(ca, cb)
            shift = max(ca.cell_ids(), default=-1) + 1
            rates = dict(ra)
            rates.update({cid + shift: r for cid, r in rb.items()})
            v = random_velocity(rng)
            ta = vanishing_betti(ca, ra, v).dims
            tb = vanishing_betti(cb, rb, v).dims
            t = vanishing_betti(c, rates, v).dims
            for j in t:
                assert t[j] == ta.get(j, 0) + tb.get(j, 0)

    def test_dims_cover_every_degree(self):
        c, rates = build_torus(0, 2, 3)
        t = vanishing_betti(c, rates, Velocity(F(7)))
        assert sorted(t.dims) == [0, 1, 2]


class TestThinChainComplex:
    def test_closed_under_boundary(self):
        rng = random.Random(92)
        for _ in range(10):
            c, rates = helpers.random_complex(rng)
            cc = thin_chain_complex(c, rates, random_velocity(rng))
            cc.assert_boundary_closed()

    def test_torus_dims(self):
        # degree 0 holds the boundaries of the fast edges: two independent
        # vertex differences on each of the three fast circles
        c, rates = build_torus(0, 2, 3)
        cc = thin_chain_complex(c, rates, Velocity(F(2)))
        assert cc.space(0).dim == 6
        assert cc.space(1).dim == 24
        assert cc.space(2).dim == 18
        assert cc.space(3).dim == 0

    @pytest.mark.parametrize("method", ["assert_boundary_closed",
                                        "homology_dims"])
    def test_edge_without_its_endpoints_is_not_closed(self, method):
        # the edge's boundary 1 - 0 is not in the empty degree-0 space
        c = CellComplex([Cell(0, 0), Cell(1, 0),
                         Cell(2, 1, ((-1, 0), (1, 1)))])
        cc = ChainSubspaceComplex(c, {0: Subspace(),
                                      1: Subspace([{2: F(1)}])})
        with pytest.raises(AssertionError) as info:
            getattr(cc, method)()
        assert str(info.value) == (
            "degree-1 subspace is not closed under the boundary")

    def test_oracle_takes_each_boundary_once(self, monkeypatch):
        # building takes d of each thin cell of positive dimension, the
        # check and the ranks share d of each basis vector of degree >= 1
        c, rates = build_torus(0, 2, 3)
        v = Velocity(F(2))
        cc = thin_chain_complex(c, rates, v)
        calls = []

        def counted(c, chain):
            calls.append(chain)
            return chain_boundary(c, chain)
        monkeypatch.setattr(vanishing, "chain_boundary", counted)
        vanishing_betti_oracle(c, rates, v)
        thin = sum(1 for cell in c.cells() if cell.dim
                   and is_thin(c, rates, cell.id, v))
        assert len(calls) == thin + sum(cc.space(j).dim for j in (1, 2))

    def test_homology_of_the_thin_complex_is_the_oracle(self):
        c, rates = build_torus(0, 2, 3)
        cc = thin_chain_complex(c, rates, Velocity(F(2)))
        dims = cc.homology_dims()
        oracle = vanishing_betti_oracle(c, rates, Velocity(F(2))).dims
        assert {j: dims.get(j, 0) for j in oracle} == oracle


class TestSweep:
    def test_torus_table(self):
        c, rates = build_torus(0, 2, 3)
        table = sweep(c, rates)
        assert table.breakpoints == (F(0), F(2))
        assert table.dims[0] == (0, 0, 0)
        assert table.dims[1] == (2, 1, 0)
        assert table.dims[2] == (1, 1, 0)

    def test_values_match_direct_computation(self):
        c, rates = build_torus(0, 2, 3)
        table = sweep(c, rates)
        for q in [F(-1), F(0), F(1), F(3, 2), F(2), F(3)]:
            direct = vanishing_betti(c, rates, Velocity(q)).dims
            for j in range(3):
                assert table.value(j, q) == direct[j]

    def test_intervals(self):
        c, rates = build_torus(0, 2, 3)
        table = sweep(c, rates)
        assert table.intervals(1) == [(None, F(0), 2), (F(0), F(2), 1),
                                      (F(2), None, 0)]

    def test_uniform_rates_single_interval(self):
        c, rates = build_circle(5, 3)
        table = sweep(c, rates)
        assert table.breakpoints == (F(3),)
        assert table.dims[1] == (1, 0)

    def test_degree_selection(self):
        c, rates = build_torus(0, 2, 3)
        table = sweep(c, rates, degrees=[1])
        assert sorted(table.dims) == [1]

    def test_random_consistency(self):
        rng = random.Random(93)
        for _ in range(8):
            c, rates = helpers.random_complex(rng, max_vertices=5,
                                              max_cells=14)
            table = sweep(c, rates)
            for bp in table.breakpoints:
                direct = vanishing_betti(c, rates, Velocity(bp)).dims
                for j in direct:
                    assert table.value(j, bp) == direct[j]


def sweep_thresholds(bps):
    """Every breakpoint, every interval midpoint and 1/2 beyond both ends."""
    if not bps:
        return [F(0)]
    return ([bps[0] - F(1, 2), *bps, bps[-1] + F(1, 2)]
            + [(lo + hi) / 2 for lo, hi in zip(bps, bps[1:])])


def assert_sweep_matches_oracle(c, rates):
    """The sweep's value agrees with the oracle at every sampled threshold.

    Returns the number of (threshold, degree) values compared.
    """
    table = sweep(c, rates)
    checked = 0
    for q in sweep_thresholds(table.breakpoints):
        oracle = vanishing_betti_oracle(c, rates, Velocity(q)).dims
        for j in table.dims:
            assert table.value(j, q) == oracle.get(j, 0), (q, j)
            checked += 1
    return checked


class TestSweepAgainstOracle:
    """The one-pass sweep, threshold by threshold, against the oracle."""

    def test_random_complexes(self):
        rng = random.Random(4242)
        rates = (F(-1), F(0), F(1, 2), F(2), INF)
        checked = sum(assert_sweep_matches_oracle(
            *helpers.random_complex(rng, rates=rates)) for _ in range(100))
        assert checked > 1000

    def test_every_rate_assignment_of_the_non_unit_fixtures(self):
        for build in (helpers.projective_plane, helpers.klein_bottle):
            c = build()
            ids = [cell.id for cell in c.cells() if cell.dim > 0]
            for choice in itertools.product((F(0), F(1), F(2)),
                                            repeat=len(ids)):
                assert_sweep_matches_oracle(c, dict(zip(ids, choice)))

    def test_random_rate_tori(self):
        rng = random.Random(707)
        for n in (4, 6, 8, 12, 16):
            assert_sweep_matches_oracle(*helpers.random_rate_torus(rng, n))


def assert_leading_blocks(c, rates):
    """Pivot counts of each rate-ordered reduction against block ranks.

    Grades c by rate index, as sweep does, and reduces every boundary
    matrix once with _pivot_levels.  For every degree j and levels (t, s),
    the pivots with column level >= t and row level < s must count the
    rational rank of that block of d_j, the property _image_dims reads.
    Returns the number of blocks compared.
    """
    bps = critical_rates(c, rates)
    index = {rate: i for i, rate in enumerate(bps)}
    index[INF] = len(bps)
    graded = vanishing._graded(c, rates, index.__getitem__)
    level = {cid: lv for cells in graded for lv, cid in cells}
    levels = range(-1, len(bps) + 2)
    checked = 0
    for j in range(1, len(graded)):
        pivots = _pivot_levels(c, graded, j)
        for t, s in itertools.product(levels, levels):
            block = [{face: k for face, k in
                      chain_boundary(c, {cid: F(1)}).items()
                      if level[face] < s}
                     for lv, cid in graded[j] if lv >= t]
            count = sum(1 for col, row in pivots if col >= t and row < s)
            assert count == rank_of(block), (j, t, s)
            checked += 1
    return checked


class TestLeadingBlocks:
    """Every leading block of one reduction has as many pivots as its rank."""

    def test_random_complexes(self):
        rng = random.Random(5151)
        rates = (F(-1), F(0), F(1, 2), F(2), INF)
        checked = sum(assert_leading_blocks(
            *helpers.random_complex(rng, rates=rates)) for _ in range(100))
        assert checked > 4000

    def test_every_rate_assignment_of_the_non_unit_fixtures(self):
        for build in (helpers.projective_plane, helpers.klein_bottle):
            c = build()
            ids = [cell.id for cell in c.cells() if cell.dim > 0]
            for choice in itertools.product((F(0), F(1), F(2)),
                                            repeat=len(ids)):
                assert assert_leading_blocks(c, dict(zip(ids, choice)))

    def test_random_rate_torus(self):
        c, rates = helpers.random_rate_torus(random.Random(5252), 6)
        # cells get levels 0..3 from the rates 0..3 and vertices -1; the
        # blocks run t and s over -1..5, one past every level, in degrees
        # 1 and 2
        assert assert_leading_blocks(c, rates) == 2 * 7 * 7


def assert_clearing_keeps_pivots(c, rates):
    """Clearing against the plain reduction, degree by degree.

    Grades c by rate index, as sweep does.  At no cut and at every level,
    the (column level, row level) pivots of each d_j reduced top-down with
    clearing must equal those of d_j reduced on its own.  Returns the
    number of columns clearing skipped.
    """
    bps = critical_rates(c, rates)
    index = {rate: i for i, rate in enumerate(bps)}
    index[INF] = len(bps)
    graded = vanishing._graded(c, rates, index.__getitem__)
    skipped = 0
    for cut in [None, *range(len(bps) + 2)]:
        clear = set()
        for j in reversed(range(1, len(graded))):
            skipped += sum(1 for level, cid in graded[j]
                           if cid in clear and (cut is None or level >= cut))
            assert (_pivot_levels(c, graded, j, cut, clear)
                    == _pivot_levels(c, graded, j, cut)), (j, cut)
    return skipped


class TestClearing:
    """Top-down reduction skipping the pivot rows above keeps every pivot."""

    def test_random_complexes(self):
        rng = random.Random(6161)
        rates = (F(-1), F(0), F(1, 2), F(2), INF)
        skipped = sum(assert_clearing_keeps_pivots(
            *helpers.random_complex(rng, rates=rates)) for _ in range(100))
        assert skipped > 100

    def test_every_rate_assignment_of_the_non_unit_fixtures(self):
        for build in (helpers.projective_plane, helpers.klein_bottle):
            c = build()
            ids = [cell.id for cell in c.cells() if cell.dim > 0]
            choices = itertools.product((F(0), F(1), F(2)), repeat=len(ids))
            skipped = sum(assert_clearing_keeps_pivots(c, dict(zip(ids, r)))
                          for r in choices)
            assert skipped > 0

    def test_random_rate_tori(self):
        rng = random.Random(6262)
        for n in (4, 6, 8):
            assert assert_clearing_keeps_pivots(
                *helpers.random_rate_torus(rng, n))


class TestFiltrationReference:
    """The engine against image_betti on the thinness filtration levels."""

    def test_random_complexes(self):
        rng = random.Random(4343)
        for _ in range(40):
            c, rates = helpers.random_complex(rng)
            v = random_velocity(rng)
            levels = filtration(c, rates, v)
            expected = {j: image_betti(c, levels.level(j),
                                       levels.level(j + 1), j)
                        for j in range(c.dim + 1)}
            assert vanishing_betti(c, rates, v).dims == expected


def _unknown_face():
    """An edge whose second face, 9, is not a cell."""
    return (CellComplex([Cell(0, 0), Cell(1, 0),
                         Cell(2, 1, ((-1, 0), (1, 9)))]), {2: F(0)})


def _vertex_faced_triangle():
    """A triangle whose boundary is its three edges plus vertex 0.

    dd is still zero, since a vertex has no boundary, but the vertex is
    not a 1-cell."""
    return (CellComplex([Cell(0, 0), Cell(1, 0), Cell(2, 0),
                         Cell(3, 1, ((-1, 0), (1, 1))),
                         Cell(4, 1, ((-1, 1), (1, 2))),
                         Cell(5, 1, ((-1, 0), (1, 2))),
                         Cell(6, 2, ((1, 3), (1, 4), (-1, 5), (1, 0)))]),
            {cid: F(0) for cid in range(3, 7)})


class TestMalformedComplex:
    def test_face_that_is_not_a_cell_is_not_face_closed(self):
        c, rates = _unknown_face()
        # the edge is thin at T^0 and thick at T^1; both are refused
        for v in (Velocity(F(0)), Velocity(F(1))):
            with pytest.raises(NotFaceClosed):
                vanishing_betti(c, rates, v)
        with pytest.raises(NotFaceClosed):
            sweep(c, rates)

    ROUTES = {
        "sweep": lambda c, a, v: sweep(c, a),
        "relative_vanishing":
            lambda c, a, v: relative_vanishing(c, a, frozenset(), v),
        "les_check": lambda c, a, v: les_check(c, a, frozenset(), v),
        "excision_check":
            lambda c, a, v: excision_check(c, a, frozenset(), frozenset(), v),
    }

    @pytest.mark.parametrize("fixture", [_unknown_face,
                                         _vertex_faced_triangle])
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_every_route_reads_the_face_law_alike(self, fixture, route):
        c, rates = fixture()
        v = Velocity(F(0))
        with pytest.raises(NotFaceClosed) as expected:
            vanishing_betti(c, rates, v)
        with pytest.raises(NotFaceClosed) as info:
            self.ROUTES[route](c, rates, v)
        assert info.value.args == expected.value.args

    def test_oracle_does_not_share_the_check(self):
        # the chain route assumes a validated complex, and stays
        # independent of the engine's grading pass
        c, rates = _vertex_faced_triangle()
        assert vanishing_betti_oracle(c, rates, Velocity(F(0))).dims == {
            0: 0, 1: 1, 2: 0}


class TestReportShape:
    def test_as_dict(self):
        c, rates = build_torus(0, 2, 3)
        t = vanishing_betti(c, rates, Velocity(F(2)))
        d = t.as_dict()
        assert d["betti"] == {"0": 0, "1": 1, "2": 1}
        assert d["euler"] == 0
        assert d["velocity"] == "T^2"

    def test_strict_velocity_formats_with_marker(self):
        c, rates = build_circle(3, 2)
        t = vanishing_betti(c, rates, Velocity(F(1, 2), strict=True))
        assert t.as_dict()["velocity"] == ">T^(1/2)"
