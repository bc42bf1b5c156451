"""Pairs: relative vanishing homology, the long exact sequence, excision."""

import itertools
import random
from fractions import Fraction

import pytest

import helpers
from vanhom import (InvalidExcision, NotFaceClosed, Velocity,
                    attached_chain_complex, build_circle,
                    build_pinched_spheres, build_torus, excision_check,
                    les_check, relative_vanishing, vanishing_betti)

F = Fraction


def pinched_pair():
    c, rates, circle = build_pinched_spheres(2, 3)
    return c, rates, circle, Velocity(F(2))


class TestPinchedPair:
    def test_report_values(self):
        c, rates, circle, v = pinched_pair()
        rep = relative_vanishing(c, rates, circle, v)
        assert rep.absolute == {0: 0, 1: 1, 2: 0}
        assert rep.relative == {0: 0, 1: 0, 2: 0}
        assert rep.attached == {0: 0, 1: 1, 2: 0}
        assert rep.exact

    def test_circle_class_comes_from_the_subcomplex(self):
        # the surviving collapsing circle lies in the subcomplex, so the
        # inclusion carries the attached class onto the absolute one and
        # nothing is left for the relative theory
        c, rates, circle, v = pinched_pair()
        rep = les_check(c, rates, circle, v)
        by_key = {(n.degree, n.space): n for n in rep.nodes}
        assert by_key[(1, "attached")].rank_out == 1
        assert by_key[(1, "absolute")].rank_in == 1
        assert by_key[(1, "relative")].dim == 0

    def test_les_nodes(self):
        c, rates, circle, v = pinched_pair()
        rep = les_check(c, rates, circle, v)
        assert rep.exact
        assert len(rep.nodes) == 9
        assert [n.degree for n in rep.nodes] == [2] * 3 + [1] * 3 + [0] * 3
        assert [n.space for n in rep.nodes[:3]] == ["attached", "absolute",
                                                    "relative"]
        assert all(n.ok for n in rep.nodes)

    def test_as_dict_round(self):
        c, rates, circle, v = pinched_pair()
        d = relative_vanishing(c, rates, circle, v).as_dict()
        assert d["relative"] == {"0": 0, "1": 0, "2": 0}
        assert d["exact"] is True


class TestEdgeCases:
    def test_empty_subcomplex_reduces_to_absolute(self):
        rng = random.Random(311)
        for _ in range(10):
            c, rates = helpers.random_complex(rng)
            v = Velocity(F(rng.randint(0, 3)))
            rep = relative_vanishing(c, rates, frozenset(), v)
            absolute = vanishing_betti(c, rates, v).dims
            assert rep.relative == {j: absolute.get(j, 0)
                                    for j in rep.relative}
            assert all(d == 0 for d in rep.attached.values())
            assert rep.exact

    def test_full_subcomplex_kills_relative(self):
        rng = random.Random(312)
        for _ in range(10):
            c, rates = helpers.random_complex(rng)
            v = Velocity(F(rng.randint(0, 3)))
            rep = relative_vanishing(c, rates, c.cell_ids(), v)
            assert all(d == 0 for d in rep.relative.values())
            absolute = vanishing_betti(c, rates, v).dims
            assert rep.attached == {j: absolute.get(j, 0)
                                    for j in rep.attached}
            assert rep.exact

    def test_subcomplex_must_be_face_closed(self):
        c, rates = build_torus(0, 2, 3)
        edge = next(iter(c.ids_of_dim(1)))
        with pytest.raises(NotFaceClosed):
            relative_vanishing(c, rates, frozenset([edge]), Velocity(F(0)))
        with pytest.raises(NotFaceClosed):
            les_check(c, rates, frozenset([edge]), Velocity(F(0)))

    def test_attached_complex_is_closed(self):
        rng = random.Random(313)
        for _ in range(10):
            c, rates = helpers.random_complex(rng)
            sub = helpers.random_subcomplex(rng, c)
            v = Velocity(F(rng.randint(0, 2)))
            attached_chain_complex(c, rates, sub, v).assert_boundary_closed()


class TestLesExactness:
    def test_random_triples(self):
        rng = random.Random(314)
        for _ in range(25):
            c, rates = helpers.random_complex(rng)
            sub = helpers.random_subcomplex(rng, c)
            v = Velocity(F(rng.randint(0, 3), rng.choice([1, 2])),
                         strict=rng.random() < 0.3)
            rep = les_check(c, rates, sub, v)
            assert rep.exact, (sorted(c.cell_ids()), sorted(sub), v)

    def test_alternating_sum_of_dims_is_zero(self):
        # any exact sequence forces the alternating dimension sum to zero
        rng = random.Random(315)
        for _ in range(15):
            c, rates = helpers.random_complex(rng)
            sub = helpers.random_subcomplex(rng, c)
            rep = les_check(c, rates, sub, Velocity(F(rng.randint(0, 2))))
            total = sum((-1) ** i * n.dim for i, n in enumerate(rep.nodes))
            assert total == 0


class TestClassicalDegeneration:
    def test_all_thin_matches_classical_relative_homology(self):
        # rate zero everywhere and a zero cut make every positive cell
        # collapse; above degree zero the pair theory is the classical one
        rng = random.Random(316)
        for _ in range(15):
            c, _ = helpers.random_complex(rng)
            rates = {cell.id: F(0) for cell in c.cells() if cell.dim > 0}
            sub = helpers.random_subcomplex(rng, c)
            rep = relative_vanishing(c, rates, sub, Velocity(F(0)))
            for j in range(1, c.dim + 1):
                assert rep.relative[j] == helpers.classical_relative_betti(
                    c, sub, j)


class TestExcision:
    def fixture(self):
        c, rates = build_circle(6, 2)
        sub = frozenset([0, 1, 2, 3, 6, 7, 8])
        cut = frozenset([1, 6, 7])
        return c, rates, sub, cut

    def test_fixture_ids_are_what_they_claim(self):
        c, rates, sub, cut = self.fixture()
        assert {c.cell(i).dim for i in sub} == {0, 1}
        assert c.is_face_closed(sub)
        assert cut <= sub

    def test_fixture_report(self):
        c, rates, sub, cut = self.fixture()
        rep = excision_check(c, rates, sub, cut, Velocity(F(2)))
        assert rep.full == {0: 0, 1: 1}
        assert rep.excised == {0: 0, 1: 1}
        assert rep.equal

    def test_cut_outside_subcomplex(self):
        c, rates, sub, cut = self.fixture()
        outside = next(iter(c.cell_ids() - sub))
        with pytest.raises(InvalidExcision):
            excision_check(c, rates, sub, cut | {outside}, Velocity(F(2)))

    def test_cut_not_coface_closed(self):
        c, rates, sub, cut = self.fixture()
        with pytest.raises(InvalidExcision):
            # vertex 1 is a face of the surviving edge 8
            excision_check(c, rates, sub, frozenset([1, 6]), Velocity(F(2)))

    def test_random_valid_cuts(self):
        rng = random.Random(317)
        done = 0
        while done < 25:
            c, rates = helpers.random_complex(rng)
            sub = helpers.random_subcomplex(rng, c)
            cut = helpers.random_cut(rng, c, sub)
            if cut is None or not cut:
                continue
            v = Velocity(F(rng.randint(0, 3)))
            rep = excision_check(c, rates, sub, cut, v)
            assert rep.equal, (sorted(c.cell_ids()), sorted(sub),
                               sorted(cut), v)
            done += 1


def assert_matches_reference(c, rates, sub, v, cut=None):
    """The integer-rank pair layer reports what the subspace route does."""
    pair, les = helpers.reference_pair(c, rates, sub, v)
    assert relative_vanishing(c, rates, sub, v).as_dict() == pair.as_dict()
    assert les_check(c, rates, sub, v).as_dict() == les.as_dict()
    if cut is not None:
        assert (excision_check(c, rates, sub, cut, v).as_dict()
                == helpers.reference_excision_check(c, rates, sub, cut,
                                                    v).as_dict())


class TestReferenceEquivalence:
    def test_random_triples(self):
        rng = random.Random(318)
        excised = 0
        for i in range(300):
            c, rates = helpers.random_complex(rng)
            if i % 10 == 0:
                sub = frozenset()
            elif i % 10 == 1:
                sub = c.cell_ids()
            else:
                sub = helpers.random_subcomplex(rng, c)
            v = Velocity(F(rng.randint(0, 3), rng.choice([1, 2])),
                         strict=i % 3 == 0)
            cut = helpers.random_cut(rng, c, sub)
            excised += cut is not None
            assert_matches_reference(c, rates, sub, v, cut)
        assert excised >= 50

    def test_every_rate_on_non_unit_coefficients(self):
        # RP^2 and the Klein bottle have boundary coefficient 2, which a
        # slip into integer-torsion or mod-2 thinking would get wrong
        velocities = [Velocity(F(0)), Velocity(F(1)), Velocity(F(2)),
                      Velocity(F(2), strict=True)]
        for build in (helpers.projective_plane, helpers.klein_bottle):
            c = build()
            ids = sorted(c.cell_ids())
            subs = {c.face_closure(seed) for k in range(len(ids) + 1)
                    for seed in itertools.combinations(ids, k)}
            positive = [cid for cid in ids if c.cell(cid).dim > 0]
            for choice in itertools.product((F(0), F(1), F(2)),
                                            repeat=len(positive)):
                rates = dict(zip(positive, choice))
                for sub in subs:
                    cuts = {helpers.coface_closure(c, [cid]) for cid in sub}
                    cut = min((k for k in cuts if k <= sub), key=sorted,
                              default=None)
                    for v in velocities:
                        assert_matches_reference(c, rates, sub, v, cut)

    @pytest.mark.parametrize("q", [0, 2])
    def test_torus_pair(self, q):
        c, rates, meridian, band, cut = helpers.torus_pair(6)
        v = Velocity(F(q))
        assert_matches_reference(c, rates, meridian, v)
        assert_matches_reference(c, rates, band, v, cut)


class TestLargerPairs:
    def test_pinched_circle_leaves_nothing_relative(self):
        c, rates, circle = build_pinched_spheres(2, 16)
        rep = relative_vanishing(c, rates, circle, Velocity(F(2)))
        assert rep.relative == {0: 0, 1: 0, 2: 0}
        assert rep.exact

    def test_torus_meridian_dims_do_not_depend_on_n(self):
        reports = []
        for n in (4, 6, 8):
            c, rates, meridian, _, _ = helpers.torus_pair(n)
            rep = relative_vanishing(c, rates, meridian, Velocity(F(0)))
            assert rep.exact
            reports.append(rep.as_dict())
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("q, relative, attached, absolute", [
        (0, {0: 0, 1: 1, 2: 1}, {0: 0, 1: 1, 2: 0}, {0: 0, 1: 2, 2: 1}),
        (2, {0: 0, 1: 0, 2: 1}, {0: 0, 1: 1, 2: 0}, {0: 0, 1: 1, 2: 1})])
    def test_torus_meridian_closed_forms(self, q, relative, attached,
                                         absolute):
        # at T^0 every cell is thin; at T^2 only the rate-2 edges and the
        # triangles are, and the meridian is a circle of rate-2 edges
        for n in (4, 8, 12, 16):
            c, rates, meridian, _, _ = helpers.torus_pair(n)
            rep = relative_vanishing(c, rates, meridian, Velocity(F(q)))
            assert (rep.relative, rep.attached, rep.absolute) == (
                relative, attached, absolute), n
            assert rep.exact, n
