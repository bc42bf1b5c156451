"""Pairs: relative vanishing homology, the long exact sequence, excision."""

import itertools
import random
from fractions import Fraction

import pytest

import helpers
from helpers import attached_chain_complex, restrict_chain
from vanhom import (CellComplex, InvalidExcision, MissingRate, NotFaceClosed,
                    Subspace, Velocity, build_circle, build_pinched_spheres,
                    build_torus, chain_boundary, excision_check, les_check,
                    rank_of, relative_vanishing, thin_chain_complex,
                    vanishing_betti)
from vanhom import (document_dict, dumps_document, is_thin, parse_velocity,
                    vanishing)
from vanhom.cli import main
from vanhom.homology import _integer_reduce, _pivot_levels
from vanhom.vanishing import _class_rank, _graded, _Pair

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


class TestClassRank:
    # hand-worked ranks of classes in Z/B, B given as an echelon basis
    # {lowest key: chain} and Z as B plus the reps; z1
    # and z2 are cycles of a path 0 - 1 - 2 written on its vertex keys
    z1, z2 = {0: 1, 1: -1}, {1: 1, 2: -1}

    def test_classes_counted_modulo_boundaries(self):
        images = [{0: 1, 2: -1}, {1: 2, 2: -2}]  # z1 + z2 and 2 z2
        assert _class_rank(images, {}, [self.z1, self.z2], "f") == 2
        assert _class_rank(images, {0: self.z1}, [self.z2], "f") == 1

    def test_non_unit_coefficient(self):
        # z bounds twice: over the integers its class has order 2 (as the
        # circle of RP^2), over the rationals it is zero
        z = self.z1
        assert _class_rank([z], {0: {0: 2, 1: -2}}, [], "f") == 0
        assert _class_rank([z], {}, [z], "f") == 1

    def test_image_that_is_not_a_cycle_raises(self):
        with pytest.raises(AssertionError) as info:
            _class_rank([{0: 1}], {}, [self.z1], "image is not a cycle")
        assert info.value.args == ("image is not a cycle",)

    def test_boundaries_outside_the_chains_raise(self):
        chains = {0: {0: 1}, 1: {1: 1}}
        assert _class_rank([self.z1], chains, [], "f") == 0
        with pytest.raises(AssertionError) as info:
            _class_rank([{2: 1}], chains, [], "not closed")
        assert info.value.args == ("not closed",)


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

    def test_missing_rate_reads_as_in_vanishing_betti(self):
        # the pair takes its thin cells from the grading pass of
        # vanishing_betti, so a missing rate is reported the same way
        c, rates, meridian, band, cut = helpers.torus_pair(4)
        ids = {cell.label: cell.id for cell in c.cells()}
        rates = dict(rates)
        del rates[ids["t1(3,3)"]], rates[ids["u(2,1)"]]
        v = Velocity(F(2))
        with pytest.raises(MissingRate) as expected:
            vanishing_betti(c, rates, v)
        assert expected.value.args == (
            f"cell {ids['u(2,1)']} (dim 1) has no rate",)
        for check in (lambda: relative_vanishing(c, rates, meridian, v),
                      lambda: les_check(c, rates, meridian, v),
                      lambda: excision_check(c, rates, band, cut, v)):
            with pytest.raises(MissingRate) as info:
                check()
            assert info.value.args == expected.value.args

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


class TestExcisionIdentity:
    """A removable cut W of S leaves the relative complex as it is: the
    pairs (X, S) and (X-W, S-W) have one relative chain complex, X-S, so
    excision_check builds only the first."""

    @staticmethod
    def relative(pair):
        # chain spaces, representatives and dimensions, on cell ids; a
        # degree the complex lacks reads as an empty one
        spaces = {j: {pair.cells[low]: pair.cell_chain(x)
                      for low, x in echelon.items()}
                  for j, echelon in pair.chains["relative"].items()}
        reps = {j: [pair.cell_chain(x) for x in chains]
                for j, chains in pair.reps["relative"].items()}
        return [{j: x for j, x in table.items() if x}
                for table in (spaces, reps, pair.dims["relative"])]

    def test_random_removable_cuts(self):
        # at strict and non-strict velocities in turn
        rng = random.Random(2025)
        cases = 0
        while cases < 300:
            c, rates = helpers.random_complex(rng)
            sub = helpers.random_subcomplex(rng, c)
            cut = helpers.random_cut(rng, c, sub)
            if cut is None:
                continue
            v = Velocity(F(rng.randint(0, 3), rng.choice([1, 2])),
                         strict=cases % 2 == 0)
            rest = c.restrict(c.cell_ids() - cut)
            assert (self.relative(_Pair(c, rates, sub, v))
                    == self.relative(_Pair(rest, rates, sub - cut, v))), (
                sorted(c.cell_ids()), sorted(sub), sorted(cut), v)
            cases += 1

    def test_builds_one_pair_and_no_copy(self, monkeypatch):
        pairs, copies, restrict_ = [], [], CellComplex.restrict

        def pair(*args):
            pairs.append(args)
            return _Pair(*args)

        def restrict(self, s):
            copies.append(s)
            return restrict_(self, s)
        monkeypatch.setattr(vanishing, "_Pair", pair)
        monkeypatch.setattr(CellComplex, "restrict", restrict)
        c, rates, meridian, band, cut = helpers.torus_pair(4)
        rep = excision_check(c, rates, band, cut, Velocity(F(2)))
        assert len(pairs) == 1 and pairs[0][0] is c and not copies
        assert rep.full == rep.excised and rep.equal


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

    @pytest.mark.parametrize("n, q", [(8, 0), (8, 2), (10, 1)])
    def test_random_rate_torus(self, n, q):
        # 384 and 600 cells; a subcomplex seeded on a fifth of the cells
        # closes up to about half of them
        rng = random.Random(f"torus {n} {q}")
        c, rates = helpers.random_rate_torus(rng, n)
        sub = helpers.random_subcomplex(rng, c, bias=0.2)
        assert 0 < len(sub) < len(c.cell_ids())
        assert_matches_reference(c, rates, sub, Velocity(F(q)))


class TestQuotientComplex:
    """The relative groups are the vanishing groups of the quotient X∖S:
    the cells outside S, each with its faces in S dropped."""

    @staticmethod
    def assert_quotient(c, rates, sub, v):
        relative = relative_vanishing(c, rates, sub, v).relative
        quotient = vanishing_betti(helpers.quotient_complex(c, sub), rates,
                                   v).dims
        for j in set(relative) | set(quotient):
            assert relative.get(j, 0) == quotient.get(j, 0), (
                j, sorted(c.cell_ids()), sorted(sub), v)

    def test_random_triples(self):
        rng = random.Random(320)
        for i in range(300):
            c, rates = helpers.random_complex(rng)
            if i % 10 == 0:
                sub = frozenset()
            elif i % 10 == 1:
                sub = c.cell_ids()
            else:
                sub = helpers.random_subcomplex(rng, c)
            v = Velocity(F(rng.randint(-1, 3), rng.choice([1, 2])),
                         strict=i % 2 == 0)
            self.assert_quotient(c, rates, sub, v)

    def test_every_rate_on_non_unit_coefficients(self):
        velocities = [Velocity(F(q), strict=strict)
                      for q in range(3) for strict in (False, True)]
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
                    for v in velocities:
                        self.assert_quotient(c, rates, sub, v)

    @pytest.mark.parametrize("n", [4, 6])
    def test_torus_meridian(self, n):
        c, rates, meridian, _, _ = helpers.torus_pair(n)
        for q in (0, 2):
            for strict in (False, True):
                self.assert_quotient(c, rates, meridian,
                                     Velocity(F(q), strict=strict))


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
        # triangles are, and the meridian is a circle of rate-2 edges;
        # n = 24 has 3,456 cells
        for n in (4, 8, 12, 16, 24):
            c, rates, meridian, _, _ = helpers.torus_pair(n)
            rep = relative_vanishing(c, rates, meridian, Velocity(F(q)))
            assert (rep.relative, rep.attached, rep.absolute) == (
                relative, attached, absolute), n
            assert rep.exact, n

    def test_torus_cycles_stay_sparse(self):
        # Z(P_1) at T^0 is 511 triangle boundaries and two circles; the
        # dense kernel basis of d_1 it replaced had 9,378 nonzeros
        c, rates, meridian, _, _ = helpers.torus_pair(16)
        pair = _Pair(c, rates, meridian, Velocity(F(0)))
        cycles = pair.bounds["absolute"][1] + pair.reps["absolute"][1]
        assert len(cycles) == 513
        assert sum(map(len, cycles)) <= 2000


class TestEliminationWork:
    def test_no_column_reduced_twice(self, monkeypatch):
        # each spanning set the pair holds goes into a reduction once: no
        # column object appears twice among one call's columns
        reduce, calls = vanishing._integer_reduce, []

        def once(columns, *args, **kwargs):
            columns = list(columns)
            assert len({id(x) for x in columns}) == len(columns)
            calls.append(len(columns))
            return reduce(columns, *args, **kwargs)
        monkeypatch.setattr(vanishing, "_integer_reduce", once)
        c, rates, meridian, band, cut = helpers.torus_pair(6)
        for q in (0, 2):
            assert relative_vanishing(c, rates, meridian,
                                      Velocity(F(q))).exact
        assert les_check(*pinched_pair()).exact
        assert excision_check(c, rates, band, cut, Velocity(F(2))).equal
        assert len(calls) > 100

    @pytest.mark.parametrize("case", ["meridian T^0", "meridian T^2",
                                      "pinched", "band"])
    def test_held_bases_are_not_reduced_again(self, monkeypatch, case):
        # the reductions start from the echelon bases the pair holds: the
        # checks of _Pair never pass a chain-space basis column as a
        # column (only the reduction that builds it does), and les() passes
        # a column of B(P) or B(Q) only as an image of the connecting map,
        # a chain of B(P)'s echelon basis led by a key in the subcomplex
        reduce, calls = vanishing._integer_reduce, []

        def record(columns, *args, **kwargs):
            columns = list(columns)
            calls.append(({id(x) for x in columns}, kwargs.get("echelon")))
            return reduce(columns, *args, **kwargs)
        monkeypatch.setattr(vanishing, "_integer_reduce", record)
        c, rates, meridian, band, _ = helpers.torus_pair(6)
        c, rates, sub, v = {
            "meridian T^0": (c, rates, meridian, Velocity(F(0))),
            "meridian T^2": (c, rates, meridian, Velocity(F(2))),
            "pinched": pinched_pair(),
            "band": (c, rates, band, Velocity(F(2)))}[case]
        pair = _Pair(c, rates, sub, v)
        spaces = [echelon for name in pair.chains
                  for echelon in pair.chains[name].values()]
        held = {id(x) for echelon in spaces for x in echelon.values()}
        built = [ids for ids, echelon in calls
                 if not any(echelon is space for space in spaces)]
        assert len(built) < len(calls)
        assert all(not ids & held for ids in built)
        del calls[:]
        pair.les()
        bounds = {id(x) for name in ("absolute", "relative")
                  for chains in pair.bounds[name].values() for x in chains}
        lifts = {id(x) for echelon in pair.leads["absolute"].values()
                 for low, x in echelon.items() if low >= pair.split}
        assert calls and all(ids & bounds <= lifts for ids, _ in calls)

    def test_closure_checks_cost_less_than_the_build(self, monkeypatch):
        # the closure checks drop the keys of the single-entry chains they
        # reduce against, the thin unit chains among them, so at T^0 they
        # take fewer steps than the build of the chain spaces (209 against
        # 497; 1,052 when every key was reduced).  Steps are counted on the
        # reference kernel, which takes the engine's steps one call each
        steps, site = {}, [None]
        sub_scaled, class_rank = helpers._sub_scaled, vanishing._class_rank

        def counted(*args):
            steps[site[0]] = steps.get(site[0], 0) + 1
            return sub_scaled(*args)

        def reduce(columns, kernel=False, echelon=None):
            outer = site[0]
            site[0] = outer or ("cycles" if kernel else "build")
            try:
                return helpers.reference_integer_reduce(columns, kernel,
                                                        echelon)
            finally:
                site[0] = outer

        def rank(images, bounds, reps, failure):
            site[0] = ("closure" if "not closed under the boundary"
                       in failure else "check")
            try:
                return class_rank(images, bounds, reps, failure)
            finally:
                site[0] = None
        monkeypatch.setattr(helpers, "_sub_scaled", counted)
        monkeypatch.setattr(vanishing, "_integer_reduce", reduce)
        monkeypatch.setattr(vanishing, "_class_rank", rank)
        c, rates, meridian, _, _ = helpers.torus_pair(8)
        _Pair(c, rates, meridian, Velocity(F(0)))
        assert 0 < steps["closure"] < steps["build"], steps


class TestCycleBases:
    """Each complex's cycles are its boundaries and one representative per
    vanishing class, checked through chain_boundary and the chain route."""

    def assert_cycle_bases(self, c, rates, sub, v):
        pair = _Pair(c, rates, sub, v)
        outside = c.cell_ids() - sub
        thin = thin_chain_complex(c, rates, v)
        relative = {j: Subspace(restrict_chain(x, outside)
                                for x in thin.space(j).basis())
                    for j in pair.degrees}

        def in_absolute(j, x):
            return thin.space(j).contains(x)

        def in_attached(j, x):
            return set(x) <= sub and thin.space(j).contains(x)

        def in_relative(j, x):
            return set(x) <= outside and relative[j].contains(x)

        def relative_boundary(x):
            return restrict_chain(chain_boundary(c, x), outside)

        def boundary(x):
            return chain_boundary(c, x)

        dims = vanishing_betti(c, rates, v).dims
        for name, inside, bd in (("absolute", in_absolute, boundary),
                                 ("attached", in_attached, boundary),
                                 ("relative", in_relative, relative_boundary)):
            for j in pair.degrees:
                bounds = list(map(pair.cell_chain, pair.bounds[name][j]))
                reps = list(map(pair.cell_chain, pair.reps[name][j]))
                for x in reps:
                    assert inside(j, x) and not bd(x), (name, j, x)
                assert rank_of(bounds + reps) == len(bounds) + len(reps)
                if name == "absolute":
                    assert len(reps) == dims[j], (j, v)

    def test_random_triples(self):
        rng = random.Random(319)
        for i in range(200):
            c, rates = helpers.random_complex(rng)
            if i % 10 == 0:
                sub = frozenset()
            elif i % 10 == 1:
                sub = c.cell_ids()
            else:
                sub = helpers.random_subcomplex(rng, c)
            v = Velocity(F(rng.randint(-1, 3), rng.choice([1, 2])),
                         strict=i % 2 == 0)
            self.assert_cycle_bases(c, rates, sub, v)

    def test_every_rate_on_non_unit_coefficients(self):
        velocities = [Velocity(F(-1))] + [
            Velocity(F(q), strict=strict)
            for q in range(3) for strict in (False, True)]
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
                    for v in velocities:
                        self.assert_cycle_bases(c, rates, sub, v)


class TestChainSpaces:
    """P_j is the thin j-cells' unit chains plus an echelon basis of the
    thin (j+1)-cells' boundaries on the thick j-cells: as many chains as
    the engine's projected term rank(pi_K o d_(j+1)|T_(j+1)) counts."""

    @staticmethod
    def assert_chain_spaces(c, rates, sub, v):
        pair = _Pair(c, rates, sub, v)
        thin = {k for k, cid in enumerate(pair.cells)
                if c.cell(cid).dim and is_thin(c, rates, cid, v)}
        graded = _graded(c, rates, v.contains_rate)
        for j in pair.degrees:
            units = {k for k in thin if c.cell(pair.cells[k]).dim == j}
            echelon = pair.chains["absolute"][j]
            assert set(echelon) >= units, (j, v)
            for low, x in echelon.items():
                if low in units:
                    assert x == {low: 1}, (j, v)
                else:
                    assert not set(x) & thin, (j, v, x)
            # every column of d_(j+1) reduced at the cut is thin; the
            # pivots on thick rows, below the cut, count the projected term
            pivots = (_pivot_levels(c, graded, j + 1, 1)
                      if j + 1 < len(graded) else [])
            projected = sum(row < 1 for _, row in pivots)
            assert len(echelon) - len(units) == projected, (j, v)

    def test_random_triples(self):
        rng = random.Random(321)
        for i in range(300):
            c, rates = helpers.random_complex(rng)
            sub = helpers.random_subcomplex(rng, c)
            v = Velocity(F(rng.randint(-1, 3), rng.choice([1, 2])),
                         strict=i % 2 == 0)
            self.assert_chain_spaces(c, rates, sub, v)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_random_rate_tori(self, n):
        rng = random.Random(f"chain spaces {n}")
        for q in range(4):
            c, rates = helpers.random_rate_torus(rng, n)
            sub = helpers.random_subcomplex(rng, c, bias=0.2)
            for strict in (False, True):
                self.assert_chain_spaces(c, rates, sub,
                                         Velocity(F(q), strict=strict))


class TestClosureChecksCatchBookkeeping:
    """The closure checks guard the echelon bookkeeping, not the input: a
    pivot dropped from P_j as it is built leaves a thin (j+1)-cell whose
    boundary is not in P_j, which the degree-(j+1) check must catch."""

    @staticmethod
    def drop_built_pivot(monkeypatch, j):
        # the build reduces into P_0, P_1, ... in turn, before the first
        # kernel reduction; drop the first pivot the one into P_j adds
        calls = []

        def dropping(columns, kernel=False, echelon=None):
            pivots, kernels = _integer_reduce(columns, kernel=kernel,
                                              echelon=echelon)
            calls.append(kernel)
            if not any(calls) and len(calls) == j + 1:
                assert pivots, "the build added no pivot to drop"
                del echelon[next(iter(pivots.values()))]
            return pivots, kernels
        monkeypatch.setattr(vanishing, "_integer_reduce", dropping)

    @pytest.mark.parametrize("j", [0, 1])
    @pytest.mark.parametrize("fixture", ["pinched", "torus"])
    def test_dropped_pivot_trips_the_check(self, monkeypatch, capsys,
                                           tmp_path, fixture, j):
        if fixture == "pinched":
            c, rates, sub = build_pinched_spheres(2, 6)
        else:
            c, rates, sub, _, _ = helpers.torus_pair(4)
        failure = (f"degree-{j + 1} absolute chains are not closed under "
                   f"the boundary at T^2")
        path = tmp_path / "pair.json"
        path.write_text(dumps_document(document_dict(c, rates, {"s": sub})),
                        encoding="utf-8")
        self.drop_built_pivot(monkeypatch, j)
        with pytest.raises(AssertionError) as caught:
            relative_vanishing(c, rates, sub, Velocity(F(2)))
        assert str(caught.value) == failure
        self.drop_built_pivot(monkeypatch, j)
        code = main(["relative", str(path), "--velocity", "T^2",
                     "--subcomplex", "s"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        assert captured.err == f"error: internal check failed: {failure}\n"

    @pytest.mark.parametrize("fixture, velocity, fault", [
        ("pinched", "T^2", "attached"), ("torus", "T^2", "attached"),
        ("pinched", "T^2", "relative"), ("torus", "T^2", "relative"),
        ("pinched", "T^0", "unit"), ("torus", "T^0", "unit"),
        ("torus", "T^2", "unit")])
    def test_dropped_chain_trips_the_check(self, monkeypatch, capsys,
                                           tmp_path, fixture, velocity,
                                           fault):
        # a chain of C_j led by a key that leads a chain of B_j, dropped
        # from the chain space as the degree-(j+1) check reads it, leaves
        # that boundary outside C_j.  The checks drop the keys of the
        # single-entry chains they hold before they reduce, so a dropped
        # unit chain of P_j must be missed by that step too
        if fixture == "pinched":
            c, rates, sub = build_pinched_spheres(2, 6)
        else:
            c, rates, sub, _, _ = helpers.torus_pair(4)
        v = parse_velocity(velocity)
        name = "absolute" if fault == "unit" else fault
        pair = _Pair(c, rates, sub, v)
        j, low = min((j, low) for j in pair.degrees[:-1]
                     for low in pair.leads[name][j]
                     if fault != "unit" or len(pair.chains[name][j][low]) == 1)
        failure = (f"degree-{j + 1} {name} chains are not closed under the "
                   f"boundary at {velocity}")
        class_rank = vanishing._class_rank

        def dropping(images, bounds, reps, what):
            if what == failure:
                del bounds[low]
            return class_rank(images, bounds, reps, what)
        monkeypatch.setattr(vanishing, "_class_rank", dropping)
        with pytest.raises(AssertionError) as caught:
            relative_vanishing(c, rates, sub, v)
        assert str(caught.value) == failure
        path = tmp_path / "pair.json"
        path.write_text(dumps_document(document_dict(c, rates, {"s": sub})),
                        encoding="utf-8")
        code = main(["relative", str(path), "--velocity", velocity,
                     "--subcomplex", "s"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        assert captured.err == f"error: internal check failed: {failure}\n"
