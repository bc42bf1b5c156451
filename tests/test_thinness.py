"""Rates, thin cells, filtrations, and rates derived from coordinates."""

import itertools
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest

import helpers
from helpers import filtration, invariant_factor_valuations, vertex_support
from vanhom import (INF, DegenerateSimplex, GeometricComplex,
                    IndeterminateAtPrecision, InvalidComplex, MissingRate,
                    Velocity, annotate_geometric, build_pinched_spheres,
                    build_torus, constant, critical_rates, is_thin,
                    load_document, parse_series, rank_of, rate_of, series,
                    simplex_rate, simplex_rates, t_power, thinness)

F = Fraction
T = t_power


def labels(c):
    return {cell.label: cell.id for cell in c.cells()}


class TestThin:
    def test_vertices_never_thin(self):
        c, rates = build_torus(0, 2, 3)
        v = Velocity(F(-100))
        assert all(not is_thin(c, rates, cell.id, v)
                   for cell in c.cells_of_dim(0))

    def test_velocity_cut(self):
        c, rates = build_torus(0, 2, 3)
        ids = labels(c)
        assert is_thin(c, rates, ids["u(0,0)"], Velocity(F(2)))
        assert not is_thin(c, rates, ids["h(0,0)"], Velocity(F(2)))
        assert not is_thin(c, rates, ids["u(0,0)"], Velocity(F(2), strict=True))
        assert is_thin(c, rates, ids["u(0,0)"], Velocity(F(1), strict=True))

    def test_infinite_rate_always_thin(self):
        c, rates = build_torus(0, 2, 3)
        ids = labels(c)
        rates = dict(rates)
        rates[ids["u(0,0)"]] = INF
        assert is_thin(c, rates, ids["u(0,0)"], Velocity(F(1000), strict=True))

    def test_missing_rate(self):
        c, rates = build_torus(0, 2, 3)
        ids = labels(c)
        rates = dict(rates)
        del rates[ids["u(0,0)"]]
        with pytest.raises(MissingRate):
            is_thin(c, rates, ids["u(0,0)"], Velocity(F(0)))
        with pytest.raises(MissingRate):
            critical_rates(c, rates)

    def test_rate_of_vertex_is_an_error(self):
        c, rates = build_torus(0, 2, 3)
        with pytest.raises(ValueError):
            rate_of(c, rates, labels(c)["v(0,0)"])


class TestCriticalRates:
    def test_torus(self):
        c, rates = build_torus(0, 2, 3)
        assert critical_rates(c, rates) == [F(0), F(2)]

    def test_uniform(self):
        c, rates = build_torus(0, 0, 4)
        assert critical_rates(c, rates) == [F(0)]

    def test_infinite_rates_drop_out(self):
        c, rates = build_torus(0, 2, 3)
        rates = dict(rates)
        rates[labels(c)["u(0,0)"]] = INF
        assert critical_rates(c, rates) == [F(0), F(2)]


class TestFiltration:
    def test_torus_levels(self):
        c, rates = build_torus(0, 2, 3)
        ids = labels(c)
        f = filtration(c, rates, Velocity(F(2)))
        assert f.level(0) == frozenset()
        expected1 = frozenset(
            [cell.id for cell in c.cells_of_dim(0)]
            + [ids[f"u({i},{j})"] for i in range(3) for j in range(3)])
        assert f.level(1) == expected1
        assert f.level(2) == c.cell_ids()
        assert f.level(3) == c.cell_ids()

    def test_pinched_levels(self):
        c, rates, circle = build_pinched_spheres(2, 3)
        f = filtration(c, rates, Velocity(F(2)))
        assert len(f.level(1)) == 14
        assert len(f.level(2)) == 44
        assert f.level(3) == c.cell_ids()

    def test_beyond_max_rate_gives_skeleta(self):
        c, rates = build_torus(0, 2, 3)
        f = filtration(c, rates, Velocity(F(3)))
        assert f.level(1) == frozenset(
            cell.id for cell in c.cells_of_dim(0))
        assert f.level(2) == frozenset(
            cell.id for cell in c.cells() if cell.dim <= 1)

    def test_cells_above_level_dimension_excluded(self):
        # a thin triangle may not enter the degree-1 level
        c, rates = build_torus(0, 2, 3)
        f = filtration(c, rates, Velocity(F(0)))
        assert all(c.cell(cid).dim <= 1 for cid in f.level(1))

    def test_monotone_in_threshold(self):
        rng = random.Random(417)
        for _ in range(15):
            c, rates = helpers.random_complex(rng)
            lo = Velocity(F(rng.randint(0, 2)))
            hi = Velocity(lo.threshold + rng.randint(1, 3))
            flo = filtration(c, rates, lo)
            fhi = filtration(c, rates, hi)
            for j in range(len(fhi.levels)):
                assert fhi.level(j) <= flo.level(j)


class TestInvariantFactors:
    def test_diagonal(self):
        m = [[constant(1), series(())], [series(()), T(2)]]
        assert invariant_factor_valuations(m) == [F(0), F(2)]

    def test_exact_cancellation_detected(self):
        # det = T*T^2 - 1*T^3 vanishes exactly; leading exponents alone
        # would suggest valuation three
        m = [[T(1), constant(1)], [T(3), T(2)]]
        assert invariant_factor_valuations(m) == [F(0), INF]

    def test_lower_triangular(self):
        m = [[constant(1), series(())], [constant(F(1, 2)), T(3)]]
        assert invariant_factor_valuations(m) == [F(0), F(3)]

    def test_wide_matrix(self):
        m = [[constant(1), series(()), T(2)]]
        assert invariant_factor_valuations(m) == [F(0)]

    def test_sum_telescopes_to_minor_valuation(self):
        rng = random.Random(52)
        monos = [series(()), constant(1), constant(-2), T(1), T(2),
                 constant(3) * T(1), T(3), constant(1) + T(1)]
        for _ in range(40):
            rows = rng.randint(1, 3)
            cols = rng.randint(rows, 3)
            m = [[rng.choice(monos) for _ in range(cols)]
                 for _ in range(rows)]
            nus = invariant_factor_valuations(m)
            assert len(nus) == rows
            finite = [n for n in nus if n is not INF]
            # infinite entries only at the tail
            assert nus[:len(finite)] == finite
            total = sum(finite, F(0))
            if len(finite) == len(nus):
                deltas = invariant_factor_valuations(m)
                assert sum(deltas, F(0)) == total

    def test_truncation_blocks_the_answer(self):
        m = [[parse_series("0 + O(T^3)")]]
        with pytest.raises(IndeterminateAtPrecision):
            invariant_factor_valuations(m)

    def test_truncation_beyond_best_is_harmless(self):
        m = [[constant(1), parse_series("0 + O(T^3)")]]
        assert invariant_factor_valuations(m) == [F(0)]


class TestIntegerKernel:
    """The integer minor kernel against cofactor expansion in PuiseuxSeries."""

    EXPONENTS = [F(-1), F(-1, 2), F(0), F(1, 3), F(1, 2), F(1), F(3, 2),
                 F(2), F(3)]
    COEFFICIENTS = [F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3), F(5, 4)]
    PRECISIONS = [F(0), F(1, 2), F(1), F(2), F(7, 2), F(4)]

    def entry(self, rng):
        # exact zero, 0 + O(T^p), or up to two terms, truncated or not
        if rng.random() < 0.15:
            return series(())
        precision = (rng.choice(self.PRECISIONS) if rng.random() < 0.3
                     else INF)
        count = rng.randint(0 if precision is not INF else 1, 2)
        return series([(rng.choice(self.EXPONENTS),
                        rng.choice(self.COEFFICIENTS))
                       for _ in range(count)], precision=precision)

    def matrix(self, rng):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[self.entry(rng) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.3:
            # a multiple of the first row: minors cancel exactly, or only
            # up to the truncation
            factor = series([(rng.choice(self.EXPONENTS),
                              rng.choice(self.COEFFICIENTS))])
            m[-1] = [x * factor for x in m[0]]
        return m

    @staticmethod
    def outcome(route, m):
        try:
            return route(m)
        except IndeterminateAtPrecision as exc:
            return f"indeterminate: {exc}"

    def test_agrees_with_cofactor_expansion(self):
        rng = random.Random(3014)
        kinds = Counter()
        for _ in range(2000):
            m = self.matrix(rng)
            expected = self.outcome(
                helpers.reference_invariant_factor_valuations, m)
            assert self.outcome(invariant_factor_valuations, m) == expected
            kinds["indeterminate" if isinstance(expected, str)
                  else "infinite" if INF in expected else "finite"] += 1
        # the sample reaches every kind of answer
        assert min(kinds.values()) >= 100, kinds

    def cancelling(self, rng):
        """A matrix whose largest-size minors cancel in their lowest
        products: the last row is a multiple of the first, plus entries
        of higher valuation or nothing.  With exact entries a minor then
        cancels exactly or leaves a higher term; with truncated ones it
        may cancel only up to the truncation."""
        size = rng.randint(2, 4)
        cols = rng.randint(size, 4)
        m = [[self.entry(rng) for _ in range(cols)] for _ in range(size)]
        factor = series([(rng.choice(self.EXPONENTS),
                          rng.choice(self.COEFFICIENTS))])
        lift = t_power(rng.choice(self.EXPONENTS[3:]))
        m[-1] = [x * factor + (self.entry(rng) * lift
                               if rng.random() < 0.5 else series(()))
                 for x in m[0]]
        return m

    def test_cancelling_lowest_products(self, monkeypatch):
        # _expand runs on a largest-size minor only when the lowest
        # products cancel (see thinness._leading_term)
        expand, fallbacks = thinness._expand, []

        def spy(products):
            fallbacks.append(len(products))
            return expand(products)

        monkeypatch.setattr(thinness, "_expand", spy)
        rng = random.Random(2416)
        kinds = Counter()
        for _ in range(600):
            m = self.cancelling(rng)
            expected = self.outcome(
                helpers.reference_invariant_factor_valuations, m)
            fallbacks.clear()
            assert self.outcome(invariant_factor_valuations, m) == expected
            if len(m) in fallbacks:
                kinds["indeterminate" if isinstance(expected, str)
                      else "infinite" if INF in expected else "finite"] += 1
        # the cancelling minors reach every kind of answer
        assert min(kinds.values()) >= 20 and len(kinds) == 3, kinds

    def test_batch_matches_single_rates(self):
        for g in (helpers.geometric_torus(), helpers.embedded_slab()):
            assert simplex_rates(g, g.simplices) == [
                simplex_rate(g, s) for s in g.simplices]

    def test_slab_rates(self):
        # a simplex is thin exactly when its projection to the base plane
        # loses a dimension
        g = helpers.embedded_slab()
        rates = dict(zip(g.simplices, simplex_rates(g, g.simplices)))
        assert set(rates.values()) == {F(0), F(3, 2)}
        assert rates[(0, 4)] == F(3, 2)
        assert rates[(0, 1, 3)] == F(0)

    def test_first_failure_by_cell_id(self):
        # cell 3 joins two coincident vertices (degenerate); cell 4 ends
        # at a vertex known only to vanish to order 3 (indeterminate)
        def doc(degenerate_id, indeterminate_id):
            return {"format": "vanhom-complex/1",
                    "cells": [{"id": 0, "dim": 0, "boundary": []},
                              {"id": 1, "dim": 0, "boundary": []},
                              {"id": 2, "dim": 0, "boundary": []},
                              {"id": degenerate_id, "dim": 1,
                               "boundary": [[-1, 0], [1, 1]]},
                              {"id": indeterminate_id, "dim": 1,
                               "boundary": [[-1, 0], [1, 2]]}],
                    "geometry": {"ambient_dim": 1,
                                 "vertices": {"0": ["0"], "1": ["0"],
                                              "2": ["0 + O(T^3)"]}}}
        with pytest.raises(DegenerateSimplex, match="affinely dependent"):
            load_document(doc(3, 4))
        with pytest.raises(IndeterminateAtPrecision, match="size-1 minor"):
            load_document(doc(4, 3))


class TestMinorTable:
    """simplex_rates keeps one minor table per first vertex, one at a time;
    each simplex alone must come out the same."""

    CAPS = (None, F(1, 2), F(1), F(2), F(4))

    @staticmethod
    def geometry(rng):
        """Random points in 1- to 4-space and simplices of dimension 1-4.

        Coordinates come from TestIntegerKernel.entry, so exact zeros and
        truncated entries appear.  Some points lie on the line through two
        earlier ones, so that minors cancel exactly or up to a truncation.
        Each top simplex has a random vertex order, and often comes with
        its faces through its first vertex, in any order.
        """
        kernel = TestIntegerKernel()
        ambient, nv = rng.randint(1, 4), rng.randint(3, 6)
        points = {}
        for vid in range(nv):
            if vid >= 2 and rng.random() < 0.25:
                a, b = (points[k] for k in rng.sample(range(vid), 2))
                factor = series([(rng.choice(kernel.EXPONENTS),
                                  rng.choice(kernel.COEFFICIENTS))])
                points[vid] = tuple(x + factor * (y - x)
                                    for x, y in zip(a, b))
            else:
                points[vid] = tuple(kernel.entry(rng)
                                    for _ in range(ambient))
        simplices = []
        for _ in range(rng.randint(1, 4)):
            top = tuple(rng.sample(range(nv), rng.randint(2, min(5, nv))))
            if rng.random() < 0.6:
                tail = top[1:]
                simplices += [(top[0], *rest) for size in range(1, len(tail))
                              for rest in itertools.combinations(tail, size)]
            simplices.append(top)
        if rng.random() < 0.5:
            rng.shuffle(simplices)
        return ambient, points, simplices

    @staticmethod
    def outcome(call):
        try:
            return call()
        except (DegenerateSimplex, IndeterminateAtPrecision) as exc:
            return type(exc).__name__, str(exc)

    def test_batch_matches_fresh_single_rates(self):
        rng = random.Random(2020)
        kinds = Counter()
        for _ in range(300):
            ambient, points, simplices = self.geometry(rng)
            for cap in self.CAPS:
                g = GeometricComplex(ambient, {
                    vid: tuple(x if cap is None else x.truncate(cap)
                               for x in point)
                    for vid, point in points.items()}, simplices)
                singles = [self.outcome(lambda s=s: simplex_rate(g, s))
                           for s in simplices]
                errors = [o for o in singles if isinstance(o, tuple)]
                # the first failure in the given order, else every rate
                expected = errors[0] if errors else singles
                assert self.outcome(
                    lambda: simplex_rates(g, simplices)) == expected
                kinds[errors[0][0] if errors else "rates"] += 1
                kinds["late failure"] += bool(
                    errors and not isinstance(singles[0], tuple))
        assert min(kinds.values()) >= 100, kinds

    @staticmethod
    def expansions(g, monkeypatch):
        """Rate g's simplices in one call, spying on _expand.

        Asserts that no minor is expanded twice, that every minor of a
        row set read as the tail of another is expanded, and that any
        other minor is expanded only when the lowest products of its
        Laplace terms do not settle its leading term, counted here in
        PuiseuxSeries.  Returns every minor needed, in order, with
        repeats, and the minors read off their leading terms with those
        of them that are not settled.
        """
        expanded, tables, computing = [], [], []
        expand = thinness._expand
        init = thinness._MinorTable.__init__
        row_set = thinness._MinorTable._row_set
        # one table per first vertex, in ascending order
        bases = sorted({s[0] for s in g.simplices})

        def spy_init(self, *args):
            init(self, *args)
            tables.append(self)  # kept, so that no id is reused

        def spy_row_set(self, keys):
            computing.append((self, keys))
            try:
                return row_set(self, keys)
            finally:
                computing.pop()

        def spy(products):
            # the innermost row set in the making owns the minor, and
            # a_k is its first row's entry in the minor's k-th column
            table, keys = computing[-1]
            top = table.rows[keys[0]]
            cols = tuple(next(j for j, x in enumerate(top) if x is a)
                         for a, _ in products)
            expanded.append((bases[tables.index(table)], keys, cols))
            return expand(products)

        monkeypatch.setattr(thinness._MinorTable, "__init__", spy_init)
        monkeypatch.setattr(thinness._MinorTable, "_row_set", spy_row_set)
        monkeypatch.setattr(thinness, "_expand", spy)
        simplex_rates(g, g.simplices)
        n = g.ambient_dim
        # valuations reads every row subset of each simplex up to size n
        read = [(s[0], rows) for s in g.simplices
                for size in range(2, min(len(s) - 1, n) + 1)
                for rows in itertools.combinations(s[1:], size)]
        tails = {(base, rows[1:]) for base, rows in read if len(rows) > 2}
        needed = [(base, rows, cols) for base, rows in read
                  for cols in itertools.combinations(range(n), len(rows))]
        # exact coordinates: a leading term is settled unless the lowest
        # products cancel
        assert all(x.precision is INF
                   for point in g.vertices.values() for x in point)
        # cols were found by identity: every row entry is its own object
        for table in tables:
            assert all(len(set(map(id, row))) == n
                       for row in table.rows.values())

        def row(base, vid):
            return [x - y for x, y in zip(g.vertices[vid], g.vertices[base])]

        def settled(base, rows, cols):
            # the lowest products' exponents, with summed coefficients
            sums = {}
            for k, col in enumerate(cols):
                rest = cols[:k] + cols[k + 1:]
                a = row(base, rows[0])[col]
                b = helpers._cofactor_det([[row(base, r)[j] for j in rest]
                                           for r in rows[1:]])
                if a.terms and b.terms:
                    (ea, ca), (eb, cb) = a.terms[0], b.terms[0]
                    sums[ea + eb] = sums.get(ea + eb, 0) + (-1) ** k * ca * cb
            return not sums or sums[min(sums)] != 0

        leading = {m for m in needed if m[:2] not in tails}
        unsettled = {m for m in leading if not settled(*m)}
        assert len(expanded) == len(set(expanded))
        assert set(expanded) == set(needed) - leading | unsettled
        return needed, leading, unsettled

    def test_slab_expands_each_tail_minor_once(self, monkeypatch):
        needed, leading, unsettled = self.expansions(
            helpers.embedded_slab(), monkeypatch)
        # the tetrahedra read their triangles' minors, and every other
        # minor is settled by the lowest products
        assert len(set(needed)) < len(needed)
        assert leading and not unsettled

    def test_torus_expands_unsettled_minors_once(self, monkeypatch):
        _, leading, unsettled = self.expansions(helpers.geometric_torus(),
                                                monkeypatch)
        # some triangles' minors cancel in their lowest products
        assert 0 < len(unsettled) < len(leading)

    @pytest.mark.parametrize("build", [helpers.geometric_torus,
                                       helpers.embedded_slab])
    def test_one_table_per_first_vertex_alive_at_a_time(self, monkeypatch,
                                                        build):
        # the simplices are rated grouped by first vertex, and a group's
        # table is dropped before the next group rates a simplex.  They
        # come in annotate_geometric's order, every edge before any
        # triangle, so a first vertex recurs after others
        tables, alive = [], []
        init = thinness._MinorTable.__init__
        valuations = thinness._MinorTable.valuations

        def spy_init(self, *args):
            init(self, *args)
            tables.append(weakref.ref(self))

        def spy_valuations(self, keys):
            alive.append(sum(ref() is not None for ref in tables))
            return valuations(self, keys)

        monkeypatch.setattr(thinness._MinorTable, "__init__", spy_init)
        monkeypatch.setattr(thinness._MinorTable, "valuations",
                            spy_valuations)
        g = build()
        annotate_geometric(g)
        assert len(tables) == len({s[0] for s in g.simplices})
        assert len(alive) == len(g.simplices) and max(alive) == 1


class TestSimplexRate:
    def g(self, points, simplices, ambient=2):
        return GeometricComplex(ambient_dim=ambient,
                                vertices=points, simplices=simplices)

    def test_edge(self):
        g = self.g({0: (series(()), series(())), 1: (T(5), series(()))},
                   [(0, 1)])
        assert simplex_rate(g, (0, 1)) == F(5)

    def test_triangle_mixed(self):
        g = self.g({0: (series(()), series(())),
                    1: (constant(1), series(())),
                    2: (series(()), T(2))},
                   [(0, 1), (1, 2), (0, 2), (0, 1, 2)])
        assert simplex_rate(g, (0, 1, 2)) == F(2)
        assert simplex_rate(g, (0, 1)) == F(0)
        assert simplex_rate(g, (0, 2)) == F(2)

    def test_triangle_deeper(self):
        g = self.g({0: (series(()), series(())),
                    1: (constant(1), series(())),
                    2: (constant(F(1, 2)), T(3))},
                   [(0, 1, 2)])
        assert simplex_rate(g, (0, 1, 2)) == F(3)

    def test_degenerate(self):
        g = self.g({0: (series(()), series(())),
                    1: (constant(1), series(())),
                    2: (constant(2), series(()))},
                   [(0, 1, 2)])
        with pytest.raises(DegenerateSimplex):
            simplex_rate(g, (0, 1, 2))

    def test_too_high_dimension(self):
        g = self.g({0: (series(()),), 1: (constant(1),), 2: (constant(2),)},
                   [(0, 1, 2)], ambient=1)
        with pytest.raises(DegenerateSimplex):
            simplex_rate(g, (0, 1, 2))

    def test_orientation_invariant(self):
        g = self.g({0: (series(()), series(())),
                    1: (constant(1), T(1)),
                    2: (constant(2), T(2))},
                   [(0, 1, 2)])
        rates = {simplex_rate(g, s)
                 for s in [(0, 1, 2), (2, 1, 0), (1, 0, 2)]}
        assert len(rates) == 1

    def test_translation_invariant(self):
        base = {0: (series(()), series(())),
                1: (constant(1), series(())),
                2: (series(()), T(2))}
        shift = (constant(7), T(1))
        moved = {vid: tuple(x + s for x, s in zip(point, shift))
                 for vid, point in base.items()}
        ga = self.g(base, [(0, 1, 2)])
        gb = self.g(moved, [(0, 1, 2)])
        assert simplex_rate(ga, (0, 1, 2)) == simplex_rate(gb, (0, 1, 2))

    def test_scaling_shifts_rate(self):
        base = {0: (series(()), series(())),
                1: (constant(1), series(())),
                2: (series(()), T(2))}
        scaled = {vid: tuple(x * T(F(3, 2)) for x in point)
                  for vid, point in base.items()}
        ga = self.g(base, [(0, 1, 2)])
        gb = self.g(scaled, [(0, 1, 2)])
        assert (simplex_rate(gb, (0, 1, 2))
                == simplex_rate(ga, (0, 1, 2)) + F(3, 2))


class TestAnnotateGeometric:
    def test_single_edge(self):
        g = GeometricComplex(1, {0: (series(()),), 1: (T(5),)}, [(0, 1)])
        c, rates = annotate_geometric(g)
        assert c.f_vector() == (2, 1)
        (eid,) = [cell.id for cell in c.cells_of_dim(1)]
        assert rates[eid] == F(5)

    def test_torus_matches_builder(self):
        built, built_rates = build_torus(0, 2, 3)
        gc, grates = annotate_geometric(helpers.geometric_torus())
        assert gc.f_vector() == built.f_vector()
        derived = {vertex_support(gc, cid): grates[cid]
                   for cid in grates}
        expected = {vertex_support(built, cid): built_rates[cid]
                    for cid in built_rates}
        assert derived == expected

    def test_duplicate_simplex_rejected(self):
        g = GeometricComplex(1, {0: (series(()),), 1: (T(5),)},
                             [(0, 1), (1, 0)])
        with pytest.raises(InvalidComplex, match="duplicate simplex"):
            annotate_geometric(g)

    @pytest.mark.parametrize("simplices, text", [
        ([(0, 0)], "repeated vertex in simplex (0, 0)"),
        ([(0, 1), (1, 0)], "duplicate simplex on [0, 1]"),
        ([(0, 1), (0, 1, 2)], "missing face (1, 2) of (0, 1, 2)"),
    ])
    def test_structure_refused_before_any_rate(self, monkeypatch, simplices,
                                               text):
        # SimplicialBuilder assembles the complex first, so a structural
        # fault is InvalidComplex and never a DegenerateSimplex
        g = GeometricComplex(2,
                             {0: (series(()), series(())),
                              1: (constant(1), series(())),
                              2: (series(()), constant(1))},
                             simplices)

        def no_rates(*args):
            raise AssertionError("a rate was derived")

        monkeypatch.setattr(thinness, "simplex_rates", no_rates)
        with pytest.raises(InvalidComplex) as info:
            annotate_geometric(g)
        assert info.value.args == (text,)

    @pytest.mark.parametrize("ambient, simplices, text", [
        (2, [], "vertex 0: expected 2 coordinates"),
        (1, [(0,)], "(0,): need dimension >= 1"),
        (1, [(0, 5)], "unknown vertex 5 in (0, 5)"),
    ])
    def test_check_texts(self, ambient, simplices, text):
        g = GeometricComplex(ambient, {0: (series(()),)}, simplices)
        with pytest.raises(InvalidComplex) as info:
            g.check()
        assert info.value.args == (text,)

    def test_missing_face_rejected(self):
        g = GeometricComplex(2,
                             {0: (series(()), series(())),
                              1: (constant(1), series(())),
                              2: (series(()), constant(1))},
                             [(0, 1), (0, 1, 2)])
        with pytest.raises(Exception):
            annotate_geometric(g)


def _transformed(g, point_map):
    return GeometricComplex(g.ambient_dim,
                            {vid: point_map(point)
                             for vid, point in g.vertices.items()},
                            list(g.simplices))


class TestCoordinateChanges:
    """Rates follow changes of coordinates as the paper's invariants must.

    Each rule runs 20 seeded transforms on each geometric fixture.
    """

    FIXTURES = (helpers.geometric_torus, helpers.embedded_slab)

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_constant_linear_map_keeps_every_rate(self, fixture):
        g = fixture()
        _, rates = annotate_geometric(g)
        rng = random.Random(6161)
        n = g.ambient_dim
        for _ in range(20):
            matrix = []
            while rank_of({k: a for k, a in enumerate(row) if a}
                          for row in matrix) < n:
                matrix = [[F(rng.randint(-3, 3), rng.randint(1, 3))
                           for _ in range(n)] for _ in range(n)]

            def apply(point):
                return tuple(sum((constant(a) * x for a, x in zip(row, point)),
                                 series(())) for row in matrix)

            _, moved = annotate_geometric(_transformed(g, apply))
            assert moved == rates, matrix

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_substituting_a_power_of_t_scales_every_rate(self, fixture):
        g = fixture()
        _, rates = annotate_geometric(g)
        rng = random.Random(6262)
        for _ in range(20):
            k = F(rng.randint(1, 9), rng.randint(1, 6))

            def substitute(point):
                return tuple(series([(e * k, c) for e, c in x.terms],
                                    x.precision if x.precision is INF
                                    else x.precision * k)
                             for x in point)

            _, moved = annotate_geometric(_transformed(g, substitute))
            assert moved == {cid: rate * k for cid, rate in rates.items()}

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_a_common_factor_shifts_every_rate(self, fixture):
        g = fixture()
        _, rates = annotate_geometric(g)
        rng = random.Random(6363)
        for _ in range(20):
            c = F(rng.randint(-6, 6), rng.randint(1, 4))

            def scale(point):
                return tuple(x * T(c) for x in point)

            _, moved = annotate_geometric(_transformed(g, scale))
            assert moved == {cid: rate + c for cid, rate in rates.items()}

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_triangular_polynomial_shear_keeps_every_rate(self, fixture):
        # x_i += two rational quadratic monomials in x_1..x_(i-1): an
        # invertible polynomial change of coordinates whose added terms
        # cancel in the differences, so minors fall back to _expand
        g = fixture()
        _, rates = annotate_geometric(g)
        rng = random.Random(6464)
        n = g.ambient_dim
        for _ in range(20):
            shear = [[(F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)),
                       rng.randrange(i), rng.randrange(i))
                      for _ in range(2)] if i else []
                     for i in range(n)]

            def apply(point):
                return tuple(x + sum((constant(c) * point[j] * point[k]
                                      for c, j, k in monomials), series(()))
                             for x, monomials in zip(point, shear))

            _, moved = annotate_geometric(_transformed(g, apply))
            assert moved == rates, shear
