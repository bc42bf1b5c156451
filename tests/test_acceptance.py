"""The acceptance suite.

One test per criterion; each prints a [PASS] or [FAIL] line so the run
reads as a checklist.  Everything is exact equality and every test is
fast.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

import helpers
from helpers import betti, disjoint_union, filtration, vertex_support
from vanhom import (PuiseuxSeries, Velocity, annotate_geometric, build_circle,
                    build_pinched_spheres, build_torus, constant,
                    dumps_document, document_dict, excision_check, les_check,
                    relative_vanishing, series, sweep, t_power, valuation,
                    vanishing_betti, vanishing_betti_oracle, velocity_contains)
from vanhom.cli import main

F = Fraction


class _Reporter:
    def __init__(self, capsys):
        self.capsys = capsys

    @contextlib.contextmanager
    def __call__(self, label):
        try:
            yield
        except BaseException:
            with self.capsys.disabled():
                print(f"[FAIL] {label}")
            raise
        with self.capsys.disabled():
            print(f"[PASS] {label}")


@pytest.fixture
def criterion(capsys):
    return _Reporter(capsys)


def both_engines(c, rates, v):
    left = vanishing_betti(c, rates, v)
    right = vanishing_betti_oracle(c, rates, v)
    assert left.dims == right.dims
    return left


def random_velocity(rng):
    return Velocity(F(rng.randint(-1, 4), rng.choice([1, 2])),
                    strict=rng.random() < 0.4)


def test_criterion_1_torus(criterion):
    with criterion("criterion 1: collapsing torus dimensions and index"):
        c, rates = build_torus(0, 2, 3)
        t = both_engines(c, rates, Velocity(F(2)))
        assert t.dims == {0: 0, 1: 1, 2: 1}
        assert t.euler == 0
        c, rates = build_torus(1, 3, 3)
        t = both_engines(c, rates, Velocity(F(3)))
        assert t.dims == {0: 0, 1: 1, 2: 1}


def test_criterion_2_pinched_spheres(criterion):
    with criterion("criterion 2: pinched spheres, absolute and relative"):
        c, rates, circle = build_pinched_spheres(2, 3)
        v = Velocity(F(2))
        t = both_engines(c, rates, v)
        assert t.dims == {0: 0, 1: 1, 2: 0}
        rep = relative_vanishing(c, rates, circle, v)
        assert rep.attached[1] == 1
        assert rep.attached[0] == 0
        assert rep.relative[1] == 0


def test_criterion_3_oracle_equivalence(criterion):
    with criterion("criterion 3: two engines agree on 100 random complexes"):
        for c, rates in [build_torus(0, 2, 3), build_torus(1, 3, 3),
                         build_circle(3, 2), build_circle(6, 2),
                         build_pinched_spheres(2, 3)[:2],
                         build_pinched_spheres(3, 5)[:2]]:
            for v in [Velocity(F(0)), Velocity(F(2)),
                      Velocity(F(2), strict=True), Velocity(F(7, 2))]:
                both_engines(c, rates, v)
        rng = random.Random(20240)
        for _ in range(100):
            c, rates = helpers.random_complex(rng)
            both_engines(c, rates, random_velocity(rng))


def test_criterion_4_sweep(criterion):
    with criterion("criterion 4: torus sweep intervals"):
        c, rates = build_torus(0, 2, 3)
        table = sweep(c, rates)
        assert table.intervals(1) == [(None, F(0), 2), (F(0), F(2), 1),
                                      (F(2), None, 0)]
        for q, want in [(F(-1), 1), (F(0), 1), (F(1), 1), (F(2), 1),
                        (F(3), 0)]:
            assert table.value(2, q) == want
        for q in [F(-5), F(-1, 2), F(1), F(3, 2), F(5, 2), F(17)]:
            direct = vanishing_betti(c, rates, Velocity(q)).dims
            assert table.value(1, q) == direct[1]
            assert table.value(2, q) == direct[2]


def test_criterion_5_structural_invariants(criterion):
    with criterion("criterion 5: structural invariants on random complexes"):
        rng = random.Random(20245)
        fixtures = [build_torus(0, 2, 3), build_circle(4, 1),
                    build_pinched_spheres(2, 3)[:2]]
        cases = fixtures + [helpers.random_complex(rng) for _ in range(40)]
        for c, rates in cases:
            v = random_velocity(rng)
            t = vanishing_betti(c, rates, v)
            assert t.dims[0] == 0
            finite = [r for r in rates.values() if isinstance(r, Fraction)]
            beyond = Velocity((max(finite) if finite else F(0)) + 1)
            assert all(n == 0
                       for n in vanishing_betti(c, rates, beyond).dims.values())
            d = c.dim
            if d >= 1:
                top = Velocity(min(rates[cid] for cid in c.ids_of_dim(d)))
                td = vanishing_betti(c, rates, top).dims
                assert td[d] == betti(c, c.cell_ids(), d)
                assert td[d - 1] <= betti(c, c.cell_ids(), d - 1)
            lo, hi = Velocity(F(1)), Velocity(F(2))
            flo = filtration(c, rates, lo)
            fhi = filtration(c, rates, hi)
            for j in range(len(fhi.levels)):
                assert fhi.level(j) <= flo.level(j)
        for _ in range(10):
            ca, ra = helpers.random_complex(rng)
            cb, rb = helpers.random_complex(rng)
            c = disjoint_union(ca, cb)
            shift = max(ca.cell_ids(), default=-1) + 1
            rates = dict(ra)
            rates.update({cid + shift: r for cid, r in rb.items()})
            v = random_velocity(rng)
            t = vanishing_betti(c, rates, v).dims
            ta = vanishing_betti(ca, ra, v).dims
            tb = vanishing_betti(cb, rb, v).dims
            assert t == {j: ta.get(j, 0) + tb.get(j, 0) for j in t}


def test_criterion_6_les_and_excision(criterion):
    with criterion("criterion 6: long exact sequences and excision"):
        c, rates, circle = build_pinched_spheres(2, 3)
        assert les_check(c, rates, circle, Velocity(F(2))).exact
        rng = random.Random(20246)
        for _ in range(100):
            c, rates = helpers.random_complex(rng)
            sub = helpers.random_subcomplex(rng, c)
            assert les_check(c, rates, sub, random_velocity(rng)).exact
        c, rates = build_circle(6, 2)
        rep = excision_check(c, rates, frozenset([0, 1, 2, 3, 6, 7, 8]),
                             frozenset([1, 6, 7]), Velocity(F(2)))
        assert rep.equal
        done = 0
        while done < 50:
            c, rates = helpers.random_complex(rng)
            sub = helpers.random_subcomplex(rng, c)
            cut = helpers.random_cut(rng, c, sub)
            if not cut:
                continue
            v = Velocity(F(rng.randint(0, 3)), strict=rng.random() < 0.3)
            assert excision_check(c, rates, sub, cut, v).equal
            done += 1


def test_criterion_7_geometric_pipeline(criterion):
    with criterion("criterion 7: rates derived from Puiseux coordinates"):
        g = helpers.geometric_torus()
        c, rates = annotate_geometric(g)
        built, built_rates = build_torus(0, 2, 3)
        derived = {vertex_support(c, cid): r for cid, r in rates.items()}
        expected = {vertex_support(built, cid): r
                    for cid, r in built_rates.items()}
        assert derived == expected
        t = both_engines(c, rates, Velocity(F(2)))
        assert t.dims == {0: 0, 1: 1, 2: 1}


def test_criterion_8_series_kernel(criterion):
    with criterion("criterion 8: series field laws, 1000+ random cases"):
        rng = random.Random(20248)

        def random_exact(allow_zero=True):
            n = rng.randint(0, 3)
            exps = sorted(rng.sample([F(a, b) for a in range(-2, 7)
                                      for b in (1, 2, 3)], n))
            pairs = tuple((e, F(rng.randint(-5, 5) or 1, rng.randint(1, 3)))
                          for e in exps)
            s = series(pairs)
            if not allow_zero and s.is_zero():
                return constant(1)
            return s

        cases = 0
        for _ in range(150):
            a, b, c = (random_exact() for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + series(()) == a
            assert a * constant(1) == a
            assert (a - a).is_zero()
            cases += 8
        for _ in range(100):
            a, b = random_exact(False), random_exact(False)
            assert valuation(a * b) == valuation(a) + valuation(b)
            cases += 1
        for _ in range(100):
            a, b, c = (random_exact() for _ in range(3))
            if a < b:
                assert not b < a
                assert a + c < b + c
                cases += 2
            if a < b and b < c:
                assert a < c
                cases += 1
        for n in [1, 2, 10, 1000, 10 ** 6]:
            assert t_power(1) < constant(F(1, n))
            cases += 1
        for _ in range(60):
            v = random_velocity(rng)
            x, y = random_exact(), random_exact()
            if velocity_contains(v, x) and velocity_contains(v, y):
                assert velocity_contains(v, x + y)
                assert velocity_contains(v, x - y)
                cases += 2
            if velocity_contains(v, x) and abs(y) <= abs(x):
                assert velocity_contains(v, y)
                cases += 1
        assert cases >= 1000, cases


def test_criterion_9_determinism(criterion, tmp_path):
    with criterion("criterion 9: finite integer output, bit-identical reruns"):
        rng = random.Random(20249)
        for _ in range(20):
            c, rates = helpers.random_complex(rng)
            v = random_velocity(rng)
            t = vanishing_betti(c, rates, v)
            for value in t.dims.values():
                assert isinstance(value, int) and value >= 0
            sub = helpers.random_subcomplex(rng, c)
            rep = relative_vanishing(c, rates, sub, v)
            for table in (rep.absolute, rep.relative, rep.attached):
                for value in table.values():
                    assert isinstance(value, int) and value >= 0
            again = vanishing_betti(c, rates, v)
            assert t.as_dict() == again.as_dict()
        c, rates, circle = build_pinched_spheres(2, 3)
        doc = document_dict(c, rates, subcomplexes={"circle": circle},
                            name="pinched")
        assert dumps_document(doc) == dumps_document(
            document_dict(c, rates, subcomplexes={"circle": circle},
                          name="pinched"))
        path = tmp_path / "t.json"
        path.write_text(dumps_document(document_dict(*build_torus(0, 2, 3))),
                        encoding="utf-8")
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(["compute", str(path), "--velocity", "T^2"])
            assert code == 0
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["betti"] == {"0": 0, "1": 1, "2": 1}
