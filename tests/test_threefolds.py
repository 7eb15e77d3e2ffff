import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from duvalk3 import homology, threefolds
from duvalk3.ade import (
    ADE_TYPES,
    RANK_CAP,
    ADEType,
    Basket,
    DynkinGraph,
    form_signature,
    plumbing_form,
    standard_dynkin_graph,
)
from duvalk3.homology import (
    FormalClass,
    Generator,
    SpaceLabel,
    _apply_table,
    fundamental_class,
    product_class,
    pushforward,
    transfer,
)
from duvalk3.threefolds import (
    BoundViolation,
    KawamataDiagram,
    NovikovDecomposition,
    SurfaceModel,
    bsy_check,
    kawamata_cover,
    novikov_assembly,
    sigma_k3,
    signature_from_hodge,
    smooth_k3_signature,
    t1_surface,
    threefold_lclass,
)
from duvalk3.homology import l_class_surface
from duvalk3.search import enumerate_baskets, enumerate_k3_hypersurfaces
from duvalk3.wps import quotient_points
from criteria import FLETCHER_BOUND, bsy_sweep
from rr_oracle import orbifold_euler
from sturm_oracle import link_order

X = SpaceLabel("X", 6)


def scissor_chi_y(basket, y, graph):
    """chi_y(X) by additivity over the minimal resolution: the smooth K3's
    2 - 20y + 2y^2, minus each exceptional tree E_t, plus its point.  A tree
    of n_t curves meeting in e_t double points has chi_y(E_t) = n_t(1 - y) - e_t
    (Brasselet-Schuermann-Yokura, J. Topol. Anal. 2 (2010)): y = 0 gives
    chi(O_X), y = -1 the topological Euler number."""
    trees = 0
    for t in basket.entries:
        g = graph(t)
        trees += len(g.euler_weights) * (1 - y) - len(g.edges)
    return 2 - 20 * y + 2 * y * y - trees + len(basket.entries)


# the names the package exports from the 3-fold layer, which loads on first use
THREEFOLD_LAYER_EXPORTS = {
    "homology": (
        "CoveringMap", "DimensionMismatch", "FormalClass", "Generator", "SpaceLabel",
        "UnknownGenerator", "fundamental_class", "l_class_surface", "product_class",
        "pushforward", "transfer",
    ),
    "threefolds": (
        "BsyReport", "KawamataDiagram", "NovikovDecomposition", "SurfaceModel",
        "bsy_check", "novikov_assembly", "t1_surface", "threefold_lclass",
    ),
}


class TestLazyThreefoldLayer:
    def test_loaded_on_first_use_of_a_package_name(self):
        code = (
            "import sys, duvalk3, duvalk3.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('duvalk3.')))\n"
            f"exports = {THREEFOLD_LAYER_EXPORTS!r}\n"
            "assert {n for ns in exports.values() for n in ns} <= set(dir(duvalk3))\n"
            "for module, names in exports.items():\n"
            "    for name in names:\n"
            "        assert getattr(duvalk3, name) is getattr(duvalk3, module).__dict__[name]\n"
            "print(sorted(m for m in sys.modules if m.startswith('duvalk3.')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout
        surface = ["duvalk3.ade", "duvalk3.catalog", "duvalk3.cli", "duvalk3.search", "duvalk3.wps"]
        assert out.splitlines() == [
            repr(surface),
            repr(sorted(surface + ["duvalk3.homology", "duvalk3.threefolds"])),
        ]
        assert sum(map(len, THREEFOLD_LAYER_EXPORTS.values())) == 19

    def test_moved_surface_facts_are_one_definition(self):
        import duvalk3
        from duvalk3 import ade

        assert threefolds.sigma_k3 is duvalk3.sigma_k3 is ade.sigma_k3
        assert threefolds.BoundViolation is duvalk3.BoundViolation is ade.BoundViolation
        assert threefolds.smooth_k3_signature is duvalk3.smooth_k3_signature
        assert threefolds.EXCEPTIONAL_CURVE_BOUND == ade.EXCEPTIONAL_CURVE_BOUND == 19

    def test_unknown_names_still_fail(self):
        import duvalk3

        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            getattr(duvalk3, "nope")
        with pytest.raises(ImportError):
            from duvalk3 import nope  # noqa: F401


class TestSmoothK3Signature:
    def test_value(self):
        assert smooth_k3_signature() == -16

    def test_derivation_from_hodge_numbers(self):
        assert signature_from_hodge(1, 20) == 2 * 1 - 20 + 2 == -16

    def test_abelian_surface_sanity(self):
        assert signature_from_hodge(1, 4) == 0


class TestSigmaK3:
    def test_empty_basket(self):
        assert sigma_k3(Basket()) == -16

    def test_table_row(self):
        assert sigma_k3(Basket.parse("A_2 A_3 A_4 A_6")) == -1

    def test_positive_irregularity(self):
        assert sigma_k3(Basket(), q=1) == 0
        assert sigma_k3(Basket(), q=2) == 0

    def test_irregular_surface_must_be_smooth(self):
        with pytest.raises(ValueError):
            sigma_k3(Basket.parse("A_1"), q=1)

    def test_bound_violation(self):
        with pytest.raises(BoundViolation):
            sigma_k3(Basket.parse("A_19 A_1"))

    def test_d_and_e_types_accepted(self):
        assert sigma_k3(Basket.parse("E_8 D_4")) == -16 + 12


class TestSurfaceModel:
    def test_sigma(self):
        assert SurfaceModel(Basket.parse("5A_1")).sigma == -11

    def test_irregular_with_basket_rejected(self):
        with pytest.raises(ValueError):
            SurfaceModel(Basket.parse("A_1"), q=2)

    def test_bad_q(self):
        with pytest.raises(ValueError):
            SurfaceModel(Basket(), q=3)

    def test_non_int_q_rejected(self):
        # True would print as q(F)=True
        with pytest.raises(ValueError, match=r"got True$"):
            SurfaceModel(Basket(), True)


class TestKawamataDiagram:
    def test_q1_requires_fiber(self):
        with pytest.raises(ValueError):
            KawamataDiagram(1, 2)

    def test_q2_rejects_surface_fiber(self):
        with pytest.raises(ValueError):
            KawamataDiagram(2, 2, SurfaceModel())

    def test_q_range(self):
        with pytest.raises(ValueError):
            KawamataDiagram(4, 1)

    def test_non_int_q_or_cover_degree_rejected(self):
        # 2.0 died inside Fraction in bsy_check; True printed as q(X) = True and
        # shared the fiber-map cache entry of q = 1
        for q, degree in ((1, 2.0), (True, 2)):
            with pytest.raises(ValueError, match=r"^q and cover degree must be ints"):
                KawamataDiagram(q, degree, SurfaceModel(Basket()))

    def test_cover_degree_must_be_positive(self):
        with pytest.raises(ValueError, match=r"^cover degree must be >= 1, got 0$"):
            KawamataDiagram(1, 0, SurfaceModel(Basket()))

    def test_fiber_kinds(self):
        assert KawamataDiagram(1, 1, SurfaceModel()).fiber_kind == "surface"
        assert KawamataDiagram(2, 1).fiber_kind == "curve"
        assert KawamataDiagram(3, 1).fiber_kind == "point"


class TestNovikovAssembly:
    def test_single_a1(self):
        d = novikov_assembly(Basket.parse("A_1"))
        assert d.tube_signatures == (-1,)
        assert d.sigma_complement == -15
        assert d.sigma_surface == -15

    def test_empty(self):
        d = novikov_assembly(Basket())
        assert d.tube_signatures == ()
        assert d.sigma_complement == -16

    def test_three_a3(self):
        d = novikov_assembly(Basket.parse("3A_3"))
        assert d.tube_signatures == (-3, -3, -3)
        assert d.sigma_complement == -7

    def test_tubes_match_component_counts(self):
        b = Basket.parse("A_2 D_5 E_7")
        d = novikov_assembly(b)
        assert d.tube_signatures == tuple(-t.components for t in b)
        assert d.sigma_surface == sigma_k3(b)

    def test_bound_violation(self):
        with pytest.raises(BoundViolation):
            novikov_assembly(Basket.parse("2A_10"))

    def test_record_contract(self):
        d = novikov_assembly(Basket.parse("A_1 A_2"))
        assert repr(d) == "NovikovDecomposition(tube_signatures=(-1, -2), sigma_complement=-13)"
        assert d == NovikovDecomposition((-1, -2), -13)  # fields in this order
        # a named tuple: equal to, hashed as and unpacked like its plain tuple
        assert d == ((-1, -2), -13) and hash(d) == hash(((-1, -2), -13))
        tubes, sigma = d
        assert (tubes, sigma) == (d.tube_signatures, d.sigma_complement)
        assert d.sigma_surface == d.sigma_complement == -13
        for name in ("tube_signatures", "sigma_complement", "sigma_surface"):
            with pytest.raises(AttributeError):
                setattr(d, name, 0)

    def test_every_basket(self):
        baskets = [b for b, _ in enumerate_baskets(19)]
        assert len(baskets) == 7574
        for b in baskets:
            d = novikov_assembly(b)
            assert d.tube_signatures == tuple(-t.rank for t in b), b.tokens()
            assert d.sigma_complement == d.sigma_surface == sigma_k3(b), b.tokens()


class TestTubeSignatureTable:
    def test_one_form_signature_call_per_type(self, monkeypatch):
        calls = []

        def counted(form):
            calls.append(form.dim)
            return form_signature(form)

        threefolds._tube_signature.cache_clear()
        monkeypatch.setattr(threefolds, "form_signature", counted)
        baskets = [b for b, _ in enumerate_baskets(19)]
        for b in baskets:
            novikov_assembly(b)
        assert (len(calls), sum(calls)) == (38, 395)
        calls.clear()
        for b in baskets:
            novikov_assembly(b)
        assert calls == []

    def test_table_stays_within_the_interned_types(self):
        baskets = [b for b, _ in enumerate_baskets(19)]
        for b in baskets:
            novikov_assembly(b)
        size = threefolds._tube_signature.cache_info().currsize
        assert size <= 128
        for b in baskets:  # types built afresh from tokens hit the same keys
            novikov_assembly(Basket.parse(b.tokens()))
        assert threefolds._tube_signature.cache_info().currsize == size

    def test_every_type_matches_a_fresh_signature(self):
        types = (
            [ADEType("A", r) for r in range(1, RANK_CAP + 1)]
            + [ADEType("D", r) for r in range(4, RANK_CAP + 1)]
            + [ADEType("E", r) for r in (6, 7, 8)]
        )
        threefolds._tube_signature.cache_clear()
        for t in types:
            fresh = form_signature(plumbing_form(standard_dynkin_graph(t))).sigma
            assert threefolds._tube_signature(t) == fresh == -t.rank
        assert threefolds._tube_signature.cache_info().currsize == len(types) == 128

    def test_import_leaves_the_table_empty(self):
        code = (
            "import duvalk3, duvalk3.cli\n"
            "from duvalk3 import threefolds\n"
            "print(threefolds._tube_signature.cache_info().currsize)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "0"


class TestTreeEdgesTable:
    def test_table_stays_within_the_interned_types(self):
        baskets = [b for b, _ in enumerate_baskets(19)]
        for b in baskets:
            t1_surface(b)
        size = threefolds._tree_edges.cache_info().currsize
        assert size <= 128
        for b in baskets:  # types built afresh from tokens hit the same keys
            t1_surface(Basket.parse(b.tokens()))
        assert threefolds._tree_edges.cache_info().currsize == size

    def test_import_leaves_the_table_empty(self):
        code = (
            "import duvalk3.threefolds\n"
            "print(duvalk3.threefolds._tree_edges.cache_info().currsize)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "0"


class TestT1Surface:
    def test_smooth_case(self):
        F = SpaceLabel("F", 4)
        assert t1_surface(Basket()) == l_class_surface(-16, F)

    def test_five_a1(self):
        c = t1_surface(Basket.parse("5A_1"))
        F = SpaceLabel("F", 4)
        assert c.coefficient(Generator("pt", 0, F)) == -11
        assert c == l_class_surface(-11, F)

    def test_table_f30_row(self):
        c = t1_surface(Basket.parse("A_1 A_7 A_10"))
        assert c == l_class_surface(2, SpaceLabel("F", 4))

    def test_agrees_with_l_class_on_small_baskets(self):
        F = SpaceLabel("F", 4)
        for b, sigma in enumerate_baskets(6):
            assert t1_surface(b) == l_class_surface(sigma, F)

    def test_every_type_counts_its_curves(self):
        # a tree of rank r has r - 1 edges, so one point of type t gives
        # sigma -16 + rank; a type past 19 curves fits in no K3 basket
        F = SpaceLabel("F", 4)
        assert len(ADE_TYPES) == 128
        for t in ADE_TYPES:
            b = Basket((t,))
            if t.rank <= threefolds.EXCEPTIONAL_CURVE_BOUND:
                assert t1_surface(b) == l_class_surface(-16 + t.rank, F), t
                continue
            with pytest.raises(BoundViolation) as exc:
                t1_surface(b)
            assert str(exc.value) == f"basket has {t.rank} exceptional curves, bound is 19"

    def test_a_lost_edge_fails_the_hodge_route(self, monkeypatch):
        # D_4, D_5 and E_8 are pinned by test_standard_graph_shapes and the
        # golden corpus; D_7 is pinned here
        d7 = ADEType("D", 7)
        # the scissor relation at y = 0: every tree has n - e = 1, so
        # chi_0(X) = 2 = chi(O_X), as for any rational singularities
        baskets = [Basket((t,)) for t in ADE_TYPES] + [b for b, _ in enumerate_baskets(19)]
        assert all(scissor_chi_y(b, 0, standard_dynkin_graph) == 2 for b in baskets)
        # at y = -1, e_top(X) = e_orb + sum over the points of (1 - 1/r),
        # with e_orb read off the weights alone
        families = enumerate_k3_hypersurfaces(60)
        assert len(families) == 95
        for fam in families:
            f = fam.family
            orders = [q.r for q, n in quotient_points(f) for _ in range(n)]
            e_orb = orbifold_euler(f.weights.a, (f.degree,))
            e_top = e_orb + sum(1 - Fraction(1, r) for r in orders)
            assert scissor_chi_y(fam.basket, -1, standard_dynkin_graph) == e_top, str(f)

        def cut(t, euler_weight=-2):
            g = standard_dynkin_graph(t, euler_weight)
            return DynkinGraph(g.euler_weights, g.edges[:-1]) if t is d7 else g

        threefolds._tree_edges.cache_clear()
        threefolds._tube_signature.cache_clear()
        monkeypatch.setattr(threefolds, "standard_dynkin_graph", cut)
        try:
            b = Basket((d7,))
            assert t1_surface(b) != l_class_surface(sigma_k3(b), SpaceLabel("F", 4))
            assert not bsy_check(KawamataDiagram(1, 2, SurfaceModel(b))).passed
            # the link order sees it: A_6 + A_1 has |det| 7 * 2, not 4
            assert link_order(plumbing_form(cut(d7))) == 14
            assert link_order(plumbing_form(standard_dynkin_graph(d7))) == 4
            # the scissor relation sees it: the cut tree has n - e = 2, so
            # chi_0 = 2 - 2 + 1 = 1, and e_top = 24 - 9 + 1 = 16, not 17
            assert [scissor_chi_y(b, y, cut) for y in (0, -1)] == [1, 16]
            assert [scissor_chi_y(b, y, standard_dynkin_graph) for y in (0, -1)] == [2, 17]
            # a -2-weighted forest is still negative definite: the
            # topological side does not see the lost edge
            assert novikov_assembly(b).sigma_surface == sigma_k3(b)
        finally:
            threefolds._tree_edges.cache_clear()
            threefolds._tube_signature.cache_clear()

    def test_curve_bound_shared_with_sigma_and_novikov(self):
        checks = (sigma_k3, novikov_assembly, t1_surface)
        b = Basket.parse("A_19")
        assert sigma_k3(b) == 3
        assert novikov_assembly(b).sigma_surface == 3
        assert t1_surface(b) == l_class_surface(3, SpaceLabel("F", 4))
        for tokens, curves in (("A_19 A_1", 20), ("20A_1", 20), ("2A_20", 40)):
            message = f"basket has {curves} exceptional curves, bound is 19"
            for check in checks:
                with pytest.raises(BoundViolation) as exc:
                    check(Basket.parse(tokens))
                assert str(exc.value) == message, check.__name__


class TestKawamataCover:
    def test_dimensions_and_cache(self):
        for q in (1, 2, 3):
            f_space, e_space, cover = kawamata_cover(q, 3)
            assert (f_space, e_space) == (SpaceLabel("F", 6 - 2 * q), SpaceLabel("E", 2 * q))
            assert cover.degree == 3


class TestFiberFold:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from((1, 2, 3)),
        st.integers(1, 12),
        st.lists(st.fractions(max_denominator=60), min_size=2, max_size=2),
    )
    def test_equals_product_pushforward_and_division(self, q, d, coeffs):
        f_space, e_space, cover = kawamata_cover(q, d)
        gens = [Generator("[F]", f_space.dim, f_space)]
        if q == 1:
            gens.append(Generator("pt", 0, f_space))
        c = FormalClass(dict(zip(gens, coeffs)))
        space, fold = threefolds._fiber_fold(q, d)
        assert space == f_space and set(fold) == set(gens)
        composed = pushforward(cover, product_class(c, fundamental_class(e_space)))
        expected = composed.scale(Fraction(1, d))
        assert _apply_table(fold, c, "fiber").items() == expected.items()

    def test_cache_is_bounded(self):
        for degree in range(1, 1001):
            threefolds._fiber_fold(2, degree)
        info = threefolds._fiber_fold.cache_info()
        assert 24 <= info.maxsize
        assert info.currsize <= info.maxsize

    @pytest.mark.parametrize(
        "k",
        [
            KawamataDiagram(1, 5, SurfaceModel(Basket.parse("A_1 A_7 A_10"))),
            KawamataDiagram(1, 3, SurfaceModel(q=2)),
            KawamataDiagram(2, 4),
            KawamataDiagram(3, 7),
        ],
    )
    def test_bsy_check_builds_at_most_six_classes(self, monkeypatch, k):
        bsy_check(k)  # warms the fold cache
        built = []
        init = FormalClass.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FormalClass, "__init__", counting_init)
        assert bsy_check(k).passed
        assert len(built) <= 6


class TestThreefoldLClass:
    def test_q1_degree_one(self):
        k = KawamataDiagram(1, 1, SurfaceModel())
        assert threefold_lclass(k) == _expected_q1(-16, 1)

    def test_q1_fractional_coefficient(self):
        k = KawamataDiagram(1, 4, SurfaceModel(Basket.parse("A_1")))
        c = threefold_lclass(k)
        assert c.coefficient(Generator("p_*[pt_F×E]", 2, X)) == Fraction(-15, 4)

    def test_q2_and_q3_are_fundamental(self):
        for q in (2, 3):
            k = KawamataDiagram(q, 5)
            assert threefold_lclass(k).items() == [(Generator("[X]", 6, X), 1)]

    def test_coefficient_denominator_divides_cover_degree(self):
        for d in range(1, 9):
            for tokens in ("-", "A_1", "5A_1", "A_1 A_7 A_10"):
                k = KawamataDiagram(1, d, SurfaceModel(Basket.parse(tokens)))
                coeff = threefold_lclass(k).coefficient(
                    Generator("p_*[pt_F×E]", 2, X)
                )
                assert d % coeff.denominator == 0


def _expected_q1(sigma, d):
    from duvalk3.homology import FormalClass

    return FormalClass(
        {
            Generator("p_*[pt_F×E]", 2, X): Fraction(sigma, d),
            Generator("[X]", 6, X): 1,
        }
    )


class TestBsyCheck:
    def test_q1_f10_row(self):
        k = KawamataDiagram(1, 2, SurfaceModel(Basket.parse("5A_1")))
        report = bsy_check(k)
        assert report.passed
        assert report.hodge_route == _expected_q1(-11, 2)
        assert report.topological_route == _expected_q1(-11, 2)

    def test_q1_computes_fiber_sigma_once(self, monkeypatch):
        calls = []

        def counting_sigma_k3(*args):
            calls.append(args)
            return sigma_k3(*args)

        monkeypatch.setattr(threefolds, "sigma_k3", counting_sigma_k3)
        k = KawamataDiagram(1, 2, SurfaceModel(Basket.parse("5A_1")))
        assert bsy_check(k).fiber_sigma == -11
        assert len(calls) == 1

    def test_q1_with_irregular_fiber(self):
        k = KawamataDiagram(1, 3, SurfaceModel(q=1))
        report = bsy_check(k)
        assert report.passed
        assert report.hodge_route.items() == [(Generator("[X]", 6, X), 1)]

    def test_q2(self):
        report = bsy_check(KawamataDiagram(2, 4))
        assert report.passed
        assert report.hodge_route == report.topological_route
        assert report.hodge_route.items() == [(Generator("[X]", 6, X), 1)]

    def test_q3(self):
        report = bsy_check(KawamataDiagram(3, 7))
        assert report.passed
        assert report.expected.items() == [(Generator("[X]", 6, X), 1)]

    def test_report_lines_mention_verdict(self):
        report = bsy_check(KawamataDiagram(3, 1))
        assert any("PASS" in line for line in report.lines())

    def test_transfer_of_lclass_is_product_class(self):
        # the wrong-way map carries L(X) back to L(F x E)
        from duvalk3.homology import fundamental_class, product_class

        for d in (1, 2, 5):
            k = KawamataDiagram(1, d, SurfaceModel(Basket.parse("A_2 A_3")))
            f_space, e_space, cover = kawamata_cover(k.q, k.cover_degree)
            lx = threefold_lclass(k)
            lfe = product_class(
                l_class_surface(k.fiber.sigma, f_space), fundamental_class(e_space)
            )
            assert transfer(cover, lx) == lfe

    def test_pushforward_of_product_is_degree_times_lclass(self):
        # covering multiplicativity: p_* L(F x E) = d L(X), term for term
        from duvalk3.homology import fundamental_class, product_class, pushforward

        for d in (1, 3, 8):
            for tokens in ("-", "5A_1", "A_1 A_7 A_10"):
                k = KawamataDiagram(1, d, SurfaceModel(Basket.parse(tokens)))
                f_space, e_space, cover = kawamata_cover(k.q, k.cover_degree)
                lfe = product_class(
                    l_class_surface(k.fiber.sigma, f_space),
                    fundamental_class(e_space),
                )
                assert pushforward(cover, lfe) == d * threefold_lclass(k)


class TestWorkPins:
    def test_criterion_5_sweep_work(self, monkeypatch):
        # the work of the 60,608-check BSY sweep from cold caches: exact
        # counts, no clock; a change that moves one changes its pin
        for cache in (threefolds._fiber_fold, threefolds._tube_signature,
                      threefolds._tree_edges):
            cache.cache_clear()
        baskets = enumerate_baskets(FLETCHER_BOUND)
        calls = {"FormalClass": 0}
        init = FormalClass.__init__

        def counting_init(self, *args, **kwargs):
            calls["FormalClass"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(FormalClass, "__init__", counting_init)
        # _fiber_fold pushes through threefolds' binding, and each cover's
        # transfer check through homology's
        for key, module, name in (("product_class", threefolds, "product_class"),
                                  ("fold pushforward", threefolds, "pushforward"),
                                  ("transfer check pushforward", homology, "pushforward")):
            def wrapper(*args, _real=getattr(module, name), _key=key):
                calls[_key] += 1
                return _real(*args)

            calls[key] = 0
            monkeypatch.setattr(module, name, wrapper)
        ok, checked, _ = bsy_sweep(baskets)
        assert (ok, checked) == (True, 60608)
        assert calls == {
            # bsy_check's, plus the sweep's own [X] for q = 2, 3 at 8 degrees
            "FormalClass": 303_376 + 16,
            "product_class": 32,
            "fold pushforward": 32,
            "transfer check pushforward": 32,
        }
