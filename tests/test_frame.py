from functools import reduce
from operator import or_

import pytest

import gen
from oracles import (
    _literal_downset,
    naive_frame_vdash_fields,
    naive_karoubi_rows,
    naive_quasi_ideals,
    naive_union_joins,
    principal_closure,
    upsets,
    way_below_directed,
)
from coverkit import frame
from coverkit.kernel import CapExceededError, GroundSet, TheoremViolationError, iter_bits
from coverkit.relations import CoverSystem, Relation, is_lower, is_upper
from coverkit.builders import (
    FiniteLattice,
    boolean4_lattice,
    chain_lattice,
    corpus,
    diagonal_system,
    interpolation_gap_system,
    lattice_cover,
    m3_lattice,
    meet_system,
    sierpinski_space,
    topology_cover,
)
from coverkit.category import verify_duality_system
from coverkit.frame import (
    FrameModel,
    directed_way_below_matrix,
    downset_mask,
    frame_elements_json,
    frame_hasse_dot,
    frame_model,
    is_quasi_ideal,
    karoubi_envelope,
    verify_frame_laws,
    verify_open_iso,
)
from coverkit.spectrum import Spectrum, verify_representation

RNG = gen.rng_for(606)
B4 = lattice_cover(boolean4_lattice(), "boolean4")


def _mono_cut_idempotent(rng, ground):
    from coverkit.composition import cut_compose

    while True:
        sys = gen.random_strong_idempotent(rng, ground)
        return sys


# -- downset -----------------------------------------------------------------

def test_downset_of_empty_family_is_total_rows():
    for name, sys, expected in corpus():
        if not expected["is_strong_idempotent"]:
            continue
        full_row = (1 << sys.ground.num_subsets) - 1
        expect = sum(
            1 << f for f, row in enumerate(sys.rel.rows) if row == full_row
        )
        assert downset_mask(sys, 0) == expect


def test_downset_of_singleton_matches_scan():
    # literal: h belongs to the downset of {F} iff h entails every set
    # meeting F (vacuously everything when F is empty: nothing meets it)
    sys = meet_system(2)
    for f in range(4):
        got = downset_mask(sys, 1 << f)
        expect = 0
        for h in range(4):
            if all(sys.rel.holds(h, g) for g in range(4) if g & f):
                expect |= 1 << h
        assert got == expect


def test_downset_mask_matches_literal_row_scan():
    # every family at |S| = 2, random families at |S| = 3 and 4; the
    # identity holds for any relation, so random ones join the frame systems
    rng = gen.rng_for(611)
    for n, count in ((2, None), (3, 40), (4, 40)):
        ground = gen.ground(n)
        systems = [CoverSystem(ground, gen.random_relation(rng, ground)) for _ in range(4)]
        systems += [CoverSystem(ground, gen.random_monotone(rng, ground)) for _ in range(4)]
        systems += [meet_system(n), lattice_cover(chain_lattice(n))]
        if n < 4:
            systems += [gen.random_strong_idempotent(rng, ground) for _ in range(4)]
            systems += _cut_idempotent_closures(rng, n, 4)
        width = 1 << ground.num_subsets
        for sys in systems:
            fams = range(width) if count is None else [rng.randrange(width) for _ in range(count)]
            for fam in [0, width - 1, *fams]:
                assert downset_mask(sys, fam) == _literal_downset(n, sys.rel.rows, fam)


def test_downset_idempotent_and_monotone():
    for _ in range(60):
        ground = gen.ground(RNG.choice([2, 3]))
        sys = _mono_cut_idempotent(RNG, ground)
        a = RNG.randrange(1 << ground.num_subsets)
        b = a | RNG.randrange(1 << ground.num_subsets)
        da = downset_mask(sys, a)
        assert downset_mask(sys, da) == da
        assert da & ~downset_mask(sys, b) == 0
        assert is_quasi_ideal(sys, da)


def test_downset_requires_cut_idempotent():
    sysm = lattice_cover(m3_lattice())
    with pytest.raises(ValueError):
        frame_model(sysm)


def test_strong_idempotents_are_cut_idempotent_without_a_composition(monkeypatch):
    # a strong idempotent's classification settles cut-idempotence, so the
    # quasi-ideal machinery composes only monotone systems that are not
    # strong idempotents
    from coverkit.composition import cut_compose

    g2 = gen.ground(2)
    strong = []
    for code in range(1 << 16):
        rel = Relation(g2, g2, [(code >> (4 * f)) & 15 for f in range(4)])
        if CoverSystem(g2, rel).classification.is_strong_idempotent:
            strong.append(rel)
    assert len(strong) == 41
    assert all(cut_compose(rel, rel) == rel for rel in strong)
    calls = []
    monkeypatch.setattr(frame, "cut_compose",
                        lambda a, b: calls.append(a) or cut_compose(a, b))
    for rel in strong:
        frame_model(CoverSystem(g2, rel))
    assert calls == []
    gap = interpolation_gap_system()  # cut-idempotent, not divisible
    assert not gap.classification.is_strong_idempotent
    frame_model(gap)
    sysm = lattice_cover(m3_lattice())
    assert sysm.classification.is_monotone
    with pytest.raises(ValueError, match="requires a cut-idempotent relation"):
        frame_model(sysm)
    assert len(calls) == 2


# -- frame model ------------------------------------------------------------------

def test_empty_relation_has_two_quasi_ideals():
    sys = CoverSystem(gen.ground(2), Relation.empty(gen.ground(2)))
    fm = frame_model(sys)
    assert fm.elements == (0, (1 << 4) - 1)


# frame_model generates the frame as the intersection closure of the
# principal quasi-ideals; the per-family scan naive_quasi_ideals is the
# exhaustive reference, and principal_closure the earlier closure under
# binary meets and joins, which is complete on divisible systems

def _monotone_cut_idempotent_s2():
    """Every monotone cut-idempotent relation at |S| = 2, as systems."""
    from coverkit.composition import cut_compose

    g2 = gen.ground(2)
    out = []
    for code in range(1 << 16):
        rel = Relation(g2, g2, [(code >> (4 * f)) & 15 for f in range(4)])
        if is_upper(rel) and is_lower(rel) and cut_compose(rel, rel) == rel:
            out.append(CoverSystem(g2, rel))
    return out


def test_generated_equals_exhaustive_small():
    systems = _monotone_cut_idempotent_s2()
    assert len(systems) == 67
    for sys in systems:
        assert list(frame_model(sys).elements) == naive_quasi_ideals(2, list(sys.rel.rows))
    rng = gen.rng_for(617)
    systems = [gen.random_strong_idempotent(rng, gen.ground(3)) for _ in range(20)]
    systems += _cut_idempotent_closures(rng, 3, 20)
    divisible = set()
    for sys in systems:
        divisible.add(sys.classification.is_divisible)
        assert list(frame_model(sys).elements) == naive_quasi_ideals(3, list(sys.rel.rows))
    assert divisible == {True, False}


def test_generated_equals_exhaustive_boolean4():
    fm = frame_model(B4)
    assert list(fm.elements) == naive_quasi_ideals(4, list(B4.rel.rows))
    assert list(fm.elements) == principal_closure(4, list(B4.rel.rows))


def _product_lattice(a, b):
    """The product of an a-chain and a b-chain."""
    els = [f"p{i}{j}" for i in range(a) for j in range(b)]
    pairs = [(f"p{i}{j}", f"p{i + 1}{j}") for i in range(a - 1) for j in range(b)]
    pairs += [(f"p{i}{j}", f"p{i}{j + 1}") for i in range(a) for j in range(b - 1)]
    return FiniteLattice.from_pairs(els, pairs)


def test_frame_equals_principal_closure_on_divisible_systems():
    # above |S| = 4, out of the per-family scan's reach
    systems = [lattice_cover(chain_lattice(k)) for k in range(5, 9)]
    systems.append(lattice_cover(_product_lattice(2, 3)))
    for sys in systems:
        assert sys.classification.is_divisible
        want = principal_closure(sys.ground.size, list(sys.rel.rows))
        assert list(frame_model(sys).elements) == want


def test_principal_closure_within_frame_on_non_divisible():
    # on a non-divisible system the principal quasi-ideals need not
    # generate the frame under meets and joins, but what they generate
    # is quasi-ideals, and the frame holds them all
    rng = gen.rng_for(618)
    systems = [interpolation_gap_system()]
    while len(systems) < 10:
        sys, = _cut_idempotent_closures(rng, 3, 1)
        if not sys.classification.is_divisible:
            systems.append(sys)
    short = 0
    for sys in systems:
        closure = principal_closure(sys.ground.size, list(sys.rel.rows))
        elements = frame_model(sys).elements
        assert set(closure) <= set(elements)
        short += len(closure) < len(elements)
    assert short >= 1


def _frame_systems(rng):
    """Monotone cut-idempotent corpus systems at |S| <= 4, random strong
    idempotents at |S| = 2 and 3, and the boolean4, chain4 and meet4
    covers."""
    systems = []
    for name, sys, expected in corpus():
        if expected["is_monotone"] and sys.ground.size <= 4:
            try:
                frame_model(sys)
            except ValueError:
                continue
            systems.append(sys)
    systems += [gen.random_strong_idempotent(rng, gen.ground(n))
                for n in (2, 3) for _ in range(12)]
    return systems + [B4, lattice_cover(chain_lattice(4)), meet_system(4)]


def test_exhaustive_frame_equals_per_family_scan():
    for sys in _frame_systems(gen.rng_for(614)):
        fm = frame_model(sys)
        want = naive_quasi_ideals(sys.ground.size, list(sys.rel.rows))
        assert list(fm.elements) == want


def test_frame_cap(monkeypatch):
    monkeypatch.setattr(frame, "FRAME_CAP", 2)
    with pytest.raises(CapExceededError):
        frame_model(meet_system(3))


def test_generated_frame_stops_at_the_first_element_past_its_cap(monkeypatch):
    # the cap is checked as each element is found: the frame of
    # meet_system(4) has 168 elements, and a capped build compares the
    # cap with the element count once per element found, raising at the
    # count cap + 1
    class Watched(int):
        def __lt__(self, count):
            counts.append(count)
            return int.__lt__(self, count)

    counts = []
    for cap in (20, 60, 100, 167, 168):
        counts.clear()
        monkeypatch.setattr(frame, "FRAME_CAP", Watched(cap))
        if cap < 168:
            with pytest.raises(CapExceededError, match=f"exceeded cap {cap}"):
                frame_model(meet_system(4))
            assert counts == list(range(2, cap + 2))
        else:
            assert len(frame_model(meet_system(4))) == 168
            assert counts == list(range(2, 169))


# -- way-below --------------------------------------------------------------------

def test_way_below_bottom_and_order():
    for name, sys, expected in corpus():
        if not expected["is_monotone"] or not expected["is_cut_transitive"]:
            continue
        if not expected["is_strong_idempotent"] and name != "interpolation_gap":
            continue
        fm = frame_model(sys)
        # way-below refines the order, and on finite frames it coincides
        # with it (directed joins have maxima)
        for q, row in zip(fm.elements, fm.way_below_matrix):
            for r, ri in fm.index.items():
                assert bool(row >> ri & 1) == (q & ~r == 0)


def test_way_below_matches_directed_join_oracle():
    for _ in range(12):
        ground = gen.ground(2)
        sys = _mono_cut_idempotent(RNG, ground)
        fm = frame_model(sys)
        if len(fm) > 10:
            continue
        for q, row in zip(fm.elements, fm.way_below_matrix):
            for r, ri in fm.index.items():
                assert bool(row >> ri & 1) == way_below_directed(fm, q, r)


def _outcome(fn, fm):
    """``fn(fm)``, or the type of the error it raises."""
    try:
        return fn(fm)
    except (CapExceededError, TheoremViolationError) as exc:
        return type(exc)


def _oracle_matrix(fm):
    els = fm.elements
    return [
        sum(1 << r for r in range(len(els)) if way_below_directed(fm, q, els[r]))
        for q in els
    ]


def _cut_idempotent_closures(rng, n, count):
    """Monotone cut-idempotent systems, divisible or not, drawn as cut-
    transitive closures of random monotone relations."""
    out = []
    while len(out) < count:
        ground = gen.ground(n)
        sys = CoverSystem(ground, gen.cut_transitive_closure(gen.random_monotone(rng, ground)))
        try:
            frame_model(sys)
        except ValueError:
            continue
        out.append(sys)
    return out


def test_one_pass_directed_matrix_matches_per_pair_oracle():
    rng = gen.rng_for(612)
    models = []
    while len(models) < 50:
        sys = gen.random_strong_idempotent(rng, gen.ground(rng.choice([2, 3])))
        if len(frame_model(sys)) <= 10:
            models.append(frame_model(sys))
    models += [frame_model(s) for s in _cut_idempotent_closures(rng, 2, 8)]
    models.append(frame_model(interpolation_gap_system()))
    for fm in models:
        assert _outcome(directed_way_below_matrix, fm) == _outcome(_oracle_matrix, fm)
        assert directed_way_below_matrix(fm) == fm.way_below_matrix


def test_one_pass_directed_matrix_raises_where_the_oracle_raises():
    # a model holding a family that is not a quasi-ideal, without its
    # downset: the join of that singleton directed set escapes the model
    sys = meet_system(2)
    fm = frame_model(sys)
    stray = next(m for m in range(1, 1 << sys.ground.num_subsets)
                 if downset_mask(sys, m) not in (m, fm.bottom))
    model = FrameModel(sys, (fm.bottom, stray))
    assert _outcome(_oracle_matrix, model) is TheoremViolationError
    assert _outcome(directed_way_below_matrix, model) is TheoremViolationError


def test_directed_matrix_closed_form_on_twenty_element_frame():
    # beyond the reach of the literal directed-set search: the closed form
    # is the inclusion order, which is also the witness form here
    fm = frame_model(meet_system(3))
    els = fm.elements
    assert len(fm) == 20
    order = [sum(1 << r for r, b in enumerate(els) if a & ~b == 0) for a in els]
    assert directed_way_below_matrix(fm) == order == fm.way_below_matrix
    assert verify_frame_laws(fm).way_below_consistent is True


def _union_joins_literal(sys):
    """The union-join law by the literal row scan of each downset
    (``oracles._literal_downset``, once per family), over every ordered
    pair of families up to upper closure: a family and its upper closure
    have the same selections, hence the same downset, so the pairs of
    up-closed families stand for every pair of families."""
    n, rows = sys.ground.size, sys.rel.rows
    scanned = {}

    def down(fam):
        if fam not in scanned:
            scanned[fam] = _literal_downset(n, rows, fam)
        return scanned[fam]

    ups = upsets(n)
    return all(down(fa | fb) == down(down(fa) | down(fb)) for fa in ups for fb in ups)


def _gap4():
    """The 4-element interpolation gap: x entails {p, q, r}, with no
    single-target refinement."""
    ground = GroundSet.of("x", "p", "q", "r")
    rel = Relation.from_predicate(
        ground, ground, lambda f, g: bool(f & 1) and (bool(g & 1) or (g & 14) == 14))
    return CoverSystem(ground, rel, "interpolation_gap4")


def test_union_join_table_matches_per_pair_scan():
    rng = gen.rng_for(613)
    systems = [gen.random_strong_idempotent(rng, gen.ground(2)) for _ in range(34)]
    systems += [gen.random_strong_idempotent(rng, gen.ground(3)) for _ in range(6)]
    systems += _cut_idempotent_closures(rng, 2, 12) + _cut_idempotent_closures(rng, 3, 2)
    systems += [interpolation_gap_system(), _gap4(), B4, lattice_cover(chain_lattice(4))]
    seen = set()
    for sys in systems:
        want = _union_joins_literal(sys)
        seen.add(want)
        rep = verify_frame_laws(frame_model(sys))
        assert rep.finite_union_joins_hold == want
    assert seen == {True, False}


def test_union_join_theorem_matches_literal_oracle():
    # the verdict read from the principal-join law and distributivity
    # against the search over every pair of selection families, on every
    # monotone cut-idempotent relation at |S| = 2 and on random ones at
    # |S| = 3 and 4, divisible or not; every frame is distributive, so
    # the verdict is never None
    rng = gen.rng_for(620)
    systems = _monotone_cut_idempotent_s2()
    assert len(systems) == 67
    for n, count in ((3, 30), (4, 6)):
        systems += [gen.random_strong_idempotent(rng, gen.ground(n)) for _ in range(count)]
        systems += _cut_idempotent_closures(rng, n, count)
    seen = set()
    for sys in systems:
        rep = verify_frame_laws(frame_model(sys))
        assert rep.distributive
        assert rep.finite_union_joins_hold == naive_union_joins(sys) == rep.principal_joins_hold
        seen.add((sys.ground.size, sys.classification.is_divisible, rep.finite_union_joins_hold))
    # the principal-join law holds exactly on the divisible systems
    assert seen == {(n, d, d) for n in (2, 3, 4) for d in (True, False)}


def test_union_joins_fail_on_the_four_element_gap():
    # the principal-join law fails at {p, q, r}, so the union-join law
    # fails on some pair of families; checking only pairs of singleton
    # families missed it
    sys = _gap4()
    rep = verify_frame_laws(frame_model(sys))
    assert rep.principal_joins_witness == "{p,q,r}"
    assert rep.finite_union_joins_hold is False and naive_union_joins(sys) is False
    singletons = [1 << f for f in range(sys.ground.num_subsets)]
    down = lambda fam: _literal_downset(4, sys.rel.rows, fam)
    assert all(down(a | b) == down(down(a) | down(b)) for a in singletons for b in singletons)
    assert rep.violations() == []


@pytest.mark.parametrize("lattice", [chain_lattice(13), _product_lattice(3, 4)],
                         ids=["chain13", "product3x4"])
def test_frame_laws_hold_at_the_ground_cap(lattice):
    rep = verify_frame_laws(frame_model(lattice_cover(lattice)))
    assert rep.finite_union_joins_hold is True
    assert rep.violations() == []


def _structure_literal(fm):
    """Distributivity, continuity and stability by the per-pair loops on
    masks, with the model's join, meet and way-below operations."""
    els = fm.elements
    wbm = fm.way_below_matrix
    distributive = all(
        c & fm.join(a, b) == fm.join(c & a, c & b) for a in els for b in els for c in els
    )
    continuous = all(
        fm.join_union(reduce(or_, [els[r] for r in range(len(els)) if wbm[r] >> q & 1], 0))
        == els[q]
        for q in range(len(els))
    )

    def meet(a, b):
        if a & b not in fm.index:
            raise TheoremViolationError("meet of quasi-ideals escaped the model")
        return a & b

    above = [[r for r in els if wbm[fm.index[q]] >> fm.index[r] & 1] for q in els]
    stable = all(
        meet(r1, r2) in rs
        for rs in above for i, r1 in enumerate(rs) for r2 in rs[i:]
    )
    return distributive, continuous, stable


def _structure_tables(fm):
    return frame._distributive(fm), frame._continuous(fm), frame._stable(fm)


def test_frame_structure_laws_match_per_pair_loops():
    # on the models frame_model builds, and on hand-built ones that drop
    # elements or hold stray families, whose meets and joins may escape:
    # same verdicts, and the same error where the loops raise
    rng = gen.rng_for(616)
    outcomes = set()
    for sys in _frame_systems(rng)[:-1]:
        fm = frame_model(sys)
        models = [fm]
        for _ in range(4):
            kept = [m for m in fm.elements if rng.random() < 0.7] or [fm.top]
            strays = [rng.randrange(1 << sys.ground.num_subsets) for _ in range(rng.randrange(3))]
            models.append(FrameModel(sys, set(kept + strays)))
        for model in models:
            want = _outcome(_structure_literal, model)
            assert _outcome(_structure_tables, model) == want
            outcomes.add(want if isinstance(want, type) else all(want))
    assert outcomes == {True, False, TheoremViolationError}


def test_way_below_stability():
    for name, sys, expected in corpus():
        if not expected["is_strong_idempotent"]:
            continue
        fm = frame_model(sys)
        for row in fm.way_below_matrix:
            below = list(iter_bits(row))
            for r1 in below:
                for r2 in below:
                    assert row >> fm.meet_table[r1][r2] & 1


# -- frame laws -----------------------------------------------------------------------

def test_vdash_fields_match_per_pair_loop():
    # the derived relation against containment of principal meets in
    # principal joins, and the relation against way-below, on random
    # divisible monotone cut-idempotent systems at |S| <= 3 and on the
    # chain cover at |S| = 8; and on each system's two-element model of
    # its bottom and top, where the principal meets and joins are mostly
    # not elements and so way below nothing
    from coverkit.axioms import derive_vdash

    rng = gen.rng_for(619)
    systems = [gen.random_strong_idempotent(rng, gen.ground(n))
               for n in (1, 2, 3) for _ in range(8)]
    systems += [sys for sys in _cut_idempotent_closures(rng, 3, 30)
                if sys.classification.is_divisible]
    systems.append(lattice_cover(chain_lattice(8)))
    seen = set()
    for sys in systems:
        fm = frame_model(sys)
        for model in (fm, FrameModel(sys, {fm.bottom, fm.top})):
            rep = verify_frame_laws(model)
            got = (rep.vdash_matches_principal_order, rep.entails_matches_way_below)
            assert got == naive_frame_vdash_fields(model, derive_vdash(sys).rows)
            seen.add(got)
    assert seen == {(True, True), (True, False)}


def test_frame_laws_on_corpus():
    for name, sys, expected in corpus():
        if not expected["is_monotone"]:
            continue
        try:
            fm = frame_model(sys)
        except ValueError:
            continue
        rep = verify_frame_laws(fm)
        assert rep.violations() == [], (name, rep.to_dict())


def test_frame_meets_are_intersections():
    for name, sys, expected in corpus():
        if not expected["is_strong_idempotent"]:
            continue
        fm = frame_model(sys)
        for a in fm.elements:
            for b in fm.elements:
                m = fm.elements[fm.meet_table[fm.index[a]][fm.index[b]]]
                assert m == a & b
                # meets also equal the pairwise-union operation on
                # quasi-ideals
                wedge_mask = 0
                for x in iter_bits(a):
                    for y in iter_bits(b):
                        wedge_mask |= 1 << (x | y)
                assert wedge_mask == m


def test_non_divisible_breaks_principal_joins_with_witness():
    rep = verify_frame_laws(frame_model(interpolation_gap_system()))
    assert not rep.divisible and not rep.principal_joins_hold
    assert rep.principal_joins_witness == "{p,q}"
    assert rep.violations() == []


def test_non_cover_breaks_way_below_form():
    rep = verify_frame_laws(frame_model(diagonal_system(2)))
    assert rep.divisible and not rep.cover
    assert rep.entails_matches_way_below is False
    assert rep.violations() == []


# -- open-set isomorphism ---------------------------------------------------------------

def test_open_iso_on_strong_corpus():
    for name, sys, expected in corpus():
        if not expected["is_strong_idempotent"]:
            continue
        rep = verify_open_iso(sys)
        assert rep.passed(), name
        assert rep.collapsed_top == rep.empty_set_tight


def test_open_iso_boolean4_counts():
    rep = verify_open_iso(B4)
    assert rep.frame_size == 4 and rep.opens_size == 4


def test_open_iso_requires_strong_idempotent():
    with pytest.raises(ValueError):
        verify_open_iso(lattice_cover(m3_lattice()))


# -- Karoubi envelope ---------------------------------------------------------------------

def test_karoubi_envelope_on_corpus():
    for name, sys, expected in corpus():
        if not expected["is_monotone"]:
            continue
        try:
            env = karoubi_envelope(sys)
        except ValueError:
            continue
        assert env.violations() == [], name
        assert env.target_is_cover


def test_karoubi_rows_equal_per_pair_loops():
    rng = gen.rng_for(615)
    systems = [s for s in _frame_systems(rng) if len(frame_model(s)) <= 8]
    systems += _cut_idempotent_closures(rng, 2, 6) + [interpolation_gap_system()]
    sizes = set()
    for sys in systems:
        env = karoubi_envelope(sys)
        sizes.add(len(env.frame))
        assert (list(env.target.rel.rows), list(env.sq.rows), list(env.sq_bar.rows)) \
            == tuple(map(list, naive_karoubi_rows(env.frame)))
    assert len(sizes) >= 4


def test_karoubi_envelope_of_non_divisible():
    env = karoubi_envelope(interpolation_gap_system())
    assert env.violations() == []
    assert all(env.equations.values())


def test_karoubi_principal_column_for_empty_target():
    sys = B4
    col = sys.rel.cols()[0]
    assert is_quasi_ideal(sys, col)  # the empty-target polar is a quasi-ideal


def test_karoubi_cap():
    # the frame is the envelope's ground set, so the ground-set cap of 13
    # is the envelope's only limit
    assert len(frame_model(meet_system(3))) == 20
    with pytest.raises(CapExceededError, match="size 20 exceeds cap 13"):
        karoubi_envelope(meet_system(3))
    env = karoubi_envelope(lattice_cover(chain_lattice(13)))
    assert len(env.frame) == 13 and env.violations() == []


# -- exports -------------------------------------------------------------------------------

def test_frame_exports():
    fm = frame_model(B4)
    dot = frame_hasse_dot(fm)
    assert dot.startswith("graph") and dot == frame_hasse_dot(fm)
    js = frame_elements_json(fm)
    assert len(js) == 4 and all(isinstance(q, list) for q in js)


# -- work per system ----------------------------------------------------------------------

def test_frame_model_and_spectrum_built_once_per_system(monkeypatch):
    builds = []
    build = frame._build_frame_model
    monkeypatch.setattr(frame, "_build_frame_model",
                        lambda sys: builds.append(sys) or build(sys))
    spectra = []
    init = Spectrum.__init__
    monkeypatch.setattr(Spectrum, "__init__",
                        lambda self, sys: spectra.append(sys) or init(self, sys))
    for sys in (meet_system(2), topology_cover(sierpinski_space())):
        assert sys.ground.size == 2
        fm = frame_model(sys)
        verify_open_iso(sys)
        karoubi_envelope(sys)
        verify_representation(sys)
        verify_duality_system(sys)
        assert frame_model(sys) is fm
        assert sum(s is sys for s in builds) == 1
        assert sum(s is sys for s in spectra) == 1
