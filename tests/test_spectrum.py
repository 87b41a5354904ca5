import logging
import re
from functools import reduce
from itertools import combinations
from operator import and_, or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from oracles import (
    naive_covermask, naive_patch_opens, naive_prime, naive_round, naive_selections,
    naive_tight_sets,
)
from coverkit.kernel import CapExceededError, Family, GroundSet, iter_bits, joins_of
from coverkit.relations import CoverSystem, Relation
from coverkit.axioms import derive_vdash
from coverkit.builders import (
    anchored_meet_system,
    boolean4_lattice,
    chain_lattice,
    corpus,
    empty_system,
    lattice_cover,
    m3_lattice,
    perp_cover,
    sierpinski_space,
    TransitiveRelation,
)
from coverkit.spectrum import (
    SUBBASIS_COVER_CAP,
    FiniteSpace,
    Spectrum,
    birkhoff_stone,
    birkhoff_stone_families,
    compact_contained,
    compact_rows,
    empty_is_tight,
    escaped_name,
    homeomorphic,
    is_prime,
    is_round,
    is_very_dense,
    patch_closure,
    patch_opens,
    prime_to_tight,
    recovery,
    saturation,
    space_properties,
    specialization_dot,
    spectrum,
    subset_label,
    tight_codes,
    tight_flags,
    verify_representation,
)

RNG = gen.rng_for(505)
B4 = lattice_cover(boolean4_lattice(), "boolean4")
CHAIN3 = lattice_cover(chain_lattice(3), "chain3")


def tight_names(sys):
    """The names of each non-empty tight set, in code order."""
    return [tuple(sys.ground.names[i] for i in iter_bits(c)) for c in tight_codes(sys)]


# -- tight flags -----------------------------------------------------------------

def test_boolean4_tight_flags():
    g = B4.ground
    assert tight_flags(B4, g.subset(["a", "1"])).tight
    assert not tight_flags(B4, g.subset(["1"])).prime is False or True
    # {1} alone is round but not prime: 1 entails {a, b} which misses it
    flags = tight_flags(B4, g.subset(["1"]))
    assert flags.round and not flags.prime


def test_empty_set_tightness_literal():
    # the empty set is tight exactly when nothing is entailed from it
    for _ in range(40):
        sys = CoverSystem(gen.ground(2), gen.random_monotone(RNG, gen.ground(2)))
        expect = sys.rel.rows[0] == 0
        assert (is_round(sys, 0) and is_prime(sys, 0)) == expect


def test_empty_is_tight_is_the_literal_pair():
    # every relation at |S| = 2; at |S| = 3-4 random relations, each also
    # with its empty-premise row cleared, so both verdicts occur
    def literal(sys):
        return is_round(sys, 0) and is_prime(sys, 0)

    g2 = gen.ground(2)
    for code in range(1 << 16):
        sys = CoverSystem(g2, Relation(g2, g2, [(code >> (4 * f)) & 15 for f in range(4)]))
        assert empty_is_tight(sys) == literal(sys)
    rng = gen.rng_for(506)
    for n in (3, 4):
        g = gen.ground(n)
        for _ in range(100):
            rows = list(gen.random_relation(rng, g).rows)
            for sys in (CoverSystem(g, Relation(g, g, rows)),
                        CoverSystem(g, Relation(g, g, [0] + rows[1:]))):
                assert empty_is_tight(sys) == literal(sys)


def test_scott_relations_round_everywhere():
    for _ in range(30):
        sys = gen.random_scott(RNG, gen.ground(3))
        for t in range(8):
            assert is_round(sys, t)


def test_tight_flags_match_naive():
    for _ in range(60):
        g = gen.ground(3)
        sys = CoverSystem(g, gen.random_monotone(RNG, g))
        for t in range(8):
            assert is_round(sys, t) == naive_round(3, sys.rel.rows, t)
            assert is_prime(sys, t) == naive_prime(3, sys.rel.rows, t)


# -- tight sets -------------------------------------------------------------------

def test_boolean4_tight_sets():
    assert tight_names(B4) == [("a", "1"), ("b", "1")]


def test_chain3_tight_sets():
    assert tight_names(CHAIN3) == [("1",), ("m", "1")]


def test_empty_relation_no_tight_sets():
    sys = CoverSystem(gen.ground(2), Relation.empty(gen.ground(2)))
    assert tight_names(sys) == []


def test_tight_sets_match_naive():
    for _ in range(40):
        g = gen.ground(3)
        sys = CoverSystem(g, gen.random_monotone(RNG, g))
        assert list(tight_codes(sys)) == naive_tight_sets(3, sys.rel.rows)


def test_tight_codes_match_naive_on_every_relation_at_two():
    g = gen.ground(2)
    for m in range(1 << 16):
        rows = [m >> 4 * f & 15 for f in range(4)]
        sys = CoverSystem(g, Relation(g, g, rows))
        assert list(tight_codes(sys)) == naive_tight_sets(2, rows), rows


@pytest.mark.parametrize("n", [3, 4])
def test_tight_codes_match_naive_on_random_relations(n):
    g = gen.ground(n)
    for k in range(60):
        rel = gen.random_relation(RNG, g) if k % 2 else gen.random_monotone(RNG, g)
        sys = CoverSystem(g, rel)
        assert list(tight_codes(sys)) == naive_tight_sets(n, rel.rows)


def test_tight_empty_set_logged_once(caplog):
    sys = CoverSystem(gen.ground(2), Relation.empty(gen.ground(2)))
    with caplog.at_level(logging.INFO, logger="coverkit.spectrum"):
        assert tight_codes(sys) == ()
    notes = [r for r in caplog.records if "empty subset is tight" in r.getMessage()]
    assert len(notes) == 1


# -- spectrum ---------------------------------------------------------------------

def test_constructor_and_representation_share_one_spectrum(caplog, monkeypatch):
    # the constructor keeps what it built on a system without a spectrum,
    # so the representation check neither rebuilds nor warns again
    builds = []
    inner = Spectrum.__init__

    def counted(self, sys):
        builds.append(sys)
        inner(self, sys)

    monkeypatch.setattr(Spectrum, "__init__", counted)
    sys = lattice_cover(m3_lattice(), "m3")
    with caplog.at_level(logging.WARNING, logger="coverkit.spectrum"):
        spec = Spectrum(sys)
        verify_representation(sys)
    assert not sys.classification.is_strong_idempotent
    assert builds == [sys]
    warnings = [r for r in caplog.records if "non-strong-idempotent" in r.getMessage()]
    assert len(warnings) == 1
    assert spectrum(sys) is spec
    # a later constructor call still builds, and leaves the kept one in place
    assert Spectrum(sys) is not spec and spectrum(sys) is spec
    assert len(builds) == 2



def test_topology_cover_with_defaults_is_the_spaces_cover_system(monkeypatch):
    # topology_cover(space) fills the space's empty cover cache, so the
    # space-side checks after it classify and build the spectrum of the
    # same system: one classification and one spectrum in all (two of
    # each when the cache held a second, equal system)
    from coverkit import axioms
    from coverkit.builders import topology_cover
    from coverkit.category import verify_duality_space

    classified, built = [], []
    classify_inner, spectrum_inner = axioms._compute_classification, Spectrum.__init__
    monkeypatch.setattr(axioms, "_compute_classification",
                        lambda sys: classified.append(sys) or classify_inner(sys))
    monkeypatch.setattr(Spectrum, "__init__",
                        lambda self, sys: built.append(sys) or spectrum_inner(self, sys))
    space = sierpinski_space()
    sys = topology_cover(space)
    assert space.cover_system is sys
    verify_representation(sys)
    assert recovery(space).passed()
    assert verify_duality_space(space).passed()
    assert classified == [sys] and built == [sys]
    # any other subbasis or a name builds a system the cache does not keep
    assert topology_cover(space, name="named") is not sys
    assert topology_cover(space, subbasis=space.subbasis) is not sys
    assert space.cover_system is sys


def test_chain3_spectrum_is_sierpinski():
    assert homeomorphic(Spectrum(CHAIN3).space, sierpinski_space())


def test_boolean4_spectrum_is_discrete_two_points():
    d2 = FiniteSpace.from_named_sets(
        ("u", "v"), [[], ["u"], ["v"], ["u", "v"]], [["u"], ["v"]])
    assert homeomorphic(Spectrum(B4).space, d2)


def test_perp_spectrum_matches_rounded_filters():
    # two incomparable reflexive branches: the rounded filters are the two
    # principal up-sets, and the spectrum is two discrete points
    tr = TransitiveRelation.from_pairs(("p", "q"), [("p", "p"), ("q", "q")])
    sys = perp_cover(tr)
    spec = Spectrum(sys)
    assert tight_names(sys) == [("p",), ("q",)]
    d2 = FiniteSpace.from_named_sets(
        ("u", "v"), [[], ["u"], ["v"], ["u", "v"]], [["u"], ["v"]])
    assert homeomorphic(spec.space, d2)


def test_perp_chain_with_dense_bottom_degenerates():
    # a common reflexive bottom makes every element dense below the rest,
    # so the only tight set is the whole ground
    tr = TransitiveRelation.from_pairs(
        ("p", "q", "r"),
        [("p", "p"), ("p", "q"), ("q", "q"), ("q", "r"), ("r", "r"), ("p", "r")],
    )
    sys = perp_cover(tr)
    assert tight_names(sys) == [("p", "q", "r")]


def test_basic_opens_intersect_as_unions():
    for name, sys, _ in corpus():
        spec = Spectrum(sys)
        size = sys.ground.num_subsets
        for f in range(size):
            for g in range(size):
                assert spec.basic_open(f) & spec.basic_open(g) == spec.basic_open(f | g)


# -- compact containment and properties ----------------------------------------------

def test_compact_containment_trivia():
    sp = sierpinski_space()
    assert compact_contained(sp, 0, 0)
    for o in sp.opens:
        assert compact_contained(sp, o, o)


def test_compact_containment_equals_subset():
    for space in gen.all_t0_spaces(3):
        for o in space.opens:
            for n2 in space.opens:
                assert compact_contained(space, o, n2) == (o & ~n2 == 0)


def test_compact_rows_match_per_pair_definition():
    for k in (1, 2, 3):
        for space in gen.all_t0_spaces(k):
            for sub in gen.subbasis_choices(space):
                opens = list(sub.opens)
                smaller = opens + opens[::-1]
                larger = opens[::-1] + opens[1:]
                rows = compact_rows(sub, smaller, larger)
                assert len(rows) == len(smaller)
                for row, s in zip(rows, smaller):
                    assert row == sum(1 << g for g, n2 in enumerate(larger)
                                      if compact_contained(sub, s, n2))


def test_covermask_matches_naive_on_every_subbasis_choice():
    for k in (1, 2, 3, 4):
        for space in gen.all_t0_spaces(k):
            for sub in gen.subbasis_choices(space):
                for o in sub.opens:
                    assert sub.covermask(o) == naive_covermask(sub.subbasis, o)


def test_compact_rows_reject_non_open_regions():
    sp = sierpinski_space()  # opens {}, {x1}, {x0, x1}; {x0} is not open
    with pytest.raises(ValueError):
        compact_contained(sp, 0b01, 0b11)
    for smaller, larger in (([0b01], [0b11]), ([0b11], [0b10, 0b01])):
        with pytest.raises(ValueError):
            compact_rows(sp, smaller, larger)


def _literal_space_fault(npoints, opens, subbasis):
    """The constructor's message for opens and a subbasis on ``npoints``
    points, by the checks in order: the empty set and the whole space,
    closure of every pair of opens, the subbasis open, covering, and
    generating (unions of non-empty intersections of members); None if
    every check passes."""
    full = (1 << npoints) - 1
    ops = set(opens)
    if 0 not in ops or full not in ops:
        return "opens must contain the empty set and the whole space"
    if any(a | b not in ops or a & b not in ops for a in ops for b in ops):
        return "opens must be closed under union and intersection"
    if not set(subbasis) <= ops:
        return "subbasis members must be open"
    if reduce(or_, subbasis, 0) != full:
        return "subbasis must cover the space"
    inters = {reduce(and_, part) for r in range(1, len(subbasis) + 1)
              for part in combinations(subbasis, r)}
    unions = {reduce(or_, part, 0) for r in range(len(inters) + 1)
              for part in combinations(sorted(inters), r)}
    return None if unions == ops else "subbasis does not generate the stated opens"


def test_space_constructor_names_the_first_fault():
    # every opens family and subbasis drawn from the masks on two points
    # and one mask past them (on no point: the checks are bitwise), the
    # whole check sequence run whatever the generated opens are
    masks = range(5)
    seen = set()
    for pick in range(1 << len(masks)):
        opens = tuple(m for m in masks if pick >> m & 1)
        for sub in range(1 << len(masks)):
            subbasis = tuple(m for m in masks if sub >> m & 1)
            want = _literal_space_fault(2, opens, subbasis)
            try:
                FiniteSpace(("x", "y"), opens, subbasis)
            except ValueError as exc:
                got = str(exc)
            else:
                got = None
            assert got == want, (opens, subbasis)
            seen.add(want)
    assert len(seen) == 6


def test_from_subbasis_generates_once_and_names_the_same_fault(monkeypatch):
    # every subbasis on at most three points: the opens are generated
    # once, and the space or the message is the one a direct construction
    # on the literally generated opens gives
    import coverkit.spectrum as spectrum_module

    calls = []
    inner = spectrum_module.generated_opens

    def counted(npoints, subbasis):
        calls.append(subbasis)
        return inner(npoints, subbasis)

    monkeypatch.setattr(spectrum_module, "generated_opens", counted)
    faults = set()
    for npoints in range(4):
        points = tuple(f"p{i}" for i in range(npoints))
        for pick in range(1 << (1 << npoints)):
            sub = [m for m in range(1 << npoints) if pick >> m & 1]
            inters = {reduce(and_, part) for r in range(1, len(sub) + 1)
                      for part in combinations(sub, r)}
            opens = sorted({reduce(or_, part, 0) for r in range(len(inters) + 1)
                            for part in combinations(sorted(inters), r)})
            want = _literal_space_fault(npoints, opens, sub)
            del calls[:]
            try:
                space = FiniteSpace.from_subbasis(points, sub[::-1] + sub)
            except ValueError as exc:
                got, space = str(exc), None
            else:
                got = None
            assert (got, len(calls)) == (want, 1), (npoints, sub)
            if space is not None:
                assert space == FiniteSpace(points, tuple(opens), tuple(sub))
            faults.add(want)
    assert faults == {None, "opens must contain the empty set and the whole space"}
    with pytest.raises(ValueError, match="point labels must be distinct"):
        FiniteSpace.from_subbasis(("x", "x"), [1, 3])


def test_subbasis_cover_cap_refuses_only_the_covering_tables():
    # 17 nested opens on 16 points, all in the subbasis: one past
    # SUBBASIS_COVER_CAP, which the covering tables refuse on first use
    chain = tuple((1 << k) - 1 for k in range(17))
    space = FiniteSpace(tuple(f"p{i}" for i in range(16)), chain, chain)
    assert len(space.subbasis) == SUBBASIS_COVER_CAP + 1
    # the specialization order needs no covering table: y >= x here
    assert sum(space.converges(x, y) for x in range(16) for y in range(16)) == 16 * 17 // 2
    for use in (lambda: space.covermask(0), lambda: compact_contained(space, 0, 0),
                lambda: space.properties):
        with pytest.raises(CapExceededError):
            use()


def test_t0_catalogue_properties_all_true():
    for k in (1, 2, 3):
        for space in gen.all_t0_spaces(k):
            props = space_properties(space)
            assert props.t0 and props.sober and props.core_compact
            assert props.core_coherent and props.stably_locally_compact


def test_indiscrete_two_points_not_sober():
    space = FiniteSpace(("u", "v"), (0, 3), (3,))
    props = space_properties(space)
    assert not props.t0 and not props.sober


def test_core_coherent_matches_naive_triple_loop():
    for k in (3, 4):
        for space in gen.all_t0_spaces(k):
            cm = {o: naive_covermask(space.subbasis, o) for o in space.opens}
            naive = all(
                not (cm[q] & ~cm[p] == 0 and cm[r] & ~cm[p] == 0)
                or cm[q & r] & ~cm[p] == 0
                for p in space.opens for q in space.opens for r in space.opens
            )
            assert space_properties(space).core_coherent == naive


# -- representation -------------------------------------------------------------------

def test_representation_on_corpus():
    for name, sys, expected in corpus():
        if not expected["is_strong_idempotent"]:
            continue
        rep = verify_representation(sys)
        assert rep.violations() == [], name
        assert rep.compact_implies_entail == expected["is_cover"], name


def test_non_cover_exercises_backward_failure():
    rep = verify_representation(anchored_meet_system(2))
    assert not rep.compact_implies_entail
    assert "compact_implies_entail" in rep.witnesses


def _per_pair_witnesses(sys):
    """The representation witnesses by a per-pair scan: basic opens
    through ``Spectrum.basic_open``, upper opens (the points meeting G)
    as unions of point opens, compact containment through
    ``compact_contained``, witnesses in (F, G) order."""
    spec = Spectrum(sys)
    upper = joins_of(spec.point_open)
    vdash = derive_vdash(sys)
    size = sys.ground.num_subsets
    empty_tight = is_round(sys, 0) and is_prime(sys, 0)
    wit = {}

    def note(key, f, g):
        wit.setdefault(key, {"F": subset_label(sys.ground, f),
                             "G": subset_label(sys.ground, g)})

    if empty_tight and vdash.rows[0]:
        low = vdash.rows[0] & -vdash.rows[0]
        wit["empty_corner"] = {"G": subset_label(sys.ground, low.bit_length() - 1)}
    for f in range(size):
        if empty_tight and f == 0:
            continue
        for g in range(size):
            contained = spec.basic_open(f) & ~upper[g] == 0
            if (vdash.rows[f] >> g & 1) != contained:
                note("derived_matches_subset", f, g)
    for f in range(size):
        for g in range(size):
            compact = compact_contained(spec.space, spec.basic_open(f), upper[g])
            entails = sys.rel.rows[f] >> g & 1
            if entails and not compact:
                note("entail_implies_compact", f, g)
            if compact and not entails and not (empty_tight and f == 0):
                note("compact_implies_entail", f, g)
    return wit


def test_representation_witnesses_match_per_pair_scan():
    rng = gen.rng_for(909)
    systems = [lattice_cover(m3_lattice()), anchored_meet_system(2), empty_system(2),
               lattice_cover(boolean4_lattice())]
    for ground in (gen.ground(2), gen.ground(3)):
        for _ in range(8):
            systems.append(CoverSystem(ground, gen.random_monotone(rng, ground)))
            systems.append(CoverSystem(ground, gen.random_relation(rng, ground)))
    kinds = set()
    for sys in systems:
        got = verify_representation(sys).to_dict()
        want = _per_pair_witnesses(sys)
        assert list(got["witnesses"].items()) == list(want.items()), sys
        for key in ("derived_matches_subset", "entail_implies_compact",
                    "compact_implies_entail"):
            assert got[key] == (key not in want)
        kinds.update(want)
        kinds.add(got["empty_set_tight"])
    assert {"derived_matches_subset", "compact_implies_entail", True, False} <= kinds
    assert not lattice_cover(m3_lattice()).classification.is_strong_idempotent


# -- prime shrinking ------------------------------------------------------------------

def test_prime_to_tight_fixes_tight_sets():
    for name, sys, expected in corpus():
        if not expected["is_strong_idempotent"]:
            continue
        for t in tight_codes(sys):
            assert prime_to_tight(sys, t).bits == t


def test_prime_to_tight_shrinks_whole_ground():
    full = B4.ground.num_subsets - 1
    if is_prime(B4, full):
        got = prime_to_tight(B4, full)
        assert tight_flags(B4, got).tight


def test_prime_to_tight_identity_on_scott_primes():
    for _ in range(30):
        sys = gen.random_scott(RNG, gen.ground(3))
        for p in range(8):
            if is_prime(sys, p):
                assert prime_to_tight(sys, p).bits == p


def test_prime_to_tight_rejects_non_prime():
    with pytest.raises(ValueError):
        prime_to_tight(B4, B4.ground.subset(["0"]))


# -- separating tight extensions -------------------------------------------------------

def test_boolean4_separation():
    g = B4.ground
    got = birkhoff_stone(B4, g.subset(["1"]), g.subset(["a"]))
    assert got is not None and got.names() == ("b", "1")


def test_separation_absent_when_entailed():
    g = B4.ground
    assert birkhoff_stone(B4, g.subset(["a", "b"]), g.subset(["0"])) is None


def test_separation_random_instances():
    done = 0
    for _ in range(300):
        n = RNG.choice([2, 3, 4])
        ground = gen.ground(n)
        sys = gen.random_strong_idempotent(RNG, ground)
        r = RNG.randrange(1 << n)
        while not is_round(sys, r):
            r &= r - 1 if r else 0
            if not is_round(sys, r):
                r = 0
        q = RNG.randrange(1 << n)
        got = birkhoff_stone(sys, r, q)
        if got is not None:
            assert got.bits & r == r and got.bits & q == 0
            assert is_round(sys, got.bits) and is_prime(sys, got.bits)
            done += 1
    assert done > 50


def test_family_separation_reduces_to_single():
    g = B4.ground
    for r, q in ((0, 1), (1 << 3, 1 << 1), (0, 0)):
        if not is_round(B4, r):
            continue
        fam = Family(g, 0)
        for i in iter_bits(q):
            fam = Family(g, fam.mask | (1 << (1 << i)))
        single = birkhoff_stone(B4, r, q)
        família = birkhoff_stone_families(B4, r, fam)
        assert (single is None) == (família is None)
        if single is not None:
            assert família.bits & r == r and família.bits & q == 0


def test_family_separation_hypothesis_matches_subfamily_search():
    # the hypothesis quantifies over every subfamily; the full family is
    # the optimal witness, checked here against the literal enumeration
    rng = gen.rng_for(515)
    held = failed = 0
    for k in range(60):
        n = 2 + k % 2
        sys = gen.random_strong_idempotent(rng, gen.ground(n))
        rows = sys.rel.rows
        rounds = [c for c in range(1 << n) if is_round(sys, c)]
        for _ in range(4):
            r = rng.choice(rounds)
            members = sorted({rng.randrange(1 << n) for _ in range(rng.randint(1, 4))})
            literal = not any(
                all(rows[f] >> g & 1 for g in naive_selections(n, list(sub)))
                for f in range(1 << n) if f & r == f
                for size in range(len(members) + 1)
                for sub in combinations(members, size)
            )
            got = birkhoff_stone_families(sys, r, Family(sys.ground, sum(1 << m for m in members)))
            assert (got is not None) == literal
            held += literal
            failed += not literal
    assert held > 20 and failed > 20


def test_family_separation_empty_family():
    g = B4.ground
    got = birkhoff_stone_families(B4, 0, Family(g, 0))
    assert got is not None  # any tight set avoids no constraints


# -- recovery ---------------------------------------------------------------------------

def test_recovery_sierpinski_and_chain():
    for space in (sierpinski_space(),):
        rep = recovery(space)
        assert rep.passed() and rep.surjective


def test_recovery_catalogue_small():
    for k in (1, 2, 3):
        for space in gen.all_t0_spaces(k):
            for sub in gen.subbasis_choices(space):
                rep = recovery(sub)
                assert rep.passed() and rep.surjective and rep.very_dense


def test_recovery_rejects_non_t0():
    with pytest.raises(ValueError):
        recovery(FiniteSpace(("u", "v"), (0, 3), (3,)))


# -- space utilities ----------------------------------------------------------------------

def test_discrete_saturation_identity_and_patch_discrete():
    d2 = FiniteSpace.from_named_sets(
        ("u", "v"), [[], ["u"], ["v"], ["u", "v"]], [["u"], ["v"]])
    for y in range(4):
        assert saturation(d2, y) == y
        assert patch_closure(d2, y) == y


def test_patch_opens_match_the_pairwise_closure():
    # every topology on up to 3 points, T0 or not, and every T0 one on 4
    spaces = list(gen.all_t0_spaces(4))
    for k in (1, 2, 3):
        full = (1 << k) - 1
        for bits in range(1 << (1 << k)):
            opens = [o for o in range(1 << k) if bits >> o & 1]
            family = set(opens)
            if {0, full} <= family and all(
                    a | b in family and a & b in family for a in opens for b in opens):
                points = tuple(f"p{i}" for i in range(k))
                spaces.append(FiniteSpace(points, tuple(opens), tuple(opens[1:])))
    for space in spaces:
        saturated = [saturation(space, s) for s in range(1 << len(space.points))]
        assert patch_opens(space) == naive_patch_opens(
            space.opens, saturated, space.full_mask)


def test_sierpinski_saturation_of_closed_point():
    sp = sierpinski_space()
    # every point converges into an open around the closed point x0 only
    # via the whole space, so saturating {x0} swallows everything
    assert saturation(sp, 0b01) == 0b11
    assert saturation(sp, 0b10) == 0b10


def test_whole_space_very_dense():
    for space in gen.all_t0_spaces(2):
        assert is_very_dense(space, space.full_mask)


def test_specialization_pairs_sierpinski():
    space = sierpinski_space()
    got = {(space.points[x], space.points[y])
           for x in range(2) for y in range(2) if space.converges(x, y)}
    assert got == {("x0", "x0"), ("x1", "x1"), ("x1", "x0")}


def _split_label(label):
    """The names of a non-empty subset's label, read back: split at the
    commas outside braces that no backslash escapes; a name that opens
    with a brace is braced and taken as it is, "\\0" is the empty name,
    and any other is unescaped."""
    names, cur, depth = [], "", 0
    chars = iter(label[1:-1])
    for c in chars:
        if c == "\\":
            cur += c + next(chars)
        elif c == "," and depth == 0:
            names.append(cur)
            cur = ""
        else:
            depth += (c == "{") - (c == "}")
            cur += c
    names.append(cur)
    return [n if n.startswith("{") else "" if n == "\\0" else re.sub(r"\\(.)", r"\1", n)
            for n in names]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.text("a0,\\{}", max_size=5), min_size=1, max_size=4, unique=True))
def test_subset_labels_split_back_into_their_names(names):
    ground = GroundSet(tuple(names))
    labels = [subset_label(ground, code) for code in range(1 << len(names))]
    assert len(set(labels)) == len(labels)
    for code in range(1, 1 << len(names)):
        assert _split_label(labels[code]) == [names[i] for i in iter_bits(code)]
    for name in names:
        if name and (not set(name) & set(",\\{}")
                     or name in ("{}", "{a,b}", "{{a},{a\\,b}}")):
            assert escaped_name(name) == name
    assert escaped_name("") == "\\0"


def test_dot_exports_deterministic():
    spec = Spectrum(CHAIN3)
    a = specialization_dot(spec.space)
    b = specialization_dot(spec.space)
    assert a == b and a.startswith("digraph")
