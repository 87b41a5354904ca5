import pytest

import gen
import oracles
from coverkit.kernel import GroundMismatchError
from coverkit import builders
from coverkit.relations import Relation
from coverkit.builders import (
    boolean4_lattice,
    chain_lattice,
    corpus,
    lattice_cover,
    meet_system,
    sierpinski_space,
    topology_cover,
)
from coverkit.axioms import derive_vdash
from coverkit.category import (
    CoverMorphism,
    SpaceMap,
    ab_functor,
    angle_inverse_morphism,
    angle_morphism,
    compose_morphisms,
    cover_morphism_failure,
    derive_proper,
    is_cover_morphism,
    karoubi_failure,
    lambda_map,
    sp_functor,
    spectral_square_holds,
    verify_duality_space,
    verify_duality_system,
)
from coverkit.frame import karoubi_envelope
from coverkit.spectrum import FiniteSpace, Spectrum, recovery

RNG = gen.rng_for(707)

SIER = sierpinski_space()
D2 = FiniteSpace.from_named_sets(
    ("u", "v"), [[], ["u"], ["v"], ["u", "v"]], [["u"], ["v"]])
CHAIN3S = FiniteSpace.from_named_sets(
    ("u", "v", "w"),
    [[], ["w"], ["v", "w"], ["u", "v", "w"]],
    [["w"], ["v", "w"], ["u", "v", "w"]])

COVERS = [sys for _, sys, exp in corpus() if exp["is_cover"]]


# -- space maps ----------------------------------------------------------------

def test_space_map_validation():
    with pytest.raises(ValueError):
        SpaceMap(SIER, SIER, {0: 0})  # domain {x0} is not open
    with pytest.raises(ValueError):
        SpaceMap(SIER, D2, {0: 0, 1: 1})  # preimage of {u} is {x0}: not open


def test_space_map_composition():
    f = gen.constant_map(D2, SIER, 1)
    g = gen.inclusion_map(SIER, 0b10)
    fg = f.compose(g)
    assert fg.mapping == {0: 1, 1: 1}


# -- cover morphisms ---------------------------------------------------------------

def test_identity_is_cover_morphism():
    for sys in COVERS:
        m = CoverMorphism.identity(sys)
        assert is_cover_morphism(m)
        assert karoubi_failure(m) is None


def test_empty_relation_usually_not_morphism():
    sys = lattice_cover(boolean4_lattice())
    m = CoverMorphism(sys, sys, Relation.empty(sys.ground))
    assert not is_cover_morphism(m)


def test_random_monotone_rarely_karoubi():
    sys = lattice_cover(boolean4_lattice())
    failures = 0
    for _ in range(40):
        rel = gen.random_monotone(RNG, sys.ground)
        m = CoverMorphism(sys, sys, rel)
        if cover_morphism_failure(m) is not None and karoubi_failure(m) is not None:
            failures += 1
    assert failures > 10


def test_compose_with_identity_unchanged():
    for sys in COVERS:
        m = CoverMorphism.identity(sys)
        assert compose_morphisms(m, m).rel == sys.rel


def test_compose_requires_matching_systems():
    a = CoverMorphism.identity(meet_system(2))
    b = CoverMorphism.identity(lattice_cover(boolean4_lattice()))
    with pytest.raises(GroundMismatchError):
        compose_morphisms(a, b)


def test_ab_functor_total_maps_are_morphisms():
    maps = [
        SpaceMap.identity(SIER),
        SpaceMap.identity(D2),
        gen.constant_map(D2, SIER, 1),
        gen.constant_map(SIER, D2, 0),
        SpaceMap(CHAIN3S, SIER, {0: 0, 1: 0, 2: 1}),
    ]
    for phi in maps:
        m = ab_functor(phi)
        assert is_cover_morphism(m)
        assert spectral_square_holds(m)


def test_ab_functor_partial_maps_abstract_but_are_not_morphisms():
    # finite spaces are compact, so strictly partial maps cannot satisfy
    # the morphism equations; their spectral squares still commute
    for phi in (gen.inclusion_map(SIER, 0b10), gen.inclusion_map(D2, 0b01)):
        m = ab_functor(phi)
        assert cover_morphism_failure(m) is not None
        assert spectral_square_holds(m)


def test_ab_identity_is_compact_cover_relation():
    m = ab_functor(SpaceMap.identity(SIER))
    assert m.rel == SIER.cover_system.rel


def test_ab_functoriality():
    phi = gen.constant_map(D2, SIER, 1)
    psi = SpaceMap(SIER, CHAIN3S, {0: 0, 1: 2})
    m_phi, m_psi = ab_functor(phi), ab_functor(psi)
    m_comp = ab_functor(phi.compose(psi))
    assert compose_morphisms(m_phi, m_psi).rel == m_comp.rel


def test_morphism_composition_associative():
    ms = [CoverMorphism.identity(SIER.cover_system),
          ab_functor(SpaceMap.identity(SIER)),
          ab_functor(gen.constant_map(SIER, SIER, 1))]
    for a in ms:
        for b in ms:
            for c in ms:
                lhs = compose_morphisms(compose_morphisms(a, b), c)
                rhs = compose_morphisms(a, compose_morphisms(b, c))
                assert lhs.rel == rhs.rel


# -- spectral functor ------------------------------------------------------------------

def test_sp_identity_morphism_is_identity_map():
    for sys in COVERS:
        phi = sp_functor(CoverMorphism.identity(sys))
        spec = Spectrum(sys)
        assert phi == SpaceMap.identity(spec.space)


def test_sp_functoriality():
    m1 = ab_functor(gen.constant_map(D2, SIER, 1))
    m2 = ab_functor(SpaceMap.identity(SIER))
    p1, p2 = sp_functor(m1), sp_functor(m2)
    pc = sp_functor(compose_morphisms(m1, m2))
    assert p1.compose(p2) == pc


def test_sp_rejects_invalid_morphism():
    sys = lattice_cover(boolean4_lattice())
    with pytest.raises(ValueError):
        sp_functor(CoverMorphism(sys, sys, Relation.empty(sys.ground)))


# -- properness ---------------------------------------------------------------------------

def test_identity_proper_with_derived_comparison():
    for sys in COVERS:
        sq, proper = derive_proper(CoverMorphism.identity(sys))
        assert sq == derive_vdash(sys)
        assert list(sq.rows) == oracles.naive_vdash(sys.ground.size, sys.rel.rows)
        assert proper


def test_ab_of_total_maps_proper():
    m = ab_functor(gen.constant_map(D2, SIER, 1))
    _, proper = derive_proper(m)
    assert proper


def test_proper_morphisms_compose_to_proper():
    m1 = ab_functor(SpaceMap(SIER, CHAIN3S, {0: 0, 1: 2}))
    m2 = ab_functor(SpaceMap(CHAIN3S, SIER, {0: 0, 1: 0, 2: 1}))
    for a, b in ((m1, m2), (m2, m1)):
        _, pa = derive_proper(a)
        _, pb = derive_proper(b)
        if pa and pb:
            _, pc = derive_proper(compose_morphisms(a, b))
            assert pc


# -- duality -------------------------------------------------------------------------------

def test_duality_system_side_corpus():
    for name, sys, expected in corpus():
        if not expected["is_cover"]:
            continue
        rep = verify_duality_system(sys, test_morphisms=[CoverMorphism.identity(sys)])
        assert rep.passed(), (name, rep.to_dict())


def test_duality_space_side_catalogue():
    maps = [
        SpaceMap.identity(SIER),
        gen.constant_map(D2, SIER, 1),
        gen.inclusion_map(SIER, 0b10),
        SpaceMap(CHAIN3S, SIER, {0: 0, 1: 0, 2: 1}),
    ]
    for space in (SIER, D2, CHAIN3S):
        rep = verify_duality_space(space, test_maps=maps)
        assert rep.passed(), rep.to_dict()


def test_recovery_and_space_duality_share_one_cover(monkeypatch):
    covers = []
    build = builders.topology_cover

    def counted(space, *a, **kw):
        sys = build(space, *a, **kw)
        if space is target:
            covers.append(sys)
        return sys

    monkeypatch.setattr(builders, "topology_cover", counted)
    spectra = []
    init = Spectrum.__init__
    monkeypatch.setattr(Spectrum, "__init__",
                        lambda self, sys: spectra.append(sys) or init(self, sys))
    # fresh objects: the cover is cached on the space itself
    for target in (sierpinski_space(), FiniteSpace(CHAIN3S.points, CHAIN3S.opens,
                                                   CHAIN3S.subbasis)):
        covers.clear()
        recovery(target)
        rep = verify_duality_space(target, [SpaceMap.identity(target)])
        assert rep.passed()
        assert len(covers) == 1 and target.cover_system is covers[0]
        assert sum(s is covers[0] for s in spectra) == 1


def test_angle_isomorphism_roundtrips():
    for name, sys, expected in corpus():
        if not expected["is_cover"]:
            continue
        from coverkit.spectrum import is_prime, is_round

        if is_round(sys, 0) and is_prime(sys, 0):
            continue  # documented empty-tight corner: not in the image of spaces
        fwd = angle_morphism(sys)
        bwd = angle_inverse_morphism(sys)
        assert compose_morphisms(bwd, fwd).rel == sys.rel
        assert compose_morphisms(fwd, bwd).rel == fwd.source.rel


def test_angle_inverse_morphism_equals_the_per_bit_loop():
    # the column gather against the loop it replaced, on every topology
    # cover of the T0 catalogue up to 4 points and chain covers to |S| = 8
    from coverkit.category import _subbasis_preimages

    systems = [topology_cover(space) for k in range(1, 5)
               for space in gen.all_t0_spaces(k)]
    systems += [lattice_cover(chain_lattice(k)) for k in range(1, 9)]
    for sys in systems:
        want = oracles.angle_inverse_rows(sys.rel.rows, _subbasis_preimages(sys))
        assert list(angle_inverse_morphism(sys).rel.rows) == want, sys


def test_double_dual_spaces_recovers_space():
    from coverkit.spectrum import homeomorphic

    for k in (1, 2, 3):
        for space in gen.all_t0_spaces(k):
            spec = Spectrum(topology_cover(space))
            assert homeomorphic(space, spec.space)


def test_lambda_map_bijective_on_catalogue():
    for space in gen.all_t0_spaces(3):
        lam = lambda_map(space)
        assert lam.is_total() and lam.is_injective()
        assert set(lam.mapping.values()) == set(range(len(lam.target.points)))


def test_karoubi_envelope_witnesses_are_karoubi_morphisms():
    for name, sys, expected in corpus():
        if not expected["is_monotone"]:
            continue
        try:
            env = karoubi_envelope(sys)
        except ValueError:
            continue
        m_sq = CoverMorphism(env.target, sys, env.sq)
        m_bar = CoverMorphism(sys, env.target, env.sq_bar)
        assert karoubi_failure(m_sq) is None, name
        assert karoubi_failure(m_bar) is None, name
        assert compose_morphisms(m_bar, m_sq).rel == sys.rel
        assert compose_morphisms(m_sq, m_bar).rel == env.target.rel
