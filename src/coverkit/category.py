"""Cover morphisms, the two functors between systems and spaces, and the
natural isomorphisms certifying the duality.

Direction bookkeeping (the error-prone part, so spelled out once): a
morphism holds a relation between F(source ground) and F(target ground),
where `source` and `target` name the induced map of spectra, which runs
Spectrum(source) -> Spectrum(target).  On the space side a map runs
source space -> target space and abstracts to a morphism whose relation
pairs source-subbasis subsets with target-subbasis subsets.  Composition
of morphisms is cut-composition of the relations in the same order as
the induced maps compose.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import (
    GroundMismatchError,
    Report,
    TheoremViolationError,
    joins_of,
    meets_of,
    tables,
)
from .relations import CoverSystem, Relation, is_lower, is_upper, one_exists
from .axioms import derived_relation
from .composition import cut_compose
from .spectrum import (
    FiniteSpace,
    compact_rows,
    empty_is_tight,
    is_prime,
    is_round,
    spectrum,
    square_failures,
    subset_label,
)


# ---------------------------------------------------------------------------
# partial continuous maps between finite spaces
# ---------------------------------------------------------------------------

class SpaceMap:
    """A partial function between finite spaces with open domain whose
    preimages of opens are open."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source: FiniteSpace, target: FiniteSpace, mapping: dict):
        self.source = source
        self.target = target
        self.mapping = dict(sorted(mapping.items()))
        dom = 0
        for i in self.mapping:
            dom |= 1 << i
        if dom not in set(source.opens):
            raise ValueError("domain of a space map must be open")
        for s in target.subbasis:
            if self.preimage(s) not in set(source.opens):
                raise ValueError("preimages of subbasic opens must be open")

    def preimage(self, mask: int) -> int:
        out = 0
        for i, j in self.mapping.items():
            if mask >> j & 1:
                out |= 1 << i
        return out

    def compose(self, then: "SpaceMap") -> "SpaceMap":
        """The map `then after self` (self first, then `then`)."""
        if self.target != then.source:
            raise GroundMismatchError("maps do not compose")
        mapping = {
            i: then.mapping[j]
            for i, j in self.mapping.items()
            if j in then.mapping
        }
        return SpaceMap(self.source, then.target, mapping)

    @staticmethod
    def identity(space: FiniteSpace) -> "SpaceMap":
        return SpaceMap(space, space, {i: i for i in range(len(space.points))})

    def is_total(self) -> bool:
        return len(self.mapping) == len(self.source.points)

    def is_injective(self) -> bool:
        vals = list(self.mapping.values())
        return len(set(vals)) == len(vals)

    def __eq__(self, other):
        return (isinstance(other, SpaceMap) and self.source == other.source
                and self.target == other.target and self.mapping == other.mapping)

    def __hash__(self):
        return hash((self.source, self.target, tuple(self.mapping.items())))

    def __repr__(self):
        return f"SpaceMap({len(self.mapping)}/{len(self.source.points)} pts -> {len(self.target.points)} pts)"


# ---------------------------------------------------------------------------
# cover morphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverMorphism:
    """A relation between the finite subsets of two cover systems.

    ``rel`` runs from F(source ground) to F(target ground); the induced
    spectrum map runs Spectrum(source) -> Spectrum(target).
    """

    source: CoverSystem
    target: CoverSystem
    rel: Relation

    def __post_init__(self):
        if self.rel.left != self.source.ground or self.rel.right != self.target.ground:
            raise GroundMismatchError("morphism relation has wrong coordinate grounds")

    @staticmethod
    def identity(sys: CoverSystem) -> "CoverMorphism":
        return CoverMorphism(sys, sys, sys.rel)

    def __repr__(self):
        return f"CoverMorphism({self.source!r} -> {self.target!r})"


def is_cover_morphism(m: CoverMorphism) -> bool:
    return cover_morphism_failure(m) is None


def cover_morphism_failure(m: CoverMorphism):
    """None when both defining equations hold, else a reason string.

    A relation satisfying the equations is automatically monotone, so a
    non-monotone candidate fails without any composition.
    """
    rel = m.rel
    if not (is_upper(rel) and is_lower(rel)):
        return "relation is not monotone"
    if cut_compose(rel, m.target.rel) != rel:
        return "composing with the target relation changes the morphism"
    strengthened = one_exists(rel)
    if cut_compose(m.source.rel, strengthened) != rel:
        return "the source relation does not reconstruct the morphism"
    return None


def karoubi_failure(m: CoverMorphism):
    """The weaker absorption equations: composing with either system's
    relation leaves the morphism unchanged."""
    rel = m.rel
    if not is_lower(rel):
        return "relation is not lower"
    if cut_compose(rel, m.target.rel) != rel:
        return "target-side absorption fails"
    if cut_compose(m.source.rel, rel) != rel:
        return "source-side absorption fails"
    return None


def compose_morphisms(m1: CoverMorphism, m2: CoverMorphism) -> CoverMorphism:
    """Cut-compose two morphisms; spectra compose in the same order."""
    if m1.target != m2.source:
        raise GroundMismatchError("morphisms do not compose")
    return CoverMorphism(m1.source, m2.target, cut_compose(m1.rel, m2.rel))


def derive_proper(m: CoverMorphism):
    """The derived comparison relation of a morphism
    (``axioms.derived_relation`` of its relation over its source's) and
    the properness test: the target relation must factor through it."""
    sqsubseteq = derived_relation(m.rel, m.source.rel)
    proper = m.target.rel.issubset(cut_compose(sqsubseteq, m.rel))
    return sqsubseteq, proper


# ---------------------------------------------------------------------------
# the abstraction functor: spaces -> systems
# ---------------------------------------------------------------------------

def ab_functor(phi: SpaceMap) -> CoverMorphism:
    """Abstract a partial continuous map to the morphism relating F to G
    when the intersection of F is compactly contained in the preimage of
    the union of G.  The morphism runs between the spaces' own cover
    systems (``FiniteSpace.cover_system``).

    The preimage of a union is the union of the preimages, so the
    preimage of each subbasic open is taken once; the rows are
    ``compact_rows`` of the intersections in those preimage unions.
    """
    source_sys = phi.source.cover_system
    target_sys = phi.target.cover_system
    inters = meets_of(phi.source.full_mask, phi.source.subbasis)
    pre_unions = joins_of([phi.preimage(s) for s in phi.target.subbasis])
    rows = compact_rows(phi.source, inters, pre_unions)
    return CoverMorphism(source_sys, target_sys,
                         Relation(source_sys.ground, target_sys.ground, rows))


# ---------------------------------------------------------------------------
# the spectral functor: systems -> spaces
# ---------------------------------------------------------------------------

def sp_functor(m: CoverMorphism, check: bool = True) -> SpaceMap:
    """The induced map of spectra: a tight set goes to the elements whose
    singletons are reached from inside it; the domain is where that image
    is non-empty.

    With ``check`` set, the input must satisfy the cover-morphism
    equations and the spectral characterisation is asserted.  Pass
    ``check=False`` to transport relations that only induce a continuous
    map, e.g. abstractions of strictly partial space maps, which on
    finite (hence compact) spaces never satisfy the morphism equations.
    """
    if check:
        failure = cover_morphism_failure(m)
        if failure is not None:
            raise ValueError(f"not a cover morphism: {failure}")
    spec_s = spectrum(m.source)
    spec_t = spectrum(m.target)
    tt = tables(m.source.ground.size)
    cols = m.rel.cols()
    single_cols = [cols[1 << i] for i in range(m.target.ground.size)]
    mapping = {}
    for i, tcode in enumerate(spec_s.tights):
        subs = tt.subsets[tcode]
        image = 0
        for r, col in enumerate(single_cols):
            if subs & col:
                image |= 1 << r
        if image == 0:
            continue
        if image not in spec_t.index:
            if not (is_round(m.target, image) and is_prime(m.target, image)):
                raise TheoremViolationError(
                    f"image {subset_label(m.target.ground, image)} of a tight set is not tight"
                )
            raise TheoremViolationError("tight image missing from the spectrum")
        mapping[i] = spec_t.index[image]
    phi = SpaceMap(spec_s.space, spec_t.space, mapping)
    if check and not spectral_square_holds(m, phi):
        raise TheoremViolationError(
            "morphism entailment does not match compact containment of spectra"
        )
    return phi


def spectral_square_holds(m: CoverMorphism, phi: SpaceMap | None = None) -> bool:
    """Morphism entailment must coincide with compact containment of the
    basic open in the preimage of the union open.  The empty-premise row
    is exempt from the converse when the empty set is tight in the source
    system (its excluded point is the only separator there): one
    ``spectrum.square_failures``."""
    if phi is None:
        phi = sp_functor(m, check=False)
    spec_s = spectrum(m.source)
    basic = meets_of(spec_s.full_mask, spec_s.point_open)
    pre_uppers = joins_of([phi.preimage(o) for o in spectrum(m.target).point_open])
    return square_failures(spec_s.space, m.rel.rows, basic, pre_uppers,
                           empty_is_tight(m.source)) == (None, None)


# ---------------------------------------------------------------------------
# natural isomorphisms and duality verification
# ---------------------------------------------------------------------------

def _subbasis_preimages(sys: CoverSystem) -> list[int]:
    """For each subset code over the spectrum's dedup'd subbasis, the
    ground subset of the least element realising each selected
    subbasic open."""
    spec = spectrum(sys)
    reps = [spec.point_open.index(s) for s in spec.space.subbasis]
    return joins_of([1 << e for e in reps])


def angle_well_defined(sys: CoverSystem):
    """Whether ground subsets with identical basic opens entail alike."""
    spec = spectrum(sys)
    basic = meets_of(spec.full_mask, spec.point_open)
    seen = {}
    for f, key in enumerate(basic):
        if key in seen and sys.rel.rows[f] != sys.rel.rows[seen[key]]:
            return False, (seen[key], f)
        seen.setdefault(key, f)
    return True, None


def angle_morphism(sys: CoverSystem) -> CoverMorphism:
    """The comparison morphism from the re-abstracted spectrum system back
    to the original system: image families entail exactly as preimages do.

    Only well defined for cover relations; the construction checks this.
    """
    ok, wit = angle_well_defined(sys)
    if not ok:
        raise ValueError("comparison relation is not well defined for this system")
    ab_sys = spectrum(sys).space.cover_system
    pres = _subbasis_preimages(sys)
    rows = [sys.rel.rows[pre] for pre in pres]
    return CoverMorphism(ab_sys, sys,
                         Relation(ab_sys.ground, sys.ground, rows))


def angle_inverse_morphism(sys: CoverSystem) -> CoverMorphism:
    """The morphism from the system to its re-abstracted spectrum system:
    F relates to the subbasis subfamily u iff F entails u's preimage.
    So it is the transpose of the relation whose row u is the column of
    that preimage, gathered from the system's columns."""
    ab_sys = spectrum(sys).space.cover_system
    cols = sys.rel.cols()
    gathered = Relation(ab_sys.ground, sys.ground,
                        [cols[pre] for pre in _subbasis_preimages(sys)])
    return CoverMorphism(sys, ab_sys, gathered.transpose())


def lambda_map(space: FiniteSpace) -> SpaceMap:
    """The point map of a space into the spectrum of its cover system:
    a point goes to its subbasis profile (``FiniteSpace.profiles``)."""
    spec = spectrum(space.cover_system)
    mapping = {x: spec.index[code] for x, code in enumerate(space.profiles)}
    return SpaceMap(space, spec.space, mapping)


@dataclass
class DualityReport(Report):
    side: str
    lambda_iso: bool | None
    zigzag_space: bool | None
    angle_well_defined: bool | None
    angle_is_morphism: bool | None
    angle_iso: bool | None
    zigzag_system: bool | None
    naturality: dict
    empty_set_tight: bool = False

    def violations(self) -> list[str]:
        out = []
        for name in ("lambda_iso", "zigzag_space", "angle_well_defined",
                     "angle_is_morphism", "angle_iso", "zigzag_system"):
            val = getattr(self, name)
            if val is False:
                out.append(f"{name} failed")
        for key, ok in self.naturality.items():
            if not ok:
                out.append(f"naturality square {key} failed")
        return out


def verify_duality_system(sys: CoverSystem, test_morphisms=()) -> DualityReport:
    """The system-side duality data: the comparison morphism is a genuine
    isomorphism whose round trips are the identity morphisms, the spectrum
    zigzag collapses to the identity map, and the comparison square
    commutes for the supplied test morphisms.

    The comparison direction is only defined for cover relations, and
    systems whose empty set is tight cannot arise as subbasis
    abstractions of finite spaces (every finite space is compactly
    covered by its subbasis, so the abstraction always relates the empty
    premise to the full family); non-covers and empty-tight covers are
    recorded as out of scope rather than checked.
    """
    empty_tight = empty_is_tight(sys)
    if empty_tight or not sys.classification.is_cover:
        return DualityReport(
            side="system",
            lambda_iso=None,
            zigzag_space=None,
            angle_well_defined=None,
            angle_is_morphism=None,
            angle_iso=None,
            zigzag_system=None,
            naturality={},
            empty_set_tight=empty_tight,
        )
    ok, _ = angle_well_defined(sys)
    angle_ok = None
    angle_iso = None
    zig = None
    naturality = {}
    if ok:
        fwd = angle_morphism(sys)
        bwd = angle_inverse_morphism(sys)
        angle_ok = is_cover_morphism(fwd)
        round_to_sys = compose_morphisms(bwd, fwd)
        round_to_ab = compose_morphisms(fwd, bwd)
        angle_iso = (round_to_sys.rel == sys.rel
                     and round_to_ab.rel == fwd.source.rel)
        phi = sp_functor(fwd, check=False)
        space = spectrum(sys).space
        lam = lambda_map(space)
        zig = lam.compose(phi) == SpaceMap.identity(space)
        for k, m in enumerate(test_morphisms):
            lhs = compose_morphisms(angle_morphism(m.source), m)
            ab_of_sp = ab_functor(sp_functor(m))
            rhs = compose_morphisms(ab_of_sp, angle_morphism(m.target))
            naturality[f"angle_square_{k}"] = lhs.rel == rhs.rel
    return DualityReport(
        side="system",
        lambda_iso=None,
        zigzag_space=None,
        angle_well_defined=ok,
        angle_is_morphism=angle_ok,
        angle_iso=angle_iso,
        zigzag_system=zig,
        naturality=naturality,
    )


def verify_duality_space(space: FiniteSpace, test_maps=()) -> DualityReport:
    """The space-side duality data: the point map is an isomorphism, the
    abstraction zigzag reproduces the compact cover relation, and the
    point-map square commutes for the supplied test maps.  Every space
    involved contributes its cached ``cover_system``, which ``recovery``
    shares."""
    from .spectrum import recovery

    rec = recovery(space)
    sys = space.cover_system
    lam = lambda_map(space)
    lam_iso = (rec.passed() and rec.surjective and lam.is_total()
               and lam.is_injective())

    m_lam = ab_functor(lam)
    m_angle = angle_morphism(sys)
    zig = compose_morphisms(m_lam, m_angle).rel == sys.rel

    naturality = {}
    for k, phi in enumerate(test_maps):
        phi_spec = sp_functor(ab_functor(phi), check=False)
        lhs = phi.compose(lambda_map(phi.target))
        rhs = lambda_map(phi.source).compose(phi_spec)
        naturality[f"lambda_square_{k}"] = lhs == rhs
    return DualityReport(
        side="space",
        lambda_iso=lam_iso,
        zigzag_space=zig,
        angle_well_defined=None,
        angle_is_morphism=None,
        angle_iso=None,
        zigzag_system=None,
        naturality=naturality,
    )
