"""Tight subsets, the tight spectrum, and finite topological spaces.

A subset T of the ground set is *round* when each of its elements is
entailed by a finite part of T, and *prime* when any entailment from
inside T lands back in T.  The non-empty subsets that are both form the
points of the spectrum, topologised by the sets T_p = {T : p in T}.

Finite spaces are represented explicitly: a point list, the full family
of open sets (as point bitmasks) and a distinguished subbasis generating
them.  Compact containment is evaluated by its covering definition
(every subbasic cover of the larger set admits a finite subcover of the
smaller one) rather than by the subset shortcut it reduces to on finite
spaces; the reduction is verified in the tests instead of assumed here.
The covering definition is read pointwise: a subfamily of the subbasis
covers an open iff it meets the subbasis profile of each of its points,
so each space builds the covering masks of all its opens in one pass of
whole-mask operations (``FiniteSpace.covermask``).  Every caller that
needs compact containment for many pairs (the topology cover, the
representation check, the abstraction functor and the spectral square)
decides it through one matrix, ``compact_rows``; ``compact_contained`` is
the single-pair form.  Each space builds its topology cover once
(``FiniteSpace.cover_system``, or the first ``topology_cover(space)``
with the defaults, which fills that cache), and recovery and the duality
checks share it.  The tables these read (subbasis profiles, the meet
basis, the covering masks) are likewise kept on the space that owns
them, not in any process-wide memo.

Spectrum points and subbasis members are named by their subsets' labels
(``subset_label``), which escape names so that distinct subsets get
distinct labels, and the DOT exports quote every id with ``dot_id``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import permutations

from .kernel import (
    CapExceededError,
    Family,
    FinSubset,
    GroundSet,
    Report,
    TheoremViolationError,
    _codes_with,
    iter_bits,
    joins_of,
    meeting_rows,
    meets_of,
    memo,
    selections_mask,
    supersets_mask,
    tables,
)
from .relations import CoverSystem

log = logging.getLogger(__name__)

_set = object.__setattr__

PATCH_POINT_CAP = 14
SUBBASIS_COVER_CAP = 16


# ---------------------------------------------------------------------------
# finite spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteSpace:
    """A finite point set with explicit opens and a generating subbasis.

    ``opens`` and ``subbasis`` hold point bitmasks.  The constructor
    checks that the subbasis generates the opens, and names the first
    fault of opens that it does not generate: the lattice closure of the
    opens, then a subbasis member that is not open, then a subbasis that
    does not cover the space.
    What the space determines is a ``kernel.memo`` attribute, outside
    its fields: equality and hashing ignore it, and an equal space
    computes its own, the covering masks of all opens (``covermask``)
    among them.
    """

    points: tuple[str, ...]
    opens: tuple[int, ...]
    subbasis: tuple[int, ...]

    def __post_init__(self):
        self._check(None)

    def _check(self, generated):
        """The constructor's checks, ValueError naming the first fault;
        ``generated`` holds the generated opens if the caller has them."""
        if len(set(self.points)) != len(self.points):
            raise ValueError("point labels must be distinct")
        full = (1 << len(self.points)) - 1
        opens = set(self.opens)
        if tuple(sorted(opens)) != self.opens:
            raise ValueError("opens must be sorted and duplicate-free")
        if tuple(sorted(set(self.subbasis))) != self.subbasis:
            raise ValueError("subbasis must be sorted and duplicate-free")
        if 0 not in opens or full not in opens:
            raise ValueError("opens must contain the empty set and the whole space")
        cover = 0
        for s in self.subbasis:
            cover |= s
        if cover == full:
            if generated is None:
                generated = generated_opens(len(self.points), self.subbasis)
            if opens == generated:
                # generated opens are closed under union and intersection and
                # hold every subbasis member: the checks below only name a fault
                return
        for a in opens:
            for b in opens:
                if a | b not in opens or a & b not in opens:
                    raise ValueError("opens must be closed under union and intersection")
        if not set(self.subbasis) <= opens:
            raise ValueError("subbasis members must be open")
        if cover != full:
            raise ValueError("subbasis must cover the space")
        raise ValueError("subbasis does not generate the stated opens")

    @staticmethod
    def from_subbasis(points, subbasis_masks) -> "FiniteSpace":
        """The space of the opens that the subbasis generates, generated
        once: the constructor's checks (``_check``) run with them at hand."""
        points = tuple(points)
        sub = tuple(sorted(set(subbasis_masks)))
        generated = generated_opens(len(points), sub)
        space = object.__new__(FiniteSpace)
        _set(space, "points", points)
        _set(space, "opens", tuple(sorted(generated)))
        _set(space, "subbasis", sub)
        space._check(generated)
        return space

    @staticmethod
    def from_named_sets(points, opens_names, subbasis_names) -> "FiniteSpace":
        points = tuple(points)
        index = {p: i for i, p in enumerate(points)}

        def mask(names):
            m = 0
            for nm in names:
                m |= 1 << index[nm]
            return m

        opens = tuple(sorted({mask(o) for o in opens_names}))
        sub = tuple(sorted({mask(o) for o in subbasis_names}))
        return FiniteSpace(points, opens, sub)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.points)) - 1

    @memo
    def cover_system(self) -> CoverSystem:
        """``topology_cover(self)``, built on first use and kept on this
        object (outside its fields, so equality and hashing ignore it):
        recovery, the point map and the duality checks share one cover
        system, with its classification and spectrum.  An earlier
        ``topology_cover(self)`` with the defaults has already filled it."""
        from .builders import topology_cover

        return topology_cover(self)

    @memo
    def properties(self) -> SpaceProperties:
        """``space_properties(self)``, checked on first use and kept on this
        object as ``cover_system`` is: the spectrum report, the
        representation check, recovery and the duality checks share it."""
        return space_properties(self)

    @memo
    def profiles(self) -> tuple[int, ...]:
        """Each point's subbasis profile: bit j of entry x is set iff
        point x lies in subbasis member j."""
        return tuple(
            sum(1 << j for j, s in enumerate(self.subbasis) if s >> x & 1)
            for x in range(len(self.points))
        )

    def converges(self, x: int, y: int) -> bool:
        """Point x converges to y (y is in the closure of x): every
        subbasic open around y contains x."""
        prof = self.profiles
        return prof[y] & ~prof[x] == 0

    @memo
    def meet_basis(self) -> list[int]:
        """The distinct intersections of non-empty subfamilies of the
        subbasis, ascending: a meet-closed basis of the opens."""
        return sorted(set(meets_of(self.full_mask, self.subbasis)[1:]))

    @memo
    def _covermasks(self) -> dict:
        """Every open, mapped to its ``covermask``, all in one pass."""
        k = len(self.subbasis)
        if k > SUBBASIS_COVER_CAP:
            raise CapExceededError("subbasis too large for covering computations")
        # the subfamilies whose union holds each point: those with a member
        # around it, the OR of a periodic mask per member
        holding = [0] * len(self.points)
        for j, s in enumerate(self.subbasis):
            with_j = _codes_with(j, 1 << k)
            for x in iter_bits(s):
                holding[x] |= with_j
        full, masks = (1 << (1 << k)) - 1, {}
        for o in self.opens:
            m = full
            for x in iter_bits(o):
                m &= holding[x]
            masks[o] = m
        return masks

    def covermask(self, region: int) -> int:
        """Bitmask of the subfamilies of the subbasis (bit c for the
        members j with bit j of c set) whose union covers the open
        ``region``.  Read pointwise: a subfamily's union holds point x iff
        the subfamily meets x's subbasis profile, so the mask is the AND,
        over the points of ``region``, of the subfamilies meeting each
        profile, with no table of the 2**k unions of k members.  Every
        open's mask is built on the first call.  Raises ``ValueError`` if
        ``region`` is not open, and ``CapExceededError`` past
        ``SUBBASIS_COVER_CAP`` members."""
        try:
            return self._covermasks[region]
        except KeyError:
            raise ValueError("compact containment applies to open sets") from None

    def point_names(self, mask: int) -> list[str]:
        return [self.points[i] for i in iter_bits(mask)]

    def __repr__(self):
        return f"FiniteSpace({len(self.points)} points, {len(self.opens)} opens)"


def _unions(gens) -> set[int]:
    """Every union of members of ``gens``, the empty union 0 included."""
    out = {0}
    for g in gens:
        out |= {a | g for a in out}
    return out


def generated_opens(npoints: int, subbasis) -> frozenset[int]:
    """All unions of non-empty finite intersections of subbasis members."""
    return frozenset(_unions(set(meets_of((1 << npoints) - 1, subbasis)[1:])))


def compact_contained(space: FiniteSpace, smaller: int, larger: int) -> bool:
    """Covering-definition compact containment between two open sets."""
    return space.covermask(larger) & ~space.covermask(smaller) == 0


def compact_rows(space: FiniteSpace, smaller, larger) -> list[int]:
    """Compact containment of every open in ``smaller`` in every open in
    ``larger``: bit g of row f is set iff ``smaller[f]`` is compactly
    contained in ``larger[g]``, by the covering definition of
    ``compact_contained``: no subfamily covering the larger open misses
    the smaller one.  The rows are the complement of the
    ``kernel.meeting_rows`` of the covering masks of ``larger`` and the
    complements of those of ``smaller``, each mask taken once per
    distinct open.  Raises ``ValueError`` if a region is not open.
    """
    covermask = space.covermask
    covers = {o: covermask(o) for o in {*smaller, *larger}}
    full = (1 << (1 << len(space.subbasis))) - 1
    every = (1 << len(larger)) - 1
    missed = meeting_rows([full ^ covers[s] for s in smaller], map(covers.__getitem__, larger))
    return [every ^ row for row in missed]


def saturation(space: FiniteSpace, region: int) -> int:
    """Intersection of all opens containing the region: the points x
    that converge to some y in it (``FiniteSpace.converges``)."""
    prof = space.profiles
    return sum(1 << x for x, px in enumerate(prof)
               if any(prof[y] & ~px == 0 for y in iter_bits(region)))


def saturated_sets(space: FiniteSpace) -> list[int]:
    """All saturated subsets: unions of point saturations."""
    n = len(space.points)
    if n > PATCH_POINT_CAP:
        raise CapExceededError("too many points for saturated-set enumeration")
    return sorted(_unions({saturation(space, 1 << y) for y in range(n)}))


def patch_opens(space: FiniteSpace) -> list[int]:
    """Opens of the patch topology: generated by the opens together with
    complements of (compact) saturated sets; finitely, every saturated
    set is compact.  The lattice they generate is the unions of their
    finite intersections, each family closed one generator at a time."""
    full = space.full_mask
    meets = {full}
    for g in set(space.opens) | {full & ~s for s in saturated_sets(space)}:
        meets |= {m & g for m in meets}
    return sorted(_unions(meets))


def patch_closure(space: FiniteSpace, region: int) -> int:
    out = space.full_mask
    for u in patch_opens(space):
        if u & region == 0:
            out &= ~u
    return out & space.full_mask


def is_very_dense(space: FiniteSpace, region: int) -> bool:
    """Dense in the patch topology and saturation-dense simultaneously."""
    full = space.full_mask
    return saturation(space, region) == full and patch_closure(space, region) == full


@dataclass(frozen=True)
class SpaceProperties:
    t0: bool
    sober: bool
    core_compact: bool
    core_coherent: bool
    stably_locally_compact: bool

    def to_dict(self):
        return dict(vars(self))


def space_properties(space: FiniteSpace) -> SpaceProperties:
    """Literal checks of the separation/compactness properties.

    Bit j of ``inside[i]`` is set iff open j is compactly inside open i,
    by the covering definition.  Core compactness: each open is the union
    of its row.  Core coherence: what is compactly inside q and inside r
    is compactly inside q & r, row q AND row r within row(q & r).
    """
    n = len(space.points)
    full = space.full_mask
    prof = space.profiles
    t0 = len(set(prof)) == n

    # soberness: every irreducible closed set has a unique generic point.
    # Irreducibility is tested against a meet-closed basis, which suffices.
    # The closure of x holds the y whose every subbasic open contains x.
    closure = [sum(1 << y for y, py in enumerate(prof) if py & ~px == 0) for px in prof]

    def irreducible(c):
        basis = [b for b in space.meet_basis if b & c]
        return all(a & b & c for i, a in enumerate(basis) for b in basis[i + 1:])

    sober = all(closure.count(c) == 1 for c in (full & ~o for o in space.opens)
                if c and irreducible(c))

    opens = space.opens
    masks = [space.covermask(o) for o in opens]
    inside = []
    core_compact = True
    for p, cp in zip(opens, masks):
        row = approx = 0
        for j, cq in enumerate(masks):
            if cp & ~cq == 0:
                row |= 1 << j
                approx |= opens[j]
        inside.append(row)
        core_compact = core_compact and approx == p

    index = {o: i for i, o in enumerate(opens)}
    core_coherent = all(
        inside[i] & inside[j] & ~inside[index[q & opens[j]]] == 0
        for i, q in enumerate(opens) for j in range(i + 1, len(opens))
    )

    return SpaceProperties(
        t0=t0,
        sober=sober,
        core_compact=core_compact,
        core_coherent=core_coherent,
        stably_locally_compact=sober and core_compact and core_coherent,
    )


def homeomorphic(a: FiniteSpace, b: FiniteSpace) -> bool:
    """Exact homeomorphism test by canonical invariants plus backtracking."""
    if len(a.points) != len(b.points) or len(a.opens) != len(b.opens):
        return False
    if sorted(bin(o).count("1") for o in a.opens) != sorted(
        bin(o).count("1") for o in b.opens
    ):
        return False
    n = len(a.points)
    if n > 8:
        raise CapExceededError("homeomorphism search is gated to 8 points")

    def profile(space, i):
        return sorted(bin(o).count("1") for o in space.opens if o >> i & 1)

    prof_a = [profile(a, i) for i in range(n)]
    prof_b = [profile(b, i) for i in range(n)]
    if sorted(map(tuple, prof_a)) != sorted(map(tuple, prof_b)):
        return False
    bset = set(b.opens)
    for perm in permutations(range(n)):
        if any(prof_a[i] != prof_b[perm[i]] for i in range(n)):
            continue
        ok = True
        for o in a.opens:
            im = 0
            for i in iter_bits(o):
                im |= 1 << perm[i]
            if im not in bset:
                ok = False
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# tight subsets and the spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TightFlags:
    round: bool
    prime: bool

    @property
    def tight(self) -> bool:
        return self.round and self.prime


def is_round(sys: CoverSystem, t) -> bool:
    code = sys.ground.code(t)
    tt = tables(sys.ground.size)
    subs = tt.subsets[code]
    cols = sys.rel.cols()
    return all(subs & cols[1 << i] for i in iter_bits(code))


def is_prime(sys: CoverSystem, t) -> bool:
    code = sys.ground.code(t)
    tt = tables(sys.ground.size)
    meets_t = tt.meets[code]
    rows = sys.rel.rows
    return all(rows[f] & ~meets_t == 0 for f in iter_bits(tt.subsets[code]))


def empty_is_tight(sys: CoverSystem) -> bool:
    """Whether the empty subset is tight: ``is_round(sys, 0) and
    is_prime(sys, 0)``, which is ``rows[0] == 0``.  Roundness of the
    empty set is vacuous (it has no element), and its one finite part is
    itself, so it is prime iff row 0 lies in ``meets[0]``, the family of
    the subsets that meet the empty set: the empty family."""
    return sys.rel.rows[0] == 0


def tight_flags(sys: CoverSystem, t) -> TightFlags:
    """Roundness and primality of one candidate subset.

    For upper relations their conjunction coincides with the one-piece
    tightness biconditional; the split is what the search code uses.
    """
    return TightFlags(round=is_round(sys, t), prime=is_prime(sys, t))


def tight_mask(sys: CoverSystem) -> int:
    """Family mask of the tight subsets, the empty one included when it
    is tight.

    Round as a mask: T is round iff, for each element i of T, T contains
    a member of the column of {i}, so the round codes are the AND over i
    of the upper closure of that column with the codes lacking i.  Prime
    per round code: T is prime iff every G entailed by some part of T
    meets T, that is, iff the lower-closure row of T lies in ``meets[T]``.
    """
    n = sys.ground.size
    t = tables(n)
    cols = sys.rel.cols()
    round_mask = t.full
    for i, lacks in enumerate(t.lacks_elem):
        round_mask &= supersets_mask(n, cols[1 << i]) | lacks
    below = sys.rel.lower_closure()
    meets = t.meets
    out = 0
    for code in iter_bits(round_mask):
        if below[code] & ~meets[code] == 0:
            out |= 1 << code
    return out


def tight_codes(sys: CoverSystem) -> tuple[int, ...]:
    """Codes of the non-empty tight subsets, ascending: the members of
    ``tight_mask`` without the empty set, whose tightness is logged."""
    tights = tight_mask(sys)
    if tights & 1:
        log.info("empty subset is tight for %r; excluded from the spectrum", sys)
    return tuple(iter_bits(tights & ~1))


def escaped_name(name: str) -> str:
    """A name as it appears in a label, "{" + names joined by "," + "}".

    A name without a backslash, a comma or a brace keeps its characters,
    and so does a braced name: one that opens with "{" closed only by its
    last character, as a label itself is (``_braced``).  Any other name
    gets a backslash before each backslash, comma and brace.  The empty
    name is written "\\0", which no other name is: in any other escaped
    name a backslash comes only before a backslash, comma or brace, or
    inside a braced name.  So a label splits back into its names at the
    commas outside braces that no backslash escapes, and distinct subsets
    get distinct labels: the empty subset's is "{}" and {""}'s "{\\0}".
    """
    if not name:
        return "\\0"
    if not any(c in name for c in "\\,{}") or _braced(name):
        return name
    return (name.replace("\\", "\\\\").replace(",", "\\,")
            .replace("{", "\\{").replace("}", "\\}"))


def _braced(name: str) -> bool:
    """Whether ``name`` opens with "{" and the brace that closes it,
    skipping characters after a backslash, is its last character."""
    if not name.startswith("{"):
        return False
    depth = 0
    chars = iter(enumerate(name))
    for i, c in chars:
        if c == "\\":
            next(chars, None)
        elif c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i == len(name) - 1
    return False


def subset_label(ground: GroundSet, code: int) -> str:
    """"{" + the names of the subset's elements, escaped
    (``escaped_name``), joined by "," + "}": distinct subsets get
    distinct labels whatever their elements are named, and a ground of
    plain or braced names (a topology cover's) keeps its characters."""
    return "{" + ",".join(escaped_name(ground.names[i]) for i in iter_bits(code)) + "}"


def dot_id(label: str) -> str:
    """``label`` as a quoted DOT id: a backslash goes before each
    backslash and each double quote, so any label reads back from it."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


class Spectrum:
    """The space of non-empty tight subsets with its generating subbasis.

    Points are stored as the tight subset codes themselves, so the
    correspondences between ground elements and subbasic opens are direct
    bit tests.  A build on a system without a spectrum is kept on it, so
    ``spectrum(sys)`` and every check that reads it reuse this one.
    """

    def __init__(self, sys: CoverSystem):
        cls = sys.classification
        if not cls.is_strong_idempotent:
            log.warning("spectrum of a non-strong-idempotent system %r", sys)
        self.system = sys
        self.tights = tight_codes(sys)
        self.index = {code: i for i, code in enumerate(self.tights)}
        n = sys.ground.size
        self.point_open = [
            sum(1 << i for i, code in enumerate(self.tights) if code >> e & 1)
            for e in range(n)
        ]
        # subset_label of each point, each ground name escaped once
        escaped = [escaped_name(name) for name in sys.ground.names]
        names = tuple("{" + ",".join([escaped[i] for i in iter_bits(c)]) + "}"
                      for c in self.tights)
        sub = tuple(sorted(set(self.point_open)))
        if not self.tights:
            # empty spectrum: single empty space with empty subbasis
            self.space = FiniteSpace((), (0,), ())
        else:
            self.space = FiniteSpace.from_subbasis(names, sub)
        vars(sys).setdefault("_spectrum", self)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.tights)) - 1

    def basic_open(self, fcode: int) -> int:
        """Points containing every element of F (the whole space for F empty)."""
        out = self.full_mask
        for i in iter_bits(fcode):
            out &= self.point_open[i]
        return out

    def __repr__(self):
        return f"Spectrum({self.system!r}, {len(self.tights)} points)"


def spectrum(sys: CoverSystem) -> Spectrum:
    """The cached accessor: the spectrum of ``sys``, built on first use
    and kept on the system, so all callers share one build (and one
    non-strong-idempotent warning).  ``Spectrum(sys)`` always builds,
    and keeps what it built on a system that has no spectrum yet."""
    return sys._spectrum


# ---------------------------------------------------------------------------
# theorems about the spectrum
# ---------------------------------------------------------------------------

def square_failures(space: FiniteSpace, rows, basic, uppers, exempt_empty: bool):
    """Entailment against compact containment: ``rows[f]`` must be row f
    of ``compact_rows(space, basic, uppers)``.  The first failing
    (F, bad) of each direction, entailment outside compact containment
    and compact containment outside entailment, or None where that
    direction holds; bad masks the G that fail.  With ``exempt_empty``
    the empty premise is exempt from the converse: when the empty set is
    tight, its excluded point is the only separator there."""
    forward = converse = None
    for f, (row, compact) in enumerate(zip(rows, compact_rows(space, basic, uppers))):
        if row & ~compact and forward is None:
            forward = f, row & ~compact
        if compact & ~row and converse is None and (f or not exempt_empty):
            converse = f, compact & ~row
    return forward, converse


@dataclass
class RepresentationReport(Report):
    """Outcome of checking the spectrum representation of a system.

    ``derived_matches_subset``: the derived relation coincides with plain
    containment of basic opens in unions of subbasic ones.
    ``entail_implies_compact``: entailment forces compact containment.
    ``compact_implies_entail``: the converse; guaranteed exactly for
    cover relations, reported (with witness) otherwise.

    When the empty subset happens to be tight it is still excluded from
    the spectrum, which collapses the empty-premise row of the basic
    opens: the containment directions of the two correspondences are then
    stated for non-empty premises, and the empty-premise row is checked
    in its corrected form (the derived relation must relate the empty set
    to nothing at all).  ``empty_set_tight`` records that this corner was
    in effect.
    """

    strong_idempotent: bool
    is_cover: bool
    empty_set_tight: bool
    empty_corner_consistent: bool
    stably_locally_compact: bool
    derived_matches_subset: bool
    entail_implies_compact: bool
    compact_implies_entail: bool
    witnesses: dict

    def violations(self) -> list[str]:
        """Failures that contradict a guaranteed theorem (empty = healthy)."""
        if not self.strong_idempotent:
            return []
        out = []
        if not self.stably_locally_compact:
            out.append("spectrum not stably locally compact")
        if not self.derived_matches_subset:
            out.append("derived relation does not match subset containment")
        if not self.empty_corner_consistent:
            out.append("empty-premise corner inconsistent with tight empty set")
        if not self.entail_implies_compact:
            out.append("entailment does not imply compact containment")
        if self.is_cover and not self.compact_implies_entail:
            out.append("compact containment does not imply entailment on a cover")
        return out


def verify_representation(sys: CoverSystem) -> RepresentationReport:
    """Check both correspondences of the representation theorem on every
    pair (F, G) of subsets.

    The basic open of each F and the upper open of each G are built once
    per subset (``meets_of``, ``joins_of``).  Containment of each basic
    open in each upper open is the complement of the
    ``kernel.meeting_rows`` of the basic opens and the upper opens'
    complements.  Entailment against compact containment is
    ``square_failures``, the square of ``category.spectral_square_holds``
    for the identity morphism.  Each witness is the first failing (F, G)
    in code order.  The spectrum is the one cached on the system by
    ``spectrum``.
    """
    from .axioms import derive_vdash

    spec = spectrum(sys)
    cls = sys.classification
    ground = sys.ground
    vdash = derive_vdash(sys)
    witnesses: dict = {}

    props = spec.space.properties
    empty_tight = empty_is_tight(sys)

    # When the empty set is tight, the excluded empty point is the only
    # separator for empty premises, so those pairs are checked via the
    # corrected form instead of the containment of basic opens.
    def note(key, f, bad):
        g = (bad & -bad).bit_length() - 1
        witnesses.setdefault(key, {"F": subset_label(ground, f),
                                   "G": subset_label(ground, g)})

    corner_ok = True
    if empty_tight and vdash.rows[0] != 0:
        corner_ok = False
        witnesses["empty_corner"] = {
            "G": subset_label(ground, (vdash.rows[0] & -vdash.rows[0]).bit_length() - 1)
        }

    points = spec.full_mask
    basic, upper = meets_of(points, spec.point_open), joins_of(spec.point_open)
    # the G whose upper open contains the basic open of F: those whose
    # upper open's complement the basic open misses
    every = (1 << ground.num_subsets) - 1
    for f, missed in enumerate(meeting_rows(basic, [points ^ u for u in upper])):
        bad = vdash.rows[f] ^ every ^ missed
        if bad and (f or not empty_tight):
            note("derived_matches_subset", f, bad)

    forward, converse = square_failures(spec.space, sys.rel.rows, basic, upper, empty_tight)
    if forward:
        note("entail_implies_compact", *forward)
    if converse:
        note("compact_implies_entail", *converse)

    return RepresentationReport(
        strong_idempotent=cls.is_strong_idempotent,
        is_cover=cls.is_cover,
        empty_set_tight=empty_tight,
        empty_corner_consistent=corner_ok,
        stably_locally_compact=props.stably_locally_compact,
        derived_matches_subset="derived_matches_subset" not in witnesses,
        entail_implies_compact="entail_implies_compact" not in witnesses,
        compact_implies_entail="compact_implies_entail" not in witnesses,
        witnesses=witnesses,
    )


def prime_to_tight(sys: CoverSystem, p) -> FinSubset:
    """Shrink a prime subset to the tight set of its finitely-entailed
    elements."""
    code = sys.ground.code(p)
    if not is_prime(sys, code):
        raise ValueError("input subset is not prime")
    tt = tables(sys.ground.size)
    cols = sys.rel.cols()
    subs = tt.subsets[code]
    out = 0
    for i in range(sys.ground.size):
        if subs & cols[1 << i]:
            out |= 1 << i
    result = FinSubset(sys.ground, out)
    flags = tight_flags(sys, out)
    if sys.classification.is_strong_idempotent and not flags.tight:
        raise TheoremViolationError(
            f"prime shrink of {subset_label(sys.ground, code)} is not tight"
        )
    return result


def _entails_between(sys: CoverSystem, rcode: int, qcode: int) -> bool:
    """Whether some finite part of R entails some finite part of Q."""
    tt = tables(sys.ground.size)
    q_parts = tt.subsets[qcode]
    rows = sys.rel.rows
    return any(rows[f] & q_parts for f in iter_bits(tt.subsets[rcode] | 1))


def birkhoff_stone(sys: CoverSystem, r, q):
    """Tight extension of a round set avoiding a forbidden set.

    Returns a tight T containing ``r`` and disjoint from ``q`` whenever no
    finite part of ``r`` entails a finite part of ``q``; returns None when
    such an entailment exists.  The search is exhaustive and existence is
    theorem-backed for strong idempotents, so a failed search raises.
    """
    rcode = sys.ground.code(r)
    qcode = sys.ground.code(q)
    if not sys.classification.is_strong_idempotent:
        raise ValueError("tight extension requires a strong idempotent system")
    if not is_round(sys, rcode):
        raise ValueError("the set to extend must be round")
    if _entails_between(sys, rcode, qcode):
        return None
    for code in iter_bits(tight_mask(sys)):
        if code & rcode == rcode and code & qcode == 0:
            return FinSubset(sys.ground, code)
    raise TheoremViolationError(
        "no tight extension found although the hypothesis holds"
    )


def birkhoff_stone_families(sys: CoverSystem, r, fams: Family):
    """Family variant: extend a round set to a tight one containing no
    member of ``fams``; the hypothesis quantifies over selections of
    finite subfamilies."""
    rcode = sys.ground.code(r)
    if not sys.classification.is_strong_idempotent:
        raise ValueError("tight extension requires a strong idempotent system")
    if not is_round(sys, rcode):
        raise ValueError("the set to extend must be round")
    if fams.ground != sys.ground:
        raise ValueError("family over a different ground set")
    n = sys.ground.size
    tt = tables(n)
    rows = sys.rel.rows

    # The hypothesis fails iff some finite part F of R entails every
    # selection of some subfamily.  Selections only shrink as the
    # subfamily grows, so the full family is the optimal witness.
    sel = selections_mask(n, fams.mask)
    if any(sel & ~rows[f] == 0 for f in iter_bits(tt.subsets[rcode])):
        return None
    for code in iter_bits(tight_mask(sys)):
        if code & rcode != rcode:
            continue
        if any(code & h == h for h in iter_bits(fams.mask)):
            continue
        return FinSubset(sys.ground, code)
    raise TheoremViolationError(
        "no tight extension found although the family hypothesis holds"
    )


# ---------------------------------------------------------------------------
# recovery of a space from its cover system
# ---------------------------------------------------------------------------

@dataclass
class RecoveryReport:
    """A space inside the spectrum of its own cover system.  It is not a
    ``kernel.Report``: it states no violations, and ``passed`` means an
    injective homeomorphism onto a very dense image that is surjective
    exactly when the space is sober and core coherent."""

    injective: bool
    homeomorphism_onto_image: bool
    very_dense: bool
    surjective: bool
    sober: bool
    core_coherent: bool

    def passed(self):
        return (self.injective and self.homeomorphism_onto_image
                and self.very_dense
                and self.surjective == (self.sober and self.core_coherent))

    def to_dict(self):
        return dict(vars(self))


def recovery(space: FiniteSpace) -> RecoveryReport:
    """Represent a T0 space inside the spectrum of its own cover system.

    The point map sends x to the set of subbasis members containing x.
    For finite T0 inputs the map must be a surjective homeomorphism onto
    a very dense subspace; surjectivity failures are raised, not merely
    reported, because finite T0 spaces are sober and core coherent.
    """
    props = space.properties
    if not props.t0:
        raise ValueError("recovery requires a T0 space")
    spec = spectrum(space.cover_system)
    # the subbasis profile of x is its image code over the cover's ground
    images = space.profiles
    injective = len(set(images)) == len(images)
    in_spectrum = all(code in spec.index for code in images)
    image_mask = 0
    for code in images:
        if code in spec.index:
            image_mask |= 1 << spec.index[code]

    homeo = in_spectrum and injective
    if homeo:
        sub_images = {
            u & image_mask for u in spec.space.opens
        }
        own_opens = set()
        for o in space.opens:
            m = 0
            for x in iter_bits(o):
                m |= 1 << spec.index[images[x]]
            own_opens.add(m)
        homeo = own_opens == sub_images

    dense = is_very_dense(spec.space, image_mask)
    surjective = in_spectrum and image_mask == spec.full_mask

    report = RecoveryReport(
        injective=injective,
        homeomorphism_onto_image=homeo,
        very_dense=dense,
        surjective=surjective,
        sober=props.sober,
        core_coherent=props.core_coherent,
    )
    if props.sober and props.core_coherent and not surjective:
        raise TheoremViolationError(
            "recovery of a sober core-coherent space must be surjective"
        )
    return report


# ---------------------------------------------------------------------------
# DOT exports
# ---------------------------------------------------------------------------

def specialization_dot(space: FiniteSpace, name: str = "specialization") -> str:
    """Specialization order as a digraph (transitive reduction, no loops)."""
    n = len(space.points)
    arrow = [[space.converges(x, y) and x != y for y in range(n)] for x in range(n)]
    lines = [f"digraph {name} {{"]
    ids = [dot_id(p) for p in space.points]
    for p in ids:
        lines.append(f"  {p};")
    for x in range(n):
        for y in range(n):
            if not arrow[x][y]:
                continue
            if any(arrow[x][z] and arrow[z][y] for z in range(n)):
                continue
            lines.append(f"  {ids[x]} -> {ids[y]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
