"""Quasi-ideals and the stably continuous frame they form.

A quasi-ideal is a family of finite subsets equal to its own downset,
where the downset of a family collects every subset entailing all the
selections of some finite subfamily.  Finitely, the whole family is an
optimal subfamily witness (selections only shrink as the family grows),
so the downset is the set of F entailing every selection of the family:
the AND of the columns of the relation over its selection family
(``downset_of_selections``, one fold of ``Relation.col_fold``).

The downset of a family depends on it only through its selection
family, and the selections of a union are the AND of the selections.
The selection families are exactly the up-sets of the subset lattice
(6, 20 and 168 of them at |S| = 2, 3 and 4, against 16, 256 and 65,536
families).  So every quasi-ideal is the downset of an up-set, which is
the intersection of the principal quasi-ideals of its members, and the
frame is the intersection closure of the principal ones
(``frame_model``).  A join or a fold of joins is the downset of an AND
of selection families, one column fold; the frame model, cached on the
system, keeps the selection family of each element.  The union-join law
over every pair of families is decided by a theorem from the
principal-join law and distributivity (``verify_frame_laws``); its
literal pair search is the test oracle ``naive_union_joins``.

For monotone cut-idempotent systems the quasi-ideals form a complete
lattice: meets are intersections, joins are downsets of unions, and the
way-below relation has a finite witness form.  ``verify_frame_laws``
cross-checks that form against the lattice-theoretic definition via
directed joins (``directed_way_below_matrix``).  A finite directed set
has a greatest member, so its join and the elements it dominates depend
on that member alone, and the cross-check is a k x k closed form in the
frame size k; the literal per-pair search over directed sets is the
test oracle ``way_below_directed`` in ``tests/oracles.py``.

The frame model is built once per system and cached on it, so
``verify_open_iso``, ``karoubi_envelope`` and the CLI's ``frame``
command share one build; the spectrum comes from the cached accessor
``spectrum.spectrum``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import (
    CapExceededError,
    GroundSet,
    Report,
    TheoremViolationError,
    iter_bits,
    joins_of,
    meeting_rows,
    meets_of,
    memo,
    selections_mask,
)
from .relations import CoverSystem, Relation
from .composition import cut_compose

FRAME_CAP = 4096


def _require_cut_idempotent(sys: CoverSystem):
    cls = sys.classification
    if not cls.is_monotone:
        raise ValueError("quasi-ideal machinery requires a monotone relation")
    # cut-idempotence: the self-composition equals the relation.  A strong
    # idempotent R has it: R is in R ; one_exists(R) (divisible), which is
    # in R ; R (one_exists(R) is in R for an upper R, and composition grows
    # with its right operand), which is in R (cut-transitive)
    if (not cls.is_strong_idempotent
            and cut_compose(sys.rel, sys.rel) != sys.rel):
        raise ValueError("quasi-ideal machinery requires a cut-idempotent relation")


def downset_of_selections(sys: CoverSystem, sel: int) -> int:
    """The downset of any family whose selection family is ``sel``: the
    F whose row holds every code of ``sel``, the AND of the columns over
    ``sel`` (every F when ``sel`` is 0)."""
    return sys.rel.col_fold.fold(sel, (1 << sys.ground.num_subsets) - 1)


def downset_mask(sys: CoverSystem, fam_mask: int) -> int:
    return downset_of_selections(sys, selections_mask(sys.ground.size, fam_mask))


def is_quasi_ideal(sys: CoverSystem, fam_mask: int) -> bool:
    return downset_mask(sys, fam_mask) == fam_mask


class FrameModel:
    """The lattice of quasi-ideals of one system.

    ``elements`` holds the quasi-ideals as family masks in ascending
    order, and ``_sel`` the selection family of each.

    Its ``kernel.memo`` attributes are the index tables of the meets and
    joins of two elements (``meet_table``, ``join_table``; -1 where the
    result is not an element).  A join that escapes the model raises
    ``TheoremViolationError`` where it is used.
    """

    def __init__(self, sys: CoverSystem, elements):
        self.system = sys
        self.elements = tuple(sorted(elements))
        self.index = {m: i for i, m in enumerate(self.elements)}
        n = sys.ground.size
        self._sel = [selections_mask(n, m) for m in self.elements]
        # goodrows[r]: the F entailing every selection of element r
        goodrows = [downset_of_selections(sys, sel) for sel in self._sel]
        self.way_below_matrix = [
            sum(1 << r for r, good in enumerate(goodrows) if q & ~good == 0)
            for q in self.elements
        ]

    def escaped(self) -> Exception:
        """The error for a join that is not an element of the model."""
        return TheoremViolationError("join of quasi-ideals escaped the model")

    @memo
    def meet_table(self) -> list[list[int]]:
        """Entry [a][b]: the index of the intersection of elements a and
        b, or -1 when it is not an element."""
        index, els = self.index, self.elements
        return [[index.get(a & b, -1) for b in els] for a in els]

    @memo
    def join_table(self) -> list[list[int]]:
        """Entry [a][b]: the index of the join of elements a and b, the
        downset of their union, whose selections are the AND of theirs;
        -1 when it escapes the model."""
        index, sys = self.index, self.system
        return [[index.get(downset_of_selections(sys, sa & sb), -1) for sb in self._sel]
                for sa in self._sel]

    # -- lattice structure --

    def __len__(self):
        return len(self.elements)

    @property
    def bottom(self) -> int:
        return self.elements[0]

    @property
    def top(self) -> int:
        return self.elements[-1]

    def join(self, a: int, b: int) -> int:
        return self.join_union(a | b)

    def join_union(self, u: int) -> int:
        """The downset of the family ``u``: the join of any quasi-ideals
        whose union is ``u``.  Raises if it is not an element of the model."""
        j = downset_mask(self.system, u)
        if j not in self.index:
            raise self.escaped()
        return j

    def __repr__(self):
        return f"FrameModel({self.system!r}, {len(self.elements)} quasi-ideals)"


def frame_model(sys: CoverSystem) -> FrameModel:
    """The quasi-ideal lattice of the system, built once per system and
    cached on it.  Only a successful build is cached, so a system that
    is not monotone and cut-idempotent raises ``ValueError`` on every
    call, and one whose frame has more than ``FRAME_CAP`` elements
    raises ``CapExceededError``."""
    return sys._frame


def _build_frame_model(sys: CoverSystem) -> FrameModel:
    """The intersection closure of the principal quasi-ideals, the
    columns ``sys.rel.cols()``, with the full family as the empty
    intersection.

    On a monotone cut-idempotent system this is every quasi-ideal and
    nothing else.  A quasi-ideal is the downset of its selection family
    ``sel``, the F with ``sel`` in row F: the intersection of the
    columns over the codes of ``sel``.  Conversely, the intersection of
    the columns over any set X of codes equals the intersection over the
    up-closure of X, since every row is an up-set (the relation is
    upper); that up-closure is an up-set, hence the selection family of
    some family (the complements of the codes outside it), so the
    intersection is a downset, and a downset is a quasi-ideal (the
    downset is idempotent on a cut-idempotent system).

    The closure grows by a frontier: each new element is ANDed with
    each distinct column, and the cap is checked as each element is
    found, not after a round (one round past the cap can cost minutes).
    """
    _require_cut_idempotent(sys)
    cols = set(sys.rel.cols())
    full = (1 << sys.ground.num_subsets) - 1
    elements = {full}
    frontier = [full]
    while frontier:
        new = []
        for a in frontier:
            for col in cols:
                m = a & col
                if m not in elements:
                    elements.add(m)
                    new.append(m)
                    if len(elements) > FRAME_CAP:
                        raise CapExceededError(f"frame exceeded cap {FRAME_CAP}")
        frontier = new
    return FrameModel(sys, elements)


def directed_way_below_matrix(fm: FrameModel) -> list[int]:
    """The lattice-theoretic approximation order, in the layout of
    ``fm.way_below_matrix``: bit r of row q is set iff every directed set
    of quasi-ideals whose join dominates element r has a member
    dominating element q.

    A finite directed set has a greatest member g: its union is element
    g, and the elements it dominates are those below g.  So every
    directed set acts as its greatest member alone, and row q is the
    complement of the elements below the join of element g, over every g
    not above q: k x k work in the frame size k.  The join of each
    element is looked up as ``FrameModel.join_union`` does, so a join
    that escapes the model raises, as the literal search over directed
    sets does on the singleton set of that element.
    """
    els = fm.elements
    k = len(els)
    # below[i]: the indices of the elements contained in element i
    below = [sum(1 << j for j, b in enumerate(els) if b & ~a == 0) for a in els]
    join_below = [below[fm.index[fm.join_union(a)]] for a in els]
    full = (1 << k) - 1
    out = []
    for q in range(k):
        fails = 0
        for g in range(k):
            if not below[g] >> q & 1:
                fails |= join_below[g]
        out.append(full & ~fails)
    return out


# ---------------------------------------------------------------------------
# frame laws
# ---------------------------------------------------------------------------

@dataclass
class FrameLawsReport(Report):
    distributive: bool
    continuous: bool
    stable: bool
    way_below_consistent: bool | None
    divisible: bool
    principal_joins_hold: bool
    principal_joins_witness: str | None
    finite_union_joins_hold: bool | None
    cover: bool
    vdash_matches_principal_order: bool | None
    entails_matches_way_below: bool | None

    def violations(self) -> list[str]:
        out = []
        if not self.distributive:
            out.append("frame distributivity failed")
        if not self.continuous:
            out.append("continuity failed")
        if not self.stable:
            out.append("stability failed")
        if self.way_below_consistent is False:
            out.append("way-below witness form disagrees with directed joins")
        if self.principal_joins_hold != self.divisible:
            out.append("principal-join law must hold exactly for divisible systems")
        if self.divisible and self.finite_union_joins_hold is False:
            out.append("downset of a union must be the join for divisible systems")
        if self.divisible and self.vdash_matches_principal_order is False:
            out.append("derived relation must match principal containment")
        if self.divisible and self.entails_matches_way_below is not None:
            if self.entails_matches_way_below != self.cover:
                out.append("way-below form of the relation must hold exactly on covers")
        return out


def verify_frame_laws(fm: FrameModel) -> FrameLawsReport:
    """Check the frame structure and its interaction with the system.

    Binary distributivity suffices finitely (arbitrary joins are finite
    joins here).  Distributivity and stability read the model's meet and
    join tables, and continuity the downset of the AND of the selections
    of the elements way below each element.  The way-below witness form
    is cross-checked against directed joins on every frame
    (``directed_way_below_matrix``, k x k in the frame size k).

    The union-join law says that the downset D of the union of two
    families is the downset of the union of their downsets.  It is
    decided by a theorem from two checks made here: the principal-join
    law (``principal_joins_hold``: each column c(X) is the join of the
    columns c({x}) of its members) and distributivity.  Write v for the
    join of the frame.  D is monotone and idempotent, so the join of
    quasi-ideals P and Q is D(P | Q), and the law reads
    D(U | V) = D(U) v D(V).  D(U) is the meet of c(X) over the
    selections X of U; the relation is upper, so D({A}) is the meet of
    c({a}) over the members a of A.

    - If the principal-join law holds, D(U) is the meet, over the
      selections X of U, of the join of c({x}) over X.  In a
      distributive lattice this meet of joins is the join, over the
      members A of U, of the meet of c({a}) over A.  So D(U) is the join
      of D({A}) over A in U, and D(U | V) = D(U) v D(V) for every pair
      of families.
    - If the law holds for every pair, induction on |U| gives the same
      D(U) = v_{A in U} D({A}).  The family of the singletons of G has
      the supersets of G as its selections, so its downset is c(G), and
      this is the principal-join law.  This direction does not use
      distributivity.

    So ``finite_union_joins_hold`` is false where the principal-join law
    fails, true where it holds on a distributive frame, and None where
    it holds on a frame that is not distributive, which is already a
    violation.  The verdict covers every pair of families at every size;
    the literal search over pairs of selection families is the test
    oracle ``naive_union_joins``.

    On a divisible system, the derived relation is compared with
    containment of the meet of F's principal quasi-ideals in the join of
    G's, and the relation with the way-below order between the two; each
    comparison is one ``kernel.meeting_rows`` over the 2**|S| meets and
    joins, each distinct meet getting its row once, not a test of every
    pair (F, G).
    """
    sys = fm.system
    n = sys.ground.size
    distributive = _distributive(fm)
    continuous = _continuous(fm)
    stable = _stable(fm)
    wb_consistent = directed_way_below_matrix(fm) == fm.way_below_matrix

    cls = sys.classification
    size = sys.ground.num_subsets
    cols = sys.rel.cols()
    # meet_of[f]: the meet of the principal quasi-ideals of F's members;
    # principal_join[g]: the join of those of G's members
    singletons = [cols[1 << i] for i in range(n)]
    meet_of, unions = meets_of(fm.top, singletons), joins_of(singletons)
    principal_join = [downset_mask(sys, u) for u in unions]

    principal_ok = True
    principal_witness = None
    for g in range(size):
        if cols[g] != principal_join[g]:
            principal_ok = False
            from .spectrum import subset_label

            principal_witness = subset_label(sys.ground, g)
            break

    # the union-join law by the theorem in the docstring
    union_joins = (distributive or None) if principal_ok else False

    vdash_ok = None
    entails_wb = None
    if cls.is_divisible:
        from .axioms import derive_vdash

        # meet_of[f] inside principal_join[g]: meet_of[f] misses the
        # complement of principal_join[g]; meet_of[f] way below
        # principal_join[g]: the join's index is in the meet's row of the
        # way-below matrix, and false when either is not an element
        index, wb, full = fm.index, fm.way_below_matrix, fm.top
        outside = [full ^ j for j in principal_join]
        vdash_ok = list(derive_vdash(sys).rows) == [
            full ^ row for row in meeting_rows(meet_of, outside)]
        entails_wb = list(sys.rel.rows) == meeting_rows(
            [wb[index[m]] if m in index else 0 for m in meet_of],
            [1 << index[j] if j in index else 0 for j in principal_join])

    return FrameLawsReport(
        distributive=distributive,
        continuous=continuous,
        stable=stable,
        way_below_consistent=wb_consistent,
        divisible=cls.is_divisible,
        principal_joins_hold=principal_ok,
        principal_joins_witness=principal_witness,
        finite_union_joins_hold=union_joins,
        cover=cls.is_cover,
        vdash_matches_principal_order=vdash_ok,
        entails_matches_way_below=entails_wb,
    )


def _distributive(fm: FrameModel) -> bool:
    """c & (a v b) == (c & a) v (c & b) for all elements a, b, c, in that
    loop order, as indices in the model's tables (both are symmetric, so
    row a of the meet table holds every c & a, and an index stands for
    one mask).  A meet that is not an element is joined as a family; an
    escaped join raises."""
    els, meets, joins = fm.elements, fm.meet_table, fm.join_table
    for a, joins_a in enumerate(joins):
        meets_a = meets[a]
        for b, ab in enumerate(joins_a):
            if ab < 0:
                raise fm.escaped()
            meets_ab = meets[ab]
            for c, (ca, cb) in enumerate(zip(meets_a, meets[b])):
                if ca < 0 or cb < 0:
                    j = fm.index[fm.join(els[c] & els[a], els[c] & els[b])]
                else:
                    j = joins[ca][cb]
                    if j < 0:
                        raise fm.escaped()
                if meets_ab[c] != j:
                    return False
    return True


def _continuous(fm: FrameModel) -> bool:
    """Every element is the join of the elements way below it: the
    downset of the AND of their selections."""
    full = (1 << fm.system.ground.num_subsets) - 1
    for q, element in enumerate(fm.elements):
        sel = full
        for r, row in enumerate(fm.way_below_matrix):
            if row >> q & 1:
                sel &= fm._sel[r]
        join = downset_of_selections(fm.system, sel)
        if join not in fm.index:
            raise fm.escaped()
        if join != element:
            return False
    return True


def _stable(fm: FrameModel) -> bool:
    """For every q, the elements way above q are closed under meets."""
    meets = fm.meet_table
    for row in fm.way_below_matrix:
        above = list(iter_bits(row))
        for i, r1 in enumerate(above):
            meets_r1 = meets[r1]
            for r2 in above[i:]:
                m = meets_r1[r2]
                if m < 0:
                    raise TheoremViolationError("meet of quasi-ideals escaped the model")
                if not row >> m & 1:
                    return False
    return True


# ---------------------------------------------------------------------------
# open-set order isomorphism
# ---------------------------------------------------------------------------

@dataclass
class OpenIsoReport(Report):
    """When the empty subset is tight, its exclusion from the spectrum
    identifies the full quasi-ideal with the largest empty-free one (the
    only quasi-ideal containing the empty subset is the full one); the
    isomorphism is then stated for the empty-free quasi-ideals, and the
    single collapse is recorded rather than counted as a failure."""

    bijective: bool
    order_isomorphism: bool
    meets_correspond: bool
    frame_size: int
    opens_size: int
    empty_set_tight: bool
    collapsed_top: bool

    def violations(self) -> list[str]:
        if self.bijective and self.order_isomorphism and self.meets_correspond:
            return []
        return ["quasi-ideal / open-set correspondence failed"]


def verify_open_iso(sys: CoverSystem) -> OpenIsoReport:
    """The map sending a quasi-ideal to the union of its basic opens must
    be an order isomorphism onto the spectrum's open-set lattice.

    The basic open of every subset code is tabulated once per call, and
    the image of each family once."""
    if not sys.classification.is_strong_idempotent:
        raise ValueError("the open-set correspondence requires a strong idempotent")
    from .spectrum import empty_is_tight, spectrum

    fm = frame_model(sys)
    spec = spectrum(sys)
    empty_tight = empty_is_tight(sys)

    basic = [spec.basic_open(f) for f in range(sys.ground.num_subsets)]
    image = {}

    def open_of(qmask: int) -> int:
        out = image.get(qmask)
        if out is None:
            out = 0
            for f in iter_bits(qmask):
                out |= basic[f]
            image[qmask] = out
        return out

    collapsed = False
    elements = fm.elements
    if empty_tight:
        elements = tuple(m for m in fm.elements if not m & 1)
        dropped = [m for m in fm.elements if m & 1]
        full = (1 << sys.ground.num_subsets) - 1
        collapsed = dropped == [full]
    images = [open_of(q) for q in elements]
    bijective = (len(set(images)) == len(images)
                 and set(images) == set(spec.space.opens)
                 and (not empty_tight or collapsed))
    order_iso = all(
        (elements[i] & ~elements[j] == 0) == (images[i] & ~images[j] == 0)
        for i in range(len(images)) for j in range(len(images))
    )
    meets = all(
        open_of(a & b) == (image_a & image_b)
        for a, image_a in zip(elements, images) for b, image_b in zip(elements, images)
    )
    return OpenIsoReport(
        bijective=bijective,
        order_isomorphism=order_iso,
        meets_correspond=meets,
        frame_size=len(fm.elements),
        opens_size=len(spec.space.opens),
        empty_set_tight=empty_tight,
        collapsed_top=collapsed,
    )


# ---------------------------------------------------------------------------
# Karoubi envelope
# ---------------------------------------------------------------------------

@dataclass
class KaroubiEnvelope:
    """The cover system on the quasi-ideal frame, with the two relations
    witnessing that it is Karoubi isomorphic to the original system."""

    system: CoverSystem
    frame: FrameModel
    target: CoverSystem
    sq: Relation        # from families of quasi-ideals to finite subsets
    sq_bar: Relation    # from finite subsets to families of quasi-ideals
    equations: dict
    target_is_cover: bool

    def violations(self) -> list[str]:
        out = [f"envelope equation {k} failed" for k, v in self.equations.items() if not v]
        if not self.target_is_cover:
            out.append("envelope relation is not a cover relation")
        return out

    def to_dict(self):
        return {
            "frame_size": len(self.frame.elements),
            "equations": self.equations,
            "target_is_cover": self.target_is_cover,
            "violations": self.violations(),
        }


def karoubi_envelope(sys: CoverSystem) -> KaroubiEnvelope:
    """Build the way-below cover relation on the quasi-ideal frame and
    verify the six equations making it Karoubi isomorphic to the input.

    Applies to any monotone cut-idempotent system.  The frame is the
    envelope's ground set, so a frame of more than ``kernel.MAX_GROUND``
    elements raises ``CapExceededError``.  Each row of the envelope and
    of ``sq`` depends on its subset s of the frame only through the
    meet of s, and each column of ``sq_bar`` on whether the
    join of the column's subset holds the row's subset.  So the meet and
    the join of every subset are folded from the model's tables, the
    subsets are grouped by join (``by_join``) and the subset codes by
    principal quasi-ideal (``by_principal``) once, and the row at each
    meet is an OR of those groups over the elements way above it: k**2
    ORs in the frame size k and one lookup per row, where testing every
    (row, column) pair took 4**k steps.
    """
    fm = frame_model(sys)
    els = fm.elements
    k = len(els)
    ground_q = GroundSet(tuple(f"Q{i}" for i in range(k)))
    size_q = 1 << k
    size_s = sys.ground.num_subsets

    # the meet and the join of the elements in s, folded from its lowest member
    meets, joins = fm.meet_table, fm.join_table
    meet_idx = [fm.index[fm.top]] * size_q
    join_idx = [fm.index[fm.bottom]] * size_q
    for s in range(1, size_q):
        low = s & -s
        rest = s ^ low
        li = low.bit_length() - 1
        m = meets[meet_idx[rest]][li]
        if m < 0:
            raise TheoremViolationError("meet of quasi-ideals escaped the model")
        j = joins[join_idx[rest]][li]
        if j < 0:
            raise fm.escaped()
        meet_idx[s] = m
        join_idx[s] = j

    # by_join[j]: the subsets of the frame whose join is element j;
    # by_principal[j]: the subset codes whose principal quasi-ideal is j
    by_join = [0] * k
    for s, j in enumerate(join_idx):
        by_join[j] |= 1 << s
    cols = sys.rel.cols()
    by_principal = [0] * k
    for g in range(size_s):
        col = cols[g]
        if not is_quasi_ideal(sys, col):
            raise TheoremViolationError(
                "column polar is not a quasi-ideal despite cut-idempotence"
            )
        by_principal[fm.index[col]] |= 1 << g

    # the rows of the envelope and of sq at a meet: the groups of the
    # elements way above it
    env_at, sq_at = [], []
    for above in fm.way_below_matrix:
        env_row = sq_row = 0
        for j in iter_bits(above):
            env_row |= by_join[j]
            sq_row |= by_principal[j]
        env_at.append(env_row)
        sq_at.append(sq_row)
    env_rel = Relation(ground_q, ground_q, [env_at[m] for m in meet_idx])
    target = CoverSystem(ground_q, env_rel, f"envelope({sys.name or 'system'})")
    sq = Relation(ground_q, sys.ground, [sq_at[m] for m in meet_idx])

    sq_bar_rows = []
    for f in range(size_s):
        row = 0
        for j, element in enumerate(els):
            if element >> f & 1:
                row |= by_join[j]
        sq_bar_rows.append(row)
    sq_bar = Relation(sys.ground, ground_q, sq_bar_rows)

    equations = {
        "sq_after_base": cut_compose(sq, sys.rel) == sq,
        "envelope_before_sq": cut_compose(env_rel, sq) == sq,
        "sq_bar_after_envelope": cut_compose(sq_bar, env_rel) == sq_bar,
        "base_before_sq_bar": cut_compose(sys.rel, sq_bar) == sq_bar,
        "round_trip_is_base": cut_compose(sq_bar, sq) == sys.rel,
        "round_trip_is_envelope": cut_compose(sq, sq_bar) == env_rel,
    }
    return KaroubiEnvelope(
        system=sys,
        frame=fm,
        target=target,
        sq=sq,
        sq_bar=sq_bar,
        equations=equations,
        target_is_cover=target.classification.is_cover,
    )


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def frame_hasse_dot(fm: FrameModel, name: str = "frame") -> str:
    """Quasi-ideal lattice as a Hasse diagram."""
    els = fm.elements
    labels = {}
    from .spectrum import dot_id, subset_label

    for m in els:
        parts = [subset_label(fm.system.ground, f) for f in iter_bits(m)]
        labels[m] = dot_id("[" + " ".join(parts) + "]")
    lines = [f"graph {name} {{"]
    for m in els:
        lines.append(f"  {labels[m]};")
    for a in els:
        for b in els:
            if a == b or a & ~b:
                continue
            if any(c != a and c != b and a & ~c == 0 and c & ~b == 0 for c in els):
                continue
            lines.append(f"  {labels[a]} -- {labels[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def frame_elements_json(fm: FrameModel) -> list[list[list[str]]]:
    """Each quasi-ideal as a sorted list of subsets, each a name list."""
    out = []
    for m in fm.elements:
        out.append([
            [fm.system.ground.names[i] for i in iter_bits(f)]
            for f in iter_bits(m)
        ])
    return out
