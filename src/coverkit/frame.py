"""Quasi-ideals and the stably continuous frame they form.

A quasi-ideal is a family of finite subsets equal to its own downset,
where the downset of a family collects every subset entailing all the
selections of some finite subfamily.  Finitely, the whole family is an
optimal subfamily witness (selections only shrink as the family grows),
so the downset is a single bit-parallel scan.

For monotone cut-idempotent systems the quasi-ideals form a complete
lattice: meets are intersections, joins are downsets of unions, and the
way-below relation has a finite witness form.  ``verify_frame_laws``
cross-checks that form against the lattice-theoretic definition via
directed joins in one pass over the subsets of the frame
(``directed_way_below_matrix``); the literal per-pair search is the test
oracle ``way_below_directed`` in ``tests/oracles.py``.

The frame model built with the defaults (``frame_model(sys)``) is cached
on the system, so ``verify_open_iso``, ``karoubi_envelope`` and the CLI's
``frame`` command share one build; the spectrum comes from the cached
accessor ``spectrum.spectrum``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import (
    CapExceededError,
    Family,
    GroundSet,
    TheoremViolationError,
    iter_bits,
    joins_of,
    meets_of,
    selections_mask,
)
from .relations import CoverSystem, Relation
from .composition import cut_compose

EXHAUSTIVE_MAX_GROUND = 4
GENERATED_DEFAULT_CAP = 4096
KAROUBI_DEFAULT_CAP = 12


def _require_cut_idempotent(sys: CoverSystem):
    cls = sys.classification
    if not cls.is_monotone:
        raise ValueError("quasi-ideal machinery requires a monotone relation")
    # cut-idempotence: the self-composition equals the relation
    composed = cut_compose(sys.rel, sys.rel)
    if composed != sys.rel:
        raise ValueError("quasi-ideal machinery requires a cut-idempotent relation")


def downset_mask(sys: CoverSystem, fam_mask: int) -> int:
    sel = selections_mask(sys.ground.size, fam_mask)
    out = 0
    for f, row in enumerate(sys.rel.rows):
        if row & sel == sel:
            out |= 1 << f
    return out


def downset(sys: CoverSystem, fam: Family) -> Family:
    """The least quasi-ideal containing the family; idempotent."""
    if fam.ground != sys.ground:
        raise ValueError("family over a different ground set")
    _require_cut_idempotent(sys)
    return Family(sys.ground, downset_mask(sys, fam.mask))


def is_quasi_ideal(sys: CoverSystem, fam_mask: int) -> bool:
    return downset_mask(sys, fam_mask) == fam_mask


def principal_mask(sys: CoverSystem, gcode: int) -> int:
    """Column polar {F : F entails G}, the principal quasi-ideal of G."""
    return sys.rel.cols()[gcode]


class FrameModel:
    """The lattice of quasi-ideals of one system.

    ``elements`` holds the quasi-ideals as family masks in ascending
    order.  ``complete`` records whether the element list provably
    exhausts all quasi-ideals (always in exhaustive mode; in generated
    mode exactly when the system is divisible, since then the principal
    quasi-ideals generate).
    """

    def __init__(self, sys: CoverSystem, elements, mode: str, complete: bool):
        self.system = sys
        self.elements = tuple(sorted(elements))
        self.index = {m: i for i, m in enumerate(self.elements)}
        self.mode = mode
        self.complete = complete
        k = len(self.elements)
        self._sel = [selections_mask(sys.ground.size, m) for m in self.elements]
        rows = sys.rel.rows
        # goodrows[r] = mask of F-codes entailing every selection of element r
        self._goodrows = []
        for sel in self._sel:
            g = 0
            for f, row in enumerate(rows):
                if row & sel == sel:
                    g |= 1 << f
            self._goodrows.append(g)
        self.way_below_matrix = [
            sum(
                1 << r
                for r in range(k)
                if self.elements[q] & ~self._goodrows[r] == 0
            )
            for q in range(k)
        ]

    # -- lattice structure --

    def __len__(self):
        return len(self.elements)

    @property
    def bottom(self) -> int:
        return self.elements[0]

    @property
    def top(self) -> int:
        return self.elements[-1]

    def leq(self, a: int, b: int) -> bool:
        return a & ~b == 0

    def meet(self, a: int, b: int) -> int:
        m = a & b
        if m not in self.index:
            raise TheoremViolationError("meet of quasi-ideals escaped the model")
        return m

    def join(self, a: int, b: int) -> int:
        return self.join_union(a | b)

    def join_all(self, masks) -> int:
        u = 0
        for m in masks:
            u |= m
        return self.join_union(u)

    def join_union(self, u: int) -> int:
        """The downset of the family ``u``: the join of any quasi-ideals
        whose union is ``u``.  Raises if it is not an element of the model."""
        j = downset_mask(self.system, u)
        if j not in self.index:
            if self.complete:
                raise TheoremViolationError("join of quasi-ideals escaped the model")
            raise CapExceededError("join escaped an incomplete generated model")
        return j

    def meet_all(self, masks) -> int:
        out = self.top
        for m in masks:
            out &= m
        if out not in self.index:
            raise TheoremViolationError("meet of quasi-ideals escaped the model")
        return out

    def way_below(self, q: int, r: int) -> bool:
        qi, ri = self.index[q], self.index[r]
        return bool(self.way_below_matrix[qi] >> ri & 1)

    def __repr__(self):
        return f"FrameModel({self.system!r}, {len(self.elements)} quasi-ideals, {self.mode})"


def frame_model(sys: CoverSystem, mode: str = "auto",
                cap: int = GENERATED_DEFAULT_CAP) -> FrameModel:
    """Build the quasi-ideal lattice.

    Exhaustive mode scans every family of finite subsets (feasible for
    ground sets of at most four elements since each quasi-ideal is its
    own downset); generated mode closes the principal quasi-ideals under
    binary joins and meets, which provably reaches everything when the
    system is divisible and is flagged incomplete otherwise.

    With the defaults (``mode="auto"`` and the default cap) the model is
    built once per system and cached on it; any other mode or cap builds
    a fresh model.  Only a successful build is cached, so a system that
    is not monotone and cut-idempotent raises ``ValueError`` on every call.
    """
    if mode == "auto" and cap == GENERATED_DEFAULT_CAP:
        if sys._frame is None:
            sys._frame = _build_frame_model(sys, mode, cap)
        return sys._frame
    return _build_frame_model(sys, mode, cap)


def _build_frame_model(sys: CoverSystem, mode: str, cap: int) -> FrameModel:
    _require_cut_idempotent(sys)
    n = sys.ground.size
    if mode == "auto":
        mode = "exhaustive" if n <= EXHAUSTIVE_MAX_GROUND else "generated"
    if mode == "exhaustive":
        if n > EXHAUSTIVE_MAX_GROUND:
            raise CapExceededError(
                f"exhaustive quasi-ideal enumeration is gated to |S| <= {EXHAUSTIVE_MAX_GROUND}"
            )
        seen = set()
        for fam in range(1 << sys.ground.num_subsets):
            seen.add(downset_mask(sys, fam))
        return FrameModel(sys, seen, "exhaustive", complete=True)
    if mode != "generated":
        raise ValueError(f"unknown frame mode {mode!r}")
    size = sys.ground.num_subsets
    seeds = {downset_mask(sys, 0), downset_mask(sys, (1 << size) - 1)}
    for f in range(size):
        seeds.add(downset_mask(sys, 1 << f))
    elements = set(seeds)
    frontier = set(seeds)
    while frontier:
        new = set()
        for a in frontier:
            for b in elements:
                for c in (a & b, downset_mask(sys, a | b)):
                    if c not in elements and c not in new:
                        new.add(c)
        elements |= new
        if len(elements) > cap:
            raise CapExceededError(f"generated frame exceeded cap {cap}")
        frontier = new
    complete = sys.classification.is_divisible
    return FrameModel(sys, elements, "generated", complete=complete)


def way_below(fm: FrameModel, q, r) -> bool:
    """Finite witness form of the approximation order.

    True iff every member of q entails every selection of r.
    """
    qm = q.mask if isinstance(q, Family) else q
    rm = r.mask if isinstance(r, Family) else r
    if qm not in fm.index or rm not in fm.index:
        raise ValueError("arguments must be quasi-ideals of the model")
    return fm.way_below(qm, rm)


def directed_way_below_matrix(fm: FrameModel) -> list[int]:
    """The lattice-theoretic approximation order, in the layout of
    ``fm.way_below_matrix``: bit r of row q is set iff every directed set
    of quasi-ideals whose join dominates element r has a member
    dominating element q.

    One pass over the non-empty subsets D of the frame decides, from D
    without its lowest member, whether D is directed (a finite set is
    directed iff it has a greatest member), the union of D and the
    elements D dominates; each directed D then marks the elements below
    its join as failing for every q it does not dominate.  A join that
    escapes the model raises, as ``FrameModel.join_all`` does.
    Exponential in the frame size, so gated to 14 elements.
    """
    els = fm.elements
    k = len(els)
    if k > 14:
        raise CapExceededError("directed-join oracle gated to 14 frame elements")
    # below[i]: the indices of the elements contained in element i
    below = [sum(1 << j for j, b in enumerate(els) if b & ~a == 0) for a in els]
    full = (1 << k) - 1
    union = [0] * (1 << k)
    dominated = [0] * (1 << k)
    greatest = [-1] * (1 << k)
    join_below = {}
    fails = [0] * k
    for d in range(1, 1 << k):
        low = d & -d
        i = low.bit_length() - 1
        rest = d ^ low
        union[d] = union[rest] | els[i]
        dominated[d] = dominated[rest] | below[i]
        if rest & ~below[i] == 0:
            greatest[d] = i
        elif greatest[rest] >= 0 and below[greatest[rest]] >> i & 1:
            greatest[d] = greatest[rest]
        else:
            continue
        u = union[d]
        jb = join_below.get(u)
        if jb is None:
            jb = join_below[u] = below[fm.index[fm.join_union(u)]]
        for q in iter_bits(full & ~dominated[d]):
            fails[q] |= jb
    return [full & ~f for f in fails]


# ---------------------------------------------------------------------------
# frame laws
# ---------------------------------------------------------------------------

@dataclass
class FrameLawsReport:
    distributive: bool
    continuous: bool
    stable: bool
    way_below_consistent: bool | None
    divisible: bool
    principal_joins_hold: bool
    principal_joins_witness: str | None
    finite_union_joins_hold: bool
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
        if self.divisible and not self.finite_union_joins_hold:
            out.append("downset of a union must be the join for divisible systems")
        if self.divisible and self.vdash_matches_principal_order is False:
            out.append("derived relation must match principal containment")
        if self.divisible and self.entails_matches_way_below is not None:
            if self.entails_matches_way_below != self.cover:
                out.append("way-below form of the relation must hold exactly on covers")
        return out

    def to_dict(self):
        return {
            "distributive": self.distributive,
            "continuous": self.continuous,
            "stable": self.stable,
            "way_below_consistent": self.way_below_consistent,
            "divisible": self.divisible,
            "principal_joins_hold": self.principal_joins_hold,
            "principal_joins_witness": self.principal_joins_witness,
            "finite_union_joins_hold": self.finite_union_joins_hold,
            "cover": self.cover,
            "vdash_matches_principal_order": self.vdash_matches_principal_order,
            "entails_matches_way_below": self.entails_matches_way_below,
            "violations": self.violations(),
        }


def verify_frame_laws(fm: FrameModel, way_below_oracle: bool = None) -> FrameLawsReport:
    """Check the frame structure and its interaction with the system.

    Binary distributivity suffices finitely (arbitrary joins are finite
    joins here).  The directed-join cross-check of way-below runs when
    the frame has at most 10 elements, or when explicitly requested, as
    one pass over the subsets of the frame (``directed_way_below_matrix``;
    the literal per-pair search is the oracle in ``tests/oracles.py``).
    The union-join law is decided by lookups in a table of downsets built
    once per call, of every family for |S| <= 3 and of every singleton
    family above.  Nothing is cached here; ``frame_model`` caches the
    model on the system.
    """
    sys = fm.system
    els = fm.elements
    k = len(els)

    join_tab = {}

    def join_of(a, b):
        got = join_tab.get((a, b))
        if got is None:
            got = fm.join(a, b)
            join_tab[(a, b)] = got
        return got

    distributive = True
    for a in els:
        for b in els:
            jab = join_of(a, b)
            for c in els:
                if c & jab != join_of(c & a, c & b):
                    distributive = False
                    break
            if not distributive:
                break
        if not distributive:
            break

    continuous = all(
        fm.join_all(
            [els[r] for r in iter_bits_below(fm, qi)]
        ) == els[qi]
        for qi in range(k)
    )

    stable = True
    for q in els:
        below = [r for r in els if fm.way_below(q, r)]
        for i, r1 in enumerate(below):
            for r2 in below[i:]:
                if not fm.way_below(q, fm.meet(r1, r2)):
                    stable = False
                    break
            if not stable:
                break
        if not stable:
            break

    if way_below_oracle is None:
        way_below_oracle = k <= 10
    wb_consistent = None
    if way_below_oracle:
        wb_consistent = directed_way_below_matrix(fm) == fm.way_below_matrix

    cls = sys.classification
    size = sys.ground.num_subsets
    cols = sys.rel.cols()
    # meet_of[f]: the meet of the principal quasi-ideals of F's members;
    # principal_join[g]: the join of those of G's members
    singletons = [cols[1 << i] for i in range(sys.ground.size)]
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

    if sys.ground.size <= 3:
        # every pair of families, against the downset of each family
        down = [downset_mask(sys, fam) for fam in range(1 << size)]
        union_joins = all(
            down[fa | fb] == down[da | db]
            for fa, da in enumerate(down) for fb, db in enumerate(down)
        )
    else:
        # every pair of singleton families
        single = [downset_mask(sys, 1 << f) for f in range(size)]
        union_joins = all(
            downset_mask(sys, 1 << f | 1 << g) == downset_mask(sys, single[f] | single[g])
            for f in range(size) for g in range(size)
        )

    vdash_ok = None
    entails_wb = None
    if cls.is_divisible and fm.complete:
        from .axioms import derive_vdash

        vdash = derive_vdash(sys)
        vdash_ok = True
        entails_wb = True
        for f, meet_f in enumerate(meet_of):
            for g in range(size):
                join_g = principal_join[g]
                if (vdash.rows[f] >> g & 1) != fm.leq(meet_f, join_g):
                    vdash_ok = False
                if meet_f in fm.index and join_g in fm.index:
                    wb = fm.way_below(meet_f, join_g)
                else:
                    wb = False
                if (sys.rel.rows[f] >> g & 1) != wb:
                    entails_wb = False

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


def iter_bits_below(fm: FrameModel, qi: int):
    """Indices of elements way below element qi."""
    return [
        r for r in range(len(fm.elements))
        if fm.way_below_matrix[r] >> qi & 1
    ]


# ---------------------------------------------------------------------------
# open-set order isomorphism
# ---------------------------------------------------------------------------

@dataclass
class OpenIsoReport:
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

    def passed(self):
        return self.bijective and self.order_isomorphism and self.meets_correspond

    def violations(self):
        return [] if self.passed() else ["quasi-ideal / open-set correspondence failed"]

    def to_dict(self):
        return {
            "bijective": self.bijective,
            "order_isomorphism": self.order_isomorphism,
            "meets_correspond": self.meets_correspond,
            "frame_size": self.frame_size,
            "opens_size": self.opens_size,
            "empty_set_tight": self.empty_set_tight,
            "collapsed_top": self.collapsed_top,
            "violations": self.violations(),
        }


def verify_open_iso(sys: CoverSystem) -> OpenIsoReport:
    """The map sending a quasi-ideal to the union of its basic opens must
    be an order isomorphism onto the spectrum's open-set lattice."""
    if not sys.classification.is_strong_idempotent:
        raise ValueError("the open-set correspondence requires a strong idempotent")
    from .spectrum import is_prime, is_round, spectrum

    fm = frame_model(sys)
    spec = spectrum(sys)
    empty_tight = is_round(sys, 0) and is_prime(sys, 0)

    def open_of(qmask: int) -> int:
        out = 0
        for f in iter_bits(qmask):
            out |= spec.basic_open(f)
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
        open_of(a & b) == (open_of(a) & open_of(b))
        for a in elements for b in elements
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


def karoubi_envelope(sys: CoverSystem, cap: int = KAROUBI_DEFAULT_CAP) -> KaroubiEnvelope:
    """Build the way-below cover relation on the quasi-ideal frame and
    verify the six equations making it Karoubi isomorphic to the input.

    Applies to any monotone cut-idempotent system.
    """
    fm = frame_model(sys)
    k = len(fm.elements)
    if k > cap:
        raise CapExceededError(f"frame has {k} quasi-ideals, cap is {cap}")
    ground_q = GroundSet(tuple(f"Q{i}" for i in range(k)))
    size_q = 1 << k
    size_s = sys.ground.num_subsets

    top_idx = fm.index[fm.top]
    bottom_idx = fm.index[fm.bottom]
    meet_idx = [top_idx] * size_q
    join_idx = [bottom_idx] * size_q
    for s in range(1, size_q):
        low = s & -s
        rest = s ^ low
        li = low.bit_length() - 1
        meet_idx[s] = fm.index[fm.elements[meet_idx[rest]] & fm.elements[li]]
        join_idx[s] = fm.index[
            downset_mask(sys, fm.elements[join_idx[rest]] | fm.elements[li])
        ]

    wb = fm.way_below_matrix
    env_rows = []
    for s in range(size_q):
        mi = meet_idx[s]
        row = 0
        for g in range(size_q):
            if wb[mi] >> join_idx[g] & 1:
                row |= 1 << g
        env_rows.append(row)
    env_rel = Relation(ground_q, ground_q, env_rows, allow_large=True)
    target = CoverSystem(ground_q, env_rel, f"envelope({sys.name or 'system'})")

    cols = sys.rel.cols()
    principal_idx = []
    for g in range(size_s):
        col = cols[g]
        if not is_quasi_ideal(sys, col):
            raise TheoremViolationError(
                "column polar is not a quasi-ideal despite cut-idempotence"
            )
        principal_idx.append(fm.index[col])

    sq_rows = []
    for s in range(size_q):
        mi = meet_idx[s]
        row = 0
        for g in range(size_s):
            if wb[mi] >> principal_idx[g] & 1:
                row |= 1 << g
        sq_rows.append(row)
    sq = Relation(ground_q, sys.ground, sq_rows, allow_large=True)

    sq_bar_rows = []
    for f in range(size_s):
        row = 0
        for g in range(size_q):
            if fm.elements[join_idx[g]] >> f & 1:
                row |= 1 << g
        sq_bar_rows.append(row)
    sq_bar = Relation(sys.ground, ground_q, sq_bar_rows, allow_large=True)

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
    from .spectrum import subset_label

    for m in els:
        parts = [subset_label(fm.system.ground, f) for f in iter_bits(m)]
        labels[m] = "[" + " ".join(parts) + "]"
    lines = [f"graph {name} {{"]
    for m in els:
        lines.append(f'  "{labels[m]}";')
    for a in els:
        for b in els:
            if a == b or a & ~b:
                continue
            if any(c != a and c != b and a & ~c == 0 and c & ~b == 0 for c in els):
                continue
            lines.append(f'  "{labels[a]}" -- "{labels[b]}";')
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
