"""Constructors producing cover systems from standard order-theoretic data.

Each cover builder relates F to G by comparing one value computed from
F with one computed from G, and returns a CoverSystem; none of them
enforce a classification.  The values are computed once per subset (the
intersection or union of its members by ``kernel.meets_of`` and
``kernel.joins_of``, the meet and join of its elements by
``_subset_bounds``).  The lattice, semilattice, orthogonality,
proximity and convexity covers are each one ``kernel.meeting_rows`` of
keys chosen so that the relation is "the keys meet" or its complement,
each distinct key getting its row once; their literal pairwise scans
are test oracles.  ``topology_cover``'s rows are the compact-containment
matrix ``spectrum.compact_rows`` of the subbasis intersections in the
subbasis unions.  Negative instances (a non-distributive lattice, a
non-Kakutani convexity) are first-class outputs whose attached
classification records the failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import GroundSet, iter_bits, joins_of, meeting_rows, meets_of, memo, tables
from .relations import CoverSystem, Relation
from .spectrum import FiniteSpace, compact_rows, escaped_name


# ---------------------------------------------------------------------------
# order-theoretic input types
# ---------------------------------------------------------------------------

def _transitive_close(rows: list[int]) -> list[int]:
    """Close the row masks ``rows`` (row i: the mask of the j related to
    i) under transitivity, in place, and return them."""
    changed = True
    while changed:
        changed = False
        for i, row in enumerate(rows):
            acc = row
            for j in iter_bits(row):
                acc |= rows[j]
            if acc != row:
                rows[i] = acc
                changed = True
    return rows


def _closure_pairs(elements, pairs) -> tuple[int, ...]:
    """Reflexive-transitive closure of pairs of element names, as row
    masks."""
    idx = {e: i for i, e in enumerate(elements)}
    rows = [1 << i for i in range(len(elements))]
    for a, b in pairs:
        rows[idx[a]] |= 1 << idx[b]
    return tuple(_transitive_close(rows))


def _order_fault(elements, rows):
    """Why ``rows`` (row i: the mask of the j with i <= j) is not a
    partial order on ``elements``, else None."""
    for i, row in enumerate(rows):
        if not row >> i & 1:
            return f"{elements[i]} is not below itself"
        for j in iter_bits(row):
            if i != j and rows[j] >> i & 1:
                return f"{elements[i]} and {elements[j]} lie below each other"
            if rows[j] & ~row:
                return f"{elements[i]} <= {elements[j]} is not transitive"
    return None


def _check_order(elements, rows):
    fault = _order_fault(elements, rows)
    if fault is not None:
        raise ValueError(f"leq is not a partial order: {fault}")


def _bound_table(elements, cones, what: str) -> list[list[int]]:
    """The greatest lower (least upper) bound of every pair of elements of
    a partial order, from each element's down-set (up-set) mask ``cones``.

    i and j have a bound iff the common part of their cones is the cone
    of one element, and that element is the bound; distinct elements have
    distinct cones, so each pair is one dict lookup.  The first pair in
    row-major order without a bound raises ValueError naming it.
    """
    of_cone = {c: k for k, c in enumerate(cones)}
    table = []
    for i, ci in enumerate(cones):
        row = [of_cone.get(ci & cj) for cj in cones]
        if None in row:
            j = row.index(None)
            raise ValueError(f"no {what} for {elements[i]},{elements[j]}")
        table.append(row)
    return table


@dataclass(frozen=True)
class FiniteLattice:
    """Labelled finite lattice given by its order; meet/join are computed
    as unique greatest lower / least upper bounds."""

    elements: tuple[str, ...]
    leq: tuple[int, ...]  # leq[i] = mask of j with i <= j

    def __post_init__(self):
        _check_order(self.elements, self.leq)
        self.meet_table, self.join_table  # force existence checks

    @staticmethod
    def from_pairs(elements, pairs) -> "FiniteLattice":
        """The lattice ordered by the reflexive-transitive closure of
        ``pairs``; a cycle among the pairs raises ValueError naming two
        elements on it."""
        elements = tuple(elements)
        return FiniteLattice(elements, _closure_pairs(elements, pairs))

    @staticmethod
    def from_semilattice_pairs(elements, pairs) -> "FiniteLattice":
        """The join-semilattice with a minimum ordered by the
        reflexive-transitive closure of ``pairs``, which is a lattice: the
        meet of a and b is the join of their common lower bounds, a finite
        set that holds the minimum.  A cycle raises ValueError as in
        ``from_pairs``, then an order without a least element "semilattice
        must have a minimum", then one missing a join the error naming the
        first pair without one."""
        elements = tuple(elements)
        rows = _closure_pairs(elements, pairs)
        _check_order(elements, rows)
        if (1 << len(elements)) - 1 not in rows:
            raise ValueError("semilattice must have a minimum")
        _bound_table(elements, rows, "join")
        return FiniteLattice(elements, rows)

    @property
    def size(self) -> int:
        return len(self.elements)

    @memo
    def downs(self) -> tuple[int, ...]:
        """downs[j] = mask of i with i <= j: the transpose of ``leq``, one
        OR per related pair."""
        downs = [0] * self.size
        for i, up in enumerate(self.leq):
            for j in iter_bits(up):
                downs[j] |= 1 << i
        return tuple(downs)

    @memo
    def meet_table(self):
        return _bound_table(self.elements, self.downs, "meet")

    @memo
    def join_table(self):
        return _bound_table(self.elements, self.leq, "join")

    @memo
    def bottom(self):
        """The least element; only the empty lattice has none (None)."""
        full = (1 << self.size) - 1
        return next((i for i, up in enumerate(self.leq) if up == full), None)

    @memo
    def top(self):
        """The greatest element; only the empty lattice has none (None)."""
        full = (1 << self.size) - 1
        return next((j for j, down in enumerate(self.downs) if down == full), None)

    def is_distributive(self) -> bool:
        n = self.size
        mt, jt = self.meet_table, self.join_table
        return all(
            mt[a][jt[b][c]] == jt[mt[a][b]][mt[a][c]]
            for a in range(n) for b in range(n) for c in range(n)
        )


@dataclass(frozen=True)
class TransitiveRelation:
    """A transitive (not necessarily reflexive) relation on labelled points."""

    elements: tuple[str, ...]
    lt: tuple[int, ...]  # lt[i] = mask of j with i < j

    def __post_init__(self):
        n = len(self.elements)
        for i in range(n):
            for j in iter_bits(self.lt[i]):
                if self.lt[j] & ~self.lt[i]:
                    raise ValueError("relation is not transitive")

    @staticmethod
    def from_pairs(elements, pairs, transitive_close=False) -> "TransitiveRelation":
        elements = tuple(elements)
        idx = {e: i for i, e in enumerate(elements)}
        rows = [0] * len(elements)
        for a, b in pairs:
            rows[idx[a]] |= 1 << idx[b]
        if transitive_close:
            _transitive_close(rows)
        return TransitiveRelation(elements, tuple(rows))

    @property
    def size(self):
        return len(self.elements)

    @memo
    def below(self) -> tuple[int, ...]:
        """below[j] = mask of i with i < j (strict predecessors)."""
        n = self.size
        return tuple(
            sum(1 << i for i in range(n) if self.lt[i] >> j & 1) for j in range(n)
        )

    @memo
    def rounded(self) -> bool:
        """Every element has a strict predecessor."""
        return all(self.below[j] for j in range(self.size))


@dataclass(frozen=True)
class Convexity:
    """An intersection-closed family of subsets containing the empty set
    and the whole point set."""

    elements: tuple[str, ...]
    convex_sets: tuple[int, ...]

    def __post_init__(self):
        full = (1 << len(self.elements)) - 1
        fam = set(self.convex_sets)
        if tuple(sorted(fam)) != self.convex_sets:
            raise ValueError("convex sets must be sorted and duplicate-free")
        if 0 not in fam or full not in fam:
            raise ValueError("convexity must contain the empty set and the whole set")
        for a in fam:
            for b in fam:
                if a & b not in fam:
                    raise ValueError("convexity must be intersection-closed")

    @property
    def size(self):
        return len(self.elements)

    @memo
    def hull(self) -> tuple[int, ...]:
        out = []
        for code in range(1 << self.size):
            h = (1 << self.size) - 1
            for c in self.convex_sets:
                if code & ~c == 0:
                    h &= c
            out.append(h)
        return tuple(out)

    @memo
    def kakutani(self) -> bool:
        fam = self.convex_sets
        full = (1 << self.size) - 1
        cset = set(fam)
        for c in fam:
            for d in fam:
                if c & d:
                    continue
                if not any(
                    c & ~h == 0 and d & h == 0 and (full & ~h) in cset for h in fam
                ):
                    return False
        return True


@dataclass(frozen=True)
class ProximityLattice:
    """An idempotent relation with a minimum whose derived order carries a
    lattice structure compatible with the relation."""

    elements: tuple[str, ...]
    prox: tuple[int, ...]  # prox[i] = mask of j with i < j

    def __post_init__(self):
        self.lattice  # forces all validation

    @property
    def size(self):
        return len(self.elements)

    @memo
    def below(self) -> tuple[int, ...]:
        n = self.size
        return tuple(
            sum(1 << i for i in range(n) if self.prox[i] >> j & 1) for j in range(n)
        )

    @memo
    def derived_leq(self) -> tuple[int, ...]:
        n = self.size
        return tuple(
            sum(1 << j for j in range(n) if self.below[i] & ~self.below[j] == 0)
            for i in range(n)
        )

    @memo
    def lattice(self) -> FiniteLattice:
        n = self.size
        # idempotence: < equals its composition with itself
        comp = [0] * n
        for i in range(n):
            for j in iter_bits(self.prox[i]):
                comp[i] |= self.prox[j]
        if tuple(comp) != self.prox:
            raise ValueError("proximity must be idempotent")
        if not any(self.prox[z] == (1 << n) - 1 for z in range(n)):
            raise ValueError("proximity must have a minimum related to everything")
        leq = self.derived_leq
        for i in range(n):
            for j in range(n):
                if leq[i] >> j & 1 and leq[j] >> i & 1 and i != j:
                    raise ValueError("derived order must be antisymmetric")
        lat = FiniteLattice(self.elements, leq)
        # both mixed chains must collapse into the proximity
        for p in range(n):
            for q in range(n):
                for r in range(n):
                    if leq[p] >> q & 1 and self.prox[q] >> r & 1:
                        if not self.prox[p] >> r & 1:
                            raise ValueError("order-then-proximity must be proximity")
                    if self.prox[p] >> q & 1 and leq[q] >> r & 1:
                        if not self.prox[p] >> r & 1:
                            raise ValueError("proximity-then-order must be proximity")
        mt, jt = lat.meet_table, lat.join_table
        for p in range(n):
            for q in iter_bits(self.prox[p]):
                for r in range(n):
                    for s in iter_bits(self.prox[r]):
                        if not self.prox[mt[p][r]] >> mt[q][s] & 1:
                            raise ValueError("proximity must respect meets")
                        if not self.prox[jt[p][r]] >> jt[q][s] & 1:
                            raise ValueError("proximity must respect joins")
        return lat


# ---------------------------------------------------------------------------
# cover-system builders
# ---------------------------------------------------------------------------

def _ground_of(elements) -> GroundSet:
    return GroundSet(tuple(elements))


def _subset_bounds(lat: FiniteLattice) -> tuple[list, list]:
    """The meet and the join of every subset code over the lattice's
    elements, as element indices: the top and the bottom for the empty
    code (None for the empty lattice), each other entry folded from the
    code without its lowest element."""
    size = 1 << lat.size
    mt, jt = lat.meet_table, lat.join_table
    meets = [lat.top] * size
    joins = [lat.bottom] * size
    for c in range(1, size):
        low = c & -c
        i = low.bit_length() - 1
        meets[c] = mt[i][meets[c ^ low]]
        joins[c] = jt[i][joins[c ^ low]]
    return meets, joins


def lattice_cover(lat: FiniteLattice, name: str = "") -> CoverSystem:
    """Meet-below-join relation on a lattice.

    The empty meet is the top and the empty join the bottom; the empty
    lattice has neither, and its one row is all false.  The meet of F
    lies below the join of G iff the up-set of the meet holds the join:
    the ``meeting_rows`` of those keys.
    """
    ground = _ground_of(lat.elements)
    meets, joins = _subset_bounds(lat)
    rows = (meeting_rows(list(map(lat.leq.__getitem__, meets)), [1 << j for j in joins])
            if lat.size else [0])
    return CoverSystem(ground, Relation(ground, ground, rows), name or "lattice")


def semilattice_cover(lat: FiniteLattice, name: str = "") -> CoverSystem:
    """Join-semilattice cover: F entails G when every bound p <= f v q
    for all f in F transfers to p <= (join of G) v q, quantified over all
    p, q.  The join of the empty G is the bottom.

    Over the n**2 pairs (p, q), ``bound[x]`` is the mask of those with
    p <= x v q: F entails G iff the AND of ``bound`` over F lies inside
    ``bound`` at the join of G, that is, misses its complement, so the
    rows are the complement of ``meeting_rows`` of those keys.
    """
    ground = _ground_of(lat.elements)
    n = lat.size
    leq, jt = lat.leq, lat.join_table
    bound = [sum(1 << (p * n + q) for p in range(n) for q in range(n)
                 if leq[p] >> jt[x][q] & 1) for x in range(n)]
    pairs = (1 << n * n) - 1
    joins = _subset_bounds(lat)[1]
    missed = meeting_rows(meets_of(pairs, bound), [pairs ^ bound[j] for j in joins])
    every = (1 << ground.num_subsets) - 1
    rows = [every ^ row for row in missed]
    return CoverSystem(ground, Relation(ground, ground, rows), name or "semilattice")


def is_distributive_semilattice(lat: FiniteLattice) -> bool:
    """Distributivity in the operative sense: the quantified cover
    coincides with its reduced form, every common lower bound of F below
    the join of G.  The common lower bounds of F are the elements below
    its meet, so the reduced form is ``lattice_cover``."""
    return semilattice_cover(lat).rel == lattice_cover(lat).rel


def perp_cover(tr: TransitiveRelation, name: str = "") -> CoverSystem:
    """Orthogonality cover of a transitive relation: F entails G when no
    common predecessor of F is orthogonal to all of G.  s is orthogonal
    to t when their predecessor sets do not meet, so both the order and
    the rows are complements of ``meeting_rows``."""
    ground = _ground_of(tr.elements)
    full_el = (1 << tr.size) - 1
    perp = [full_el ^ row for row in meeting_rows(tr.below, tr.below)]
    every = (1 << ground.num_subsets) - 1
    rows = [every ^ row for row in
            meeting_rows(meets_of(full_el, tr.below), meets_of(full_el, perp))]
    return CoverSystem(ground, Relation(ground, ground, rows), name or "perp")


def scott_cover_conditions(base: CoverSystem, lt: TransitiveRelation) -> dict:
    """The three promises of the layered construction, each checked
    literally: single-element absorption, interpolation through the
    constructed relation, and descent from common predecessors."""
    sys = scott_cover_construct(base, lt)
    ground = base.ground
    n = ground.size
    size = ground.num_subsets
    rel = base.rel

    one_aux = True
    for f in range(size):
        row = rel.rows[f]
        for g in iter_bits(row):
            for s in range(n):
                target = (g & ~lt.below[s]) | (1 << s)
                if not row >> target & 1:
                    one_aux = False
                    break
            if not one_aux:
                break
        if not one_aux:
            break

    t = tables(n)
    interpolation = True
    for q in range(n):
        for r in iter_bits(lt.lt[q]):
            cand = sys.rel.rows[1 << q] & t.subsets[lt.below[r]]
            if not cand:
                interpolation = False
                break
        if not interpolation:
            break

    succ = True
    fdowns = meets_of((1 << n) - 1, lt.below)
    for f, fdown in enumerate(fdowns):
        for g in range(size):
            if rel.rows[f] >> g & 1:
                continue
            if all(rel.rows[1 << p] >> g & 1 for p in iter_bits(fdown)):
                succ = False
                break
        if not succ:
            break

    return {"one_aux": one_aux, "interpolation": interpolation, "succ": succ}


def scott_cover_construct(base: CoverSystem, lt: TransitiveRelation,
                          name: str = "") -> CoverSystem:
    """Compose a base relation with elementwise refinement along lt:
    F entails G when F relates (in the base) to some H entirely refined
    by G (each h below some g)."""
    ground = base.ground
    if tuple(ground.names) != lt.elements:
        raise ValueError("base system and relation must share elements")
    n = ground.size
    size = ground.num_subsets
    t = tables(n)
    above = []
    for h in range(n):
        succs = sum(1 << g for g in range(n) if lt.lt[h] >> g & 1)
        above.append(t.meets[succs])
    triangle = meets_of((1 << size) - 1, above)
    rows = []
    for f in range(size):
        m = 0
        for h_code in iter_bits(base.rel.rows[f]):
            m |= triangle[h_code]
        rows.append(m)
    return CoverSystem(ground, Relation(ground, ground, rows), name or "layered")


def proximity_cover(pl: ProximityLattice, name: str = "") -> CoverSystem:
    """F entails G when the meet of F lies below the join of some finite
    set of proximal predecessors of members of G: below the join of all
    of them, the ``meeting_rows`` of the up-set of the meet of F and the
    join of the union of G's predecessor sets."""
    lat = pl.lattice
    ground = _ground_of(pl.elements)
    meets, joins = _subset_bounds(lat)
    rows = meeting_rows(list(map(lat.leq.__getitem__, meets)),
                        [1 << joins[below] for below in joins_of(pl.below)])
    return CoverSystem(ground, Relation(ground, ground, rows), name or "proximity")


def convexity_entailment(cx: Convexity, name: str = "") -> CoverSystem:
    """F entails G when their convex hulls intersect, the
    ``meeting_rows`` of the hulls; symmetric by construction, a cut
    relation exactly for Kakutani convexities."""
    ground = _ground_of(cx.elements)
    rows = meeting_rows(cx.hull, cx.hull)
    return CoverSystem(ground, Relation(ground, ground, rows), name or "convexity")


def topology_cover(space: FiniteSpace, subbasis=None, name: str = "") -> CoverSystem:
    """Compact-containment cover of a space's subbasis: the intersection
    of F compactly contained in the union of G.  Each member is labelled
    "{" + its point names, escaped (``spectrum.escaped_name``), joined by
    "," + "}", so distinct members get distinct labels whatever their
    points are named.

    Tabulated: the intersection and the union of every subset of the
    subbasis are folded once, and the rows are ``compact_rows`` of the
    intersections in the unions.  ``space.cover_system`` caches this
    cover with the defaults on the space, and a call with the defaults
    (no subbasis, no name) keeps its build there when that cache is
    empty, so the space-side checks reuse its classification and
    spectrum.
    """
    defaults = subbasis is None and not name
    if subbasis is not None:
        space = FiniteSpace(space.points, space.opens, tuple(sorted(set(subbasis))))
    sub = space.subbasis
    labels = tuple(
        "{" + ",".join(map(escaped_name, space.point_names(s))) + "}" for s in sub
    )
    ground = GroundSet(labels)
    inters, unions = meets_of(space.full_mask, sub), joins_of(sub)
    rows = compact_rows(space, inters, unions)
    sys = CoverSystem(ground, Relation(ground, ground, rows), name or "topology")
    if defaults:
        vars(space).setdefault("cover_system", sys)
    return sys


# ---------------------------------------------------------------------------
# canonical fixtures
# ---------------------------------------------------------------------------

def meet_system(n: int = 2, name: str = "") -> CoverSystem:
    """The meet relation: F entails G iff they intersect."""
    from .kernel import all_groundsets_named

    ground = all_groundsets_named(n)
    rel = Relation.from_predicate(ground, ground, lambda f, g: bool(f & g))
    return CoverSystem(ground, rel, name or f"meet{n}")


def diagonal_system(base_size: int = 2, name: str = "") -> CoverSystem:
    """The diagonal relation on non-empty subsets of a small base set."""
    from .kernel import all_groundsets_named, diagonal_masks

    base = all_groundsets_named(base_size)
    member_masks = list(range(1, 1 << base_size))
    labels = tuple(
        "".join(base.names[i] for i in iter_bits(m)) for m in member_masks
    )
    ground = GroundSet(labels)

    def fam_of(code):
        fam = 0
        for i in iter_bits(code):
            fam |= 1 << member_masks[i]
        return fam

    rel = Relation.from_predicate(
        ground, ground,
        lambda f, g: diagonal_masks(base_size, fam_of(f), fam_of(g)),
    )
    return CoverSystem(ground, rel, name or f"diagonal{base_size}")


def boolean4_lattice() -> FiniteLattice:
    return FiniteLattice.from_pairs(
        ("0", "a", "b", "1"),
        [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
    )


def chain_lattice(k: int) -> FiniteLattice:
    names = tuple(f"c{i}" for i in range(k)) if k > 3 else ("0", "m", "1")[:k]
    return FiniteLattice.from_pairs(
        names, [(names[i], names[i + 1]) for i in range(k - 1)]
    )


def m3_lattice() -> FiniteLattice:
    return FiniteLattice.from_pairs(
        ("0", "x", "y", "z", "1"),
        [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")],
    )


def sierpinski_space() -> FiniteSpace:
    return FiniteSpace.from_named_sets(
        ("x0", "x1"),
        [[], ["x1"], ["x0", "x1"]],
        [["x1"], ["x0", "x1"]],
    )


def empty_system(n: int = 2) -> CoverSystem:
    from .kernel import all_groundsets_named

    ground = all_groundsets_named(n)
    return CoverSystem(ground, Relation.empty(ground), f"empty{n}")


def full_system(n: int = 2) -> CoverSystem:
    from .kernel import all_groundsets_named

    ground = all_groundsets_named(n)
    return CoverSystem(ground, Relation.full(ground), f"full{n}")


def anchored_meet_system(n: int = 2) -> CoverSystem:
    """F entails G iff both contain the first element: a strong idempotent
    that is neither 1-reflexive nor a cover."""
    from .kernel import all_groundsets_named

    ground = all_groundsets_named(n)
    rel = Relation.from_predicate(
        ground, ground, lambda f, g: bool(f & 1) and bool(g & 1)
    )
    return CoverSystem(ground, rel, f"anchored{n}")


def interpolation_gap_system() -> CoverSystem:
    """Monotone and cut-idempotent but not divisible: the whole-space
    element entails the pair {p, q} with no single-target refinement."""
    ground = GroundSet.of("x", "p", "q")
    rel = Relation.from_predicate(
        ground, ground,
        lambda f, g: bool(f & 1) and (bool(g & 1) or (g & 6) == 6),
    )
    return CoverSystem(ground, rel, "interpolation_gap")


CANONICAL_EXPECTED: dict[str, dict] = {}  # filled below


def canonical_small_systems() -> list[tuple[str, CoverSystem, dict]]:
    """The golden corpus with its expected classifications."""
    systems = [
        ("meet2", meet_system(2)),
        ("diagonal2", diagonal_system(2)),
        ("boolean4", lattice_cover(boolean4_lattice(), "boolean4")),
        ("chain3", lattice_cover(chain_lattice(3), "chain3")),
        ("sierpinski", topology_cover(sierpinski_space(), name="sierpinski")),
        ("m3", lattice_cover(m3_lattice(), "m3")),
    ]
    return [(name, sys, CANONICAL_EXPECTED[name]) for name, sys in systems]


def extra_fixture_systems() -> list[tuple[str, CoverSystem, dict]]:
    """Negative and boundary fixtures used across the test corpus."""
    systems = [
        ("empty2", empty_system(2)),
        ("full2", full_system(2)),
        ("anchored2", anchored_meet_system(2)),
        ("interpolation_gap", interpolation_gap_system()),
    ]
    return [(name, sys, CANONICAL_EXPECTED[name]) for name, sys in systems]


def corpus() -> list[tuple[str, CoverSystem, dict]]:
    return canonical_small_systems() + extra_fixture_systems()


def _expected(scott=False, cover=False, entailment=False, monotone=True,
              upper=True, lower=True, cut=False, one_reflexive=False,
              cut_transitive=False, semicut=False, divisible=False,
              strong=False, antisymmetric=True):
    return {
        "is_upper": upper, "is_lower": lower, "is_monotone": monotone,
        "is_cut": cut, "is_one_reflexive": one_reflexive,
        "is_entailment": entailment, "is_scott": scott,
        "is_cut_transitive": cut_transitive, "is_semicut": semicut,
        "is_divisible": divisible, "is_strong_idempotent": strong,
        "is_cover": cover, "is_antisymmetric": antisymmetric,
    }


CANONICAL_EXPECTED.update({
    # Scott relations: every flag up to and including cover holds
    "meet2": _expected(scott=True, cover=True, entailment=True, cut=True,
                       one_reflexive=True, cut_transitive=True, semicut=True,
                       divisible=True, strong=True),
    "boolean4": _expected(scott=True, cover=True, entailment=True, cut=True,
                          one_reflexive=True, cut_transitive=True, semicut=True,
                          divisible=True, strong=True),
    "chain3": _expected(scott=True, cover=True, entailment=True, cut=True,
                        one_reflexive=True, cut_transitive=True, semicut=True,
                        divisible=True, strong=True),
    "sierpinski": _expected(scott=True, cover=True, entailment=True, cut=True,
                            one_reflexive=True, cut_transitive=True, semicut=True,
                            divisible=True, strong=True),
    # the diagonal relation: a strong idempotent entailment that is not
    # 1-reflexive, hence not a cover
    "diagonal2": _expected(entailment=True, cut=True, cut_transitive=True,
                           semicut=True, divisible=True, strong=True,
                           antisymmetric=True),
    # non-distributive: the cut rule fails
    "m3": _expected(one_reflexive=True, cut=False, cut_transitive=False,
                    semicut=False, divisible=True),
    # strong idempotents that are not covers
    "empty2": _expected(cut=True, cut_transitive=True, semicut=True,
                        divisible=True, strong=True, entailment=True,
                        antisymmetric=False),
    "full2": _expected(scott=True, cover=True, entailment=True, cut=True,
                       one_reflexive=True, cut_transitive=True, semicut=True,
                       divisible=True, strong=True, antisymmetric=False),
    "anchored2": _expected(cut=True, cut_transitive=True, semicut=True,
                           divisible=True, strong=True, entailment=True),
    "interpolation_gap": _expected(cut=True, entailment=True,
                                   cut_transitive=True, semicut=True,
                                   divisible=False, antisymmetric=False),
})
