"""The axiom hierarchy on endorelations of finite subsets.

Terminology used throughout the package:

  entailment          monotone + cut rule
  Scott relation      1-reflexive entailment
  cut-transitive      composition with itself contained in itself
  semicut             self-dual-auxiliary (weakening of the cut rule)
  divisible           contained in its composition with its own
                      singleton-existential strengthening
  strong idempotent   monotone + divisible + cut-transitive
  cover relation      strong idempotent auxiliary to its derived
                      1-reflexive relation

Every predicate is a literal quantifier evaluation, except for these
closed forms, each checked by the tests against the literal definition:

- cut-composition evaluates its witness search by the maximal witness
  pair (see ``composition``);
- the lower closure of the singleton-existential strengthening
  ``one_exists(rel)`` is read off the lower closure of the relation
  itself, once per distinct row of it (see ``_one_exists_lower_closure``);
- antisymmetry compares the relation's singleton columns instead of rows
  of the derived relation (see ``antisymmetry_witness``);
- semicut tests, per G, only the H with no smaller H-{i} that entails G:
  a violating H stays violating when shrunk among those that entail G,
  so the first one is among them (the minimal ones, for a lower
  relation; see ``semicut_witness``);
- a fold of the rows that a mask selects ANDs each distinct row value
  once when there are fewer of them than selected codes
  (``kernel.RowFold``, in the derived relation and in composition);
- a lower relation is its own lower closure: once its structural scan
  has found it lower, no zeta pass is run (``Relation.lower_closure``);
- ``classify`` reads four implications of the hierarchy off the upper,
  lower, cut and 1-reflexive scans, and skips the searches they settle.
  Below, F |- G is the relation; cut-composition is read in its closed
  form: r is related to t iff every selection of {F : r |- F} contains a
  member of {G : G |- t} (``composition``).

  * 1-reflexive => divisible.  Let r |- t.  A selection X of
    {F : r |- F} meets its member t, at x say, so X contains {x}, which
    one_exists(rel) relates to t, as {x} |- {x}.  So r is related to t
    by rel ; one_exists(rel).
  * Entailment (upper, lower and cut) => cut-transitive.  Multi-cut:
    for a family P, a left context A and a right context C, if
    A |- K+C for every member K of P, and A+X |- C for every selection
    X of P, then A |- C.  By induction on the total size of P's
    members: an empty P has the selection X = {}, and a P with the
    empty member has A |- C among its hypotheses.  Otherwise cut out
    one element s of a member K0.  With K0-{s} in place of K0 and the
    right context C+{s}, the hypotheses still hold (upper), so
    A |- C+{s}; with K0 dropped and the left context A+{s}, they hold
    too (lower, and X+{s} is a selection of P), so A+{s} |- C; the cut
    rule gives A |- C.  Now let r be related to t by rel ; rel.  Every
    selection X of P = {F : r |- F} contains some G |- t, so r+X |- t
    (lower), and the lemma with A = r and C = t gives r |- t.
  * Lower and cut => semicut.  Let H |- G and F |- G+{h} for every h in
    H.  Weakening gives F+H |- G, and F+H' |- G+{h} for every H'; cut
    out the h in H one at a time, each with F+H' |- G+{h}, down to
    F |- G.  So no violation exists.
  * Scott => the derived relation is rel.  If F |- G and H |- {f} for
    every f in F, the multi-cut lemma with P = {{f} : f in F}, A = H
    and C = G gives H |- G (upper for H |- {f}+G, lower for H+X |- G,
    as X contains F).  Conversely H = F entails each {f} in F, by
    {f} |- {f} and weakening, so F |- G whenever F is derived-related
    to G.  So ``classify`` keeps a Scott relation as the system's
    derived relation, and its cover check, vdash ; rel contained in
    rel, is its cut-transitivity: a Scott relation, a strong idempotent
    by the first two implications, is a cover, with no derived relation
    built and no composition.

``classify`` evaluates each
predicate once, deciding cut-transitivity and divisibility in one walk
over the relation's rows, a side of which is skipped when the hierarchy
settles it.  The classification and the derived relation are each
computed at most once per system and cached on it (see ``CoverSystem``),
so ``classify``, the spectrum and frame checks and library callers share
them; the derived relation is built on first need, which in ``classify``
is only the cover check of a strong idempotent that is not a Scott
relation.  The standalone ``cut_transitive_witness``,
``divisibility_witness`` and ``semicut_witness`` always run the full
search, and so does ``derive_vdash`` when no derived relation is cached.
All predicates can produce a minimal counterexample witness, minimised
by subset-code order, for debuggability of generated systems.  A
classification keeps its witnesses as codes and names them, as label
lists, only when ``Classification.witnesses`` is first read: the flags,
``to_dict`` and the spectrum, frame and duality checks, which read the
flags only, never pay for names.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .kernel import (
    GroundMismatchError, iter_bits, large_selections_mask, meets_of, memo, tables,
)
from .relations import (
    CoverSystem,
    Relation,
    one_reflexive_witness,
    row_fold,
)
from .composition import composition_excess_witness


@dataclass
class Classification:
    """One boolean per axiom, plus optional counterexample witnesses.

    The witnesses are kept as codes, with the ground's labels (never the
    system, so a classification keeps no system alive), and named on the
    first read of ``witnesses``; flags and ``to_dict`` never name them.
    """

    is_upper: bool
    is_lower: bool
    is_monotone: bool
    is_cut: bool
    is_one_reflexive: bool
    is_entailment: bool
    is_scott: bool
    is_cut_transitive: bool
    is_semicut: bool
    is_divisible: bool
    is_strong_idempotent: bool
    is_cover: bool
    is_antisymmetric: bool
    # the ground's labels and the code witness of upper, lower, cut,
    # one_reflexive, cut_transitive, divisible, semicut, cover and
    # antisymmetric, each None where it holds; () keeps no witnesses
    _codes: tuple = field(default=(), repr=False)

    FLAG_NAMES = (
        "is_upper", "is_lower", "is_monotone", "is_cut", "is_one_reflexive",
        "is_entailment", "is_scott", "is_cut_transitive", "is_semicut",
        "is_divisible", "is_strong_idempotent", "is_cover", "is_antisymmetric",
    )

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FLAG_NAMES}

    def axiom(self, name: str) -> bool:
        """Look up a flag by its bare or is_-prefixed name."""
        key = name if name.startswith("is_") else "is_" + name
        if key not in self.FLAG_NAMES:
            raise KeyError(f"unknown axiom {name!r}")
        return getattr(self, key)

    @memo
    def witnesses(self) -> dict:
        """Each failing axiom's witness under its bare name, subsets as
        label lists, in the order of ``_codes``: named on first read."""
        if not self._codes:
            return {}
        labels, up, lo, cut, refl, ct, div, semi, cov, anti = self._codes
        out = {}
        for key, wit in (("upper", up), ("lower", lo), ("cut", cut)):
            if wit is not None:
                out[key] = {"F": _names(labels, wit[0]), "G": _names(labels, wit[1]),
                            "s": wit[2]}
        if refl is not None:
            out["one_reflexive"] = {"s": refl}
        for key, wit in (("cut_transitive", ct), ("divisible", div)):
            if wit is not None:
                out[key] = {"F": _names(labels, wit[0]), "G": _names(labels, wit[1])}
        if semi is not None:
            out["semicut"] = {"F": _names(labels, semi[0]), "G": _names(labels, semi[1]),
                              "H": _names(labels, semi[2])}
        if cov is not None:
            out["cover"] = {"F": _names(labels, cov[0]), "G": _names(labels, cov[1])}
        if anti is not None:
            out["antisymmetric"] = {"s": anti[0], "t": anti[1]}
        return out


def _names(labels, code: int) -> list:
    return [labels[i] for i in iter_bits(code)]


def derive_vdash(sys: CoverSystem) -> Relation:
    """The derived relation: F related to G iff every H entailing each
    singleton of F also entails G.

    Always lower and 1-reflexive; upper whenever the base relation is.
    For Scott relations it coincides with the base relation (module
    docstring).  Built on the first call and cached on the system;
    ``classify`` makes that call only for the cover check of a strong
    idempotent that is not a Scott relation, and caches the relation
    itself as the derived relation of a Scott relation.  Called before
    ``classify``, it always builds by the full fold.
    """
    return sys._vdash


def _compute_vdash(sys: CoverSystem) -> Relation:
    return derived_relation(sys.rel, sys.rel)


def derived_relation(rel: Relation, base: Relation) -> Relation:
    """The relation from the right side of ``rel`` to its left relating
    G to F iff every H related by ``rel`` to each singleton of G is
    related by ``base``, an endorelation on the left side, to F: the AND
    of the rows of ``base`` over the dependency family of G.  A system's
    derived relation takes its relation twice; a morphism's derived
    comparison (``category.derive_proper``) takes the morphism's
    relation and its source's."""
    full = (1 << rel.left.num_subsets) - 1
    cols = rel.cols()
    deps_of = meets_of(full, [cols[1 << i] for i in range(rel.right.size)])
    fold = row_fold(base).fold
    # equal dependency families give equal rows, so each is folded once
    done = {}
    rows = []
    for deps in deps_of:
        out = done.get(deps)
        if out is None:
            out = done[deps] = fold(deps, full)
        rows.append(out)
    return Relation(rel.right, rel.left, rows)


def is_auxiliary(rel_a: Relation, rel_b: Relation) -> bool:
    return auxiliary_witness(rel_a, rel_b) is None


def auxiliary_witness(rel_a: Relation, rel_b: Relation):
    """Literal check that rel_a is auxiliary to rel_b.

    Violation witness (F, H, G): adding any single element of H to F
    gives rel_a to G, and F rel_b H, yet F fails rel_a to G.
    """
    if rel_a.left != rel_b.left or not rel_b.is_endo:
        raise GroundMismatchError("auxiliarity needs matching left grounds")
    size = rel_a.left.num_subsets
    for f in range(size):
        row_b = rel_b.rows[f]
        row_a = rel_a.rows[f]
        for h in iter_bits(row_b):
            joined = (1 << rel_a.right.num_subsets) - 1
            for i in iter_bits(h):
                joined &= rel_a.rows[f | 1 << i]
            bad = joined & ~row_a
            if bad:
                return f, h, (bad & -bad).bit_length() - 1
    return None


def is_semicut(sys: CoverSystem) -> bool:
    return semicut_witness(sys) is None


def semicut_witness(sys: CoverSystem):
    """First (F, G, H) violating the semicut condition, else None: first
    by G, then by H, then by F, in subset-code order.

    Violation: H entails G, F entails G+{h} for every h in H, but F does
    not entail G.  An H that meets G has G itself among the G+{h}, so
    its F entail G: only the members of ``hs``, the H disjoint from G
    that entail G, can give a violation.

    A violating H stays violating when shrunk inside ``hs``: with the
    same F, since F entails G+{h} for every h in a part of H too.  A
    smaller subset has a lower code, so the first violating H has no
    member H-{i} of ``hs`` one element smaller.  The walk tests only
    those members, in ascending order, and returns the first violating
    one, so it meets the same H as a walk over all of ``hs``.  For a
    lower relation, whose columns are up-sets, they are the minimal
    members of ``hs``; a lattice cover has few.  They cost n shift-ANDs
    per G (the members with a member one element smaller are ``hs``
    shifted up by one element), and each tested H costs |H| column ANDs:
    the F entailing G+{h} for every h in H, outside column G.
    """
    n = sys.ground.size
    t = tables(n)
    cols = sys.rel.cols()
    full = t.full
    top = t.size - 1
    lacks = t.lacks_elem
    for g, col_g in enumerate(cols):
        # col_g is both the H entailing G and the F entailing G; a full
        # column, or one without an H disjoint from G, admits no violation
        hs = col_g & t.subsets[top ^ g]
        if hs == 0 or col_g == full:
            continue
        outside = full ^ col_g
        above = 0
        for i in range(n):
            if not g >> i & 1:
                above |= (hs & lacks[i]) << (1 << i)
        mins = hs ^ (hs & above)
        while mins:
            low = mins & -mins
            h = low.bit_length() - 1
            c = outside
            m = h
            while m and c:
                bit = m & -m
                c &= cols[g | bit]
                m ^= bit
            if c:
                return (c & -c).bit_length() - 1, g, h
            mins ^= low
    return None


def is_cut_transitive(sys: CoverSystem) -> bool:
    return cut_transitive_witness(sys) is None


def cut_transitive_witness(sys: CoverSystem):
    """First (r, t) where self-composition exceeds the relation, else None.

    The first half of ``_self_composition_witnesses``.
    """
    return _self_composition_witnesses(sys.rel)[0]


def is_divisible(sys: CoverSystem) -> bool:
    return divisibility_witness(sys) is None


def divisibility_witness(sys: CoverSystem):
    """First (F, G) entailed but not reachable through an interpolating
    family of singleton-entailed subsets, else None.

    The second half of ``_self_composition_witnesses``.
    """
    return _self_composition_witnesses(sys.rel)[1]


def _self_composition_witnesses(rel: Relation, cut_transitive: bool = False,
                                divisible: bool = False):
    """The cut-transitivity and divisibility witnesses of ``rel``, in one
    walk over its distinct rows.

    Both compositions, rel ; rel and rel ; one_exists(rel), have ``rel``
    on the left.  So row r of either is the AND, over the selections X of
    the row's family (``composition``), of row X of the right operand's
    lower closure.  Each distinct row's selection family is folded once,
    and one walk over its members ANDs both lower-closure rows.  The
    cut-transitivity witness is the first (r, t) in rel ; rel but not in
    rel, the divisibility witness the first (r, t) in rel but not in
    rel ; one_exists(rel): first by row r, then the lowest t.  Equal rows
    give equal composed rows, so a repeated row adds no witness.  A side
    stops being tracked once it has its witness, and the walk stops when
    both have one.  The lower closure of one_exists(rel) comes from
    ``_one_exists_lower_closure``, without building one_exists(rel).
    A lower relation is its own lower closure, and the walk reads its
    rows.  Both sides are folded in one loop, which measured faster than
    two ``kernel.RowFold`` calls per row at every size tried (|S| = 3, 5
    and 12).

    A side passed as already known to hold (``cut_transitive`` or
    ``divisible`` true, as ``classify`` reads them off the hierarchy) is
    not tracked, its witness is None, and its lower closure is not built;
    with both known nothing is walked.
    """
    track_out = not cut_transitive
    track_kept = not divisible
    excess = deficit = None
    if not (track_out or track_kept):
        return excess, deficit
    n = rel.left.size
    t = tables(n)
    meets = t.meets
    full = t.full
    loop_max = t.loop_max
    # an untracked side's row stays 0, so the other side's table serves it
    below = rel.lower_closure() if track_out else None
    below_one = _one_exists_lower_closure(rel) if track_kept else below
    if below is None:
        below = below_one
    seen = set()
    for r, row in enumerate(rel.rows):
        if row in seen:
            continue
        seen.add(row)
        # the composed rows' part outside row r, and their part of row r
        out = full ^ row if track_out else 0
        kept = row if track_kept else 0
        # the row's selection family (``kernel.selections_mask``, inlined
        # as in ``composition._composed_rows``)
        if row.bit_count() > loop_max:
            sel = large_selections_mask(n, row)
        else:
            sel = full
            m = row
            while m and sel:
                low = m & -m
                sel &= meets[low.bit_length() - 1]
                m ^= low
        while sel and (out or kept):
            low = sel & -sel
            x = low.bit_length() - 1
            out &= below[x]
            kept &= below_one[x]
            sel ^= low
        if out:
            excess = r, (out & -out).bit_length() - 1
            track_out = False
        if track_kept and kept != row:
            lost = row ^ kept
            deficit = r, (lost & -lost).bit_length() - 1
            track_kept = False
        if not (track_out or track_kept):
            break
    return excess, deficit


def _one_exists_lower_closure(rel: Relation) -> list[int]:
    """Rows of the lower closure of ``one_exists(rel)``, read off the lower
    closure of ``rel`` itself.

    Row f of one_exists(rel) is ``meets[J(f)]``, with J(f) = {i : f rel
    {i}}.  ``meets`` turns unions into unions (a subset meets a union iff
    it meets one of its parts), so the union of those rows over all f in
    G is ``meets[I(G)]``, with I(G) the union of J(f) over all f in G.
    That is the set of elements i whose singleton {i} lies in row G of
    rel's lower closure.  Equal lower-closure rows give equal rows here,
    so each distinct one costs n bit tests.
    """
    n = rel.left.size
    meets = tables(n).meets
    singles = [(1 << (1 << i), 1 << i) for i in range(n)]
    done = {}
    rows = []
    for below in rel.lower_closure():
        out = done.get(below)
        if out is None:
            code = 0
            for single, bit in singles:
                if below & single:
                    code |= bit
            out = done[below] = meets[code]
        rows.append(out)
    return rows


def antisymmetry_witness(sys: CoverSystem):
    """First pair of distinct elements that the derived relation of
    ``sys`` identifies, else None.

    {i} is derived-related to {j} iff every H that entails {i} also
    entails {j}, that is, iff column {i} of the relation is contained in
    column {j}.  So the derived relation identifies i and j iff their
    singleton columns are equal, and it is not built here.
    """
    cols = sys.rel.cols()
    n = sys.ground.size
    for i in range(n):
        for j in range(i + 1, n):
            if cols[1 << i] == cols[1 << j]:
                return sys.ground.names[i], sys.ground.names[j]
    return None


def classify(sys: CoverSystem, with_witnesses: bool = False) -> Classification:
    """Fill every axiom flag; consistent with the individual predicates.

    Computed once per system, witnesses included as codes, and cached on
    it: the first call (or access to ``sys.classification``) evaluates,
    later ones return the cached classification, whose witnesses are
    named on their first read.  The searches that the upper, lower, cut
    and 1-reflexive flags settle are skipped (module docstring): no
    cut-transitivity walk for an entailment, no divisibility walk for a
    1-reflexive relation, no semicut search for a lower relation with
    the cut rule.  A Scott relation is cached as
    its own derived relation; otherwise the derived relation is built
    (and cached) only when the system is a strong idempotent, whose
    cover check reads it.  With ``with_witnesses`` the cached object
    itself is returned, so it must not be mutated; without, a copy whose
    ``witnesses`` is empty.
    """
    cls = sys.classification
    return cls if with_witnesses else replace(cls, _codes=())


def _compute_classification(sys: CoverSystem) -> Classification:
    """One pass: each witness search is evaluated at most once.

    Cut-transitivity and divisibility share one walk over the rows
    (``_self_composition_witnesses``), which skips the side the flags
    settle, antisymmetry reads the singleton columns that
    ``semicut_witness`` also reads, and only the cover check, which runs
    on strong idempotents that are not Scott relations, reads the
    derived relation.  The witnesses are kept as codes, with the
    ground's labels, for ``Classification.witnesses`` to name.
    """
    rel = sys.rel
    # a system's relation is an endorelation: ``upper_witness``,
    # ``lower_witness`` and ``cut_witness``, read off one structural scan
    up_wit, lo_wit, cut_wit = rel._structure
    refl_wit = one_reflexive_witness(rel)
    upper = up_wit is None
    lower = lo_wit is None
    monotone = upper and lower
    cut = cut_wit is None
    one_refl = refl_wit is None
    entailment = monotone and cut
    scott = entailment and one_refl
    # the searches the flags above settle are skipped (module docstring):
    # an entailment is cut-transitive, a 1-reflexive relation divisible,
    # and a lower relation with the cut rule semicut
    ct_wit, div_wit = _self_composition_witnesses(
        rel, cut_transitive=entailment, divisible=one_refl)
    cut_transitive = ct_wit is None
    divisible = div_wit is None
    strong = monotone and divisible and cut_transitive
    semicut_wit = None if lower and cut else semicut_witness(sys)
    # a cover is a strong idempotent auxiliary to its derived relation,
    # that is, with vdash ; rel contained in rel; a Scott relation is its
    # own derived relation, so its cut-transitivity makes it a cover
    cov_wit = None
    if scott:
        vars(sys).setdefault("_vdash", rel)
    elif strong:
        cov_wit = composition_excess_witness(derive_vdash(sys), rel, rel)
    cover = strong and cov_wit is None
    anti_wit = antisymmetry_witness(sys)
    return Classification(
        is_upper=upper,
        is_lower=lower,
        is_monotone=monotone,
        is_cut=cut,
        is_one_reflexive=one_refl,
        is_entailment=entailment,
        is_scott=scott,
        is_cut_transitive=cut_transitive,
        is_semicut=semicut_wit is None,
        is_divisible=divisible,
        is_strong_idempotent=strong,
        is_cover=cover,
        is_antisymmetric=anti_wit is None,
        _codes=(sys.ground.names, up_wit, lo_wit, cut_wit, refl_wit, ct_wit,
                div_wit, semicut_wit, cov_wit, anti_wit),
    )
