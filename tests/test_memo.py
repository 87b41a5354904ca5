"""The one memo idiom: ``kernel.memo``.

Every value an object derives from itself is a memo attribute of that
object, built once on first read and kept in its ``__dict__``, never
shared with another object, however equal.  The guard below parses the
package and refuses the other ways a value used to be kept.
"""

import ast
import copy
import pickle
from pathlib import Path

import pytest

import gen
from coverkit import kernel
from coverkit.builders import boolean4_lattice, lattice_cover, meet_system, sierpinski_space
from coverkit.frame import FrameModel, frame_model
from coverkit.relations import CoverSystem, Relation, cut_witness, lower_witness, upper_witness
from coverkit.spectrum import FiniteSpace

PACKAGE = Path(kernel.__file__).parent

# kernel's tables, keyed on the size of a ground or a matrix side
TABLE_KEYS = {"n", "s", "n_left", "n_right"}
CACHE_DECORATORS = {"lru_cache", "cache"}


def _name(node):
    """The bare name of a Name or an Attribute node, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _targets(node):
    if isinstance(node, ast.Assign):
        todo = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        todo = [node.target]
    else:
        return
    while todo:
        t = todo.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            todo += t.elts
        else:
            yield t


def memo_violations(path: Path) -> list[str]:
    """Each line of ``path`` that keeps a derived value outside the memo
    idiom: a ``cached_property``; an ``lru_cache`` (or ``functools.cache``)
    other than kernel's tables keyed on n or s and functions of no
    arguments; an assignment to an attribute of a name other than
    ``self`` or ``cls``, or into ``vars(...)`` or ``__dict__``."""
    tree = ast.parse(path.read_text(), str(path))
    out = []
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', 0)}"
        if _name(node) == "cached_property" or (
                isinstance(node, ast.alias) and node.name == "cached_property"):
            out.append(f"{where} cached_property")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                if _name(dec.func if isinstance(dec, ast.Call) else dec) in CACHE_DECORATORS:
                    params = {a.arg for a in node.args.args + node.args.kwonlyargs}
                    if params and not (path.name == "kernel.py" and params <= TABLE_KEYS):
                        out.append(f"{where} cache on {node.name}({', '.join(sorted(params))})")
        for t in _targets(node):
            if isinstance(t, ast.Attribute) and not (
                    isinstance(t.value, ast.Name) and t.value.id in ("self", "cls")):
                out.append(f"{where} assigns {ast.unparse(t)}")
            if isinstance(t, ast.Subscript) and (
                    _name(t.value) == "__dict__" or (
                        isinstance(t.value, ast.Call) and _name(t.value.func) == "vars")):
                out.append(f"{where} assigns {ast.unparse(t)}")
    return sorted(set(out))


def test_every_derived_value_is_a_memo_on_its_owner():
    offenders = [v for path in sorted(PACKAGE.glob("*.py")) for v in memo_violations(path)]
    assert offenders == []


def test_the_guard_sees_each_way_round_the_idiom(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from functools import cached_property, lru_cache\n"
        "class A:\n"
        "    @cached_property\n"
        "    def x(self):\n"
        "        return 1\n"
        "@lru_cache(maxsize=None)\n"
        "def f(sys):\n"
        "    sys._vdash = 1\n"
        "    a, sys.b = 1, 2\n"
        "    vars(sys)['c'] = 3\n"
        "    sys.__dict__['d'] += 4\n"
        "@lru_cache\n"
        "def g(n):\n"
        "    self.ok = cls.ok = n\n")
    found = memo_violations(bad)
    assert [v.split()[0] for v in found] == [
        "bad.py:1", "bad.py:10", "bad.py:11", "bad.py:13", "bad.py:3",
        "bad.py:7", "bad.py:8", "bad.py:9"]
    # a cache keyed on n is one of kernel's tables only inside kernel
    kernel_copy = tmp_path / "kernel.py"
    kernel_copy.write_text("@lru_cache(maxsize=None)\ndef g(n):\n    return n\n")
    assert memo_violations(kernel_copy) == []


# -- one build per object, none shared -----------------------------------------------

def _count_builds(monkeypatch, owner, name):
    """The objects whose memo ``name`` has been built since this call."""
    desc = vars(owner)[name]
    assert isinstance(desc, kernel.memo)
    built = []
    body = desc.func

    def counted(obj):
        built.append(obj)
        return body(obj)

    monkeypatch.setattr(desc, "func", counted)
    return built


def _built_once_each(monkeypatch, a, b, reads):
    """Read every memo twice on each of the equal, distinct objects a and
    b: each is built exactly once per object."""
    assert a == b and a is not b
    counts = {name: _count_builds(monkeypatch, type(a), name) for name in reads}
    for obj in (a, b, a, b):
        for name, read in reads.items():
            read(obj)
    for name, built in counts.items():
        assert len(built) == 2 and built[0] is a and built[1] is b, name
    for name, read in reads.items():
        assert read(a) == read(b), name


def test_relation_memos_are_built_once_per_relation(monkeypatch):
    rng = gen.rng_for(31)
    for ground in (gen.ground(2), gen.ground(3)):
        for rel in (gen.random_relation(rng, ground), gen.random_monotone(rng, ground)):
            _built_once_each(
                monkeypatch, Relation(ground, ground, rel.rows),
                Relation(ground, ground, rel.rows),
                {"packed": lambda r: r.packed, "_cols": lambda r: r.cols(),
                 "_below": lambda r: r.lower_closure(),
                 "col_fold": lambda r: r.col_fold.rows,
                 # one structural pass, whichever of the three rules is read
                 "_structure": lambda r: (upper_witness(r), lower_witness(r),
                                          cut_witness(r))})
            monkeypatch.undo()


def test_space_memos_are_built_once_per_space(monkeypatch):
    for space in (sierpinski_space(), *gen.all_t0_spaces(3)[:6]):
        twin = FiniteSpace(space.points, space.opens, space.subbasis)
        _built_once_each(
            monkeypatch, space, twin,
            {"profiles": lambda s: s.profiles,
             "_covermasks": lambda s: [s.covermask(o) for o in s.opens],
             "properties": lambda s: s.properties})
        monkeypatch.undo()
        # the covering masks sit in each space's own dict
        assert vars(space)["_covermasks"] is not vars(twin)["_covermasks"]


def test_frame_model_tables_are_built_once_per_model(monkeypatch):
    for make in (meet_system, lambda: lattice_cover(boolean4_lattice())):
        a, b = frame_model(make()), frame_model(make())
        assert a.system == b.system and a.system is not b.system
        counts = {name: _count_builds(monkeypatch, FrameModel, name)
                  for name in ("meet_table", "join_table")}
        for fm in (a, b, a, b):
            fm.meet_table, fm.join_table
        for built in counts.values():
            assert len(built) == 2 and built[0] is a and built[1] is b
        assert a.meet_table == b.meet_table and a.meet_table is not b.meet_table
        assert a.join_table == b.join_table and a.join_table is not b.join_table
        monkeypatch.undo()


def test_relation_stays_immutable():
    g = gen.ground(2)
    rel = Relation(g, g, [1, 2, 4, 8])
    rel.packed, rel.cols(), hash(rel)
    kept = dict(vars(rel))
    for name, value in (("rows", (0,) * 4), ("packed", 0), ("_cols", ()), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(rel, name, value)
    assert vars(rel) == kept and rel.rows == (1, 2, 4, 8)


def test_relation_and_system_round_trip_through_pickle_and_copy():
    # each copy is equal, rebuilds its own memos, and stays immutable
    sys = meet_system(2)
    sys.classification, sys.rel.packed, sys.rel.cols(), frame_model(sys)
    rel = sys.rel
    for copied in (pickle.loads(pickle.dumps(rel)), copy.copy(rel), copy.deepcopy(rel)):
        assert copied == rel and copied is not rel and vars(copied) == {}
        with pytest.raises(AttributeError, match="immutable"):
            copied.packed = 0
    for copied in (pickle.loads(pickle.dumps(sys)), copy.copy(sys), copy.deepcopy(sys)):
        assert copied == sys and copied is not sys and vars(copied) == {}
        assert copied.name == sys.name and copied.rel.rows == rel.rows
        with pytest.raises(AttributeError, match="immutable"):
            copied.rel.rows = (0,) * 4
        assert frame_model(copied).system is copied


def test_scott_classification_fills_the_derived_relation_memo():
    # with the relation itself, through setdefault; a later read neither
    # builds nor replaces it, and an equal system derives its own
    sys = meet_system(3)
    assert sys.classification.is_scott
    assert vars(sys)["_vdash"] is sys.rel and sys._vdash is sys.rel
    twin = CoverSystem(sys.ground, sys.rel)
    assert twin._vdash == sys.rel and twin._vdash is not sys.rel
