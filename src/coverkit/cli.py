"""Deterministic command-line front end.

Commands read JSON system/morphism files, run the requested analysis and
emit JSON reports (and, with ``--dot`` on ``spectrum`` and ``frame``, DOT
graphs).  Outputs carry no timestamps and are byte-identical across
reruns with the same inputs.

The front end works in one pass.  Each input file is read and parsed
once (``load_json``), and the loaders take the parsed document.  Subset
label lists decode straight to subset codes (``GroundSet.code``), with
no intermediate subset objects.  Each report is serialised once by
``_dumps``, which writes the bytes of ``json.dumps(report, indent=2,
sort_keys=True)``, and a DOT graph is built only when ``--dot`` asks for
it.

Exit codes: 0 success; 1 a --require'd axiom failed (``classify``, the
one command taking ``--require``); 2 a usage error, unreadable or
schema-invalid input, or a ``--json`` or ``--dot`` path that cannot be
written; 3 a size cap was exceeded: a ground set of more
than ``kernel.MAX_GROUND`` (13) elements, or the cap of one computation;
4 a theorem-backed invariant failed (always an internal bug or a
corrupted input, never an expected classification outcome); 5 any other
error, an internal one, reported on stderr as ``internal error: <type>:
<message>`` with no traceback.  An interrupt is not caught.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys as _sys

from . import __version__
from .kernel import CapExceededError, GroundSet, TheoremViolationError, iter_bits
from .relations import CoverSystem, Relation
from .axioms import classify

EXIT_OK = 0
EXIT_REQUIRE = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_THEOREM = 4
EXIT_INTERNAL = 5

FORMAT_VERSION = "1"

SYSTEM_KINDS = (
    "explicit", "lattice", "semilattice", "poset",
    "proximity", "convexity", "topology",
)


class SystemFileError(Exception):
    pass


def _expect(cond, msg):
    if not cond:
        raise SystemFileError(msg)


def load_json(path: str) -> dict:
    """The JSON object in the UTF-8 file ``path``.  A file that cannot be
    opened, is not UTF-8, is not JSON or nests too deeply to parse raises
    SystemFileError."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise SystemFileError(f"cannot read {path}: {exc}")
    _expect(isinstance(data, dict), f"{path}: top level must be an object")
    return data


def _name_pairs(payload, key, side=str) -> list:
    """``payload[key]`` (default empty), which must be a list of 2-lists
    whose sides are of type ``side``: names, or name lists (``list``) for
    pairs of subsets, so that a string side is not read as the list of
    its characters nor a number as a subset code.  A name list's entries
    are looked up among the labels, which are strings (``_labels``), so
    an entry that is not a string fails there."""
    pairs = payload.get(key, [])
    _expect(isinstance(pairs, list), f"{key} must be a list of pairs")
    for p in pairs:
        if not (type(p) is list and len(p) == 2 and type(p[0]) is side is type(p[1])):
            raise SystemFileError(f"bad entry in {key}: {p}")
    return pairs


def _labels(payload, key) -> tuple:
    """The label list ``payload[key]``, which must be a JSON list of strings."""
    labels = payload[key]
    _expect(isinstance(labels, list) and all(isinstance(x, str) for x in labels),
            f"{key} must be a list of strings")
    return tuple(labels)


def _name_lists(payload, key) -> list:
    """``payload[key]``, which must be a list of name lists, as the sides
    of ``_name_pairs`` with ``side=list`` are."""
    lists = payload[key]
    _expect(type(lists) is list and all(type(x) is list for x in lists),
            f"{key} must be a list of name lists")
    return lists


@contextlib.contextmanager
def _payload_faults(kind: str):
    """Raise a KeyError, TypeError or ValueError met in the block, a fault
    of a ``kind`` payload, as SystemFileError."""
    try:
        yield
    except (KeyError, TypeError) as exc:
        raise SystemFileError(f"malformed {kind} payload: {exc}")
    except ValueError as exc:
        raise SystemFileError(f"invalid {kind} payload: {exc}")


def _space(payload: dict):
    """The finite space of a topology payload."""
    from .spectrum import FiniteSpace

    return FiniteSpace.from_named_sets(_labels(payload, "points"),
                                       _name_lists(payload, "opens"),
                                       _name_lists(payload, "subbasis"))


def system_from_payload(kind: str, payload: dict) -> CoverSystem:
    from . import builders

    _expect(isinstance(payload, dict), "payload must be an object")
    with _payload_faults(kind):
        if kind == "explicit":
            ground = GroundSet(_labels(payload, "ground"))
            rel = Relation.from_pairs(ground, ground, _name_pairs(payload, "pairs", list))
            return CoverSystem(ground, rel, payload.get("name", "explicit"))
        if kind == "lattice":
            lat = builders.FiniteLattice.from_pairs(
                _labels(payload, "elements"), _name_pairs(payload, "leq"))
            return builders.lattice_cover(lat, payload.get("name", ""))
        if kind == "semilattice":
            lat = builders.FiniteLattice.from_semilattice_pairs(
                _labels(payload, "elements"), _name_pairs(payload, "leq"))
            return builders.semilattice_cover(lat, payload.get("name", ""))
        if kind == "poset":
            tr = builders.TransitiveRelation.from_pairs(
                _labels(payload, "elements"), _name_pairs(payload, "lt"),
                transitive_close=bool(payload.get("transitive_close", False)))
            return builders.perp_cover(tr, payload.get("name", ""))
        if kind == "proximity":
            elements = _labels(payload, "elements")
            idx = {e: i for i, e in enumerate(elements)}
            rows = [0] * len(elements)
            for a, b in _name_pairs(payload, "prox"):
                rows[idx[a]] |= 1 << idx[b]
            pl = builders.ProximityLattice(elements, tuple(rows))
            return builders.proximity_cover(pl, payload.get("name", ""))
        if kind == "convexity":
            elements = _labels(payload, "elements")
            idx = {e: i for i, e in enumerate(elements)}
            sets = []
            for names in _name_lists(payload, "convex_sets"):
                m = 0
                for nm in names:
                    m |= 1 << idx[nm]
                sets.append(m)
            cx = builders.Convexity(elements, tuple(sorted(set(sets))))
            return builders.convexity_entailment(cx, payload.get("name", ""))
        if kind == "topology":
            return builders.topology_cover(_space(payload), name=payload.get("name", ""))
    raise SystemFileError(f"unknown system kind {kind!r}")


def _check_format(data: dict, path: str) -> None:
    _expect(data.get("format_version") == FORMAT_VERSION,
            f"{path}: format_version must be {FORMAT_VERSION!r}")


def load_system(data: dict, path: str) -> CoverSystem:
    """The cover system of the parsed system file ``data`` read from ``path``."""
    _check_format(data, path)
    kind = data.get("kind")
    _expect(kind in SYSTEM_KINDS, f"{path}: kind must be one of {SYSTEM_KINDS}")
    return system_from_payload(kind, data.get("payload", {}))


def load_space(data: dict, path: str):
    """The finite space of the parsed topology file ``data`` read from
    ``path``, and its cover system ``space.cover_system``.  A faulty file
    fails as ``load_system`` fails on it."""
    _check_format(data, path)
    payload = data.get("payload", {})
    _expect(isinstance(payload, dict), "payload must be an object")
    with _payload_faults("topology"):
        space = _space(payload)
        return space, space.cover_system


def load_morphism(path: str):
    from .category import CoverMorphism

    data = load_json(path)
    _check_format(data, path)
    _expect(data.get("kind") == "morphism", f"{path}: kind must be 'morphism'")
    try:
        src = data["source_system"]
        tgt = data["target_system"]
        source = system_from_payload(src["kind"], src["payload"])
        target = system_from_payload(tgt["kind"], tgt["payload"])
        rel = Relation.from_pairs(source.ground, target.ground, _name_pairs(data, "pairs", list))
        return CoverMorphism(source, target, rel)
    except (KeyError, TypeError) as exc:
        raise SystemFileError(f"malformed morphism file: {exc}")
    except ValueError as exc:
        raise SystemFileError(f"invalid morphism file: {exc}")


def morphism_to_payload(m) -> dict:
    def subset_names(ground, code):
        return [ground.names[i] for i in iter_bits(code)]

    pairs = [
        [subset_names(m.source.ground, f), subset_names(m.target.ground, g)]
        for f, g in m.rel.pairs()
    ]
    def system_payload(sys):
        return {
            "kind": "explicit",
            "payload": {
                "ground": list(sys.ground.names),
                "name": sys.name,
                "pairs": [
                    [subset_names(sys.ground, f), subset_names(sys.ground, g)]
                    for f, g in sys.rel.pairs()
                ],
            },
        }

    return {
        "format_version": FORMAT_VERSION,
        "kind": "morphism",
        "source_system": system_payload(m.source),
        "target_system": system_payload(m.target),
        "pairs": pairs,
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

_encode_str = json.encoder.encode_basestring_ascii


def _dumps(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, in
    one recursive pass.

    ``indent`` is the newline and indentation of the enclosing level.
    Dict keys must be strings (TypeError otherwise), and a value of a
    type JSON lacks raises TypeError, as ``json.dumps`` does.
    """
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    sep = "," + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
        items = [_encode_str(k) + ": " + _dumps(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + sep.join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + sep.join([_dumps(v, inner) for v in value]) + indent + "]"
    if isinstance(value, float):
        return json.dumps(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemFileError(f"cannot write {path}: {exc}")


def _emit(report: dict, args) -> None:
    text = _dumps(report) + "\n"
    if args.json:
        _write(args.json, text)
    _sys.stdout.write(text)


def _base_report(args, command: str) -> dict:
    return {
        "tool": "coverkit",
        "version": __version__,
        "format_version": FORMAT_VERSION,
        "command": command,
        "input": [os.path.basename(p) for p in args.inputs],
        # kept for format_version 1: no command draws random numbers
        "seed": 0,
    }


def _input_system(args) -> CoverSystem:
    path = args.inputs[0]
    return load_system(load_json(path), path)


def cmd_classify(args) -> int:
    sys = _input_system(args)
    cls = classify(sys, with_witnesses=True)
    report = _base_report(args, "classify")
    report["classification"] = cls.to_dict()
    report["witnesses"] = cls.witnesses
    code = EXIT_OK
    if args.require:
        try:
            ok = cls.axiom(args.require)
        except KeyError as exc:
            raise SystemFileError(str(exc))
        report["require"] = {"axiom": args.require, "holds": ok}
        if not ok:
            code = EXIT_REQUIRE
    _emit(report, args)
    return code


def cmd_spectrum(args) -> int:
    from .spectrum import specialization_dot, spectrum, verify_representation

    sys = _input_system(args)
    spec = spectrum(sys)
    rep = verify_representation(sys)
    report = _base_report(args, "spectrum")
    report["tight_sets"] = [
        [sys.ground.names[i] for i in iter_bits(code)] for code in spec.tights
    ]
    report["space"] = {
        "points": list(spec.space.points),
        "num_opens": len(spec.space.opens),
        "properties": spec.space.properties.to_dict(),
    }
    report["representation"] = rep.to_dict()
    _emit(report, args)
    if args.dot:
        _write(args.dot, specialization_dot(spec.space))
    return EXIT_OK if rep.passed() else EXIT_THEOREM


def cmd_frame(args) -> int:
    from .frame import (
        frame_model, frame_elements_json, frame_hasse_dot, verify_frame_laws,
    )

    sys = _input_system(args)
    report = _base_report(args, "frame")
    report["monotone_cut_idempotent"] = True
    try:
        fm = frame_model(sys)
    except ValueError as exc:
        report["monotone_cut_idempotent"] = False
        report["reason"] = str(exc)
        _emit(report, args)
        return EXIT_OK
    laws = verify_frame_laws(fm)
    # "mode" and "complete" are kept for format_version 1: the one
    # construction reaches every quasi-ideal at every size
    report["frame"] = {
        "size": len(fm),
        "mode": "exhaustive",
        "complete": True,
        "elements": frame_elements_json(fm),
    }
    report["laws"] = laws.to_dict()
    _emit(report, args)
    if args.dot:
        _write(args.dot, frame_hasse_dot(fm))
    return EXIT_OK if laws.passed() else EXIT_THEOREM


def cmd_dualize(args) -> int:
    from .category import verify_duality_space, verify_duality_system

    path = args.inputs[0]
    data = load_json(path)
    if data.get("kind") == "topology":
        # the system is the space's cover system, so both sides share one
        # classification and one spectrum
        space, sys = load_space(data, path)
    else:
        space, sys = None, load_system(data, path)
    report = _base_report(args, "dualize")
    report["classification"] = sys.classification.to_dict()
    # a non-cover's system side is all None, with no violation
    sys_rep = verify_duality_system(sys)
    report["system_side"] = sys_rep.to_dict()
    violations = sys_rep.violations()
    if space is not None:
        _expect(space.properties.t0,
                f"{path}: space-side duality requires a T0 space")
        space_rep = verify_duality_space(space)
        report["space_side"] = space_rep.to_dict()
        violations += space_rep.violations()
    report["violations"] = violations
    _emit(report, args)
    return EXIT_THEOREM if violations else EXIT_OK


def cmd_compose(args) -> int:
    from .category import compose_morphisms, cover_morphism_failure

    m1 = load_morphism(args.inputs[0])
    m2 = load_morphism(args.inputs[1])
    if m1.target != m2.source:
        raise SystemFileError("morphisms do not compose: target/source mismatch")
    report = _base_report(args, "compose")
    f1 = cover_morphism_failure(m1)
    f2 = cover_morphism_failure(m2)
    report["first_is_morphism"] = f1 is None
    report["second_is_morphism"] = f2 is None
    composed = compose_morphisms(m1, m2)
    fc = cover_morphism_failure(composed)
    report["composite_is_morphism"] = fc is None
    report["composite"] = morphism_to_payload(composed)
    _emit(report, args)
    if f1 is None and f2 is None and fc is not None:
        return EXIT_THEOREM
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after."""
    parser = argparse.ArgumentParser(
        prog="coverkit",
        description="finite cover systems: classification, spectra, frames, duality",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ninputs):
        p.add_argument("inputs", nargs=ninputs, metavar="FILE")
        p.add_argument("--json", help="also write the JSON report to this path")
        return p

    pc = common(sub.add_parser("classify", help="axiom classification"), 1)
    pc.add_argument("--require", help="exit 1 unless this axiom holds")
    for p in (sub.add_parser("spectrum", help="tight spectrum and representation"),
              sub.add_parser("frame", help="quasi-ideal frame and its laws")):
        common(p, 1).add_argument("--dot", help="write a DOT graph to this path")
    common(sub.add_parser("dualize", help="duality round-trip verification"), 1)
    common(sub.add_parser("compose", help="compose two morphisms"), 2)
    return parser


COMMANDS = {
    "classify": cmd_classify,
    "spectrum": cmd_spectrum,
    "frame": cmd_frame,
    "dualize": cmd_dualize,
    "compose": cmd_compose,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error and 0 after --help
        return exc.code
    try:
        return COMMANDS[args.command](args)
    except SystemFileError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_PARSE
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=_sys.stderr)
        return EXIT_CAP
    except TheoremViolationError as exc:
        print(f"theorem violation: {exc}", file=_sys.stderr)
        return EXIT_THEOREM
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
