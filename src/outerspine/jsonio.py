"""JSON (de)serialization for graphs, automorphisms and currents.

Graph files carry rank, vertices, edges (id/from/to/length), basepoint and
the marking as oriented-edge strings ("e1+", "e2-"): everything that
identifies a point, so a saved and reloaded graph equals the original.  The
comarking is not stored, since the marking fixes it up to gauge.  The
loader checks what only a file can get wrong (missing keys, JSON types,
generator names, edges the marking steps on, the vertex list) and hands
the rest to the graph constructor, which checks the graph and derives the
comarking exactly (``graphs._validate``).

Edge lengths are written as their shortest float form, which reads back
bit-exactly; the loader also accepts numbers and decimal strings.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .currents import RationalCurrent
from .graphs import Edge, MarkedGraph, OrientedEdge
from .words import (
    _LETTER_NAMES,
    Automorphism,
    NielsenMove,
    _check_rank,
    _reduced_word,
    format_word,
    parse_word,
)

FORMAT = 1


_JSON_NAMES = {dict: "object", list: "array", str: "string", int: "integer", float: "number"}


def _typed(value: Any, kinds: tuple[type, ...], what: str) -> Any:
    """``value`` if its JSON type is one of ``kinds``, else ValueError: a file
    of the wrong shape is malformed input (CLI exit 2), not a TypeError."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        want = " or ".join(_JSON_NAMES[k] for k in kinds)
        raise ValueError(f"{what} must be a JSON {want}, not {type(value).__name__}")
    return value


def _field(obj: dict, key: str, where: str) -> Any:
    """``obj[key]``, or ValueError naming the key and where it is missing: a
    file without it is malformed input (CLI exit 2), not a KeyError."""
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f"{where} lacks key {key!r}") from None


def _check_format(data: dict, what: str) -> None:
    _typed(data, (dict,), f"{what} file")
    v = data.get("format", FORMAT)
    if v != FORMAT:
        raise ValueError(f"unsupported {what} format {v!r} (expected {FORMAT})")


# -- oriented edge strings ----------------------------------------------------


def _parse_step(s: str) -> OrientedEdge:
    if len(_typed(s, (str,), "marking step")) < 2 or s[-1] not in "+-":
        raise ValueError(f"malformed oriented edge {s!r} (want e.g. 'e1+')")
    return s[:-1], 1 if s[-1] == "+" else -1


def format_step(step: OrientedEdge) -> str:
    return step[0] + ("+" if step[1] > 0 else "-")


# -- graphs --------------------------------------------------------------------


def graph_to_obj(g: MarkedGraph) -> dict:
    edges = [{"id": e.id, "from": e.src, "to": e.dst, "length": e.length} for e in g.edges]
    marking = {
        _LETTER_NAMES[k]: [format_step(s) for s in g.marking[k]]
        for k in range(g.rank)
    }
    return {
        "format": FORMAT,
        "rank": g.rank,
        "vertices": list(g.vertices),
        "edges": edges,
        "basepoint": g.basepoint,
        "marking": marking,
    }


def graph_from_obj(data: dict) -> MarkedGraph:
    _check_format(data, "graph")
    rank = int(_typed(_field(data, "rank", "graph file"), (int, str), "'rank'"))
    _check_rank(rank)  # before the marking names a generator letter per rank
    edges = []
    for i, e in enumerate(_typed(_field(data, "edges", "graph file"), (list,), "'edges'")):
        _typed(e, (dict,), "edge")
        where = f"edge {i} of 'edges'"
        ends = [_typed(_field(e, k, where), (str,), f"edge {k!r}") for k in ("id", "from", "to")]
        raw = _typed(_field(e, "length", where), (int, float, str), "edge 'length'")
        edges.append(Edge(*ends, float(raw)))
    basepoint = _typed(_field(data, "basepoint", "graph file"), (str,), "'basepoint'")
    marking = _typed(_field(data, "marking", "graph file"), (dict,), "'marking'")
    names = tuple(_LETTER_NAMES[:rank])
    for name in marking:
        if name not in names:
            raise ValueError(f"marking key {name!r} is not a generator of rank {rank}")
    ids = {e.id for e in edges}
    marking_paths = []
    for name in names:
        if name not in marking:
            raise ValueError(f"marking lacks generator {name!r}")
        path = _typed(marking[name], (list,), f"marking of {name!r}")
        marking_paths.append(tuple(_parse_step(s) for s in path))
        for eid, _ in marking_paths[-1]:
            if eid not in ids:
                raise ValueError(f"marking of {name!r} steps on unknown edge {eid!r}")

    declared = {
        _typed(v, (str,), "vertex")
        for v in _typed(data.get("vertices", []), (list,), "'vertices'")
    }
    if declared and declared != {e.src for e in edges} | {e.dst for e in edges}:
        raise ValueError("vertex list disagrees with edge endpoints")
    return MarkedGraph(rank, edges, basepoint, marking_paths)


def dump_graph(g: MarkedGraph, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(graph_to_obj(g)))


def load_graph(path: str) -> MarkedGraph:
    with open(path) as fh:
        return graph_from_obj(json.load(fh))


# -- automorphisms ---------------------------------------------------------------


_KINDS = {"invert", "transpose", "right_multiply"}


def automorphism_to_obj(phi: Automorphism) -> dict:
    if phi.moves is None:
        return {
            "format": FORMAT,
            "rank": phi.rank,
            "images": [format_word(w) for w in phi.image_words()],
        }
    moves = []
    for m in phi.moves:
        entry: dict[str, Any] = {"kind": m.kind, "target": _LETTER_NAMES[m.target - 1]}
        if m.kind != "invert":
            entry["by"] = _LETTER_NAMES[m.other - 1]
        if m.kind == "right_multiply":
            entry["inverse"] = m.inverse
        moves.append(entry)
    return {"format": FORMAT, "rank": phi.rank, "moves": moves}


def _generator(value: Any, what: str) -> int:
    """The 1-based index of the generator named by exactly one letter."""
    name = _typed(value, (str,), what)
    if len(name) != 1 or name not in _LETTER_NAMES:
        raise ValueError(f"{what} must be one generator letter, not {name!r}")
    return _LETTER_NAMES.index(name) + 1


def automorphism_from_obj(data: dict) -> Automorphism:
    _check_format(data, "automorphism")
    rank = int(_typed(_field(data, "rank", "automorphism file"), (int, str), "'rank'"))
    if "moves" in data:
        moves = []
        for i, m in enumerate(_typed(data["moves"], (list,), "'moves'")):
            _typed(m, (dict,), "move")
            where = f"move {i} of 'moves'"
            kind = _typed(_field(m, "kind", where), (str,), "move 'kind'")
            if kind not in _KINDS:
                raise ValueError(f"unknown move kind {kind!r}")
            target = _generator(_field(m, "target", where), "move 'target'")
            other = _generator(m["by"], "move 'by'") if "by" in m else 0
            moves.append(
                NielsenMove(kind, target, other, bool(m.get("inverse", False)))
            )
        return Automorphism.from_moves(rank, moves)
    if "images" in data:
        images = _typed(data["images"], (list,), "'images'")
        return Automorphism.from_images(
            rank, [parse_word(_typed(s, (str,), "image"), rank) for s in images]
        )
    raise ValueError("automorphism needs 'moves' or 'images'")


def load_automorphism(path: str) -> Automorphism:
    with open(path) as fh:
        return automorphism_from_obj(json.load(fh))


# -- currents ----------------------------------------------------------------------


def current_to_obj(nu: RationalCurrent) -> dict:
    atoms = [
        {"class": format_word(_reduced_word(nu.rank, letters)), "weight": weight}
        for letters, weight in nu.atoms
    ]
    return {"format": FORMAT, "rank": nu.rank, "atoms": atoms}


def current_from_obj(data: dict) -> RationalCurrent:
    _check_format(data, "current")
    atoms = []
    for i, a in enumerate(_typed(_field(data, "atoms", "current file"), (list,), "'atoms'")):
        _typed(a, (dict,), "atom")
        where = f"atom {i} of 'atoms'"
        text = _typed(_field(a, "class", where), (str,), "atom 'class'")
        atoms.append((text, _field(a, "weight", where)))
    if "rank" in data:
        rank = int(_typed(data["rank"], (int, str), "'rank'"))
    else:  # the highest generator named, at least b
        rank = max([2] + [_LETTER_NAMES.find(ch) + 1 for text, _ in atoms for ch in text.lower()])
    pairs = [
        (parse_word(text, rank), float(_typed(weight, (int, float, str), "atom 'weight'")))
        for text, weight in atoms
    ]
    return RationalCurrent(rank, pairs)


def dump_current(nu: RationalCurrent, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(current_to_obj(nu)))


def load_current(path: str) -> RationalCurrent:
    with open(path) as fh:
        return current_from_obj(json.load(fh))


# -- shared helpers -------------------------------------------------------------------


def _nonfinite(obj: Any, path: str) -> tuple[str, float] | None:
    """The path and value of the first non-finite number in ``obj``, in the
    order ``dumps`` writes it, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (path, obj)
    if isinstance(obj, dict):
        items = [(f"{path}.{k}" if path else f"{k}", v) for k, v in sorted(obj.items())]
    elif isinstance(obj, (list, tuple)):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(obj)]
    else:
        return None
    for where, v in items:
        found = _nonfinite(v, where)
        if found is not None:
            return found
    return None


def dumps(obj: dict) -> str:
    """Canonical file form: sorted keys, two-space indent, trailing newline.
    A non-finite number has no JSON form, so it raises a ValueError that
    names the number's path (``history[3][0]``)."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        found = _nonfinite(obj, "")
        if found is None:
            raise
        raise ValueError(f"{found[0]} is {found[1]}, which has no JSON form") from None
