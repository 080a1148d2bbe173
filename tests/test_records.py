"""The package's records: immutable, hashed, printed and checked as the
frozen dataclasses they replace were.

Plain records are named tuples; ``Edge``, ``NielsenMove`` and
``SamplerConfig`` are named tuples that check their fields on every way
of making one; ``Word``, ``Automorphism`` and ``RationalCurrent`` are
slotted classes with their own constructor and equality.  No module of
the package imports ``dataclasses``.
"""

import ast
import math
import pathlib

import pytest

import outerspine
from outerspine.currents import IwipApproximation, RationalCurrent, dual, iwip_pair_approx
from outerspine.diagnostics import (
    _MAX_COUNTS,
    BallProjection,
    BFit,
    ClauseResult,
    ContractionReport,
    MinislineReport,
    MinislineRow,
    SamplerConfig,
)
from outerspine.graphs import Edge, LoopPath, unit_rose
from outerspine.lipschitz import StretchReport, stretch
from outerspine.minima import AxisSample, MinResult, min_on_topology
from outerspine.simplex import LpSolution, solve_lp
from outerspine.words import Automorphism, NielsenMove, Word, parse_word

ROSE = unit_rose(3)
AB = parse_word("a b", 3)
MU = dual(AB)
PHI = Automorphism.from_moves(3, [NielsenMove("right_multiply", 1, 2)])
ROW = MinislineRow(0.5, 1.0, 0.0, 2.0)
CLAUSE = ClauseResult(1, True, 0.5, 3)

# one instance of every record, and a field of it
RECORDS = [
    (AB, "letters"),
    (NielsenMove("invert", 1), "kind"),
    (PHI, "images"),
    (ROSE.edges[0], "length"),
    (ROSE.loop_of(AB), "length"),
    (MU, "atoms"),
    (iwip_pair_approx(PHI, AB, 1), "k"),
    (stretch(ROSE, ROSE), "factor"),
    (solve_lp([1], [[1]], [1], [], []), "value"),
    (min_on_topology(ROSE, MU, 0.1), "value"),
    (AxisSample(MU, MU, ((0.0, ROSE, 1.0),), 0.1, 0.5), "eps"),
    (ROW, "distance"),
    (MinislineReport(2.0, (ROW,), 0.1), "b"),
    (BFit(1.0, 0.0, ((0.0, 1.0),), 0.1), "value"),
    (CLAUSE, "passed"),
    (SamplerConfig(), "n_far"),
    (ContractionReport(2.0, 1.0, (CLAUSE,), 0.1, SamplerConfig(), 3), "b"),
    (BallProjection(0.0, 1, 1, 1.0, 0.5), "diameter"),
]


def test_every_record_is_listed():
    assert {type(r) for r, _ in RECORDS} == {
        Word, NielsenMove, Automorphism, Edge, LoopPath, RationalCurrent,
        IwipApproximation, StretchReport, LpSolution, MinResult, AxisSample,
        MinislineRow, MinislineReport, BFit, ClauseResult, SamplerConfig,
        ContractionReport, BallProjection,
    }
    assert len(RECORDS) == 18


def test_no_module_imports_dataclasses():
    for path in pathlib.Path(outerspine.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert all(a.name != "dataclasses" for a in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name


@pytest.mark.parametrize("record, field", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_rejects_attribute_assignment(record, field):
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is value


def test_hashes_are_the_dataclass_hashes():
    """A frozen dataclass hashed the tuple of its compared fields."""
    assert hash(Word(3, [1, 2])) == hash((3, (1, 2)))
    assert hash(MU) == hash((3, MU.atoms))
    assert hash(PHI) == hash((3, PHI.images))


def test_automorphism_equality_ignores_inverse_images_and_moves():
    moved = Automorphism.from_moves(2, [NielsenMove("invert", 1)])
    imaged = Automorphism.from_images(2, [Word(2, [-1]), Word(2, [2])])
    raw = Automorphism(2, ((-1,), (2,)), ((1,), (2,)), ())
    assert moved.moves and imaged.moves is None
    assert moved == imaged == raw
    assert hash(moved) == hash(imaged) == hash(raw)
    assert moved != Automorphism.identity(2)


def test_equality_needs_the_same_class():
    assert Word(3, [1]) != (3, (1,))
    assert MU != RationalCurrent(2, [(Word(2, [1, 2]), 1.0)])
    assert MU == RationalCurrent(3, [(parse_word("b a", 3), 1.0)])


def test_reprs_are_the_dataclass_reprs():
    assert repr(Edge("a", "v", "v", 0.5)) == "Edge(id='a', src='v', dst='v', length=0.5)"
    assert repr(NielsenMove("right_multiply", 1, 2, True)) == (
        "NielsenMove(kind='right_multiply', target=1, other=2, inverse=True)"
    )
    assert repr(NielsenMove("invert", 3)) == (
        "NielsenMove(kind='invert', target=3, other=0, inverse=False)"
    )
    assert repr(Word(3, [1, -2, 3])) == "Word(3, \"a b' c\")"
    assert repr(min_on_topology(ROSE, MU, 0.1)) == (
        "MinResult(point=MarkedGraph(rank=3, edges=3, vertices=1, volume=1), value=0.2, "
        "topology_visits=1, eps=0.1, budget_exhausted=False)"
    )
    assert repr(RationalCurrent(3, [(AB, 0.5)])) == "RationalCurrent(rank=3, atoms=(((1, 2), 0.5),))"
    assert repr(Automorphism.from_moves(2, [NielsenMove("invert", 1)])) == (
        "Automorphism(rank=2, images=((-1,), (2,)), "
        "moves=(NielsenMove(kind='invert', target=1, other=0, inverse=False),))"
    )


@pytest.mark.parametrize("length", [-1.0, math.inf, math.nan])
def test_edge_rejects_a_bad_length(length):
    message = f"edge e needs a finite nonnegative length, not {length}"
    edge = Edge("e", "u", "w", 1.0)
    for make in (
        lambda: Edge("e", "u", "w", length),
        lambda: edge._replace(length=length),
        lambda: Edge._make(("e", "u", "w", length)),
    ):
        with pytest.raises(ValueError, match=message):
            make()


@pytest.mark.parametrize(
    "fields, message",
    [
        (("shift", 1, 0, False), "unknown move kind 'shift'"),
        (("invert", 0, 0, False), "move generators are positive indices"),
        (("transpose", 1, 0, False), "move generators are positive indices"),
        (("right_multiply", 2, 2, True), "right_multiply needs two distinct generators"),
    ],
)
def test_nielsen_move_rejects_a_bad_move(fields, message):
    move = NielsenMove("transpose", 1, 2)
    for make in (
        lambda: NielsenMove(*fields),
        lambda: move._replace(**dict(zip(NielsenMove._fields, fields))),
        lambda: NielsenMove._make(fields),
    ):
        with pytest.raises(ValueError, match=message):
            make()


@pytest.mark.parametrize("name", sorted(_MAX_COUNTS))
def test_sampler_config_caps_hold_on_every_rebuild(name):
    cap = _MAX_COUNTS[name]
    message = f"{name} must be at most {cap}, not {cap + 1}"
    cfg = SamplerConfig()
    over = {**cfg._asdict(), name: cap + 1}
    for make in (
        lambda: SamplerConfig(**{name: cap + 1}),
        lambda: cfg._replace(**{name: cap + 1}),
        lambda: SamplerConfig._make(over.values()),
    ):
        with pytest.raises(ValueError, match=message):
            make()
    assert getattr(cfg._replace(**{name: cap}), name) == cap
