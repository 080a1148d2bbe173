"""Tests of the benchmark itself (tracer, checker, spec).

    python3 -m pytest -q outerbench/selftest.py

Run from the repository root.  The file is not named ``test_*.py`` so the
package's own test run does not collect it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (str(HERE), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import outerspine.cli  # noqa: E402  (loads every layer before bindings() reads them)
import run  # noqa: E402
import spec  # noqa: E402
from tracer import LAYERS, PACKAGE, Tracer, layer_metrics  # noqa: E402

DATA = "src/outerspine/data"
TINY_AXIS = [
    "axis", "--mu", f"{DATA}/current_a.json", "--nu", f"{DATA}/current_b.json",
    "--from", "-0.5", "--to", "0.5", "--step", "0.5", "--json",
]


def bindings() -> dict:
    """Every function, class and constructor bound in an outerspine module."""
    out = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")):
            for attr, obj in vars(mod).items():
                if callable(obj):
                    out[(name, attr)] = obj
                if isinstance(obj, type) and "__init__" in vars(obj):
                    out[(name, attr, "__init__")] = vars(obj)["__init__"]
    return out


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_counts_calls_made_inside_minimize(tracer):
    from outerspine import dual, parse_word
    from outerspine.minima import axis

    axis(dual(parse_word("a", 3)), dual(parse_word("b", 3)), -0.5, 0.5, 0.5, 0.05)
    spans = tracer.summary()["spans"]
    assert spans["minima.minimize"]["calls"] == 3
    probes = spans["minima.min_on_topology"]["calls"]
    assert probes > 3
    assert spans["simplex.solve_lp"]["calls"] == probes
    # transform reaches minima through ``from .graphs import transform``
    assert spans["graphs.transform"]["calls"] > 0
    names = tracer.names
    minimize_spans = {
        sid for sid, n in enumerate(tracer.span_name) if names[n] == "minima.minimize"
    }
    parents = [
        tracer.span_parent[sid]
        for sid, n in enumerate(tracer.span_name)
        if names[n] == "minima.min_on_topology"
    ]
    assert len(parents) == probes
    assert all(p in minimize_spans for p in parents)


def test_self_time_excludes_children(tracer):
    from outerspine import dual, parse_word
    from outerspine.minima import axis

    axis(dual(parse_word("a", 3)), dual(parse_word("b", 3)), 0.0, 0.0, 0.5, 0.05)
    i = tracer.names.index("minima.axis")
    sid = list(tracer.span_name).index(i)
    total = tracer.span_end[sid] - tracer.span_start[sid]
    assert 0 <= tracer.self_s[i] < total
    roots = sum(
        tracer.span_end[sid] - tracer.span_start[sid]
        for sid, parent in enumerate(tracer.span_parent)
        if parent == -1
    )
    assert sum(tracer.summary()["layer_self_s"].values()) == pytest.approx(roots, rel=1e-9)


def test_uninstall_restores_every_binding():
    before = bindings()
    t = Tracer()
    t.install()
    during = bindings()
    changed = [k for k in before if during[k] is not before[k]]
    assert ("outerspine.minima", "transform") in changed
    assert ("outerspine.graphs", "transform") in changed
    assert ("outerspine.words", "Word", "__init__") in changed
    t.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_layer_metrics_name_every_per_layer_metric():
    names = [m["name"] for m in spec.benchmark()["per_layer"] if m["name"] != "trace.overhead"]
    summary = {"spans": {}, "counts": {}, "layer_self_s": {layer: 0.0 for layer in LAYERS}}
    assert list(layer_metrics(summary, names)) == names


def test_checker_flags_changed_output():
    call = run.Call(wall=1.0, rc=0, rss_mb=20.0, digest="a" * 64, traceback=False)
    goldens = {"outputs": {"iwip-k25": {"*": "a" * 64}}}
    checker = run.Checker("iwip-k25", 7, goldens)
    assert checker.check(call, "same")
    changed = run.Call(wall=1.0, rc=0, rss_mb=20.0, digest="b" * 64, traceback=False)
    assert not checker.check(changed, "changed")
    crashed = run.Call(wall=1.0, rc=1, rss_mb=20.0, digest="a" * 64, traceback=True)
    assert not checker.check(crashed, "crashed")
    assert (checker.attempted, checker.failed) == (3, 2)


def test_checker_without_golden_compares_with_first_call():
    checker = run.Checker("contract-desk", 10**6, {"outputs": {}})
    first = run.Call(wall=1.0, rc=3, rss_mb=20.0, digest="c" * 64, traceback=False)
    other = run.Call(wall=1.0, rc=3, rss_mb=20.0, digest="d" * 64, traceback=False)
    assert checker.check(first, "first")
    assert not checker.check(other, "second")


def traced_call(tmp_path: Path, i: int) -> tuple[bytes, dict]:
    out = tmp_path / f"trace{i}.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "traced_cli.py"), str(out), str(i), *TINY_AXIS],
        cwd=ROOT, env=run.child_env(), capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(out.read_text())


def test_two_traced_runs_give_identical_counts(tmp_path):
    untraced = subprocess.run(
        [sys.executable, "-m", "outerspine.cli", *TINY_AXIS],
        cwd=ROOT, env=run.child_env(), capture_output=True, timeout=120,
    ).stdout
    out1, t1 = traced_call(tmp_path, 0)
    out2, t2 = traced_call(tmp_path, 1)
    assert out1 == out2 == untraced
    calls1 = {k: v["calls"] for k, v in t1["spans"].items()}
    calls2 = {k: v["calls"] for k, v in t2["spans"].items()}
    assert calls1 == calls2
    assert t1["counts"] == t2["counts"]
    assert calls1["cli.main"] == 1
    assert len(t1["spans_raw"][0]) == sum(calls1.values())


def test_benchmark_json_names_the_workloads_of_spec():
    assert [w["name"] for w in spec.benchmark()["workloads"]] == list(spec.WORKLOADS)


def test_peak_rss_is_the_childs_own():
    import resource
    import time

    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    call = run.run_child([sys.executable, "-S", "-c", "pass"], time.perf_counter() + 60)
    assert call.rc == 0
    assert call.rss_mb < own_mb


def test_kernel_beside_a_block_samples_it_and_stops():
    import threading
    import time

    import refkernel

    before = threading.active_count()
    with refkernel.During() as during:
        time.sleep(0.3)
    assert threading.active_count() == before
    assert len(during.times) >= 1
    assert during.mean() == pytest.approx(sum(during.times) / len(during.times))
    with refkernel.During() as instant:
        pass
    assert len(instant.times) >= 1


def test_benchmark_json_meets_contract():
    import re

    raw = (ROOT / "BENCHMARK.json").read_bytes()
    b = json.loads(raw)
    assert len(raw) <= 64 * 1024
    assert set(b) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert all(re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", p) and ".." not in p for p in b["paths"])
    assert len(b["command"]) <= 32 and all(len(a) <= 200 for a in b["command"])
    assert isinstance(b["run_seconds"], int) and 1 <= b["run_seconds"] <= 60
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    assert 2 <= len(b["workloads"]) <= 8
    for w in b["workloads"]:
        assert set(w) == {"name", "why"} and name.fullmatch(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(b["end_to_end"]) <= 16 and 1 <= len(b["per_layer"]) <= 128
    for m in b["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in b["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in b["end_to_end"] + b["per_layer"]:
        assert name.fullmatch(m["name"]) and unit.fullmatch(m["unit"])
        assert m["better"] in ("lower", "higher")
    names = [m["name"] for m in b["workloads"] + b["end_to_end"] + b["per_layer"]]
    assert len(names) == len(set(names))
    setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": max(
        m["bound"] for m in b["end_to_end"])}]
