"""Tests of the benchmark itself: ``python3 -m pytest -q bench`` from the root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import layers
import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def scratch():
    """A directory inside the checkout, removed afterwards."""
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        yield Path(tmp)
    try:
        run.WORK.rmdir()
    except OSError:
        pass


@pytest.fixture
def runner(scratch):
    return run.Runner(scratch, time.monotonic() + 120)


def argvs(workload):
    return [inv.argv for inv in workload.invocations]


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_workloads_are_deterministic_per_seed(name):
    assert argvs(workloads.build(name, 7)) == argvs(workloads.build(name, 7))
    assert argvs(workloads.build(name, 7)) != argvs(workloads.build(name, 8))
    labels = [inv.label for inv in workloads.build(name, 7).invocations]
    assert len(labels) == len(set(labels))


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.BUILDERS)


def test_reference_word_matches_readme_example():
    spec = workloads.Spec((("a", 2),), (("x", 2), ("y", 2), ("z", 2)))
    assert spec.prefix(8) == "axayaxaz"
    assert spec.text() == "a:2 | x:2 y:2 z:2"


def _flip(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


@pytest.mark.parametrize("workload, label", [("cli-battery", "gen"),
                                             ("oracle-sweep", "debruijn")])
def test_gate_fails_when_one_output_byte_flips(runner, workload, label):
    inv = next(i for i in workloads.build(workload, workloads.DEFAULT_SEED).invocations
               if i.label == label)
    expected = json.loads(run.DIGESTS.read_text())[workload]
    outcome = runner.run(inv, traced=False)
    gate = run.Gate(expected)
    gate.admit(outcome)
    assert outcome.error is None and not gate.errors

    stdout = (runner.workdir / "stdout").read_bytes()
    files = {name: (runner.workdir / name).read_bytes() for name in inv.files}
    target = inv.files[0] if inv.files else "stdout"
    original = files[target] if inv.files else stdout
    # a letter inside the payload, so the result stays well-formed text
    position = max(original.rfind(b"a"), original.rfind(b"x"))
    flipped = _flip(original, position)
    if inv.files:
        files[target] = flipped
    else:
        stdout = flipped
    digests, _ = run.judge(inv, 0, stdout, files)
    gate.admit(run.Outcome(label, 0.0, 0.0, digests))
    assert gate.errors and "recorded digests" in gate.errors[-1]

    # without recorded digests, the byte still differs from the first pass
    first_pass_only = run.Gate(None)
    first_pass_only.admit(run.Outcome(label, 0.0, 0.0, outcome.digests))
    first_pass_only.admit(run.Outcome(label, 0.0, 0.0, digests))
    assert first_pass_only.errors


def test_structural_checks_catch_a_wrong_count():
    check = workloads.check_complexity(2)
    check(b"L,formula,oracle,growth\n0,1,1,3\n1,4,4,2\n2,6,6,2\n", {})
    with pytest.raises(workloads.BadOutput):
        check(b"L,formula,oracle,growth\n0,1,1,3\n1,4,4,2\n2,6,7,2\n", {})


@pytest.mark.parametrize("stdout", [
    b'{"kind": "exact", "verdict": "satisfied", "witness": [1, 2, 3]}',  # no period
    b'[1, 2, 3]',                                                         # not an object
])
def test_gate_fails_on_a_wrongly_shaped_output(stdout):
    inv = next(i for i in workloads.build("cli-battery", workloads.DEFAULT_SEED).invocations
               if i.label == "bosh-eta-0")
    _, error = run.judge(inv, 0, stdout, {})
    assert error is not None and error.startswith("bad output")


def test_every_per_layer_metric_is_emitted(runner):
    small = workloads.Workload("small", (
        workloads.Invocation("gen", ("gen", "--preset", "grigorchuk", "--length", "8"),
                             workloads.check_gen("axayaxaz")),
        workloads.Invocation(
            "lyapunov", ("spectrum", "--preset", "grigorchuk", "--q", "a=0,x=1,y=2,z=3",
                         "--energies=-1:1:3", "--lyapunov", "64", "--csv", "l.csv"),
            workloads.check_lyapunov(-1.0, 1.0, 3, "l.csv"), ("l.csv",)),
        workloads.Invocation(
            "complexity", ("complexity", "--preset", "grigorchuk", "--check",
                           "--max-len", "12"),
            workloads.check_complexity(12)),
    ))
    gate = run.Gate(None)
    passes = run.measure(runner, gate, small, seconds=0, trace=True)
    assert not gate.errors
    values, _ = run.per_layer(passes)
    assert sorted(values) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert values["spectral.cocycle_steps"] == 3 * 64
    assert values["spectral.cocycle_flops"] == 12 * 3 * 64
    assert values["cli.calls"] >= 3 and values["words.symbols"] > 0
    assert values["language.factors"] > 0 and values["language.windows"] > 0
    assert values["spectral.lyapunov.self_s"] > 0 and values["cli.import_s"] > 0
    assert values["parallel.jobs"] >= 1


def test_end_to_end_metrics_match_benchmark_json():
    assert list(run.END_TO_END) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert run.END_TO_END == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert layers.METRIC_UNITS == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def test_times_are_relative_to_the_reference_launch():
    def gauged(wall, reference):
        return run.Outcome("x", wall, 30.0, {}, reference=reference)

    def one_pass(k):
        """The same pass on a machine k times slower."""
        return run.Pass(False, [run.Outcome("y", 2.0 * k, 30.0, {}),
                                run.Outcome("z", 4.0 * k, 30.0, {})],
                        [gauged(0.5 * k, 0.5 * k), gauged(0.3 * k, 0.4 * k)])

    slow, fast = run.end_to_end([one_pass(2.0)]), run.end_to_end([one_pass(1.0)])
    for name in run.END_TO_END:
        assert slow[name] == pytest.approx(fast[name])
    assert fast["wall_s"] == pytest.approx([run.REFERENCE_S * 6.0 / 0.45])
    assert fast["setup_s"] == pytest.approx([run.REFERENCE_S, run.REFERENCE_S * 0.75])


def test_self_time_splits_concurrent_leaves():
    spans = [(1, "cli.main", 0.0, 10.0, None),
             (2, "parallel.run_map", 2.0, 8.0, 1),
             (3, "language.x.mapped", 3.0, 7.0, 2),
             (4, "language.x.mapped", 5.0, 7.0, 2)]
    own = layers.self_times(spans)
    assert own[1] == pytest.approx(4.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0) and own[4] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_refuses_to_run_without_the_program(scratch):
    shutil.copytree(run.HERE, scratch / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", scratch)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-battery",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=scratch, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and '"correct"' not in out.stdout
