"""Closed-loop benchmark of the ``toeplitz`` CLI, end to end and per layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload oracle-sweep --seed 0 --seconds 40 --trace 0

One client runs the workload's invocations as ``python -m toeplitz ...``
subprocesses, one at a time, each waiting for the last (a closed loop).  A
pass is one run over every invocation of the workload.  An untraced pass
also spreads a few no-op ``toeplitz presets`` launches, which time start-up,
evenly between them, each right after a reference launch (``reference.py``):
fixed work that gauges the machine's current speed.  Passes repeat until the
next one would end after ``--seconds``.  Every output is checked (see
``workloads.py``); with the default seed its bytes must also match the
digests in ``digests.json``, the seed-0 outputs of the package at commit 57d27ef.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median wall time of
a pass), ``peak_rss_mb`` (median over passes of the largest child
``ru_maxrss`` in the pass) and ``setup_s`` (median wall time of a no-op
launch).  Pass times are divided by the run's mean reference launch, and a
no-op launch by the reference launch right before it; both are multiplied by
``REFERENCE_S``, so they are seconds on a machine where a reference launch
takes ``REFERENCE_S``.  The report line also has the raw times.

``--trace 1`` runs one untraced pass, then traced passes through
``launch.py``, and prints the per-layer metrics of ``layers.py`` (medians
over traced passes); traced outputs must equal the untraced ones byte for
byte.  Invocations use the CLI's default ``--jobs``, as users do; BLAS
libraries get one thread (see ``Runner``).

The line before the last is a report: environment, sample counts, quartiles,
failures and per-invocation times.  The last line is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
REFERENCE = HERE / "reference.py"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 4  # no-op launches per untraced pass; setup_s is their median
TIME_LIMIT_S = 170  # hard stop: children still running then are killed
# Reported times are scaled to a machine on which one reference launch takes
# this long (about the median on a shared 2-core Xeon at 2.0 GHz).
REFERENCE_S = 0.2

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Outcome:
    label: str
    wall: float
    rss_mb: float
    digests: dict
    error: str | None = None
    record: dict | None = None
    reference: float | None = None  # wall time of the reference launch before it


@dataclass
class Pass:
    traced: bool
    outcomes: list[Outcome]
    probes: list[Outcome] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(o.wall for o in self.outcomes)

    @property
    def peak_rss_mb(self) -> float:
        return max(o.rss_mb for o in self.outcomes)


class Runner:
    """Launches one invocation at a time inside a scratch directory."""

    def __init__(self, workdir: Path, stop_at: float):
        self.workdir = workdir
        self.stop_at = stop_at
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        # One BLAS thread.  On two shared cores a second OpenBLAS thread made
        # one 500x500 eigvalsh take anywhere from 0.05 s to 2.2 s: that times
        # the host's scheduler, not the program.
        self.env.update({var: "1" for var in BLAS_THREAD_VARS})

    def reference(self) -> float:
        """Wall time of one reference launch."""
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(REFERENCE)], cwd=self.workdir,
                              env=self.env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=max(1.0, self.stop_at - t0))
        elapsed = time.monotonic() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"reference launch failed: {proc.stderr[-300:]!r}")
        return elapsed

    def run_gauged(self, inv: workloads.Invocation) -> Outcome:
        """An untraced invocation right after a reference launch."""
        reference = self.reference()
        outcome = self.run(inv, False)
        outcome.reference = reference
        return outcome

    def run(self, inv: workloads.Invocation, traced: bool) -> Outcome:
        work = self.workdir
        for name in inv.files:
            (work / name).unlink(missing_ok=True)
        record_path = work / "record.json"
        if traced:
            cmd = [sys.executable, str(HERE / "launch.py"), str(record_path), *inv.argv]
        else:
            cmd = [sys.executable, "-m", "toeplitz", *inv.argv]
        with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=work, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, self.stop_at - t_spawn), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t_reaped = time.monotonic()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        stdout = (work / "stdout").read_bytes()
        files = {name: (work / name).read_bytes() if (work / name).is_file() else None
                 for name in inv.files}
        digests, error = judge(inv, code, stdout, files, (work / "stderr").read_bytes())
        outcome = Outcome(inv.label, t_reaped - t_spawn, usage.ru_maxrss / 1024,
                          digests, error)
        if traced and code == 0:
            record = json.loads(record_path.read_text(encoding="utf-8"))
            record.update(invocation=inv.label, t_spawn=t_spawn, t_reaped=t_reaped)
            outcome.record = record
        return outcome


def judge(inv: workloads.Invocation, code: int, stdout: bytes, files: dict,
          stderr: bytes = b"") -> tuple[dict, str | None]:
    """Digests of an invocation's outputs, and what is wrong with them if anything."""
    digests = {"stdout": sha256(stdout)}
    digests.update({name: data and sha256(data) for name, data in files.items()})
    if code != 0:
        tail = stderr[-300:].decode("utf-8", "replace").strip()
        return digests, f"exit code {code}: {tail}"
    try:
        inv.check(stdout, files)
    except Exception as exc:  # a wrongly shaped output may fail any way
        return digests, f"bad output: {exc!r}"
    return digests, None


class Gate:
    """Byte-level output checks on top of each invocation's own check.

    Every invocation must write what it wrote in the first pass, traced or
    not, and, when digests were recorded for this seed, exactly those bytes.
    """

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.first: dict[str, dict] = {}
        self.attempted = 0
        self.errors: list[str] = []

    def admit(self, outcome: Outcome) -> None:
        self.attempted += 1
        if outcome.error is None:
            seen = self.first.setdefault(outcome.label, outcome.digests)
            if self.expected is not None and outcome.label in self.expected \
                    and outcome.digests != self.expected[outcome.label]:
                outcome.error = "output bytes differ from the recorded digests"
            elif seen != outcome.digests:
                outcome.error = "output bytes differ from the first pass"
        if outcome.error is not None:
            self.errors.append(f"{outcome.label}: {outcome.error}")


def run_pass(runner: Runner, gate: Gate, workload: workloads.Workload,
             traced: bool) -> Pass:
    """One run over the workload.  An untraced pass spreads its no-op launches
    evenly between the invocations, each right after a reference launch."""
    count = len(workload.invocations)
    probes_before = collections.Counter(count * i // SETUP_PROBES
                                        for i in range(SETUP_PROBES))
    probes, outcomes = [], []
    for i, inv in enumerate(workload.invocations):
        if not traced:
            probes += [runner.run_gauged(workloads.SETUP_PROBE)
                       for _ in range(probes_before[i])]
        outcomes.append(runner.run(inv, traced))
    for outcome in probes + outcomes:
        gate.admit(outcome)
    return Pass(traced, outcomes, probes)


def measure(runner: Runner, gate: Gate, workload: workloads.Workload,
            seconds: float, trace: bool) -> list[Pass]:
    """Warm up once, then run passes while the next one fits in `seconds`."""
    start = time.monotonic()
    runner.reference()  # loads numpy into the page cache
    gate.admit(runner.run(workloads.SETUP_PROBE, False))  # compiles bytecode
    passes = [run_pass(runner, gate, workload, False)] if trace else []
    while True:
        t0 = time.monotonic()
        passes.append(run_pass(runner, gate, workload, trace))
        spent = time.monotonic() - t0
        now = time.monotonic()
        if now + spent > min(start + seconds, runner.stop_at) or gate.errors:
            return passes


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values), "n": len(values)}


def end_to_end(passes: list[Pass]) -> dict:
    """Samples of each end-to-end metric, times relative to the reference.

    A no-op launch is as short as a reference launch and follows it, so each
    is divided by its own.  A pass spans many swings of the machine's speed,
    so pass times are divided by the mean reference launch of the run, which
    samples the speed all through it.
    """
    scale = REFERENCE_S / statistics.fmean(o.reference for p in passes for o in p.probes)
    return {
        "wall_s": [scale * p.wall for p in passes],
        "peak_rss_mb": [p.peak_rss_mb for p in passes],
        "setup_s": [REFERENCE_S * o.wall / o.reference for p in passes for o in p.probes],
    }


def raw_times(passes: list[Pass]) -> dict:
    return {
        "wall_s": [p.wall for p in passes],
        "setup_s": [o.wall for p in passes for o in p.probes],
        "reference_s": [o.reference for p in passes for o in p.probes],
    }


def per_layer(passes: list[Pass]) -> tuple[dict, dict]:
    """Medians over traced passes of every per-layer metric, and their samples."""
    untraced = [p.wall for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    samples: dict[str, list[float]] = {name: [] for name, *_ in layers.METRICS}
    for p in traced:
        summary = layers.summarize([o.record for o in p.outcomes])
        summary["trace.overhead_s"] = p.wall - statistics.median(untraced)
        for name, value in summary.items():
            samples[name].append(value)
    return {name: statistics.median(v) for name, v in samples.items()}, samples


def workload_split(name: str, metrics: dict, traced_wall: float) -> dict:
    """Share of a traced pass taken by the layers the workload is meant to stress."""
    stressed = {
        "oracle-sweep": ("language.self_s", "parallel.self_s", "repetitivity.self_s"),
        "spectral-scan": ("spectral.self_s",),
        "cli-battery": ("process.start_s", "cli.import_s"),
    }[name]
    return {"layers": list(stressed),
            "share": sum(metrics[m] for m in stressed) / traced_wall}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(args) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        "reference_s": REFERENCE_S,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client",
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "toeplitz" / "cli.py").is_file():
        print(f"bench: no toeplitz package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        return benchmark(args)
    finally:
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass


def benchmark(args) -> int:
    workload = workloads.build(args.workload, args.seed)
    expected = None
    if args.seed == workloads.DEFAULT_SEED:
        expected = json.loads(DIGESTS.read_text())[workload.name]
    gate = Gate(expected)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        runner = Runner(Path(tmp), time.monotonic() + TIME_LIMIT_S)
        passes = measure(runner, gate, workload, args.seconds, bool(args.trace))

    report = {"env": environment(args),
              "attempted": gate.attempted, "failed": len(gate.errors),
              "fail_frac": len(gate.errors) / gate.attempted,
              "errors": gate.errors[:10]}
    untraced = [p for p in passes if not p.traced]
    report["end_to_end"] = {k: quartiles(v) for k, v in end_to_end(untraced).items()}
    report["raw"] = {k: quartiles(v) for k, v in raw_times(untraced).items()}
    report["passes"] = [{"wall_s": p.wall, "reference_s": [o.reference for o in p.probes],
                         "setup_s": [o.wall for o in p.probes]} for p in untraced]
    report["invocations"] = {
        inv.label: {"wall_s": statistics.median(p.outcomes[i].wall for p in untraced),
                    "peak_rss_mb": max(p.outcomes[i].rss_mb for p in untraced)}
        for i, inv in enumerate(workload.invocations)
    }
    if args.trace and not gate.errors:
        values, samples = per_layer(passes)
        traced_wall = statistics.median(p.wall for p in passes if p.traced)
        report["per_layer"] = {k: quartiles(v) for k, v in samples.items()}
        report["split"] = workload_split(workload.name, values, traced_wall)
        metrics = {k: {"value": v, "unit": layers.METRIC_UNITS[k]}
                   for k, v in values.items()}
    elif args.trace:
        metrics = {name: {"value": 0.0, "unit": unit} for name, unit, _ in layers.METRICS}
    else:
        metrics = {k: {"value": report["end_to_end"][k]["median"], "unit": unit}
                   for k, unit in END_TO_END.items()}
    for error in gate.errors:
        print(f"bench: {error}", file=sys.stderr)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": not gate.errors, "attempted": gate.attempted,
                      "failed": len(gate.errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
