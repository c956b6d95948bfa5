"""Cold-process benchmark of ``hadamard6 verify``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src`` and nothing needs to be installed.  Each measured run of the CLI is
a fresh child process, so every run pays the cold ``@cache`` cost users pay.
The load is a closed loop with one client: the next child starts only after
the previous one has exited, and no threads are used.

Workloads (``--seed`` reaches the program only through ``verify --seed``):

- ``verify_all``: ``verify --json``, all six suites.
- ``theorem``: ``verify --only theorem --json --seed N``.
- ``outer``: ``verify --only outer --json``.

``--trace 0`` first times ``SETUP_REPEATS`` fresh interpreters that only
import ``hadamard6.cli`` (``setup_s``).  It then runs ``MIN_CHILDREN``
children of the workload, and more while the next is expected to end within
``--seconds`` seconds, and reports the median ``wall_s``, ``cpu_s`` and
``peak_rss_mb`` of its children.  ``--trace 1`` runs the workload once
untraced and twice under ``tracer.py`` and reports the per-layer metrics; the
exact counts of the two traced runs must agree.

Every child must pass ``gate.check_report``, and the stdout of all children
of one invocation must be byte-identical, although they alternate between
two ``PYTHONHASHSEED`` values.  The last stdout line is one JSON object with
``correct``, ``attempted`` and ``failed`` (reference clauses over all
children) and ``metrics``.  The exit code is 0 when correct, 1 when a check
failed and 2 when the benchmark could not run at all (no ``src/hadamard6``).
Trace files and child stderr go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import tracer

perf = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
TRACER = Path(__file__).resolve().parent / "tracer.py"

ALL_SUITES = ("prop1", "prop2", "theorem", "submodule", "outer", "codes")
WORKLOADS = ("verify_all", "theorem", "outer")
SETUP_REPEATS = 9
MIN_CHILDREN = 2
# Every invocation ends within this many seconds, killing a child if needed.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes
    stderr_path: Path


def verify_args(workload: str, seed: int) -> tuple[list[str], tuple[str, ...], int]:
    """CLI arguments, suites reported, and seed the report must echo."""
    if workload == "verify_all":
        return ["verify", "--json"], ALL_SUITES, 0
    if workload == "theorem":
        return ["verify", "--only", "theorem", "--json", "--seed", str(seed)], ("theorem",), seed
    return ["verify", "--only", "outer", "--json"], ("outer",), 0


def hash_seeds(seed: int) -> tuple[int, int, int]:
    """Three distinct PYTHONHASHSEED values derived from the benchmark seed."""
    base = 3 * seed % (2**32 - 4)
    return base + 1, base + 2, base + 3


def child_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def spawn(argv: list[str], env: dict, stderr_path: Path, deadline: float) -> Child:
    """Run argv to completion; time spawn to exit, read usage from wait4."""
    start = perf()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
    chunks, fd, timed_out = [], proc.stdout.fileno(), False
    while True:
        left = deadline - perf()
        if left <= 0:
            proc.kill()
            timed_out = True
            break
        ready, _, _ = select.select([fd], [], [], left)
        if ready:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out:
        with open(stderr_path, "ab") as err:
            err.write(b"\nkilled: the benchmark's deadline passed\n")
    return Child(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        returncode=-9 if timed_out else proc.returncode,
        stdout=b"".join(chunks),
        stderr_path=stderr_path,
    )


def measure_setup(seed: int, deadline: float) -> list[float]:
    """Spawn-to-exit times of fresh interpreters importing hadamard6.cli.

    One untimed import first writes the bytecode cache, as installing does.
    """
    argv = [sys.executable, "-c", "import hadamard6.cli"]
    env = child_env(hash_seeds(seed)[0])
    times = []
    for i in range(SETUP_REPEATS + 1):
        child = spawn(argv, env, OUT / f"setup-{i}.stderr", deadline)
        if child.returncode != 0:
            raise BenchError(f"importing hadamard6.cli failed; see {child.stderr_path}")
        if i:
            times.append(child.wall_s)
    return times


class Verdicts:
    """Gate results and stdout of every child of one invocation."""

    def __init__(self, workload: str, seed: int):
        _, self.suites, self.seed = verify_args(workload, seed)
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.outputs: set[bytes] = set()

    def add(self, child: Child, label: str) -> None:
        clauses = gate.clause_count(self.suites)
        self.attempted += clauses
        problems = gate.check_report(child.stdout, child.returncode, self.suites, self.seed)
        if problems:
            self.failed += clauses
            self.problems += [f"{label}: {p} (stderr: {child.stderr_path})" for p in problems]
        self.outputs.add(child.stdout)

    def finish(self) -> None:
        if len(self.outputs) > 1:
            self.problems.append(
                f"stdout differs between children ({len(self.outputs)} distinct outputs)")

    @property
    def correct(self) -> bool:
        return not self.problems


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_untraced(workload: str, seed: int, seconds: float, deadline: float):
    setup = measure_setup(seed, deadline)
    args, _, _ = verify_args(workload, seed)
    argv = [sys.executable, "-m", "hadamard6.cli", *args]
    seeds = hash_seeds(seed)
    verdicts = Verdicts(workload, seed)
    children: list[Child] = []
    start = perf()
    while True:
        i = len(children)
        child = spawn(argv, child_env(seeds[i % 2]), OUT / f"{workload}-{i}.stderr", deadline)
        children.append(child)
        verdicts.add(child, f"run {i} (PYTHONHASHSEED={seeds[i % 2]})")
        if child.returncode == -9:
            break
        # At least MIN_CHILDREN, so that every run compares two hash seeds;
        # after that, another child only if it is expected to end in time.
        if (len(children) >= MIN_CHILDREN
                and perf() - start + max(c.wall_s for c in children) > seconds):
            break
    verdicts.finish()
    samples = {
        "wall_s": ("s", [c.wall_s for c in children]),
        "cpu_s": ("s", [c.cpu_s for c in children]),
        "peak_rss_mb": ("MB", [c.peak_rss_mb for c in children]),
        "setup_s": ("s", setup),
    }
    return verdicts, samples


def run_traced(workload: str, seed: int, deadline: float):
    args, _, _ = verify_args(workload, seed)
    seeds = hash_seeds(seed)
    verdicts = Verdicts(workload, seed)
    plain = spawn([sys.executable, "-m", "hadamard6.cli", *args], child_env(seeds[0]),
                  OUT / f"{workload}-untraced.stderr", deadline)
    verdicts.add(plain, f"untraced run (PYTHONHASHSEED={seeds[0]})")
    traces, walls = [], []
    for i, hash_seed in enumerate(seeds[1:]):
        trace_path = OUT / f"{workload}-trace-{i}.json"
        child = spawn([sys.executable, str(TRACER), str(trace_path), *args], child_env(hash_seed),
                      OUT / f"{workload}-trace-{i}.stderr", deadline)
        verdicts.add(child, f"traced run {i} (PYTHONHASHSEED={hash_seed})")
        if child.returncode != 0:
            break
        with open(trace_path) as fh:
            traces.append(json.load(fh)["metrics"])
        walls.append(child.wall_s)
    verdicts.finish()

    samples = {}
    if len(traces) == 2:
        for name in tracer.metric_names():
            values = [t[name] for t in traces]
            if tracer.is_exact(name) and values[0] != values[1]:
                verdicts.problems.append(f"nondeterministic count {name}: {values[0]} != {values[1]}")
            samples[name] = (tracer.unit(name), values[:1] if tracer.is_exact(name) else values)
        samples["trace.overhead_s"] = ("s", [w - plain.wall_s for w in walls])
    return verdicts, samples


def report(verdicts: Verdicts, samples: dict) -> dict:
    metrics = {}
    for name, (unit, values) in samples.items():
        q1, median, q3 = quartiles(values)
        metrics[name] = {"value": median, "unit": unit}
        print(f"{name:42s} {median:>20} {unit:6s} q1 {q1} q3 {q3} n {len(values)}")
    ratio = verdicts.failed / verdicts.attempted if verdicts.attempted else 1.0
    print(f"{'clause_fail_ratio':42s} {ratio:>20} ratio  "
          f"({verdicts.failed} of {verdicts.attempted} reference clauses)")
    for problem in verdicts.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return {
        "correct": verdicts.correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf() + DEADLINE_S

    try:
        if not (SRC / "hadamard6" / "cli.py").is_file():
            raise BenchError(f"{SRC / 'hadamard6'} not found: run from a source checkout")
        OUT.mkdir(exist_ok=True)
        if args.trace:
            verdicts, samples = run_traced(args.workload, args.seed, deadline)
        else:
            verdicts, samples = run_untraced(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = report(verdicts, samples)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
