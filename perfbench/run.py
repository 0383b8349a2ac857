"""The superchar benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  Every operation is one
`superchar` command in a fresh interpreter (through `launch.py`), so caches
start cold as they do for a user.  Whole rounds of the workload's commands
repeat until S seconds of them have been timed; a time is the sum over the
commands of each command's median over the rounds.  Outputs are checked against `oracle.py`, outside the timed
commands.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are end to end; with `--trace 1` the commands
run under the span tracer of `spans.py` and the metrics are per layer.
See README.md for the workloads, the checks and the reference figures.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import spans  # noqa: E402

CORPUS = ("C2", "C3", "C4", "C5", "C6", "C2xC2", "C8", "C2xC4", "C2xC2xC2", "S3", "D4",
          "Q8", "D5", "D6", "A4", "C3xC3", "D8", "Q16", "S4")
ENUMERATE = ("D12", "C10", "D4xC2")
CHARTAB = ("D32", "Q64", "C5xC5")
EXTREMES = ("C2xC2xC2xC2", "S3xQ8", "D24", "Q32")
# verify --extremes-only exits 2 on these while structure.s_normal_subgroups
# refuses more than 16 superclasses, a count that relabeling does not change
WALL_BOUND = ("C17", "C4xC5")
WALL_BOUND_MESSAGE = "exceed the subgroup-walk bound"
SETUP_PROBES = 5  # before each round and after the last, so they span the run
WORKLOADS = ("corpus-default", "corpus-parallel", "enumerate-wide", "large-groups")


@dataclass
class Op:
    """One superchar command; `check(path)` checks what it wrote to `out`."""

    argv: list[str]
    out: str
    check: Callable[[str], None]
    catalog: str | None = None
    wall_bound: bool = False


@dataclass
class Round:
    """Per-command figures of one round, in the order of the workload's commands."""

    wall_s: list[float] = field(default_factory=list)
    cpu_s: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    output_bytes: int = 0
    digests: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)


class Inputs:
    """The groups of one seed: tables written to the work directory, and the
    oracle's view of each.  Seed 0 keeps the catalog numbering; any other
    seed relabels every element but the identity by a seeded permutation."""

    def __init__(self, seed: int, work: str):
        from superchar.groups import catalog_group

        self.seed, self.work = seed, work
        self._catalog_group = catalog_group
        self.groups: dict[str, oracle.Group] = {}
        self.to_catalog: dict[str, list[int]] = {}

    def spec(self, name: str) -> str:
        """The `--group` argument for a catalog group, writing its table."""
        mul = [list(row) for row in self._catalog_group(name).mul]
        n = len(mul)
        perm = list(range(n))
        if self.seed:
            rest = perm[1:]
            random.Random(f"{self.seed}/{name}").shuffle(rest)
            perm = [0] + rest
            new = [[0] * n for _ in range(n)]
            for a in range(n):
                for b in range(n):
                    new[perm[a]][perm[b]] = perm[mul[a][b]]
            mul = new
            with open(os.path.join(self.work, name), "w", encoding="ascii") as fh:
                fh.write(f"order {n}\n")
                fh.writelines(" ".join(map(str, row)) + "\n" for row in mul)
        to_catalog = [0] * n
        for old, new_id in enumerate(perm):
            to_catalog[new_id] = old
        self.groups[name] = oracle.Group(mul)
        self.to_catalog[name] = to_catalog
        return f"file:{name}" if self.seed else name


def _peak_rss_kib(path: str) -> int:
    """The peak resident set that `launch.py --rss` wrote for a command."""
    oracle.require(os.path.exists(path), f"the command wrote no peak resident set to {path}")
    with open(path, encoding="ascii") as fh:
        return int(fh.read())


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_verify(inputs: Inputs, names, enumerated: bool):
    def check(path: str) -> None:
        corpus = _load(path)
        labels = [g["label"] for g in corpus["groups"]]
        oracle.require(labels == list(names), f"verify covered {labels}, expected {list(names)}")
        oracle.require(corpus["summary"]["fail"] == 0, "verify reports failures")
        for entry in corpus["groups"]:
            name = entry["label"]
            G = inputs.groups[name]
            expected = G.central_schur_rings() if enumerated else G.finest_and_coarsest()
            oracle.require(entry["enumerated"] == enumerated, f"{name}: wrong theory selection")
            oracle.require(entry["theory_count"] == len(entry["theories"]), f"{name}: bad count")
            oracle.check_theories(G, entry["theories"], expected, name)
            oracle.check_reports(entry["theories"], name)

    return check


def _check_enumerate(inputs: Inputs, name: str):
    def check(path: str) -> None:
        payload = _load(path)
        G = inputs.groups[name]
        oracle.require(payload["count"] == len(payload["theories"]), f"{name}: bad count")
        oracle.check_theories(G, payload["theories"], G.central_schur_rings(), name)

    return check


def _check_chartab(inputs: Inputs, name: str):
    def check(path: str) -> None:
        closed = oracle.closed_form_rows(name, inputs.to_catalog[name])
        oracle.check_character_table(inputs.groups[name], _load(path), closed, name)

    return check


def corpus_op(inputs: Inputs, jobs: int) -> Op:
    specs = [inputs.spec(g) for g in CORPUS]
    argv = ["verify", "--catalog", "default", "--jobs", str(jobs), "--format", "json",
            "--out", "corpus.json"]
    catalog = ",".join(s.removeprefix("file:") for s in specs) if inputs.seed else None
    return Op(argv, "corpus.json", _check_verify(inputs, CORPUS, True), catalog)


def workload_ops(name: str, inputs: Inputs) -> list[Op]:
    json_out = ["--format", "json", "--out"]
    if name in ("corpus-default", "corpus-parallel"):
        return [corpus_op(inputs, 1 if name == "corpus-default" else 2)]
    if name == "enumerate-wide":
        return [Op(["enumerate", "--group", inputs.spec(g)] + json_out + [f"enum-{g}.json"],
                   f"enum-{g}.json", _check_enumerate(inputs, g)) for g in ENUMERATE]
    if name == "large-groups":
        ops = [Op(["chartab", "--group", inputs.spec(g)] + json_out + [f"chartab-{g}.json"],
                  f"chartab-{g}.json", _check_chartab(inputs, g)) for g in CHARTAB]
        for g in EXTREMES + WALL_BOUND:
            argv = (["verify", "--extremes-only", "--group", inputs.spec(g)]
                    + json_out + [f"verify-{g}.json"])
            ops.append(Op(argv, f"verify-{g}.json", _check_verify(inputs, [g], False),
                          wall_bound=g in WALL_BOUND))
        return ops
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


class Runner:
    """Runs the commands of a workload and counts them: `attempted` and
    `failed` hold every command run so far, whether or not a check failed."""

    def __init__(self, root: str, work: str):
        self.root, self.work = root, work
        self.attempted = self.failed = 0
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("SUPERCHAR_")}
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def spawn(self, args, stderr_path: str):
        """Run a command to its end; returns (exit code, wall s, rusage)."""
        with open(stderr_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(args, cwd=self.work, env=self.env, start_new_session=True,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)  # the command and its pool workers
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage

    def setup_probes(self, count: int) -> list[float]:
        """Times from interpreter start until `import superchar` returns."""
        code = "import superchar, time; print(time.monotonic())"
        times = []
        for _ in range(count):
            t0 = time.monotonic()
            out = subprocess.run([sys.executable, "-c", code], cwd=self.work, env=self.env,
                                 capture_output=True, text=True, check=True).stdout
            times.append(float(out.split()[-1]) - t0)
        return times

    def round(self, ops: list[Op], traced: bool) -> Round:
        r = Round()
        for i, op in enumerate(ops):
            out = os.path.join(self.work, op.out)
            rss_path = os.path.join(self.work, f"rss-{i}.txt")
            for stale in (out, rss_path):
                if os.path.exists(stale):
                    os.remove(stale)
            args = [sys.executable, os.path.join(HERE, "launch.py"), "--rss", rss_path]
            if op.catalog:
                args += ["--catalog", op.catalog]
            trace_path = os.path.join(self.work, f"trace-{i}.json")
            if traced:
                args += ["--trace", trace_path]
            stderr_path = os.path.join(self.work, f"stderr-{i}.txt")
            self.attempted += 1
            code, wall, usage = self.spawn(args + ["--"] + op.argv, stderr_path)
            with open(stderr_path, encoding="utf-8", errors="replace") as fh:
                stderr = fh.read()
            counted = op.wall_bound and code == 2 and WALL_BOUND_MESSAGE in stderr
            oracle.require(code == 0 or counted, f"`superchar {' '.join(op.argv)}` exited "
                           f"{code}: " + stderr.strip()[-500:])
            r.wall_s.append(wall)
            r.cpu_s.append(usage.ru_utime + usage.ru_stime)
            r.rss_mb.append(_peak_rss_kib(rss_path) / 1024)
            if traced:
                r.traces.append(_load(trace_path))
            if counted:
                self.failed += 1
                r.digests.append("failed")
                continue
            with open(out, "rb") as fh:
                data = fh.read()
            r.output_bytes += len(data)
            r.digests.append(hashlib.sha256(data).hexdigest())
        return r


def serial_cache(root: str, seed: int) -> str:
    """Where the digest of the serial corpus output for this seed and source
    tree is kept, so corpus-parallel can skip a serial run that
    corpus-default has already made."""
    h = hashlib.sha256(str(seed).encode())
    src = os.path.join(root, "src", "superchar")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return os.path.join(root, ".bench_build", "perfbench", f"serial-{h.hexdigest()}")


def measure(workload: str, seed: int, seconds: int, traced: bool, runner: Runner):
    """Run the workload; returns its metrics as {name: (value, unit)}."""
    root, work = runner.root, runner.work
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    inputs = Inputs(seed, work)
    ops = workload_ops(workload, inputs)
    setup: list[float] = []
    rounds: list[Round] = []
    baseline = runner.round(ops, traced=False) if traced else None
    timed = 0.0
    while not rounds or timed < seconds:
        if not traced:
            setup += runner.setup_probes(SETUP_PROBES)
        r = runner.round(ops, traced)
        if not rounds:
            for op, digest in zip(ops, r.digests):
                if digest != "failed":
                    op.check(os.path.join(work, op.out))
        else:
            oracle.require(r.digests == rounds[0].digests, "outputs changed between rounds")
        rounds.append(r)
        timed += sum(r.wall_s)
    if baseline is not None:
        oracle.require(baseline.digests == rounds[0].digests, "tracing changed the outputs")
    if workload.startswith("corpus-"):
        cache = serial_cache(root, seed)
        if workload == "corpus-default":
            _write(cache, rounds[0].digests[0])
        elif not os.path.exists(cache):
            _write(cache, runner.round([corpus_op(inputs, 1)], traced=False).digests[0])
        with open(cache, encoding="ascii") as fh:
            oracle.require(fh.read() == rounds[0].digests[0],
                           "the corpus output differs from the serial run")

    if traced:
        per_round = [spans.layer_metrics(r.traces) for r in rounds]
        metrics = {k: (median([m[k] for m in per_round]), _unit(k)) for k in per_round[0]}
        metrics["cli.output_bytes"] = (median([r.output_bytes for r in rounds]), "bytes")
        metrics["trace.overhead_s"] = (_per_command(rounds, "wall_s", sum)
                                       - sum(baseline.wall_s), "s")
    else:
        metrics = {
            "setup_s": (median(setup + runner.setup_probes(SETUP_PROBES)), "s"),
            "wall_s": (_per_command(rounds, "wall_s", sum), "s"),
            "cpu_s": (_per_command(rounds, "cpu_s", sum), "s"),
            "peak_rss_mb": (_per_command(rounds, "rss_mb", max), "MB"),
        }
    return metrics


def _per_command(rounds: list[Round], figure: str, combine) -> float:
    """Combine, over the commands of a round, each command's median over rounds.

    Taking the median per command before adding them up keeps a command
    that ran during a slow spell of the machine out of the total."""
    per_round = [getattr(r, figure) for r in rounds]
    return combine(median(values) for values in zip(*per_round))


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_workload(workload: str, args, root: str) -> dict:
    """One run of one workload; returns the result object."""
    base = os.path.join(root, ".bench_build", "perfbench")
    work = os.path.join(base, f"{workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    runner = Runner(root, work)
    correct = True
    try:
        metrics = measure(workload, args.seed, args.seconds, bool(args.trace), runner)
    except Exception as exc:  # a wrong, missing or malformed output of the program
        print(f"check failed: {exc!r}", file=sys.stderr)
        correct, metrics = False, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": correct,
        "attempted": max(runner.attempted, 1),  # a check can fail before any command ran
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "superchar", "cli.py")):
        print("error: run from the root of a superchar checkout (src/superchar is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    correct = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        if args.workload == "all":
            print(f"# {workload}")
        result = run_workload(workload, args, root)
        print(json.dumps(result), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
