"""Paired A/B timing of two revisions of the program on the benchmark's own job plan.

    python3 tools/ab.py --workload classify-zoo --seed 9 --rounds 100
    python3 tools/ab.py --workload verify-zoo --seed 9 --base HEAD~1 --change HEAD

A side is a git revision, whose ``src`` and ``perfbench`` are extracted with
``git archive``, or a checkout directory, whose ``src`` and ``perfbench`` are
copied; either way into a temporary directory, where ``compileall`` compiles
them once, so that no run recompiles a module. By default the base is HEAD
and the change is the working tree of the checkout that holds this tool.

Each side runs in a worker process of its own, which imports its tree's
``perfbench/run.py``, and through it its tree's program. A worker sets up
the workload (``run.setup``) in a directory of its own, named by the same
relative path on both sides, so that a spec file's argv and its report's
``source.name`` are the same. Both workers plan the job list with
``run.plan`` and the same seed, and the tool checks that the two lists are
equal; each then runs one untimed warm-up round. A timed round of the plan
runs on one side and then on the other, and the side that goes first
alternates from round to round; one worker is idle while the other runs. A
job is timed as ``run.run_job`` times it: one ``cli.main`` call in process.

Two worker processes of the same tree can differ in speed by a few per
cent for the whole of their lives (where their memory landed, which core
they share). So the rounds are run in ``BLOCKS`` consecutive blocks (fewer
when there are fewer rounds), each by a fresh pair of workers, and the side
that is started first, and goes first in the block's first round,
alternates from block to block. The bootstrap intervals resample the
blocks first and then the pairs within each block drawn, so that the bias
of a worker pair widens the interval instead of shifting it unseen.

Every job's exit code, stderr and stdout (with the value of ``timing_s``
masked) must be equal on the two sides, and every answer must pass
``run.check``; otherwise the tool exits 1.

Per job kind, and for all jobs, it prints the median job seconds of each
side, the time shift of the change (the median over the pairs of the ratio
change / base, minus one; negative is faster) with a bootstrap 95 % interval
over blocks and pairs, and the number of pairs the change won. Below those,
the same per source: the job kind with the ``--zoo`` fixture or the spec
file a job runs on, so that a change that helps one class of input shows
on the rows of that input alone. Per round, it
prints the throughput shift (jobs over summed job seconds; positive is
faster), with its interval over blocks and rounds, and the rounds won. The
last line of standard output is the same as one JSON object. No figure is a gate: the tool adds evidence to a speed claim.
Uses the standard library and numpy only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PARTS = ("src", "perfbench")  # what a side needs of a checkout
SIDES = ("base", "change")
BOOTSTRAP = 2000
BLOCKS = 10  # blocks of rounds, each run by a fresh pair of workers
TIMING = re.compile(r'^(\s*"timing_s": ).*$', re.MULTILINE)  # its value is masked


# --- the trees ---------------------------------------------------------------------------


def build(source: str, dest: Path) -> Path:
    """The `PARTS` of a revision or of a checkout directory in `dest`, compiled."""
    dest.mkdir(parents=True)
    if Path(source).is_dir():
        for part in PARTS:
            shutil.copytree(Path(source) / part, dest / part,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc", ".perfbench"))
    else:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", source,
                                  *PARTS], capture_output=True)
        if archive.returncode != 0:
            raise SystemExit(f"error: git archive {source}: {archive.stderr.decode().strip()}")
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            # the "data" filter exists from Python 3.10.12 and 3.11.4 on
            safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
            tar.extractall(dest, **safe)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(dest)], check=True,
                   stdout=subprocess.DEVNULL)
    return dest


# --- a worker: one tree's program in a process of its own ---------------------------------


def serve(tree: Path, workload: str, seed: int, rounds: int) -> int:
    """Plan and warm up, send the plan, then run each round asked for on stdin."""
    sys.path.insert(0, str(tree / "perfbench"))
    import run

    run.import_program()
    work = Path("specs")  # relative: the same argv on both sides
    work.mkdir(exist_ok=True)
    targets = run.setup(workload, work)
    for job in run.plan(workload, seed, targets, 1, "warm-up"):
        run.run_job(job)
    jobs = run.plan(workload, seed, targets, rounds)
    channel = sys.stdout  # a job's own output goes to run_job's buffers

    def send(obj):
        channel.write(json.dumps(obj) + "\n")
        channel.flush()

    send({"argv": [list(job.argv) for job in jobs], "kinds": [job.kind for job in jobs]})
    for line in sys.stdin:
        lo, hi = map(int, line.split())
        results = []
        for job in jobs[lo:hi]:
            dt, rc, stdout, stderr = run.run_job(job)
            digest = hashlib.sha256(f"{rc}\0{stderr}\0{TIMING.sub('', stdout)}".encode())
            results.append([dt, run.check(job, rc, stdout), digest.hexdigest()])
        send(results)
    return 0


class Worker:
    def __init__(self, tree: Path, cwd: Path, args):
        cwd.mkdir()
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree),
             "--workload", args.workload, "--seed", str(args.seed), "--rounds", str(args.rounds)],
            cwd=cwd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.plan = self._receive()

    def _receive(self):
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"error: worker exited with {self.proc.wait()}")
        return json.loads(line)

    def run(self, lo: int, hi: int) -> list:
        self.proc.stdin.write(f"{lo} {hi}\n")
        self.proc.stdin.flush()
        return self._receive()

    def close(self):
        """End the worker: it leaves its loop when its stdin closes."""
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


# --- statistics ---------------------------------------------------------------------------


def shift(base, change, block, rng, faster=np.less) -> dict:
    """The median of change / base minus one, its bootstrap 95 % interval, and the pairs won
    by the change (``faster(change, base)``). A bootstrap sample draws as many blocks as there
    are, with replacement, by the pairs' `block` labels, and then the pairs of each block drawn
    with replacement."""
    base, change = np.asarray(base, dtype=float), np.asarray(change, dtype=float)
    ratio = change / base
    groups = [ratio[block == b] for b in np.unique(block)]
    resampled = np.empty(BOOTSTRAP)
    for k in range(BOOTSTRAP):
        drawn = [groups[b] for b in rng.integers(0, len(groups), size=len(groups))]
        resampled[k] = np.median(np.concatenate([g[rng.integers(0, len(g), size=len(g))]
                                                 for g in drawn]))
    lo, hi = np.percentile(resampled, [2.5, 97.5])
    return {"pairs": len(ratio), "base_median": float(np.median(base)),
            "change_median": float(np.median(change)), "shift": float(np.median(ratio)) - 1.0,
            "ci95": [float(lo) - 1.0, float(hi) - 1.0],
            "won": int(np.count_nonzero(faster(change, base)))}


def source(kind: str, argv) -> str:
    """A job's kind and the ``--zoo`` fixture or spec file name it runs on."""
    if "--zoo" in argv:
        return f"{kind} {argv[argv.index('--zoo') + 1]}"
    return f"{kind} {next(Path(arg).name for arg in argv if arg.endswith('.spec'))}"


def percent(x: float) -> str:
    return f"{100.0 * x:+.1f} %"


# --- entry point --------------------------------------------------------------------------


def compare(args) -> dict:
    """Run both sides and return the report; see the module docstring."""
    blocks = np.array_split(np.arange(args.rounds), min(BLOCKS, args.rounds))
    seconds = {side: [] for side in SIDES}
    failed = {side: [] for side in SIDES}
    digests = {side: [] for side in SIDES}
    block_of = []  # the block of each timed job, in plan order
    plan = None
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        tmp = Path(tmp)
        trees = {side: build(getattr(args, side), tmp / side) for side in SIDES}
        for b, rounds in enumerate(blocks):
            order = SIDES if b % 2 == 0 else SIDES[::-1]
            workers = {}
            try:
                for side in order:
                    workers[side] = Worker(trees[side], tmp / f"run-{b}-{side}", args)
                plan = plan or workers["base"].plan
                if not plan == workers["base"].plan == workers["change"].plan:
                    raise SystemExit("error: the two sides plan different job lists")
                n = len(plan["argv"])
                size = n // args.rounds  # jobs per round
                for k, r in enumerate(rounds):
                    lo = r * size
                    for side in order if k % 2 == 0 else order[::-1]:
                        for i, (dt, reason, digest) in enumerate(workers[side].run(lo, lo + size)):
                            seconds[side].append(dt)
                            digests[side].append(digest)
                            if reason is not None:
                                failed[side].append(f"{' '.join(plan['argv'][lo + i])}: {reason}")
                block_of += [b] * (size * len(rounds))
            finally:
                for worker in workers.values():
                    worker.close()
    # each side's lists follow the plan, as the blocks and their rounds were run in plan order
    rng = np.random.default_rng(0)
    kinds, block_of = np.array(plan["kinds"]), np.array(block_of)
    base, change = (np.array(seconds[side]) for side in SIDES)
    by_kind = {kind: shift(base[kinds == kind], change[kinds == kind], block_of[kinds == kind],
                           rng)
               for kind in dict.fromkeys(plan["kinds"])}
    by_kind["all"] = shift(base, change, block_of, rng)
    sources = np.array([source(kind, argv) for kind, argv in zip(plan["kinds"], plan["argv"])])
    by_source = {key: shift(base[sources == key], change[sources == key],
                            block_of[sources == key], rng)
                 for key in dict.fromkeys(sources)}
    jobs_per_s = {side: [size / sum(seconds[side][lo:lo + size]) for lo in range(0, n, size)]
                  for side in SIDES}
    rounds = shift(jobs_per_s["base"], jobs_per_s["change"], block_of[::size], rng,
                   faster=np.greater)
    differing = [plan["argv"][i] for i in range(n) if digests["base"][i] != digests["change"][i]]
    return {"workload": args.workload, "seed": args.seed, "jobs": n, "blocks": len(blocks),
            "equal": not differing, "differing": differing[:5],
            "failed": {side: failed[side][:5] for side in SIDES},
            "kinds": by_kind, "sources": by_source,
            "rounds": {**rounds, "jobs_per_round": size}}


def print_report(report: dict) -> None:
    print(f"{report['workload']}, seed {report['seed']}: {report['jobs']} jobs on each side,"
          f" in {report['blocks']} blocks of fresh worker pairs")
    for label, width, rows in (("kind", 10, report["kinds"]), ("source", 22, report["sources"])):
        print(f"{label:{width}s} {'pairs':>6s} {'base ms':>9s} {'change ms':>9s}"
              f" {'time shift':>10s}  {'95 % interval':22s} {'won':>9s}")
        for key, row in rows.items():
            interval = "[{}, {}]".format(*map(percent, row["ci95"]))
            print(f"{key:{width}s} {row['pairs']:6d} {1e3 * row['base_median']:9.3f}"
                  f" {1e3 * row['change_median']:9.3f} {percent(row['shift']):>10s}"
                  f"  {interval:22s} {row['won']:5d}/{row['pairs']}")
    row = report["rounds"]
    interval = "[{}, {}]".format(*map(percent, row["ci95"]))
    print(f"{row['pairs']} rounds of {row['jobs_per_round']} jobs: jobs/s"
          f" {row['base_median']:.4g} -> {row['change_median']:.4g}, throughput shift"
          f" {percent(row['shift'])} {interval}, won {row['won']}/{row['pairs']}")
    for argv in report["differing"]:
        print(f"outputs differ: {' '.join(argv)}")
    for side in SIDES:
        for reason in report["failed"][side]:
            print(f"failed job ({side}): {reason}")
    print(json.dumps(report))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("classify-zoo", "verify-zoo", "verify-spec"))
    parser.add_argument("--seed", type=int, required=True, help="seed of the job plan")
    parser.add_argument("--rounds", type=int, default=20, help="timed rounds of the plan")
    parser.add_argument("--base", default="HEAD", help="revision or checkout directory")
    parser.add_argument("--change", default=str(ROOT), help="revision or checkout directory")
    parser.add_argument("--worker", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        return serve(args.worker, args.workload, args.seed, args.rounds)
    if args.rounds < 1:
        parser.error("--rounds must be positive")
    report = compare(args)
    print_report(report)
    return 0 if report["equal"] and not any(report["failed"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
