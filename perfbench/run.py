"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload skew_join --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics from a separate traced run.
``--workload all`` runs every workload in turn, each as above.
Every job is checked against a reference computed before timing, in its
own process.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records provenance (seeds, nproc, Python, commit, hardware class).

See ``perfbench/README.md`` for the workloads, metrics and layers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
WORKLOADS = ("skew_join", "similarity_join", "service_mix", "skew_join_spill")

#: Seed kept out of every tuning run; later claims must also hold on it.
HELD_OUT_SEED = 8191

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 7

#: Every run ends within this many seconds of its start, or fails.
RUN_BUDGET_S = 170.0


class ChildFailed(RuntimeError):
    """A benchmark process exited non-zero or ran out of time."""


def source_digest(root: Path) -> str:
    """Content hash of the program's sources (identifies non-git checkouts)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def git_commit(root: Path) -> str:
    """The checkout's commit, or ``unknown`` outside a git checkout."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip()[:12] if proc.returncode == 0 else "unknown"


class Children:
    """Starts the benchmark's processes and keeps them within the run budget."""

    def __init__(self, root: Path, work: Path, env: dict[str, str], deadline: float):
        self.root = root
        self.work = work
        self.env = env
        self.deadline = deadline

    def run(self, mode: str, args: argparse.Namespace, *extra: str) -> dict[str, Any]:
        command = [
            sys.executable,
            str(HERE / "child.py"),
            mode,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--scale", args.scale,
            "--seconds", str(args.seconds),
            "--tmp", str(self.work / "tmp"),
            *extra,
        ]
        if args.jobs is not None:
            command += ["--jobs", str(args.jobs)]
        # Own session, so a timeout kills the child's worker pool with it.
        proc = subprocess.Popen(
            command,
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise ChildFailed(f"{mode} did not finish within the run budget")
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} exited with code {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=(*WORKLOADS, "all"),
        help="one workload, or all of them in turn",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="input size; tiny is for the self-test only",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="run exactly this many timed jobs instead of --seconds",
    )
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: src/repro not found; run from the repository root",
            file=sys.stderr,
        )
        return 2
    if args.workload != "all":
        return run_workload(root, args)
    status = 0
    for name in WORKLOADS:
        print(f"# {name}")
        one = argparse.Namespace(**{**vars(args), "workload": name})
        status = max(status, run_workload(root, one))
    return status


def run_workload(root: Path, args: argparse.Namespace) -> int:
    """Run one workload in fresh processes and print its metrics."""
    started = time.monotonic()
    declared = json.loads((root / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}

    out_dir = root / ".perfbench"
    work = out_dir / f"run-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    commit = git_commit(root)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["TMPDIR"] = str(work / "tmp")
    env["REPRO_COMMIT"] = commit
    children = Children(root, work, env, started + RUN_BUDGET_S)
    ref_file = work / "reference.json"
    try:
        children.run("reference", args, "--out", str(ref_file))
        if args.trace:
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
            result = children.run(
                "trace", args, "--ref", str(ref_file), "--spans", str(spans)
            )
        else:
            setups = [
                children.run("setup", args)["setup_s"]
                for _ in range(SETUP_PROBES)
            ]
            result = children.run("measure", args, "--ref", str(ref_file))
            result["metrics"]["setup_s"] = statistics.median(setups)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    nproc = len(os.sched_getaffinity(0))
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": nproc,
        "python": platform.python_version(),
        "commit": commit,
        "source_digest": source_digest(root),
        "hardware_class": f"{nproc}w-{platform.machine()}",
        "samples": result["samples"],
        "error_rate": result["failed"] / max(1, result["attempted"]),
        "errors": result["errors"],
    }
    for name, unit in units.items():
        print(f"{name:<28} {metrics[name]:>16.6f} {unit}")
    print(json.dumps({"provenance": provenance}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and result["samples"] > 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
