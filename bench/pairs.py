"""Run perfbench on two commits in alternating pairs and write a BENCH file.

Run from the repository root:

    python3 bench/pairs.py --parent HEAD~1 --change HEAD --workload train_default \
        --seeds 101,102 --pairs 10 --out BENCH.json

Each commit's tree is exported with ``git archive`` into ``.bench_build/<sha>/``
(the repository's own metadata is left as it was); a tree without
``perfbench/`` gets a copy of the working tree's. For every workload and
seed, pair ``i`` runs ``perfbench/run.py --trace 0`` once in each tree, the
parent first in even pairs and the change first in odd ones. The output
records the machine, every run's metric values and ``correct`` flag, and per
metric both sides' medians and IQRs, the change's wins, and whether the
change's median is within the metric's bound from ``BENCHMARK.json``.
An existing output file for the same two commits is added to, so runs with
other workloads, seeds or pair counts land in one file. ``peak_rss_mb``
follows the heap layout a run happens to get, so read it over more than one
seed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str) -> tuple[str, Path]:
    """The commit's sha and a directory holding its committed files."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = BUILD / sha
    if not tree.is_dir():
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        staging = BUILD / f"{sha}.partial"
        shutil.rmtree(staging, ignore_errors=True)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(staging, filter="data")
        if not (staging / "perfbench").is_dir():
            shutil.copytree(ROOT / "perfbench", staging / "perfbench")
        staging.rename(tree)
    return sha, tree


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run; its last line of output as a dict."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        return {"correct": False, "attempted": 0, "failed": None, "metrics": {}}
    return json.loads(lines[-1])


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def summarize(runs: dict[str, list[dict]], spec: dict) -> dict:
    """Both sides' values of one metric, their medians and IQRs, and the wins."""
    name, lower = spec["name"], spec["better"] == "lower"
    values = {side: [r["metrics"].get(name, {}).get("value") for r in runs[side]]
              for side in SIDES}
    pairs = [(p, c) for p, c in zip(values["parent"], values["change"])
             if p is not None and c is not None]
    out = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"], **values}
    if not pairs:
        return out
    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    pm, cm = statistics.median(parent), statistics.median(change)
    worse = ((cm - pm) if lower else (pm - cm)) / abs(pm) if pm else 0.0
    out.update({
        "parent_median": pm, "parent_iqr": iqr(parent),
        "change_median": cm, "change_iqr": iqr(change),
        "change_wins": sum((c < p) if lower else (c > p) for p, c in pairs),
        "ties": sum(c == p for p, c in pairs),
        "relative_worsening_of_median": worse,
        "within_bound": worse <= spec["bound"],
    })
    return out


def machine() -> dict:
    import numpy as np

    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    mem_kb = next(int(line.split()[1]) for line in Path("/proc/meminfo").read_text().splitlines()
                  if line.startswith("MemTotal"))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "memory_gb": round(mem_kb / 2**20, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration") or f"{blas['name']} {blas.get('version', '')}",
        "thread_pinning": "perfbench/run.py sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and "
                          "MKL_NUM_THREADS to 1 before importing numpy",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--change", required=True, help="the commit under test")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated perfbench seeds")
    parser.add_argument("--pairs", type=int, required=True, help="pairs per workload and seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--claim", help="WORKLOAD:METRIC that the change claims to improve")
    parser.add_argument("--out", required=True, help="the BENCH file to write (JSON)")
    args = parser.parse_args(argv)

    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    seeds = [int(s) for s in args.seeds.split(",")]
    trees = dict(zip(SIDES, (export(args.parent), export(args.change))))
    result = {
        "parent": trees["parent"][0],
        "change": trees["change"][0],
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "--trace 0",
        "machine": machine(),
        "workloads": {},
    }
    out = Path(args.out)
    if out.exists():  # runs of the same two commits add up in one file
        earlier = json.loads(out.read_text())
        if (earlier["parent"], earlier["change"]) == (result["parent"], result["change"]):
            result["workloads"] = earlier["workloads"]
            result.update({k: v for k, v in earlier.items() if k not in result})
    for workload in args.workload:
        for seed in seeds:
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            first = []
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                first.append(order[0])
                for side in order:
                    runs[side].append(run_once(trees[side][1], workload, seed, args.seconds))
                print(f"pairs: {workload} seed {seed} pair {i + 1}/{args.pairs} done",
                      file=sys.stderr)
            result["workloads"].setdefault(workload, []).append({
                "seed": seed,
                "pairs": args.pairs,
                "first_in_pair": first,
                **{key: {side: [r[field] for r in runs[side]] for side in SIDES}
                   for key, field in (("correct", "correct"), ("failed_ops", "failed"),
                                      ("attempted_ops", "attempted"))},
                "metrics": {spec["name"]: summarize(runs, spec) for spec in specs},
            })
    if args.claim:
        workload, metric = args.claim.split(":")
        runs_of = result["workloads"].get(workload, [])
        sets = [s["metrics"][metric] for s in runs_of]
        result["claim"] = {
            "workload": workload,
            "metric": metric,
            "seeds": [s["seed"] for s in runs_of],
            "rule": "in every seed the change is better in >= 90% of pairs and its median "
                    "beats the parent's by more than the parent's IQR",
            "met": bool(sets) and all(
                "change_wins" in s and s["change_wins"] >= 0.9 * len(s["parent"])
                and abs(s["change_median"] - s["parent_median"]) > s["parent_iqr"]
                and s["relative_worsening_of_median"] < 0 for s in sets),
        }
    out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
