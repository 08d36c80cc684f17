"""The benchmark wraps adinstall functions by name and passes flags to the
subcommands; each function and flag must still exist."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_finds_every_function_it_wraps():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.instrument(tracing.Tracer())"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# Collects every argv the benchmark passes (the timed stages of each workload
# and the synth call that writes its inputs) and parses each one.
PARSE_BENCHMARK_ARGV = """
from pathlib import Path

import run
from adinstall import cli


class Collected(Exception):
    pass


argvs = []


def collect(argv):
    argvs.append(argv)
    raise Collected


run.run_cli = collect
d = Path("work")
for wl in [*run.WORKLOADS.values(), *run.SMOKE.values()]:
    for commands in run.flow_argv(d, d / "schema.txt", d / "train.tsv", d / "holdout.tsv",
                                  1, wl, wl.epochs).values():
        argvs.extend(commands)
    try:
        run.write_inputs(d, wl, 1)
    except Collected:
        pass
parser = cli.build_parser()
for argv in argvs:
    parser.parse_args(argv)
print(sorted({argv[0] for argv in argvs}))
"""


def test_every_benchmark_command_line_parses():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", PARSE_BENCHMARK_ARGV],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['evaluate', 'predict', 'prepare', 'synth', 'train']"
