"""Self-test of the benchmark at smoke size; exits non-zero on the first failure.

    python3 perfbench/selftest.py

Runs every workload untraced and traced on a few thousand items and checks that
each run passes its correctness gate and prints every metric BENCHMARK.json
names, with its unit.  Then it plants a wrong report (the top heavy hitter
dropped from a served answer) and checks that the gate fails the run; treats
one replayed layer as removed and checks that it is reported absent, with its
metrics left out; and runs the benchmark from a directory without the program,
where it must fail without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")


def run(args: List[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def expect(condition: bool, message: str, output: str = "") -> None:
    if not condition:
        sys.stderr.write(f"FAIL: {message}\n{output[-3000:]}\n")
        sys.exit(1)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--smoke"])
            label = f"{workload} --trace {trace}"
            expect(done.returncode == 0, f"{label} exited {done.returncode}",
                   done.stdout + done.stderr)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(result["correct"] and result["failed"] == 0, f"{label} not correct",
                   done.stdout)
            for metric in spec[section]:
                name, unit = metric["name"], metric["unit"]
                shown = result["metrics"].get(name)
                expect(shown is not None and shown["unit"] == unit,
                       f"{label}: {name} missing from the result or not in {unit}", done.stdout)
                expect(any(line.startswith(f"{name}: ") and line.endswith(f" {unit}")
                           for line in lines[:-1]),
                       f"{label}: {name} not printed with its unit", done.stdout)
            print(f"ok   {label}")

    planted = run(["--workload", "ingest-small-mg", "--seed", "7", "--seconds", "1",
                   "--trace", "0", "--smoke", "--plant-drop"])
    result = json.loads(planted.stdout.strip().splitlines()[-1])
    expect(planted.returncode != 0 and not result["correct"] and result["failed"] >= 1
           and "check definition-1[default] failed" in planted.stdout,
           "a dropped heavy hitter was not caught by the gate", planted.stdout)
    print(f"ok   planted wrong report caught ({result['failed']} failed)")

    removed = run(["--workload", "ingest-small-mg", "--seed", "7", "--seconds", "1",
                   "--trace", "1", "--smoke", "--plant-absent", "service.protocol"])
    result = json.loads(removed.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    expect(removed.returncode == 0 and result["correct"]
           and "layer service.protocol: absent" in removed.stdout
           and not any(name.startswith("service.protocol.") for name in metrics)
           and metrics["replay.absent_layers"]["value"] == 1
           and "durability.wal.append_s" in metrics,
           "a removed layer was not reported absent with its metrics left out",
           removed.stdout)
    print("ok   removed layer reported absent")

    os.makedirs(WORK)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), WORK)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(WORK, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        bare = run(["--workload", "ingest-small-mg", "--seed", "7", "--seconds", "1",
                    "--trace", "0"], cwd=WORK)
        expect(bare.returncode != 0 and '"correct"' not in bare.stdout,
               "without the program the benchmark must fail and print no result",
               bare.stdout + bare.stderr)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("ok   fails without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
