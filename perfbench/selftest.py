"""Self-test of the benchmark on tiny inputs (GO4+(2), Sp4(2), a few dozen
sampled words, a small closed-form grid).

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, at the `--tiny` scale: the last line
   has exactly the keys correct/attempted/failed/metrics, no operation
   failed, and every metric BENCHMARK.json names is there with its unit.
   The untraced report names the workload's own throughput metric, the
   fail ratio and the library versions.
2. Negative controls: a wrong expected spectrum (oracle-enum) and a wrong
   order bound (oracle-sample) each count as one failed operation.
3. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   nonzero without printing a result.

Exits 0 when all of these hold.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_tiny_runs(bench: dict) -> None:
    for workload in sorted(workloads.SPECS):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, "--workload", workload, "--seed", "5",
                             "--seconds", "1", "--trace", str(trace), "--tiny")
            where = f"{workload} trace={trace}"
            assert proc.returncode == 0, f"{where}: {proc.stderr}"
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == RESULT_KEYS, f"{where}: keys {set(result)}"
            assert result["correct"] and result["failed"] == 0, where
            assert result["attempted"] >= 1, where
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{where}: metrics differ: {set(got) ^ set(want)}"
            for v in result["metrics"].values():
                assert isinstance(v["value"], (int, float)), where
            text = "\n".join(lines[:-1])
            for needle in ("fail_ratio 0/", "nproc=", "python=", "sympy=",
                           "numpy="):
                assert needle in text, f"{where}: report lacks {needle!r}"
            if trace == 0:
                item = workloads.ITEM_METRIC[workload]
                assert f"\n{item} " in text, f"{where}: report lacks {item}"
            else:
                assert "trace.overhead_s" in text, where
            print(f"ok  {where}: {len(want)} metrics, "
                  f"{result['attempted']} operations")


def failed_ops(workload: str, spec: dict, scratch: Path) -> int:
    cache_root = tempfile.mkdtemp(dir=scratch)
    inputs = workloads.setup(workload, spec, 5, 0, cache_root)
    return workloads.body(workload, inputs)["ops"].failed


def check_negative_controls(scratch: Path) -> None:
    enum = copy.deepcopy(workloads.SPECS["oracle-enum"]["tiny"])
    fam, dim, q, order, centre, _ = enum["groups"][1]
    enum["groups"][1] = (fam, dim, q, order, centre, {"gens": (4, 5, 7)})
    assert failed_ops("oracle-enum", enum, scratch) == 1, "wrong spectrum passed"
    print("ok  negative control: a wrong expected spectrum fails")

    sample = copy.deepcopy(workloads.SPECS["oracle-sample"]["tiny"])
    fam, dim, q, count, _ = sample["groups"][1]
    sample["groups"][1] = (fam, dim, q, count, {"divides": 7})
    assert failed_ops("oracle-sample", sample, scratch) == 1, "bad order passed"
    print("ok  negative control: an order outside the group fails")


def check_bare_directory(scratch: Path) -> None:
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "--workload", "closed-form", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0, "bare directory run exited 0"
    assert '"correct"' not in proc.stdout, "bare directory run printed a result"
    print(f"ok  bare directory: exit {proc.returncode}, no result")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    scratch_root = ROOT / ".perfbench" / "tmp"
    scratch_root.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch_root))
    try:
        check_tiny_runs(bench)
        check_negative_controls(scratch)
        check_bare_directory(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
