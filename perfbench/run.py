"""The ordspec benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload oracle-enum --seed 1 --seconds 25 \\
        --trace 0

Workloads (see BENCHMARK.json for why each one is there):

  oracle-enum    enumerate_group on Sp4(3) and SU4(2), each into a fresh
                 empty cache directory, then one read-back from that cache
  oracle-sample  sample_orders on 1000 seeded random words each of Sp6(3),
                 Sp4(4) and SU4(8)
  closed-form    group_order + build_graph + find_cocliques(size=3) on 747
                 groups (n <= 12, q <= 4096), the 208-check verify suite and
                 the Zsigmondy existence sweep

Load is closed-loop with one client: repetitions run one after another, each
in a fresh child interpreter (so neither sympy's in-process factor cache nor
a stale disk cache can serve an answer), with ORDSPEC_CACHE_DIR removed from
its environment and a new empty cache directory of its own.

--trace 0 runs repetitions until --seconds have passed since the start, with
eight cold rounds spread evenly among them, each one set-up-only child and
two `python -m ordspec.cli spectrum Sp 2 3` launches, and reports the
end-to-end metrics as medians.  --trace 1 runs pairs of an untraced and a traced
child on the same inputs for --seconds and reports the per-layer metrics:
self seconds and calls of every wrapped ordspec function, counts, and
trace.overhead_s, the traced minus the untraced wall of a pair.

Human-readable lines, with the machine and library versions, come first; the
last line of standard output is the JSON result.  A full record is written
to .perfbench/results/ and the spans of the last traced child of each
workload to .perfbench/traces/.  The exit code is 1 if any operation failed
and 2 if the checkout has no ordspec sources.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from workloads import ITEM_METRIC, SPECS  # noqa: E402

# Set-up-only children and CLI launches are short and noisy one by one, so
# each run takes this many rounds of one set-up-only child and CLI_PER_ROUND
# CLI launches.  cli_cold_start_s has a regression bound and setup_s also
# gets a sample from every child, so the CLI gets the extra launches.
COLD_ROUNDS = 8
CLI_PER_ROUND = 2
CHILD_TIMEOUT_S = 120
CLI_ARGS = ("spectrum", "Sp", "2", "3")
CLI_EXPECTED = "5 9 12"
ROADMAP_SP4_3 = {"closure": 5.5, "centre": 2.1, "orders": 5.6}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ORDSPEC_CACHE_DIR", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


def run_child(env, workload, seed, rep, tiny, setup_only=False, trace_out=None):
    """One child interpreter; returns its JSON record, or a record of one
    failed operation if it crashed, timed out or printed no result."""
    cache_root = tempfile.mkdtemp(prefix="child-", dir=WORK / "tmp")
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--rep", str(rep),
        "--cache-root", cache_root,
    ]
    cmd += ["--tiny"] if tiny else []
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--trace-out", str(trace_out)] if trace_out else []
    try:
        proc = subprocess.run(
            cmd + ["--launched-at", repr(time.monotonic())],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        error = f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    except subprocess.TimeoutExpired:
        error = f"child exceeded {CHILD_TIMEOUT_S} s"
    except json.JSONDecodeError as exc:
        error = f"child printed no JSON result: {exc}"
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    return {"attempted": 1, "failed": 1, "errors": [error]}


def cli_launch(env) -> tuple[float, str | None]:
    """Seconds for one cold `python -m ordspec.cli spectrum Sp 2 3`, and an
    error message unless it printed the expected spectrum with exit 0."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ordspec.cli", *CLI_ARGS],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return time.monotonic() - t0, "cli launch timed out"
    dt = time.monotonic() - t0
    if proc.returncode != 0 or proc.stdout.strip() != CLI_EXPECTED:
        return dt, (f"cli exited {proc.returncode} printing "
                    f"{proc.stdout.strip()!r}, expected {CLI_EXPECTED!r}")
    return dt, None


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "sympy": version("sympy"),
        "numpy": version("numpy"),
    }


class Tally:
    """Operations attempted and failed across the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, rec: dict) -> None:
        self.attempted += rec.get("attempted", 0)
        self.failed += rec.get("failed", 0)
        self.errors += rec.get("errors", [])

    def add_one(self, error: str | None) -> None:
        self.add({"attempted": 1, "failed": int(error is not None),
                  "errors": [error] if error else []})


def median_of(records, key):
    vals = [r[key] for r in records if key in r]
    return statistics.median(vals) if vals else None


def measure_untraced(args, env, tally) -> tuple[dict, dict]:
    """Children until --seconds have passed, with COLD_ROUNDS cold rounds
    spread evenly over that time, so that the short, noisy set-up and CLI
    samples see the same machine as the children."""
    t_start = time.monotonic()
    setups, clis, children = [], [], []
    total = 1 if args.tiny else COLD_ROUNDS
    rounds = 0

    def cold_round():
        nonlocal rounds
        probe = run_child(env, args.workload, args.seed, rounds, args.tiny,
                          setup_only=True)
        tally.add(probe)
        setups.extend([probe["setup_s"]] if "setup_s" in probe else [])
        for _ in range(CLI_PER_ROUND):
            dt, error = cli_launch(env)
            tally.add_one(error)
            clis.extend([dt] if error is None else [])
        rounds += 1

    def rounds_due() -> int:
        share = min(1.0, (time.monotonic() - t_start) / args.seconds)
        return max(1, math.ceil(total * share))

    rep = 0
    while not children or time.monotonic() - t_start < args.seconds:
        while rounds < rounds_due():
            cold_round()
        rec = run_child(env, args.workload, args.seed, rep, args.tiny)
        tally.add(rec)
        if "wall_s" in rec:
            children.append(rec)
            setups.append(rec["setup_s"])
        elif rep >= 2 and not children:
            break
        rep += 1
    while rounds < total:
        cold_round()
    rates = [r["items"] / r["item_s"] for r in children if r["item_s"] > 0]
    metrics = {
        "setup_s": statistics.median(setups) if setups else None,
        "wall_s": median_of(children, "wall_s"),
        "peak_rss_mb": median_of(children, "peak_rss_mb"),
        "items_per_s": statistics.median(rates) if rates else None,
        "cli_cold_start_s": statistics.median(clis) if clis else None,
    }
    samples = {"setup_s": setups, "cli_cold_start_s": clis,
               "children": children}
    return metrics, samples


def measure_traced(args, env, tally) -> tuple[dict, dict]:
    t_start = time.monotonic()
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    trace_out = WORK / "traces" / (
        args.workload + ("-tiny" if args.tiny else "") + ".jsonl.gz")
    pairs = []
    rep = 0
    while not pairs or time.monotonic() - t_start < args.seconds:
        plain = run_child(env, args.workload, args.seed, rep, args.tiny)
        traced = run_child(env, args.workload, args.seed, rep, args.tiny,
                           trace_out=trace_out)
        tally.add(plain)
        tally.add(traced)
        if "wall_s" in plain and "layers" in traced:
            pairs.append((plain, traced))
        elif rep >= 2 and not pairs:
            break
        rep += 1
    if not pairs:
        return {}, {"pairs": []}
    # median_low keeps counts whole when the number of pairs is even
    metrics = {
        name: statistics.median_low(t["layers"][name] for _, t in pairs)
        for name in pairs[0][1]["layers"]
    }
    metrics["ordspec.import_s"] = statistics.median(
        t["import_s"] for _, t in pairs)
    metrics["trace.overhead_s"] = statistics.median(
        t["wall_s"] - p["wall_s"] for p, t in pairs)
    metrics["trace.wall_s"] = statistics.median(t["wall_s"] for _, t in pairs)
    return metrics, {"pairs": pairs}


def report_lines(args, wanted, metrics, env_info, tally) -> list[str]:
    lines = [
        f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}"
        + (" scale=tiny" if args.tiny else ""),
        "env " + " ".join(f"{k}={v}" for k, v in env_info.items()),
        f"fail_ratio {tally.failed}/{tally.attempted} = "
        f"{tally.failed / max(tally.attempted, 1):.4g}",
    ]
    if args.trace == 0:
        for m in wanted:
            lines.append(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
        item = ITEM_METRIC[args.workload]
        lines.append(f"{item} {metrics['items_per_s']:.6g} 1/s (items_per_s)")
        return lines
    wall = metrics.get("trace.wall_s") or 0.0
    by_module: dict[str, float] = {}
    for name, value in metrics.items():
        if name.endswith(".self_s"):
            mod = name.split(".", 1)[0]
            by_module[mod] = by_module.get(mod, 0.0) + value
    for mod, secs in sorted(by_module.items(), key=lambda kv: -kv[1]):
        share = secs / wall if wall else 0.0
        lines.append(f"layer {mod} self_s {secs:.6g} ({share:.1%} of traced "
                     f"wall {wall:.6g} s)")
    if metrics.get("oracle.sp4_3.closure_s"):
        got = {ph: metrics[f"oracle.sp4_3.{ph}_s"] for ph in ROADMAP_SP4_3}
        lines.append(
            "Sp4(3) " + " ".join(
                f"{ph} {got[ph]:.3g} s (ROADMAP {ROADMAP_SP4_3[ph]} s)"
                for ph in ROADMAP_SP4_3
            )
        )
    lines.append(f"trace.overhead_s {metrics.get('trace.overhead_s', 0):.6g}"
                 f" over {metrics.get('trace.spans', 0):.0f} spans")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test scale: tiny groups, a small grid")
    args = ap.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ordspec" / "__init__.py").is_file():
        print(f"perfbench: no ordspec sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    env = child_env()
    tally = Tally()
    measure = measure_traced if args.trace else measure_untraced
    metrics, samples = measure(args, env, tally)
    env_info = environment()

    missing = [m["name"] for m in wanted if metrics.get(m["name"]) is None]
    for line in tally.errors[:10]:
        print(f"error: {line}", file=sys.stderr)
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    for line in report_lines(args, wanted, metrics, env_info, tally):
        print(line)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    record = WORK / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
        + ("-tiny" if args.tiny else "") + ".json"
    )
    record.write_text(json.dumps({
        "args": vars(args), "environment": env_info, "result": result,
        "all_metrics": metrics, "samples": samples, "errors": tally.errors,
    }, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
