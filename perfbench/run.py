"""tracesos benchmark: time to an exact verdict, end to end and per layer.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 40 --trace 0

Run from a checkout root holding ``src/tracesos``.  Closed loop, one
client: each pass is one fresh child process (like one CLI invocation),
passes run one after another, and a new round (set-up probes, the
reference before and after, and the pass) starts only while the longest
round so far still fits in ``--seconds`` (at least one runs).
Every pass is scored against known answers (``expected.json``); a pass
that raises fails every verdict it did not reach.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
``setup_s`` (median over fresh interpreters, three before each pass and
three after the last, that import tracesos, build the CLI parser and
load every golden file), ``wall_vs_ref`` and ``peak_rss_mb`` (median
peak RSS of a pass process).

``wall_vs_ref`` is the median over passes of the pass wall time divided
by the mean time of a fixed stdlib-only reference computation run in
fresh processes just before and just after that pass, all on one CPU.
On a shared host whose speed drifts by tens of percent over minutes,
raw pass times spread too widely between runs to gate a change; the
ratio cancels most of the drift.  The raw median pass time ``wall_s``
and ``fail_rate`` are printed by name on the line before the result;
``fail_rate`` is also carried in the result as ``failed`` / ``attempted``.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones, plus ``trace.overhead_ratio``.
A traced run also fails when a layer that ``predictions.json`` says runs
on the workload records no call, or one it says is idle records a call.

The last stdout line is the JSON result.  A record with the run context,
every pass and, when traced, every span goes to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3  # before each pass and after the last
RUN_LIMIT_S = 170.0
NECKLACE = "necklace.trace_coeff_necklace"


class ChildFailed(RuntimeError):
    """A probe or input-generation process did not finish cleanly."""


def run_child(argv: List[str], env: dict, log, stdout, timeout: float):
    """Run passrun.py; return (wall seconds, exit code, peak RSS in KiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "passrun.py"), *argv],
                            cwd=ROOT, env=env, stdout=stdout, stderr=log)
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def run_context() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        def git(*cmd):
            return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        commit = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain"))
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "cpu_model": cpu, "commit": commit, "dirty": dirty}


def layer_metrics(names: List[str], totals: Dict[str, dict]) -> Dict[str, float]:
    """Per-layer metric values for one traced pass; absent layers read 0."""
    neck = totals.get(NECKLACE, {"self_s": 0.0, "counts": {}})
    visits = neck["counts"].get("visits", 0)
    terms = neck["counts"].get("terms_out", 0)
    derived = {
        "necklace.visits": visits,
        "necklace.visits_per_s": visits / neck["self_s"] if neck["self_s"] else 0.0,
        "necklace.visits_per_term": visits / terms if terms else 0.0,
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
            continue
        layer, stat = name.rsplit(".", 1)
        agg = totals.get(layer)
        if agg is None:
            out[name] = 0.0 if stat.endswith("_s") else 0
        elif stat in ("calls", "self_s", "total_s"):
            out[name] = agg[stat]
        else:
            out[name] = agg["counts"].get(stat, 0)
    return out


def coverage(workload: str, totals: Dict[str, dict], predictions: dict):
    """(check, ok): layers predicted to run were called, idle ones were not."""
    checks = []
    for row in predictions["layers"]:
        calls = totals.get(row["layer"], {}).get("calls", 0)
        if workload in row["moves"]:
            checks.append((f"layer runs:{row['layer']}", calls > 0))
        elif workload in row["idle"]:
            checks.append((f"layer idle:{row['layer']}", calls == 0))
    return checks


def benchmark(args, bench: dict, run_dir: Path) -> dict:
    run_start = time.perf_counter()
    expected = workloads.load_expected()[args.workload]
    with open(HERE / "predictions.json") as fh:
        predictions = json.load(fh)
    tmp, inputs = run_dir / "tmp", run_dir / "inputs"
    tmp.mkdir()
    inputs.mkdir()
    env = dict(os.environ, TMPDIR=str(tmp), PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    # Installed packages import from cached bytecode, so the children may
    # write it (into the checkout's __pycache__ directories).
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # Children inherit this affinity: the reference and the pass it
    # scales then share one core and whatever else contends for it.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - run_start)

    log = open(run_dir / "children.log", "w")

    def probe(mode: str) -> float:
        with open(run_dir / "probe.out", "w+") as out:
            _, code, _ = run_child([mode], env, log, out, remaining())
            out.seek(0)
            text = out.read()
        if code != 0:
            raise ChildFailed(f"{mode} probe exited {code}")
        return float(text)

    def one_pass(index: int, traced: bool) -> dict:
        work = run_dir / f"work{index}"
        work.mkdir()
        out = run_dir / f"pass{index}.json"
        wall, code, rss_kb = run_child(
            ["pass", args.workload, str(inputs), str(work), str(int(traced)),
             str(index), str(out)], env, log, subprocess.DEVNULL, remaining())
        shutil.rmtree(work, ignore_errors=True)
        try:
            with open(out) as fh:
                result = json.load(fh)
        except (OSError, ValueError):
            result = {"observations": {}, "spans": [],
                      "error": f"pass exited {code} without a result"}
        record = {"index": index, "traced": traced, "exit_code": code, "wall_s": wall,
                  "peak_rss_kb": rss_kb, "observations": result["observations"],
                  "error": result["error"],
                  "verdicts": workloads.score(result["observations"], expected)}
        if traced:
            totals = tracer.layer_totals(result["spans"])
            record["verdicts"] += coverage(args.workload, totals, predictions)
            record["layers"] = totals
            record["shares"] = {name: {"self": agg["self_s"] / wall,
                                       "total": agg["total_s"] / wall}
                                for name, agg in totals.items()}
            record["spans"] = result["spans"]
        return record

    try:
        probe("setup")  # warms the bytecode cache; users pay that once
        if args.workload == "sdp_roundtrip":
            _, code, _ = run_child(["gen", str(args.seed), str(inputs)], env, log,
                                   subprocess.DEVNULL, remaining())
            if code != 0:
                raise ChildFailed(f"input generation exited {code}")
        # Set-up probes sit between passes, so they sample the same
        # stretch of machine time as the passes; the reference runs right
        # before and after each pass.
        kinds = [False, True] if args.trace else [False]
        deadline = time.perf_counter() + args.seconds
        setups, passes = [], []
        while True:
            started = time.perf_counter()
            setups += [probe("setup") for _ in range(SETUP_PROBES)]
            before = probe("ref")
            record = one_pass(len(passes), kinds[len(passes) % len(kinds)])
            record["ref_s"] = (before + probe("ref")) / 2
            record["round_s"] = time.perf_counter() - started
            passes.append(record)
            if len(passes) < len(kinds):
                continue
            upcoming = kinds[len(passes) % len(kinds)]
            longest = max(p["round_s"] for p in passes if p["traced"] == upcoming)
            if time.perf_counter() + longest > deadline or longest > remaining():
                break
        setups += [probe("setup") for _ in range(SETUP_PROBES)]
    finally:
        log.close()

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(len(p["verdicts"]) for p in passes)
    failed = sum(not ok for p in passes for _, ok in p["verdicts"])
    wall = statistics.median(p["wall_s"] for p in plain)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_vs_ref": statistics.median(p["wall_s"] / p["ref_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in plain) / 1024,
    }
    if traced:
        names = [m["name"] for m in bench["per_layer"] if m["name"] != "trace.overhead_ratio"]
        per_pass = [layer_metrics(names, p["layers"]) for p in traced]
        metrics = {name: statistics.median(v[name] for v in per_pass) for name in names}
        metrics["trace.overhead_ratio"] = (
            statistics.median(p["wall_s"] for p in traced) / wall - 1)
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "attempted": attempted, "failed": failed,
            "fail_rate": failed / attempted, "wall_s": wall, "setup_samples_s": setups,
            "metrics": metrics, "passes": passes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tracesos" / "__init__.py").is_file():
        print(f"error: no tracesos sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        record = benchmark(args, bench, run_dir)
    except ChildFailed as exc:
        print(f"error: {exc}; see {run_dir / 'children.log'}", file=sys.stderr)
        return 1
    record["context"] = run_context()
    with open(OUT / f"{run_dir.name}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(run_dir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in record["metrics"].items()}
    shown = dict(metrics, wall_s={"value": record["wall_s"], "unit": "s"},
                 fail_rate={"value": record["fail_rate"], "unit": "share"})
    print("# " + json.dumps({"workload": args.workload, "seed": args.seed,
                             "context": record["context"]}))
    print("# " + ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in shown.items()))
    for p in record["passes"]:
        error = (p["error"] or "").strip().splitlines()[-1:]
        for name, ok in p["verdicts"]:
            if not ok:
                print(f"# pass {p['index']} failed {name}: got "
                      f"{p['observations'].get(name, 'nothing')} {error}")
    correct = record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
