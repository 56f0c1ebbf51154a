"""Benchmark of the depthart pipeline: one workload per call.

Run from the repository root:

    python3 perfbench/run.py --workload train_depthart --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run plus the tracing overhead. The full record (environment,
samples, phase split, op shapes) is written under ``perfbench/results/``.
README.md next to this file lists the workloads, metrics and schema.
"""

from __future__ import annotations

import argparse
import gzip
import json
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
SRC = ROOT / "src"
RESULTS = HERE / "results"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = {"samples_per_s": "1/s", "step_ms_p50": "ms", "step_ms_p90": "ms",
              "setup_s": "s", "peak_rss_mb": "MiB", "final_loss": "loss",
              "absrel": "ratio"}


def pin_threads() -> int:
    """Give every BLAS/OpenMP pool the same size before numpy is first
    imported: DEPTHART_THREADS when set, else the CPUs this process may use.
    The depthart CLI only caps threads when it is imported first."""
    n = os.environ.get("DEPTHART_THREADS") or str(len(os.sched_getaffinity(0)))
    for name in THREAD_VARS:
        os.environ[name] = n
    return int(n)


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith(".s"):
        return "s"
    if name.endswith("frac"):
        return "frac"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


# --------------------------------------------------------------------------
# environment record
# --------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (which could
    look outside the checkout); None when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(threads: int, seed: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": threads,
            "DEPTHART_THREADS": os.environ.get("DEPTHART_THREADS"),
            "git_commit": git_commit(), "seed": seed}


# --------------------------------------------------------------------------
# one run
# --------------------------------------------------------------------------


def spawn_child(spec: dict, deadline: float) -> dict:
    """Measure in a fresh process, so peak RSS belongs to the workload."""
    spec_path = os.path.join(spec["workdir"], "spec.json")
    os.makedirs(spec["workdir"], exist_ok=True)
    with open(spec_path, "w", encoding="utf-8") as f:
        json.dump(spec, f)
    timeout = max(10.0, deadline - time.monotonic())
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--child", spec_path], timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"measured process exited with {proc.returncode}")
    with open(spec["result"], encoding="utf-8") as f:
        return json.load(f)


def end_to_end(child: dict, setup_s: list[float]) -> tuple[dict, dict]:
    ops = sorted(child["op_s"])
    p50 = statistics.median(ops)
    p90 = statistics.quantiles(ops, n=10, method="inclusive")[8] if len(ops) > 1 else ops[0]
    values = {"samples_per_s": child["samples"] / child["busy_s"],
              "step_ms_p50": p50 * 1e3, "step_ms_p90": p90 * 1e3,
              "setup_s": statistics.median(setup_s),
              "peak_rss_mb": child["peak_rss_mb"],
              "final_loss": child["final_loss"], "absrel": child["absrel"]}
    counts = {"ops": len(ops), "beyond_p90": sum(1 for x in ops if x > p90),
              "setups": len(setup_s)}
    return values, counts


def child_ok(child: dict) -> bool:
    return (child["failed"] == 0 and child["attempted"] > 0
            and not child["not_restored"] and "invariants" in child
            and all(child["invariants"].values()))


def measure(workload: str, seed: int, seconds: float, trace: bool, plan,
            threads: int, tag: str = "") -> tuple[dict, dict]:
    """Set up ``plan.setup_repeats`` times (once with ``trace``: no setup_s
    is reported then), then measure in a child process, which with
    ``trace`` traces half its units of work. Returns the result line and
    the full record, which is also written to disk."""
    from workloads import set_up

    started = time.monotonic()
    deadline = started + 170.0
    RESULTS.mkdir(exist_ok=True)
    stem = f"{tag}{workload}_seed{seed}_trace{int(trace)}"
    tmp = tempfile.mkdtemp(prefix=stem + "-", dir=RESULTS)
    try:
        setup_s = []
        repeats = 1 if trace else plan.setup_repeats
        for r in range(repeats):
            workdir = os.path.join(tmp, f"setup{r}")
            t0 = time.perf_counter()
            set_up(workload, seed, plan, workdir)
            setup_s.append(time.perf_counter() - t0)
            if r + 1 < repeats:
                shutil.rmtree(workdir)
        child = spawn_child({
            "workload": workload, "seed": seed, "plan": plan.__dict__,
            "artifacts": workdir, "min_ops": plan.min_ops, "traced": trace,
            "seconds": seconds, "workdir": os.path.join(tmp, "measure"),
            "result": os.path.join(tmp, "measure", "result.json")}, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = child_ok(child)
    record = {"benchmark": "depthart", "workload": workload, "seed": seed,
              "seconds": seconds, "trace": int(trace),
              "env": environment(threads, seed), "plan": plan.__dict__,
              "correct": correct, "wall_s": time.monotonic() - started,
              "setup_s_each": setup_s,
              "error_rate": child["failed"] / max(child["attempted"], 1)}
    if trace:
        layers = dict(child.pop("layers"))
        layers["checkpoint.bytes"] = child["checkpoint_bytes"]
        layers["vq.codebook_used_frac"] = child["codebook_used_frac"]
        layers["trace.overhead_frac"] = (statistics.median(child["traced_op_s"])
                                         / statistics.median(child["op_s"]) - 1.0)
        # both set-ups are the first in their process, so both run cold
        layers["trace.setup_overhead_frac"] = child["traced_setup_s"] / setup_s[0] - 1.0
        record["per_layer"] = layers
        record["op_shapes"] = child.pop("shapes")
        with gzip.open(RESULTS / f"{stem}_spans.jsonl.gz", "wt", encoding="utf-8") as f:
            for sp in child.pop("spans"):
                f.write(json.dumps(sp) + "\n")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
        record["sample_counts"] = {"untraced_ops": len(child["op_s"]),
                                   "traced_ops": len(child["traced_op_s"])}
    else:
        values, record["sample_counts"] = end_to_end(child, setup_s)
        record["end_to_end"] = values
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    for key in ("op_s", "traced_op_s"):
        child[key.replace("_s", "_ms")] = [x * 1e3 for x in child.pop(key)]
    record["child"] = child
    line = {"correct": correct, "attempted": child["attempted"],
            "failed": child["failed"], "metrics": metrics}
    record["result"] = line
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return line, record


# --------------------------------------------------------------------------
# smoke mode
# --------------------------------------------------------------------------


def smoke(threads: int) -> int:
    """Run every workload at a tiny size, traced and untraced, and check the
    harness: every metric BENCHMARK.json names is reported with its unit,
    outputs pass their checks, and tracing leaves no wrapper behind."""
    from workloads import SMOKE, WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS), "workload list"
    for workload in WORKLOADS:
        for trace in (False, True):
            line, record = measure(workload, 0, 1.0, trace, SMOKE, threads, tag="smoke_")
            want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            assert got == want, f"{workload}: metrics differ: {set(got) ^ set(want)}"
            assert line["correct"] and line["failed"] == 0, f"{workload}: {record['child']}"
            assert record["child"]["not_restored"] == [], record["child"]["not_restored"]
            print(f"smoke ok: {workload} trace={int(trace)}")
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--child", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "depthart" / "__init__.py").is_file():
        print(f"error: no depthart sources under {SRC}", file=sys.stderr)
        return 2
    threads = pin_threads()
    sys.path.insert(0, str(SRC))

    if args.child:
        from workloads import run_child

        with open(args.child, encoding="utf-8") as f:
            spec = json.load(f)
        out = run_child(spec)
        with open(spec["result"], "w", encoding="utf-8") as f:
            json.dump(out, f)
        return 0
    if args.smoke:
        return smoke(threads)

    from workloads import FULL, WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    line, record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                           FULL, threads)
    for name, m in line["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"sample counts {record['sample_counts']}, error_rate {record['error_rate']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
