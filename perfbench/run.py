"""Benchmark of codescent: one measured run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see ``BENCHMARK.json`` for why
each exists):

* ``funnel_deep``: ``check --at c --cutoff N --format json`` through
  ``cli.main`` on monoid funnels, where the truncated bar construction
  dominates.
* ``campaign_small``: 600 tiny verdict calls through the library
  (``codescent_at`` / ``codescent_locus``, both strategies), where
  per-call overhead dominates.
* ``cli_wide``: every CLI subcommand on the shipped ``instances/`` and on
  three large directed instances with dense values.

The run builds the seeded inputs and their expected outputs under
``.perfbench_work/``, then starts the workload process (``workload.py``)
several times with ``--setup-only`` and once for the measured run, one
after the other.  It prints a readable report, and as its last line one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  A run whose inputs or program are missing, or that cannot
finish, exits non-zero without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

# Fresh set-up-only processes before the measured run, which adds one more
# sample: at least MIN_PROBES, and more while they take under PROBE_BUDGET_S.
MIN_PROBES, MAX_PROBES, PROBE_BUDGET_S = 4, 10, 3.0
DEADLINE_S = 170.0  # a run must end within 180 s
REQUIRED = ("BENCHMARK.json", "src/codescent/__init__.py", "tests/oracles.py", "instances")


class RunError(Exception):
    pass


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "machine": platform.machine()}


def _start(argv: list[str], env: dict, stderr, deadline: float):
    """Start a workload process; returns it with its set-up time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=stderr, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RunError("workload process failed during set-up")
    return proc, setup


def _finish(proc, deadline: float) -> None:
    try:
        proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError("workload process did not finish in time")
    if proc.returncode != 0:
        raise RunError("workload process exited with %d" % proc.returncode)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: str, seed: int, seconds: float, trace: int,
            per_layer: list[str]) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    ops, cells = inputs.materialise(workload, seed, work / "inputs", inputs.load_expected())
    spec = work / "ops.json"
    spec.write_text(json.dumps({"ops": ops, "per_layer": per_layer}), encoding="utf-8")

    info = machine()
    threads = str(info["nproc"])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    base = [sys.executable, str(HERE / "workload.py"), str(spec)]
    setups = []
    with open(work / "workload.stderr", "w", encoding="utf-8") as err:
        while len(setups) < MIN_PROBES or (len(setups) < MAX_PROBES
                                           and sum(setups) < PROBE_BUDGET_S):
            proc, setup = _start(base + ["--setup-only"], env, err, deadline)
            _finish(proc, deadline)
            setups.append(setup)
        out = work / "result.json"
        proc, setup = _start(base + ["--seconds", str(seconds), "--trace", str(trace),
                                     "--out", str(out), "--spans", str(work / "spans.jsonl")],
                             env, err, deadline)
        _finish(proc, deadline)
        setups.append(setup)
    result = json.loads(out.read_text(encoding="utf-8"))
    result.update(machine=info, setups=setups, ops=len(ops), input_cells=cells)
    return result


def end_to_end(result: dict) -> dict:
    """Medians over set-ups and over passes.  The latency percentiles are
    taken within each pass, so they do not depend on how many passes fit
    into the run."""
    passes = result["op_times"]
    return {
        "setup_s": statistics.median(result["setups"]),
        "wall_s": statistics.median(result["walls"]),
        "op_s.p50": statistics.median(quantile(t, 50) for t in passes),
        "op_s.p90": statistics.median(quantile(t, 90) for t in passes),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def report(args, result: dict, metrics: dict, units: dict) -> None:
    m = result["machine"]
    print("machine: nproc=%d python=%s numpy=%s blas=%s (%s); BLAS/OpenMP threads=%d"
          % (m["nproc"], m["python"], m["numpy"], m["blas"], m["machine"], m["nproc"]))
    mix = result["verdict_mix"]
    print("workload %s, seed %d: %d operations per pass, %d input cells; verdicts "
          "holds=%d fails=%d holds_up_to=%d"
          % (args.workload, args.seed, result["ops"], result["input_cells"],
             mix["holds"], mix["fails"], mix["holds_up_to"]))
    failed = len(result["failures"])
    print("passes: %d untraced; op_s samples: %d; failed operations: %d of %d"
          % (len(result["walls"]), sum(map(len, result["op_times"])), failed,
             result["attempted"]))
    if "per_layer" in result:
        pl = result["per_layer"]
        print("tracing overhead: %.4f s per pass (traced %.4f s, untraced %.4f s)"
              % (pl["trace.overhead_s"], pl["trace.traced_wall_s"],
                 statistics.median(result["walls"])))
    rows = [(name, value, units[name]) for name, value in metrics.items()]
    if "per_layer" not in result:
        # Not in BENCHMARK.json: a metric there must never be 0.
        rows.append(("failed_ops_frac", failed / result["attempted"], "ratio"))
    for row in rows:
        print("  %-44s %14.6g %s" % row)
    for line in result["failures"][:5]:
        print("FAILED %s" % line.rstrip())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print("error: not a codescent checkout: missing %s" % ", ".join(missing),
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace,
                         [m["name"] for m in bench["per_layer"]])
    except RunError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    values = result["per_layer"] if args.trace else end_to_end(result)
    metrics = {name: values[name] for name in units}
    report(args, result, metrics, units)
    failed = len(result["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
