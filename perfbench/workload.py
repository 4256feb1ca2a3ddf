"""One workload process: set up, signal readiness, run timed passes.

    python3 perfbench/workload.py OPS_JSON --setup-only
    python3 perfbench/workload.py OPS_JSON --seconds S --trace 0|1 --out RESULT_JSON

Set-up imports ``codescent`` from the checkout's ``src/`` and, for library
operations, loads every instance file with ``cli.parse_instance``; then
the process prints ``ready`` on its own line.  A pass runs the workload's
operations once, in order.  Passes repeat while one more fits into ``S`` seconds.
With ``--trace 1`` the first pass runs untraced and the rest traced, and
the per-layer metrics are the median over the traced passes.

Every result is compared with the operation's expectation after its
timer has stopped; a mismatch or an exception counts as a failed
operation.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import codescent  # noqa: E402
from codescent import cli  # noqa: E402

from tracer import Tracer  # noqa: E402


def run_op(op: dict, loaded: dict | None = None) -> dict:
    """Run one operation; the result has the shape of ``op["expect"]``."""
    if op["kind"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(op["argv"])
        return {"exit": code, "stdout": out.getvalue()}
    inst = loaded[op["file"]] if loaded else cli.parse_instance(op["file"])
    if op["call"] == "at":
        v = codescent.codescent_at(inst.diagram, inst.pair, op["at"],
                                   strategy=op["strategy"], cutoff=op["cutoff"])
        return {op["at"]: v.as_dict()}
    report = codescent.codescent_locus(inst.diagram, inst.pair,
                                       strategy=op["strategy"], cutoff=op["cutoff"])
    return {a: v.as_dict() for a, v in report.verdicts.items()}


def matches(op: dict, result: dict) -> bool:
    return result == op["expect"]


def verdict_statuses(op: dict, result: dict) -> list[str]:
    """Verdict statuses an operation reported (none for non-verdict commands)."""
    if op["kind"] == "lib":
        return [v["status"] for v in result.values()]
    if op["argv"][0] not in ("check", "locus") or result["exit"] not in (0, 1, 2):
        return []
    payload = json.loads(result["stdout"])
    if op["argv"][0] == "check":
        return [payload["verdict"]["status"]]
    return [v["status"] for v in payload["verdicts"].values()]


class Runner:
    """Runs passes over the operations and keeps the record of each."""

    def __init__(self, ops: list[dict], loaded: dict):
        self.ops = ops
        self.loaded = loaded
        self.attempted = 0
        self.failures: list[str] = []
        self.mix = {"holds": 0, "fails": 0, "holds_up_to": 0}

    def _one(self, i: int, op: dict, tracer: Tracer | None):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = run_op(op, self.loaded)
            else:
                result = tracer.run_op(i, run_op, op, self.loaded)
        except Exception:
            dt = time.perf_counter() - t0
            self.failures.append("%s: %s" % (op["id"], traceback.format_exc(limit=3)))
            return dt, None
        return time.perf_counter() - t0, result

    def run_pass(self, tracer: Tracer | None = None, record_mix: bool = False):
        """Time every operation once; returns (pass seconds, op seconds)."""
        times = []
        for i, op in enumerate(self.ops):
            dt, result = self._one(i, op, tracer)
            times.append(dt)
            self.attempted += 1
            if result is None:
                continue
            if not matches(op, result):
                self.failures.append("%s: got %r" % (op["id"], _short(result)))
            elif record_mix:
                for status in verdict_statuses(op, result):
                    self.mix[status] += 1
        return sum(times), times


def _short(result) -> str:
    text = json.dumps(result, sort_keys=True)
    return text if len(text) < 300 else text[:300] + "..."


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("ops")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    with open(args.ops, encoding="utf-8") as fh:
        spec = json.load(fh)
    ops = spec["ops"]
    loaded = {op["file"]: cli.parse_instance(op["file"])
              for op in ops if op["kind"] == "lib"}
    print("ready", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(ops, loaded)
    run_op(ops[0], loaded)  # warm-up: first calls into numpy and the package
    start = time.perf_counter()
    walls, op_times, layers = [], [], []
    tracer = Tracer() if args.trace else None
    try:
        while True:
            traced = tracer is not None and bool(walls)
            if traced and not layers:
                tracer.install()
            if traced:
                tracer.reset()
            wall, times = runner.run_pass(tracer if traced else None, record_mix=not walls)
            if traced:
                layers.append((wall, tracer.layer_metrics(spec["per_layer"])))
            else:
                walls.append(wall)
                op_times.append(times)
            # Stop before a pass that would end after the time is up.
            if (time.perf_counter() - start + wall > args.seconds
                    and (layers or tracer is None)):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = {
        "walls": walls,
        "op_times": op_times,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "verdict_mix": runner.mix,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        metrics = {name: statistics.median(m[name] for _, m in layers)
                   for name in layers[0][1]}
        traced_wall = statistics.median(w for w, _ in layers)
        metrics["trace.traced_wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - statistics.median(walls)
        metrics["trace.spans"] = len(tracer.spans)
        result["per_layer"] = metrics
        if args.spans:
            tracer.write(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
