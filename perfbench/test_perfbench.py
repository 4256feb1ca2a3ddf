"""Tests of the benchmark itself: its correctness gate and its tracer."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import workload  # noqa: E402
from tracer import OP_SPAN  # noqa: E402

SHIPPED = inputs.ROOT / "instances"


def _cli_op(op_id: str, argv: list[str]) -> dict:
    recorded = inputs.load_expected()["cli_wide"][op_id]
    return {"id": op_id, "kind": "cli", "argv": argv, "expect": recorded}


@pytest.fixture(scope="module")
def ops(tmp_path_factory) -> list[dict]:
    """A few CLI operations with recorded outputs and library operations
    with oracle verdicts."""
    work = tmp_path_factory.mktemp("campaign")
    lib_ops, _ = inputs.materialise("campaign_small", 5, work, expected=None)
    square = str(SHIPPED / "square_fails.json")
    funnel = str(SHIPPED / "z2_funnel_s0.json")
    return [
        _cli_op("check square_fails", ["check", square, "--format", "json"]),
        _cli_op("locus z2_funnel_s0 bar",
                ["locus", funnel, "--strategy", "bar", "--format", "json"]),
        lib_ops[0], lib_ops[1], lib_ops[-1],
    ]


def _run(tmp_path, ops, trace: int) -> dict:
    spec = tmp_path / "ops.json"
    spec.write_text(json.dumps({"ops": ops, "per_layer": ["modp.matmul.calls"]}))
    out = tmp_path / "result.json"
    assert workload.main([str(spec), "--seconds", "0", "--trace", str(trace),
                          "--out", str(out), "--spans", str(tmp_path / "spans.jsonl")]) == 0
    return json.loads(out.read_text())


def test_expected_outputs_pass(tmp_path, ops):
    result = _run(tmp_path, ops, trace=0)
    assert result["failures"] == []
    assert result["attempted"] == len(ops)


@pytest.mark.parametrize("index", [0, 2])
def test_planted_wrong_expectation_fails_the_run(tmp_path, ops, index):
    planted = json.loads(json.dumps(ops))
    expect = planted[index]["expect"]
    if "stdout" in expect:
        expect["stdout"] = expect["stdout"].replace('"fails"', '"holds"')
    else:
        for verdict in expect.values():
            verdict["status"] = "fails" if verdict["status"] != "fails" else "holds"
    result = _run(tmp_path, planted, trace=0)
    assert len(result["failures"]) == 1
    assert result["failures"][0].startswith(planted[index]["id"])


def test_span_self_times_add_up_to_each_operation(tmp_path, ops):
    import codescent._modp as modp

    original = modp.matmul
    result = _run(tmp_path, ops, trace=1)
    assert modp.matmul is original, "tracer left a wrapper installed"
    assert result["failures"] == []
    assert result["per_layer"]["modp.matmul.calls"] > 0
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    roots = {op: end - start for name, start, end, parent, op in spans if name == OP_SPAN}
    assert sorted(roots) == list(range(len(ops)))
    for op, duration in roots.items():
        total = sum(o for o, span in zip(own, spans) if span[4] == op)
        assert total == pytest.approx(duration, rel=1e-9, abs=1e-9)
        assert all(o >= -1e-9 for o, span in zip(own, spans) if span[4] == op)


def test_random_iso_is_inverse():
    rng = np.random.default_rng(0)
    for k, p in ((1, 2), (5, 3), (40, 5)):
        u, uinv = inputs.random_iso(rng, k, p)
        assert (np.mod(u @ uinv, p) == np.eye(k, dtype=np.int64)).all()


def test_generated_instances_are_canonical(tmp_path):
    """The program reads a conjugated instance back to the same bytes, so
    expected outputs derived from the input payload are exact."""
    from codescent import cli

    bundle = inputs.load_bundle("funnel_deep")
    payload = inputs.conjugate(bundle["instances"]["k3_random"], np.random.default_rng(3))
    path = tmp_path / "k3_random.json"
    path.write_text(inputs.dump(payload))
    inst = cli.parse_instance(str(path))
    assert cli.to_json(cli.instance_payload(inst)) == path.read_text()
