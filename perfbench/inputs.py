"""Seeded inputs and expected outputs for the codescent benchmark.

Every workload starts from fixed *base* instances, kept gzipped under
``bases/`` and produced once by ``make_bases.py`` from the package's
``selftest`` generators.  The run's ``--seed`` only changes the basis of
every value: each degree of each object is conjugated by a random
invertible matrix.  A conjugation is an isomorphism of diagrams, so every
verdict, exit code and canonical JSON output that does not print matrices
stays as recorded, while the matrices the program sees change with the
seed.  The work per operation depends only on dimensions, so runs on
different seeds cost the same.

Expected results come from ``tests/oracles.py`` wherever it applies:
``first_defect`` for the folds of arrows, multi-arrows, terminal
extensions and the free-square legs, ``pushout_comparison_defect`` for
commuting squares and ``cyclic_group_homology`` for constant one-arrow
Z/k funnels.  The rest was recorded by ``make_bases.py`` in
``expected.json``.  ``prune objects`` prints the instance back, so its
expected bytes are the input payload with the new subset and provenance
tag.

This module never imports ``codescent``: inputs and expectations are built
without the program under test.
"""

from __future__ import annotations

import gzip
import importlib.util
import json
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASES = HERE / "bases"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("funnel_deep", "campaign_small", "cli_wide")


def dump(payload) -> str:
    """Canonical JSON, byte-identical to ``codescent.cli.to_json``."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def load_bundle(workload: str) -> dict:
    with gzip.open(BASES / ("%s.json.gz" % workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def load_oracles():
    """``tests/oracles.py`` of the checkout, imported by path."""
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# ---------------------------------------------------------------------------
# Conjugation by random isomorphisms
# ---------------------------------------------------------------------------

def _mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # Entries are < p <= 7 and inner dimensions a few hundred, so every
    # float64 dot product stays far below 2**53 and is exact.
    return np.mod(a.astype(np.float64) @ b.astype(np.float64), p).astype(np.int64)


def random_iso(rng, k: int, p: int):
    """A random invertible k x k matrix over F_p and its inverse.

    u = D P (I + E1)(I + E2) with D a nonzero diagonal, P a permutation
    and E1, E2 blocks mapping one random half of the coordinates into the
    other, so E1**2 = E2**2 = 0 and the inverse is available in closed
    form: (I - E2)(I - E1) P^T D^-1.
    """
    eye = np.eye(k, dtype=np.int64)
    perm = eye[rng.permutation(k)]
    scal = rng.integers(1, p, size=k)
    order = rng.permutation(k)
    s_idx, t_idx = order[: k // 2], order[k // 2 :]
    e1 = np.zeros((k, k), dtype=np.int64)
    e2 = np.zeros((k, k), dtype=np.int64)
    e1[np.ix_(s_idx, t_idx)] = rng.integers(0, p, size=(len(s_idx), len(t_idx)))
    e2[np.ix_(t_idx, s_idx)] = rng.integers(0, p, size=(len(t_idx), len(s_idx)))
    u = _mul(_mul(scal[:, None] * perm, eye + e1, p), eye + e2, p)
    inv_scal = np.array([pow(int(v), -1, p) for v in scal], dtype=np.int64)
    uinv = _mul(_mul(np.mod(eye - e2, p), np.mod(eye - e1, p), p),
                perm.T * inv_scal[None, :], p)
    return u, uinv


def _matrix(flat, rows: int, cols: int) -> np.ndarray:
    return np.asarray(flat, dtype=np.int64).reshape(rows, cols)


def _dims(cx: dict) -> dict[int, int]:
    return {cx["lo"] + i: k for i, k in enumerate(cx["dims"]) if k}


def conjugate(payload: dict, rng) -> dict:
    """The instance with every value's basis changed at random."""
    p = payload["prime"]
    at = payload["diagram"]["at"]
    dims = {a: _dims(cx) for a, cx in at.items()}
    iso = {a: {t: random_iso(rng, k, p) for t, k in sorted(dims[a].items())}
           for a in sorted(at)}
    new_at = {}
    for a, cx in at.items():
        out = {"lo": cx["lo"], "dims": list(cx["dims"])}
        if "diff" in cx:
            out["diff"] = {}
            for key, flat in cx["diff"].items():
                t = int(key)
                d = _matrix(flat, dims[a][t - 1], dims[a][t])
                d = _mul(_mul(iso[a][t - 1][0], d, p), iso[a][t][1], p)
                out["diff"][key] = d.reshape(-1).tolist()
        new_at[a] = out
    mor = payload["category"]["morphisms"]
    new_on = {}
    for m, comps in payload["diagram"]["on"].items():
        src, tgt = mor[m]["src"], mor[m]["tgt"]
        new_on[m] = {}
        for key, flat in comps.items():
            t = int(key)
            f = _matrix(flat, dims[tgt][t], dims[src][t])
            f = _mul(_mul(iso[tgt][t][0], f, p), iso[src][t][1], p)
            new_on[m][key] = f.reshape(-1).tolist()
    out = dict(payload)
    out["diagram"] = {"at": new_at, "on": new_on}
    return out


# ---------------------------------------------------------------------------
# Oracle expectations
# ---------------------------------------------------------------------------

def _raw_complex(cx: dict):
    dims = _dims(cx)
    diffs = {int(key): _matrix(flat, dims[int(key) - 1], dims[int(key)]).tolist()
             for key, flat in cx.get("diff", {}).items()}
    return dims, diffs


def _raw_map(payload: dict, m: str):
    mor = payload["category"]["morphisms"][m]
    at = payload["diagram"]["at"]
    sd, td = _dims(at[mor["src"]]), _dims(at[mor["tgt"]])
    return {int(key): _matrix(flat, td[int(key)], sd[int(key)]).tolist()
            for key, flat in payload["diagram"]["on"].get(m, {}).items()}


def _fold(payload: dict, legs: list[str], tgt: str):
    """Raw source complex and map of the fold (+)X(src f) -> X(tgt) of ``legs``."""
    at = payload["diagram"]["at"]
    mor = payload["category"]["morphisms"]
    parts = [_raw_complex(at[mor[m]["src"]]) for m in legs]
    maps = [_raw_map(payload, m) for m in legs]
    tdims = _dims(at[tgt])
    degrees = sorted({t for dims, _ in parts for t in dims})
    sdims, sdiffs, comps = {}, {}, {}
    for t in degrees:
        if sum(d.get(t, 0) for d, _ in parts):
            sdims[t] = sum(d.get(t, 0) for d, _ in parts)
        rows = sum(d.get(t - 1, 0) for d, _ in parts)
        if rows and t in sdims:
            big = [[0] * sdims[t] for _ in range(rows)]
            r0 = c0 = 0
            for dims, diffs in parts:
                for r, row in enumerate(diffs.get(t, [])):
                    big[r0 + r][c0 : c0 + len(row)] = row
                r0 += dims.get(t - 1, 0)
                c0 += dims.get(t, 0)
            sdiffs[t] = big
        if tdims.get(t) and t in sdims:
            blocks = [mp.get(t) or [[0] * d.get(t, 0)] * tdims[t]
                      for mp, (d, _) in zip(maps, parts)]
            comps[t] = [sum((b[r] for b in blocks), []) for r in range(tdims[t])]
    return (sdims, sdiffs), comps


def _arrows(payload: dict, src: str | None, tgt: str) -> list[str]:
    return sorted(m for m, e in payload["category"]["morphisms"].items()
                  if e["tgt"] == tgt and e["src"] != tgt
                  and (src is None or e["src"] == src))


def _verdict(failure, bound):
    if failure is None:
        return {"status": "holds"} if bound is None else {"status": "holds_up_to",
                                                          "bound": bound}
    if bound is not None and failure[0] > bound:
        return {"status": "holds_up_to", "bound": bound}
    return {"status": "fails", "degree": failure[0], "defect": failure[1]}


def _lowest_degree(payload: dict) -> int:
    degs = [t for cx in payload["diagram"]["at"].values() for t in _dims(cx)]
    return min(degs) if degs else 0


def oracle_verdicts(oracles, shape: str, payload: dict,
                    cutoff: int | None) -> dict[str, dict]:
    """Expected verdict at every object outside the subset, from closed forms."""
    p = payload["prime"]
    at = payload["diagram"]["at"]

    def fold(legs, tgt):
        src, comps = _fold(payload, legs, tgt)
        return _verdict(oracles.first_defect(src, _raw_complex(at[tgt]), comps, p),
                        None)

    if shape in ("arrow", "multi_arrow"):
        return {"c": fold(_arrows(payload, "d", "c"), "c")}
    if shape == "terminal_extension":
        return {"c_inf": fold(_arrows(payload, None, "c_inf"), "c_inf")}
    if shape == "free_square":
        return {"d1": fold(["alpha1"], "d1"), "d2": fold(["alpha2"], "d2"),
                "c": fold(["gamma1", "gamma2"], "c")}
    if shape == "commutative_square":
        fail = oracles.pushout_comparison_defect(
            _raw_complex(at["e"]), _raw_complex(at["d1"]), _raw_complex(at["d2"]),
            _raw_complex(at["c"]), _raw_map(payload, "alpha1"),
            _raw_map(payload, "alpha2"), _raw_map(payload, "beta1"),
            _raw_map(payload, "beta2"), p)
        return {"c": _verdict(fail, None)}
    if shape == "const_funnel":
        # hocolim over B(Z/k) of the constant value S has homology
        # H(Z/k; F_p) (x) H(S) (Kunneth); the comparison to S is onto with
        # kernel the summands of positive group degree.
        k = sum(1 for e in payload["category"]["morphisms"].values()
                if e["src"] == e["tgt"] == "d")
        bound = cutoff + _lowest_degree(payload) - 1
        dims, diffs = _raw_complex(at["d"])
        hs = oracles.homology_dims_oracle(dims, diffs, p)
        hg = oracles.cyclic_group_homology(k, p, bound + 1)
        for n in range(min(hs, default=0), max(hs, default=0) + len(hg)):
            extra = sum(hg[i] * hs.get(n - i, 0) for i in range(1, len(hg)))
            if extra:
                return {"c": _verdict((n, extra), bound)}
        return {"c": _verdict(None, bound)}
    raise ValueError("no oracle for shape %r" % shape)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

# funnel_deep: (base, cutoff) along the sweep that finishes today.
FUNNEL_SWEEP = (("k3_cell", 4), ("k3_cell", 5), ("k3_cell", 6), ("k4_cell", 3),
                ("k3_random", 3), ("z2_const_p2", 6), ("z3_const_p3", 5),
                ("z3_const_p2", 5))
STRATEGIES = ("bar", "ind-base")
SHIPPED_FUNCTOR = "stabilizer_functor.json"
SHIPPED_PRUNES = ("objects", "morphisms", "funnel", "strict-funnel")
EXIT = {"holds": 0, "fails": 1, "holds_up_to": 2}


def _cli(op_id: str, argv: list[str], expect=None) -> dict:
    return {"id": op_id, "kind": "cli", "argv": argv, "expect": expect}


def _funnel_deep_ops(bundle, files, payloads, oracles):
    ops = []
    for name, cutoff in FUNNEL_SWEEP:
        op = _cli("check %s --cutoff %d" % (name, cutoff),
                  ["check", files[name], "--at", "c", "--cutoff", str(cutoff),
                   "--format", "json"])
        if bundle["meta"][name]["shape"] == "const_funnel":
            v = oracle_verdicts(oracles, "const_funnel", payloads[name], cutoff)["c"]
            op["expect"] = {"exit": EXIT[v["status"]], "stdout": dump({
                "object": "c", "verdict": v, "strategy": "bar", "cutoff": cutoff,
                "exact_through": cutoff + _lowest_degree(payloads[name]) - 1})}
        ops.append(op)
    return ops


def _campaign_small_ops(bundle, files, payloads, oracles):
    ops = []
    for name in sorted(bundle["instances"]):
        meta = bundle["meta"][name]
        want = oracle_verdicts(oracles, meta["shape"], payloads[name], meta["cutoff"])
        if meta["call"] == "at":
            expect = {meta["focus"]: want[meta["focus"]]}
        else:
            expect = {a: want.get(a, {"status": "holds"})
                      for a in payloads[name]["category"]["objects"]}
        for strategy in STRATEGIES:
            ops.append({"id": "%s %s %s" % (meta["call"], name, strategy),
                        "kind": "lib", "call": meta["call"], "file": files[name],
                        "at": meta["focus"], "strategy": strategy,
                        "cutoff": meta["cutoff"], "expect": expect})
    return ops


def _cli_wide_ops(bundle, files, payloads, oracles):
    shipped = ROOT / "instances"
    ops = []
    for path in sorted(shipped.glob("*.json")):
        if path.name == SHIPPED_FUNCTOR:
            continue
        name, f = path.stem, str(path)
        has_focus = "focus" in json.loads(path.read_text(encoding="utf-8"))
        ops.append(_cli("validate %s" % name, ["validate", f, "--format", "json"]))
        if has_focus:
            ops.append(_cli("check %s" % name, ["check", f, "--format", "json"]))
        for strategy in STRATEGIES:
            ops.append(_cli("locus %s %s" % (name, strategy),
                            ["locus", f, "--strategy", strategy, "--format", "json"]))
        for kind in (SHIPPED_PRUNES if has_focus else ("morphisms",)):
            ops.append(_cli("prune %s %s" % (kind, name),
                            ["prune", kind, f, "--format", "json"]))
        ops.append(_cli("export-dot %s" % name, ["export-dot", f, "--with-locus"]))
    funnel, functor = str(shipped / "z2_funnel_s0.json"), str(shipped / SHIPPED_FUNCTOR)
    ops.append(_cli("kan res z2_funnel_s0",
                    ["kan", "res", funnel, "--along", functor, "--format", "json"]))
    for side in ("left", "right"):
        ops.append(_cli("glossy %s z2_funnel_s0" % side,
                        ["glossy", side, funnel, "--along", functor, "--format", "json"]))
    for name in sorted(bundle["instances"]):
        meta, f = bundle["meta"][name], files[name]
        ops.append(_cli("validate %s" % name, ["validate", f, "--format", "json"]))
        ops.append(_cli("check %s" % name,
                        ["check", f, "--at", meta["focus"], "--format", "json"]))
        for strategy in STRATEGIES:
            ops.append(_cli("locus %s %s" % (name, strategy),
                            ["locus", f, "--strategy", strategy, "--format", "json"]))
        pruned = dict(payloads[name], focus=meta["focus"], dset=meta["pruned_dset"],
                      reductions=["prune-objects"])
        ops.append(_cli("prune objects %s" % name,
                        ["prune", "objects", f, "--at", meta["focus"], "--format", "json"],
                        {"exit": 0, "stdout": dump(pruned)}))
    return ops


OPS = {
    "funnel_deep": _funnel_deep_ops,
    "campaign_small": _campaign_small_ops,
    "cli_wide": _cli_wide_ops,
}


def input_cells(payload: dict) -> int:
    return sum(sum(cx["dims"]) for cx in payload["diagram"]["at"].values())


def materialise(workload: str, seed: int, work: Path, expected: dict | None):
    """Write the workload's instance files for ``seed`` under ``work``.

    Returns ``(ops, cells)``: the operations in pass order, each with its
    expected result, and the total dimension of all generated values.
    With ``expected=None`` (recording) only oracle and derived
    expectations are filled in, and the rest are None.
    """
    work.mkdir(parents=True, exist_ok=True)
    bundle = load_bundle(workload)
    rng = np.random.default_rng(seed)
    files, payloads = {}, {}
    for name in sorted(bundle["instances"]):
        payloads[name] = conjugate(bundle["instances"][name], rng)
        path = work / ("%s.json" % name)
        path.write_text(dump(payloads[name]), encoding="utf-8")
        files[name] = str(path)
    ops = OPS[workload](bundle, files, payloads, load_oracles())
    for op in ops:
        if op["expect"] is None and expected is not None:
            op["expect"] = expected[workload][op["id"]]
    return ops, sum(input_cells(p) for p in payloads.values())
