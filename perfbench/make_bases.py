"""Regenerate the benchmark's base instances and recorded expectations.

    PYTHONPATH=src python3 perfbench/make_bases.py

Run from the repository root.  Writes ``perfbench/bases/<workload>.json.gz``
from the package's ``selftest`` generators at fixed internal seeds, then
runs every operation of every workload on two different conjugations and
writes ``perfbench/expected.json``:

* operations with an oracle or derived expectation (see ``inputs``) must
  agree with it, and nothing is recorded for them;
* every other operation must give the same output on both conjugations,
  and that output is recorded.

Recording is meant to happen once, on a commit whose verdicts are trusted;
a later run that changes ``expected.json`` changes the benchmark.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from codescent import (  # noqa: E402
    build_shape, direct_sum, disk, funnel_monoid, sphere,
)
from codescent import selftest as st  # noqa: E402
from codescent.cli import Instance, instance_payload  # noqa: E402

import inputs  # noqa: E402
import workload  # noqa: E402

CAMPAIGN_PRIMES = (2, 3, 5)


def _payload(pair, x) -> dict:
    return instance_payload(Instance(x.prime, pair, x))


def _values(p: int, parts) -> object:
    """Direct sum of spheres ("s", degree, copies) and disks ("d", ...)."""
    make = {"s": sphere, "d": disk}
    return direct_sum([make[kind](p, deg, n) for kind, deg, n in parts])[0]


def funnel_deep_bases() -> dict:
    bases, meta = {}, {}
    for k in (3, 4):
        pair = funnel_monoid(k=k, arrows=2)
        x = st.representable_cell(pair.cat, "d", sphere(2, 0, 1))
        bases["k%d_cell" % k] = _payload(pair, x)
        meta["k%d_cell" % k] = {"shape": "cell"}
    pair = funnel_monoid(k=3, arrows=2)
    rng = np.random.default_rng(1)
    x = st.random_diagram(rng, pair.cat, 2, hi=1, max_dim=3, cells=2)
    bases["k3_random"] = _payload(pair, x)
    meta["k3_random"] = {"shape": "random"}
    for k, p in ((2, 2), (3, 3), (3, 2)):
        pair = funnel_monoid(k=k)
        x = st.constant_diagram(pair.cat, _values(p, [("s", 0, 1), ("d", 1, 1)]))
        name = "z%d_const_p%d" % (k, p)
        bases[name] = _payload(pair, x)
        meta[name] = {"shape": "const_funnel"}
    return {"instances": bases, "meta": meta}


def campaign_small_bases() -> dict:
    """Several hundred tiny diagrams, drawn like the selftest criteria."""
    rng = np.random.default_rng(2026)
    bases, meta = {}, {}

    def add(shape, pair, x, call, focus, cutoff=None):
        name = "%s_%03d" % (shape, len(bases))
        bases[name] = _payload(pair, x)
        meta[name] = {"shape": shape, "call": call, "focus": focus,
                      "cutoff": cutoff}

    for i in range(60):
        p = CAMPAIGN_PRIMES[i % 3]
        pair = build_shape("arrow")
        if i % 3 == 0:
            s = _values(p, [("s", int(rng.integers(0, 3)), 1 + i % 2), ("d", 1, 1)])
            tot, injs, _ = direct_sum([s, disk(p, 1 + i % 2, 1)])
            x = st.conjugate_diagram(
                rng, st.make_diagram(pair.cat, {"d": s, "c": tot}, {"alpha": injs[0]}))
        else:
            x = st._random_map_diagram(rng, pair, p, hi=3, max_dim=6)
        add("arrow", pair, x, "at", "c")
    for i in range(60):
        p = CAMPAIGN_PRIMES[i % 3]
        n = 1 + i % 3
        pair = build_shape("multi_arrow", n=n)
        x = st._random_map_diagram(rng, pair, p, hi=3, max_dim=5)
        add("multi_arrow", pair, x, "at", "c")
    for i in range(60):
        p = CAMPAIGN_PRIMES[i % 3]
        pair, x = st.square_diagram(rng, p, free=False,
                                    plant=("holds", "fails", None)[i % 3])
        add("commutative_square", pair, x, "at", "c")
    for i in range(45):
        p = CAMPAIGN_PRIMES[i % 3]
        pair, x = st.square_diagram(rng, p, free=True,
                                    plant=("holds", "fails", None)[i % 3])
        add("free_square", pair, x, "locus", "c")
    for i in range(45):
        p = CAMPAIGN_PRIMES[i % 3]
        pair = build_shape("terminal_extension", n=2 + i % 2)
        x = st.random_diagram(rng, pair.cat, p, hi=1, max_dim=2, cells=1 + i % 2)
        add("terminal_extension", pair, x, "locus", "c_inf")
    for i in range(30):
        p = CAMPAIGN_PRIMES[i % 3]
        pair = funnel_monoid(k=2)
        s, _ = st.random_complex(rng, 0, 1, 2, p)
        if not s.dims:
            s = sphere(p, 0, 1)
        x = st.constant_diagram(pair.cat, s)
        add("const_funnel", pair, x, "at", "c", cutoff=3)
    return {"instances": bases, "meta": meta}


def cli_wide_bases() -> dict:
    """Three large directed instances: each a sum of representable cells
    and a constant diagram, so the verdicts are known by construction and
    every value has a few hundred dimensions."""
    bases, meta = {}, {}
    p = 3
    big = [("s", 0, 20), ("d", 1, 18), ("s", 1, 14)]
    pair = build_shape("commutative_square")
    parts = [st.representable_cell(pair.cat, d, _values(p, big)) for d in ("e", "d1", "d2")]
    parts.append(st.representable_cell(pair.cat, "c", _values(p, [("s", 1, 3), ("d", 1, 10)])))
    parts.append(st.constant_diagram(pair.cat, _values(p, [("s", 0, 10), ("d", 1, 10)])))
    bases["square_large"] = _payload(pair, st.sum_diagrams(parts))
    meta["square_large"] = {"shape": "commutative_square", "focus": "c",
                              "pruned_dset": ["d1", "d2", "e"]}

    pair = build_shape("free_square")
    parts = [st.representable_cell(pair.cat, "e", _values(p, big)),
             st.representable_cell(pair.cat, "d1", _values(p, big)),
             st.constant_diagram(pair.cat, _values(p, [("s", 0, 10), ("d", 1, 20)]))]
    bases["free_square_large"] = _payload(pair, st.sum_diagrams(parts))
    meta["free_square_large"] = {"shape": "free_square", "focus": "c",
                                   "pruned_dset": ["e"]}

    pair = build_shape("terminal_extension", n=3)
    parts = [st.representable_cell(pair.cat, "x%d" % i, _values(p, big)) for i in range(3)]
    parts.append(st.constant_diagram(pair.cat, _values(p, [("d", 1, 30)])))
    bases["terminal_large"] = _payload(pair, st.sum_diagrams(parts))
    meta["terminal_large"] = {"shape": "terminal_extension", "focus": "c_inf",
                                "pruned_dset": ["x0", "x1", "x2"]}
    return {"instances": bases, "meta": meta}


GENERATORS = {
    "funnel_deep": funnel_deep_bases,
    "campaign_small": campaign_small_bases,
    "cli_wide": cli_wide_bases,
}


def write_bases() -> None:
    inputs.BASES.mkdir(exist_ok=True)
    for name, gen in GENERATORS.items():
        data = json.dumps(gen(), sort_keys=True, separators=(",", ":"))
        with gzip.GzipFile(inputs.BASES / ("%s.json.gz" % name), "wb", mtime=0) as fh:
            fh.write(data.encode("utf-8"))


def record() -> dict:
    """Outputs of every non-oracle operation, identical on two seeds."""
    expected = {}
    scratch = inputs.ROOT / ".perfbench_work" / "record"
    shutil.rmtree(scratch, ignore_errors=True)
    for name in inputs.WORKLOADS:
        runs = []
        for seed in (0, 1):
            ops, _ = inputs.materialise(name, seed, scratch / ("%s_%d" % (name, seed)),
                                        expected=None)
            runs.append([(op, workload.run_op(op)) for op in ops])
        recorded = {}
        for (op, first), (op2, second) in zip(*runs):
            if op["expect"] is not None:
                if not workload.matches(op, first) or not workload.matches(op2, second):
                    raise SystemExit("%s: %s disagrees with its expectation"
                                     % (name, op["id"]))
            elif first != second:
                raise SystemExit("%s: %s depends on the conjugation" % (name, op["id"]))
            else:
                recorded[op["id"]] = first
        expected[name] = recorded
    return expected


def main() -> int:
    write_bases()
    expected = record()
    with open(inputs.EXPECTED, "w", encoding="utf-8") as fh:
        fh.write(inputs.dump(expected))
    return 0


if __name__ == "__main__":
    sys.exit(main())
