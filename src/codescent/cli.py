"""Command line front end over a JSON instance format.

An *instance file* bundles everything one verdict needs::

    {
      "prime": 2,
      "category": {
        "objects": ["d", "c"],
        "morphisms": {"id_d": {"src": "d", "tgt": "d"},
                       "id_c": {"src": "c", "tgt": "c"},
                       "alpha": {"src": "d", "tgt": "c"}},
        "identities": {"d": "id_d", "c": "id_c"},
        "composition": []
      },
      "dset": ["d"],
      "diagram": {
        "at": {"d": {"lo": 0, "dims": [1]},
                "c": {"lo": 0, "dims": [1]}},
        "on": {"alpha": {"0": [1]}}
      },
      "focus": "c"
    }

Complexes list their dimensions from ``lo`` upward and store each
differential (degree t -> t-1) as a row-major flat integer list under the
key ``str(t)``; morphism matrices use the same convention (rows indexed
by the target).  Entries are integers of any size, reduced mod p on load.
``composition`` holds triples ``[g, f, h]`` meaning g after f equals h; identity-law
composites may be omitted.  Optional keys: ``focus``, ``strategy``,
``cutoff``, ``reductions`` (provenance chain of surgery tags).

Functor files (for ``kan`` and ``glossy``) carry the other category plus
object/morphism maps; see :func:`parse_functor_file` for orientation.

Exit codes: 0 holds/success, 1 fails, 2 inconclusive (bounded verdict),
64 usage error, 65 malformed data.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .chaincx import ChainComplex, ChainError, _check_prime, make_complex, make_map
from .fincat import (
    CatPair, CategoryError, FinCat, FunctorData, make_category, make_functor,
)
from .diagrams import Diagram, NotNatural, make_diagram, restrict_along
from .codescent import _verdicts, codescent_at, codescent_locus
from .diagrams import left_kan, right_kan
from .fincat import glossy as glossy_decide
from . import surgery

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_DATA = 65
# Largest dimension of a value: every map, identities included, is stored
# as a dense int64 matrix, and one of 2^16 x 2^16 entries takes 32 GiB.
MAX_DIM = 2 ** 16


class DataError(Exception):
    """Malformed input; remembers file and JSON path for the message."""

    def __init__(self, filename: str, path: str, message: str):
        super().__init__("%s: at %s: %s" % (filename, path, message))
        self.filename = filename
        self.path = path
        self.message = message


@dataclass
class Instance:
    prime: int
    pair: CatPair
    diagram: Diagram
    focus: str | None = None
    strategy: str | None = None
    cutoff: int | None = None
    reductions: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _need(d: dict, key: str, fname: str, path: str):
    if key not in d:
        raise DataError(fname, path, "missing key %r" % key)
    return d[key]


def _as_dict(v, fname, path):
    if not isinstance(v, dict):
        raise DataError(fname, path, "expected an object")
    return v


def _as_list(v, fname, path):
    if not isinstance(v, list):
        raise DataError(fname, path, "expected a list")
    return v


def _as_int(v, fname, path):
    if isinstance(v, bool) or not isinstance(v, int):
        raise DataError(fname, path, "expected an integer")
    return v


def _as_str(v, fname, path):
    if not isinstance(v, str):
        raise DataError(fname, path, "expected a string")
    return v


def _load_json(fname: str):
    try:
        with open(fname, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(fname, "<file>", str(exc))
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and integer
        # literals above the int-string digit limit; RecursionError, nesting
        # too deep for the decoder.
        raise DataError(fname, "<json>", str(exc))


def _parse_category(payload, fname, path) -> FinCat:
    payload = _as_dict(payload, fname, path)
    objects = [_as_str(o, fname, path + ".objects") for o in
               _as_list(_need(payload, "objects", fname, path), fname, path + ".objects")]
    raw_mor = _as_dict(_need(payload, "morphisms", fname, path), fname, path + ".morphisms")
    mor = {}
    for name, ends in raw_mor.items():
        mp = path + ".morphisms.%s" % name
        ends = _as_dict(ends, fname, mp)
        mor[name] = (_as_str(_need(ends, "src", fname, mp), fname, mp + ".src"),
                     _as_str(_need(ends, "tgt", fname, mp), fname, mp + ".tgt"))
    identities = {a: _as_str(i, fname, path + ".identities.%s" % a) for a, i in
                  _as_dict(_need(payload, "identities", fname, path), fname,
                           path + ".identities").items()}
    comp = {}
    for i, triple in enumerate(_as_list(payload.get("composition", []), fname,
                                        path + ".composition")):
        tp = path + ".composition[%d]" % i
        triple = _as_list(triple, fname, tp)
        if len(triple) != 3:
            raise DataError(fname, tp, "expected [after, first, composite]")
        g, f, h = (_as_str(t, fname, tp) for t in triple)
        comp[(g, f)] = h
    try:
        return make_category(objects, mor, identities, comp)
    except CategoryError as exc:
        raise DataError(fname, path, str(exc))


def _parse_complex(payload, p, fname, path) -> ChainComplex:
    payload = _as_dict(payload, fname, path)
    dims_list = _as_list(payload.get("dims", []), fname, path + ".dims")
    lo = _as_int(payload.get("lo", 0), fname, path + ".lo")
    dims = {}
    for i, k in enumerate(dims_list):
        k = _as_int(k, fname, path + ".dims[%d]" % i)
        if k < 0:
            raise DataError(fname, path + ".dims[%d]" % i, "negative dimension")
        if k > MAX_DIM:
            raise DataError(fname, path + ".dims[%d]" % i, "dimension above %d" % MAX_DIM)
        if k:
            dims[lo + i] = k
    diff = {}
    for key, flat in _as_dict(payload.get("diff", {}), fname, path + ".diff").items():
        dp = path + ".diff.%s" % key
        try:
            t = int(key)
        except ValueError:
            raise DataError(fname, dp, "degree keys must be integers")
        mat = _parse_matrix(flat, dims.get(t - 1, 0), dims.get(t, 0), p, fname, dp)
        if mat.size:
            diff[t] = mat
    try:
        return make_complex(p, dims, diff)
    except ChainError as exc:
        raise DataError(fname, path, str(exc))


def _parse_matrix(flat, rows, cols, p, fname, path):
    """Row-major integer entries; only those beyond int64 are reduced here."""
    flat = _as_list(flat, fname, path)
    if rows * cols != len(flat):
        raise DataError(fname, path, "expected %d entries (%dx%d), got %d"
                        % (rows * cols, rows, cols, len(flat)))
    if not set(map(type, flat)) <= {int}:  # bool is not int here
        i = next(i for i, v in enumerate(flat) if type(v) is not int)
        raise DataError(fname, "%s[%d]" % (path, i), "expected an integer entry")
    try:
        arr = np.array(flat, dtype=np.int64)
    except OverflowError:
        arr = np.mod(np.array(flat, dtype=object), p).astype(np.int64)
    return arr.reshape(rows, cols)


def parse_instance(fname: str) -> Instance:
    root = _as_dict(_load_json(fname), fname, "$")
    p = _as_int(_need(root, "prime", fname, "$"), fname, "$.prime")
    try:
        _check_prime(p)
    except ChainError as exc:
        raise DataError(fname, "$.prime", str(exc))
    cat = _parse_category(_need(root, "category", fname, "$"), fname, "$.category")
    dset = [_as_str(d, fname, "$.dset") for d in
            _as_list(_need(root, "dset", fname, "$"), fname, "$.dset")]
    try:
        pair = CatPair(cat, frozenset(dset))
    except CategoryError as exc:
        raise DataError(fname, "$.dset", str(exc))
    dg = _as_dict(_need(root, "diagram", fname, "$"), fname, "$.diagram")
    at_payload = _as_dict(_need(dg, "at", fname, "$.diagram"), fname, "$.diagram.at")
    at = {}
    for a in cat.objects:
        if a not in at_payload:
            raise DataError(fname, "$.diagram.at", "no complex at object %r" % a)
        at[a] = _parse_complex(at_payload[a], p, fname, "$.diagram.at.%s" % a)
    for a in at_payload:
        if a not in set(cat.objects):
            raise DataError(fname, "$.diagram.at.%s" % a, "unknown object")
    on_payload = _as_dict(dg.get("on", {}), fname, "$.diagram.on")
    on = {}
    for m in cat.mor:
        if cat.is_identity(m) and m not in on_payload:
            continue  # make_diagram fills in the identity map
        src, tgt = cat.source(m), cat.target(m)
        comps_payload = _as_dict(on_payload.get(m, {}), fname, "$.diagram.on.%s" % m)
        comps = {}
        for key, flat in comps_payload.items():
            mp = "$.diagram.on.%s.%s" % (m, key)
            try:
                t = int(key)
            except ValueError:
                raise DataError(fname, mp, "degree keys must be integers")
            mat = _parse_matrix(flat, at[tgt].dim(t), at[src].dim(t), p, fname, mp)
            if mat.size:
                comps[t] = mat
        try:
            on[m] = make_map(at[src], at[tgt], comps)
        except ChainError as exc:
            raise DataError(fname, "$.diagram.on.%s" % m, str(exc))
    for m in on_payload:
        if m not in cat.mor:
            raise DataError(fname, "$.diagram.on.%s" % m, "unknown morphism")
    try:
        diagram = make_diagram(cat, at, on)
    except (CategoryError, ChainError, NotNatural) as exc:
        raise DataError(fname, "$.diagram", str(exc))

    focus = root.get("focus")
    if focus is not None:
        focus = _as_str(focus, fname, "$.focus")
        if focus not in set(cat.objects):
            raise DataError(fname, "$.focus", "unknown object %r" % focus)
    strategy = root.get("strategy")
    if strategy is not None and strategy not in ("bar", "ind-base"):
        raise DataError(fname, "$.strategy", "must be 'bar' or 'ind-base'")
    cutoff = root.get("cutoff")
    if cutoff is not None:
        cutoff = _as_int(cutoff, fname, "$.cutoff")
        if cutoff < 0:
            raise DataError(fname, "$.cutoff", "must be >= 0")
    reductions = tuple(_as_str(r, fname, "$.reductions") for r in
                       _as_list(root.get("reductions", []), fname, "$.reductions"))
    return Instance(p, pair, diagram, focus, strategy, cutoff, reductions)


def parse_functor_file(fname: str, instance: Instance, orientation: str) -> FunctorData:
    """Read a functor between the instance category and another one.

    ``orientation="into"``: the file's category is the source and the maps
    land in the instance category (used by ``kan res`` and ``glossy``).
    ``orientation="out"``: the instance category is the source and the maps
    land in the file's category (used by ``kan ind`` / ``kan ext``).
    """
    root = _as_dict(_load_json(fname), fname, "$")
    other = _parse_category(_need(root, "category", fname, "$"), fname, "$.category")
    on_objects = _as_dict(_need(root, "on_objects", fname, "$"), fname, "$.on_objects")
    on_morphisms = _as_dict(root.get("on_morphisms", {}), fname, "$.on_morphisms")
    if orientation == "into":
        source, target = other, instance.pair.cat
    else:
        source, target = instance.pair.cat, other
    obj_map = {a: _as_str(_need(on_objects, a, fname, "$.on_objects"), fname,
                          "$.on_objects.%s" % a)
               for a in source.objects}
    mor_map = {m: _as_str(v, fname, "$.on_morphisms.%s" % m)
               for m, v in on_morphisms.items()}
    for a in source.objects:
        fa = obj_map[a]
        if fa not in set(target.objects):
            raise DataError(fname, "$.on_objects.%s" % a, "unknown target object %r" % fa)
        mor_map.setdefault(source.identity[a], target.identity[fa])
    try:
        return make_functor(source, target, obj_map, mor_map)
    except CategoryError as exc:
        raise DataError(fname, "$", str(exc))


# ---------------------------------------------------------------------------
# Serialization (canonical, deterministic)
# ---------------------------------------------------------------------------

def _complex_payload(cx: ChainComplex) -> dict:
    if not cx.dims:
        return {"lo": 0, "dims": []}
    lo, hi = cx.lo, cx.hi
    out = {"lo": lo, "dims": [cx.dim(t) for t in range(lo, hi + 1)]}
    diff = {}
    for t in sorted(cx.dims):
        m = cx.d(t)
        if m.size and m.any():
            diff[str(t)] = m.reshape(-1).tolist()
    if diff:
        out["diff"] = diff
    return out


def category_payload(cat: FinCat) -> dict:
    ident = set(cat.identity.values())
    triples = sorted([g, f, h] for (g, f), h in cat.comp.items()
                     if g not in ident and f not in ident)
    return {
        "objects": list(cat.objects),
        "morphisms": {m: {"src": s, "tgt": t}
                      for m, (s, t) in sorted(cat.mor.items())},
        "identities": {a: cat.identity[a] for a in cat.objects},
        "composition": triples,
    }


def instance_payload(inst: Instance) -> dict:
    cat = inst.pair.cat
    payload = {
        "prime": inst.prime,
        "category": category_payload(cat),
        "dset": sorted(inst.pair.dset),
        "diagram": {
            "at": {a: _complex_payload(inst.diagram.at[a]) for a in cat.objects},
            "on": {},
        },
    }
    for m in cat.non_identity_morphisms():
        f = inst.diagram.on[m]
        comps = {}
        for t in sorted(set(f.source.dims) | set(f.target.dims)):
            mat = f.component(t)
            if mat.size and mat.any():
                comps[str(t)] = mat.reshape(-1).tolist()
        payload["diagram"]["on"][m] = comps
    if inst.focus is not None:
        payload["focus"] = inst.focus
    if inst.strategy is not None:
        payload["strategy"] = inst.strategy
    if inst.cutoff is not None:
        payload["cutoff"] = inst.cutoff
    if inst.reductions:
        payload["reductions"] = list(inst.reductions)
    return payload


def to_json(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    The stdlib writes ``indent=2`` in pure Python, one call per matrix
    entry; here each list of plain ints is written from its ``repr`` in C,
    other scalars and keys go through ``json.dumps``, and any other type
    raises ``TypeError`` as it does there.
    """
    return _dumps(payload, "\n") + "\n"


def _dumps(x, nl: str) -> str:
    """The JSON of ``x``; ``nl`` is the line break and indent of its level."""
    if isinstance(x, (dict, list, tuple)):
        if not x:
            return "{}" if isinstance(x, dict) else "[]"
        inner = nl + "  "
        if isinstance(x, dict):
            body = ("," + inner).join(_json_key(k) + ": " + _dumps(v, inner)
                                      for k, v in sorted(x.items()))
            return "{" + inner + body + nl + "}"
        if set(map(type, x)) == {int}:  # no bool, no int subclass
            # the repr of a list of ints is their JSON joined by ", "
            body = repr(list(x))[1:-1].replace(", ", "," + inner)
        else:
            body = ("," + inner).join(_dumps(v, inner) for v in x)
        return "[" + inner + body + nl + "]"
    if x is None or isinstance(x, (str, int, float)):
        return json.dumps(x)
    raise TypeError("Object of type %s is not JSON serializable" % type(x).__name__)


def _json_key(k) -> str:
    """A dict key as ``json.dumps`` writes it: a number, bool or None as
    the string of its JSON text."""
    if isinstance(k, str):
        return json.dumps(k)
    if k is None or isinstance(k, (int, float)):
        return '"%s"' % json.dumps(k)
    raise TypeError("keys must be str, int, float, bool or None, not %s" % type(k).__name__)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

_DOT_COLORS = {"holds": "palegreen", "fails": "lightcoral",
               "holds_up_to": "khaki"}


def _dot_id(name: str) -> str:
    """A DOT double-quoted string, with backslash and quote escaped."""
    return '"%s"' % name.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(inst: Instance, report=None) -> str:
    """Deterministic DOT digraph: objects as nodes (doubled border on the
    distinguished subset, verdict-colored when a report is supplied) and
    non-composite non-identity morphisms as edges."""
    cat = inst.pair.cat
    ident = set(cat.identity.values())
    composite = {h for (g, f), h in cat.comp.items()
                 if g not in ident and f not in ident and h != g and h != f}
    lines = ["digraph instance {", "  rankdir=LR;"]
    for a in sorted(cat.objects):
        attrs = []
        if a in inst.pair.dset:
            attrs.append("peripheries=2")
        if report is not None:
            color = _DOT_COLORS[report.verdicts[a].status]
            attrs.append('style=filled')
            attrs.append('fillcolor="%s"' % color)
        lines.append('  %s%s;' % (_dot_id(a), " [%s]" % ", ".join(attrs) if attrs else ""))
    edges = sorted((cat.source(m), m, cat.target(m))
                   for m in cat.non_identity_morphisms() if m not in composite)
    for s, m, t in edges:
        lines.append('  %s -> %s [label=%s];' % (_dot_id(s), _dot_id(t), _dot_id(m)))
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _effective(inst: Instance, args) -> tuple[str, int | None]:
    strategy = args.strategy or inst.strategy or "bar"
    cutoff = args.cutoff if args.cutoff is not None else inst.cutoff
    return strategy, cutoff


def _instance(args) -> Instance:
    """The instance file of a command, checked against ``--prime``."""
    inst = parse_instance(args.instance)
    if args.prime is not None and args.prime != inst.prime:
        raise DataError(args.instance, "$.prime", "instance is over p=%d, --prime says %d"
                        % (inst.prime, args.prime))
    return inst


def _cmd_validate(args) -> int:
    inst = _instance(args)
    x = inst.diagram
    info = {
        "ok": True,
        "objects": len(inst.pair.cat.objects),
        "morphisms": len(inst.pair.cat.mor),
        "dset": sorted(inst.pair.dset),
        "prime": inst.prime,
        "degrees": [x.lo(), x.hi()],
        "total_dim": sum(cx.total_dim for cx in x.at.values()),
    }
    if args.format == "json":
        sys.stdout.write(to_json(info))
    else:
        print("instance OK: %d objects, %d morphisms, dset %s, prime %d, "
              "degrees [%d, %d]" % (info["objects"], info["morphisms"],
                                    ",".join(info["dset"]) or "-", info["prime"],
                                    info["degrees"][0], info["degrees"][1]))
    return EXIT_OK


def _cmd_check(args) -> int:
    inst = _instance(args)
    focus = args.at or inst.focus
    if focus is None:
        raise DataError(args.instance, "$.focus",
                        "no focus object: pass --at or set \"focus\"")
    if focus not in set(inst.pair.cat.objects):
        raise DataError(args.instance, "$.focus", "unknown object %r" % focus)
    strategy, cutoff = _effective(inst, args)
    if focus in inst.pair.dset:
        verdict = codescent_at(inst.diagram, inst.pair, focus)
        meta = {"strategy": strategy, "cutoff": None, "exact_through": None}
    else:
        res, found = _verdicts(inst.diagram, inst.pair, [focus], strategy, cutoff)
        verdict, through = found[focus], res.exact_through
        meta = {"strategy": strategy, "cutoff": res.cutoff,
                "exact_through": None if through is math.inf else int(through)}
    if args.format == "json":
        sys.stdout.write(to_json({"object": focus, "verdict": verdict.as_dict(),
                                  **meta}))
    else:
        print("%s: %s" % (focus, verdict))
    return verdict.exit_code


def _cmd_locus(args) -> int:
    inst = _instance(args)
    strategy, cutoff = _effective(inst, args)
    report = codescent_locus(inst.diagram, inst.pair, strategy, cutoff)
    report.reductions = inst.reductions
    if args.format == "json":
        sys.stdout.write(to_json(report.as_dict()))
    else:
        for a in inst.pair.cat.objects:
            marker = "*" if a in inst.pair.dset else " "
            print("%s %s: %s" % (marker, a, report.verdicts[a]))
        print("locus: %s" % (" ".join(report.locus) or "-"))
        if report.failures:
            print("failures: %s" % " ".join(report.failures))
        if report.inconclusive:
            print("inconclusive: %s" % " ".join(report.inconclusive))
    return report.exit_code


def _cmd_kan(args) -> int:
    inst = _instance(args)
    orientation = "into" if args.direction == "res" else "out"
    phi = parse_functor_file(args.along, inst, orientation)
    x = inst.diagram
    if args.direction == "res":
        out = restrict_along(phi, x)
        dset = frozenset(b for b in phi.source.objects
                         if phi.on_obj(b) in inst.pair.dset)
        other = phi.source
    else:
        kan = left_kan if args.direction == "ind" else right_kan
        out = kan(phi, x, inst.prime).diagram
        dset = frozenset(phi.on_obj(d) for d in inst.pair.d_objects)
        other = phi.target
    result = Instance(inst.prime, CatPair(other, dset), out)
    if args.format == "json":
        sys.stdout.write(to_json(instance_payload(result)))
    else:
        print("%s along %s: %d objects" % (args.direction, args.along,
                                           len(other.objects)))
        for a in other.objects:
            cx = out.at[a]
            print("  %s: dims %s" % (a, {t: cx.dim(t) for t in sorted(cx.dims)}))
    return EXIT_OK


def _cmd_prune(args) -> int:
    inst = _instance(args)
    focus = args.at or inst.focus
    if args.kind != "morphisms" and focus is None:
        raise DataError(args.instance, "$.focus",
                        "prune %s needs a focus: pass --at or set \"focus\""
                        % args.kind)
    if focus is not None and focus not in set(inst.pair.cat.objects):
        raise DataError(args.instance, "$.focus", "unknown object %r" % focus)
    fn = {"objects": surgery.reduce_prune_objects,
          "morphisms": surgery.reduce_prune_morphisms,
          "funnel": surgery.reduce_funnel,
          "strict-funnel": surgery.reduce_strict_funnel}[args.kind]
    try:
        red = fn(inst.diagram, inst.pair, focus)
    except CategoryError as exc:
        raise DataError(args.instance, "$", str(exc))
    except surgery.FocusInD as exc:
        raise DataError(args.instance, "$.focus", str(exc))
    result = Instance(inst.prime, red.pair, red.diagram,
                      focus if focus in set(red.pair.cat.objects) else None,
                      inst.strategy, inst.cutoff,
                      inst.reductions + (red.tag,))
    if args.format == "json":
        sys.stdout.write(to_json(instance_payload(result)))
    else:
        print("%s: %s" % (red.tag, red.note))
        sys.stdout.write(to_json(instance_payload(result)))
    return EXIT_OK


def _cmd_glossy(args) -> int:
    inst = _instance(args)
    phi = parse_functor_file(args.along, inst, "into")
    bset = args.at or list(phi.source.objects)
    for b in bset:
        if b not in set(phi.source.objects):
            raise DataError(args.along, "$.category.objects",
                            "unknown object %r" % b)
    result = glossy_decide(args.side, phi, bset)
    payload = {"side": args.side, "holds": result.holds,
               "witnesses": ({b: sorted(map(list, ws))
                              for b, ws in result.witnesses.items()}
                             if result.witnesses else None),
               "failures": sorted(result.failures)}
    if args.format == "json":
        sys.stdout.write(to_json(payload))
    else:
        if result.holds:
            print("%s glossy on {%s}: yes" % (args.side, ", ".join(bset)))
            for b in bset:
                ws = result.witnesses[b]
                print("  %s: witnesses %s" % (b, ", ".join("%s via %s" % (bi, beta)
                                                           for bi, beta in ws)))
        else:
            print("%s glossy on {%s}: no (fails at %s)"
                  % (args.side, ", ".join(bset), ", ".join(sorted(result.failures))))
    return EXIT_OK if result.holds else EXIT_FAILS


def _cmd_export_dot(args) -> int:
    inst = _instance(args)
    report = None
    if args.with_locus:
        strategy, cutoff = _effective(inst, args)
        report = codescent_locus(inst.diagram, inst.pair, strategy, cutoff)
    sys.stdout.write(export_dot(inst, report))
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from . import selftest as selftest_mod
    seed = args.seed if args.seed is not None else selftest_mod.DEFAULT_SEED
    results = selftest_mod.run_all(seed)
    if args.format == "json":
        sys.stdout.write(to_json({
            "seed": seed,
            "ok": all(r.passed for r in results),
            "results": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                        for r in results],
        }))
    else:
        for r in results:
            print(r)
        print("selftest: %s" % ("all passed" if all(r.passed for r in results)
                                else "FAILURES"))
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAILS


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _cutoff(text: str) -> int:
    """``--cutoff``: a non-negative integer, checked at parse like ``$.cutoff``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call in the
    process (parsing keeps no state in it)."""
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    common.add_argument("--strategy", choices=("bar", "ind-base"),
                        help="resolution strategy (default: instance setting or bar)")
    common.add_argument("--cutoff", type=_cutoff,
                        help="string-length cutoff for non-directed pairs")
    common.add_argument("--prime", type=int,
                        help="assert the instance is over this prime")
    common.add_argument("--seed", type=int, help="fuzz seed (selftest)")

    parser = _Parser(prog="codescent",
                     description="Decide or bound codescent for diagrams of "
                                 "chain complexes over F_p.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    sp = sub.add_parser("validate", parents=[common],
                        help="parse and validate an instance file")
    sp.add_argument("instance")
    sp.set_defaults(fn=_cmd_validate)

    sp = sub.add_parser("check", parents=[common],
                        help="verdict at one object")
    sp.add_argument("instance")
    sp.add_argument("--at", metavar="OBJ", help="object to test "
                    "(default: the instance's focus)")
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser("locus", parents=[common],
                        help="verdicts at every object")
    sp.add_argument("instance")
    sp.set_defaults(fn=_cmd_locus)

    sp = sub.add_parser("kan", parents=[common],
                        help="extend or restrict the diagram along a functor")
    sp.add_argument("direction", choices=("ind", "ext", "res"))
    sp.add_argument("instance")
    sp.add_argument("--along", required=True, metavar="FILE",
                    help="functor file (see docs for orientation)")
    sp.set_defaults(fn=_cmd_kan)

    sp = sub.add_parser("prune", parents=[common],
                        help="apply a verdict-preserving reduction")
    sp.add_argument("kind", choices=("objects", "morphisms", "funnel",
                                     "strict-funnel"))
    sp.add_argument("instance")
    sp.add_argument("--at", metavar="OBJ", help="focus object")
    sp.set_defaults(fn=_cmd_prune)

    sp = sub.add_parser("glossy", parents=[common],
                        help="decide glossiness of a functor into the instance")
    sp.add_argument("side", choices=("left", "right"))
    sp.add_argument("instance")
    sp.add_argument("--along", required=True, metavar="FILE")
    sp.add_argument("--at", action="append", metavar="OBJ",
                    help="restrict the tested objects (repeatable)")
    sp.set_defaults(fn=_cmd_glossy)

    sp = sub.add_parser("export-dot", parents=[common],
                        help="write the index category as a DOT digraph")
    sp.add_argument("instance")
    sp.add_argument("--with-locus", action="store_true",
                    help="color nodes by verdict")
    sp.set_defaults(fn=_cmd_export_dot)

    sp = sub.add_parser("selftest", parents=[common],
                        help="run the built-in acceptance checks")
    sp.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DataError, CategoryError, ChainError, NotNatural) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
