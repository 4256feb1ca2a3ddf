import copy
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from codescent.cli import build_parser, main, parse_instance, instance_payload, to_json

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("name,code", [
    ("arrow_identity", 0),
    ("multi_arrow_identity", 1),
    ("square_fails", 1),
    ("z2_funnel_s0", 1),
    ("z2_funnel_two_arrows", 2),
])
def test_check_exit_codes(capsys, name, code):
    got, out, _ = run(capsys, "check", INSTANCES / ("%s.json" % name))
    assert got == code
    assert out.startswith("c: ")


def test_check_json_payload(capsys):
    code, out, _ = run(capsys, "check", INSTANCES / "multi_arrow_identity.json",
                       "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["object"] == "c"
    assert payload["verdict"] == {"status": "fails", "degree": 0, "defect": 1}
    assert payload["strategy"] == "bar"
    assert payload["cutoff"] is None            # directed: no truncation
    assert payload["exact_through"] is None


def test_check_bounded_verdict_reports_range(capsys):
    code, out, _ = run(capsys, "check", INSTANCES / "z2_funnel_two_arrows.json",
                       "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert payload["verdict"]["status"] == "holds_up_to"
    assert payload["verdict"]["bound"] == 3
    assert payload["cutoff"] == 4
    assert payload["exact_through"] == 3


def test_check_at_member_is_automatic(capsys):
    code, out, _ = run(capsys, "check", INSTANCES / "z2_funnel_s0.json",
                       "--at", "d")
    assert code == 0
    assert out == "d: Holds\n"


def test_locus_empty_subset_tests_acyclicity(capsys):
    code, out, _ = run(capsys, "locus", INSTANCES / "empty_dset.json")
    assert code == 1
    lines = out.splitlines()
    assert "  x0: Holds" in lines
    assert "locus: x0" in lines
    assert "failures: x1" in lines


def test_locus_json_partition(capsys):
    code, out, _ = run(capsys, "locus", INSTANCES / "square_fails.json",
                       "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert set(payload["locus"]) == {"e", "d1", "d2"}
    assert payload["failures"] == ["c"]
    assert payload["verdicts"]["c"]["status"] == "fails"


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", INSTANCES / "arrow_identity.json")
    assert code == 0
    assert out.startswith("instance OK: 2 objects, 3 morphisms")
    code, out, _ = run(capsys, "validate", INSTANCES / "arrow_identity.json",
                       "--format", "json")
    info = json.loads(out)
    assert info["ok"] is True
    assert info["dset"] == ["d"]


def test_missing_file_is_a_data_error(capsys):
    code, _, err = run(capsys, "check", "no-such-file.json")
    assert code == 65
    assert "error:" in err


def test_malformed_json_is_a_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "validate", bad)
    assert code == 65
    assert "<json>" in err


def test_schema_violation_reports_json_path(capsys, tmp_path):
    payload = json.loads((INSTANCES / "arrow_identity.json").read_text())
    del payload["diagram"]["at"]["c"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    code, _, err = run(capsys, "validate", broken)
    assert code == 65
    assert "$.diagram.at" in err


def test_missing_focus_is_a_data_error(capsys, tmp_path):
    payload = json.loads((INSTANCES / "arrow_identity.json").read_text())
    del payload["focus"]
    nofocus = tmp_path / "nofocus.json"
    nofocus.write_text(json.dumps(payload))
    code, _, err = run(capsys, "check", nofocus)
    assert code == 65
    assert "--at" in err


def test_prime_flag_mismatch(capsys):
    code, _, err = run(capsys, "check", INSTANCES / "arrow_identity.json",
                       "--prime", "3")
    assert code == 65
    assert "p=2" in err


def _arrow_with(tmp_path, prime=2, entry=1, diff=None):
    """arrow_identity with its prime and its one map entry replaced, and
    optionally c given a second degree with differential ``diff``."""
    payload = json.loads((INSTANCES / "arrow_identity.json").read_text())
    payload["prime"] = prime
    payload["diagram"]["on"]["alpha"]["0"] = [entry]
    if diff is not None:
        payload["diagram"]["at"]["c"] = {"lo": 0, "dims": [1, 1],
                                         "diff": {"1": diff}}
    path = tmp_path / "arrow.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("prime", [4, 2 ** 31 - 1, 1000000000000000003],
                         ids=["composite", "above-bound", "18-digit"])
def test_bad_prime_exits_65_at_prime(capsys, tmp_path, prime):
    path = _arrow_with(tmp_path, prime=prime)
    t0 = time.perf_counter()
    code, _, err = run(capsys, "validate", path)
    assert time.perf_counter() - t0 < 1.0
    assert code == 65
    assert "at $.prime:" in err


@pytest.mark.parametrize("entry", [1.5, True, "1", "x", None, [1]],
                         ids=["float", "bool", "numeric-string", "string",
                              "null", "list"])
def test_non_integer_entry_exits_65_with_its_path(capsys, tmp_path, entry):
    code, _, err = run(capsys, "validate", _arrow_with(tmp_path, entry=entry))
    assert code == 65
    assert "at $.diagram.on.alpha.0[0]:" in err
    code, _, err = run(capsys, "validate",
                       _arrow_with(tmp_path, diff=[entry]))
    assert code == 65
    assert "at $.diagram.at.c.diff.1[0]:" in err


@pytest.mark.parametrize("dim", [2 ** 16 + 1, 2 ** 70])
def test_a_dimension_too_large_to_store_exits_65_at_its_path(capsys, tmp_path, dim):
    # the identity map filled in at c would be a dim x dim dense matrix
    payload = json.loads(_arrow_with(tmp_path).read_text())
    payload["diagram"]["at"]["c"] = {"lo": 0, "dims": [1, dim]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "validate", path)
    assert code == 65
    assert "at $.diagram.at.c.dims[1]:" in err


@pytest.mark.parametrize("entry", [2 ** 70 + 1, -(2 ** 70), 2 ** 63])
def test_integer_entries_of_any_size_reduce_mod_p(tmp_path, entry):
    inst = parse_instance(str(_arrow_with(tmp_path, prime=3, entry=entry,
                                          diff=[entry])))
    assert inst.diagram.on["alpha"].component(0).tolist() == [[entry % 3]]
    assert inst.diagram.at["c"].d(1).tolist() == [[entry % 3]]


def _arrow_payload_at(tmp_path, edit):
    payload = json.loads((INSTANCES / "arrow_identity.json").read_text())
    edit(payload)
    path = tmp_path / "arrow.json"
    path.write_text(json.dumps(payload))
    return path


def test_non_string_identity_exits_65_at_its_path(capsys, tmp_path):
    path = _arrow_payload_at(
        tmp_path, lambda pl: pl["category"]["identities"].update(d=["x"]))
    code, _, err = run(capsys, "validate", path)
    assert code == 65
    assert "at $.category.identities.d:" in err


def test_identity_maps_given_in_the_instance_are_checked(capsys, tmp_path):
    path = _arrow_payload_at(
        tmp_path, lambda pl: pl["diagram"]["on"].update(id_d={"0": [0]}))
    code, _, err = run(capsys, "check", path)
    assert code == 65
    assert "at $.diagram:" in err
    path = _arrow_payload_at(
        tmp_path, lambda pl: pl["diagram"]["on"].update(id_d={"0": [1]}))
    for cmd in ("check", "locus"):
        given = run(capsys, cmd, path, "--format", "json")
        plain = run(capsys, cmd, INSTANCES / "arrow_identity.json", "--format", "json")
        assert given == plain


def _square_with(tmp_path, edit):
    payload = json.loads((INSTANCES / "square_fails.json").read_text())
    edit(payload["diagram"]["on"])
    path = tmp_path / "square.json"
    path.write_text(json.dumps(payload))
    return path


def test_functor_law_faults_exit_65_at_diagram(capsys, tmp_path):
    # make_diagram checks composites of non-identity pairs only: a fault
    # at an identity is still caught by the identity check, and a
    # non-identity composite (gamma = beta1 . alpha1) by the pair check
    twice = {str(t): (2 * np.eye(n, dtype=int)).reshape(-1).tolist()  # p = 3
             for t, n in enumerate([3, 5, 1])}
    path = _square_with(tmp_path, lambda on: on.update(id_d1=twice))
    code, _, err = run(capsys, "validate", path)
    assert code == 65
    assert "at $.diagram: identity of 'd1' is not sent to the identity map" in err
    path = _square_with(tmp_path, lambda on: on.update(gamma={}))
    code, _, err = run(capsys, "validate", path)
    assert code == 65
    assert "at $.diagram: composition fails on (beta1, alpha1)" in err


def test_a_degree_gap_costs_no_time(capsys, tmp_path):
    # D1 at d in degrees 0..1, S0 at c in degree 10**7, alpha = 0: the
    # verdict walks the degrees that carry a cell, not the gap between them
    def edit(pl):
        pl["diagram"]["at"] = {"d": {"lo": 0, "dims": [1, 1], "diff": {"1": [1]}},
                               "c": {"lo": 10**7, "dims": [1]}}
        pl["diagram"]["on"] = {}
    path = _arrow_payload_at(tmp_path, edit)
    for argv in (("check",), ("check", "--strategy", "ind-base"), ("locus",)):
        start = time.perf_counter()
        code, out, _ = run(capsys, argv[0], path, *argv[1:])
        assert time.perf_counter() - start < 2.0, argv
        assert code == 1
        assert "c: Fails(degree=10000000, defect=1)" in out, argv


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check"])  # missing the instance argument
    assert exc.value.code == 64
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x.json"])
    assert exc.value.code == 64
    capsys.readouterr()


SQUARE, FUNNEL = INSTANCES / "square_fails.json", INSTANCES / "z2_funnel_s0.json"
FUNCTOR = INSTANCES / "stabilizer_functor.json"


@pytest.mark.parametrize("argv", [
    ("validate", FUNNEL),
    ("check", SQUARE, "--at", "d1"),  # an object of D: no resolution is built
    ("check", FUNNEL, "--strategy", "ind-base"),
    ("locus", FUNNEL),
    ("kan", "ind", FUNNEL, "--along", FUNCTOR),
    ("prune", "funnel", FUNNEL),
    ("glossy", "right", FUNNEL, "--along", FUNCTOR),
    ("export-dot", FUNNEL, "--with-locus"),
    ("selftest",),
])
@pytest.mark.parametrize("cutoff", ["-3", "abc"])
def test_bad_cutoff_flag_is_a_usage_error(capsys, argv, cutoff):
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv] + ["--cutoff", cutoff])
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert "error: argument --cutoff: " in err, err
    assert ("must be >= 0" if cutoff == "-3" else "invalid int value: 'abc'") in err


_UNREADABLE = {
    "non-utf8": b'{"prime": 2, "focus": "\xff"}',
    "nested-100000-deep": b"[" * 100000 + b"]" * 100000,
    "5000-digit-int": b'{"prime": ' + b"7" * 5000 + b"}",
}


@pytest.mark.parametrize("case", sorted(_UNREADABLE))
def test_unreadable_json_exits_65_at_json(capsys, tmp_path, case):
    bad = tmp_path / "bad.json"
    bad.write_bytes(_UNREADABLE[case])
    code, _, err = run(capsys, "validate", bad)
    assert code == 65
    assert "%s: at <json>: " % bad in err
    code, _, err = run(capsys, "kan", "res", FUNNEL, "--along", bad)
    assert code == 65
    assert "%s: at <json>: " % bad in err


def test_the_parser_is_built_once_and_keeps_no_state(capsys):
    assert build_parser() is build_parser()
    code, out, _ = run(capsys, "glossy", "right", FUNNEL, "--along", FUNCTOR,
                       "--at", "d", "--format", "json")
    assert (code, list(json.loads(out)["witnesses"])) == (0, ["d"])
    code, out, _ = run(capsys, "glossy", "right", FUNNEL, "--along", FUNCTOR,
                       "--format", "json")
    assert (code, sorted(json.loads(out)["witnesses"])) == (0, ["c", "d"])

    with pytest.raises(SystemExit) as exc:
        main(["check", str(FUNNEL), "--strategy", "nope"])
    assert exc.value.code == 64
    capsys.readouterr()
    assert run(capsys, "check", FUNNEL) == (1, "c: Fails(degree=1, defect=1)\n", "")

    main(["check", str(FUNNEL), "--format", "json", "--strategy", "ind-base",
          "--cutoff", "2"])
    capsys.readouterr()
    args = build_parser().parse_args(["check", str(FUNNEL)])
    assert (args.format, args.strategy, args.cutoff, args.at) == ("text", None, None, None)


_JSON_LEAVES = st.one_of(
    st.integers(), st.integers(2 ** 63, 2 ** 80), st.integers(-2 ** 80, -2 ** 63),
    st.none(), st.floats(),  # floats include inf and nan
    st.text(), st.text(alphabet='a"\\/\n\x00\u00e9\u2603\U0001d53d'),
)
_JSON_PAYLOADS = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.one_of(
        st.lists(st.one_of(st.integers(), st.booleans())),  # bools among ints
        st.lists(kids), st.lists(kids).map(tuple), st.dictionaries(st.text(), kids),
        st.dictionaries(st.integers(), kids)),
    max_leaves=25)


@given(_JSON_PAYLOADS)
@settings(max_examples=150, deadline=None)
def test_to_json_is_json_dumps(x):
    assert to_json(x) == json.dumps(x, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("x", [
    {(1, 2): 3}, {"a": {None: 1, "b": 2}}, np.int64(3), [1, np.int64(2)],
    {"a": np.float32(1.0)}, {"x": object()},
], ids=["tuple-key", "mixed-keys", "numpy-int", "numpy-int-in-list",
        "numpy-float", "object"])
def test_to_json_raises_what_json_dumps_raises(x):
    with pytest.raises(TypeError) as want:
        json.dumps(x, sort_keys=True, indent=2)
    with pytest.raises(TypeError) as got:
        to_json(x)
    assert str(got.value) == str(want.value)


def test_round_trip_is_canonical(tmp_path):
    inst = parse_instance(str(INSTANCES / "z2_funnel_s0.json"))
    text = to_json(instance_payload(inst))
    copy = tmp_path / "copy.json"
    copy.write_text(text)
    again = parse_instance(str(copy))
    assert to_json(instance_payload(again)) == text
    assert again.prime == inst.prime
    assert again.pair == inst.pair
    assert again.cutoff == inst.cutoff


def test_export_dot_shape_facts(capsys):
    _, arrow, _ = run(capsys, "export-dot", INSTANCES / "arrow_identity.json")
    nodes = [l for l in arrow.splitlines() if l.startswith('  "') and "->" not in l]
    edges = [l for l in arrow.splitlines() if "->" in l]
    assert len(nodes) == 2 and len(edges) == 1
    assert '  "d" [peripheries=2];' in nodes
    assert edges[0] == '  "d" -> "c" [label="alpha"];'

    _, square, _ = run(capsys, "export-dot", INSTANCES / "square_fails.json")
    nodes = [l for l in square.splitlines() if l.startswith('  "') and "->" not in l]
    edges = [l for l in square.splitlines() if "->" in l]
    assert len(nodes) == 4 and len(edges) == 4   # composite diagonal omitted
    assert not any("gamma" in e for e in edges)

    _, square2, _ = run(capsys, "export-dot", INSTANCES / "square_fails.json")
    assert square2 == square                     # byte-deterministic


def test_export_dot_escapes_quotes_and_backslashes(capsys, tmp_path):
    text = (INSTANCES / "arrow_identity.json").read_text()
    text = text.replace('"d"', '"d\\"x"').replace('"alpha"', '"a\\\\b"')
    path = tmp_path / "quoted.json"
    path.write_text(text)
    code, out, _ = run(capsys, "export-dot", path)
    assert code == 0
    assert '  "d\\"x" [peripheries=2];' in out.splitlines()
    assert '  "d\\"x" -> "c" [label="a\\\\b"];' in out.splitlines()


def test_export_dot_with_locus_colors(capsys):
    code, out, _ = run(capsys, "export-dot", INSTANCES / "multi_arrow_identity.json",
                       "--with-locus")
    assert code == 0
    assert 'fillcolor="lightcoral"' in out       # the failing focus
    assert 'fillcolor="palegreen"' in out        # the member


def test_prune_provenance_chain(capsys, tmp_path):
    code, out, _ = run(capsys, "prune", "objects", INSTANCES / "square_fails.json",
                       "--format", "json")
    assert code == 0
    first = json.loads(out)
    assert first["reductions"] == ["prune-objects"]
    step1 = tmp_path / "step1.json"
    step1.write_text(json.dumps(first))

    code, out, _ = run(capsys, "prune", "funnel", step1, "--format", "json")
    assert code == 0
    second = json.loads(out)
    assert second["reductions"] == ["prune-objects", "funnel"]

    # the reduction chain preserves the verdict at the focus
    step2 = tmp_path / "step2.json"
    step2.write_text(json.dumps(second))
    code, out, _ = run(capsys, "check", step2, "--format", "json")
    assert code == 1
    assert json.loads(out)["verdict"] == {"status": "fails", "degree": 2,
                                          "defect": 1}


def test_prune_strict_funnel_needs_outside_focus(capsys):
    code, _, err = run(capsys, "prune", "strict-funnel",
                       INSTANCES / "square_fails.json", "--at", "d1")
    assert code == 65
    assert "focus" in err


def test_glossy_flows(capsys):
    code, out, _ = run(capsys, "glossy", "right", INSTANCES / "z2_funnel_s0.json",
                       "--along", INSTANCES / "stabilizer_functor.json")
    assert code == 0
    assert "right glossy on {d, c}: yes" in out
    assert "d via m0, d via m1" in out

    code, out, _ = run(capsys, "glossy", "left", INSTANCES / "z2_funnel_s0.json",
                       "--along", INSTANCES / "stabilizer_functor.json")
    assert code == 1
    assert "no (fails at d)" in out

    code, out, _ = run(capsys, "glossy", "right", INSTANCES / "z2_funnel_s0.json",
                       "--along", INSTANCES / "stabilizer_functor.json",
                       "--at", "d", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True
    assert payload["witnesses"] == {"d": [["d", "m0"], ["d", "m1"]]}


def test_kan_res_restricts_along_inclusion(capsys):
    code, out, _ = run(capsys, "kan", "res", INSTANCES / "z2_funnel_s0.json",
                       "--along", INSTANCES / "stabilizer_functor.json",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dset"] == ["d"]
    assert set(payload["diagram"]["at"]) == {"d", "c"}


def test_kan_ind_and_ext_collapse_to_a_point(capsys, tmp_path):
    collapse = tmp_path / "collapse.json"
    collapse.write_text(json.dumps({
        "category": {
            "objects": ["pt"],
            "morphisms": {"id_pt": {"src": "pt", "tgt": "pt"}},
            "identities": {"pt": "id_pt"},
            "composition": [],
        },
        "on_objects": {"d": "pt", "c": "pt"},
        "on_morphisms": {"alpha": "id_pt"},
    }))
    for direction in ("ind", "ext"):
        code, out, _ = run(capsys, "kan", direction,
                           INSTANCES / "arrow_identity.json",
                           "--along", collapse, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["dset"] == ["pt"]
        # constant one-dimensional diagram: both extensions stay rank one
        assert payload["diagram"]["at"]["pt"]["dims"] == [1]


def test_kan_unmapped_morphism_is_a_data_error(capsys):
    code, _, err = run(capsys, "kan", "ind", INSTANCES / "arrow_identity.json",
                       "--along", INSTANCES / "stabilizer_functor.json")
    assert code == 65
    assert "not mapped" in err


# ---------------------------------------------------------------------------
# Fuzz: mutated shipped instances end in a verdict or a clean exit
# ---------------------------------------------------------------------------

_SHIPPED = sorted(p for p in INSTANCES.glob("*.json") if p != FUNCTOR)
_NODE_VALUES = [0, 1, 3, -1, 2 ** 70, 1.5, True, None, "", "c", "x",
                [], {}, [0], {"0": [1]}]


def _json_nodes(x, at=()):
    yield at
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield from _json_nodes(v, at + (k,))


def _replace(x, at, value):
    if not at:
        return value
    x[at[0]] = _replace(x[at[0]], at[1:], value)
    return x


@st.composite
def _mutated_files(draw):
    """(shipped file, mutated bytes): up to three JSON nodes replaced, or
    the bytes truncated, or one byte replaced."""
    path = draw(st.sampled_from(_SHIPPED + [FUNCTOR]))
    raw = path.read_bytes()
    kind = draw(st.sampled_from(["node", "truncate", "byte"]))
    if kind == "node":
        payload = json.loads(raw)
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.sampled_from(list(_json_nodes(payload))))
            payload = _replace(payload, at, copy.deepcopy(draw(st.sampled_from(_NODE_VALUES))))
        return path, json.dumps(payload).encode()
    i = draw(st.integers(0, len(raw) - 1))
    if kind == "truncate":
        return path, raw[:i]
    return path, raw[:i] + bytes([draw(st.integers(0, 255))]) + raw[i + 1:]


# Wall time allowed for one fuzz case, all of its commands together.  The
# slowest of 600 cases measured took 9 ms (2 vCPU x86-64); a degree gap or a
# kernel that has become slow should fail the case, not stretch the run.
CASE_LIMIT_S = 1.0


@given(_mutated_files())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_instances_end_in_a_verdict_or_a_clean_exit(capsys, tmp_path, case):
    source, data = case
    bad = tmp_path / "case.json"
    bad.write_bytes(data)
    start = time.perf_counter()
    if source == FUNCTOR:
        argvs = [("kan", "res", FUNNEL, "--along", bad),
                 ("glossy", "right", FUNNEL, "--along", bad)]
    else:
        argvs = [("validate", bad), ("check", bad),
                 ("locus", bad, "--strategy", "ind-base"), ("prune", "objects", bad)]
    for argv in argvs:
        try:
            code, _, err = run(capsys, *argv)
        except SystemExit as exc:
            assert exc.code == 64, argv
            capsys.readouterr()
            continue
        assert code in (0, 1, 2, 65), argv
        if code == 65:
            assert re.search(r": at (\$|<json>|<file>)", err), err
    elapsed = time.perf_counter() - start
    assert elapsed < CASE_LIMIT_S, "%s took %.2f s" % (source.name, elapsed)
