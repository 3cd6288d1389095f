"""End-to-end command line behavior, run in process via cli.main."""

import contextlib
import functools
import hashlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import accordion_tau.cli as cli
import accordion_tau.complexes as complexes
from accordion_tau.complexes import IsoReport
from accordion_tau.errors import (
    AlgebraMismatchError,
    InternalError,
    LabelLengthMismatchError,
    NonPureComplexError,
    SizeLimitError,
)
from accordion_tau.geometry import all_dissections, validate_dissection
from accordion_tau.quiver import quiver_of_dissection
from conftest import flip_crossing

FAN = ["--m", "6", "--diagonals", "0-2,0-3,0-4"]

A3_QUIVER = {
    "vertices": ["1", "2", "3"],
    "arrows": [
        {"id": "a", "src": "1", "tgt": "2"},
        {"id": "b", "src": "2", "tgt": "3"},
    ],
    "relations": [["a", "b"]],
}

KRONECKER_QUIVER = {
    "vertices": ["1", "2"],
    "arrows": [
        {"id": "x", "src": "1", "tgt": "2"},
        {"id": "y", "src": "1", "tgt": "2"},
    ],
    "relations": [],
}


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- accordion --


def test_accordion_json_counts(capsys):
    code, out, _ = run(capsys, ["accordion", *FAN])
    assert code == 0
    data = json.loads(out)
    assert len(data["complex"]["vertices"]) == 9
    assert len(data["complex"]["facets"]) == 14
    assert len(data["dual_graph"]["edges"]) == 21
    assert data["dissection"]["m"] == 6


def test_accordion_dot(capsys):
    code, out, _ = run(capsys, ["accordion", *FAN, "--format", "dot"])
    assert code == 0
    assert out.startswith("graph exchange {")


def test_accordion_text(capsys):
    code, out, _ = run(capsys, ["accordion", *FAN, "--format", "text"])
    assert code == 0
    assert "facets (14):" in out
    assert "dual graph: 14 nodes, 21 edges" in out


def test_accordion_requires_input(capsys):
    code, _, err = run(capsys, ["accordion"])
    assert code == 2
    assert "no dissection" in err


def test_accordion_rejects_crossing(capsys):
    code, _, err = run(capsys, ["accordion", "--m", "6", "--diagonals", "0-2,1-3"])
    assert code == 2
    assert "cross" in err


def test_accordion_input_file(capsys, tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"m": 6, "diagonals": [[0, 2], [0, 3], [0, 4]]}))
    code, out, _ = run(capsys, ["accordion", "--input", str(path)])
    assert code == 0
    assert len(json.loads(out)["complex"]["vertices"]) == 9


def test_accordion_rejects_both_sources(capsys, tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"m": 6, "diagonals": []}))
    code, _, err = run(capsys, ["accordion", *FAN, "--input", str(path)])
    assert code == 2
    assert "not both" in err


def test_accordion_malformed_file(capsys, tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"mm": 6}))
    code, _, err = run(capsys, ["accordion", "--input", str(path)])
    assert code == 2
    assert "malformed" in err


@pytest.mark.parametrize("diagonals", ["0-2,0-4", {"0": 2, "2": 4}])
def test_dissection_json_diagonals_must_be_a_list(capsys, tmp_path, diagonals):
    # the inline syntax pasted into JSON, or an object, is not a list of pairs
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"m": 6, "diagonals": diagonals}))
    code, out, err = run(capsys, ["accordion", "--input", str(path)])
    assert (code, out) == (2, "")
    assert err == (
        f"error: malformed dissection JSON: diagonals must be a list, got {diagonals!r}\n"
    )


BAD_FILES = {
    "string-m": json.dumps({"m": "6", "diagonals": [[0, 2]]}),
    "three-element-diagonal": json.dumps({"m": 6, "diagonals": [[0, 2, 4]]}),
    "bool-label": json.dumps({"m": 6, "diagonals": [[True, 3]]}),
    "invalid-json": '{"m": 6, "diagonals": [[0, 2]',
}


BAD_QUIVERS = {
    "integer-arrow-id": json.dumps(
        {"vertices": [1, 2], "arrows": [{"id": 5, "src": 1, "tgt": 2}]}
    ),
    "list-label-collides": json.dumps({"vertices": ["x", ["x"]], "arrows": []}),
    "pair-label-collides": json.dumps({"vertices": ["0-2", [0, 2]], "arrows": []}),
    "string-vertex-list": json.dumps({"vertices": "12", "arrows": []}),
    "string-relation-pair": json.dumps(
        {
            "vertices": [1, 2, 3],
            "arrows": [{"id": "x", "src": 1, "tgt": 2}, {"id": "y", "src": 2, "tgt": 3}],
            "relations": ["xy"],
        }
    ),
}


@pytest.mark.parametrize(
    "probe", [*BAD_FILES, *BAD_QUIVERS, "missing-input", "unwritable-out"]
)
def test_bad_input_is_one_error_line_with_exit_two(capsys, tmp_path, probe):
    path = tmp_path / "d.json"
    argv = ["accordion", "--input", str(path)]
    if probe in BAD_FILES:
        path.write_text(BAD_FILES[probe])
    elif probe in BAD_QUIVERS:
        path.write_text(BAD_QUIVERS[probe])
        argv = ["silting", "--quiver", str(path)]
    elif probe == "unwritable-out":
        argv = ["accordion", *FAN, "--out", str(tmp_path / "absent" / "out.json")]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# -- silting --


def test_silting_from_dissection(capsys):
    code, out, _ = run(capsys, ["silting", *FAN])
    assert code == 0
    data = json.loads(out)
    assert len(data["complex"]["vertices"]) == 9
    assert len(data["complex"]["facets"]) == 14
    assert data["quiver"]["vertices"] == ["0-2", "0-3", "0-4"]


def test_silting_from_quiver_file(capsys, tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(A3_QUIVER))
    code, out, _ = run(capsys, ["silting", "--quiver", str(path)])
    assert code == 0
    data = json.loads(out)
    assert len(data["complex"]["vertices"]) == 8
    assert len(data["complex"]["facets"]) == 12


def test_silting_rejects_both_sources(capsys, tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(A3_QUIVER))
    code, _, err = run(capsys, ["silting", "--quiver", str(path), *FAN])
    assert code == 2
    assert "not both" in err


@pytest.mark.parametrize(
    "command", [["silting"], ["verify", "--theorem", "idempotent", "--j", "1"]]
)
def test_quiver_with_empty_diagonals_is_both_sources(capsys, tmp_path, command):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(A3_QUIVER))
    code, _, err = run(capsys, [*command, "--quiver", str(path), "--diagonals", ""])
    assert code == 2
    assert "not both" in err


def test_silting_quiver_with_unhashable_labels_is_input_error(capsys, tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({**A3_QUIVER, "vertices": [[["1"]], "2", "3"]}))
    code, _, err = run(capsys, ["silting", "--quiver", str(path)])
    assert code == 2
    assert "malformed quiver JSON" in err


def test_silting_band_quiver_unsupported(capsys, tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(KRONECKER_QUIVER))
    code, _, err = run(capsys, ["silting", "--quiver", str(path)])
    assert code == 3
    assert "cyclic walk" in err


def test_silting_non_gentle_quiver_rejected(capsys, tmp_path):
    bad = {
        "vertices": ["1", "2", "3", "4"],
        "arrows": [
            {"id": "a", "src": "1", "tgt": "2"},
            {"id": "b", "src": "1", "tgt": "3"},
            {"id": "c", "src": "1", "tgt": "4"},
        ],
        "relations": [],
    }
    path = tmp_path / "q.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, ["silting", "--quiver", str(path)])
    assert code == 2
    assert err == "error: quiver is not gentle: vertex 1 has 3 outgoing arrows\n"


# -- verify --


def test_verify_main_single_pass(capsys):
    code, out, _ = run(capsys, ["verify", *FAN])
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert data["report"]["status"] == "pass"


def test_verify_exit_one_on_failure(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "verify_main", lambda d: IsoReport(False, None, ["forced failure"])
    )
    code, out, _ = run(capsys, ["verify", *FAN])
    assert code == 1
    assert json.loads(out)["status"] == "fail"


def test_internal_error_exits_four(capsys, monkeypatch):
    def broken(config):
        raise InternalError("projective cover must be surjective")

    monkeypatch.setattr(cli, "cmd_accordion", broken)
    code, out, err = run(capsys, ["accordion", *FAN])
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["json", "dot", "text"])
@pytest.mark.parametrize("command", ["accordion", "silting"])
def test_an_impure_complex_exits_four_in_every_format(capsys, monkeypatch, command, fmt):
    # every package error outside the input and unsupported-algebra
    # branches is a broken invariant: one error line, never a traceback
    real = complexes.maximal_cliques
    monkeypatch.setattr(complexes, "maximal_cliques", lambda n, adj: real(n, adj) + [(0,)])
    code, out, err = run(capsys, [command, *FAN, "--format", fmt])
    assert code == 4
    assert out == ""
    kind = "accordion" if command == "accordion" else "silting"
    assert err == (
        f"error: internal invariant broken: {kind} facet (0,) has size 1, expected 3\n"
    )


@pytest.mark.parametrize(
    "error",
    [
        LabelLengthMismatchError(),
        AlgebraMismatchError(),
        SizeLimitError(65, 64),
        NonPureComplexError("silting facet (0,) has size 1, expected 3"),
    ],
)
def test_other_package_errors_exit_four(capsys, monkeypatch, error):
    def broken(config):
        raise error

    monkeypatch.setattr(cli, "cmd_silting", broken)
    code, out, err = run(capsys, ["silting", *FAN])
    assert (code, out) == (4, "")
    assert err == f"error: internal invariant broken: {error}\n"


def test_an_impure_accordion_complex_fails_verify_with_a_witness(capsys, monkeypatch):
    # b0-b2 and b1-b3 cross; calling them compatible makes the accordion
    # complex impure, which is a failed instance (exit 1), not an error
    flip_crossing(monkeypatch, {(0, 2), (1, 3)})
    code, out, err = run(capsys, ["verify", *FAN, "--format", "text"])
    assert (code, err) == (1, "")
    assert out == (
        "status: fail\n"
        "  compatible pairs differ under the g-vector map: b0-b2 and b1-b3 "
        "(right: e_0-2 and e_0-3) are compatible on the left only\n"
        "  label-blind isomorphism search skipped: "
        "accordion facet (0, 1, 2, 3) has size 4, expected 3\n"
    )


def test_verify_nested_single(capsys):
    code, out, _ = run(
        capsys,
        ["verify", *FAN, "--theorem", "nested", "--sub-diagonals", "0-2,0-4"],
    )
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_nested_needs_sub(capsys):
    code, _, err = run(capsys, ["verify", *FAN, "--theorem", "nested"])
    assert code == 2
    assert "--sub-diagonals" in err


def test_verify_idempotent_single(capsys):
    code, out, _ = run(
        capsys, ["verify", *FAN, "--theorem", "idempotent", "--j", "0-2,0-4"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert data["instance"]["j"] == ["0-2", "0-4"]


def test_verify_idempotent_missing_j(capsys):
    code, _, err = run(capsys, ["verify", *FAN, "--theorem", "idempotent"])
    assert code == 2
    assert "--j" in err


def test_verify_idempotent_unknown_j(capsys):
    code, _, err = run(
        capsys, ["verify", *FAN, "--theorem", "idempotent", "--j", "9-11"]
    )
    assert code == 2
    assert "unknown vertex" in err


def test_verify_idempotent_repeated_j(capsys, tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(A3_QUIVER))
    code, out, err = run(
        capsys, ["verify", "--theorem", "idempotent", "--quiver", str(path), "--j", "1,1"]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "named twice" in err


def test_verify_exhaustive_all(capsys):
    code, out, _ = run(capsys, ["verify", "--exhaustive", "4", "--theorem", "all"])
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert [s["theorem"] for s in data["summaries"]] == [
        "main",
        "nested",
        "idempotent",
        "consistency",
    ]
    assert all(s["passed"] == s["checked"] for s in data["summaries"])


def test_verify_exhaustive_consistency(capsys):
    code, out, _ = run(
        capsys, ["verify", "--exhaustive", "5", "--theorem", "consistency"]
    )
    assert code == 0
    [summary] = json.loads(out)["summaries"]
    assert summary["theorem"] == "consistency"
    assert summary["passed"] == summary["checked"] == 20


@pytest.mark.parametrize("m", ["3", "0", "-2"])
def test_verify_exhaustive_rejects_polygons_without_diagonals(capsys, m):
    code, out, err = run(capsys, ["verify", "--exhaustive", m])
    assert code == 2
    assert out == ""
    assert "M >= 4" in err


@pytest.mark.parametrize(
    "flag",
    [
        ["--m", "6"],
        ["--diagonals", "0-2"],
        ["--input", "d.json"],
        ["--quiver", "q.json"],
        ["--j", "0-2"],
        ["--sub-diagonals", "0-2"],
    ],
)
def test_verify_exhaustive_rejects_instance_flags(capsys, flag):
    code, out, err = run(capsys, ["verify", "--exhaustive", "4", *flag])
    assert code == 2
    assert out == ""
    assert err == f"error: --exhaustive runs every dissection, so it takes no {flag[0]}\n"


@pytest.mark.parametrize(
    "theorem, flag",
    [
        ("main", ["--quiver", "q.json"]),
        ("main", ["--j", "0-2"]),
        ("main", ["--sub-diagonals", "0-2"]),
        ("nested", ["--quiver", "q.json"]),
        ("nested", ["--j", "0-2"]),
        ("idempotent", ["--sub-diagonals", "0-2"]),
    ],
)
def test_verify_rejects_flags_its_theorem_does_not_read(capsys, theorem, flag):
    code, out, err = run(capsys, ["verify", *FAN, "--theorem", theorem, *flag])
    assert code == 2
    assert out == ""
    assert err == f"error: --theorem {theorem} takes no {flag[0]}\n"


def test_verify_all_needs_exhaustive(capsys):
    code, _, err = run(capsys, ["verify", *FAN, "--theorem", "all"])
    assert code == 2
    assert "--exhaustive" in err


def test_verify_consistency_needs_exhaustive(capsys):
    code, _, err = run(capsys, ["verify", *FAN, "--theorem", "consistency"])
    assert code == 2
    assert "--theorem consistency needs --exhaustive" in err


def test_verify_rejects_dot(capsys):
    code, _, err = run(capsys, ["verify", *FAN, "--format", "dot"])
    assert code == 2
    assert "dot" in err


def test_verify_text_format(capsys):
    code, out, _ = run(
        capsys, ["verify", "--exhaustive", "4", "--format", "text"]
    )
    assert code == 0
    assert out.startswith("status: pass")
    assert "main:" in out


def test_verify_text_says_how_many_failures_it_leaves_out(capsys, monkeypatch):
    # calling b0-b2 and b2-b4 crossing fails 19 of the 44 main instances at
    # m=6; text shows the first 10 and counts the rest, while json lists all
    flip_crossing(monkeypatch, {(0, 2), (2, 4)})
    argv = ["verify", "--exhaustive", "6", "--theorem", "all"]
    code, out, err = run(capsys, [*argv, "--format", "text"])
    assert (code, err) == (1, "")
    _, data, _ = run(capsys, argv)
    failures = json.loads(data)["summaries"][0]["failures"]
    assert len(failures) == 19
    assert out.splitlines() == [
        "status: fail",
        "  main: 25/44 passed",
        *(f"    {msg}" for msg in failures[:10]),
        "    ... and 9 more",
        "  nested: 170/170 passed",
        "  idempotent: 170/170 passed",
        "  consistency: 170/170 passed",
    ]


# -- shared flags and determinism --


def test_safety_cap(capsys, monkeypatch):
    code, _, err = run(capsys, ["accordion", "--m", "12"])
    assert code == 2
    assert "safety cap" in err
    monkeypatch.setenv("ACCORDION_TAU_MAX_M", "12")
    code, out, _ = run(capsys, ["accordion", "--m", "12"])
    assert code == 0
    assert json.loads(out)["dissection"]["m"] == 12


def test_safety_cap_bad_env(capsys, monkeypatch):
    monkeypatch.setenv("ACCORDION_TAU_MAX_M", "many")
    code, _, err = run(capsys, ["accordion", "--m", "4"])
    assert code == 2
    assert "ACCORDION_TAU_MAX_M" in err


def test_output_is_byte_identical(capsys):
    _, out1, _ = run(capsys, ["accordion", *FAN])
    _, out2, _ = run(capsys, ["accordion", *FAN])
    assert out1 == out2
    _, v1, _ = run(capsys, ["verify", "--exhaustive", "4"])
    _, v2, _ = run(capsys, ["verify", "--exhaustive", "4"])
    assert v1 == v2


# sha256 of stdout on the hexagon fan, frozen so that refactors of the
# builders and renderers cannot change a byte of the output
FAN_DIGESTS = {
    ("accordion", "json"): "fd972c6d4dd75e5eb75c0e6462bbfc5bc5ddc40ac0f92145cf93fad60f3d8c71",
    ("accordion", "dot"): "6ef0c9513dc2e7fa42c8478deca40ac5353dd000071cdd5a2a5e73161d50ce64",
    ("accordion", "text"): "82bd32babcc461a3756ebe75d87eb97ddc625a89937f9e2409726fd06260b76e",
    ("silting", "json"): "58836760792f37c07a226dfc18907d622ce35c2ce0a652e1c0b191dabc1b4ef3",
    ("silting", "dot"): "2b64c37aa9ef76c23417eb7951efb567bd9aafc8afb241e7ab40ab7b051f508d",
    ("silting", "text"): "dcf02f11c00947687e6a08e64200b1265ceb5d47aeb5e9b129d7f0094ae20727",
}


@pytest.mark.parametrize("command,fmt", sorted(FAN_DIGESTS))
def test_fan_output_digest_is_frozen(capsys, command, fmt):
    code, out, _ = run(capsys, [command, *FAN, "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FAN_DIGESTS[(command, fmt)]


# sha256 of `verify` stdout, frozen so that moving the theorem checks between
# modules cannot change a byte of the report
NESTED = ["--theorem", "nested", "--sub-diagonals", "0-2,0-4"]
IDEMPOTENT = ["--theorem", "idempotent", "--j", "0-2,0-4"]
STATUS_PASS = "609238edf42f61a205d75a1c4868606c1c7a2abb51cd4c7c2e01f0581afb19e3"
VERIFY_DIGESTS = {
    ("main", "json"): (
        FAN,
        "d228df2a91b0c0bd76274d7f848445043a0137ec70071e3c9c14990ca855a762",
    ),
    ("main", "text"): (FAN, STATUS_PASS),
    ("nested", "json"): (
        [*FAN, *NESTED],
        "efb2c4eb048c45d4838f3f78c8a2bcb7b641addc01b418f9f90c166d28cc48cc",
    ),
    ("nested", "text"): ([*FAN, *NESTED], STATUS_PASS),
    ("idempotent", "json"): (
        [*FAN, *IDEMPOTENT],
        "d1ddb9fe2a8cdd5186ead6088467b9d341c90dc55a6632780cca4c7c82de8dd0",
    ),
    ("idempotent", "text"): ([*FAN, *IDEMPOTENT], STATUS_PASS),
    ("exhaustive-6-all", "json"): (
        ["--exhaustive", "6", "--theorem", "all"],
        "4f647d90f43658e63c808d26eca2baeeccc58f7e1dd9dab5d149c48094d83c80",
    ),
}


@pytest.mark.parametrize("case,fmt", sorted(VERIFY_DIGESTS))
def test_verify_output_digest_is_frozen(capsys, case, fmt):
    args, digest = VERIFY_DIGESTS[(case, fmt)]
    code, out, _ = run(capsys, ["verify", *args, "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# a gentle quiver whose vertex names are out of sorted order, one of them a
# list, and whose arrow ids are not a0, a1, ...: the --quiver input edge,
# where vertex names meet the algebra
NAMED_QUIVER = {
    "vertices": ["c", [0, 2], "a", "b"],
    "arrows": [
        {"id": "beta", "src": "c", "tgt": [0, 2]},
        {"id": "alpha", "src": [0, 2], "tgt": "a"},
        {"id": "gamma", "src": "b", "tgt": [0, 2]},
    ],
    "relations": [["beta", "alpha"]],
}
# two arrows out of x, listed against name order: the algebra orders paths,
# strings and shortcut arrows by arrow index, where it once ordered them by
# name, and none of that may reach the output
FORKED_QUIVER = {
    "vertices": ["x", "y", "z", "w"],
    "arrows": [
        {"id": "b", "src": "x", "tgt": "y"},
        {"id": "a", "src": "x", "tgt": "z"},
        {"id": "c", "src": "w", "tgt": "x"},
    ],
    "relations": [["c", "b"]],
}
# per input, the --j subset that verify reads and the sha256 of stdout per
# (command, format), frozen so that no refactor of the algebra layer changes
# how names reach the output
QUIVER_INPUTS = (
    (
        NAMED_QUIVER,
        "a,c,b",
        {
            ("silting", "json"): "dccb5d6b9969104b65e659bf1484e97208b377ba800822fb0159543703411379",
            ("silting", "dot"): "4bf670b9bf8a69650d6cb1ecbacd3264fdc1504652e8cbb14f285f3b3d36c9dc",
            ("silting", "text"): "5899329849f75b541691594cfe680c6abb4489ee3859640c839041961a7cafff",
            ("verify", "json"): "a866007495d0175879ade0986a047578551c8bdadb7cf335f1ba896fa720c7f2",
        },
    ),
    (
        FORKED_QUIVER,
        "z,x,y",
        {
            ("silting", "json"): "760cf6a4b29b91d973e82d7b7e9273dc9199a1a1f721d9983e178753eb95f3a4",
            ("silting", "dot"): "ff15702744b63e48972adbe0d0e4d6452517f85c4b9e9bda1350ab5776822da0",
            ("silting", "text"): "e980a73ced08d001737ffc0134eb4aeebe382055e5619eefa404881493b2b966",
            ("verify", "json"): "22d9ec5cbbdd757dabc845bafb93ea59a509d4c11369affd8b6da6239e3e8073",
        },
    ),
)


@pytest.mark.parametrize("command,fmt", sorted(QUIVER_INPUTS[0][2]))
def test_named_quiver_output_digest_is_frozen(capsys, tmp_path, command, fmt):
    for quiver, j, digests in QUIVER_INPUTS:
        path = tmp_path / "q.json"
        path.write_text(json.dumps(quiver))
        args = ["--quiver", str(path), "--format", fmt]
        if command == "verify":
            args += ["--theorem", "idempotent", "--j", j]
        code, out, _ = run(capsys, [command, *args])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digests[(command, fmt)]


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, ["accordion", *FAN, "--out", str(target)])
    assert code == 0
    assert out == ""
    assert len(json.loads(target.read_text())["complex"]["vertices"]) == 9


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_missing_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_bad_diagonal_syntax(capsys):
    code, _, err = run(capsys, ["accordion", "--m", "6", "--diagonals", "02"])
    assert code == 2
    assert "expected i-j" in err


# -- fuzzing --

# each input is either well-formed in shape (so that most examples get past
# parsing) or any small JSON value
LABEL = st.one_of(st.integers(-2, 8), st.text("0123-ab", max_size=3), st.booleans())
JSON_ANY = st.recursive(
    st.none() | LABEL,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["m", "diagonals", "vertices", "arrows", "relations"]), inner, max_size=3
    ),
    max_leaves=8,
)


@functools.cache
def dissections_json(m: int) -> list[dict]:
    return [d.to_json() for d in all_dissections(m)]


VALID_DISSECTION_JSON = st.integers(4, 7).flatmap(lambda m: st.sampled_from(dissections_json(m)))
DISSECTION_JSON = VALID_DISSECTION_JSON | st.fixed_dictionaries(
    {
        "m": st.integers(3, 9),
        "diagonals": st.lists(st.lists(st.integers(0, 8), min_size=2, max_size=2), max_size=3),
    }
)
VERTEX = st.sampled_from(["1", "2", "3"])
QUIVER_JSON = VALID_DISSECTION_JSON.map(
    lambda d: quiver_of_dissection(validate_dissection(d["m"], d["diagonals"])).to_json()
) | st.fixed_dictionaries(
    {
        "vertices": st.lists(VERTEX, max_size=4),
        "arrows": st.lists(
            st.fixed_dictionaries({"id": st.sampled_from("abcd"), "src": VERTEX, "tgt": VERTEX}),
            max_size=3,
        ),
    },
    optional={
        "relations": st.lists(st.lists(st.sampled_from("abcd"), min_size=2, max_size=2), max_size=2)
    },
)


def labels_in(data: dict) -> list[str]:
    """Vertex labels of a quiver's JSON, or diagonal labels of a dissection's."""
    if "vertices" in data:
        return data["vertices"]
    return [f"{i}-{j}" for i, j in data["diagonals"]]


def verify_with(theorem: str, option: str, source: str, inputs):
    """verify argv whose option names a few labels of its input, maybe unknown ones."""
    return inputs.flatmap(
        lambda data: st.lists(st.sampled_from([*labels_in(data), "x", ""]), max_size=3).map(
            lambda picked: (
                ["verify", "--theorem", theorem, f"{option}={','.join(picked)}", source],
                data,
            )
        )
    )


COMMANDS = st.one_of(
    st.tuples(st.just(["accordion", "--input"]), DISSECTION_JSON | JSON_ANY),
    st.tuples(st.just(["silting", "--input"]), DISSECTION_JSON | JSON_ANY),
    st.tuples(st.just(["silting", "--quiver"]), QUIVER_JSON | JSON_ANY),
    verify_with("idempotent", "--j", "--quiver", QUIVER_JSON),
    verify_with("idempotent", "--j", "--input", DISSECTION_JSON),
    verify_with("nested", "--sub-diagonals", "--input", DISSECTION_JSON),
)


@settings(max_examples=60, deadline=None)
@given(command=COMMANDS, fmt=st.sampled_from(["json", "text", "dot"]))
def test_cli_fuzz_exit_codes_and_error_lines(tmp_path_factory, command, fmt):
    # every input gives a defined exit code: 0 pass, 1 verification failure,
    # or one error line for bad input (2), an unsupported algebra (3) and a
    # broken invariant (4); nothing else reaches stderr
    argv, data = command
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, str(path), "--format", fmt])
    assert code in (0, 1, 2, 3, 4)
    if code in (2, 3, 4):
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


# argv drawn from the real subcommands and flags, with small or invalid
# values; "@name" stands for a file under the test's tmp_path
SMALL_INT = st.sampled_from(["-1", "0", "3", "4", "5", "6", "9", "x", ""])
DIAGONALS = st.sampled_from(["0-2", "0-2,0-3", "1-3,3-5", "0-2,1-3", "0-2,0-2", "02", "0-9", ""])
# files json.load rejects with UnicodeDecodeError, RecursionError and a
# ValueError for an integer too long to convert
HOSTILE_FILES = {
    "not-utf8.json": b'\xff\xfe{"m": 5, "diagonals": []}',
    "deep.json": b"[" * 200_000,
    "long-int.json": b'{"m": ' + b"9" * 5_000 + b', "diagonals": []}',
}
FILES = st.sampled_from(
    ["@dissection.json", "@quiver.json", "@bad.json", "@missing.json"]
    + [f"@{name}" for name in HOSTILE_FILES]
)
FLAG_VALUES = {
    "--m": SMALL_INT,
    "--exhaustive": SMALL_INT,
    "--diagonals": DIAGONALS,
    "--sub-diagonals": DIAGONALS,
    "--j": st.sampled_from(["0-2", "0-2,0-3", "1,3", "1,1", "x", ""]),
    "--theorem": st.sampled_from([*cli.DRIVERS, "all", "none"]),
    "--format": st.sampled_from(["json", "dot", "text", "xml"]),
    "--input": FILES,
    "--quiver": FILES,
    "--out": st.sampled_from(["@out.txt", "@absent/out.txt"]),
}
OPTION = st.sampled_from(sorted(FLAG_VALUES)).flatmap(
    lambda flag: st.tuples(st.just(flag), FLAG_VALUES[flag])
)
ARGV = st.tuples(
    st.sampled_from(["accordion", "silting", "verify", "bogus"]),
    st.lists(OPTION, max_size=5),
    st.sampled_from([(), ("--help",), ("extra",), ("--m",)]),
).map(lambda t: [t[0], *(token for option in t[1] for token in option), *t[2]])


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=ARGV)
def test_cli_fuzz_argv_returns_a_defined_exit_code(tmp_path, monkeypatch, argv):
    # a low safety cap keeps every sweep small; main returns an exit code
    # for every argv and raises nothing
    monkeypatch.setenv("ACCORDION_TAU_MAX_M", "5")
    dissection = {"m": 5, "diagonals": [[0, 2], [0, 3]]}
    (tmp_path / "dissection.json").write_text(json.dumps(dissection))
    (tmp_path / "quiver.json").write_text(json.dumps(A3_QUIVER))
    (tmp_path / "bad.json").write_text('{"m": 5, "diagonals": [[0, 2]')
    for name, raw in HOSTILE_FILES.items():
        (tmp_path / name).write_bytes(raw)
    argv = [str(tmp_path / token[1:]) if token.startswith("@") else token for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert type(code) is int and code in (0, 1, 2, 3, 4)


@pytest.mark.parametrize("name", HOSTILE_FILES)
@pytest.mark.parametrize(
    "argv",
    [
        ["accordion", "--input"],
        ["silting", "--quiver"],
        ["verify", "--theorem", "idempotent", "--j", "1", "--quiver"],
    ],
    ids=["accordion-input", "silting-quiver", "verify-idempotent-quiver"],
)
def test_undecodable_json_files_are_input_errors(capsys, tmp_path, name, argv):
    path = tmp_path / name
    path.write_bytes(HOSTILE_FILES[name])
    code, out, err = run(capsys, [*argv, str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1
