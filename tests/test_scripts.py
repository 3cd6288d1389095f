"""The command line and its scripts, run as separate processes the way a user runs them,
or in-process where a test patches the package."""

import hashlib
import os
import pathlib
import runpy
import subprocess
import sys

import pytest

import accordion_tau
from conftest import flip_crossing

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = pathlib.Path(accordion_tau.__file__).resolve().parents[1]


def run_python(*argv):
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_importing_the_package_loads_no_dataclass_machinery():
    # every command is a fresh process: the package's records are
    # NamedTuples and plain classes, so importing it and its command line
    # loads neither dataclasses nor the inspect module that it pulls in,
    # and nothing in it draws random numbers
    code = (
        "import sys, accordion_tau, accordion_tau.cli; "
        "print(sorted({'dataclasses', 'inspect', 'random'} & set(sys.modules)))"
    )
    result = run_python("-S", "-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def run_exhaustive(*argv):
    return run_python(str(ROOT / "scripts" / "run_exhaustive.py"), *argv)


def test_run_exhaustive_rejects_polygons_without_diagonals():
    result = run_exhaustive("--min-m", "2")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "--min-m must be at least 4" in result.stderr
    assert "Traceback" not in result.stderr


def test_run_exhaustive_runs_every_registered_driver():
    # consistency takes no structural flag; the shared registry absorbs that
    result = run_exhaustive("--max-m", "5", "--theorem", "consistency", "--structural")
    assert result.returncode == 0, result.stderr
    rows = [line.split()[:5] for line in result.stdout.splitlines()[1:-1]]
    assert rows == [
        ["consistency", "4", "2", "2", "0"],
        ["consistency", "5", "20", "20", "0"],
    ]


@pytest.mark.parametrize("theorem, flags", [("main", ["--structural"]), ("nested", [])])
def test_run_exhaustive_reports_a_package_error_in_one_line(monkeypatch, capsys, theorem, flags):
    # b0-b2 and b1-b3 cross; calling them compatible makes an accordion
    # complex impure, which the first sweep (m=4) raises on: the structural
    # audit reads its facets, and the nested check screens them by design
    flip_crossing(monkeypatch, {(0, 2), (1, 3)})
    argv = ["run_exhaustive.py", "--max-m", "6", "--theorem", theorem, *flags]
    monkeypatch.setattr(sys, "argv", argv)
    main = runpy.run_path(str(ROOT / "scripts" / "run_exhaustive.py"))["main"]
    assert main() == 4
    out, err = capsys.readouterr()
    assert out.splitlines()[1:] == []
    assert err == f"error: {theorem} m=4: accordion facet (0, 1) has size 2, expected 1\n"


def test_run_exhaustive_says_how_many_messages_it_leaves_out(monkeypatch, capsys):
    # calling b0-b2 and b2-b4 crossing fails 19 of the 44 main instances at
    # m=6, and 19 accordion complexes fail their audit: each list shows 5
    # and counts the rest
    flip_crossing(monkeypatch, {(0, 2), (2, 4)})
    argv = ["run_exhaustive.py", "--min-m", "6", "--max-m", "6", "--theorem", "main"]
    monkeypatch.setattr(sys, "argv", [*argv, "--structural"])
    main = runpy.run_path(str(ROOT / "scripts" / "run_exhaustive.py"))["main"]
    assert main() == 1
    out, err = capsys.readouterr()
    assert err == "1 sweep(s) failed\n"
    lines = out.splitlines()
    assert lines[1].split()[:5] == ["main", "6", "25", "44", "88"]
    assert [line.startswith("    ! ") for line in lines[2:]] == 2 * ([True] * 5 + [False])
    assert lines[7] == lines[13] == "    ... and 14 more"
    assert " accordion: " in lines[8]


def test_run_exhaustive_rejects_sizes_above_the_theorem_ceiling():
    # main stops at m=10 whatever --max-m says, so an m=11 request has no sizes
    result = run_exhaustive("--min-m", "11", "--max-m", "11", "--theorem", "main")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "nothing to run" in result.stderr


def test_run_exhaustive_stops_nested_at_m9():
    # nested's ceiling is m=9 (95,676 pairs), so an m=10 request has no sizes
    result = run_exhaustive("--min-m", "10", "--max-m", "10", "--theorem", "nested")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "nothing to run" in result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["--exhaustive", "5", "--theorem", "all"],
        ["--m", "6", "--diagonals", "0-2,0-3,0-4"],
    ],
    ids=["exhaustive", "single"],
)
def test_verify_is_the_same_under_python_O(argv):
    # -O strips assert statements; the package's invariants must not need them
    plain = run_python("-m", "accordion_tau", "verify", *argv)
    optimized = run_python("-O", "-m", "accordion_tau", "verify", *argv)
    assert plain.returncode == 0, plain.stderr
    assert '"status": "pass"' in plain.stdout
    assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout)


def test_verify_has_no_seed_option():
    result = run_python(
        "-m", "accordion_tau", "verify", "--m", "6", "--diagonals", "0-2,0-3,0-4", "--seed", "3"
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert "--seed" in result.stderr
    assert "Traceback" not in result.stderr


def test_commands_run_clean_in_python_dev_mode(tmp_path):
    # -X dev shows resource and deprecation warnings, and -W error turns
    # each into an error: none may fire
    strict = ("-X", "dev", "-W", "error")
    runs = [
        ("-m", "accordion_tau", "verify", "--exhaustive", "5", "--theorem", "all",
         "--out", str(tmp_path / "verify.json")),
        ("-m", "accordion_tau", "silting", "--m", "6", "--diagonals", "0-2,0-3,0-4",
         "--format", "dot", "--out", str(tmp_path / "silting.dot")),
        (str(ROOT / "scripts" / "export_examples.py"), "--out-dir", str(tmp_path / "exports")),
    ]
    for argv in runs:
        result = run_python(*strict, *argv)
        assert (result.returncode, result.stderr) == (0, ""), argv


def test_python_m_accordion_tau_runs_the_command_line():
    result = run_python("-m", "accordion_tau", "verify", "--m", "5", "--diagonals", "0-2")
    assert result.returncode == 0, result.stderr
    assert '"status": "pass"' in result.stdout
    for m in ("x", "2"):
        bad = run_python("-m", "accordion_tau", "verify", "--m", m, "--diagonals", "0-2")
        assert bad.returncode == 2
        assert bad.stdout == ""
        assert "Traceback" not in bad.stderr


# sha256 of each file scripts/export_examples.py writes, frozen from the
# export built on black Chords with their colour
EXPORT_DIGESTS = {
    "heptagon_zigzag_accordion.json": "df2a716ef467eb9ac707e5595a508459748586326b238d55bb21b1cf3ee51959",
    "heptagon_zigzag_complex.txt": "4f577b0758b3b94aa38da749871435e29d87030a7652604b3b97a4691af7265c",
    "heptagon_zigzag_dissection.json": "14742cde6025087f76e65266534f649260efaf956f8476db0f2efdb3386abf3b",
    "heptagon_zigzag_exchange.dot": "8765cc9021d14f0f8dd4c8d7976cc756a9809d06c2361daec9cf542c3974aca1",
    "heptagon_zigzag_quiver.json": "c8e430543ef81ebfc752b1537377ef31520f8f4990436943de64fac43ac24d51",
    "heptagon_zigzag_silting.json": "9b7dee323bd9ba176e4b055bdff20fe9e6fd8f0b97e1f980cd8402bde337bc24",
    "heptagon_zigzag_verify.json": "0b16b3953281dc6efee6bfab9ed1903d704c22ece92078c124691382e2d52985",
    "hexagon_fan_accordion.json": "e0e036a57cba2ad1043bc4229283fdfa2d25dfd419e7dd6b0b1a77c8397b348c",
    "hexagon_fan_complex.txt": "493dad9a1c6fe10581b1cfc34c6a1d180cb2dad55c6c6825c1544fef6672a246",
    "hexagon_fan_dissection.json": "3e580857f9b596099dd281fa3211a5766c6d7d2167be64385d51382ae8df572f",
    "hexagon_fan_exchange.dot": "2ad0d1c0fe98d3e0f4875f2f7a30e80cd3c588dd1198322e490181f7e399344f",
    "hexagon_fan_quiver.json": "5076566c35e659b6166367fdd7f244392057dee5e4a8721ec1d1850c74bbea94",
    "hexagon_fan_silting.json": "a4194defd5753fd150e47a821d95732fa5f6729dd44d8867201b60ea93394117",
    "hexagon_fan_verify.json": "dd9e0717fa26993f5afb776296f151b089aded520cea53454e2168a13e0eec75",
    "hexagon_triangle_accordion.json": "0270d6055104a74b1d27d821dcd25f59dd5634a3f64870215009ab9d605fbbac",
    "hexagon_triangle_complex.txt": "6926a6c4dc8c2befdb78a32fa685dfaabc511de924f31b527596186499b8aa3b",
    "hexagon_triangle_dissection.json": "cbad7aa47b8284504273949302cc9d56ffdd5c6d9860fff0876d359189f6f436",
    "hexagon_triangle_exchange.dot": "144d76e2b1fd699f2a03eafe0f253973ef955a333512864b83916f22e94c2478",
    "hexagon_triangle_quiver.json": "e6815081f8560e22d818bacdff38ac1a596e618c6abab97baec6ffe028da8679",
    "hexagon_triangle_silting.json": "6f1e6c0a932455c98dbdb46760a3d46acd1e172ea23084978a7b12e68a645cd8",
    "hexagon_triangle_verify.json": "c224a80103d91262d07dac08e3b4c0d24e4a6dc2bb2564567805719254240ce6",
}


def test_export_examples_writes_its_frozen_files(tmp_path):
    out = tmp_path / "exports"
    result = run_python(str(ROOT / "scripts" / "export_examples.py"), "--out-dir", str(out))
    assert result.returncode == 0, result.stderr
    wrote = sorted(f"wrote {out / name}" for name in EXPORT_DIGESTS)
    assert sorted(result.stdout.splitlines()) == wrote
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == EXPORT_DIGESTS
