import gzip
import hashlib
import io
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import veechlab
from veechlab import render
from veechlab.certificates import (
    certify_rotation_obstruction,
    certify_shear,
    mutated_monodromy,
    revalidate,
    verify_theorem,
)
from veechlab.cli import main
from veechlab.covering import build_cover
from veechlab.cylinders import unit_vector


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_surface_subcommand(capsys):
    code, out, _ = run_cli(capsys, "surface", "--n", "5")
    assert code == 0
    data = json.loads(out)
    assert data["conductor"] == 20
    assert len(data["polygons"]) == 2


def test_cylinders_subcommand_base(capsys):
    code, out, _ = run_cli(capsys, "cylinders", "--n", "9", "--direction", "0")
    assert code == 0
    data = json.loads(out)
    assert len(data["cylinders"]) == 4
    for cyl in data["cylinders"]:
        assert {"height", "circumference", "inverse_modulus", "core_word"} <= set(cyl)


def test_cylinders_subcommand_cover(capsys):
    code, out, _ = run_cli(capsys, "cylinders", "--n", "5", "--d", "4", "--direction", "0")
    assert code == 0
    data = json.loads(out)
    assert len(data["cylinders"]) == 6


def test_cover_subcommand(capsys):
    code, out, _ = run_cli(capsys, "cover", "--n", "8", "--d", "3")
    assert code == 0
    data = json.loads(out)
    assert data["k1"] == 1 and data["k2"] == 2


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "5", "--d", "3")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "pass"
    assert revalidate(data) == "pass"


def test_verify_infinite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "8", "--infinite")
    assert code == 0
    assert json.loads(out)["d"] == "inf"


def test_verify_invalid_degree_exit_two(capsys):
    code, _, err = run_cli(capsys, "verify", "--n", "5", "--d", "0")
    assert code == 2
    assert "degree" in err


def test_invalid_n_exit_two(capsys):
    code, _, err = run_cli(capsys, "quotient", "--n", "6")
    assert code == 2
    assert "n must be" in err


def test_quotient_subcommand(capsys):
    code, out, _ = run_cli(capsys, "quotient", "--n", "8")
    assert code == 0
    data = json.loads(out)
    assert len(data["cusps"]) == 5
    assert data["genus"] == 0


def test_infinite_subcommand(capsys):
    code, out, _ = run_cli(capsys, "infinite", "--n", "10")
    assert code == 0
    data = json.loads(out)
    assert data["infinite_angle_singularities"] == 4
    assert data["z_cover_of_Y_n2"]["deck_group"] == "Z"


def test_render_surface(tmp_path, capsys):
    out_file = tmp_path / "x9.svg"
    code, _, _ = run_cli(
        capsys, "render", "--n", "9", "--direction", "0", "--out", str(out_file)
    )
    assert code == 0
    svg = out_file.read_text()
    assert svg.startswith("<svg")
    assert "polygon" in svg


def test_render_cover_and_window(tmp_path, capsys):
    cover_file = tmp_path / "y53.svg"
    code, _, _ = run_cli(capsys, "render", "--n", "5", "--d", "3", "--out", str(cover_file))
    assert code == 0
    assert cover_file.read_text().count("<polygon") >= 6
    window_file = tmp_path / "inf8.svg"
    code, _, _ = run_cli(
        capsys, "render", "--n", "8", "--infinite", "--window", "2", "--out", str(window_file)
    )
    assert code == 0
    assert window_file.read_text().count("<polygon") >= 5


def test_render_empty_window_exit_two(tmp_path, capsys):
    out_file = tmp_path / "x.svg"
    code, _, err = run_cli(
        capsys, "render", "--n", "8", "--infinite", "--window", "0", "--out", str(out_file)
    )
    assert code == 2
    assert "window" in err
    assert not out_file.exists()


@pytest.mark.parametrize("where", ["directory", "missing_dir/x.svg"])
def test_render_to_an_unwritable_path_exits_two(tmp_path, capsys, where):
    out = tmp_path if where == "directory" else tmp_path / where
    code, stdout, err = run_cli(capsys, "render", "--n", "5", "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith("error: cannot write %s: " % out) and err.count("\n") == 1


@pytest.mark.parametrize("argv, option", [
    (("render", "--n", "8", "--infinite", "--direction", "1"), "--direction"),
    (("render", "--n", "5", "--window", "0"), "--window"),
    (("render", "--n", "5", "--d", "3", "--window", "2"), "--window"),
])
def test_render_rejects_options_it_would_ignore(tmp_path, capsys, argv, option):
    out_file = tmp_path / "x.svg"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 2
    assert out == "" and option in err
    assert not out_file.exists()


@pytest.mark.parametrize("argv", [
    ("render", "--n", "5", "--palette", "nosuch", "--out", "x.svg"),
    ("render", "--n", "5", "--d", "3", "--infinite", "--out", "x.svg"),
    ("verify", "--n", "5", "--d", "3", "--infinite"),
])
def test_rejected_option_combinations_exit_two(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "error:" in out.err
    assert not (tmp_path / "x.svg").exists()


def test_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--n", "7", "--d", "4")
    _, out2, _ = run_cli(capsys, "verify", "--n", "7", "--d", "4")
    assert out1 == out2
    _, q1, _ = run_cli(capsys, "quotient", "--n", "9")
    _, q2, _ = run_cli(capsys, "quotient", "--n", "9")
    assert q1 == q2


def test_json_round_trip_reproduces_verdict(capsys):
    for args in (["verify", "--n", "8", "--d", "2"], ["verify", "--n", "5", "--infinite"]):
        code, out, _ = run_cli(capsys, *args)
        data = json.loads(out)
        assert revalidate(data) == data["verdict"]
        assert (code == 0) == (data["verdict"] == "pass")


def test_revalidate_subcommand_reads_verify_output(capsys, monkeypatch, tmp_path):
    _, out, _ = run_cli(capsys, "verify", "--n", "8", "--d", "2")
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, verdict, _ = run_cli(capsys, "revalidate", "--file", "-")
    assert code == 0
    assert json.loads(verdict) == {"verdict": "pass"}
    data = json.loads(out)
    shear = next(s for s in data["payload"]["subcertificates"] if s["kind"] == "ShearMembership")
    shear["payload"]["cylinders"][0]["twists"] += 1
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(data))
    code, verdict, _ = run_cli(capsys, "revalidate", "--file", str(edited))
    assert code == 1
    assert json.loads(verdict) == {"verdict": "fail"}
    # malformed input is a typed error, reported like any other failure
    data["values"][shear["payload"]["cylinders"][0]["inverse_modulus"]]["coeffs"][0][1] = "0.5"
    edited.write_text(json.dumps(data))
    for path in (str(edited), "-"):
        monkeypatch.setattr("sys.stdin", io.StringIO("{"))
        code, verdict, err = run_cli(capsys, "revalidate", "--file", path)
        assert code == 1 and verdict == "" and err.startswith("error: ")
    code, _, err = run_cli(capsys, "revalidate", "--file", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read" in err


def test_revalidate_subcommand_reports_deeply_nested_json_as_malformed(capsys, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000)
    code, out, err = run_cli(capsys, "revalidate", "--file", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: %s is not JSON: " % path) and err.count("\n") == 1


# sha256 of `veechlab verify` stdout, recorded when certificates moved to
# format 5, which carries each fact once (the format-1 to format-4 hashes
# are kept with their fixtures in tests/test_format.py; format 4's were
# b63e7e6a... at (25, 4) and c83601b0... at (101, 3))
GOLDEN_VERIFY = {
    ("--n", "7", "--d", "4"): "c8bbe5daeba03e0ee3e8f6046db7e4aad4109548cd75bb65462f3be9855db12c",
    ("--n", "9", "--d", "6"): "8bb14cdf513a62e7135d47c131746a16bd05a52e871ee80044cedf643a2f1ab9",
    ("--n", "14", "--d", "3"): "c29ee834b2446bf7a93fa1a38fcc7f05bf4a765762a48fd2e397026a599ed310",
    ("--n", "8", "--infinite"): "36186fdd8148d4fa3cd21c7ae55b402a88ef900d3603d1764946ab000c6a4adb",
    # conductors 100 and 404
    ("--n", "25", "--d", "4"): "428ec36784cdaabb5d76fe82402d6a5e4fb44a9c71a3ebff402b9a9603998d4a",
    ("--n", "101", "--d", "3"): "dd1be049c3966de2f03fef9641e8a23c19abb1b62f8dc59eeb39714ec4eb4a25",
}


@pytest.mark.parametrize("args", sorted(GOLDEN_VERIFY))
def test_verify_stdout_bytes_unchanged(capsys, args):
    code, out, _ = run_cli(capsys, "verify", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY[args]


# sha256 of json.dumps(cert.to_json()) for the three format-1 fixtures that
# GOLDEN_VERIFY does not pin, recorded when format 5 replaced format 4
# (their format-4 hashes were ffde0085..., f14fb879... and 0c48df9a...).
GOLDEN_CERTIFICATES = {
    "mutated_n7_d4": "33d597be458387e45985fecebce53e4eafcc10a1cb34f9440682ad4a112562e3",
    "shear_n7_d4_l1": "d57f58cd50815d03e7c886188e13b6a5bae6356828f2cb5dc0c5b52b50623f77",
    "rotation_n7_d4_l2": "1e31f001b431ce311a75aca4c867cc19c38a12e9aaa82609ca21a6ef602f27b0",
}

_CERTIFICATES = {
    "mutated_n7_d4": lambda: verify_theorem(7, 4, monodromy=mutated_monodromy(7, 4)),
    "shear_n7_d4_l1": lambda: certify_shear(build_cover(7, 4), 1),
    "rotation_n7_d4_l2": lambda: certify_rotation_obstruction(build_cover(7, 4), 2),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CERTIFICATES))
def test_certificate_bytes_unchanged(name):
    data = _CERTIFICATES[name]().to_json()
    assert hashlib.sha256(json.dumps(data).encode()).hexdigest() == GOLDEN_CERTIFICATES[name]


def test_revalidate_subcommand_refuses_format1(capsys, tmp_path):
    fixture = Path(__file__).parent / "fixtures" / "verify_n7_d4.json.gz"
    path = tmp_path / "verify_n7_d4.json"
    path.write_bytes(gzip.decompress(fixture.read_bytes()))
    code, out, err = run_cli(capsys, "revalidate", "--file", str(path))
    assert code == 1 and out == ""
    assert "format 1 is no longer read; run `veechlab verify` again to write format 5" in err


# sha256 of `veechlab cylinders` stdout and of `veechlab render` SVG files,
# recorded while the tracer still enumerated saddle connections
GOLDEN_CYLINDERS = {
    ("--n", "9", "--direction", "0"): "9b5066ecdcc1912613f1e7c51c48145d6c375f0deb2a4cf70b1816f5cc247a5f",
    ("--n", "14", "--direction", "3"): "30923812c151b68be9e70ca57cf2b92f2c807f5172b27c7ce2e632732b9b2410",
    ("--n", "5", "--d", "4", "--direction", "1"): "b15724e1a86443671f601123e507b122cb96a841761e1e7081f5906e83575f00",
    # recorded while every direction v_l was still traced: v_3 of X_9 is
    # read from the v_0 bands in Q, v_4 of X_9 and v_5 of X_8 from v_0
    # and v_1 as they are listed, v_4 of Y_{7,3} through the monodromy
    ("--n", "9", "--direction", "3"): "90ca28762592c395e0d5826158a4efb6a27305dcd9fc019f6ce0f69080693b78",
    ("--n", "9", "--direction", "4"): "2d7bb16fc882a88d08c5e150c847061eef907fe6c6ddf17dabfd30e1cacd4a68",
    ("--n", "8", "--direction", "5"): "979216fa703ad187530aaa6b4b495000726cfb9bf7d9bd338cdcf918ead00ab5",
    ("--n", "7", "--d", "3", "--direction", "4"): "1e22063819db13c8ce06366fdcd8232daa9134139fb62178d3d4fe6a0af48dec",
}
GOLDEN_RENDER = {
    ("--n", "9", "--direction", "0"): "1dc4da5966b45c46ff903324419fc38542a88f5022c30fbd45a97d1197375618",
    ("--n", "5", "--d", "3", "--direction", "1"): "05aa77120b3e18cfe811a6e78993ed3d868e9b18255f779976239e2c508c9d2a",
    ("--n", "8", "--infinite", "--window", "2"): "556150133c4b0f61a4daeaa4dacf24644041d35e1fc2c558f37c211b989959dd",
    ("--n", "8", "--infinite"): "556150133c4b0f61a4daeaa4dacf24644041d35e1fc2c558f37c211b989959dd",
    # recorded while decompose still walked separatrices across edges:
    # realized covers of even n in an odd direction, and X_9 in v_5
    ("--n", "8", "--d", "3", "--direction", "3"): "57f64e8169cdcb341bc9dbb080f8a06756a7ae7ef72c34d4522076b871ad040c",
    ("--n", "10", "--d", "2", "--direction", "3"): "46a541687b69d9addfcd70b338e816040cf05db2617ffc6cd95206deb8395aa9",
    ("--n", "9", "--direction", "5"): "989c18c1a622da79721436e58197950aebe209695a941e709a99b7c49aef6c79",
}


# sha256 of `veechlab cover` and `veechlab infinite` stdout, recorded while
# every monodromy still stored its own k1/k2
GOLDEN_COVER = {
    ("cover", "--n", "8", "--d", "3"): "c0886318e36fd3b0f05f833c10859c063544d6636ed5a941dc33a2adaab1d5db",
    ("cover", "--n", "9", "--d", "5"): "698ce02410f0948aa086c2aa40b7fe43e664599f31bd5ba24ad31c043b380ed2",
    ("infinite", "--n", "10"): "486bea5e5813d3a28ad0fa9615ab358e2e41fae54eb747db2c687a8c9d085381",
}


# sha256 of `veechlab quotient --n N` stdout, recorded while Veech-group
# words were still a class of their own
GOLDEN_QUOTIENT = {
    5: "3f5ffd86d3fe9ba8b973bf94873f7ca38bf1dbc1c41f0dd4be627223f77bda8d",
    7: "6550daaa2aa8dc35e0c333639973fd435102b4fb9f7ca2ff123dd72c4c2dade2",
    8: "1a2a13e75a6e1365c1131fe278a6f90cc67c2f87460c856078f2beb57f4dfdca",
    9: "76505a4040669510d7dfe7f564b45335af4015dc1866019c6cdcb69ccabd79b0",
    10: "470a540f0409021290015dd4eb87ce400712d1e19439e9270df5410e1d4f2025",
    12: "7ec09202519a4a32ea32f2459582d53d553701e44edccbed415db5f86ef9c0f5",
    16: "f007637f8292f47b3b872b5408efb2586580d9d709e70a93daccdff32ac1e177",
    25: "2dc870064821b1ef49eebc2fa44584e1c16f779b5d0b7a6f9cb9c748dbabbd14",
}


@pytest.mark.parametrize("n", sorted(GOLDEN_QUOTIENT))
def test_quotient_stdout_bytes_unchanged(capsys, n):
    code, out, _ = run_cli(capsys, "quotient", "--n", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_QUOTIENT[n]


@pytest.mark.parametrize("args", sorted(GOLDEN_COVER))
def test_cover_and_infinite_stdout_bytes_unchanged(capsys, args):
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_COVER[args]


@pytest.mark.parametrize("args", sorted(GOLDEN_CYLINDERS))
def test_cylinders_stdout_bytes_unchanged(capsys, args):
    code, out, _ = run_cli(capsys, "cylinders", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_CYLINDERS[args]


@pytest.mark.parametrize("args", sorted(GOLDEN_RENDER))
def test_render_svg_bytes_unchanged(tmp_path, capsys, args):
    out_file = tmp_path / "golden.svg"
    code, _, _ = run_cli(capsys, "render", *args, "--out", str(out_file))
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == GOLDEN_RENDER[args]


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_render_numbers_are_written_as_mpmath_writes_them(x):
    with mpmath.workdps(25):
        assert render._num(x) == mpmath.nstr(mpmath.mpf(x), 20)


def _mpmath_value(x):
    # x from its coefficients, in the current mpmath precision
    return mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * mpmath.cos(2 * mpmath.pi * j / x.N)
                       for j, c in enumerate(x.coeffs) if c)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([5, 7, 8, 9, 12]), st.integers(0, 23),
       st.fractions(min_value=-1000, max_value=1000, max_denominator=1000),
       st.sampled_from([0.0, 2.6, 5.2, 7.8]) | st.floats(-100, 100))
def test_render_points_are_within_one_unit_of_mpmath(n, l, scale, dx):
    # each coordinate is its exact value rounded once to 20 significant digits
    v = unit_vector(n, l) * scale
    x, y = render._pt(v, dx).split(",")
    with mpmath.workdps(50):
        for ours, value in ((x, _mpmath_value(v.x) + dx), (y, -_mpmath_value(v.y))):
            unit = mpmath.mpf(10) ** (Decimal(ours).adjusted() - 19)
            assert abs(mpmath.mpf(ours) - value) <= unit, (ours, value)


def _modules_after(statement, *flags):
    # the modules of a fresh interpreter on this test's sys.path, started
    # with flags, after statement
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    run = subprocess.run(
        [sys.executable, *flags, "-c", statement + "\nimport sys\nprint('\\n'.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(run.stdout.split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    added = _modules_after("import veechlab.cli") - _modules_after("pass")
    assert "veechlab.cli" in added and "veechlab.certificates" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)
    # nor typing, which an interpreter without site has not loaded before
    bare = _modules_after("import veechlab.cli", "-S")
    assert "veechlab.cli" in bare and "typing" not in bare, sorted(bare)


# what a finite verify and its revalidate never run: Fractions (and the
# decimal module that fractions loads), SVG, quotient bookkeeping, Z-covers
# and Todd-Coxeter
_OFF_THE_VERIFY_PATH = {"fractions", "decimal", "veechlab.render", "veechlab.quotient",
                        "veechlab.zcover", "veechlab.coset"}

# what only revalidate runs: the reader of certificate JSON
_READER = "veechlab.revalidation"

# runs one command in a fresh interpreter; prints on stderr which of the
# modules named in argv[1] it loaded
_LOADED_PROBE = (
    "import sys\n"
    "from veechlab.cli import main\n"
    "code = main(sys.argv[2:])\n"
    "print('loaded:', *sorted(set(sys.argv[1].split()) & set(sys.modules)), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def test_a_cold_verify_and_its_revalidate_load_only_what_they_run():
    off = _OFF_THE_VERIFY_PATH | {_READER}
    added = _modules_after("import veechlab.cli") - _modules_after("pass")
    assert not added & off, sorted(added & off)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    watched = " ".join(sorted(off))

    def probe(argv, stdin=None):
        run = subprocess.run([sys.executable, "-c", _LOADED_PROBE, watched, *argv], input=stdin,
                             env=env, capture_output=True, text=True, check=True)
        return run.stdout, set(run.stderr.splitlines()[-1].split()[1:])

    cert, loaded = probe(["verify", "--n", "9", "--d", "3"])
    assert json.loads(cert)["verdict"] == "pass" and not loaded, loaded
    # an infinite verify loads zcover, and no verify loads the reader
    infinite, loaded = probe(["verify", "--n", "8", "--infinite"])
    assert json.loads(infinite)["verdict"] == "pass" and loaded == {"veechlab.zcover"}, loaded
    out, loaded = probe(["revalidate", "--file", "-"], cert)
    assert json.loads(out) == {"verdict": "pass"} and loaded == {_READER}, loaded
    # the probe sees a module that a command does load
    _, loaded = probe(["quotient", "--n", "9"])
    assert loaded == {"fractions", "decimal", "veechlab.quotient"}, loaded


# runs one command in a fresh interpreter; says on stderr whether mpmath was loaded
_MPMATH_PROBE = (
    "import sys\n"
    "from veechlab.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('mpmath loaded:', 'mpmath' in sys.modules, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def test_import_does_not_load_mpmath(tmp_path):
    src = str(Path(veechlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = subprocess.run(
        [sys.executable, "-c", "import sys, veechlab.cli; print('mpmath' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert fresh.stdout.strip() == "False"
    helped = subprocess.run([sys.executable, "-m", "veechlab.cli", "--help"],
                            env=env, capture_output=True, text=True)
    assert helped.returncode == 0 and "verify" in helped.stdout

    def probe(*argv):
        run = subprocess.run([sys.executable, "-c", _MPMATH_PROBE, *argv],
                             env=env, capture_output=True, text=True, check=True)
        return run.stdout, run.stderr.strip().splitlines()[-1] == "mpmath loaded: True"

    # no command loads it, render included
    cert, loaded = probe("verify", "--n", "9", "--d", "3")
    assert not loaded
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(cert, encoding="utf-8")
    out, loaded = probe("revalidate", "--file", str(cert_file))
    assert json.loads(out) == {"verdict": "pass"} and not loaded
    out, loaded = probe("cylinders", "--n", "12", "--direction", "1")
    assert json.loads(out)["cylinders"] and not loaded
    _, loaded = probe("render", "--n", "5", "--out", str(tmp_path / "x5.svg"))
    assert not loaded
