"""Certificate format 5, and the refusal of formats 1 to 4.

revalidate reads format 5 only.  The fixtures under tests/fixtures are
older certificates exactly as the last release of their format wrote
them (gzipped).  Format 1: `veechlab verify` stdout for four (n, d), a
failing mutated theorem, and one standalone ShearMembership and
RotationObstruction, both written with json.dumps(cert.to_json(),
indent=2) plus a newline.  Formats 2 to 4 (format2_*, format3_*,
format4_*): `veechlab verify` stdout for the same four (n, d); format 3
listed a rotation slot for every l, and format 4 every generator's
image, each subcertificate's (n, d), each shear's factor and each
value's decimal approximation.  Each must be refused; the certificates
made today for the same claims are pinned by GOLDEN_VERIFY and
GOLDEN_CERTIFICATES in tests/test_cli.py.
"""

import copy
import gzip
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import veechlab
from veechlab import certificates
from veechlab.certificates import (
    mutated_monodromy,
    revalidate,
    verify_theorem,
)
from veechlab.cli import main
from veechlab.covering import Monodromy, monodromy_indices, num_generators, standard_monodromy
from veechlab.errors import MalformedCertificate
from veechlab.field import RealAlg
from veechlab.zcover import std_infinite_monodromy

FIXTURES = Path(__file__).parent / "fixtures"

# sha256 of format-1 `veechlab verify` stdout: the GOLDEN_VERIFY hashes of
# tests/test_cli.py before format 2 replaced them
FORMAT1_VERIFY = {
    "verify_n7_d4": "1d2b4a4d6dfc66557e10c660ab7f2ff335a50e470c3505332fac84701ef1aa4f",
    "verify_n9_d6": "b45881edc845f659374d7d659c04ec1d07bf515a12c55ad34ba254af41e5180a",
    "verify_n14_d3": "381dbbf7c8b33657838474be99c8f84bbca52edf624b4bdcba6576295f405957",
    "verify_n8_inf": "c11bd7322eb6defab4bcdd60b37cbfc2df1d6cac29c1643c2330b62087571abb",
}

# sha256 of format-2 `veechlab verify` stdout: the GOLDEN_VERIFY hashes of
# tests/test_cli.py before format 3 replaced them
FORMAT2_VERIFY = {
    "format2_verify_n7_d4": "77b72dd3868db2ed32288e30b5ea39368c105ca11213321ebdbedeec8e818bb2",
    "format2_verify_n9_d6": "845025ef759d5001838a151ae5dc4c6cf6b09bb8da286e3aa01d45ae3ae8b924",
    "format2_verify_n14_d3": "fcab2ae0785cdbcb66bc46fe7e47ed9e5bb9dd56d2ca9024c8df9a5cf8c5208c",
    "format2_verify_n8_inf": "0e8804c440f4bd5316a1f3f8b9305a8db896b4ec2c1b1ee7c73e16e9e1add92d",
}

# sha256 of format-3 `veechlab verify` stdout: the GOLDEN_VERIFY hashes of
# tests/test_cli.py before format 4 replaced them
FORMAT3_VERIFY = {
    "format3_verify_n7_d4": "4c034bd125b5805d1ebd12d175ebfaf389ea0d8b116db9930178809872f0ac1f",
    "format3_verify_n9_d6": "40b43a44603b1ea499a9344a9b81550781129992c3585d88f9dd6d69a09f3792",
    "format3_verify_n14_d3": "28a03969cf8016afcfdcf5904cffab209b3a8fcc3bca182d4289d917c274b524",
    "format3_verify_n8_inf": "e54dcda525cdefc07b2dd22a462a8588adeb9075e8e08903a1fb5974e8a72638",
}

# sha256 of format-4 `veechlab verify` stdout: the GOLDEN_VERIFY hashes of
# tests/test_cli.py before format 5 replaced them
FORMAT4_VERIFY = {
    "format4_verify_n7_d4": "fead083592ee57cfd4c73e4fd91627a2f94e6371e62c83a7f8c46f02426b8a4f",
    "format4_verify_n9_d6": "c740c747a0984599f95f07eb13e51a7ff0ba14a320db057163d6aedfe93503d4",
    "format4_verify_n14_d3": "038d0a666dc227af469b7b59f9080c7bbe4904b31b413f395227833bbcfa4d27",
    "format4_verify_n8_inf": "f6cb2b20644eff3b5b9f32e43a735323d66fa0246fe3732b9a59a3bd4f5b5ea7",
}

# the unprefixed fixtures are format 1; revalidate refuses formats 1 to 4
FIXTURES_FORMAT1 = sorted(FORMAT1_VERIFY) + ["mutated_n7_d4", "rotation_n7_d4_l2", "shear_n7_d4_l1"]
FORMAT1_REFUSED = "format 1 is no longer read; run `veechlab verify` again to write format 5"
FORMAT2_REFUSED = "format 2 is no longer read; run `veechlab verify` again to write format 5"
FORMAT3_REFUSED = "format 3 is no longer read; run `veechlab verify` again to write format 5"
FORMAT4_REFUSED = "format 4 is no longer read; run `veechlab verify` again to write format 5"


def _fixture_bytes(name: str) -> bytes:
    return gzip.decompress((FIXTURES / (name + ".json.gz")).read_bytes())


def _fixture(name: str) -> dict:
    return json.loads(_fixture_bytes(name))


def _as_json(cert) -> dict:
    return json.loads(json.dumps(cert.to_json()))


@pytest.mark.parametrize("name", sorted(FORMAT1_VERIFY))
def test_format1_fixtures_are_the_old_verify_bytes(name):
    assert hashlib.sha256(_fixture_bytes(name)).hexdigest() == FORMAT1_VERIFY[name]


@pytest.mark.parametrize("name", sorted(FORMAT2_VERIFY))
def test_format2_fixtures_are_the_old_verify_bytes(name):
    assert hashlib.sha256(_fixture_bytes(name)).hexdigest() == FORMAT2_VERIFY[name]


@pytest.mark.parametrize("name", sorted(FORMAT2_VERIFY))
def test_format2_is_refused(name):
    data = _fixture(name)
    assert data["format"] == 2
    with pytest.raises(MalformedCertificate, match=re.escape(FORMAT2_REFUSED)):
        revalidate(data)


@pytest.mark.parametrize("name", sorted(FORMAT3_VERIFY))
def test_format3_fixtures_are_the_old_verify_bytes(name):
    assert hashlib.sha256(_fixture_bytes(name)).hexdigest() == FORMAT3_VERIFY[name]


@pytest.mark.parametrize("name", sorted(FORMAT3_VERIFY))
def test_format3_is_refused(name):
    # format 3 listed a rotation slot for every l; its verdicts still
    # hold, but revalidate reads only the slot list of l = n/p
    data = _fixture(name)
    assert data["format"] == 3
    with pytest.raises(MalformedCertificate, match=re.escape(FORMAT3_REFUSED)):
        revalidate(data)


@pytest.mark.parametrize("name", sorted(FORMAT4_VERIFY))
def test_format4_fixtures_are_the_old_verify_bytes(name):
    assert hashlib.sha256(_fixture_bytes(name)).hexdigest() == FORMAT4_VERIFY[name]


@pytest.mark.parametrize("name", sorted(FORMAT4_VERIFY))
def test_format4_is_refused(name):
    # format 4 wrote every generator's image and each subcertificate's
    # (n, d); its verdicts still hold, but revalidate reads only format 5
    data = _fixture(name)
    assert data["format"] == 4
    with pytest.raises(MalformedCertificate, match=re.escape(FORMAT4_REFUSED)):
        revalidate(data)


@pytest.mark.parametrize("name", FIXTURES_FORMAT1)
def test_format1_is_refused(name):
    data = _fixture(name)
    assert "format" not in data
    with pytest.raises(MalformedCertificate, match=re.escape(FORMAT1_REFUSED)):
        revalidate(data)


def test_each_value_is_written_once():
    data = _as_json(verify_theorem(9, 4))
    entries = [json.dumps(entry["coeffs"]) for entry in data["values"]]
    assert len(entries) == len(set(entries))
    for entry in data["values"]:
        powers = [j for j, _ in entry["coeffs"]]
        assert powers == sorted(set(powers)) and all(c != "0" for _, c in entry["coeffs"])
        assert set(entry) == {"coeffs"}  # no decimal approximation
    # the horizontal profile is written once, at the top level; 9 = 3^2
    # has one rotation slot, l = 9/3
    rotations = [s for s in data["payload"]["subcertificates"] if s["kind"] == "RotationObstruction"]
    assert [s["payload"]["l"] for s in rotations] == [3] and data["horizontal"]
    assert all(set(s["payload"]) == {"l", "direction"} for s in rotations)
    # and so are the images of the generators that move a sheet, x_k1 and
    # x_k2 = x_4 and x_5, which no payload repeats
    assert [e["generator"] for e in data["images"]] == [4, 5]
    # the claim is stated once, at the top level
    subs = data["payload"]["subcertificates"]
    assert (data["n"], data["d"]) == (9, 4)
    assert all(set(s) == {"kind", "verdict", "payload", "witnesses"} for s in subs)
    payloads = {s["kind"]: s["payload"] for s in subs}
    assert {*payloads["ShearMembership"]} == {"l", "cylinders"}  # no factor
    assert payloads["MinusIdentity"] == payloads["WellFormedCover"] == {}
    assert set(payloads["SigmaT"]) == {"mode", "sigma_T"}
    assert set(payloads["Index"]) == {"expected_index", "index"}


@pytest.mark.parametrize("n", [9, 16, 101])
@pytest.mark.parametrize("d", [3, 48, "inf"])
def test_images_name_exactly_the_moving_generators(n, d):
    # the standard family moves x_k1 and x_k2 alone; every other
    # generator fixes every sheet and is not listed
    if d == "inf":
        cert, m = verify_theorem(n, infinite=True), std_infinite_monodromy(n)
    else:
        cert, m = verify_theorem(n, d), standard_monodromy(n, d)
    data = _as_json(cert)
    generators = [e["generator"] for e in data["images"]]
    assert generators == [*m._moving] == sorted(monodromy_indices(n))
    assert revalidate(data) == cert.verdict == "pass"


def _generators(*generators):
    def edit(images):
        for entry, g in zip(images, generators):
            entry["generator"] = g
    return edit


def _image(value):
    def edit(images):
        images[0]["image"] = value
    return edit


# the images of (9, 3) and (9, inf) name x_4 and x_5 of x_0..x_7
@pytest.mark.parametrize("d, edit, message", [
    pytest.param(3, _generators(4, 8), "x_0..x_7 once each, in increasing order", id="past x_7"),
    pytest.param(3, _generators(-1), "in increasing order", id="below x_0"),
    pytest.param(3, _generators(4, 4), "in increasing order", id="repeated"),
    pytest.param(3, _generators(5, 4), "in increasing order", id="decreasing"),
    pytest.param(3, _image([0, 1, 2]), "x_4 moves no sheet", id="identity"),
    pytest.param("inf", _image({"t_even": 0, "t_odd": 0}), "x_4 moves no sheet", id="Z identity"),
    pytest.param(3, _image([1, 0, 2, 3]), "does not permute the 3 sheets", id="four sheets"),
    pytest.param(3, _image({"t_even": 1, "t_odd": 1}), "does not permute the 3 sheets", id="Z"),
    pytest.param("inf", _image([1, 0, 2]), "does not permute the inf sheets", id="finite for inf"),
    pytest.param(3, _image([0, 0, 1]), "is not a permutation", id="no permutation"),
    pytest.param("inf", _image({"t_even": 1, "t_odd": 2}), "equal parity", id="Z unequal parity"),
    pytest.param("inf", _image({"t_even": True, "t_odd": 1}), "is not a permutation",
                 id="Z bool"),
    pytest.param("inf", _image({"t_even": 1, "t_odd": -1, "k": 0}), "is not a permutation",
                 id="Z extra key"),
])
def test_malformed_images_are_refused(d, edit, message):
    data = _as_json(verify_theorem(9, infinite=True) if d == "inf" else verify_theorem(9, d))
    assert revalidate(data) == "pass"
    edit(data["images"])
    with pytest.raises(MalformedCertificate, match=re.escape(message)):
        revalidate(data)


@pytest.mark.parametrize("d, sigma", [("inf", [1, 0, 2]), (3, {"t_even": 0, "t_odd": 2})],
                         ids=["list for inf", "Z for 3"])
def test_a_sigma_T_of_the_other_kind_is_refused(d, sigma):
    # the claim's d says which kind of permutation sigma_T is
    data = _as_json(verify_theorem(9, infinite=True) if d == "inf" else verify_theorem(9, d))
    assert revalidate(data) == "pass"
    sub = next(s for s in data["payload"]["subcertificates"] if s["kind"] == "SigmaT")
    sub["payload"]["sigma_T"] = sigma
    with pytest.raises(MalformedCertificate, match="permute different sheets"):
        revalidate(data)


@pytest.mark.parametrize("kwargs", [{"d": 4}, {"d": 4, "monodromy": mutated_monodromy(11, 4)},
                                    {"infinite": True}])
def test_a_theorem_and_its_json_make_no_decimal_approximation(monkeypatch, kwargs):
    def no_approx(self, digits=20):
        raise AssertionError("a decimal approximation was made")

    # cold: no type table
    certificates._types.cache_clear()
    monkeypatch.setattr(RealAlg, "approx", no_approx)
    cert = verify_theorem(11, **kwargs)
    assert all(set(entry) == {"coeffs"} for entry in cert.to_json()["values"])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_random_theorem_revalidates_to_its_own_verdict(data):
    # transitive monodromies of degree d <= 6 whose images may name the
    # identity: the emitted images list the others, in increasing order
    n = data.draw(st.sampled_from([5, 7, 8, 9, 10, 12]), label="n")
    d = data.draw(st.integers(2, 6), label="d")
    g = num_generators(n)
    images = data.draw(st.dictionaries(st.integers(0, g - 1),
                                       st.permutations(range(d)).map(tuple), max_size=g))
    m = Monodromy(g, d, images)
    assume(m.is_transitive())
    cert = verify_theorem(n, d, monodromy=m)
    doc = _as_json(cert)
    assert [e["generator"] for e in doc["images"]] == sorted(
        i for i, p in images.items() if p != tuple(range(d)))
    assert revalidate(doc) == cert.verdict


# ---------------------------------------------------------------------------
# tampered certificates (the test names date from format 2)


def _theorem() -> dict:
    return _as_json(verify_theorem(7, 4))


# what a subcertificate alone needs from its theorem's top level
_CLAIM = ("format", "conductor", "n", "d", "values")


def _shear(data: dict) -> dict:
    return next(s for s in data["payload"]["subcertificates"] if s["kind"] == "ShearMembership")


def _set_index(value):
    def tamper(data):
        _shear(data)["payload"]["cylinders"][0]["inverse_modulus"] = value(data)
    return tamper


def _set_entry(entry):
    def tamper(data):
        data["values"][0] = entry
    return tamper


def _drop_horizontal(data):
    del data["horizontal"]


@pytest.mark.parametrize("tamper", [
    _set_index(lambda data: len(data["values"])),
    _set_index(lambda data: -1),
    _set_index(lambda data: "0"),
    _set_index(lambda data: 1.0),
    _set_index(lambda data: True),
    _set_entry({"coeffs": [[1, "1"], [0, "1"]]}),  # powers not increasing
    _set_entry({"coeffs": [[0, "1"], [0, "1"]]}),  # a power twice
    _set_entry({"coeffs": ["1"]}),  # a dense coefficient
    _set_entry({"coeffs": [[1, "1"]]}),  # zeta is not real
    _set_entry({"coeffs": [[0, "1/0"]]}),
    _set_entry({"coeffs": [[60, "1"]]}),  # beyond 2 phi(28) - 1
    _set_entry([[0, "1"]]),
    _drop_horizontal,
    lambda data: data.update(format=4),
    lambda data: data.update(format=6),
    lambda data: data.update(format="5"),
    lambda data: data.update(values={}),
    lambda data: data.pop("values"),
    lambda data: data.pop("conductor"),
])
def test_tampered_format2_raises(tamper):
    data = _theorem()
    assert revalidate(data) == "pass"
    tamper(data)
    with pytest.raises(MalformedCertificate):
        revalidate(data)


def test_edited_table_entry_fails():
    data = _theorem()
    mod = _shear(data)["payload"]["cylinders"][0]["inverse_modulus"]
    data["values"][mod] = {"coeffs": [[0, "1"]]}
    assert revalidate(data) == "fail"
    data = _theorem()
    mod = _shear(data)["payload"]["cylinders"][0]["inverse_modulus"]
    coeffs = dict(data["values"][mod]["coeffs"])
    coeffs[0] = str(Fraction(coeffs.get(0, "0")) + 1)  # a different rational part
    data["values"][mod]["coeffs"] = sorted(coeffs.items())
    assert revalidate(json.loads(json.dumps(data))) == "fail"


def test_format1_subcertificate_in_a_format2_theorem_raises():
    # format 1 listed a rotation for every l; those that fill (7, 4)'s
    # slots bind the old payloads to the theorem, which must raise
    data = _theorem()
    old = _fixture("verify_n7_d4")
    data["payload"]["subcertificates"] = [
        s for s in old["payload"]["subcertificates"]
        if s["kind"] != "RotationObstruction" or s["payload"]["l"] == 1]
    with pytest.raises(MalformedCertificate):
        revalidate(data)


# ---------------------------------------------------------------------------
# a theorem's shears are by 2*lambda_n


def _shears(data: dict) -> list:
    return [s for s in data["payload"]["subcertificates"] if s["kind"] == "ShearMembership"]


def _double_the_twists(shear: dict):
    for row in shear["payload"]["cylinders"]:
        row["twists"] *= 2


def test_theorem_shears_must_name_twice_lambda_n_format2():
    # every shear of a (7, 4) theorem doubles its twist counts, as a shear
    # by 4*lambda_n would: no payload names a factor, and n fixes it at
    # 2*lambda_n, so the theorem fails
    data = _theorem()
    for shear in _shears(data):
        _double_the_twists(shear)
    assert revalidate(data) == "fail"
    # alone too: every shear is by 2*lambda_n
    for shear in _shears(data):
        assert revalidate({**{k: data[k] for k in _CLAIM}, **shear}) == "fail"


# ---------------------------------------------------------------------------
# d = inf: infinite strips are rows of inverse modulus 0


def _zero_modulus_rows(data: dict, rows: list) -> list:
    return [r for r in rows if data["values"][r["inverse_modulus"]]["coeffs"] == []]


def test_infinite_shear_lists_its_infinite_cylinders():
    data = _as_json(verify_theorem(8, infinite=True))
    shears = [s for s in data["payload"]["subcertificates"] if s["kind"] == "ShearMembership"]
    assert shears and not any(_zero_modulus_rows(data, s["payload"]["cylinders"]) for s in shears)
    # the horizontal rows list the infinite strips, as types of inverse modulus 0
    strips = _zero_modulus_rows(data, data["horizontal"])
    assert strips
    # a forged shear that lists an infinite strip must fail, with or without
    # a twist count
    for twists in (None, 1):
        forged = copy.deepcopy(data)
        shear = next(s for s in forged["payload"]["subcertificates"]
                     if s["kind"] == "ShearMembership")
        shear["payload"]["cylinders"].append(dict(strips[0], twists=twists))
        assert revalidate(forged) == "fail"
        assert revalidate({**{k: forged[k] for k in _CLAIM}, **shear}) == "fail"


def test_infinite_shear_certificate_with_an_infinite_cylinder_fails_on_revalidation():
    # the horizontal direction of Y_{8,inf} has infinite cylinders
    types = certificates._finite_profile(8, std_infinite_monodromy(8), 0)
    infinite = [t for t in types if certificates._types(8).exact[t[0]].is_zero()]
    assert infinite
    cert = certificates._subcertificate("ShearMembership", 0, 8, "inf", std_infinite_monodromy(8),
                                        certificates._Values(8), profile=lambda l: types)
    assert cert.verdict == "fail"
    data = _as_json(cert)
    rows = _zero_modulus_rows(data, data["payload"]["cylinders"])
    assert len(rows) == len(infinite) and all(r["twists"] is None for r in rows)
    assert revalidate(data) == "fail"


# ---------------------------------------------------------------------------
# the emitted certificate


# sha256 over json.dumps(verify_theorem(...).to_json()) of the sweep below,
# recorded when format 5 replaced format 4 (whose hash was 09f3c777...)
GOLDEN_SWEEP = "37d84f80501b739e641c05faa14b64285d216702ea3b6b73c0052f0e48486731"


def test_certificate_sweep_bytes_unchanged():
    h = hashlib.sha256()
    for n in (5, 7, 8, 9, 10, 12, 14, 16):
        for d in (2, 3, 4, 5, 8, 13, 24, 48):
            for monodromy in (None, mutated_monodromy(n, d)):
                h.update(json.dumps(verify_theorem(n, d, monodromy=monodromy).to_json()).encode())
        h.update(json.dumps(verify_theorem(n, infinite=True).to_json()).encode())
    assert h.hexdigest() == GOLDEN_SWEEP


@lru_cache(maxsize=None)
def _verdict_grid() -> tuple:
    """(n, key, theorem, revalidated verdict) for 299 theorems: d = inf,
    and the standard and mutated covers of degree 2..12."""
    rows = []
    for n in (5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 20, 25):
        certs = [("inf", verify_theorem(n, infinite=True))]
        for d in range(2, 13):
            certs.append((d, verify_theorem(n, d)))
            certs.append(("m%d" % d, verify_theorem(n, d, monodromy=mutated_monodromy(n, d))))
        rows += [(n, key, c, revalidate(_as_json(c))) for key, c in certs]
    assert len(rows) == 299
    return tuple(rows)


# sha256 of json.dumps(rows) over _verdict_grid: each theorem's verdict, its
# revalidated verdict and its subcertificates' (kind, l, verdict); recorded
# in format 4, whose rotation slots are only l = n/p
GOLDEN_VERDICTS = "666fcfd9d87c3c8db76f195a82af32edb2db6aa998ef3ccb753eeb6f5fec7e07"

# sha256 of json.dumps(rows) over _verdict_grid with each theorem's (n, key,
# verdict, revalidated verdict) alone; recorded in format 3, which listed a
# rotation slot for every l, so no theorem's verdict moved with format 4
GOLDEN_THEOREM_VERDICTS = "2d2186275c4538122858a2f48fcfe7433f0a0ebe9d91b30d409a35e77c26d48b"


def test_no_verdict_moves():
    rows = [(n, key, c.verdict, again, [(s["kind"], s["payload"].get("l"), s["verdict"])
                                        for s in c.payload["subcertificates"]])
            for n, key, c, again in _verdict_grid()]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == GOLDEN_VERDICTS


def test_no_theorem_verdict_moves():
    rows = [(n, key, c.verdict, again) for n, key, c, again in _verdict_grid()]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == GOLDEN_THEOREM_VERDICTS


def _verify_stdout(args, hashseed: str) -> bytes:
    src = str(Path(veechlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "veechlab.cli", "verify", *args],
                          env=env, capture_output=True, check=True)
    return proc.stdout


@pytest.mark.parametrize("args", [("--n", "9", "--d", "4"), ("--n", "8", "--infinite")])
def test_verify_stdout_does_not_depend_on_the_hash_seed(args):
    assert _verify_stdout(args, "1") == _verify_stdout(args, "2")


def test_verify_emits_one_compact_line(capsys):
    assert main(["verify", "--n", "25", "--d", "4"]) == 0
    out = capsys.readouterr().out
    assert len(out.encode()) < 64 * 1024
    assert out.count("\n") == 1 and out.endswith("\n") and out.startswith('{"format":5,"conductor":100,"n":25,"d":4,')
    data = json.loads(out)
    assert data["verdict"] == "pass" and revalidate(data) == "pass"
