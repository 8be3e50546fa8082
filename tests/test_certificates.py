import copy
import itertools
import json
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from veechlab import certificates, covering, field, perms, revalidation
from veechlab.certificates import (
    certify_minus_identity,
    certify_pullback_obstruction,
    certify_rotation_obstruction,
    certify_shear,
    certify_sigma_T,
    mutated_monodromy,
    revalidate,
    sigma_T_claim,
    verify_theorem,
)
from veechlab.covering import (
    CoveringSurface,
    Monodromy,
    base_decomposition,
    build_cover,
    monodromy_indices,
    num_generators,
    rotation_images,
    sigma_d1,
    sigma_d2,
    standard_monodromy,
)
from veechlab.cylinders import decompose, unit_vector
from veechlab.errors import IntransitiveMonodromy, MalformedCertificate
from veechlab.field import RealAlg, lambda_n
from veechlab.surface import build_base, no_base_surface
from veechlab.zcover import ZMonodromy, ZPermutation, std_infinite_monodromy

# the top-level keys of a certificate that its subcertificates refer to:
# the claim (n, d) too, which a theorem states once for all of them
_SHARED = ("format", "conductor", "n", "d", "values", "horizontal", "images")


def _standalone(top, sub):
    """A theorem's subcertificate with the theorem's claim and value table
    attached."""
    return {**{k: top[k] for k in _SHARED if k in top}, **sub}


def _table(data):
    """The exact values of a certificate's table, by index."""
    return [RealAlg.from_json(entry, data["conductor"]) for entry in data["values"]]


def test_certify_shear_y53():
    cover = build_cover(5, 3)
    cert = certify_shear(cover, 1)
    assert cert.verdict == "pass"
    twists = {row["twists"] for row in cert.payload["cylinders"]}
    assert twists <= {1, 2}


def test_certify_shear_y82_odd_direction():
    cert = certify_shear(build_cover(8, 2), 3)
    assert cert.verdict == "pass"


def test_certify_shear_y52_horizontal():
    # all horizontal cylinders of Y_{5,2} have inverse modulus lambda;
    # the factor-2*lambda certificate passes with two twists everywhere
    cover = build_cover(5, 2)
    lam = lambda_n(5)
    cert = certify_shear(cover, 0)
    assert cert.verdict == "pass"
    table = _table(cert.to_json())
    for row in cert.payload["cylinders"]:
        assert table[row["inverse_modulus"]] == lam
        assert row["twists"] == 2


def test_rotation_obstruction_y53():
    cover = build_cover(5, 3)
    lam3 = 3 * lambda_n(5)
    for l in range(1, 5):
        cert = certify_rotation_obstruction(cover, l)
        assert cert.verdict == "pass"
        table = _table(cert.to_json())
        mods = {table[e["inverse_modulus"]].key() for e in cert.payload["direction"]}
        assert lam3.key() not in mods  # no d*lambda cylinder off-horizontal


def test_rotation_obstruction_y52_witness():
    cover = build_cover(5, 2)
    cert = certify_rotation_obstruction(cover, 1)
    assert cert.verdict == "pass"
    wit = _table(cert.to_json())[cert.witness["inverse_modulus"]]
    assert wit == 2 * lambda_n(5)


def test_rotation_obstruction_d4_parallel_heights():
    # v_l parallel to a marked edge: moduli agree, heights differ
    n, d = 5, 4
    cover = build_cover(n, d)
    # directions parallel to x_k1 / x_k2: l with edge index match
    k1, k2 = monodromy_indices(n)
    parallel = [(2 * k1) % n, (2 * k2) % n]  # v_{2j mod n} is parallel to x_j
    for l in parallel:
        if l == 0:
            continue
        cert = certify_rotation_obstruction(cover, l)
        assert cert.verdict == "pass"
        data = cert.to_json()
        table = _table(data)

        def exact_multiset(rows, key):
            return sorted(table[e[key]].key() for e in rows for _ in range(e["count"]))

        h_rows, d_rows = data["horizontal"], data["payload"]["direction"]
        # moduli multisets agree, exactly; heights decide
        assert exact_multiset(h_rows, "inverse_modulus") == exact_multiset(d_rows, "inverse_modulus")
        assert exact_multiset(h_rows, "height") != exact_multiset(d_rows, "height")


def test_sigma_T_claims():
    assert sigma_T_claim(4) == perms.from_cycles(4, [(1, 3)])
    assert sigma_T_claim(2) == perms.identity(2)
    # d = 5: the square of the core monodromy cycle, composed independently
    core5 = perms.from_cycles(5, [(0, 2, 4, 3, 1)])
    assert sigma_T_claim(5) == perms.compose(core5, core5)
    assert sigma_T_claim(5) == perms.from_cycles(5, [(0, 4, 1, 2, 3)])


@pytest.mark.parametrize("d", range(2, 9))
def test_sigma_T_conditions_hold(d):
    for n in (5, 8):
        cert = certify_sigma_T(n, d, "horizontal")
        assert cert.verdict == "pass"
    for n in (8, 10):
        cert = certify_sigma_T(n, d, "vertical")
        assert cert.verdict == "pass"


def test_sigma_T_rejects_an_unknown_mode():
    # a certificate with any other mode is one that revalidate refuses
    # as malformed
    for n, d in ((8, 4), (8, "inf"), (5, 3)):
        with pytest.raises(ValueError, match="'diagonal'"):
            certify_sigma_T(n, d, mode="diagonal")


def _roundtrip(cert):
    return json.loads(json.dumps(cert.to_json()))


def test_sigma_T_is_inconclusive_when_another_generator_moves():
    # x_0 alone moves a sheet; the SigmaT conditions read only the
    # identity images of x_k1 and x_k2, so they say nothing here
    m = Monodromy(4, 2, {0: (1, 0)})
    cert = certify_sigma_T(5, 2, "horizontal", m)
    assert cert.verdict == "inconclusive"
    assert cert.witness["other_moving"] == [0]
    assert revalidate(_roundtrip(cert)) == "inconclusive"
    theorem = verify_theorem(5, 2, monodromy=m)
    assert theorem.verdict != "pass"
    assert revalidate(_roundtrip(theorem)) == theorem.verdict
    # the payload names no generator: the moving ones are read from the images
    assert set(cert.payload) == {"mode", "sigma_T"}
    for sigma in ([0, 0], [0, 1, 2]):  # no permutation, or one of other sheets
        data = _roundtrip(cert)
        data["payload"]["sigma_T"] = sigma
        with pytest.raises(MalformedCertificate):
            revalidate(data)


# ---------------------------------------------------------------------------
# every kind that reads the monodromy reads the one images section


def _subs(data, kind):
    return [s for s in data["payload"]["subcertificates"] if s["kind"] == kind]


def test_stripped_other_moving_fails_the_theorem():
    # x_0 moves a sheet, so SigmaT is inconclusive; it reads that from the
    # images section, the only place that says so
    data = _roundtrip(verify_theorem(5, 2, monodromy=Monodromy(4, 2, {0: (1, 0)})))
    assert revalidate(data) == "inconclusive"
    assert [e["generator"] for e in data["images"]] == [0]
    # writing x_0's image as the identity is malformed: the section lists
    # only the generators that move a sheet
    forged = copy.deepcopy(data)
    forged["images"][0]["image"] = [0, 1]
    with pytest.raises(MalformedCertificate, match="x_0 moves no sheet"):
        revalidate(forged)
    # and hiding x_0's move by dropping its entry leaves no transitive cover
    del data["images"][0]
    assert revalidate(data) == "fail"


@pytest.mark.parametrize("edit", ["drop", "duplicate", "reorder", "reorder without SigmaT"])
def test_theorem_needs_one_complete_minus_identity(edit):
    data = _roundtrip(verify_theorem(8, 3))
    assert revalidate(data) == "pass"
    subs = data["payload"]["subcertificates"]
    minus = _subs(data, "MinusIdentity")[0]
    if edit == "drop":
        subs.remove(minus)
    elif edit == "duplicate":
        subs.append(minus)
    else:  # the moving generators, but not in increasing order: malformed
        data["images"].reverse()
        if edit == "reorder":
            with pytest.raises(MalformedCertificate, match="in increasing order"):
                revalidate(data)
            return
        # the slots fail first, before any rule reads the images
        data["payload"]["subcertificates"] = [s for s in subs if s["kind"] != "SigmaT"]
    assert revalidate(data) == "fail"


def test_minus_identity_certificates():
    for d in range(2, 9):
        assert certify_minus_identity(5, build_cover(5, d).monodromy).verdict == "pass"
    # a 3-cycle image is not an involution
    bad = Monodromy(4, 3, {2: perms.from_cycles(3, [(0, 1, 2)]), 3: sigma_d2(3)})
    cover = build_cover(5, 3, bad)
    cert = certify_minus_identity(5, cover.monodromy)
    assert cert.verdict == "fail"
    assert cert.witness["generator"] == 2


def test_certifiers_refuse_a_monodromy_of_another_x_n_or_degree():
    # X_7 and X_12 have more generators than X_5 and X_8, and a cover of 3
    # sheets is no cover of 5
    cases = [
        (lambda: certify_shear(CoveringSurface(5, standard_monodromy(7, 3)), 1),
         "6 generators, X_5 has 4"),
        (lambda: certify_rotation_obstruction(CoveringSurface(5, standard_monodromy(7, 3)), 2),
         "6 generators, X_5 has 4"),
        (lambda: certify_minus_identity(5, standard_monodromy(7, 3)), "6 generators, X_5 has 4"),
        (lambda: certify_pullback_obstruction(8, standard_monodromy(12, 3), 2),
         "6 generators, X_8 has 4"),
        (lambda: certify_sigma_T(5, 5, "horizontal", standard_monodromy(5, 3)),
         "monodromy degree disagrees with d"),
        (lambda: certify_sigma_T(5, "inf", "horizontal", standard_monodromy(5, 3)),
         "monodromy degree disagrees with d"),
        (lambda: certify_sigma_T(5, 3, "horizontal", std_infinite_monodromy(5)),
         "monodromy degree disagrees with d"),
        (lambda: verify_theorem(5, 5, monodromy=standard_monodromy(5, 3)),
         "monodromy degree disagrees with d"),
    ]
    for certify, message in cases:
        with pytest.raises(ValueError, match=message):
            certify()


@pytest.mark.parametrize("call, message", [
    (lambda: verify_theorem(9, "inf"), "infinite=True"),
    (lambda: verify_theorem(9, 3.0), "infinite=True"),
    (lambda: certify_sigma_T(9, 3.0), "an int"),
    (lambda: certify_sigma_T(9, "foo"), "an int"),
    (lambda: certify_sigma_T(9, 3.0, "horizontal", standard_monodromy(9, 3)),
     "monodromy degree disagrees with d"),
    (lambda: Monodromy(4, 3.0, {}), "positive int"),
], ids=["theorem str", "theorem float", "SigmaT float", "SigmaT str", "SigmaT float for 3",
        "Monodromy float"])
def test_a_degree_that_is_no_int_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _resolved(data, table):
    """Certificate JSON with each value index replaced by its table
    entry's coeffs."""
    if type(data) is list:
        return [_resolved(x, table) for x in data]
    if type(data) is not dict:
        return data
    return {k: table[v]["coeffs"] if k in ("inverse_modulus", "height") and type(v) is int
            else _resolved(v, table) for k, v in data.items()}


@pytest.mark.parametrize("n", [5, 7, 8, 9, 12, 14, 16])
@pytest.mark.parametrize("d", [2, 3, 4, 7, "inf"])
def test_each_certifier_writes_the_subcertificate_of_its_theorem(n, d):
    if d == "inf":
        theorem, m = verify_theorem(n, infinite=True), std_infinite_monodromy(n)
    else:
        theorem, m = verify_theorem(n, d), standard_monodromy(n, d)
    cover = CoveringSurface(n, m)
    top = theorem.to_json()
    certify = {
        "ShearMembership": lambda l: certify_shear(cover, l),
        "RotationObstruction": lambda l: certify_rotation_obstruction(cover, l),
        "PullbackObstruction": lambda l: certify_pullback_obstruction(n, m, l),
        "SigmaT": lambda mode: certify_sigma_T(n, d, mode),
        "MinusIdentity": lambda _: certify_minus_identity(n, m),
        "Index": lambda _: certificates.certify_index(n),
    }
    compared = 0
    for sub in top["payload"]["subcertificates"]:
        if sub["kind"] == "WellFormedCover":  # no certifier of its own
            continue
        key = sub["payload"].get("l", sub["payload"].get("mode"))
        alone = certify[sub["kind"]](key).to_json()
        assert alone["kind"] == sub["kind"] and alone["verdict"] == sub["verdict"], key
        # a standalone certificate states the claim that its theorem states
        # once for every subcertificate; an Index is about n alone
        assert "n" not in sub and "d" not in sub
        assert (alone["n"], alone["d"]) == (n, None if sub["kind"] == "Index" else d)
        for name in ("payload", "witnesses"):
            assert (_resolved(alone[name], alone["values"])
                    == _resolved(sub[name], top["values"])), (sub["kind"], key, name)
        if sub["kind"] == "RotationObstruction":
            assert (_resolved(alone["horizontal"], alone["values"])
                    == _resolved(top["horizontal"], top["values"])), key
        compared += 1
    assert compared == len(top["payload"]["subcertificates"]) - (d != "inf")


def _cyclic_cover_8_4() -> Monodromy:
    # every x_j -> (i -> i + 1 mod 4)
    shift = tuple((i + 1) % 4 for i in range(4))
    return Monodromy(num_generators(8), 4, dict.fromkeys(range(num_generators(8)), shift))


def test_minus_identity_lifts_on_the_cyclic_8_4_cover():
    # -I = rho^(n/2) for even n; the pullback under it is the cover
    # relabelled by i -> -i, so -I lifts
    m = _cyclic_cover_8_4()
    pulled = m.pullback(rotation_images(8, 4))
    assert certificates._covers_isomorphic(m.images, pulled.images, 4)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_minus_identity_does_not_fail_where_minus_identity_lifts():
    theorem = verify_theorem(8, 4, monodromy=_cyclic_cover_8_4())
    sub = next(s for s in theorem.payload["subcertificates"] if s["kind"] == "MinusIdentity")
    assert sub["verdict"] != "fail"


def test_verify_theorem_examples():
    assert verify_theorem(5, 3).verdict == "pass"
    assert verify_theorem(8, 2).verdict == "pass"
    inf5 = verify_theorem(5, infinite=True)
    assert inf5.verdict == "pass"
    assert inf5.payload["infinite_preimages_of_cylinder_k"] == 2


@pytest.mark.parametrize("n,dmax", [(5, 8), (7, 8), (9, 8), (8, 6), (10, 6)])
def test_verify_theorem_grid(n, dmax):
    for d in range(2, dmax + 1):
        assert verify_theorem(n, d).verdict == "pass"


@pytest.mark.parametrize("n,dmax", [(5, 8), (7, 8), (9, 8), (8, 6), (10, 6)])
def test_mutations_fail(n, dmax):
    for d in range(2, dmax + 1):
        cert = verify_theorem(n, d, monodromy=mutated_monodromy(n, d))
        assert cert.verdict == "fail", (n, d)


def test_mutation_failure_modes():
    # d = 2: the dropped transposition breaks the twist conditions;
    # d = 3: the mutated cover disconnects; d >= 4: -I fails
    cert2 = verify_theorem(5, 2, monodromy=mutated_monodromy(5, 2))
    assert cert2.witness["failed"] == "SigmaT"
    cert3 = verify_theorem(5, 3, monodromy=mutated_monodromy(5, 3))
    assert cert3.witness["failed"] == "WellFormedCover"
    cert4 = verify_theorem(5, 4, monodromy=mutated_monodromy(5, 4))
    kinds = {s["kind"]: s["verdict"] for s in cert4.payload["subcertificates"]}
    assert kinds.get("MinusIdentity") == "fail"


def test_mutated_sigma1_is_one_product_of_disjoint_pairs():
    # the transposition (1 2) followed by (2 3), (4 5), ..., each composed
    # in turn
    for d in range(2, 65):
        expected = perms.identity(2)
        if d > 2:
            expected = perms.from_cycles(d, [(1, 2)])
            for i in range(2, d - 1 - d % 2, 2):
                expected = perms.compose(expected, perms.from_cycles(d, [(i, i + 1)]))
        assert certificates.mutated_sigma1(d) == expected, d


def test_pullback_obstruction_resolves_d2_vertical():
    # (inverse modulus, height) multisets agree for n=0 mod 4, d=2 in the
    # vertical direction; the covering-structure obstruction decides
    cover = build_cover(8, 2)
    multiset = certify_rotation_obstruction(cover, 4)
    assert multiset.verdict == "inconclusive"
    pullback = certify_pullback_obstruction(8, cover.monodromy, 4)
    assert pullback.verdict == "pass"
    assert verify_theorem(8, 2).verdict == "pass"


def test_pullback_obstruction_consistent_across_grid():
    # the rotation lift never exists for the standard family, so the
    # covering-structure obstruction must agree wherever multisets decide
    for n in (8, 12):
        for d in (2, 3, 4):
            mono = standard_monodromy(n, d)
            for l in range(2, n, 2):
                cert = certify_pullback_obstruction(n, mono, l)
                assert cert.verdict == "pass", (n, d, l)
            # the full turn R^n = -I is in the group: pullback by it is
            # the cover itself (generator images are involutions)
            full = certify_pullback_obstruction(n, mono, n)
            assert full.verdict == "inconclusive"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_covers_isomorphic_agrees_with_every_relabeling(data):
    # the search follows forward images only; it must find a relabeling
    # sigma (sigma(p2(x)) = p1(sigma(x)) for every generator) exactly when
    # one of the d! bijections is one
    d = data.draw(st.integers(2, 5), label="d")
    perm = st.permutations(range(d)).map(tuple)
    images1 = {g: data.draw(perm) for g in range(data.draw(st.integers(1, 3)))}
    assume(perms.is_transitive(list(images1.values()), d))
    if data.draw(st.booleans(), label="relabelled"):
        sigma = data.draw(perm)
        back = perms.inverse(sigma)
        images2 = {g: tuple(back[p[sigma[x]]] for x in range(d)) for g, p in images1.items()}
    else:
        images2 = {g: data.draw(perm) for g in images1}
    expected = any(all(s[p2[x]] == images1[g][s[x]] for g, p2 in images2.items() for x in range(d))
                   for s in itertools.permutations(range(d)))
    assert certificates._covers_isomorphic(images1, images2, d) == expected


def test_pullback_inconclusive_for_symmetric_cover():
    # a cover invariant under the rotation: pullback gives no obstruction
    n, d = 8, 2
    images = {i: sigma_d1(2) for i in range(4)}  # all generators swap sheets
    mono = Monodromy(4, d, images)
    cert = certify_pullback_obstruction(n, mono, 2)
    assert cert.verdict == "inconclusive"


def test_certificates_revalidate_from_payload():
    # every subcertificate of standard, mutated and infinite theorems
    # revalidates to the verdict its certifier gave it
    singles = [
        certify_shear(build_cover(5, 3), 1),
        certify_rotation_obstruction(build_cover(5, 4), 2),
        certify_rotation_obstruction(build_cover(8, 2), 4),  # inconclusive
        certify_sigma_T(5, 5, "horizontal"),
        certify_minus_identity(8, build_cover(8, 3).monodromy),
    ]
    theorems = []
    for n in (5, 8, 9, 14):
        theorems.append(verify_theorem(n, infinite=True))
        for d in (2, 3, 4):
            theorems.append(verify_theorem(n, d))
            theorems.append(verify_theorem(n, d, monodromy=mutated_monodromy(n, d)))
    seen = set()
    for cert in singles + theorems:
        data = json.loads(json.dumps(cert.to_json()))
        subs = [_standalone(data, sub) for sub in data["payload"].get("subcertificates", [])]
        for sub in [data] + subs:
            assert revalidate(sub) == sub["verdict"], (cert.n, cert.d, sub["kind"])
            seen.add((sub["kind"], sub["verdict"]))
    kinds = {kind for kind, _ in seen}
    assert kinds == {
        "FullTheorem", "ShearMembership", "SigmaT", "MinusIdentity",
        "RotationObstruction", "PullbackObstruction", "Index", "WellFormedCover",
    }
    assert {verdict for _, verdict in seen} == {"pass", "fail", "inconclusive"}
    # a standalone WellFormedCover is checked against the images section
    assert {verdict for kind, verdict in seen if kind == "WellFormedCover"} == {"pass", "fail"}


def test_tampered_payload_fails_revalidation():
    cert = certify_shear(build_cover(5, 3), 1)
    data = json.loads(json.dumps(cert.to_json()))
    data["payload"]["cylinders"][0]["twists"] = 7
    assert revalidate(data) == "fail"


def test_tampered_infinite_preimages_fail_revalidation():
    data = json.loads(json.dumps(verify_theorem(8, infinite=True).to_json()))
    assert revalidate(data) == "pass"
    data["payload"]["infinite_preimages_of_cylinder_k"] = 3
    assert revalidate(data) == "fail"


def test_infinite_preimages_are_recomputed_from_the_images():
    # the disconnected trivial Z-cover: no generator moves a sheet, so
    # the core of cylinder k lifts to no infinite cylinder, whatever count
    # the payload states
    data = _roundtrip(verify_theorem(9, infinite=True))
    assert revalidate(data) == "pass"
    images = data["images"]
    data["images"] = []
    assert data["payload"]["infinite_preimages_of_cylinder_k"] == 2
    assert revalidate(data) == "fail"
    data["payload"]["infinite_preimages_of_cylinder_k"] = 0
    assert revalidate(data) == "fail"
    # a d = inf theorem whose images permute finitely many sheets is malformed
    data["images"] = [dict(e, image=[1, 0]) for e in images]
    with pytest.raises(MalformedCertificate, match="does not permute the inf sheets"):
        revalidate(data)


def test_perm_helper_conventions():
    # each monodromy class names its permutations' contract: then(a, b)
    # is "a followed by b", then(p, inverse(p)) is the identity, and
    # image_json parses back through the reader, by the claim's d
    a, b = perms.from_cycles(4, [(0, 1, 2)]), perms.from_cycles(4, [(1, 3)])
    ab = Monodromy.then(a, b)
    assert all(ab[x] == b[a[x]] for x in range(4))
    za, zb = ZPermutation(1, -1), ZPermutation(2, 4)
    zab = ZMonodromy.then(za, zb)
    assert all(zab(x) == zb(za(x)) for x in range(-6, 7))
    for cls, d, p in ((Monodromy, 4, ab), (ZMonodromy, "inf", zab)):
        assert cls.then(p, cls.inverse(p)) == cls.then(cls.inverse(p), p) == (
            perms.identity(4) if d == 4 else ZPermutation.identity())
        for q in (p, cls.inverse(p)):
            data = json.loads(json.dumps(cls.image_json(q)))
            assert revalidation._permutation(data, d, "wrong kind") == q


def test_infinite_monodromy_uses_the_finite_rules():
    n = 8
    zm = std_infinite_monodromy(n)
    for mode in ("horizontal", "vertical"):
        cert = certify_sigma_T(n, "inf", mode)
        assert cert.verdict == "pass" and cert.d == "inf"
        assert revalidate(json.loads(json.dumps(cert.to_json()))) == "pass"
    assert certify_minus_identity(n, zm).verdict == "pass"
    # a shift on Z is no involution: -I does not lift, and the witness
    # names the generator and its image as for a finite cover
    k1, k2 = monodromy_indices(n)
    shifted = ZMonodromy(zm.num_generators, {k1: ZPermutation(2, 2), k2: zm.image(k2)})
    cert = certify_minus_identity(n, shifted)
    assert cert.verdict == "fail"
    assert cert.witness == {"generator": k1, "image": {"t_even": 2, "t_odd": 2},
                            "reason": "not an involution"}
    assert revalidate(json.loads(json.dumps(cert.to_json()))) == "fail"
    assert certify_sigma_T(n, "inf", "horizontal", shifted).verdict == "fail"


def test_coset_table_built_once_per_n():
    verify_theorem(7, 2)  # warm-up: base decompositions
    certificates._coset_table.cache_clear()
    for n in (7, 8):
        for d in (2, 3, 4):
            assert verify_theorem(n, d).verdict == "pass"
        data = json.loads(json.dumps(verify_theorem(n, infinite=True).to_json()))
        assert revalidate(data) == "pass"
        certificates.verify_quotient(n)
    assert certificates._coset_table.cache_info().misses == 2


@pytest.mark.parametrize("n", [9, 12])
def test_the_index_and_the_quotient_build_no_field(monkeypatch, n):
    # the coset action is integers from its closed form: no presentation
    # is checked as exact matrices on the way
    built = []
    get_context = field.get_context
    monkeypatch.setattr(field, "get_context", lambda N: built.append(N) or get_context(N))
    certificates._coset_table.cache_clear()
    cert = certificates.certify_index(n)
    assert cert.verdict == "pass"
    certificates.verify_quotient(n)
    certificates._coset_table.cache_clear()
    assert revalidate(json.loads(json.dumps(cert.to_json()))) == "pass"
    assert built == []


@pytest.mark.parametrize("n", [5, 7, 9])
def test_obstruction_height_facts(n):
    # the two heights behind the d = 4 obstruction, as exact field elements
    from veechlab.cylinders import closed_form_base, cylinder_count_base
    from veechlab.field import quarter_trig, sin_pi_over

    k1 = (n - 1) // 2
    h_k1 = closed_form_base(n, k1)[0]
    h_1 = closed_form_base(n, 1)[0]
    s1 = sin_pi_over(n)
    _, s_n2 = quarter_trig(n, 2 * (n - 2))
    assert h_k1 == 2 * s1 * s1
    assert h_1 == 2 * s_n2 * s1
    diff = h_k1 - h_1
    assert diff.sign() != 0
    # product form of the difference (prosthaphaeresis); the displayed
    # version drops a factor 2
    c_half, _ = quarter_trig(n, n - 1)
    _, s_half = quarter_trig(n, 3 - n)
    assert diff == 4 * s1 * c_half * s_half


def test_verify_rejects_bad_degree():
    with pytest.raises(ValueError):
        verify_theorem(5, 0)
    with pytest.raises(ValueError):
        verify_theorem(5)


@pytest.mark.parametrize("kwargs", [{"d": 5}, {"monodromy": mutated_monodromy(7, 4)},
                                    {"d": 4, "monodromy": mutated_monodromy(7, 4)}])
def test_infinite_verify_takes_no_degree_or_monodromy(kwargs):
    # Y_{7,inf} is certified for the standard monodromy only; a degree or a
    # monodromy given with it would be silently dropped
    with pytest.raises(ValueError, match="neither d nor a monodromy"):
        verify_theorem(7, infinite=True, **kwargs)


@pytest.mark.parametrize("n", [9, 16])
def test_horizontal_profile_computed_once_per_verify(monkeypatch, n):
    directions = []
    profile = certificates._finite_profile

    def counting(n_, monodromy, l):
        directions.append(l)
        return profile(n_, monodromy, l)

    monkeypatch.setattr(certificates, "_finite_profile", counting)
    assert verify_theorem(n, 4).verdict == "pass"
    assert directions.count(0) == 1
    # every direction at most once, shear and obstruction directions alike
    assert len(directions) == len(set(directions))
    # d = inf reads the same profiles
    directions.clear()
    assert verify_theorem(n, infinite=True).verdict == "pass"
    assert directions.count(0) == 1
    assert len(directions) == len(set(directions))
    # the public single-direction entry point still computes its own
    directions.clear()
    cert = certify_rotation_obstruction(build_cover(n, 4), 2)
    assert cert.verdict == "pass"
    assert sorted(directions) == [0, 2]


@pytest.mark.parametrize("n", [9, 16])
def test_rotation_rule_runs_once_per_obstruction_direction(monkeypatch, n):
    directions = []
    rule = certificates._rotation_rule

    def counting(horizontal, direction, *rest):
        directions.append(id(direction))
        return rule(horizontal, direction, *rest)

    monkeypatch.setattr(certificates, "_rotation_rule", counting)
    for kwargs in ({"d": 4}, {"d": 2}, {"infinite": True}):
        directions.clear()
        cert = verify_theorem(n, **kwargs)
        assert cert.verdict == "pass"
        # a PullbackObstruction that takes a rotation slot (at (16, 2),
        # l = 8) runs no rotation rule
        obstructions = sum(s["kind"] == "RotationObstruction"
                           for s in cert.payload["subcertificates"])
        assert len(directions) == len(set(directions)) == obstructions


def _group(gens, k: int) -> frozenset:
    """The group of permutations of range(k) that gens generate."""
    one = perms.identity(k)
    group, frontier = {one}, [one]
    while frontier:
        g = frontier.pop()
        for s in gens:
            h = perms.compose(g, s)
            if h not in group:
                group.add(h)
                frontier.append(h)
    return frozenset(group)


@pytest.mark.parametrize("k", range(1, 31))
def test_subgroups_above_the_reflection_are_the_rho_m_tau(k):
    # the dihedral lemma of _theorem_slots, by brute force: on k cosets rho
    # acts as i -> i + 1 and tau as i -> -i (as _coset_table's action does
    # wherever X_n exists), and the subgroups of the group they generate
    # that contain tau are exactly the <rho^m, tau> with m | k
    rho = tuple((i + 1) % k for i in range(k))
    tau = tuple(-i % k for i in range(k))
    for n in (k, 2 * k) if k % 2 else (2 * k,):  # the n whose k this is
        if not no_base_surface(n):
            table = certificates._coset_table(n)
            r, t = table.presentation.generators[:2]
            assert (table.action[r], table.action[t]) == (rho, tau), n
    dihedral = _group([rho, tau], k)
    found, frontier = set(), [[tau]]  # each subgroup as the gens it was reached by
    while frontier:
        gens = frontier.pop()
        group = _group(gens, k)
        if group not in found:
            found.add(group)
            frontier += [gens + [g] for g in dihedral - group]
    divisors = [m for m in range(1, k + 1) if k % m == 0]
    assert found == {_group([perms.power(rho, m), tau], k) for m in divisors}
    assert len(found) == len(divisors)
    # so every subgroup but <tau>, the stabiliser of coset 0, holds a
    # rho^(k/p) for a prime p | k: the theorem's rotation slots
    stabiliser = _group([tau], k)
    primes = field.prime_divisors(k)
    for group in found - {stabiliser}:
        assert any(perms.power(rho, k // p) in group for p in primes)


def _two_slit_monodromy(n: int, d: int, rng) -> Monodromy:
    """A transitive monodromy of degree d that moves x_k1 and x_k2 only,
    each by a random involution."""
    k1, k2 = monodromy_indices(n)
    while True:
        images = {}
        for g in (k1, k2):
            sheets = rng.sample(range(d), d)
            pairs = rng.randint(0, d // 2)
            images[g] = perms.from_cycles(d, [sheets[2 * i:2 * i + 2] for i in range(pairs)])
        m = Monodromy(num_generators(n), d, images)
        if m.is_transitive():
            return m


def test_rotation_slots_at_n_over_p_keep_every_verdict(monkeypatch):
    # the oracle: a rotation slot for every l, as format 3 listed them; on
    # the standard, mutated, random two-slit and d = inf covers of n <= 25
    # and d <= 8, the theorem's verdict is the full-slot verdict
    slots = certificates._theorem_slots

    def full_slots(n, d):
        kept = [s for s in slots(n, d) if s[0] != "RotationObstruction"]
        rotations = [("RotationObstruction", l) for l in (range(1, n) if n % 2 else range(2, n, 2))]
        return kept[:-1] + rotations + kept[-1:]

    rng = random.Random(41)
    verdicts = []
    for n in [n for n in range(5, 26) if not no_base_surface(n)]:
        ls = [l for kind, l in slots(n, 2) if kind == "RotationObstruction"]
        assert ls == sorted(n // p for p in field.prime_divisors(n if n % 2 else n // 2))
        claims = [{"infinite": True}]
        for d in range(2, 9):
            claims += [{"d": d}, {"d": d, "monodromy": mutated_monodromy(n, d)}]
            claims += [{"d": d, "monodromy": _two_slit_monodromy(n, d, rng)} for _ in range(3)]
        for claim in claims:
            cert = verify_theorem(n, **claim)
            with monkeypatch.context() as mp:
                mp.setattr(certificates, "_theorem_slots", full_slots)
                oracle = verify_theorem(n, **claim)
            assert cert.verdict == oracle.verdict, (n, claim)
            verdicts.append(cert.verdict)
    assert {"pass", "fail"} <= set(verdicts)


# ---------------------------------------------------------------------------
# revalidating malformed payloads


def _sub(data, kind):
    return next(s for s in data["payload"]["subcertificates"] if s["kind"] == kind)


def _tamper_coefficient(data):
    # one coefficient of a shear row's table entry: the value is no
    # longer real
    entry = data["values"][_sub(data, "ShearMembership")["payload"]["cylinders"][0]["inverse_modulus"]]
    coeffs = dict(entry["coeffs"])
    coeffs[1] = str(Fraction(coeffs.get(1, "0")) + 1)
    entry["coeffs"] = [[j, c] for j, c in sorted(coeffs.items())]


def _mix_conductors(data):
    data["conductor"] = 20


def _drop_key(data):
    del data["horizontal"][0]["height"]


def _empty_pullback(data):
    _sub(data, "PullbackObstruction")["payload"] = {}


def _bad_image(data):
    data["images"][0]["image"] = [5, 7]


def _shear_modulus_entry(data):
    # the table entry of the first shear row's inverse modulus
    return data["values"][_sub(data, "ShearMembership")["payload"]["cylinders"][0]["inverse_modulus"]]


def _bad_grammar(data):
    _shear_modulus_entry(data)["coeffs"][0][1] = "0.5"


def _zero_denominator(data):
    _shear_modulus_entry(data)["coeffs"][0][1] = "1/0"


def _unknown_kind(data):
    _sub(data, "SigmaT")["kind"] = "Sigma"


def _payload_not_a_dict(data):
    _sub(data, "MinusIdentity")["payload"] = []


def _count_below_one(where, count):
    # a profile counts at least one cylinder of each type, or None for
    # infinitely many
    def tamper(data):
        rotation = _sub(data, "RotationObstruction")["payload"]
        if where == "new type":
            rotation["direction"] = data["horizontal"] + [
                {"inverse_modulus": 0, "height": 0, "count": count}]
        else:
            (data["horizontal"] if where == "horizontal" else rotation["direction"])[0]["count"] = count
    tamper.__name__ = "_count_%d_in_%s" % (count, where.replace(" ", "_"))
    return tamper


_ROW_LISTS = {
    "shear": lambda data: _sub(data, "ShearMembership")["payload"]["cylinders"],
    "direction": lambda data: _sub(data, "RotationObstruction")["payload"]["direction"],
    "horizontal": lambda data: data["horizontal"],
    "images": lambda data: data["images"],
}
_PAST_END = "past end"  # an index one past the value table, or x_g of X_n's g generators
_DELETED = "deleted"


def _edit_row(where, key, value, label):
    # the first row of a row list (or images entry) with key set to value,
    # or, with key None, replaced by value
    def tamper(data):
        # the images of Y_{12,2} name x_2 and x_3: x_1 in x_2's place (True
        # == 1.0 == 1) would be in increasing order
        rows = _ROW_LISTS[where](data)
        if key is None:
            rows[0] = value
        elif value == _DELETED:
            del rows[0][key]
        elif value == _PAST_END:
            rows[0][key] = len(data["values"]) if where != "images" else num_generators(data["n"])
        else:
            rows[0][key] = value
    tamper.__name__ = "_%s_%s_%s" % (where, key or "row", label)
    return tamper


_BAD_INDICES = [(True, "true"), (-1, "minus_one"), (_PAST_END, "past_end"), (1.0, "float"),
                ("1", "string")]
_BAD_COUNTS = [(True, "true"), ("2", "string"), (1.0, "float")]


def _row_pitfalls():
    """Each row list's first row with a bad index, count or twist count,
    without a key, with a key that its kind of row has not, or not a dict."""
    for where in ("direction", "horizontal"):
        for key in ("inverse_modulus", "height"):
            yield from (_edit_row(where, key, v, "index_" + label) for v, label in _BAD_INDICES)
        yield from (_edit_row(where, "count", v, label) for v, label in _BAD_COUNTS)
        yield from (_edit_row(where, key, _DELETED, "missing") for key in ("height", "count"))
        yield _edit_row(where, None, [0, 0, 1], "list")
    # a shear row is (inverse modulus, twists) alone: a height or a count
    # in it, of any value, is malformed
    yield from (_edit_row("shear", "inverse_modulus", v, "index_" + label)
                for v, label in _BAD_INDICES)
    yield from (_edit_row("shear", "height", v, "index_" + label) for v, label in _BAD_INDICES)
    yield from (_edit_row("shear", "count", v, label) for v, label in [*_BAD_COUNTS, (0, "zero")])
    yield from (_edit_row("shear", key, 1, "well_formed") for key in ("height", "count"))
    yield from (_edit_row("shear", "twists", v, label) for v, label in _BAD_COUNTS)
    yield from (_edit_row("shear", key, _DELETED, "missing") for key in ("inverse_modulus", "twists"))
    yield _edit_row("shear", None, [0, 1], "list")
    yield from (_edit_row("images", "generator", v, label) for v, label in _BAD_INDICES)
    yield _edit_row("images", "image", _DELETED, "missing")
    yield _edit_row("images", None, [0, [1, 0]], "list")


@pytest.mark.parametrize("tamper", [
    _tamper_coefficient, _mix_conductors, _drop_key, _empty_pullback, _bad_image,
    _bad_grammar, _zero_denominator, _unknown_kind, _payload_not_a_dict,
    *(_count_below_one(where, count)
      for where in ("horizontal", "direction", "new type") for count in (0, -3)),
    *_row_pitfalls(),
])
def test_malformed_payloads_raise_typed_error(tamper):
    # every subcertificate of Y_{12,2} passes, so revalidation reads them
    # all; it has a RotationObstruction (l = 4) and a PullbackObstruction (l = 6)
    data = json.loads(json.dumps(verify_theorem(12, 2).to_json()))
    assert revalidate(data) == "pass"
    tamper(data)
    with pytest.raises(MalformedCertificate):
        revalidate(data)
    # the same inside the FullTheorem and alone, with its table attached
    for sub in data["payload"]["subcertificates"]:
        try:
            revalidate(_standalone(data, sub))
        except MalformedCertificate:
            break
    else:
        pytest.fail("no subcertificate raised")


def _nested_list(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


def _set_format(data, value):
    data["format"] = value


def _set_image(data, value):
    data["images"][0]["image"] = value


def _set_sigma_T(data, value):
    _sub(data, "SigmaT")["payload"]["sigma_T"] = value


def _set_coeffs(data, value):
    data["values"][0]["coeffs"] = value


def _set_coefficient(data, value):
    data["values"][0]["coeffs"][0][1] = value


@pytest.mark.parametrize("site", [_set_format, _set_image, _set_sigma_T, _set_coeffs,
                                  _set_coefficient])
def test_values_nested_deeper_than_repr_prints_are_malformed(site):
    # json.loads builds lists nested this deep (the CLI's json.load fails
    # first); the error message formats them with bounded depth
    data = json.loads(json.dumps(verify_theorem(9, 3).to_json()))
    site(data, _nested_list(sys.getrecursionlimit() + 10))
    with pytest.raises(MalformedCertificate):
        revalidate(data)


def _clear_revalidate_memos():
    # n's type table keeps each entry that revalidate read, with its index
    certificates._types.cache_clear()


def test_revalidate_parses_each_value_once_per_process(monkeypatch):
    data = json.loads(json.dumps(verify_theorem(9, 4).to_json()))
    parsed = []
    parse = RealAlg.from_json

    def counting(value, conductor=None):
        parsed.append(json.dumps(value["coeffs"]))
        return parse(value, conductor)

    monkeypatch.setattr(RealAlg, "from_json", staticmethod(counting))
    _clear_revalidate_memos()
    assert revalidate(data) == "pass"
    first = list(parsed)
    # each table entry once, in table order
    assert first == [json.dumps(entry["coeffs"]) for entry in data["values"]]
    assert len(first) == len(set(first))
    # the values survive the call
    assert revalidate(data) == "pass"
    assert parsed == first
    # and only the memos keep them
    _clear_revalidate_memos()
    assert revalidate(data) == "pass"
    assert parsed == first + first


def test_a_malformed_entry_never_reads_its_well_formed_twin():
    # a genuine table, and the rational 1, memoised first
    data = _roundtrip(verify_theorem(9, 3))
    data["values"].append({"coeffs": [[0, "1"]]})
    assert revalidate(data) == "pass"
    entries = [(0, 0), (4, 0), (3, 0), (len(data["values"]) - 1, 0)]
    assert [data["values"][i]["coeffs"][j][0] for i, j in entries] == [1, 0, 0, 0]
    # the same pairs with a power of true, false or 1.0, or a coefficient
    # of 1 or 1.0, are equal to them but refused
    for i, j in entries:
        power, coefficient = data["values"][i]["coeffs"][j]
        twins = [[bool(power), coefficient], [float(power), coefficient]]
        if coefficient == "1":
            twins += [[power, 1], [power, 1.0]]
        for twin in twins:
            forged = copy.deepcopy(data)
            forged["values"][i]["coeffs"][j] = twin
            with pytest.raises(MalformedCertificate):
                revalidate(forged)
    forged = copy.deepcopy(data)
    forged["values"][-1] = {"coeffs": [[True, "1"]]}
    with pytest.raises(MalformedCertificate):
        revalidate(forged)
    assert revalidate(data) == "pass"


@pytest.mark.parametrize("where", ["horizontal", "direction"])
@pytest.mark.parametrize("key, value", [("height", 10**9), ("height", "x"), ("count", "x"),
                                        ("count", -5), ("count", True), ("height", _DELETED)])
def test_a_profile_row_reads_its_height_and_count(where, key, value):
    # the horizontal section and a RotationObstruction's direction are
    # profiles, whose rows carry a height and a count
    data = _roundtrip(verify_theorem(9, 4))
    assert revalidate(data) == "pass"
    row = _ROW_LISTS[where](data)[0]
    if value == _DELETED:
        del row[key]
    else:
        row[key] = value
    with pytest.raises(MalformedCertificate):
        revalidate(data)


def test_a_row_may_name_the_first_table_entry():
    # value 0 of a theorem's table is its first shear row's inverse
    # modulus; a profile row whose height names it is well formed
    data = _roundtrip(verify_theorem(7, 4))
    assert _sub(data, "ShearMembership")["payload"]["cylinders"][0]["inverse_modulus"] == 0
    for where in ("direction", "horizontal"):
        rows = _ROW_LISTS[where](data)
        assert rows[-1]["height"] != 0
        rows[-1]["height"] = 0
        assert revalidate(data) in ("pass", "fail", "inconclusive")
        assert revalidate(_standalone(data, _sub(data, "RotationObstruction"))) in (
            "pass", "inconclusive")


def test_a_shear_reads_every_row_before_its_rule():
    # a malformed row after a failing one raises: the rows are read first
    data = _roundtrip(verify_theorem(9, 4))
    rows = _sub(data, "ShearMembership")["payload"]["cylinders"]
    assert len(rows) > 1
    rows[0]["twists"] += 1
    assert revalidate(data) == "fail"
    rows[-1]["twists"] = "x"
    with pytest.raises(MalformedCertificate):
        revalidate(data)


@pytest.mark.parametrize("cert", [verify_theorem(9, 4),
                                  verify_theorem(9, 8, monodromy=mutated_monodromy(9, 8))],
                         ids=["pass", "fail"])
def test_a_shear_that_lists_an_inverse_modulus_twice_is_malformed(cert):
    # a shear has one row per distinct inverse modulus, whose twist count
    # the modulus alone decides: a second row of it, with the same count
    # or not, or through an equal twin table entry, is malformed
    data = _roundtrip(cert)
    assert revalidate(data) == cert.verdict
    for twin in (False, True):
        for extra in (0, 1):
            forged = copy.deepcopy(data)
            rows = _sub(forged, "ShearMembership")["payload"]["cylinders"]
            row = dict(rows[-1], twists=(rows[-1]["twists"] or 0) + extra)
            if twin:
                forged["values"].append(copy.deepcopy(forged["values"][row["inverse_modulus"]]))
                row["inverse_modulus"] = len(forged["values"]) - 1
            rows.append(row)
            with pytest.raises(MalformedCertificate, match="lists an inverse modulus twice"):
                revalidate(forged)
            with pytest.raises(MalformedCertificate, match="lists an inverse modulus twice"):
                revalidate(_standalone(forged, _sub(forged, "ShearMembership")))


def test_a_cylinder_type_listed_twice_is_malformed():
    # the horizontal section of a (7, 4) theorem repeats a row, count + 5
    data = _roundtrip(verify_theorem(7, 4))
    assert revalidate(data) == "pass"
    row = data["horizontal"][0]
    data["horizontal"].append(dict(row, count=row["count"] + 5))
    with pytest.raises(MalformedCertificate):
        revalidate(data)
    with pytest.raises(MalformedCertificate):
        revalidate(_standalone(data, _sub(data, "RotationObstruction")))
    # a (9, 3) rotation row repeated through an equal twin table entry
    data = _roundtrip(verify_theorem(9, 3))
    rotation = _standalone(data, _sub(data, "RotationObstruction"))
    assert revalidate(rotation) == "pass"
    row = rotation["payload"]["direction"][0]
    rotation["values"] = data["values"] + [copy.deepcopy(data["values"][row["height"]])]
    rotation["payload"]["direction"].append(dict(row, height=len(data["values"])))
    with pytest.raises(MalformedCertificate):
        revalidate(rotation)


def _outcome(doc):
    """revalidate's verdict on doc, or the type of what it raised."""
    try:
        return revalidate(doc)
    except Exception as exc:  # compared by type, malformed or not
        return type(exc)


def _rows(doc):
    """Every row list of doc's shears and rotation obstructions."""
    for s in [doc] + doc["payload"].get("subcertificates", []):
        if s["kind"] == "ShearMembership":
            yield s["payload"]["cylinders"]
        elif s["kind"] == "RotationObstruction":
            yield s["payload"]["direction"]


def _edit(data, doc):
    """doc as it stands, or with a row, a value or an entry's shape edited."""
    edit = data.draw(st.sampled_from(["none", "row", "value", "shape"]), label="edit")
    rows = [r for rs in _rows(doc) for r in rs]
    if edit == "row" and rows:
        row = data.draw(st.sampled_from(rows))
        key = data.draw(st.sampled_from(sorted(row)))
        row[key] = data.draw(st.integers(0, len(doc["values"]) - 1)) if key in (
            "inverse_modulus", "height") else (row[key] or 0) + 1
    elif edit in ("value", "shape"):
        entry = data.draw(st.sampled_from([e for e in doc["values"] if e["coeffs"]]))
        pair = data.draw(st.sampled_from(entry["coeffs"]))
        if edit == "value":
            # a real value scaled, or one coefficient moved, which leaves
            # a real value only at power 0
            c = data.draw(st.fractions(-9, 9).filter(lambda c: c not in (0, 1)))
            if data.draw(st.booleans()):
                for p in entry["coeffs"]:
                    p[1] = str(Fraction(p[1]) * c)
            else:
                pair[1] = str(Fraction(pair[1]) + c)
        else:
            k = data.draw(st.integers(0, 1))
            pair[k] = data.draw(st.sampled_from([bool(pair[0]), float(pair[0])] if k == 0
                                                else [int(Fraction(pair[1])), 1.5]))
    return doc


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_revalidate_memos_never_change_an_outcome(data):
    """A sequence of texts revalidated in one process, each after what came
    before it, gives every text the outcome it has with the memos cleared.
    Each edited text follows its genuine twin, whose values are then
    memoised."""
    texts = _genuine_texts()
    picks = data.draw(st.lists(st.integers(0, len(texts) - 1), min_size=1, max_size=4))
    docs = [doc for i in picks
            for doc in (texts[i], json.dumps(_edit(data, json.loads(texts[i]))))]
    warm = [_outcome(json.loads(doc)) for doc in docs]
    cold = []
    for doc in docs:
        _clear_revalidate_memos()
        cold.append(_outcome(json.loads(doc)))
    assert warm == cold


def test_revalidate_memos_stay_bounded():
    certificates._types.cache_clear()
    data = _roundtrip(verify_theorem(5, 2))
    made = len(certificates._types(5).exact)  # the values verify made
    shear = _standalone(data, _sub(data, "ShearMembership"))
    rotation = _standalone(data, _sub(data, "RotationObstruction"))
    read = []  # the size of n's memo of read entries after each revalidate
    for i in range(certificates._MEMO_SIZE + 10):
        # a fresh rational value: no shear row of that inverse modulus
        # twists an integer number of times by 2*lambda_5, and a row of that
        # height keeps the rotation excluded
        fresh = {"coeffs": [[0, "%d/7" % (i + 1)]]}
        for doc, row, key, verdict in ((shear, shear["payload"]["cylinders"][0], "inverse_modulus",
                                        "fail"),
                                       (rotation, rotation["payload"]["direction"][0], "height",
                                        "pass")):
            doc["values"] = data["values"] + [fresh]
            row[key] = len(data["values"])
            assert revalidate(doc) == verdict
            read.append(len(certificates._types(5)._entries))
    # it fills up to _MEMO_SIZE entries, and never beyond
    assert max(read) == certificates._MEMO_SIZE
    # n's type table keeps at most _MEMO_SIZE values that revalidate read,
    # also after one certificate with more new values than that
    assert len(certificates._types(5).exact) <= made + certificates._MEMO_SIZE
    shear["values"] = data["values"] + [{"coeffs": [[0, "%d/11" % (i + 1)]]}
                                        for i in range(certificates._MEMO_SIZE + 10)]
    assert revalidate(shear) == "fail"
    assert len(certificates._types(5).exact) <= made + certificates._MEMO_SIZE


def test_an_over_bound_certificate_leaves_the_shared_table(monkeypatch):
    # new values that would take n's memo past _MEMO_SIZE are read in a
    # table of their own: the shared one keeps what verify and earlier
    # revalidates stored in it
    certificates._types.cache_clear()
    data = _roundtrip(verify_theorem(5, 2))
    assert revalidate(data) == "pass"
    types = certificates._types(5)
    exact, facts = list(types.exact), dict(types._facts)
    monkeypatch.setattr(certificates, "_MEMO_SIZE", len(types._entries) + 3)
    shear = _standalone(data, _sub(data, "ShearMembership"))
    for i in range(2):  # the first fits in the shared memo, the second does not
        fresh = [{"coeffs": [[0, "%d/13" % (2 * i + j + 1)]]} for j in range(2)]
        assert revalidate({**shear, "values": data["values"] + fresh}) == "pass"
    assert certificates._types(5) is types
    assert types.exact[:len(exact)] == exact
    assert facts.items() <= types._facts.items()


def test_forged_twist_counts_keep_nothing():
    # a forged count of a modulus whose count n's table knows is read off
    # that count, and one of a value without a count (a height) fails its
    # exact product: however many a forger sends, the table keeps what it
    # kept before
    certificates._types.cache_clear()
    data = _roundtrip(verify_theorem(5, 2))
    assert revalidate(data) == "pass"  # every value of data is now shared
    types = certificates._types(5)
    facts, twists = dict(types._facts), dict(types._twists)
    shear = _standalone(data, _sub(data, "ShearMembership"))
    row = shear["payload"]["cylinders"][0]
    modulus, height = row["inverse_modulus"], data["horizontal"][0]["height"]
    assert types.read(data["values"])[1][height] not in twists
    for i in range(certificates._MEMO_SIZE + 10):
        row["inverse_modulus"] = height if i % 2 else modulus
        row["twists"] = 10 ** 6 + i
        assert revalidate(shear) == "fail"
    assert certificates._types(5) is types
    assert (types._facts, types._twists) == (facts, twists)


@lru_cache(maxsize=None)
def _genuine_texts() -> tuple:
    certs = [verify_theorem(8, 2), verify_theorem(8, 4, monodromy=mutated_monodromy(8, 4)),
             verify_theorem(8, infinite=True), verify_theorem(9, 3),
             verify_theorem(9, 4, monodromy=mutated_monodromy(9, 4)),
             verify_theorem(9, infinite=True)]
    texts = []
    for cert in certs:
        data = cert.to_json()
        texts.append(json.dumps(data))
        for s in data["payload"]["subcertificates"]:
            texts.append(json.dumps(_standalone(data, s)))
    return tuple(texts)


def _paths(node, path=()):
    """Every path to a value below node, as key and index tuples."""
    yield path
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, path + (i,))


_WRONG_TYPES = [None, True, 7, 1.5, "x", [], {}, [[1]]]
_OFF_GRAMMAR = st.text(max_size=6).filter(lambda t: not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", t))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_payloads_give_a_verdict_or_a_typed_error(data):
    texts = _genuine_texts()
    doc = json.loads(texts[data.draw(st.integers(0, len(texts) - 1))])
    paths = list(_paths(doc))[1:]
    # a table entry's [power, "p/q"] pair
    coefficient_paths = [p for p in paths if len(p) > 2 and p[-3] == "coeffs" and p[-1] == 1]
    shears = [s for s in [doc] + doc["payload"].get("subcertificates", [])
              if s["kind"] == "ShearMembership"]
    mutations = ["drop", "retype", "truncate"] + ["coefficient"] * bool(coefficient_paths)
    mutation = data.draw(st.sampled_from(mutations))
    path = data.draw(st.sampled_from(coefficient_paths if mutation == "coefficient" else paths))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    old = parent[path[-1]]
    if mutation == "drop" and isinstance(parent, dict):
        del parent[path[-1]]
    elif mutation == "truncate" and isinstance(old, list) and old:
        del old[data.draw(st.integers(0, len(old) - 1)):]
    elif mutation == "coefficient":
        # a different value, written in the grammar or outside it
        delta = data.draw(st.fractions(-100, 100).filter(bool))
        parent[path[-1]] = data.draw(st.just(str(Fraction(old) + delta)) | _OFF_GRAMMAR)
    else:
        parent[path[-1]] = data.draw(st.sampled_from(
            [v for v in _WRONG_TYPES if type(v) is not type(old)]))
    try:
        verdict = revalidate(doc)
    except MalformedCertificate:
        return
    assert verdict in ("pass", "fail", "inconclusive")
    # what a ShearMembership certifies: each row's inverse modulus against
    # 2*lambda_n, which n fixes (its height and count are carried, not
    # checked)
    if mutation != "coefficient":
        return
    # a row's twist count times its edited modulus is no longer the factor
    index = path[1]
    for shear in shears:
        if index in {row["inverse_modulus"] for row in shear["payload"]["cylinders"]}:
            assert verdict != "pass", path


def _traced_profile(profile, n, monodromy, l):
    """profile(n, monodromy, l) read from the decomposition traced in v_l.

    n's lift plans are set aside for the call, so the profile plans v_l
    from the traced cylinders, not from the derived table."""
    traced_at = []

    @lru_cache(maxsize=None)  # traced once, however often the profile reads it
    def traced(n_, l_):
        traced_at.append((n_, l_))
        return decompose(build_base(n_), unit_vector(n_, l_))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covering, "base_decomposition", traced)
        mp.setattr(certificates, "base_decomposition", traced)
        mp.setattr(certificates._types(n), "_lifts", {})
        out = profile(n, monodromy, l)
    assert (n, l) in traced_at
    return out


def _random_transitive_monodromy(data, ns=(5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16), max_d=6):
    """(n, m): n in ns and a transitive monodromy of degree 2 <= d <= max_d."""
    n = data.draw(st.sampled_from(ns), label="n")
    d = data.draw(st.integers(2, max_d), label="d")
    num = num_generators(n)
    images = {}
    for i in range(num):
        if data.draw(st.booleans()):
            images[i] = tuple(data.draw(st.permutations(range(d))))
    m = Monodromy(num, d, images)
    assume(m.is_transitive())
    return n, m


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pulled_back_profiles_equal_traced_ones(data):
    n, m = _random_transitive_monodromy(data)
    for l in range(n):
        # same types, counts and order
        assert list(certificates._finite_profile(n, m, l).items()) == list(
            _traced_profile(certificates._finite_profile, n, m, l).items()
        ), l


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_no_theorem_passes_when_an_unmarked_generator_moves(data):
    n, m = _random_transitive_monodromy(data, ns=(5, 7, 8, 9, 10), max_d=4)
    k1, k2 = monodromy_indices(n)
    assume(any(p != perms.identity(m.degree) for i, p in m.images.items() if i not in (k1, k2)))
    cert = verify_theorem(n, m.degree, monodromy=m)
    assert cert.verdict != "pass"
    assert revalidate(_roundtrip(cert)) == cert.verdict


@pytest.mark.parametrize("n", [5, 7, 8, 9, 10, 12, 13, 16])
def test_pulled_back_infinite_profiles_equal_traced_ones(n):
    std = std_infinite_monodromy(n)
    num = num_generators(n)
    # the standard images, the same with every other image given as the
    # identity, and images that move every generator's sheets
    explicit = ZMonodromy(num, {i: std.image(i) for i in range(num)})
    shifts = [ZPermutation(1, -1), ZPermutation(2, 0), ZPermutation(-1, 3), ZPermutation(0, -2)]
    every = ZMonodromy(num, {i: shifts[i % 4] for i in range(num)})
    assert len(every._moving) == num
    for zm in (std, explicit, every):
        for l in range(n):
            got = certificates._finite_profile(n, zm, l)
            want = _traced_profile(certificates._finite_profile, n, zm, l)
            assert list(got.items()) == list(want.items()), l
            assert _exact_items(n, got) == list(_per_cycle_profile(n, zm, l).items()), l


@pytest.mark.parametrize("d", [3, "inf"])
def test_a_repeated_unmoved_type_counts_every_cylinder(monkeypatch, d):
    # no two base cylinders of a direction share a type where
    # test_covering.py pins it (n <= 61), so this direction is made: v_1 of
    # X_9 with its first unmoved cylinder listed once more, at the end
    n, l = 9, 1
    m = std_infinite_monodromy(n) if d == "inf" else standard_monodromy(n, d)
    cyls = base_decomposition(n, l)
    want = certificates._finite_profile(n, m, l)
    [c, *_] = [c for c in cyls if not any(g in m._moving for g, _ in c.core_word)]
    table = certificates._types(n)
    monkeypatch.setattr(certificates, "base_decomposition", lambda n_, l_: cyls + [c])
    monkeypatch.setattr(table, "_lifts", {})
    got = certificates._finite_profile(n, m, l)
    t = (table.index(c.inverse_modulus), table.index(c.height))
    # the type keeps its place, and counts both cylinders' lifts
    assert list(got) == list(want)
    assert (want[t], got[t]) == ((None, None) if d == "inf" else (d, 2 * d))
    assert {**got, t: None} == {**want, t: None}


# ---------------------------------------------------------------------------
# integer-pair profiles and twist counts against per-cycle references


def _per_cycle_profile(n, monodromy, l):
    """The profile with one exact a * mu per cycle of the lift, every base
    cylinder's; for a Z-cover, per run of its orbits (a = 0 an infinite
    strip), where a count of None absorbs what is added to it.  The
    cylinders are read in _finite_profile's order: first the unmoved ones
    (no generator of the core word moves a sheet), then the moved ones,
    each in walk order."""
    def moved(cyl):
        return any(g in monodromy._moving for g, _ in cyl.core_word)

    counter = {}
    for cyl in sorted(base_decomposition(n, l), key=moved):  # stable: walk order within each
        if isinstance(monodromy, ZMonodromy):
            runs = monodromy.cycle_type(cyl.core_word)
        else:
            runs = [(len(cyc), 1) for cyc in perms.cycles(monodromy.eval_word(cyl.core_word))]
        for a, count in runs:
            mod = a * cyl.inverse_modulus
            slot = counter.setdefault((mod.key(), cyl.height.key()), [(mod, cyl.height), 0])
            slot[1] = None if count is None or slot[1] is None else slot[1] + count
    return counter


def _exact_items(n, profile) -> list:
    # a profile's items as _per_cycle_profile keys them, in its order
    exact = certificates._types(n).exact
    return [((exact[mod].key(), exact[height].key()), [(exact[mod], exact[height]), count])
            for (mod, height), count in profile.items()]


def _per_row_twists(factor, mod):
    """factor / mod if it is a positive integer, else None: one exact
    quotient per row."""
    q = factor / mod
    if q.is_integer() and q.sign() > 0:
        return int(q.as_rational())
    return None


def _profiles_and_twists_match_the_references(n, m) -> set:
    """Check every direction's profile and shear rows against the
    references; return the twist counts seen."""
    factor = 2 * lambda_n(n)
    seen = set()
    for l in range(n):
        got = certificates._finite_profile(n, m, l)
        # same exact types and counts, in the same order
        assert _exact_items(n, got) == list(_per_cycle_profile(n, m, l).items()), l
        cert = certificates._subcertificate("ShearMembership", l, n, m.degree, m,
                                            certificates._Values(n), profile=lambda l: got)
        table = _table(cert.to_json())
        for row in cert.payload["cylinders"]:
            assert row["twists"] == _per_row_twists(factor, table[row["inverse_modulus"]]), l
            seen.add(row["twists"])
    return seen


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_pair_profiles_equal_the_per_cycle_reference(data):
    n, m = _random_transitive_monodromy(data)
    _profiles_and_twists_match_the_references(n, m)
    # the same images with every identity image given explicitly, and
    # with every generator moving a sheet
    d, num = m.degree, m.num_generators
    ident = perms.identity(d)
    _profiles_and_twists_match_the_references(n, Monodromy(num, d, m.images))
    moves = st.permutations(range(d)).map(tuple).filter(lambda p: p != ident)
    every = Monodromy(num, d, {i: m.image(i) if m.image(i) != ident else data.draw(moves)
                               for i in range(num)})
    assert len(every._moving) == num
    _profiles_and_twists_match_the_references(n, every)


def test_twist_counts_match_the_reference_on_rows_with_and_without_integer_twist():
    m = Monodromy(4, 3, {0: (1, 2, 0), 1: (0, 2, 1)})
    assert m.is_transitive()
    twists = _profiles_and_twists_match_the_references(5, m)
    assert None in twists and twists - {None}


@pytest.mark.parametrize("n", [9, 16])
def test_profiles_make_one_product_per_distinct_pair(monkeypatch, n):
    """_finite_profile multiplies at most once per distinct (base cylinder,
    cycle length) pair, not once per cycle."""
    for l in range(n):  # the traces multiply too; take them out of the count
        base_decomposition(n, l)
    # a new type table, whose shear factor is made before the count
    certificates._types.cache_clear()
    certificates._types(n).factor
    multiplications = [0]
    mul = field.CycloNumber.__mul__

    def counting_mul(self, other):
        multiplications[0] += 1
        return mul(self, other)

    per_profile = []  # (multiplications, distinct pairs) of each profile
    profile = certificates._finite_profile

    def counting(n_, monodromy, l):
        before = multiplications[0]
        out = profile(n_, monodromy, l)
        made = multiplications[0] - before
        pairs = {(i, a) for i, cyl in enumerate(base_decomposition(n_, l))
                 for a, _ in monodromy.cycle_type(cyl.core_word)}
        per_profile.append((made, len(pairs)))
        return out

    monkeypatch.setattr(field.CycloNumber, "__mul__", counting_mul)
    monkeypatch.setattr(certificates, "_finite_profile", counting)
    assert verify_theorem(n, 48).verdict == "pass"
    assert per_profile and all(made <= pairs for made, pairs in per_profile), per_profile


@pytest.mark.parametrize("n,traced", [(9, 1), (12, 2), (14, 2), (25, 1)])
def test_verify_traces_one_decomposition_per_rotation_class(monkeypatch, n, traced):
    covering._base_decomposition.cache_clear()
    directions = []
    decompose = covering.decompose

    def counting(surface, direction):
        directions.append(direction)
        return decompose(surface, direction)

    monkeypatch.setattr(covering, "decompose", counting)
    assert verify_theorem(n, 3).verdict == "pass"
    if n < 25:
        assert verify_theorem(n, infinite=True).verdict == "pass"
    assert len(directions) == traced


def test_subcertificates_are_bound_to_the_theorem(monkeypatch):
    theorem = json.loads(json.dumps(
        verify_theorem(7, 4, monodromy=mutated_monodromy(7, 4)).to_json()))
    assert revalidate(theorem) == "fail"
    other = json.loads(json.dumps(verify_theorem(5, 3).to_json()))
    subs = theorem["payload"]["subcertificates"]

    def with_subs(replaced):
        return dict(theorem, payload=dict(theorem["payload"], subcertificates=replaced))

    # the subcertificates of (5, 3) are judged as (7, 4)'s, whose slots
    # they do not fill
    assert revalidate(with_subs(other["payload"]["subcertificates"])) == "fail"
    # a subcertificate that names an n or d anywhere in the list, even
    # after the first failing one and even the theorem's own, is malformed
    for i, key, value in ((0, "n", 5), (-2, "d", 3), (-2, "n", 7), (-1, "d", None), (-1, "d", 4)):
        forged = json.loads(json.dumps(subs))
        forged[i][key] = value
        with pytest.raises(MalformedCertificate, match=r"names its own n or d in a theorem "
                                                      r"for \(7, 4\)"):
            revalidate(with_subs(forged))
    # a forged Index n inside a theorem costs no coset enumeration
    enumerated = []
    coset_table = certificates._coset_table
    monkeypatch.setattr(certificates, "_coset_table",
                        lambda n: enumerated.append(n) or coset_table(n))
    forged = json.loads(json.dumps(subs))
    forged[-1]["n"] = 251
    forged[-1]["payload"] = {"expected_index": 251, "index": 251}
    with pytest.raises(MalformedCertificate, match="Index subcertificate names its own n"):
        revalidate(with_subs(forged))
    assert enumerated == []


@pytest.mark.parametrize("kind", ["Index", "ShearMembership"])
@pytest.mark.parametrize("key", ["n", "d"])
def test_a_subcertificate_that_names_its_n_or_d_is_malformed(kind, key):
    # a theorem states its (n, d) once; a subcertificate that names its
    # own, as a standalone certificate does, is refused even where it
    # names the theorem's, and a null d is a d
    data = json.loads(json.dumps(verify_theorem(8, 2).to_json()))
    assert revalidate(data) == "pass"
    for value in (data[key], None):
        forged = copy.deepcopy(data)
        _sub(forged, kind)[key] = value
        with pytest.raises(MalformedCertificate, match="names its own n or d"):
            revalidate(forged)


def test_a_payload_that_is_no_dict_raises_before_the_slots_are_compared():
    # every subcertificate is read before its theorem compares the slots,
    # so one without a dict payload raises even where the slots disagree
    data = json.loads(json.dumps(verify_theorem(8, 2).to_json()))
    data["payload"]["subcertificates"].reverse()
    assert revalidate(data) == "fail"
    for kind in ("MinusIdentity", "Index", "WellFormedCover"):
        forged = json.loads(json.dumps(data))
        _sub(forged, kind)["payload"] = []
        with pytest.raises(MalformedCertificate, match="names its slot"):
            revalidate(forged)


# ---------------------------------------------------------------------------
# a theorem's subcertificates fill the slots of its (n, d), in order


def _slot_variants(data, foreign):
    """data's subcertificate lists with one subcertificate dropped,
    duplicated, swapped with its neighbour or replaced by one of the
    foreign theorem that fills a slot data does not have, which data
    judges under its own (n, d)."""
    subs = data["payload"]["subcertificates"]
    slots = [revalidation._slot(s)[:2] for s in subs]
    other = next(s for s in foreign["payload"]["subcertificates"]
                 if revalidation._slot(s)[:2] not in slots)
    for i, sub in enumerate(subs):
        yield "drop %d" % i, subs[:i] + subs[i + 1:]
        yield "duplicate %d" % i, subs[:i + 1] + subs[i:]
        if i + 1 < len(subs):
            yield "reorder %d" % i, subs[:i] + [subs[i + 1], sub] + subs[i + 2:]
        yield "swap %d" % i, subs[:i] + [other] + subs[i + 1:]


@pytest.mark.parametrize("theorem, foreign", [((7, 4), (9, 4)), ((8, 2), (10, 2)),
                                              ((9, "inf"), (11, "inf"))])
def test_theorem_fails_unless_its_subcertificates_fill_its_slots(theorem, foreign):
    def made(n, d):
        return _roundtrip(verify_theorem(n, infinite=True) if d == "inf" else verify_theorem(n, d))

    data, other = made(*theorem), made(*foreign)
    assert revalidate(data) == "pass"
    if theorem == (8, 2):
        assert _subs(data, "PullbackObstruction")
    for name, subs in _slot_variants(data, other):
        forged = dict(data, payload=dict(data["payload"], subcertificates=subs))
        assert revalidate(forged) == "fail", name


def test_theorem_without_its_index_or_shears_fails():
    data = _roundtrip(verify_theorem(7, 4))
    subs = data["payload"]["subcertificates"]
    for kind in ("Index", "ShearMembership"):
        kept = [s for s in subs if s["kind"] != kind]
        assert revalidate(dict(data, payload=dict(data["payload"], subcertificates=kept))) == "fail"


def test_index_only_theorem_fails_before_enumeration(monkeypatch):
    enumerated = []
    coset_table = certificates._coset_table
    monkeypatch.setattr(certificates, "_coset_table",
                        lambda n: enumerated.append(n) or coset_table(n))
    wrapper = {"format": certificates.FORMAT, "conductor": 4 * 251, "values": [],
               "kind": "FullTheorem", "n": 251, "d": 3, "verdict": "pass",
               "payload": {"subcertificates": [
                   {"kind": "Index", "verdict": "pass",
                    "payload": {"expected_index": 251, "index": 251}}]}}
    start = time.perf_counter()
    assert revalidate(wrapper) == "fail"
    assert time.perf_counter() - start < 0.01
    assert enumerated == []


@pytest.mark.parametrize("key, value", [("kind", "Sigma"), ("mode", "diagonal"), ("l", "1")])
def test_slots_are_read_only_from_well_formed_subcertificates(key, value):
    # the Index is missing, but a malformed subcertificate raises first
    data = _roundtrip(verify_theorem(7, 4))
    subs = [s for s in data["payload"]["subcertificates"] if s["kind"] != "Index"]
    target = _subs(data, "SigmaT" if key == "mode" else "ShearMembership")[0]
    (target if key == "kind" else target["payload"])[key] = value
    data["payload"]["subcertificates"] = subs
    with pytest.raises(MalformedCertificate):
        revalidate(data)


def test_pullback_is_recomputed_from_its_original_images():
    # the payload holds only l; the pullback is computed from the images
    symmetric = Monodromy(4, 2, {i: sigma_d1(2) for i in range(4)})
    data = _roundtrip(certify_pullback_obstruction(8, symmetric, 2))
    assert data["payload"] == {"l": 2}
    assert revalidate(data) == "inconclusive"
    forged = copy.deepcopy(data)
    forged["images"] = _roundtrip(certify_pullback_obstruction(8, standard_monodromy(8, 2), 2))["images"]
    assert revalidate(forged) == "pass"
    # a pullback needs finitely many sheets
    forged["images"] = [dict(e, image={"t_even": 1, "t_odd": 1}) for e in forged["images"]]
    with pytest.raises(MalformedCertificate, match="finitely many sheets"):
        revalidate(dict(forged, d="inf"))
    # odd n or odd l is malformed alone, and refused by the certifier
    forged = copy.deepcopy(data)
    forged["payload"]["l"] = 3
    for bad in (dict(data, n=9, conductor=36), forged):
        with pytest.raises(MalformedCertificate, match="even n"):
            revalidate(bad)
    for n, l in ((9, 2), (8, 3)):
        with pytest.raises(ValueError):
            certify_pullback_obstruction(n, symmetric, l)


def test_a_pullback_of_infinitely_many_sheets_is_refused_before_any_work(monkeypatch):
    def no_rule(*args):
        raise AssertionError("the rule ran")

    monkeypatch.setattr(certificates, "_pullback_rule", no_rule)
    with pytest.raises(ValueError, match="finitely many sheets"):
        certify_pullback_obstruction(8, std_infinite_monodromy(8), 2)


@pytest.mark.parametrize("n,d", [(8, 2), (12, 2), (16, 2), (9, 3)])
def test_a_theorem_builds_one_value_table(monkeypatch, n, d):
    # an even-n theorem whose rotation falls back to a PullbackObstruction
    # builds that certificate on its own table too
    built = []
    init = certificates._Values.__init__
    monkeypatch.setattr(certificates._Values, "__init__",
                        lambda self, n: built.append(n) or init(self, n))
    cert = verify_theorem(n, d)
    cert.to_json()
    assert cert.verdict == "pass"
    assert built == [n]


def test_pullback_in_a_theorem_reads_the_theorem_monodromy():
    theorem = _roundtrip(verify_theorem(8, 2))
    assert revalidate(theorem) == "pass"
    pullback = _sub(theorem, "PullbackObstruction")
    assert revalidate(_standalone(theorem, pullback)) == "pass"
    # the images of a cover that the rotation by l fixes: the pullback
    # reads the theorem's images, alone and inside the theorem
    symmetric = Monodromy(4, 2, {i: sigma_d1(2) for i in range(4)})
    theorem["images"] = _roundtrip(
        certify_pullback_obstruction(8, symmetric, pullback["payload"]["l"]))["images"]
    assert revalidate(_standalone(theorem, pullback)) == "inconclusive"
    assert revalidate(theorem) == "inconclusive"


def test_standalone_index_above_the_cap_is_refused_before_enumeration(monkeypatch):
    genuine = json.loads(json.dumps(certificates.certify_index(9).to_json()))
    enumerated = []
    coset_table = certificates._coset_table
    monkeypatch.setattr(certificates, "_coset_table",
                        lambda n: enumerated.append(n) or coset_table(n))
    forged = {"format": certificates.FORMAT, "conductor": 4 * 251, "values": [], "kind": "Index",
              "n": 251, "verdict": "pass", "payload": {"expected_index": 251, "index": 251}}
    with pytest.raises(MalformedCertificate, match="standalone Index for n = 251"):
        revalidate(forged)
    cap = revalidation.MAX_STANDALONE_N
    with pytest.raises(MalformedCertificate, match="standalone Index"):
        revalidate(dict(forged, n=cap + 1, conductor=4 * (cap + 1)))
    assert enumerated == []
    # at and below the cap a standalone Index is judged as before
    assert revalidate(genuine) == "pass"
    assert enumerated == [9]


def test_forged_conductor_is_rejected_before_a_field_is_built(monkeypatch):
    built = []
    get_context = field.get_context
    monkeypatch.setattr(field, "get_context", lambda N: built.append(N) or get_context(N))
    # the one conductor of the table
    theorem = json.loads(json.dumps(verify_theorem(5, 3).to_json()))
    rotation = _standalone(theorem, _sub(theorem, "RotationObstruction"))
    for data in (theorem, rotation):
        with pytest.raises(MalformedCertificate, match="conductor 2000, not 4n = 20"):
            revalidate(dict(data, conductor=2000))
    # a table of another X_n's field is malformed too, whatever its size
    rotation["n"] = 7
    with pytest.raises(MalformedCertificate, match="conductor 20, not 4n = 28"):
        revalidate(rotation)
    assert 2000 not in built


# a payload of each kind that its rule reads; the table holds the value 1
_MINIMAL_PAYLOADS = {
    "ShearMembership": {"l": 1, "cylinders": []},
    "RotationObstruction": {"l": 1, "direction": []},
    "SigmaT": {"mode": "horizontal", "sigma_T": [1, 0]},
    "MinusIdentity": {},
    "Index": {"expected_index": 1, "index": 1},
    "PullbackObstruction": {"l": 2},
    "WellFormedCover": {},
    "FullTheorem": {"subcertificates": []},
}


def _minimal(kind, n):
    return {"format": certificates.FORMAT, "conductor": 4 * n, "values": [{"coeffs": [[0, "1"]]}],
            "horizontal": [], "images": [{"generator": 0, "image": [1, 0]}],
            "kind": kind, "n": n, "d": 2, "verdict": "pass", "payload": _MINIMAL_PAYLOADS[kind]}


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("kind", revalidation._SLOTS)
def test_a_certificate_for_an_n_without_x_n_is_refused_before_a_value_is_read(
        monkeypatch, kind, n):
    # a ShearMembership without rows would pass its rule
    read = []
    read_entries = certificates._Types.read
    monkeypatch.setattr(certificates._Types, "read",
                        lambda types, entries: read.append(entries) or read_entries(types, entries))
    with pytest.raises(MalformedCertificate, match="no base surface X_%d" % n):
        revalidate(_minimal(kind, n))
    assert read == []


@pytest.mark.parametrize("kind", [k for k in revalidation._SLOTS if k != "FullTheorem"])
def test_a_standalone_certificate_above_the_cap_builds_no_field(monkeypatch, kind):
    built = []
    get_context = field.get_context
    monkeypatch.setattr(field, "get_context", lambda N: built.append(N) or get_context(N))
    _clear_revalidate_memos()
    # n names its own conductor, so the conductor check lets it through
    with pytest.raises(MalformedCertificate, match="standalone %s for n = 1001" % kind):
        revalidate(_minimal(kind, 1001))
    assert 4004 not in built
    # at the cap the same certificate is read
    cap = revalidation.MAX_STANDALONE_N
    try:
        revalidate(_minimal(kind, cap))
    except MalformedCertificate as exc:
        assert "standalone" not in str(exc)
    assert 4 * cap in built


def test_a_theorem_is_bound_to_its_slots_before_it_builds_a_field(monkeypatch):
    # a one-value FullTheorem may claim any n, but its degree and slot
    # list are checked before its table of conductor 4n is parsed
    built = []
    get_context = field.get_context
    monkeypatch.setattr(field, "get_context", lambda N: built.append(N) or get_context(N))
    _clear_revalidate_memos()
    theorem = _minimal("FullTheorem", 1001)
    assert revalidate(theorem) == "fail"
    with pytest.raises(MalformedCertificate, match="degree 1 is not an int d >= 2"):
        revalidate(dict(theorem, d=1))
    assert 4004 not in built


def test_a_theorem_without_values_or_images_builds_no_field(monkeypatch):
    # the slots of (1001, 3) filled with payloads that name their slot only
    n, d = 1001, 3
    names = {kind: name for kind, (name, _) in revalidation._SLOTS.items()}
    subs = [{"kind": kind, "verdict": "pass", "payload": {names[kind]: key} if names[kind] else {}}
            for kind, key in certificates._theorem_slots(n, d)]
    theorem = {"format": certificates.FORMAT, "conductor": 4 * n, "values": [],
               "kind": "FullTheorem", "n": n, "d": d, "verdict": "pass",
               "payload": {"subcertificates": subs}}

    def no_field(N):
        raise AssertionError("a field of conductor %d was built" % N)

    _clear_revalidate_memos()
    # uncached, so that a context built earlier cannot hide a build
    monkeypatch.setattr(field, "get_context", field.get_context.__wrapped__)
    monkeypatch.setattr(field, "FieldContext", no_field)
    with pytest.raises(MalformedCertificate, match="missing key 'images'"):
        revalidate(theorem)


def test_a_forged_theorem_fails_before_it_lists_its_slots():
    # n = 10^6 has 1.5 million slots; the reader compares them with the
    # carried ones one by one, so an empty theorem fails at the first
    theorem = _minimal("FullTheorem", 10 ** 6)
    tracemalloc.start()
    try:
        assert revalidate(theorem) == "fail"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    start = time.perf_counter()
    assert revalidate(theorem) == "fail"
    assert time.perf_counter() - start < 0.01


# ---------------------------------------------------------------------------
# memoised cycle types and exact checks


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_memoised_profiles_equal_a_direct_count(data):
    n = data.draw(st.sampled_from([5, 7, 8, 9]), label="n")
    d = data.draw(st.integers(2, 6), label="d")
    num = num_generators(n)
    moves = st.permutations(range(d)).filter(lambda p: p != list(range(d)))
    m1, m2 = (Monodromy(num, d, {i: tuple(data.draw(moves)) for i in range(num)})
              for _ in range(2))
    # in turn: a memo entry shared between the two would answer for the other
    for m in (m1, m2, m1):
        _profiles_and_twists_match_the_references(n, m)
        for l in range(n):
            assert [(i, a) for i, cyl in enumerate(base_decomposition(n, l))
                    for a, repeat in m.cycle_type(cyl.core_word) for _ in range(repeat)] == [
                (i, len(cyc)) for i, cyl in enumerate(base_decomposition(n, l))
                for cyc in perms.cycles(m.eval_word(cyl.core_word))]


@pytest.mark.parametrize("n", [9, 16, 25])
def test_a_theorem_types_only_the_cylinders_a_generator_moves(monkeypatch, n):
    # x_k1 and x_k2 each occur in at most one core word per direction, so
    # the standard monodromy moves sheets on at most two base cylinders
    # there; every other one lifts to d copies without a cycle type
    typed, profiled = [], []
    cycle_type, profile = Monodromy.cycle_type, certificates._finite_profile
    monkeypatch.setattr(Monodromy, "cycle_type",
                        lambda self, w: typed.append(w) or cycle_type(self, w))
    monkeypatch.setattr(certificates, "_finite_profile",
                        lambda n_, m, l: profiled.append(l) or profile(n_, m, l))
    assert verify_theorem(n, 5).verdict == "pass"
    assert profiled and len(typed) <= 2 * len(profiled)


def _containers(data):
    # every list and dict of a JSON document, the document too
    if isinstance(data, (list, dict)):
        yield data
        for v in data.values() if isinstance(data, dict) else data:
            yield from _containers(v)


@pytest.mark.parametrize("kind", ["standard", "mutated", "infinite"])
def test_two_certificates_share_no_json_container(kind):
    # the rows and values that n's table keeps are copied into each output
    def theorem():
        if kind == "infinite":
            return verify_theorem(9, infinite=True)
        monodromy = mutated_monodromy(9, 4) if kind == "mutated" else None
        return verify_theorem(9, 4, monodromy=monodromy)

    first, second = theorem(), theorem()
    text = json.dumps(second.to_json())
    out = first.to_json()
    assert not {*map(id, _containers(out))} & {*map(id, _containers(second.to_json()))}
    for container in list(_containers(out)):
        container.clear()
    assert json.dumps(second.to_json()) == text


def test_the_per_n_memos_stay_bounded(monkeypatch):
    # a sweep of more distinct monodromies than _MEMO_SIZE at one n fills
    # each of n's memos up to the bound, and the certificates stay the same
    n, size = 9, 6
    covers = [(d, None) for d in range(2, 10)] + [(d, mutated_monodromy(n, d))
                                                  for d in range(4, 12, 2)]
    certificates._types.cache_clear()
    texts = [json.dumps(verify_theorem(n, d, monodromy=m).to_json()) for d, m in covers]
    certificates._types.cache_clear()
    monkeypatch.setattr(certificates, "_MEMO_SIZE", size)
    try:
        for (d, m), text in zip(covers, texts):
            assert json.dumps(verify_theorem(n, d, monodromy=m).to_json()) == text
        types = certificates._types(n)
        memos = [types._lifts, types._sheared, types._facts]
        assert max(map(len, memos)) == size
    finally:  # later tests get a table that kept everything
        certificates._types.cache_clear()


def test_warm_theorem_does_each_exact_check_once(monkeypatch):
    n, d = 25, 4
    verify_theorem(n, d)  # the base decompositions
    k1, k2 = monodromy_indices(n)
    words = [cyl.core_word for l in range(n) for cyl in base_decomposition(n, l)]
    sequences = {tuple(x for x in w if x[0] in (k1, k2)) for w in words}
    assert (len(words), len(sequences)) == (300, 4)
    evaluated = []
    eval_word = Monodromy.eval_word
    monkeypatch.setattr(Monodromy, "eval_word",
                        lambda self, w: evaluated.append(w) or eval_word(self, w))
    # the operands of every exact subtraction inside each rule; an exact
    # comparison is one subtraction.  The process-wide memos decide each
    # check once, so they start empty, and so does the type table of n.
    certificates._types.cache_clear()
    _clear_revalidate_memos()
    inside, operands = [None], {"shear": [], "rotation": []}
    sub = field.CycloNumber.__sub__

    def counting_sub(self, other):
        if inside[0] is not None:
            operands[inside[0]].append(frozenset((self.key(), other.key())))
        return sub(self, other)

    def counted(name, rule):
        def wrapper(*args):
            inside[0] = name
            try:
                return rule(*args)
            finally:
                inside[0] = None
        return wrapper

    monkeypatch.setattr(field.CycloNumber, "__sub__", counting_sub)
    monkeypatch.setattr(certificates, "_shear_rule", counted("shear", certificates._shear_rule))
    monkeypatch.setattr(certificates, "_rotation_rule",
                        counted("rotation", certificates._rotation_rule))
    data = verify_theorem(n, d).to_json()
    assert data["verdict"] == "pass"
    # one evaluation per distinct moving-letter sequence, not per cylinder
    assert len(evaluated) <= len(sequences)
    # the shear rule reads each row's twist count, which scaling its
    # modulus made: it subtracts nothing
    assert operands["shear"] == []
    # the witness search compares no two values twice in the theorem
    compared = operands["rotation"]
    assert 0 < len(compared) == len(set(compared))


@pytest.mark.parametrize("n,d", [(9, 5), (8, 3), (25, 4)])
def test_revalidate_reuses_the_twist_checks_that_verify_decided(monkeypatch, n, d):
    # verify and revalidate decide k * mu == 2 * lambda_n through one
    # memo, so the shear rule of a revalidate after verify subtracts
    # nothing.  (The rotation witness scan visits types in each table's
    # own order, so it may compare pairs that verify never compared.)
    certificates._types.cache_clear()
    _clear_revalidate_memos()
    data = _roundtrip(verify_theorem(n, d))
    inside, subtractions, rules = [False], [], []
    sub, shear_rule = field.CycloNumber.__sub__, certificates._shear_rule

    def counting_sub(self, other):
        if inside[0]:
            subtractions.append((self, other))
        return sub(self, other)

    def counted(*args):
        rules.append(args)
        inside[0] = True
        try:
            return shear_rule(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(field.CycloNumber, "__sub__", counting_sub)
    monkeypatch.setattr(revalidation, "_shear_rule", counted)
    assert revalidate(data) == "pass"
    assert rules and subtractions == []


@pytest.mark.parametrize("n,d,forged_d", [(7, 2, 3), (9, 2, 5)])
def test_theorem_degree_is_bound_to_its_images(n, d, forged_d):
    # each image must permute exactly the claim's d sheets, and together
    # transitively
    data = _roundtrip(verify_theorem(n, d))
    assert revalidate(data) == "pass"
    with pytest.raises(MalformedCertificate, match="does not permute the %d sheets" % forged_d):
        revalidate(dict(data, d=forged_d))
    # no generator moves a sheet: SigmaT holds, and only the transitivity
    # check fails
    data["images"] = []
    assert revalidate(_standalone(data, _sub(data, "SigmaT"))) == "pass"
    assert revalidate(_standalone(data, _sub(data, "WellFormedCover"))) == "fail"
    assert revalidate(data) == "fail"


def test_the_degree_error_names_inf_where_the_claim_may_be_infinite():
    # a theorem may claim d = inf, a standalone WellFormedCover may not
    theorem = _roundtrip(verify_theorem(5, 3))
    with pytest.raises(MalformedCertificate) as raised:
        revalidate(dict(theorem, d=1))
    assert str(raised.value) == 'degree 1 is not an int d >= 2 or "inf"'
    cover = _standalone(theorem, _sub(theorem, "WellFormedCover"))
    with pytest.raises(MalformedCertificate) as raised:
        revalidate(dict(cover, d=1))
    assert str(raised.value) == "degree 1 is not an int d >= 2"


def test_a_cover_of_degree_below_two_is_refused_before_any_rule(monkeypatch):
    # verify_theorem(5, 2) relabelled d = 1, on one sheet that no
    # generator moves: every rule holds on it, and Y_{5,1} = X_5 has
    # Gamma_5 at index 5
    data = _roundtrip(verify_theorem(5, 2))
    data["images"] = []
    _sub(data, "SigmaT")["payload"]["sigma_T"] = [0]

    def no_rule(*args):
        raise AssertionError("a rule ran")

    for rule in ("_shear_rule", "_sigma_rule", "_minus_identity_rule", "_rotation_rule",
                 "_index_rule", "_theorem_rule"):
        monkeypatch.setattr(revalidation, rule, no_rule)
    for d in (1, 0, -2):
        data["d"] = d
        with pytest.raises(MalformedCertificate):
            revalidate(data)
        with pytest.raises(MalformedCertificate):
            revalidate(_standalone(data, _sub(data, "WellFormedCover")))
    monkeypatch.undo()
    data["d"] = "two"
    with pytest.raises(MalformedCertificate):
        revalidate(data)


def _many_sheets(kind, n, payload):
    # a claim of 10^12 sheets that no listed image spells out
    return {"format": certificates.FORMAT, "conductor": 4 * n, "n": n, "d": 10 ** 12,
            "kind": kind, "payload": payload, "values": [], "images": []}


def _many_sheet_theorem():
    data = _roundtrip(verify_theorem(5, 3))
    data.update(d=10 ** 12, images=[])
    return data


@pytest.mark.parametrize("data,verdict", [
    (_many_sheets("MinusIdentity", 5, {}), "pass"),
    (_many_sheets("WellFormedCover", 5, {}), "fail"),
    (_many_sheets("PullbackObstruction", 8, {"l": 2}), "pass"),
    (_many_sheets("SigmaT", 5, {"mode": "horizontal", "sigma_T": [1, 0]}), None),
    (_many_sheet_theorem(), "fail"),
], ids=["MinusIdentity", "WellFormedCover", "PullbackObstruction", "SigmaT", "FullTheorem"])
def test_a_claim_of_many_sheets_costs_what_its_text_does(data, verdict):
    # every generator fixes each of the claimed sheets: the cover is not
    # connected, and no list of 10^12 sheets is made to say so
    revalidate(_roundtrip(verify_theorem(8, 3)))  # n's tables are built outside the count
    tracemalloc.start()
    try:
        if verdict is None:
            with pytest.raises(MalformedCertificate, match="permute different sheets"):
                revalidate(data)
        else:
            assert revalidate(data) == verdict
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("certify", [
    lambda m: certify_minus_identity(5, m),
    lambda m: certify_sigma_T(5, 1, "vertical", m),
    lambda m: certify_pullback_obstruction(8, m, 2),
    lambda m: certify_shear(build_cover(5, 1, m), 1),
], ids=["MinusIdentity", "SigmaT", "PullbackObstruction", "ShearMembership"])
def test_a_certificate_of_one_sheet_revalidates_to_its_own_verdict(certify):
    # the certifiers take any monodromy, one sheet too, and the reader
    # reads what they write
    cert = certify(Monodromy(4, 1, {}))
    assert cert.to_json()["d"] == 1
    assert revalidate(_roundtrip(cert)) == cert.verdict


@pytest.mark.parametrize("n", [8, 10, 12])
def test_an_intransitive_monodromy_pulls_back_to_no_relabeling_of_itself(n):
    # _pullback_rule passes an intransitive monodromy without pulling it
    # back: the pullback it skips is intransitive too, and not isomorphic
    rng = random.Random(n)
    g = num_generators(n)
    for _ in range(40):
        d = rng.randint(2, 6)
        cut = rng.randint(1, d - 1)  # no image mixes sheets below cut with those above
        images = {}
        for i in rng.sample(range(g), rng.randint(0, g)):
            low, high = list(range(cut)), list(range(cut, d))
            rng.shuffle(low), rng.shuffle(high)
            images[i] = (*low, *high)
        m = Monodromy(g, d, images)
        for l in range(2, n, 2):
            pulled = m.pullback(rotation_images(n, l // 2))
            assert not pulled.is_transitive()
            assert not certificates._covers_isomorphic(m.images, pulled.images, d)
            assert certificates._pullback_rule(n, l, m) == ("pass", None)


# ---------------------------------------------------------------------------
# integer cylinder types: one exact key per value and n


def test_type_ids_are_exact_types():
    types = certificates._Types(5)
    mu = lambda_n(5)
    height = 2 * field.sin_pi_over(5)
    m, h = types.index(mu), types.index(height)
    i = (types.scale(m, 2), h)
    # another lift of the same exact type, and equal values from other objects
    assert (types.scale(types.index(2 * mu), 1), h) == i
    assert types.index(RealAlg.from_json(mu.to_json(sparse=True), 20)) == m
    assert types.index(1 * height) == h
    # 2 * lambda_5 is twice mu, so mu twists twice, 2 * mu once, a strip never
    assert [types._twists[v] for v in (m, i[0], types.scale(m, 0))] == [2, 1, None]
    assert (types.exact[i[0]], types.exact[i[1]]) == (2 * mu, height)
    h2 = types.index(2 * height)
    others = {(types.scale(m, 1), h), (types.scale(m, 1), h2), (types.scale(m, 2), h2),
              (types.scale(m, 0), h)}
    assert i not in others and len(others) == 4
    # rows in exact-key order, witnesses in exact order
    ids = others | {i}
    pair = {j: (types.exact[j[0]], types.exact[j[1]]) for j in ids}
    keys = {j: (pair[j][0].key(), pair[j][1].key()) for j in ids}
    assert [keys[j] for j in types.ordered(ids)] == sorted(keys.values())
    for j in ids:
        for k in ids:
            if j != k:
                assert types.exceeds(j, k) == (pair[j] > pair[k]), (j, k)


@pytest.mark.parametrize("kwargs", [{"d": 2}, {"d": 5}, {"d": 48}, {"infinite": True}])
def test_a_warm_theorem_keys_no_exact_value(monkeypatch, kwargs):
    # the first theorem of n types every value; profiles, rows, rules and
    # the value table of the second one do integer work only
    verify_theorem(16, **kwargs)
    keyed = []
    key = field.CycloNumber.key
    monkeypatch.setattr(field.CycloNumber, "key", lambda self: keyed.append(self) or key(self))
    cert = verify_theorem(16, **kwargs)
    cert.to_json()
    assert cert.verdict == "pass"
    assert keyed == []


def test_lift_plans_key_each_value_object_once(monkeypatch):
    # the directions derived from v_0 share its value objects, which a
    # type table finds by identity: the plans of every direction key no
    # more values than they name objects, not one per cylinder
    n = 61
    cylinders = [c for l in range(n) for c in base_decomposition(n, l)]
    objects = {id(x) for c in cylinders for x in (c.inverse_modulus, c.height)}
    types = certificates._Types(n)
    types.factor  # made before the count
    keyed = []
    key = field.CycloNumber.key
    monkeypatch.setattr(field.CycloNumber, "key", lambda self: keyed.append(self) or key(self))
    moving = [*standard_monodromy(n, 3)._moving]
    for l in range(n):
        types.lifts(l, moving)
    assert len(keyed) <= len(objects) < len(cylinders)


@pytest.mark.parametrize("n,d", [(9, 3), (9, 4), (14, 5), (16, 8), (16, 2)])
def test_warm_verify_and_revalidate_hash_and_compare_no_value(monkeypatch, n, d):
    # values are told apart by their index in _types(n), which a warm
    # call reads by int only; a warm revalidate finds each table entry by
    # its pairs, and keys no value
    text = json.dumps(verify_theorem(n, d).to_json())
    assert revalidate(json.loads(text)) == "pass"
    calls = []
    for name in ("__hash__", "__eq__", "key"):
        method = getattr(field.CycloNumber, name)
        monkeypatch.setattr(field.CycloNumber, name,
                            lambda self, *other, _m=method, _n=name: calls.append(_n)
                            or _m(self, *other))
    assert json.dumps(verify_theorem(n, d).to_json()) == text
    assert revalidate(json.loads(text)) == "pass"
    assert calls == []


def test_revalidate_reads_each_slot_once(monkeypatch):
    data = _roundtrip(verify_theorem(9, 4))
    read = []
    slot = revalidation._slot
    monkeypatch.setattr(revalidation, "_slot", lambda s: read.append(s["kind"]) or slot(s))
    assert revalidate(data) == "pass"
    assert len(read) == len(data["payload"]["subcertificates"]) + 1


def test_standalone_well_formed_cover_is_checked():
    # its evidence is the images section: they must act transitively on
    # exactly d sheets, alone as inside the theorem
    theorem = _roundtrip(verify_theorem(5, 3))
    cover = _standalone(theorem, _sub(theorem, "WellFormedCover"))
    assert cover["verdict"] == "pass" and revalidate(cover) == "pass"
    with pytest.raises(MalformedCertificate, match="does not permute the 4 sheets"):
        revalidate(dict(cover, d=4))
    assert revalidate(dict(cover, images=cover["images"][:1])) == "fail"
    # without the images it has no evidence
    probe = {"format": certificates.FORMAT, "conductor": 20, "values": [],
             "kind": "WellFormedCover", "n": 5, "d": 3, "verdict": "pass", "payload": {},
             "witnesses": []}
    with pytest.raises(MalformedCertificate, match="images"):
        revalidate(probe)


def test_an_intransitive_cover_is_reported_in_one_text():
    # build_cover raises, and the WellFormedCover rule fails, with one reason
    m = Monodromy(4, 3, {2: sigma_d1(3)})
    with pytest.raises(IntransitiveMonodromy) as raised:
        build_cover(5, 3, m)
    verdict, witness = certificates._well_formed_rule(m, 3)
    assert verdict == "fail"
    assert str(raised.value) == witness["reason"] == "monodromy image is not transitive on 3 sheets"


def test_equal_table_entries_are_one_value():
    theorem = _roundtrip(verify_theorem(7, 4))
    rotation = copy.deepcopy(_standalone(theorem, _sub(theorem, "RotationObstruction")))
    assert revalidate(rotation) == "pass"
    # the direction rows become the horizontal ones, naming copies of their
    # values: the multisets agree
    values, copies, rows = rotation["values"], {}, []
    for row in rotation["horizontal"]:
        row = dict(row)
        for k in ("inverse_modulus", "height"):
            if row[k] not in copies:
                copies[row[k]] = len(values)
                values.append(copy.deepcopy(values[row[k]]))
            row[k] = copies[row[k]]
        rows.append(row)
    rotation["payload"]["direction"] = rows
    assert revalidate(rotation) == "inconclusive"


def _exact_multiset(table, rows):
    return {(table[r["inverse_modulus"]], table[r["height"]]): r["count"] for r in rows}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_revalidate_agrees_with_verify_on_random_monodromies(data):
    n, m = _random_transitive_monodromy(data, ns=(5, 7, 8, 9), max_d=6)
    cert = verify_theorem(n, m.degree, monodromy=m)
    doc = _roundtrip(cert)
    assert revalidate(doc) == cert.verdict
    table = _table(doc)
    for sub in doc["payload"]["subcertificates"]:
        assert revalidate(_standalone(doc, sub)) == sub["verdict"], sub["kind"]
        if sub["kind"] == "RotationObstruction" and sub["verdict"] == "pass":
            # the witness is the largest differing type, in exact order
            h = _exact_multiset(table, doc["horizontal"])
            d = _exact_multiset(table, sub["payload"]["direction"])
            differing = [t for t in {**h, **d} if h.get(t, 0) != d.get(t, 0)]
            w = sub["witnesses"][0]
            assert (table[w["inverse_modulus"]], table[w["height"]]) == max(differing)
