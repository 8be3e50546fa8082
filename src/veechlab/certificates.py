"""Machine-checkable certificates for the Veech-group theorems.

Each certificate is self-checking: a pass verdict can be re-derived
from the payload alone via revalidate().  verify_theorem aggregates the
per-step certificates into a verdict for one (n, d) or (n, infinity):

  * ShearMembership   - every cylinder in the shear direction is
                        twisted an integer number of times by the
                        target factor;
  * SigmaT            - the copy permutation that makes the single
                        twist (horizontal, and vertical for even n)
                        compatible with the gluings exists;
  * MinusIdentity     - the marked monodromy images are involutions;
  * RotationObstruction - the (inverse modulus, height) multiset in
                        direction v_l differs from the horizontal one,
                        so no rotation derivative can exist;
  * Index             - coset enumeration gives the expected index.

Non-membership certificates for user-supplied monodromies may come out
"inconclusive" (equal multisets prove nothing); the standard family
never does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import perms
from .coset import coset_enumerate
from .covering import (
    CoveringSurface,
    Monodromy,
    base_decomposition,
    build_cover,
    lifted_cylinders,
    monodromy_indices,
    sigma_d1,
    sigma_d2,
    standard_monodromy,
)
from .errors import IntransitiveMonodromy
from .field import RealAlg, lambda_n
from .quotient import quotient_invariants
from .veech import presentation_for, subgroup_words
from .zcover import ZMonodromy, ZPermutation, sigma_T_infinite, std_infinite_monodromy

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass
class Certificate:
    kind: str
    n: int
    d: object  # int or "inf" or None
    verdict: str
    payload: dict = field(default_factory=dict)
    witness: object = None

    def ok(self) -> bool:
        return self.verdict == PASS

    def to_json(self):
        return {
            "kind": self.kind,
            "n": self.n,
            "d": self.d,
            "verdict": self.verdict,
            "payload": self.payload,
            "witnesses": [] if self.witness is None else [self.witness],
        }


def _alg(x: RealAlg):
    return x.to_json()


def _sorted_multiset(counter: dict) -> list:
    # counter maps (mod RealAlg, height RealAlg) -> count (int or None)
    entries = []
    for (mod, height), count in counter.items():
        entries.append(
            {
                "inverse_modulus": _alg(mod),
                "height": _alg(height),
                "count": count,
            }
        )
    entries.sort(key=lambda e: (e["inverse_modulus"]["approx"], e["height"]["approx"]))
    return entries


# ---------------------------------------------------------------------------
# cylinder profiles of covers, finite and infinite degree


def _finite_profile(n: int, monodromy: Monodromy, l: int):
    """(inverse modulus, height) pairs with multiplicities for Y in v_l."""
    counter = {}
    for cyl, a in lifted_cylinders(n, monodromy, l):
        mod = a * cyl.inverse_modulus
        slot = counter.setdefault((mod.key(), cyl.height.key()), [(mod, cyl.height), 0])
        slot[1] += 1
    return counter


def _infinite_profile(n: int, zm: ZMonodromy, l: int):
    """Like _finite_profile for d = infinity.

    Returns (finite_types, infinite_heights): finite cylinders come in
    infinitely many copies per type (count None); infinite cylinders
    are counted exactly (orbits of the shift are finitely many).
    """
    finite_types = {}
    infinite_heights = {}
    for cyl in base_decomposition(n, l):
        zp = zm.eval_word(cyl.core_word)
        if zp.is_identity():
            key = (cyl.inverse_modulus, cyl.height)
            finite_types[(key[0].key(), key[1].key())] = (key, None)
        elif zp.swaps_parity() and zp.t_even + zp.t_odd == 0:
            key = (2 * cyl.inverse_modulus, cyl.height)
            finite_types[(key[0].key(), key[1].key())] = (key, None)
        else:
            count = zp.orbit_count()
            slot = infinite_heights.setdefault(cyl.height.key(), [cyl.height, 0])
            slot[1] += count if count is not None else 0
    return finite_types, infinite_heights


# ---------------------------------------------------------------------------
# individual certificates


def _integer_quotient(factor: RealAlg, modulus: RealAlg):
    q = factor / modulus
    if q.is_integer() and q.sign() > 0:
        return int(q.as_rational())
    return None


def _shear_certificate(n: int, d, l: int, factor: RealAlg | None, types) -> Certificate:
    """ShearMembership from ((inverse modulus, height), count) cylinder types."""
    if factor is None:
        factor = 2 * lambda_n(n)
    rows = []
    verdict = PASS
    witness = None
    for (mod, height), count in types:
        twists = _integer_quotient(factor, mod)
        rows.append(
            {
                "inverse_modulus": _alg(mod),
                "height": _alg(height),
                "count": count,
                "twists": twists,
            }
        )
        if twists is None and verdict == PASS:
            verdict = FAIL
            witness = {"inverse_modulus": _alg(mod), "reason": "non-integer twist"}
    rows.sort(key=lambda r: (r["inverse_modulus"]["approx"], r["height"]["approx"]))
    return Certificate(
        kind="ShearMembership",
        n=n,
        d=d,
        verdict=verdict,
        payload={"l": l, "factor": _alg(factor), "cylinders": rows},
        witness=witness,
    )


def certify_shear(cover: CoveringSurface, l: int, factor: RealAlg | None = None) -> Certificate:
    """Integer twist counts for the factor-2*lambda shear in direction v_l."""
    types = _finite_profile(cover.n, cover.monodromy, l).values()
    return _shear_certificate(cover.n, cover.d, l, factor, types)


def certify_shear_infinite(n: int, l: int, factor: RealAlg | None = None) -> Certificate:
    finite_types, infinite_heights = _infinite_profile(n, std_infinite_monodromy(n), l)
    cert = _shear_certificate(n, "inf", l, factor, finite_types.values())
    if infinite_heights:
        cert.verdict = FAIL
        cert.witness = {"reason": "infinite cylinder in shear direction", "l": l}
    return cert


def certify_rotation_obstruction(cover: CoveringSurface, l: int) -> Certificate:
    """No rotation derivative R^l: moduli/height multisets must differ."""
    return _rotation_obstruction(cover, l, _finite_profile(cover.n, cover.monodromy, 0))


def _rotation_obstruction(cover: CoveringSurface, l: int, horizontal: dict) -> Certificate:
    # horizontal is the cover's direction-0 profile, shared by every l
    n = cover.n
    direction = _finite_profile(n, cover.monodromy, l)
    h_counts = {k: v[1] for k, v in horizontal.items()}
    d_counts = {k: v[1] for k, v in direction.items()}
    if h_counts != d_counts:
        verdict = PASS
        diff_keys = {k for k in set(h_counts) | set(d_counts)
                     if h_counts.get(k, 0) != d_counts.get(k, 0)}
        # the most telling witness: the largest inverse modulus that differs
        pairs = {**{k: v[0] for k, v in horizontal.items()},
                 **{k: v[0] for k, v in direction.items()}}
        wk = max(diff_keys, key=lambda k: (float(pairs[k][0]), float(pairs[k][1])))
        mod, height = pairs[wk]
        witness = {
            "inverse_modulus": _alg(mod),
            "height": _alg(height),
            "horizontal_count": h_counts.get(wk, 0),
            "direction_count": d_counts.get(wk, 0),
        }
    else:
        verdict = INCONCLUSIVE
        witness = {"reason": "multisets agree; rotation not excluded by this invariant"}
    payload = {
        "l": l,
        "horizontal": _sorted_multiset({pair: cnt for pair, cnt in horizontal.values()}),
        "direction": _sorted_multiset({pair: cnt for pair, cnt in direction.values()}),
    }
    return Certificate(
        kind="RotationObstruction", n=n, d=cover.d, verdict=verdict,
        payload=payload, witness=witness,
    )


def certify_rotation_obstruction_infinite(n: int, l: int) -> Certificate:
    zm = std_infinite_monodromy(n)
    return _rotation_obstruction_infinite(n, l, zm, _infinite_profile(n, zm, 0)[1])


def _rotation_obstruction_infinite(n: int, l: int, zm: ZMonodromy, h_inf: dict) -> Certificate:
    # h_inf holds the infinite cylinders of direction 0, shared by every l
    _, d_inf = _infinite_profile(n, zm, l)
    h_counts = {k: v[1] for k, v in h_inf.items()}
    d_counts = {k: v[1] for k, v in d_inf.items()}
    if h_counts != d_counts:
        verdict = PASS
        witness = {"reason": "infinite-cylinder heights differ between directions"}
    else:
        verdict = INCONCLUSIVE
        witness = {"reason": "infinite-cylinder profiles agree"}
    payload = {
        "l": l,
        "horizontal_infinite": _sorted_multiset(
            {(RealAlg.zero(4 * n) + 0, h): c for h, c in h_inf.values()}
        ),
        "direction_infinite": _sorted_multiset(
            {(RealAlg.zero(4 * n) + 0, h): c for h, c in d_inf.values()}
        ),
    }
    return Certificate(
        kind="RotationObstruction", n=n, d="inf", verdict=verdict,
        payload=payload, witness=witness,
    )


def _even_rotation_images(n: int, a: int):
    """Action of the order-n/2 rotation of the even base on pi_1.

    The affine map with derivative R^2 fixes the centre (the base
    point) and shifts side labels by one, so on generators
    x_i -> x_{i+1} for i < n/2 - 1 and x_{n/2-1} -> x_0^-1; this
    returns the a-th power of that substitution.
    """
    from .words import Word

    half = n // 2
    step = [
        Word.generator(i + 1) if i + 1 < half else Word.generator(0).inverse()
        for i in range(half)
    ]

    def substitute(word, images):
        letters = []
        for g, s in word:
            img = images[g] if s > 0 else images[g].inverse()
            letters.extend(img.letters)
        return Word(letters)

    current = [Word.generator(i) for i in range(half)]
    for _ in range(a % n):
        current = [substitute(w, step) for w in current]
    return current


def _covers_isomorphic(images1: dict, images2: dict, d: int) -> bool:
    """Whether two transitive monodromies differ by a sheet relabeling."""
    gens = sorted(images1)
    pairs = []
    for g in gens:
        pairs.append((images1[g], images2[g]))
        pairs.append((perms.inverse(images1[g]), perms.inverse(images2[g])))
    for t in range(d):
        sigma = {0: t}
        frontier = [0]
        consistent = True
        while frontier and consistent:
            x = frontier.pop()
            for p1, p2 in pairs:
                y = p2[x]
                target = p1[sigma[x]]
                if y in sigma:
                    if sigma[y] != target:
                        consistent = False
                        break
                else:
                    sigma[y] = target
                    frontier.append(y)
        if not consistent or len(sigma) != d:
            continue
        if len(set(sigma.values())) != d:
            continue
        if all(sigma[p2[x]] == p1[sigma[x]] for p1, p2 in pairs for x in range(d)):
            return True
    return False


def certify_pullback_obstruction(n: int, monodromy: Monodromy, l: int) -> Certificate:
    """Obstruct R^l (even l, even n) via the covering structure.

    An affine map of the cover with derivative R^l descends to the
    primitive base, so the pullback of the cover under the base
    rotation would have to be isomorphic to the cover itself, i.e. the
    monodromies conjugate under a sheet relabeling.  Passing means the
    pullback is NOT isomorphic, which excludes the rotation; used when
    the moduli/height multisets alone are inconclusive.
    """
    if n % 2 or l % 2:
        raise ValueError("pullback obstruction applies to even n and even l")
    a = l // 2
    images = _even_rotation_images(n, a)
    pulled = {i: monodromy.eval_word(images[i]) for i in range(n // 2)}
    original = {i: monodromy.image(i) for i in range(n // 2)}
    iso = _covers_isomorphic(original, pulled, monodromy.degree)
    verdict = INCONCLUSIVE if iso else PASS
    return Certificate(
        kind="PullbackObstruction",
        n=n,
        d=monodromy.degree,
        verdict=verdict,
        payload={
            "l": l,
            "original": {str(i): list(p) for i, p in sorted(original.items())},
            "pullback": {str(i): list(p) for i, p in sorted(pulled.items())},
        },
        witness=None if verdict == PASS else {
            "reason": "pullback cover is isomorphic; rotation not excluded"
        },
    )


def sigma_T_claim(d: int) -> tuple:
    """The claimed copy permutation: (1 3 5 ... d-1) for even d,
    (sigma_2 o sigma_1)^((d-1)/2) for odd d."""
    if d % 2 == 0:
        return perms.from_cycles(d, [tuple(range(1, d, 2))])
    suc = perms.compose(sigma_d1(d), sigma_d2(d))
    return perms.power(suc, (d - 1) // 2)


def _check_sigma_conditions(sig1, sig2, sigma_T, mode: str):
    """The two compatibility conditions, as exact permutation identities."""
    if mode == "horizontal":
        suc = perms.compose(sig1, sig2)  # m(x_k1 x_k2^-1), sigmas are involutions
        cond1 = perms.compose(suc, sigma_T) == perms.compose(sigma_T, suc)
        cond2 = perms.compose(sigma_T, sig1) == perms.compose(sig2, sigma_T)
        return cond1, cond2
    # vertical: suc = sigma1(sigma2(.)), second condition uses sigma2 and pred
    suc = perms.compose(sig2, sig1)
    pred = perms.inverse(suc)
    cond1 = perms.compose(suc, sigma_T) == perms.compose(sigma_T, suc)
    cond2 = perms.compose(sigma_T, sig2) == perms.compose(pred, perms.compose(sig2, sigma_T))
    return cond1, cond2


def certify_sigma_T(n: int, d: int, mode: str = "horizontal",
                    monodromy: Monodromy | None = None) -> Certificate:
    """Existence of the copy permutation behind the single-twist maps.

    horizontal: sigma_T itself; vertical (even n special direction):
    the same conditions hold for sigma_T^-1.
    """
    if monodromy is None:
        monodromy = standard_monodromy(n, d)
    k1, k2 = monodromy.k1, monodromy.k2
    if k1 is None:
        k1, k2 = monodromy_indices(n)
    sig1 = monodromy.image(k1)
    sig2 = monodromy.image(k2)
    sigma = sigma_T_claim(d)
    if mode == "vertical":
        sigma = perms.inverse(sigma)
    cond1, cond2 = _check_sigma_conditions(sig1, sig2, sigma, mode)
    verdict = PASS if (cond1 and cond2) else FAIL
    witness = None if verdict == PASS else {"cond1": cond1, "cond2": cond2}
    return Certificate(
        kind="SigmaT",
        n=n,
        d=d,
        verdict=verdict,
        payload={
            "mode": mode,
            "sigma_T": list(sigma),
            "sigma1": list(sig1),
            "sigma2": list(sig2),
        },
        witness=witness,
    )


def _zperm_conditions(sig1: ZPermutation, sig2: ZPermutation, sigma: ZPermutation, mode: str):
    if mode == "horizontal":
        suc = sig2.compose(sig1)
        cond1 = sigma.compose(suc) == suc.compose(sigma)
        cond2 = sig1.compose(sigma) == sigma.compose(sig2)
        return cond1, cond2
    suc = sig1.compose(sig2)
    pred = suc.inverse()
    cond1 = sigma.compose(suc) == suc.compose(sigma)
    cond2 = sig2.compose(sigma) == sigma.compose(sig2).compose(pred)
    return cond1, cond2


def certify_sigma_T_infinite(n: int, mode: str = "horizontal") -> Certificate:
    zm = std_infinite_monodromy(n)
    sig1 = zm.image(zm.k1)
    sig2 = zm.image(zm.k2)
    sigma = sigma_T_infinite()
    if mode == "vertical":
        sigma = sigma.inverse()
    cond1, cond2 = _zperm_conditions(sig1, sig2, sigma, mode)
    verdict = PASS if (cond1 and cond2) else FAIL
    return Certificate(
        kind="SigmaT",
        n=n,
        d="inf",
        verdict=verdict,
        payload={
            "mode": mode,
            "sigma_T": sigma.to_json(),
            "sigma1": sig1.to_json(),
            "sigma2": sig2.to_json(),
        },
        witness=None if verdict == PASS else {"cond1": cond1, "cond2": cond2},
    )


def certify_minus_identity(cover: CoveringSurface) -> Certificate:
    """-I lifts iff every generator's monodromy image is an involution."""
    m = cover.monodromy
    images = []
    verdict = PASS
    witness = None
    for i in sorted(m.images):
        p = m.image(i)
        images.append({"generator": i, "image": list(p)})
        if not perms.is_involution(p) and verdict == PASS:
            verdict = FAIL
            witness = {"generator": i, "image": list(p), "reason": "not an involution"}
    return Certificate(
        kind="MinusIdentity", n=cover.n, d=cover.d, verdict=verdict,
        payload={"images": images}, witness=witness,
    )


def certify_minus_identity_infinite(n: int) -> Certificate:
    zm = std_infinite_monodromy(n)
    verdict = PASS
    witness = None
    images = []
    for i in sorted(zm.images):
        zp = zm.image(i)
        images.append({"generator": i, "image": zp.to_json()})
        if not zp.is_involution() and verdict == PASS:
            verdict = FAIL
            witness = {"generator": i, "reason": "not an involution"}
    return Certificate(
        kind="MinusIdentity", n=n, d="inf", verdict=verdict,
        payload={"images": images}, witness=witness,
    )


def certify_index(n: int) -> Certificate:
    """Coset enumeration of the covers' Veech group in Gamma(X_n)."""
    expected = n if n % 2 else n // 2
    table = coset_enumerate(presentation_for(n), subgroup_words(n))
    verdict = PASS if table.index == expected else FAIL
    return Certificate(
        kind="Index",
        n=n,
        d=None,
        verdict=verdict,
        payload={"expected_index": expected, "index": table.index, "table": table.to_json()},
        witness=None if verdict == PASS else {"index": table.index},
    )


# ---------------------------------------------------------------------------
# theorem aggregation


def _shear_direction_indices(n: int):
    if n % 2:
        return list(range(1, (n - 1) // 2 + 1))
    return [l for l in range(1, n) if l != n // 2]


def _obstruction_direction_indices(n: int):
    if n % 2:
        return list(range(1, n))
    return [2 * l for l in range(1, n // 2)]


def _aggregate(n: int, d, subs: list) -> Certificate:
    verdict = PASS
    witness = None
    for sub in subs:
        if sub.verdict == FAIL:
            verdict = FAIL
            witness = {"failed": sub.kind, "witness": sub.witness}
            break
        if sub.verdict == INCONCLUSIVE and verdict == PASS:
            verdict = INCONCLUSIVE
            witness = {"inconclusive": sub.kind, "witness": sub.witness}
    payload = {"subcertificates": [s.to_json() for s in subs]}
    return Certificate(
        kind="FullTheorem", n=n, d=d, verdict=verdict, payload=payload, witness=witness
    )


def verify_theorem(n: int, d: int | None = None, infinite: bool = False,
                   monodromy: Monodromy | None = None) -> Certificate:
    """Certify Gamma(Y_{n,d}) = Gamma_n for one n and degree (or infinity)."""
    if infinite:
        return _verify_infinite(n)
    if d is None or d < 2:
        raise ValueError("finite verification needs d >= 2")
    try:
        cover = build_cover(n, d, monodromy)
    except IntransitiveMonodromy as exc:
        bad = Certificate(
            kind="WellFormedCover", n=n, d=d, verdict=FAIL,
            payload={}, witness={"reason": str(exc)},
        )
        return _aggregate(n, d, [bad])
    subs = [
        Certificate(kind="WellFormedCover", n=n, d=d, verdict=PASS,
                    payload={"polygons": d * len(cover.base.polygons)}),
    ]
    for l in _shear_direction_indices(n):
        subs.append(certify_shear(cover, l))
    subs.append(certify_sigma_T(n, d, "horizontal", cover.monodromy))
    if n % 2 == 0:
        subs.append(certify_sigma_T(n, d, "vertical", cover.monodromy))
    subs.append(certify_minus_identity(cover))
    horizontal = _finite_profile(n, cover.monodromy, 0)
    for l in _obstruction_direction_indices(n):
        sub = _rotation_obstruction(cover, l, horizontal)
        if sub.verdict == INCONCLUSIVE and n % 2 == 0:
            # the multiset invariant is blind here (it happens for d = 2
            # in the vertical direction); fall back to the covering-
            # structure obstruction
            sub = certify_pullback_obstruction(n, cover.monodromy, l)
        subs.append(sub)
    subs.append(certify_index(n))
    cert = _aggregate(n, d, subs)
    if cert.verdict == PASS:
        cert.payload["statement"] = "Gamma(Y_%d,%d) = Gamma_%d certified" % (n, d, n)
    return cert


def _verify_infinite(n: int) -> Certificate:
    zm = std_infinite_monodromy(n)
    subs = []
    for l in _shear_direction_indices(n):
        subs.append(certify_shear_infinite(n, l))
    subs.append(certify_sigma_T_infinite(n, "horizontal"))
    if n % 2 == 0:
        subs.append(certify_sigma_T_infinite(n, "vertical"))
    subs.append(certify_minus_identity_infinite(n))
    _, h_inf = _infinite_profile(n, zm, 0)
    for l in _obstruction_direction_indices(n):
        subs.append(_rotation_obstruction_infinite(n, l, zm, h_inf))
    subs.append(certify_index(n))
    cert = _aggregate(n, "inf", subs)
    # key obstruction evidence: the core of cylinder k lifts to exactly
    # two infinite cylinders
    k1, k2 = monodromy_indices(n)
    from .words import Word

    suc = zm.eval_word(Word.generator(k1) * Word.generator(k2).inverse())
    cert.payload["infinite_preimages_of_cylinder_k"] = suc.orbit_count()
    if suc.orbit_count() != 2:
        cert.verdict = FAIL
        cert.witness = {"reason": "cylinder k does not have two infinite preimages"}
    if cert.verdict == PASS:
        cert.payload["statement"] = "Gamma(Y_%d,inf) = Gamma_%d certified" % (n, n)
    return cert


def verify_quotient(n: int):
    """Quotient invariants of H/Gamma_n from the coset action."""
    table = coset_enumerate(presentation_for(n), subgroup_words(n))
    return quotient_invariants(table)


# ---------------------------------------------------------------------------
# mutation testing support


def mutated_sigma1(d: int) -> tuple:
    """sigma_{d,1} with one transposition changed.

    The leading transposition (0 1) becomes (1 2); for d >= 4 the result
    overlaps the next pair and stops being an involution, for d = 3 it
    disconnects the cover, and for d = 2 (where no other transposition
    of {0, 1} exists) the transposition is dropped, again disconnecting
    the cover.  Replacements like (0 1) -> (0 2) are useless for d = 3:
    they give a conjugate monodromy, i.e. the same cover relabelled.
    """
    if d == 2:
        return perms.identity(2)
    top = d if d % 2 == 0 else d - 1
    out = perms.from_cycles(d, [(1, 2)])
    for i in range(2, top - 1, 2):
        out = perms.compose(out, perms.from_cycles(d, [(i, i + 1)]))
    return out


def mutated_monodromy(n: int, d: int) -> Monodromy:
    k1, k2 = monodromy_indices(n)
    num = n - 1 if n % 2 else n // 2
    return Monodromy(num, d, {k1: mutated_sigma1(d), k2: sigma_d2(d)}, k1=k1, k2=k2)


# ---------------------------------------------------------------------------
# revalidation from payload


def _parse_counts(entries):
    counter = {}
    for e in entries:
        mod = RealAlg.from_json(e["inverse_modulus"])
        height = RealAlg.from_json(e["height"])
        counter[(mod.key(), height.key())] = e["count"]
    return counter


def revalidate(data: dict) -> str:
    """Recompute a certificate's verdict from its JSON payload."""
    kind = data["kind"]
    payload = data["payload"]
    if kind == "ShearMembership":
        factor = RealAlg.from_json(payload["factor"])
        for row in payload["cylinders"]:
            mod = RealAlg.from_json(row["inverse_modulus"])
            twists = row["twists"]
            if twists is None or twists < 1:
                return FAIL
            if not (factor - twists * mod).is_zero():
                return FAIL
        return PASS
    if kind == "RotationObstruction":
        if "horizontal" in payload:
            a = _parse_counts(payload["horizontal"])
            b = _parse_counts(payload["direction"])
        else:
            a = _parse_counts(payload["horizontal_infinite"])
            b = _parse_counts(payload["direction_infinite"])
        return PASS if a != b else INCONCLUSIVE
    if kind == "SigmaT":
        mode = payload["mode"]
        if data["d"] == "inf":
            sig1 = ZPermutation(**payload["sigma1"])
            sig2 = ZPermutation(**payload["sigma2"])
            sigma = ZPermutation(**payload["sigma_T"])
            cond1, cond2 = _zperm_conditions(sig1, sig2, sigma, mode)
        else:
            sig1 = tuple(payload["sigma1"])
            sig2 = tuple(payload["sigma2"])
            sigma = tuple(payload["sigma_T"])
            cond1, cond2 = _check_sigma_conditions(sig1, sig2, sigma, mode)
        return PASS if (cond1 and cond2) else FAIL
    if kind == "MinusIdentity":
        for entry in payload["images"]:
            image = entry["image"]
            if isinstance(image, dict):
                if not ZPermutation(**image).is_involution():
                    return FAIL
            elif not perms.is_involution(tuple(image)):
                return FAIL
        return PASS
    if kind == "Index":
        table = coset_enumerate(presentation_for(data["n"]), subgroup_words(data["n"]))
        if table.index != payload["expected_index"] or table.index != payload["index"]:
            return FAIL
        return PASS
    if kind == "PullbackObstruction":
        original = {int(i): tuple(p) for i, p in payload["original"].items()}
        pulled = {int(i): tuple(p) for i, p in payload["pullback"].items()}
        d = len(next(iter(original.values())))
        return INCONCLUSIVE if _covers_isomorphic(original, pulled, d) else PASS
    if kind == "WellFormedCover":
        return data["verdict"]
    if kind == "FullTheorem":
        verdict = PASS
        for sub in payload["subcertificates"]:
            v = revalidate(sub)
            if v == FAIL:
                return FAIL
            if v == INCONCLUSIVE:
                verdict = INCONCLUSIVE
        return verdict
    raise ValueError("unknown certificate kind %r" % kind)
