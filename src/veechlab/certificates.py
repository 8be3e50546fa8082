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
  * PullbackObstruction - the cover pulled back under the rotation is
                        not a relabeling of itself (even n fallback);
  * Index             - coset enumeration gives the expected index.

Every verdict comes from one rule per kind (the ``_*_rule`` functions
below) over native values: the certify_* functions apply it to what
they computed, revalidate() to what it parsed from the payload.

Non-membership certificates for user-supplied monodromies may come out
"inconclusive" (equal multisets prove nothing); the standard family
never does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

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
from .words import Word
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


class _Perm:
    """The one place where the two permutation types differ.

    Finite covers permute sheets {0, ..., d-1} as tuples (module perms,
    where compose(a, b) is a followed by b); Y_{n,inf} permutes Z by
    ZPermutation, whose a.compose(b) applies a after b.
    """

    @staticmethod
    def then(a, b):
        """a followed by b."""
        return b.compose(a) if isinstance(a, ZPermutation) else perms.compose(a, b)

    @staticmethod
    def inverse(p):
        return p.inverse() if isinstance(p, ZPermutation) else perms.inverse(p)

    @staticmethod
    def is_involution(p) -> bool:
        return p.is_involution() if isinstance(p, ZPermutation) else perms.is_involution(p)

    @staticmethod
    def to_json(p):
        return p.to_json() if isinstance(p, ZPermutation) else list(p)

    @staticmethod
    def from_json(data):
        return ZPermutation(**data) if isinstance(data, dict) else tuple(data)


def _multiset_rows(types: dict) -> list:
    # types maps exact key -> ((inverse modulus, height), count or None)
    rows = [
        {"inverse_modulus": mod.to_json(), "height": height.to_json(), "count": count}
        for (mod, height), count in types.values()
    ]
    rows.sort(key=lambda e: (e["inverse_modulus"]["approx"], e["height"]["approx"]))
    return rows


def _parse_multiset(rows) -> dict:
    types = {}
    for e in rows:
        mod = RealAlg.from_json(e["inverse_modulus"])
        height = RealAlg.from_json(e["height"])
        types[(mod.key(), height.key())] = ((mod, height), e["count"])
    return types


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

    Returns (finite_types, infinite_types): finite cylinders come in
    infinitely many copies per type (count None); infinite cylinders
    have no modulus (typed (0, height)) and are counted exactly (orbits
    of the shift are finitely many).
    """
    zero = RealAlg.zero(4 * n)
    finite_types = {}
    infinite_types = {}
    for cyl in base_decomposition(n, l):
        zp = zm.eval_word(cyl.core_word)
        if zp.is_identity():
            pair = (cyl.inverse_modulus, cyl.height)
            finite_types[(pair[0].key(), pair[1].key())] = (pair, None)
        elif zp.swaps_parity() and zp.t_even + zp.t_odd == 0:
            pair = (2 * cyl.inverse_modulus, cyl.height)
            finite_types[(pair[0].key(), pair[1].key())] = (pair, None)
        else:
            count = zp.orbit_count()
            slot = infinite_types.setdefault(
                (zero.key(), cyl.height.key()), [(zero, cyl.height), 0]
            )
            slot[1] += count if count is not None else 0
    return finite_types, infinite_types


# ---------------------------------------------------------------------------
# verdict rules, one per certificate kind; each returns (verdict, witness)


def _shear_rule(factor: RealAlg, rows, l: int, infinite_cylinders: bool = False):
    """ShearMembership: every (inverse modulus, twist count) row must have
    a positive integer count k with k * inverse modulus == factor.

    An infinite cylinder (d = inf) admits no twist at all; the payload
    does not list infinite cylinders, so only the certifier sees them.
    """
    if infinite_cylinders:
        return FAIL, {"reason": "infinite cylinder in shear direction", "l": l}
    for mod, twists in rows:
        if twists is None or twists < 1 or not (factor - twists * mod).is_zero():
            return FAIL, {"inverse_modulus": mod.to_json(), "reason": "non-integer twist"}
    return PASS, None


def _sigma_rule(sig1, sig2, sigma, mode: str):
    """SigmaT: the two compatibility conditions, as exact permutation identities."""
    then = _Perm.then
    if mode == "horizontal":
        suc = then(sig1, sig2)  # m(x_k1 x_k2^-1), sigmas are involutions
        cond1 = then(suc, sigma) == then(sigma, suc)
        cond2 = then(sigma, sig1) == then(sig2, sigma)
    else:
        # vertical: suc = sigma1(sigma2(.)), second condition uses sigma2 and pred
        suc = then(sig2, sig1)
        cond1 = then(suc, sigma) == then(sigma, suc)
        cond2 = then(sigma, sig2) == then(_Perm.inverse(suc), then(sig2, sigma))
    if cond1 and cond2:
        return PASS, None
    return FAIL, {"cond1": cond1, "cond2": cond2}


def _minus_identity_rule(images):
    """MinusIdentity: -I lifts iff every (generator, image) image is an involution."""
    for i, p in images:
        if not _Perm.is_involution(p):
            return FAIL, {"generator": i, "image": _Perm.to_json(p), "reason": "not an involution"}
    return PASS, None


def _rotation_rule(horizontal: dict, direction: dict, infinite: bool):
    """RotationObstruction: R^l is excluded iff the two cylinder-type
    multisets (exact key -> ((inverse modulus, height), count)) differ.

    The finite witness is the differing type of largest inverse modulus,
    then height, in exact order.
    """
    h_counts = {k: v[1] for k, v in horizontal.items()}
    d_counts = {k: v[1] for k, v in direction.items()}
    if h_counts == d_counts:
        if infinite:
            return INCONCLUSIVE, {"reason": "infinite-cylinder profiles agree"}
        return INCONCLUSIVE, {"reason": "multisets agree; rotation not excluded by this invariant"}
    if infinite:
        return PASS, {"reason": "infinite-cylinder heights differ between directions"}
    pairs = {**{k: v[0] for k, v in horizontal.items()},
             **{k: v[0] for k, v in direction.items()}}
    wk = max((k for k in pairs if h_counts.get(k, 0) != d_counts.get(k, 0)),
             key=pairs.__getitem__)
    mod, height = pairs[wk]
    return PASS, {
        "inverse_modulus": mod.to_json(),
        "height": height.to_json(),
        "horizontal_count": h_counts.get(wk, 0),
        "direction_count": d_counts.get(wk, 0),
    }


def _pullback_rule(original: dict, pulled: dict):
    """PullbackObstruction: R^l is excluded iff the pulled-back monodromy
    is not the original one up to a sheet relabeling."""
    d = len(next(iter(original.values())))
    if _covers_isomorphic(original, pulled, d):
        return INCONCLUSIVE, {"reason": "pullback cover is isomorphic; rotation not excluded"}
    return PASS, None


def _index_rule(n: int, expected: int, index: int):
    """Index: the enumerated index, the expected one and the stated one agree."""
    actual = _coset_table(n).index
    if actual == expected == index:
        return PASS, None
    return FAIL, {"index": actual}


def _theorem_rule(d, subs, preimages=None):
    """FullTheorem: the first failing subcertificate fails the theorem,
    else the first inconclusive one makes it inconclusive.

    subs yields (kind, verdict, witness) and is consumed only up to the
    first failure.  For d = inf the core of cylinder k must also lift to
    exactly two infinite cylinders.
    """
    if d == "inf" and preimages != 2:
        return FAIL, {"reason": "cylinder k does not have two infinite preimages"}
    verdict, witness = PASS, None
    for kind, sub_verdict, sub_witness in subs:
        if sub_verdict == FAIL:
            return FAIL, {"failed": kind, "witness": sub_witness}
        if sub_verdict == INCONCLUSIVE and verdict == PASS:
            verdict, witness = INCONCLUSIVE, {"inconclusive": kind, "witness": sub_witness}
    return verdict, witness


# ---------------------------------------------------------------------------
# individual certificates


def _integer_quotient(factor: RealAlg, modulus: RealAlg):
    q = factor / modulus
    if q.is_integer() and q.sign() > 0:
        return int(q.as_rational())
    return None


def _shear_certificate(n: int, d, l: int, factor: RealAlg | None, types: dict,
                       infinite_types: dict | None = None) -> Certificate:
    """ShearMembership from a profile's cylinder types."""
    if factor is None:
        factor = 2 * lambda_n(n)
    found = [(pair, count, _integer_quotient(factor, pair[0]))
             for pair, count in types.values()]
    verdict, witness = _shear_rule(
        factor, ((mod, twists) for (mod, _), _, twists in found), l, bool(infinite_types)
    )
    rows = [
        {
            "inverse_modulus": mod.to_json(),
            "height": height.to_json(),
            "count": count,
            "twists": twists,
        }
        for (mod, height), count, twists in found
    ]
    rows.sort(key=lambda r: (r["inverse_modulus"]["approx"], r["height"]["approx"]))
    return Certificate(
        kind="ShearMembership",
        n=n,
        d=d,
        verdict=verdict,
        payload={"l": l, "factor": factor.to_json(), "cylinders": rows},
        witness=witness,
    )


def certify_shear(cover: CoveringSurface, l: int, factor: RealAlg | None = None) -> Certificate:
    """Integer twist counts for the factor-2*lambda shear in direction v_l."""
    types = _finite_profile(cover.n, cover.monodromy, l)
    return _shear_certificate(cover.n, cover.d, l, factor, types)


def certify_rotation_obstruction(cover: CoveringSurface, l: int) -> Certificate:
    """No rotation derivative R^l: moduli/height multisets must differ."""
    n, m = cover.n, cover.monodromy
    return _rotation_certificate(n, cover.d, l, _finite_profile(n, m, 0), _finite_profile(n, m, l))


def _rotation_certificate(n: int, d, l: int, horizontal: dict, direction: dict,
                          horizontal_rows: list | None = None) -> Certificate:
    # horizontal is the direction-0 profile (its infinite types when
    # d = inf), shared by every l together with its payload rows
    infinite = d == "inf"
    verdict, witness = _rotation_rule(horizontal, direction, infinite)
    if horizontal_rows is None:
        horizontal_rows = _multiset_rows(horizontal)
    suffix = "_infinite" if infinite else ""
    payload = {
        "l": l,
        "horizontal" + suffix: horizontal_rows,
        "direction" + suffix: _multiset_rows(direction),
    }
    return Certificate(
        kind="RotationObstruction", n=n, d=d, verdict=verdict,
        payload=payload, witness=witness,
    )


def _even_rotation_images(n: int, a: int):
    """Action of the order-n/2 rotation of the even base on pi_1.

    The affine map with derivative R^2 fixes the centre (the base
    point) and shifts side labels by one, so on generators
    x_i -> x_{i+1} for i < n/2 - 1 and x_{n/2-1} -> x_0^-1; this
    returns the a-th power of that substitution.
    """
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
    verdict, witness = _pullback_rule(original, pulled)
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
        witness=witness,
    )


def sigma_T_claim(d: int) -> tuple:
    """The claimed copy permutation: (1 3 5 ... d-1) for even d,
    (sigma_2 o sigma_1)^((d-1)/2) for odd d."""
    if d % 2 == 0:
        return perms.from_cycles(d, [tuple(range(1, d, 2))])
    suc = perms.compose(sigma_d1(d), sigma_d2(d))
    return perms.power(suc, (d - 1) // 2)


def certify_sigma_T(n: int, d, mode: str = "horizontal",
                    monodromy: Monodromy | ZMonodromy | None = None) -> Certificate:
    """Existence of the copy permutation behind the single-twist maps.

    horizontal: sigma_T itself; vertical (even n special direction):
    the same conditions hold for sigma_T^-1.  d = "inf" certifies
    Y_{n,inf}, whose monodromy is a ZMonodromy.
    """
    if monodromy is None:
        monodromy = std_infinite_monodromy(n) if d == "inf" else standard_monodromy(n, d)
    k1, k2 = monodromy.k1, monodromy.k2
    if k1 is None:
        k1, k2 = monodromy_indices(n)
    sig1 = monodromy.image(k1)
    sig2 = monodromy.image(k2)
    sigma = sigma_T_infinite() if d == "inf" else sigma_T_claim(d)
    if mode == "vertical":
        sigma = _Perm.inverse(sigma)
    verdict, witness = _sigma_rule(sig1, sig2, sigma, mode)
    return Certificate(
        kind="SigmaT",
        n=n,
        d=d,
        verdict=verdict,
        payload={
            "mode": mode,
            "sigma_T": _Perm.to_json(sigma),
            "sigma1": _Perm.to_json(sig1),
            "sigma2": _Perm.to_json(sig2),
        },
        witness=witness,
    )


def certify_minus_identity(n: int, monodromy: Monodromy | ZMonodromy) -> Certificate:
    """-I lifts iff every generator's monodromy image is an involution."""
    images = [(i, monodromy.image(i)) for i in sorted(monodromy.images)]
    verdict, witness = _minus_identity_rule(images)
    return Certificate(
        kind="MinusIdentity", n=n, d=monodromy.degree, verdict=verdict,
        payload={"images": [{"generator": i, "image": _Perm.to_json(p)} for i, p in images]},
        witness=witness,
    )


@lru_cache(maxsize=None)
def _coset_table(n: int):
    """Coset table of the covers' Veech group in Gamma(X_n); it depends on n only."""
    return coset_enumerate(presentation_for(n), subgroup_words(n))


def certify_index(n: int) -> Certificate:
    """Coset enumeration of the covers' Veech group in Gamma(X_n)."""
    expected = n if n % 2 else n // 2
    table = _coset_table(n)
    verdict, witness = _index_rule(n, expected, table.index)
    return Certificate(
        kind="Index",
        n=n,
        d=None,
        verdict=verdict,
        payload={"expected_index": expected, "index": table.index, "table": table.to_json()},
        witness=witness,
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


def _aggregate(n: int, d, subs: list, preimages=None) -> Certificate:
    verdict, witness = _theorem_rule(d, ((s.kind, s.verdict, s.witness) for s in subs), preimages)
    payload = {"subcertificates": [s.to_json() for s in subs]}
    if d == "inf":
        payload["infinite_preimages_of_cylinder_k"] = preimages
    if verdict == PASS:
        payload["statement"] = "Gamma(Y_%s,%s) = Gamma_%s certified" % (n, d, n)
    return Certificate(
        kind="FullTheorem", n=n, d=d, verdict=verdict, payload=payload, witness=witness
    )


def verify_theorem(n: int, d: int | None = None, infinite: bool = False,
                   monodromy: Monodromy | None = None) -> Certificate:
    """Certify Gamma(Y_{n,d}) = Gamma_n for one n and degree (or infinity)."""
    if infinite:
        d, monodromy = "inf", std_infinite_monodromy(n)
        subs = []
    else:
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
        monodromy = cover.monodromy
        subs = [
            Certificate(kind="WellFormedCover", n=n, d=d, verdict=PASS,
                        payload={"polygons": d * len(cover.base.polygons)}),
        ]
    profiles = {}

    def profile(l):
        # (finite types, infinite types) in direction v_l, computed once per l
        if l not in profiles:
            profiles[l] = (_infinite_profile(n, monodromy, l) if infinite
                           else (_finite_profile(n, monodromy, l), {}))
        return profiles[l]

    for l in _shear_direction_indices(n):
        subs.append(_shear_certificate(n, d, l, None, *profile(l)))
    subs.append(certify_sigma_T(n, d, "horizontal", monodromy))
    if n % 2 == 0:
        subs.append(certify_sigma_T(n, d, "vertical", monodromy))
    subs.append(certify_minus_identity(n, monodromy))
    # Y_{n,inf} is obstructed by its infinite cylinders, Y_{n,d} by all
    side = 1 if infinite else 0
    horizontal = profile(0)[side]
    horizontal_rows = _multiset_rows(horizontal)
    for l in _obstruction_direction_indices(n):
        sub = _rotation_certificate(n, d, l, horizontal, profile(l)[side], horizontal_rows)
        if sub.verdict == INCONCLUSIVE and n % 2 == 0 and not infinite:
            # the multiset invariant is blind here (it happens for d = 2
            # in the vertical direction); fall back to the covering-
            # structure obstruction
            sub = certify_pullback_obstruction(n, monodromy, l)
        subs.append(sub)
    subs.append(certify_index(n))
    preimages = None
    if infinite:
        # key obstruction evidence: the core of cylinder k lifts to
        # exactly two infinite cylinders
        k1, k2 = monodromy_indices(n)
        core = Word.generator(k1) * Word.generator(k2).inverse()
        preimages = monodromy.eval_word(core).orbit_count()
    return _aggregate(n, d, subs, preimages)


def verify_quotient(n: int):
    """Quotient invariants of H/Gamma_n from the coset action."""
    return quotient_invariants(_coset_table(n))


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


def revalidate(data: dict) -> str:
    """Recompute a certificate's verdict from its JSON payload.

    Parses the payload and applies the rule that made the verdict;
    WellFormedCover carries no evidence, so its stated verdict stands.
    """
    kind = data["kind"]
    payload = data["payload"]
    if kind == "ShearMembership":
        rows = ((RealAlg.from_json(r["inverse_modulus"]), r["twists"])
                for r in payload["cylinders"])
        return _shear_rule(RealAlg.from_json(payload["factor"]), rows, payload["l"])[0]
    if kind == "RotationObstruction":
        infinite = "horizontal_infinite" in payload
        suffix = "_infinite" if infinite else ""
        horizontal = _parse_multiset(payload["horizontal" + suffix])
        direction = _parse_multiset(payload["direction" + suffix])
        return _rotation_rule(horizontal, direction, infinite)[0]
    if kind == "SigmaT":
        sig1, sig2, sigma = (_Perm.from_json(payload[k]) for k in ("sigma1", "sigma2", "sigma_T"))
        return _sigma_rule(sig1, sig2, sigma, payload["mode"])[0]
    if kind == "MinusIdentity":
        images = ((e["generator"], _Perm.from_json(e["image"])) for e in payload["images"])
        return _minus_identity_rule(images)[0]
    if kind == "Index":
        return _index_rule(data["n"], payload["expected_index"], payload["index"])[0]
    if kind == "PullbackObstruction":
        original = {int(i): tuple(p) for i, p in payload["original"].items()}
        pulled = {int(i): tuple(p) for i, p in payload["pullback"].items()}
        return _pullback_rule(original, pulled)[0]
    if kind == "WellFormedCover":
        return data["verdict"]
    if kind == "FullTheorem":
        subs = ((s["kind"], revalidate(s), None) for s in payload["subcertificates"])
        preimages = payload.get("infinite_preimages_of_cylinder_k")
        return _theorem_rule(data["d"], subs, preimages)[0]
    raise ValueError("unknown certificate kind %r" % kind)
