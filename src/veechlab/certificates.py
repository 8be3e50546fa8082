"""Machine-checkable certificates for the Veech-group theorems.

Each certificate is self-checking: a pass verdict can be re-derived
from the payload alone via revalidate().  verify_theorem aggregates the
per-step certificates into a verdict for one (n, d) or (n, infinity):

  * ShearMembership   - every cylinder in the shear direction is
                        twisted an integer number of times by the
                        factor 2*lambda_n, which its inverse modulus
                        alone decides;
  * SigmaT            - the copy permutation that makes the single
                        twist (horizontal, and vertical for even n)
                        compatible with the gluings exists; it reads
                        x_k1 and x_k2 only, so it is inconclusive when
                        another generator moves a sheet;
  * MinusIdentity     - the marked monodromy images are involutions;
  * RotationObstruction - the (inverse modulus, height) multiset in
                        direction v_l differs from the horizontal one,
                        so no rotation derivative can exist; a theorem
                        needs one only at l = n/p for each prime p of
                        the index (the dihedral lemma, _theorem_slots);
  * PullbackObstruction - the cover pulled back under the rotation is
                        not a relabeling of itself (even n fallback);
  * WellFormedCover   - the monodromy acts transitively on d sheets;
  * Index             - the closed-form coset action of the covers'
                        group has the expected index.

Every verdict comes from one rule per kind (the ``_*_rule`` functions
below) over native values, an exact value as its index in n's type
table (_types).  One builder, _subcertificate, applies it and writes
the payload and witness of each kind, for verify_theorem and for every
certify_* alike; revalidate() applies it to what it parsed from the
payload.  The parser
is the module revalidation, which revalidate() loads on its first call,
so a verify never compiles it.  A rule composes, inverts and writes
permutations through the monodromy it holds (then, inverse, image_json),
so finite and infinite degree share every rule.

Certificates are written and read in format 6, which carries each fact
once.  The top level carries the claim (n, d) and the conductor 4n once,
and a table of the distinct exact values, each its nonzero rational
coefficients alone, with no decimal approximation; rows and witnesses
refer to the table by index.  A theorem's subcertificates are about its
(n, d) and name neither.  Two sections are written once, at the top
level: the horizontal profile that every RotationObstruction compares
against, and the images of the generators that move a sheet, in
increasing order, which SigmaT, MinusIdentity, PullbackObstruction and
WellFormedCover read under the claim's d.  Every shear is by 2*lambda_n,
which n fixes, so no payload names its factor, and it twists a cylinder
by the cylinder's inverse modulus alone: a ShearMembership has one row
per distinct inverse modulus, (inverse modulus, twist count), and no
height or count.  Profiles, the horizontal one and each
RotationObstruction's, keep one row per cylinder type, (inverse modulus,
height, count), as the rotation rule compares whole multisets.  Every
degree, d = inf too, uses the same rows: an infinite strip is a type of
inverse modulus 0.  A theorem lists its rotation slots at l = n/p only.
revalidate() reads no other format, and refuses formats 1 to 5 with a
MalformedCertificate that says to run verify again.

Non-membership certificates for user-supplied monodromies may come out
"inconclusive" (equal multisets prove nothing); the standard family
never does.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import chain

from . import perms
from .covering import (
    CoveringSurface,
    Monodromy,
    _checked,
    base_decomposition,
    monodromy_indices,
    num_generators,
    reduced,
    rotation_images,
    sigma_d1,
    sigma_d2,
)
from .errors import NOT_TRANSITIVE, MalformedCertificate, VerificationFailure
from .field import RealAlg, lambda_n, prime_divisors
from .veech import CosetTable, presentation_for, subgroup_words
from .words import Word

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
FORMAT = 6
_SIGMA_MODES = ("horizontal", "vertical")


class _Values(dict):
    """The value table of one certificate and its subcertificates.

    It maps each value of n's type table (_types) that they name to its
    index here: values[v] is the next index on v's first use, in the
    fixed order in which certificates are assembled, so the keys are in
    table order.  ``sections`` holds what the top level writes once for
    every subcertificate: the monodromy's images and the horizontal
    profile.
    """

    def __init__(self, n: int):
        super().__init__()
        self.conductor = 4 * n
        self._types = _types(n)
        self.sections = {}

    def __missing__(self, v: int) -> int:
        i = self[v] = len(self)
        return i

    def to_json(self) -> list:
        exact = self._types.exact
        return [exact[v].to_json(sparse=True) for v in self]


class Certificate:
    def __init__(self, kind: str, n: int, d, verdict: str, payload: dict | None = None,
                 witness=None, values: _Values | None = None):
        self.kind = kind
        self.n = n
        self.d = d  # int or "inf" or None
        self.verdict = verdict
        self.payload = {} if payload is None else payload
        self.witness = witness
        # the table that the value indices in payload and witness point into;
        # a theorem shares one with its subcertificates
        self.values = values

    def to_json(self):
        """The certificate as top-level JSON of format FORMAT: its claim
        (n, d), its value table and the sections its payload refers to."""
        values = _Values(self.n) if self.values is None else self.values
        return {"format": FORMAT, "conductor": values.conductor, "n": self.n, "d": self.d,
                **self._body(), "values": values.to_json(), **values.sections}

    def _body(self) -> dict:
        # what a theorem writes for each of its subcertificates, which are
        # about the theorem's own (n, d)
        return {
            "kind": self.kind,
            "verdict": self.verdict,
            "payload": self.payload,
            "witnesses": [] if self.witness is None else [self.witness],
        }


def _multiset_rows(types: dict, table: _Types, values: _Values) -> list:
    # types maps type -> count or None; rows in exact-key order
    return [{"inverse_modulus": values[t[0]], "height": values[t[1]], "count": types[t]}
            for t in table.ordered(types)]


def _images_table(n: int, monodromy: Monodromy | ZMonodromy) -> _Values:
    """A new value table of n whose images section lists the image of
    each generator that moves a sheet, in increasing order (the others
    fix every sheet of the claim's d): every kind that reads the
    monodromy reads it there."""
    values = _Values(n)
    values.sections["images"] = [{"generator": i, "image": monodromy.image_json(p)}
                                 for i, (p, _) in monodromy._moving.items()]
    return values


def _witness_json(witness, values: _Values):
    # a rule's witness as the certificate carries it: the values it names,
    # indices of _types(n), as indices of the certificate's table
    if witness is None:
        return None
    return {k: values[v] if k in ("inverse_modulus", "height") else v
            for k, v in witness.items()}


# ---------------------------------------------------------------------------
# cylinder profiles of covers, finite and infinite degree
#
# A profile maps each cover cylinder type to its count, None when there
# are infinitely many.  A type's inverse modulus is a * mu for a base
# cylinder's inverse modulus mu and an orbit length a.  An infinite strip
# (a = 0, d = inf only) is typed (0, height): every degree has the same
# row shapes.

# what revalidate may keep of untrusted payloads, per n: the entries it
# read and their values in the type table, each with at most one twist count
_MEMO_SIZE = 4096


class _Types:
    """The distinct exact values of one n, and the exact facts on them.

    Every exact value that verify computes or revalidate reads gets an
    index here by its exact key, so equal values are equal indices and a
    cylinder type is a pair (inverse modulus index, height index).  An
    inverse modulus has one twist count, the positive integer k with k *
    value == 2 * lambda_n or None, decided once per n; so are the
    comparisons that verify's witness search makes.  So is what a
    theorem's rows take from n alone: each direction's lift plan for a
    set of moving generators (lifts) and the shear rows of a set of
    types (sheared).  The memos keyed by what a caller passes keep at most
    _MEMO_SIZE entries.
    """

    def __init__(self, n: int):
        self.n = n
        self.exact = []  # index -> value
        self._index = {}  # exact key -> index
        # id of a value object in exact -> its index; exact keeps each such
        # object alive, so its id names no other object
        self._ids = {}
        self._ranks = None  # index -> exact-key rank, None after a new value
        self._entries = {}  # an entry's (power, "p/q") pairs that revalidate read -> index
        self._lifts = {}  # (l, moving generators) -> v_l's lift plan for them, as lifts() makes it
        self._scaled = {}  # (inverse modulus index, a) -> index of a * that modulus
        self._twists = {}  # inverse modulus index -> its twist count or None
        self._facts = {}  # (v, w), v < w -> whether value v exceeds value w
        self._factor = None  # index of 2 * lambda_n, made on first use
        self._sheared = {}  # a profile's types, as a tuple in its order -> sheared()

    @property
    def factor(self) -> int:
        """The index of every shear's factor for n, 2 * lambda_n; a table
        that reads no value builds no field."""
        if self._factor is None:
            self._factor = self.index(2 * lambda_n(self.n))
        return self._factor

    def index(self, x: RealAlg) -> int:
        """The index of x, which joins the table on first use.  The object
        that the table keeps for a value is found by its identity, with
        no hash of its coefficients: the directions derived from one
        traced direction share its value objects."""
        v = self._ids.get(id(x))
        if v is None:
            key = x.key()
            v = self._index.get(key)
            if v is None:
                v = self._index[key] = self._ids[id(x)] = len(self.exact)
                self.exact.append(x)
                self._ranks = None
        return v

    def read(self, entries: list) -> tuple:
        """The table in which revalidate reads a certificate's value table
        entries, and their indices there.  An entry is looked up by its
        [power, "p/q"] pairs, which must hold ints and strs only (True ==
        1 == 1.0: a power of true would find its well-formed twin), and a
        new one parsed by RealAlg.from_json, in table order.  A
        certificate whose new entries would push this table past
        _MEMO_SIZE entries of revalidate's own is read in a new table that
        no later call sees; this one is never reset."""
        try:
            keys = [tuple(map(tuple, e["coeffs"])) for e in entries]
            exact = {*map(type, chain.from_iterable(chain.from_iterable(keys)))} <= {int, str}
        except (KeyError, TypeError):  # an entry that is no dict, or a pair that is no list
            exact = False
        if not exact:
            raise MalformedCertificate('a value is not {"coeffs": [[power, "p/q"], ...]}')
        memo = self._entries
        indices = [*map(memo.get, keys)]
        if None not in indices:
            return self, indices
        values = {}  # each entry's value, memoised or parsed
        for k, entry in zip(keys, entries):
            if k not in values:
                values[k] = self.exact[memo[k]] if k in memo else RealAlg.from_json(entry, 4 * self.n)
        table = self
        if len(memo) + len(values.keys() - memo.keys()) > _MEMO_SIZE:
            table = _Types(self.n)
        memo = table._entries
        memo.update((k, table.index(x)) for k, x in values.items() if k not in memo)
        return table, [*map(memo.__getitem__, keys)]

    def lifts(self, l: int, moving) -> tuple:
        """The lift plan of v_l for covers whose moving generators are
        moving (in order): the unmoved types, distinct and in walk order,
        and the rest of v_l's cylinders in walk order as (type, core word),
        the word None for an unmoved cylinder whose type an earlier one
        has.  A cylinder is moved when its core word contains a moving
        generator, and a cylinder's type is that of its a = 1 lift.  Read
        once per (l, moving) from base_decomposition(n, l)."""
        key = (l, tuple(moving))
        plan = self._lifts.get(key)
        if plan is None:
            moves = set(key[1])
            unmoved, rest = {}, []
            for cyl in base_decomposition(self.n, l):
                t = self.scale(self.index(cyl.inverse_modulus), 1), self.index(cyl.height)
                if any(g in moves for g, _ in cyl.core_word):
                    rest.append((t, cyl.core_word))
                elif t in unmoved:
                    rest.append((t, None))
                else:
                    unmoved[t] = None
            plan = tuple(unmoved), tuple(rest)
            self._keep(self._lifts, key, plan)
        return plan

    def scale(self, m: int, a: int) -> int:
        """The index of a * (value m), an inverse modulus, made once per
        (m, a).

        A new lift's twist count comes from m's quotient q = factor /
        (value m), one exact division per base modulus, kept as m's own
        count: q // a when q is a positive integer that a divides, else
        None.  An infinite strip (a = 0) has none.
        """
        v = self._scaled.get((m, a))
        if v is None:
            twists = self._twists
            if m not in twists:
                q = self.exact[self.factor] / self.exact[m]  # an integer q is num[0] over den 1
                twists[m] = q.num[0] if q.is_integer() and q.num[0] > 0 else None
            v = self._scaled[m, a] = m if a == 1 else self.index(a * self.exact[m])
            q = twists[m]
            twists.setdefault(v, q // a if a and q and q % a == 0 else None)
        return v

    def sheared(self, types) -> tuple:
        """The shear rows of a profile with these types, one (inverse
        modulus, twist count by the factor) pair per distinct modulus in
        exact-key order, and _shear_rule's (verdict, witness) on them.

        Memoised on the tuple of types, which distinct degrees of one n
        share: a value that joins the table later keeps the others'
        relative order, so the order stays valid.
        """
        key = tuple(types)
        out = self._sheared.get(key)
        if out is None:
            ranks = self._ranked()
            moduli = sorted({t[0] for t in key}, key=ranks.__getitem__)
            rows = tuple((m, self._twists[m]) for m in moduli)
            out = rows, _shear_rule(rows, self)
            self._keep(self._sheared, key, out)
        return out

    def ordered(self, types) -> list:
        """types in the exact-key order of (inverse modulus, height), the
        order of a profile's rows."""
        ranks = self._ranked()
        return sorted(types, key=lambda t: (ranks[t[0]], ranks[t[1]]))

    def _ranked(self) -> list:
        # index -> exact-key rank, remade after a new value
        if self._ranks is None:
            self._ranks = [0] * len(self.exact)
            for rank, (_, v) in enumerate(sorted(self._index.items())):
                self._ranks[v] = rank
        return self._ranks

    def above(self, v: int, w: int) -> bool:
        """Whether value v exceeds the distinct value w."""
        if v > w:  # each pair is decided in one order
            return not self.above(w, v)
        r = self._facts.get((v, w))
        if r is None:
            r = self.exact[v] > self.exact[w]
            self._keep(self._facts, (v, w), r)
        return r

    def exceeds(self, t1: tuple, t2: tuple) -> bool:
        """Whether type t1 exceeds the distinct type t2: by inverse
        modulus, then by height."""
        return self.above(t1[0], t2[0]) if t1[0] != t2[0] else self.above(t1[1], t2[1])

    def twists_by(self, v: int, k: int) -> bool:
        """Whether k * (value v) == the factor, for an int k >= 1: v's
        twist count if the table knows it, else one exact product, and a
        true one makes k v's count."""
        if v in self._twists:
            return self._twists[v] == k
        if k * self.exact[v] != self.exact[self.factor]:
            return False
        self._twists[v] = k
        return True

    @staticmethod
    def _keep(memo: dict, key, value):
        # past _MEMO_SIZE entries a memo keeps nothing more
        if len(memo) < _MEMO_SIZE:
            memo[key] = value


@lru_cache(maxsize=64)
def _types(n: int) -> _Types:
    """The type table of n: every cover of X_n shares its base cylinders,
    and verify and revalidate share its values and facts."""
    return _Types(n)


def _finite_profile(n: int, monodromy: Monodromy | ZMonodromy, l: int):
    """Cylinder types with multiplicities for Y in v_l.

    A cover cylinder is a base cylinder times one orbit of its core
    word's image, for finite and infinite degree alike.  A base cylinder
    whose core word contains no generator that moves a sheet lifts to d
    copies of itself (d = inf: infinitely many), so it adds d to its own
    type: the plan of v_l (_Types.lifts) lists these unmoved types once
    each, and they enter the profile in one step.  Only the others, the
    moved ones, are typed from the runs (orbit length a, count) of the
    monodromy's cycle_type, each distinct (inverse modulus, a) scaled
    once per n (_types); an unmoved cylinder whose type an earlier one
    has adds d to it there.  So the profile's types come in this order:
    the unmoved types in walk order, then the moved cylinders' lifts in
    walk order, each one's runs in order.  A count of None (infinitely
    many) absorbs any count added to it.  Two lifts can have the same
    exact type, and then they merge.
    """
    table = _types(n)
    unmoved, rest = table.lifts(l, monodromy._moving)
    copies = None if monodromy.degree == "inf" else monodromy.degree
    counter = dict.fromkeys(unmoved, copies)
    for (m, h), word in rest:
        for a, count in ((1, copies),) if word is None else monodromy.cycle_type(word):
            t = table.scale(m, a), h
            total = counter.get(t, 0)
            counter[t] = None if count is None or total is None else total + count
    return counter


def _infinite_preimages(n: int, monodromy: ZMonodromy) -> int:
    """The number of infinite cylinders over the core of cylinder k, the
    word x_k1 x_k2^-1."""
    k1, k2 = monodromy_indices(n)
    core = Word.generator(k1) * Word.generator(k2).inverse()
    return sum(count for a, count in monodromy.cycle_type(core) if not a)


# ---------------------------------------------------------------------------
# verdict rules, one per certificate kind; each returns (verdict, witness),
# which only _subcertificate serialises; exact values are indices of _types(n)


def _shear_rule(rows, types: _Types):
    """ShearMembership by types.factor, 2 * lambda_n: every row (inverse
    modulus, twist count) must have a count k >= 1 that is the modulus's
    twist count in types (_Types.twists_by).

    An infinite strip (d = inf) is a row without a twist count, so it
    fails the rule.
    """
    for mod, twists in rows:
        if twists is None or twists < 1 or not types.twists_by(mod, twists):
            return FAIL, {"inverse_modulus": mod, "reason": "non-integer twist"}
    return PASS, None


def _sigma_rule(n: int, monodromy: Monodromy | ZMonodromy, sigma, mode: str):
    """SigmaT: the two compatibility conditions, as exact permutation
    identities between sigma and the images of x_k1 and x_k2.

    They involve only x_k1 and x_k2, so they prove nothing when another
    generator moves a sheet.
    """
    k1, k2 = monodromy_indices(n)
    other_moving = [i for i in monodromy._moving if i not in (k1, k2)]
    if other_moving:
        return INCONCLUSIVE, {"reason": "generators other than x_k1, x_k2 move",
                              "other_moving": other_moving}
    sig1, sig2 = monodromy.image(k1), monodromy.image(k2)
    then = monodromy.then
    if mode == "horizontal":
        suc = then(sig1, sig2)  # m(x_k1 x_k2^-1), sigmas are involutions
        cond1 = then(suc, sigma) == then(sigma, suc)
        cond2 = then(sigma, sig1) == then(sig2, sigma)
    else:
        # vertical: suc = sigma1(sigma2(.)), second condition uses sigma2 and pred
        suc = then(sig2, sig1)
        cond1 = then(suc, sigma) == then(sigma, suc)
        cond2 = then(sigma, sig2) == then(monodromy.inverse(suc), then(sig2, sigma))
    if cond1 and cond2:
        return PASS, None
    return FAIL, {"cond1": cond1, "cond2": cond2}


def _minus_identity_rule(monodromy: Monodromy | ZMonodromy):
    """MinusIdentity: -I lifts iff every moving generator's image is an
    involution, that is its own inverse, which the monodromy keeps."""
    for i, (p, inverse) in monodromy._moving.items():
        if p != inverse:
            return FAIL, {"generator": i, "image": monodromy.image_json(p),
                          "reason": "not an involution"}
    return PASS, None


def _well_formed_rule(monodromy: Monodromy | ZMonodromy, d: int):
    """WellFormedCover: the images must permute exactly d sheets and act
    transitively."""
    if monodromy.degree == d and monodromy.is_transitive():
        return PASS, None
    return FAIL, {"reason": NOT_TRANSITIVE % d}


def _rotation_rule(horizontal: dict, direction: dict, types: _Types | None):
    """RotationObstruction: R^l is excluded iff the two cylinder-type
    multisets (type -> count) differ.

    Proof.  An affine map of the cover with derivative R^l carries the
    cylinders in direction v_0 onto those in v_l, one for one, and keeps
    each one's height and circumference.  So the multiset of (inverse
    modulus, height), with counts in N and infinity, is the same in both
    directions, and R^l is excluded where it differs.  For d = inf the
    map carries infinite strips onto infinite strips of the same height;
    they are the types (0, height), so whole profiles differ whenever
    the profiles of infinite strips alone do.

    The witness is the differing type of largest inverse modulus, then
    height, in exact order: types.exceeds decides each pair of types
    through their values, each pair of values once.  Without types
    (revalidate, which reads no witness) a pass has none.
    """
    if horizontal == direction:
        return INCONCLUSIVE, {"reason": "multisets agree; rotation not excluded by this invariant"}
    if types is None:
        return PASS, None
    wk = None
    for k in {**horizontal, **direction}:
        if horizontal.get(k, 0) != direction.get(k, 0) and (
            wk is None or types.exceeds(k, wk)
        ):
            wk = k
    return PASS, {
        "inverse_modulus": wk[0],
        "height": wk[1],
        "horizontal_count": horizontal.get(wk, 0),
        "direction_count": direction.get(wk, 0),
    }


def _pullback_rule(n: int, l: int, monodromy: Monodromy):
    """PullbackObstruction: R^l is excluded iff the monodromy pulled back
    under the rotation by l is not the monodromy itself up to a sheet
    relabeling."""
    if not monodromy.is_transitive():
        # the rotation's images generate pi_1(X_n), so the pullback has
        # the monodromy's image, no more transitive than it, and no
        # relabeling maps it onto the monodromy (_covers_isomorphic)
        return PASS, None
    pulled = monodromy.pullback(rotation_images(n, l // 2))
    if _covers_isomorphic(monodromy.images, pulled.images, monodromy.degree):
        return INCONCLUSIVE, {"reason": "pullback cover is isomorphic; rotation not excluded"}
    return PASS, None


def _index_rule(n: int, expected: int, index: int):
    """Index: the validated coset action's index, the expected one and the stated one agree."""
    actual = _coset_table(n).index
    if actual == expected == index:
        return PASS, None
    return FAIL, {"index": actual}


def _theorem_rule(d, subs, preimages=None):
    """FullTheorem: the first failing subcertificate fails the theorem,
    else the first inconclusive one makes it inconclusive.

    subs yields (kind, verdict, witness) and is consumed only up to the
    first failure.  For d = inf the core of cylinder k must also lift to
    exactly two infinite cylinders (preimages, _infinite_preimages).
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


def _subcertificate(kind: str, key, n: int, d, monodromy: Monodromy | ZMonodromy,
                    values: _Values, profile=None, sigma=None) -> Certificate:
    """The certificate of one kind and slot key (l, SigmaT mode or None,
    as _theorem_slots lists them) for the cover of X_n of degree d with
    this monodromy: its rule's verdict, and its payload and witness on
    the value table values.  profile(l) is the cylinder types in
    direction v_l (_finite_profile by default), and sigma the claim
    sigma_T_claim(d), which a theorem makes once for both SigmaT modes.
    A RotationObstruction writes the horizontal profile into the table's
    sections once for every l.
    """
    table, payload = _types(n), {}
    profile = profile or partial(_finite_profile, n, monodromy)
    if kind == "WellFormedCover":
        ruled = _well_formed_rule(monodromy, d)
    elif kind == "ShearMembership":
        rows, ruled = table.sheared(profile(key))
        payload = {"l": key, "cylinders": [{"inverse_modulus": values[m], "twists": k}
                                           for m, k in rows]}
    elif kind == "RotationObstruction":
        horizontal, direction = profile(0), profile(key)
        ruled = _rotation_rule(horizontal, direction, table)
        if "horizontal" not in values.sections:
            values.sections["horizontal"] = _multiset_rows(horizontal, table, values)
        payload = {"l": key, "direction": _multiset_rows(direction, table, values)}
    elif kind == "PullbackObstruction":
        ruled, payload = _pullback_rule(n, key, monodromy), {"l": key}
    elif kind == "SigmaT":
        sigma = sigma_T_claim(d) if sigma is None else sigma
        if key == "vertical":
            sigma = monodromy.inverse(sigma)
        ruled = _sigma_rule(n, monodromy, sigma, key)
        payload = {"mode": key, "sigma_T": monodromy.image_json(sigma)}
    elif kind == "MinusIdentity":
        ruled = _minus_identity_rule(monodromy)
    else:  # Index, about n alone
        d, expected, index = None, (n if n % 2 else n // 2), _coset_table(n).index
        ruled = _index_rule(n, expected, index)
        payload = {"expected_index": expected, "index": index}
    verdict, witness = ruled
    return Certificate(kind, n, d, verdict, payload, _witness_json(witness, values), values)


def certify_shear(cover: CoveringSurface, l: int) -> Certificate:
    """Integer twist counts for the factor-2*lambda shear in direction v_l."""
    n, d = cover.n, cover.d
    return _subcertificate("ShearMembership", l, n, d, _checked(n, d, cover.monodromy), _Values(n))


def certify_rotation_obstruction(cover: CoveringSurface, l: int) -> Certificate:
    """No rotation derivative R^l: moduli/height multisets must differ."""
    n, d = cover.n, cover.d
    return _subcertificate("RotationObstruction", l, n, d, _checked(n, d, cover.monodromy),
                           _Values(n))


def _covers_isomorphic(images1: dict, images2: dict, d: int) -> bool:
    """Whether two transitive monodromies differ by a sheet relabeling."""
    # forward images suffice: a relabeling that commutes with an image
    # commutes with its inverse, and they reach every sheet (perms.is_transitive)
    pairs = [(images1[g], images2[g]) for g in sorted(images1)]
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
        # consistent: every pair was checked at every sheet that sigma maps
        if consistent and len(sigma) == d == len(set(sigma.values())):
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
    d = monodromy.degree
    if d == "inf":
        raise ValueError("pullback obstruction needs finitely many sheets")
    return _subcertificate("PullbackObstruction", l, n, d, _checked(n, d, monodromy),
                           _images_table(n, monodromy))


def sigma_T_claim(d):
    """The claimed copy permutation: (1 3 5 ... d-1) for even d, which is
    Y_{n,inf}'s sigma_T (0, 2) reduced mod d, and (sigma_2 o
    sigma_1)^((d-1)/2) for odd d; for d = "inf", that sigma_T itself, a
    ZPermutation."""
    if d == "inf":
        from .zcover import sigma_T_infinite

        return sigma_T_infinite()
    if d % 2 == 0:
        return reduced(d, 0, 2)
    suc = perms.compose(sigma_d1(d), sigma_d2(d))
    return perms.power(suc, (d - 1) // 2)


def certify_sigma_T(n: int, d, mode: str = "horizontal",
                    monodromy: Monodromy | ZMonodromy | None = None) -> Certificate:
    """Existence of the copy permutation behind the single-twist maps.

    horizontal: sigma_T itself; vertical (even n special direction):
    the same conditions hold for sigma_T^-1.  d = "inf" certifies
    Y_{n,inf}, whose monodromy is a ZMonodromy.  The payload holds the
    mode and sigma_T; the images of x_k1 and x_k2 are read from the
    images section.
    """
    if mode not in _SIGMA_MODES:
        raise ValueError("mode must be one of %s, not %r" % (", ".join(_SIGMA_MODES), mode))
    if monodromy is None and d == "inf":
        from .zcover import std_infinite_monodromy

        monodromy = std_infinite_monodromy(n)
    monodromy = _checked(n, d, monodromy)
    return _subcertificate("SigmaT", mode, n, d, monodromy, _images_table(n, monodromy))


def certify_minus_identity(n: int, monodromy: Monodromy | ZMonodromy) -> Certificate:
    """-I lifts iff every generator's monodromy image is an involution."""
    d = monodromy.degree
    return _subcertificate("MinusIdentity", None, n, d, _checked(n, d, monodromy),
                           _images_table(n, monodromy))


@lru_cache(maxsize=None)
def _coset_table(n: int) -> CosetTable:
    """The action of Gamma(X_n) on the cosets of the covers' Veech group H.

    Write rho, tau for R, T (odd n) or r, t (even n), k = n or n/2, and
    ~ for equality in Gamma(X_n), presented by veech.presentation_for.
    On the cosets i < k, rho acts as the successor map i -> i + 1 mod k,
    tau as i -> -i mod k, and z fixes every coset.  CosetTable.validate()
    checks in integers that every relator fixes every coset, so this is
    an action of Gamma(X_n); that H's words (veech.subgroup_words) fix
    coset 0, so the stabiliser S of coset 0 contains H; and that the
    action is transitive, so S has index k (orbit-stabiliser).  As rho is
    the successor map, rho^i takes coset 0 to coset i: the rho^i, i < k,
    are a transversal of S.  And S lies in H, so H has index k:

    By Schreier's lemma S is generated by rho^i g rho^-j for i < k, each
    generator g and j the image of i under g.
      * g = rho gives 1, or rho^k at i = k - 1: R^n, or r^(n/2) ~ z, which
        is H's first word.
      * g = z gives r^i z r^-i ~ z.
      * g = tau gives tau at i = 0 and rho^i tau rho^i rho^-k otherwise.
        So S = H once P(i): rho^i tau rho^i is in H, for every i < k.
    P(0): tau is H's second word.  For 1 <= i <= (n - 1)//2, P(i - 1) gives
    P(i) by

        R^i T R^i ~ (R^i T^2 R^-i) (R^(i-1) T R^(i-1)) R^n,
        r^i t r^i = (r^i t^2 r^-i) (r^(i-1) t r^(i-1)) (r^-(i-1) u r^(i-1)),

    with u = (t^-1 r)^2: rho^i tau^2 rho^-i is one of H's words, and so
    are u and, for 0 < j < k, r^-j u r^j = r^(k-j) (r^-k u r^k) r^-(k-j)
    ~ r^(k-j) u r^-(k-j).  For even n this reaches i = k - 1.  For odd n
    the cosets (n + 1)/2 <= i < n are left, and

        R^i T R^i ~ R^n (R^(n-1-i) T R^(n-1-i))^-1

    gives P(i) from P(n - 1 - i), where n - 1 - i <= (n - 3)/2.

    Each ~ is one relator consequence: a conjugate of T R^-1 T R^(n-1),
    the first odd relator rotated, or of its inverse; or r^-k u r^k u^-1,
    as r^k ~ z and z is central.
    """
    k = n if n % 2 else n // 2
    presentation = presentation_for(n)
    rho, tau, *z = presentation.generators
    action = {rho: tuple((i + 1) % k for i in range(k)), tau: tuple(-i % k for i in range(k))}
    action.update((g, tuple(range(k))) for g in z)
    table = CosetTable(presentation, tuple(subgroup_words(n)), k, action)
    if not table.validate():
        raise VerificationFailure("the closed-form coset table of n = %d fails its check" % n)
    return table


def certify_index(n: int) -> Certificate:
    """The index of the covers' Veech group in Gamma(X_n)."""
    return _subcertificate("Index", None, n, None, None, _Values(n))


# ---------------------------------------------------------------------------
# theorem aggregation


def _theorem_slots(n: int, d):
    """The subcertificates of a theorem for (n, d), in order, as (kind,
    l or SigmaT mode) slots, None where a kind has neither; generated,
    so that a reader makes no more of them than a payload lists.

    In a finite theorem of even n, a PullbackObstruction may fill the
    slot of the RotationObstruction with its l.

    The rotation slots are l = n/p for the primes p of k (k = n for odd
    n, n/2 for even n), in increasing l: the dihedral lemma.  Write rho,
    tau for R, T (odd n) or r = R^2, t (even n), so that rho^(k/p) is
    R^(n/p), and H for the covers' Veech group, whose words the other
    slots certify to lie in Gamma(Y).

      * Gamma(Y) lies in Gamma(X_n).  X_n is primitive, of genus at
        least 2, and every affine map of a translation cover of such a
        Veech surface descends to it, as the primitive surface below a
        cover is unique (Moeller, Invent. Math. 165, 2006, section 2;
        the same descent for infinite covers: Hubert-Schmithuesen, J.
        Mod. Dyn. 4, 2010).  So H <= Gamma(Y) <= Gamma(X_n).
      * _coset_table(n) is an action phi of Gamma(X_n) on k cosets, with
        rho as i -> i + 1, tau as i -> -i and z trivial, so its image
        is D_k; H is the stabiliser of coset 0, so phi(H) = {1, tau}.
        The kernel of phi fixes coset 0, so H contains it, and every G
        with H <= G is the full preimage of phi(G): if phi(g) = phi(g')
        with g' in G, then g = g' (g'^-1 g) with g'^-1 g in the kernel.
        So G -> phi(G) is one to one from the groups between H and
        Gamma(X_n) to the subgroups of D_k that contain tau.
      * Those are exactly the <rho^m, tau> with m | k.  Such an S meets
        <rho> in some <rho^m> with m | k, and for each reflection
        rho^j tau in S, rho^j = (rho^j tau) tau is in S too; so S is
        <rho^m> together with <rho^m> tau, which is <rho^m, tau>.
      * So phi(Gamma(Y)) = <rho^m, tau> for one m | k, and Gamma(Y) = H
        exactly when m = k.  If m < k, some prime p divides k/m, and
        rho^(k/p), a power of rho^m, lies in Gamma(Y), which is a full
        preimage.  So Gamma(Y) = H once each R^(n/p) is excluded.
    """
    if d != "inf":
        yield "WellFormedCover", None
    half = n // 2
    # the shear directions: l = 1..(n-1)/2 for odd n, l = 1..n-1 but n/2 for even n
    shears = range(1, half + 1) if n % 2 else chain(range(1, half), range(half + 1, n))
    for l in shears:
        yield "ShearMembership", l
    for mode in _SIGMA_MODES if n % 2 == 0 else _SIGMA_MODES[:1]:
        yield "SigmaT", mode
    yield "MinusIdentity", None
    for p in reversed(prime_divisors(n if n % 2 else half)):
        yield "RotationObstruction", n // p
    yield "Index", None


def _aggregate(n: int, d, subs: list, preimages, values: _Values) -> Certificate:
    verdict, witness = _theorem_rule(d, ((s.kind, s.verdict, s.witness) for s in subs), preimages)
    payload = {"subcertificates": [s._body() for s in subs]}
    if d == "inf":
        payload["infinite_preimages_of_cylinder_k"] = preimages
    if verdict == PASS:
        payload["statement"] = "Gamma(Y_%s,%s) = Gamma_%s certified" % (n, d, n)
    return Certificate(
        kind="FullTheorem", n=n, d=d, verdict=verdict, payload=payload, witness=witness,
        values=values,
    )


def verify_theorem(n: int, d: int | None = None, infinite: bool = False,
                   monodromy: Monodromy | None = None) -> Certificate:
    """Certify Gamma(Y_{n,d}) = Gamma_n for one n and degree (or infinity, standard monodromy)."""
    if infinite:
        if d is not None or monodromy is not None:
            raise ValueError("infinite verification takes neither d nor a monodromy")
        from .zcover import std_infinite_monodromy

        d, monodromy = "inf", std_infinite_monodromy(n)
    elif type(d) is not int or d < 2:
        raise ValueError("finite verification needs an int d >= 2; for d = inf, "
                         "pass infinite=True")
    monodromy = _checked(n, d, monodromy)
    profiles, subs, sigma = {}, [], None
    values = _images_table(n, monodromy)

    def profile(l):
        # the cylinder types in direction v_l, computed once per l
        if l not in profiles:
            profiles[l] = _finite_profile(n, monodromy, l)
        return profiles[l]

    for kind, key in _theorem_slots(n, d):
        if kind == "SigmaT" and sigma is None:
            sigma = sigma_T_claim(d)  # one claim for both of even n's SigmaT modes
        elif kind == "RotationObstruction" and n % 2 == 0 and not infinite and (
                profile(0) == profile(key)):
            # the multiset invariant is blind here (_rotation_rule: it
            # happens for d = 2 in the vertical direction); the covering-
            # structure obstruction takes the slot
            kind = "PullbackObstruction"
        subs.append(_subcertificate(kind, key, n, d, monodromy, values, profile, sigma))
        if subs[-1].verdict == FAIL and kind == "WellFormedCover":
            return _aggregate(n, d, subs, None, values)  # a disconnected cover
    preimages = _infinite_preimages(n, monodromy) if infinite else None
    return _aggregate(n, d, subs, preimages, values)


def verify_quotient(n: int):
    """Quotient invariants of H/Gamma_n from the coset action."""
    from .quotient import quotient_invariants

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
    pairs = [(i, i + 1) for i in range(2, d - 1 - d % 2, 2)]  # (2 3), (4 5), ...
    return perms.compose(perms.from_cycles(d, [(1, 2)]), perms.from_cycles(d, pairs))


def mutated_monodromy(n: int, d: int) -> Monodromy:
    k1, k2 = monodromy_indices(n)
    return Monodromy(num_generators(n), d, {k1: mutated_sigma1(d), k2: sigma_d2(d)})


# ---------------------------------------------------------------------------
# revalidation from payload


def revalidate(data: dict) -> str:
    """Recompute a certificate's verdict from its format-6 JSON.

    Parses the payload and applies the rule that made the verdict.
    SigmaT, MinusIdentity, PullbackObstruction and WellFormedCover read
    the monodromy from the top-level images section under the claim's
    d, and the PullbackObstruction's pullback is computed from it.  A
    ShearMembership is by 2*lambda_n, which n fixes.  A FullTheorem
    fails, before any value is parsed, unless its subcertificates fill
    the slots of its (n, d) in order (_theorem_claim), and for d = inf
    unless its count of infinite preimages of cylinder k is the one the
    images give.  A WellFormedCover fails unless the images act
    transitively on its d sheets.  MalformedCertificate is raised for a
    payload that does not parse, a top level without "format": 6
    (formats 1 to 5 are refused by name), images that name a generator
    out of range, twice or out of increasing order, or an image that is
    the identity or does not permute the claim's d sheets, a
    PullbackObstruction of odd n or odd l, a FullTheorem or
    WellFormedCover whose int d is below 2 and a SigmaT, MinusIdentity or
    PullbackObstruction whose int d is below 1 (before any rule runs),
    and, before any value is parsed, an n without X_n, a subcertificate
    of a theorem that names its own n or d, and a standalone certificate
    other than a FullTheorem for n above MAX_STANDALONE_N.  A profile that
    lists a cylinder type twice or counts one below 1, and a shear row
    with other keys than inverse_modulus and twists or a shear that lists
    one inverse modulus twice, are malformed too.  Each distinct table
    entry is parsed, and each exact check decided, once per process
    (_types).
    """
    # the reader of certificate JSON is its own module, which verify
    # never loads
    from . import revalidation

    return revalidation.revalidate(data)
