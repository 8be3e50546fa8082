"""Revalidation from payload: the reader of certificate JSON.

certificates.revalidate(data), the public entry point, loads this module
on its first call, so a `veechlab verify` never compiles it.  Each
certificate is parsed here and judged by the verdict rule of its kind in
certificates, the rule that made its verdict; exact values are read as
indices of n's type table (certificates._types), which verify and
revalidate share.  Every image and sigma_T is parsed by the claim's d,
in one function (_permutation).
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice

from .certificates import (
    FAIL,
    FORMAT,
    _SIGMA_MODES,
    _index_rule,
    _infinite_preimages,
    _minus_identity_rule,
    _pullback_rule,
    _rotation_rule,
    _shear_rule,
    _sigma_rule,
    _theorem_rule,
    _theorem_slots,
    _types,
    _well_formed_rule,
)
from .covering import Monodromy, num_generators
from .errors import MalformedCertificate, short_repr
from .surface import no_base_surface


_NONE = type(None)
_NO_LONGER_READ = ("format %%d is no longer read; run `veechlab verify` again to write format %d"
                   % FORMAT)

# A standalone certificate names its own n, and revalidating it builds
# the field of conductor 4n, at a cost that grows as N * phi(N); above
# this n it is refused before any value is parsed.  An Index builds no
# field, but is capped with the other kinds.  A FullTheorem is not
# capped: verify_theorem writes one for every n.
MAX_STANDALONE_N = 128


def _field(obj, key: str, *types):
    """obj[key] from certificate JSON; its type must be one of types
    (exactly: a bool is no int)."""
    if type(obj) is not dict or key not in obj:
        raise MalformedCertificate("missing key %r" % key)
    value = obj[key]
    if type(value) not in types:
        raise MalformedCertificate("%r: expected %s, got %s" % (
            key, " or ".join(t.__name__ for t in types), type(value).__name__))
    return value


def _permutation(data, d, mismatch: str):
    """An image or sigma_T as a permutation of the claim's d sheets: a
    list of d ints (a tuple) for an int d, or the dict of a ZPermutation
    for d = "inf".  JSON of the other kind or length raises
    MalformedCertificate(mismatch), checked first, so a claim of many
    sheets builds no list of them; anything else is no permutation."""
    if d == "inf":
        if type(data) is not dict:
            raise MalformedCertificate(mismatch)
        if data.keys() == {"t_even", "t_odd"} and {*map(type, data.values())} == {int}:
            from .zcover import ZPermutation

            try:
                return ZPermutation(**data)
            except ValueError as exc:  # t_even and t_odd of unequal parity
                raise MalformedCertificate(str(exc)) from exc
    elif type(data) is not list or len(data) != d:
        raise MalformedCertificate(mismatch)
    elif {*map(type, data)} == {int} and sorted(data) == list(range(d)):
        return tuple(data)
    raise MalformedCertificate("%s is not a permutation of the %s sheets" % (short_repr(data), d))


class _Table:
    """Exact values of a certificate: its top-level table, indexed by
    rows and witnesses.  Each entry is read as its index in n's type
    table (_Types.read), so rows are types in the index space of
    verify's profiles, and the rules decide each exact fact there once
    per process.  The horizontal profile and the monodromy's images are
    top-level sections too, each read on first use, the images once as
    the carried monodromy that every kind reading them shares.
    """

    def __init__(self, data: dict, n: int, d):
        # n is _claimed_n(data), d is _degree(data, kind): every
        # subcertificate is about the top level's claim
        self.types, self._index = _types(n).read(_field(data, "values", list))
        self.n, self.d = n, d
        self._top = data

    def rows(self, rows: list, twists: bool = False) -> list:
        """Profile rows as ((inverse modulus, height), count) or, with
        twists, shear rows as (inverse modulus, twists), the values as
        indices in self.types.  Each row must name two table entries and
        a count that is None or at least 1 and, with twists, twists that
        are an int or None."""
        index, size, out = self._index, len(self._index), []
        for r in rows:
            try:
                m, h, c = r["inverse_modulus"], r["height"], r["count"]
                k = r["twists"] if twists else None
                ok = (type(m) is int and type(h) is int and 0 <= m < size and 0 <= h < size
                      and (c is None or type(c) is int and c > 0)
                      and (k is None or type(k) is int))
            except (KeyError, TypeError):  # a missing key, or a row that is no dict
                ok = False
            if not ok:
                raise MalformedCertificate("not a cylinder row of a table of %d values: %s"
                                           % (size, short_repr(r)))
            out.append((index[m], k) if twists else ((index[m], index[h]), c))
        return out

    @cached_property
    def horizontal(self) -> dict:
        """The horizontal profile, from the top-level section."""
        return _parse_multiset(_field(self._top, "horizontal", list), self)

    @cached_property
    def monodromy(self) -> Monodromy | ZMonodromy:
        """The carried monodromy, from the top-level images section and the
        claim's d: the images of the generators that move a sheet, in
        increasing order, each a permutation of the d sheets (of Z for
        d = inf) other than the identity; every other generator fixes
        every sheet."""
        d = self.d
        entries = _field(self._top, "images", list)
        g = num_generators(self.n)
        generators = [_field(e, "generator", int) for e in entries]
        if not all(a < b for a, b in zip([-1, *generators], [*generators, g])):
            raise MalformedCertificate("images must name generators of x_0..x_%d once each, "
                                       "in increasing order" % (g - 1))
        images = {i: _permutation(_field(e, "image", list, dict), d, "the image of x_%d does "
                                  "not permute the %s sheets of the claim" % (i, d))
                  for i, e in zip(generators, entries)}
        if d == "inf":
            from .zcover import ZMonodromy

            m = ZMonodromy(g, images)
        else:
            m = Monodromy(g, d, images)
        if len(m._moving) != len(images):
            raise MalformedCertificate("the image of x_%d moves no sheet"
                                       % min(images.keys() - m._moving.keys()))
        return m


def _claimed_n(data) -> int:
    """The n of a top-level certificate, which must be format FORMAT.

    Its table's conductor must be 4n, X_n must exist, and a standalone
    certificate (any kind but FullTheorem) must have n at most
    MAX_STANDALONE_N; all of this is checked before any value is parsed.
    """
    if type(data) is not dict or "format" not in data:
        raise MalformedCertificate("certificate has no \"format\" key: " + _NO_LONGER_READ % 1)
    if type(data["format"]) is int and 2 <= data["format"] < FORMAT:
        raise MalformedCertificate(_NO_LONGER_READ % data["format"])
    if type(data["format"]) is not int or data["format"] != FORMAT:
        raise MalformedCertificate("unknown certificate format %s" % short_repr(data["format"], 40))
    n, conductor = _field(data, "n", int), _field(data, "conductor", int)
    if conductor != 4 * n:
        raise MalformedCertificate("values have conductor %d, not 4n = %d" % (conductor, 4 * n))
    if no_base_surface(n):
        raise MalformedCertificate("no base surface X_%d" % n)
    kind = _field(data, "kind", str)
    if kind != "FullTheorem" and n > MAX_STANDALONE_N:
        raise MalformedCertificate("a standalone %.40s for n = %d > %d is not revalidated"
                                   % (kind, n, MAX_STANDALONE_N))
    return n


def _parse_multiset(rows: list, table: _Table) -> dict:
    # type -> count, one row per type
    multiset = dict(table.rows(rows))
    if len(multiset) != len(rows):
        raise MalformedCertificate("a cylinder type has more than one row")
    return multiset


# kind -> the payload key of its slot (_theorem_slots), and that key's type
_SLOTS = {"ShearMembership": ("l", int), "RotationObstruction": ("l", int),
          "SigmaT": ("mode", str), "MinusIdentity": (None, _NONE), "Index": (None, _NONE),
          "PullbackObstruction": ("l", int), "WellFormedCover": (None, _NONE),
          "FullTheorem": (None, _NONE)}


def _slot(data) -> tuple:
    """The (kind, l or SigmaT mode) slot that a certificate fills, as
    _theorem_slots lists them (None where a kind has neither), and its
    payload, which must be a dict; an unknown kind or mode, or an l that
    is no int, raises MalformedCertificate."""
    try:
        kind, payload = data["kind"], data["payload"]
        name, key_type = _SLOTS[kind]
        key = payload[name] if name else None
    except (KeyError, TypeError):  # a missing key, or data or payload that is no dict
        kind = None
    if kind is None or type(payload) is not dict or type(key) is not key_type or (
            kind == "SigmaT" and key not in _SIGMA_MODES):
        raise MalformedCertificate("not a certificate of a known kind whose dict payload "
                                   "names its slot: %s" % short_repr(data))
    return kind, key, payload


# kind -> the least d its claim may name, and whether d may be "inf": a
# cover claim (a theorem, or WellFormedCover) is of d >= 2 sheets, as
# verify_theorem requires; a kind that reads only the monodromy takes
# any d >= 1, as covering.Monodromy does.  The other kinds read no d.
_DEGREES = {"FullTheorem": (2, True), "WellFormedCover": (2, False), "SigmaT": (1, True),
            "MinusIdentity": (1, True), "PullbackObstruction": (1, True)}


def _degree(data: dict, kind: str):
    """The claim's degree d, for a kind that reads one (_DEGREES), else None."""
    if kind not in _DEGREES:
        return None
    least, infinite = _DEGREES[kind]
    d = _field(data, "d", int, str) if infinite else _field(data, "d", int)
    if d != "inf" and (type(d) is str or d < least):
        raise MalformedCertificate("degree %.40r is not an int d >= %d%s"
                                   % (d, least, ' or "inf"' if infinite else ""))
    return d


def revalidate(data: dict) -> str:
    """The verdict of certificates.revalidate(data), whose docstring
    says what is checked."""
    n = _claimed_n(data)
    kind, key, payload = _slot(data)
    d = _degree(data, kind)
    if kind != "FullTheorem":
        return _revalidate(kind, key, payload, _Table(data, n, d))
    read = _theorem_claim(payload, n, d)
    if read is None:
        return FAIL
    table = _Table(data, n, d)
    preimages = None
    if d == "inf":
        # the preimage count is recomputed from the images, which permute Z
        preimages = _infinite_preimages(n, table.monodromy)
        if payload.get("infinite_preimages_of_cylinder_k") != preimages:
            return FAIL
    subs = ((kind, _revalidate(kind, key, p, table), None) for kind, key, p in read)
    return _theorem_rule(d, subs, preimages)[0]


def _theorem_claim(payload: dict, n: int, d) -> list | None:
    """The (kind, l or SigmaT mode, payload) of a FullTheorem's
    subcertificates, in order, or None unless they fill the slots of
    (n, d) (_theorem_slots).  Each subcertificate is about the theorem's
    (n, d) and names neither, so a standalone certificate is no
    subcertificate.  No value is read."""
    subs, read, slots = _field(payload, "subcertificates", list), [], []
    pullback = n % 2 == 0 and d != "inf"  # a PullbackObstruction may fill a rotation's slot
    for s in subs:
        kind, key, _ = sub = _slot(s)
        if "n" in s or "d" in s:  # s is a dict: _slot read it
            raise MalformedCertificate("a %.40s subcertificate names its own n or d in a theorem "
                                       "for (%d, %r)" % (kind, n, d))
        read.append(sub)
        slots.append(("RotationObstruction" if kind == "PullbackObstruction" and pullback
                      else kind, key))
    # as many slots of (n, d) as a forger wrote subcertificates, and one more
    agree = slots == [*islice(_theorem_slots(n, d), len(subs) + 1)]
    return read if agree else None


def _revalidate(kind: str, key, payload: dict, table: _Table) -> str:
    # the verdict of any kind but FullTheorem, from the slot and payload
    # that _slot read
    n = table.n
    if kind == "ShearMembership":
        rows = table.rows(_field(payload, "cylinders", list), twists=True)
        return _shear_rule(rows, table.types)[0]
    if kind == "RotationObstruction":
        direction = _parse_multiset(_field(payload, "direction", list), table)
        return _rotation_rule(table.horizontal, direction, None)[0]
    if kind == "SigmaT":
        m = table.monodromy
        sigma = _permutation(_field(payload, "sigma_T", list, dict), table.d,
                             "sigma_T and the images permute different sheets")
        return _sigma_rule(n, m, sigma, key)[0]
    if kind == "MinusIdentity":
        return _minus_identity_rule(table.monodromy)[0]
    if kind == "Index":
        expected, index = (_field(payload, k, int) for k in ("expected_index", "index"))
        return _index_rule(n, expected, index)[0]
    if kind == "PullbackObstruction":
        if n % 2 or key % 2:
            raise MalformedCertificate("a pullback obstruction needs an X_n of even n and an even l")
        m = table.monodromy
        if m.degree == "inf":
            raise MalformedCertificate("a pullback obstruction needs finitely many sheets")
        return _pullback_rule(n, key, m)[0]
    return _well_formed_rule(table.monodromy, table.d)[0]
