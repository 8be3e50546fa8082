"""Value semantics of the record types: ordering, hashing, immutability
and per-instance defaults."""

import pytest

from veechlab import covering
from veechlab.certificates import Certificate
from veechlab.coset import coset_enumerate
from veechlab.covering import base_decomposition, build_cover
from veechlab.quotient import quotient_invariants
from veechlab.surface import ConePoint, EdgeRef, TranslationSurface, build_base
from veechlab.veech import presentation_for, subgroup_words
from veechlab.zcover import ZPermutation


def test_edge_ref_orders_by_polygon_then_side():
    refs = [EdgeRef(1, 0), EdgeRef(0, 2), EdgeRef(0, 1)]
    assert sorted(refs) == [EdgeRef(0, 1), EdgeRef(0, 2), EdgeRef(1, 0)]
    assert EdgeRef(0, 1) < EdgeRef(0, 2) < EdgeRef(1, 0)
    assert EdgeRef(polygon=0, side=1) == EdgeRef(0, 1) != EdgeRef(1, 0)


def test_edge_ref_is_a_dict_key():
    table = {EdgeRef(0, 1): "a", EdgeRef(1, 0): "b"}
    assert table[EdgeRef(0, 1)] == "a" and table[EdgeRef(1, 0)] == "b"
    assert hash(EdgeRef(2, 3)) == hash(EdgeRef(2, 3))
    assert len({EdgeRef(0, 1), EdgeRef(0, 1), EdgeRef(1, 0)}) == 2


@pytest.mark.parametrize("n", [5, 8])
def test_edge_maps_hold_edge_refs_only(n):
    # an EdgeRef equals the plain tuple (polygon, side); no edge map may mix the two
    base = build_base(n)
    for surface in (base, build_cover(n, 3).surface):
        for ref, dst in surface.gluing.items():
            assert type(ref) is EdgeRef and type(dst) is EdgeRef
        assert all(type(ref) is EdgeRef for ref in surface.generator_labels)
    # corners are plain (polygon, vertex) tuples, never EdgeRefs
    for cone in base.cone_points():
        assert all(type(c) is tuple for c in cone.corners)


def test_zpermutation_is_a_value():
    assert ZPermutation(1, -1) == ZPermutation(t_even=1, t_odd=-1)
    assert ZPermutation(1, -1) != ZPermutation(-1, 1)
    assert ZPermutation(2, 0) != (2, 0)
    assert len({ZPermutation(2, 4), ZPermutation(2, 4), ZPermutation(4, 2)}) == 2
    assert repr(ZPermutation(0, 2)) == "ZPermutation(t_even=0, t_odd=2)"


def _frozen_values():
    n = 5
    table = coset_enumerate(presentation_for(n), subgroup_words(n))
    return [
        EdgeRef(0, 1),
        ConePoint(corners=((0, 0), (1, 2)), angle_multiple=2),
        base_decomposition(n, 0)[0],
        quotient_invariants(table),
        ZPermutation(1, 1),
        presentation_for(n),
    ]


@pytest.mark.parametrize("value", _frozen_values(), ids=lambda v: type(v).__name__)
def test_frozen_types_cannot_be_mutated(value):
    name = next(iter(getattr(value, "_fields", None) or type(value).__slots__))
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) is before
    assert not hasattr(value, "extra")


def test_certificates_do_not_share_a_default_payload():
    a = Certificate("Index", 5, None, "pass")
    b = Certificate(kind="Index", n=5, d=None, verdict="pass")
    assert a.payload == {} == b.payload
    a.payload["index"] = 5
    assert b.payload == {}


def test_cover_surface_is_built_once(monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return TranslationSurface(*args)

    monkeypatch.setattr(covering, "TranslationSurface", counting)
    cover = build_cover(5, 3)
    assert built == []
    first = cover.surface
    assert cover.surface is first and len(built) == 1
    assert len(first.polygons) == 3 * len(cover.base.polygons)
