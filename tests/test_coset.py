import tracemalloc

import pytest

from veechlab import certificates, perms
from veechlab.coset import CosetTable, coset_enumerate
from veechlab.errors import CapExceeded, VerificationFailure
from veechlab.quotient import quotient_invariants
from veechlab.veech import gamma_generator_words, presentation_for, subgroup_words
from veechlab.words import Word

from oracles import Mat2, eval_group_word


@pytest.mark.parametrize("n,expected", [(5, 5), (7, 7), (9, 9), (11, 11), (8, 4), (10, 5), (12, 6)])
def test_index(n, expected):
    table = coset_enumerate(presentation_for(n), subgroup_words(n))
    assert table.index == expected
    assert table.validate()


def test_whole_group_has_index_one():
    p = presentation_for(5)
    table = coset_enumerate(p, [Word.generator("R"), Word.generator("T")])
    assert table.index == 1


@pytest.mark.parametrize("n", [5, 7, 9, 8, 10, 12])
def test_rotation_acts_as_full_cycle(n):
    table = coset_enumerate(presentation_for(n), subgroup_words(n))
    rot = "R" if n % 2 else "r"
    cycles = perms.cycles(table.action[rot])
    assert len(cycles) == 1 and len(cycles[0]) == table.index


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_odd_transversal_is_rotation_powers(n):
    # the cosets are G, GR, ..., GR^(n-1): the words R^j hit all cosets
    table = coset_enumerate(presentation_for(n), subgroup_words(n))
    hit = {table.act_word(0, Word.generator("R") ** j) for j in range(n)}
    assert hit == set(range(n))


@pytest.mark.parametrize("n", [8, 10, 12])
def test_even_transversal_is_even_rotation_powers(n):
    # computational verification of the coset representatives I, R^2, ..., R^(n-2)
    table = coset_enumerate(presentation_for(n), subgroup_words(n))
    hit = {table.act_word(0, Word.generator("r") ** j) for j in range(n // 2)}
    assert hit == set(range(n // 2))


def test_deterministic_tables():
    a = coset_enumerate(presentation_for(7), subgroup_words(7))
    b = coset_enumerate(presentation_for(7), subgroup_words(7))
    assert a.action == b.action


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        coset_enumerate(presentation_for(9), subgroup_words(9), cap=3)


@pytest.mark.parametrize("n", [5, 7, 9, 8, 10])
def test_against_sympy_enumerator(n):
    sympy = pytest.importorskip("sympy")
    from sympy.combinatorics.fp_groups import FpGroup, coset_enumeration_r
    from sympy.combinatorics.free_groups import free_group

    pres = presentation_for(n)
    if n % 2:
        F, R, T = free_group("R T")
        table = {"R": R, "T": T}
    else:
        F, r, t, z = free_group("r t z")
        table = {"r": r, "t": t, "z": z}

    def to_free(word):
        out = F.identity
        for sym, step in word.letters:
            out = out * (table[sym] if step > 0 else table[sym] ** -1)
        return out

    G = FpGroup(F, [to_free(rel) for rel in pres.relators])
    C = coset_enumeration_r(G, [to_free(w) for w in subgroup_words(n)])
    C.compress()
    expected = n if n % 2 else n // 2
    assert len(C.table) == expected
    assert coset_enumerate(pres, subgroup_words(n)).index == expected


# ---------------------------------------------------------------------------
# Schreier generators land in the subgroup (mirrors the index-n proof)


def _psl_key(m: Mat2):
    return min(m.key(), (-m).key())


def _ball(mats, depth):
    seen = {}
    frontier = {(_psl_key(Mat2.identity(mats[0].a.N))): Mat2.identity(mats[0].a.N)}
    seen.update(frontier)
    for _ in range(depth):
        nxt = {}
        for m in frontier.values():
            for g in mats:
                for h in (m * g, m * g.inverse()):
                    k = _psl_key(h)
                    if k not in seen:
                        nxt[k] = h
                        seen[k] = h
        frontier = nxt
    return seen


@pytest.mark.parametrize("n", [5, 7])
def test_schreier_generators_lie_in_subgroup(n):
    pres = presentation_for(n)
    table = coset_enumerate(pres, subgroup_words(n))
    gen_mats = [eval_group_word(n, w) for w in gamma_generator_words(n)]
    gen_mats = [m for m in gen_mats if not (m == minus(n))]
    ball = _ball(gen_mats, 3)

    # a transversal: the word that first reaches each coset, breadth-first
    # from coset 0 in generator order, each generator before its inverse
    words, queue = {0: Word()}, [0]
    for a in queue:
        for sym in pres.generators:
            p = table.action[sym]
            for step, b in ((1, p[a]), (-1, p.index(a))):
                if b not in words:
                    words[b] = words[a] * Word.generator(sym, step)
                    queue.append(b)
    transversal = [words[i] for i in range(table.index)]
    schreier = []
    for i, t in enumerate(transversal):
        for sym in pres.generators:
            j = table.action[sym][i]
            word = t * Word.generator(sym) * transversal[j].inverse()
            m = eval_group_word(n, word)
            if not m.is_identity():
                schreier.append((repr(word), m))
    assert schreier  # the table does produce nontrivial Schreier generators

    for label, m in schreier:
        # meet-in-the-middle membership modulo sign, sign fixed by -I in G
        target = _psl_key(m)
        if target in ball:
            continue
        found = False
        for a in ball.values():
            if _psl_key(a.inverse() * m) in ball:
                found = True
                break
        assert found, "Schreier generator %s not expressible" % label


def minus(n):
    return -Mat2.identity(4 * n)


@pytest.mark.parametrize("n", [n for n in range(5, 62) if n != 6])
def test_the_coset_action_has_its_closed_form(n):
    # the cosets are H rho^i for i < k (k = n for odd n, n/2 for even n):
    # rho acts as i -> i + 1, T as i -> -i mod k, and z fixes every coset;
    # read off the enumerated table, which assumes no closed form
    table = coset_enumerate(presentation_for(n), subgroup_words(n))
    k = n if n % 2 else n // 2
    rho, tau = ("R", "T") if n % 2 else ("r", "t")
    assert table.index == k
    cosets = [0]
    for _ in range(k - 1):
        cosets.append(table.action[rho][cosets[-1]])
    assert len(set(cosets)) == k
    for i, c in enumerate(cosets):
        assert table.action[rho][c] == cosets[(i + 1) % k]
        assert table.action[tau][c] == cosets[-i % k]
        if n % 2 == 0:
            assert table.action["z"][c] == c


@pytest.mark.parametrize("n", [n for n in range(5, 62) if n != 6])
def test_the_closed_form_table_is_the_enumerated_one(n):
    closed = certificates._coset_table(n)
    enumerated = coset_enumerate(presentation_for(n), subgroup_words(n))
    assert closed.index == enumerated.index
    assert quotient_invariants(closed) == quotient_invariants(enumerated)
    # the relabelling that fixes coset H: closed coset i is the enumerated
    # coset that rho^i reaches, as rho^i reaches closed coset i
    rho = Word.generator(closed.presentation.generators[0])
    sigma = [enumerated.act_word(0, rho ** i) for i in range(closed.index)]
    assert sorted(sigma) == list(range(closed.index))
    for g, perm in closed.action.items():
        assert [sigma[c] for c in perm] == [enumerated.action[g][c] for c in sigma], g


@pytest.mark.parametrize("n", [n for n in range(5, 62) if n != 6])
def test_the_closed_form_table_is_successor_and_reflection(n):
    # the premise of _coset_table's proof: rho is the successor map and tau
    # the reflection i -> -i mod k, so rho^i takes coset 0 to coset i
    table = certificates._coset_table(n)
    k = table.index
    rho, tau, *z = table.presentation.generators
    assert k == (n if n % 2 else n // 2)
    assert table.action[rho] == tuple((i + 1) % k for i in range(k))
    assert table.action[tau] == tuple(-i % k for i in range(k))
    assert all(table.action[g] == tuple(range(k)) for g in z)
    assert [table.act_word(0, Word.generator(rho) ** i) for i in range(k)] == list(range(k))


@pytest.mark.parametrize("n", [5, 9, 25, 8, 12, 26])
def test_word_permutation_by_runs_is_the_letter_walk(n):
    # word_permutation applies each run of one letter as one power; every
    # coset's image is the one that act_word reaches letter by letter
    table = certificates._coset_table(n)
    pres = table.presentation
    words = [*pres.relators, *table.subgroup, *(w for _, w in pres.parabolic_classes),
             *(w for _, _, w in pres.elliptic_classes)]
    rho, tau = (Word.generator(g) for g in pres.generators[:2])
    words += [rho ** 3 * tau ** -2 * rho * rho.inverse() * tau, Word()]
    for w in words:
        walked = tuple(table.act_word(c, w) for c in range(table.index))
        assert table.word_permutation(w) == walked, w


def test_the_closed_form_table_keeps_no_transversal():
    # the table holds its presentation, subgroup words and action, and the
    # words' powers share their letter tuples; a word rho^i per coset
    # would add k(k - 1)/2 letters (17.7 MB in all at n = 601)
    certificates._coset_table.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = certificates._coset_table(601)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert table.index == 601
    assert kept < 3_000_000, kept


def _reduced(word: Word) -> Word:
    out = []
    for g, s in word.letters:
        if out and out[-1] == (g, -s):
            out.pop()
        else:
            out.append((g, s))
    return Word(out)


def _conjugacy_class(word: Word) -> tuple:
    """The cyclic normal form of word's cyclically reduced core."""
    letters = _reduced(word).letters
    while len(letters) > 1 and letters[0] == (letters[-1][0], -letters[-1][1]):
        letters = letters[1:-1]
    return Word(letters).cyclic_normal_form()


@pytest.mark.parametrize("n", [n for n in range(5, 62) if n != 6])
def test_the_schreier_identities_are_one_relator_consequence(n):
    # _coset_table's proof that H is the whole stabiliser of coset 0: each
    # identity lhs ~ rhs, for either sign of i, freely reduces lhs^-1 rhs
    # to a conjugate of one word or its inverse (or to nothing), and that
    # word holds as exact matrices; each word that the proof puts in H is
    # one of H's words
    k = n if n % 2 else n // 2
    words = set(subgroup_words(n))
    R, T = Word.generator("R"), Word.generator("T")
    if n % 2:
        consequence = T * R.inverse() * T * R ** (n - 1)
        identities = [(R ** i * T * R ** i, rhs) for i in range(-k, k + 1) for rhs in (
            (R ** i * T * T * R ** -i) * (R ** (i - 1) * T * R ** (i - 1)) * R ** n,
            R ** n * (R ** (n - 1 - i) * T * R ** (n - 1 - i)).inverse())]
        in_h = [R ** n, T] + [R ** i * T * T * R ** -i for i in range(1, (n - 1) // 2 + 1)]
        matrices = consequence
    else:
        r, t, z = Word.generator("r"), Word.generator("t"), Word.generator("z")
        u = (t.inverse() * r) ** 2
        consequence = r ** -k * u * r ** k * u.inverse()
        identities = [(lhs, rhs) for i in range(-k, k + 1) for lhs, rhs in (
            (r ** i * t * r ** i,
             (r ** i * t * t * r ** -i) * (r ** (i - 1) * t * r ** (i - 1))
             * (r ** -(i - 1) * u * r ** (i - 1))),
            (r ** -i * u * r ** i, r ** (k - i) * (r ** -k * u * r ** k) * r ** -(k - i)))]
        in_h = [z, t] + [r ** i * t * t * r ** -i for i in range(1, k)]
        in_h += [r ** i * u * r ** -i for i in range(k)]
        matrices = consequence.substitute({"r": R * R, "t": T, "z": R ** n})
    classes = {(), _conjugacy_class(consequence), _conjugacy_class(consequence.inverse())}
    for lhs, rhs in identities:
        assert _conjugacy_class(lhs.inverse() * rhs) in classes, (lhs, rhs)
    assert eval_group_word(n, matrices).is_identity()
    assert {_reduced(w) for w in in_h} <= words


@pytest.mark.parametrize("n", [5, 9, 8, 12])
def test_validate_rejects_another_closed_form(n):
    table = certificates._coset_table(n)
    pres, k = table.presentation, table.index
    rho, tau, *z = pres.generators

    def closed(size, reflect=-1):
        # rho: i -> i + 1 and tau: i -> reflect * i on size cosets
        action = {rho: tuple((i + 1) % size for i in range(size)),
                  tau: tuple(reflect * i % size for i in range(size))}
        action.update((g, tuple(range(size))) for g in z)
        return CosetTable(pres, table.subgroup, size, action)

    assert closed(k).validate()
    for size, reflect in ((k - 1, -1), (k + 1, -1), (k, 1)):
        assert not closed(size, reflect).validate(), (size, reflect)


def test_an_index_is_certified_only_from_a_validated_table(monkeypatch):
    certificates._coset_table.cache_clear()
    monkeypatch.setattr(CosetTable, "validate", lambda table: False)
    with pytest.raises(VerificationFailure, match="closed-form coset table of n = 9"):
        certificates.certify_index(9)
    monkeypatch.undo()
    assert certificates.certify_index(9).verdict == "pass"
