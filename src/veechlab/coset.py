"""Todd-Coxeter coset enumeration (HLT strategy): the tests' reference
for the closed-form table that the Index reads (certificates._coset_table).
It returns a veech.CosetTable; no command imports this module.

Cosets are defined lowest-unfilled-first while scanning subgroup
generators and then every relator at every live coset; coincidences are
merged through a queue over a union-find.  After closure the table is
renumbered canonically (breadth-first in generator order), so tables
are reproducible bit-for-bit.  A cap (10**5 by default) bounds the
number of cosets ever defined.
"""

from __future__ import annotations

from .errors import CapExceeded
from .veech import CosetTable, Presentation
from .words import Word


def _word_to_cols(word: Word, col: dict) -> tuple:
    return tuple(col[letter] for letter in word.letters)


class _Enumerator:
    def __init__(self, ncols: int, inv_col: list, cap: int):
        self.ncols = ncols
        self.inv_col = inv_col
        self.cap = cap
        self.table = [[None] * ncols]
        self.parent = [0]
        self.queue = []

    def rep(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def define(self, a: int, c: int) -> int:
        if len(self.table) >= self.cap:
            raise CapExceeded("coset cap of %d reached" % self.cap)
        b = len(self.table)
        self.table.append([None] * self.ncols)
        self.parent.append(b)
        self.table[a][c] = b
        self.table[b][self.inv_col[c]] = a
        return b

    def scan_and_fill(self, a: int, cols: tuple):
        a = self.rep(a)
        f, b = a, a
        i, j = 0, len(cols) - 1
        while True:
            # scan forward as far as the table allows
            while i <= j and self.table[f][cols[i]] is not None:
                f = self.rep(self.table[f][cols[i]])
                i += 1
            if i > j:
                if f != b:
                    self.coincide(f, b)
                return
            # scan backward
            while j >= i and self.table[b][self.inv_col[cols[j]]] is not None:
                b = self.rep(self.table[b][self.inv_col[cols[j]]])
                j -= 1
            if j < i:
                self.coincide(f, b)
                return
            if j == i:
                # one gap: close it (deduction)
                self.table[f][cols[i]] = b
                self.table[b][self.inv_col[cols[i]]] = f
                return
            # fill the first gap and continue scanning
            self.define(f, cols[i])

    def coincide(self, a: int, b: int):
        self.queue.append((a, b))
        while self.queue:
            x, y = self.queue.pop()
            x, y = self.rep(x), self.rep(y)
            if x == y:
                continue
            if x > y:
                x, y = y, x
            self.parent[y] = x
            row_y = self.table[y]
            row_x = self.table[x]
            for c in range(self.ncols):
                t = row_y[c]
                if t is None:
                    continue
                t = self.rep(t)
                # remove y from t's inverse slot, reattach to x
                u = row_x[c]
                if u is None:
                    row_x[c] = t
                    self.table[t][self.inv_col[c]] = x
                else:
                    self.queue.append((self.rep(u), t))

    def live_cosets(self):
        return [i for i in range(len(self.table)) if self.rep(i) == i]


def coset_enumerate(
    presentation: Presentation, subgroup: list, cap: int = 10 ** 5
) -> CosetTable:
    """Enumerate cosets of <subgroup> in the presented group (HLT)."""
    gens = presentation.generators
    col = {}
    inv_col = []
    for g in gens:
        col[(g, 1)] = len(inv_col)
        inv_col.append(len(inv_col) + 1)
        col[(g, -1)] = len(inv_col)
        inv_col.append(len(inv_col) - 1)
    relator_cols = [_word_to_cols(r, col) for r in presentation.relators]
    subgroup_cols = [_word_to_cols(w, col) for w in subgroup]

    enum = _Enumerator(2 * len(gens), inv_col, cap)
    for w in subgroup_cols:
        enum.scan_and_fill(0, w)
    i = 0
    while i < len(enum.table):
        if enum.rep(i) == i:
            for rel in relator_cols:
                enum.scan_and_fill(i, rel)
                if enum.rep(i) != i:
                    break
        i += 1
    live = enum.live_cosets()
    # no unfilled entries may remain after HLT completion
    for a in live:
        for c in range(enum.ncols):
            if enum.table[a][c] is None:
                raise CapExceeded("table not closed at cap %d" % cap)

    # canonical renumbering: BFS from coset 0 in generator order, each
    # generator's column before its inverse's
    queue = [enum.rep(0)]
    order = {queue[0]: 0}
    for a in queue:
        for b in map(enum.rep, enum.table[a]):
            if b not in order:
                order[b] = len(order)
                queue.append(b)
    if len(order) != len(live):
        raise CapExceeded("coset graph is not connected")  # cannot happen

    index = len(live)
    action = {}
    for g in gens:
        c = col[(g, 1)]
        perm = [0] * index
        for a in live:
            perm[order[a]] = order[enum.rep(enum.table[a][c])]
        action[g] = tuple(perm)
    table = CosetTable(presentation=presentation, subgroup=tuple(subgroup), index=index,
                       action=action)
    if not table.validate():
        raise CapExceeded("enumeration produced an inconsistent table")
    return table
