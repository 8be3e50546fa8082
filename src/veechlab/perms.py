"""Small permutation utilities on {0, ..., d-1}; permutations are tuples."""

from __future__ import annotations


def identity(d: int) -> tuple:
    return tuple(range(d))


def compose(first: tuple, then: tuple) -> tuple:
    """Permutation acting as `first` followed by `then`."""
    return tuple([then[i] for i in first])


def inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def power(p: tuple, k: int) -> tuple:
    if k < 0:
        return power(inverse(p), -k)
    result = identity(len(p))
    base = p
    while k:
        if k & 1:
            result = compose(result, base)
        base = compose(base, base)
        k >>= 1
    return result


def from_cycles(d: int, cycles) -> tuple:
    out = list(range(d))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
            out[a] = b
    perm = tuple(out)
    if sorted(perm) != list(range(d)):
        raise ValueError("cycles do not define a permutation")
    return perm


def cycles(p: tuple, include_fixed: bool = True):
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        if include_fixed or len(cyc) > 1:
            out.append(tuple(cyc))
    return out


def is_transitive(perms, d: int) -> bool:
    """Whether the permutations generate a group transitive on {0..d-1}.

    Forward images suffice: a set of points closed under a permutation
    of a finite set is closed under its inverse too.
    """
    if d == 0:
        return False
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for p in perms:
            j = p[i]
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == d
