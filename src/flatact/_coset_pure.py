"""Pure-Python Todd-Coxeter coset enumeration (HLT with coincidences).

Letters encode generators: generator i is letter 2*i, its inverse is
2*i + 1, so inversion is xor with 1.  The compiled extension module
implements the same entry point; the pure version is the fallback and
the reference for differential testing.
"""

import numpy as np

from flatact import BoundExceeded


class CosetLimitExceeded(BoundExceeded):
    pass


def enumerate_cosets(ngens, relators, subgens, coset_limit):
    """HLT enumeration of the cosets of <subgens> in the group presented
    by `relators` (all words as tuples of letters).

    Returns the compacted closed coset table as an int32 array of shape
    (live cosets, 2*ngens); coset 0 is the subgroup.  Raises
    CosetLimitExceeded when more than coset_limit cosets would be defined
    (dead ones included).
    """
    nl = 2 * ngens
    UNDEF = -1
    table = [[UNDEF] * nl]
    p = [0]
    dead = [0]

    def rep(c):
        while p[c] != c:
            p[c] = p[p[c]]
            c = p[c]
        return c

    def define(a, x):
        if len(table) >= coset_limit:
            raise CosetLimitExceeded(
                "coset limit %d exceeded" % coset_limit
            )
        b = len(table)
        table.append([UNDEF] * nl)
        p.append(b)
        table[a][x] = b
        table[b][x ^ 1] = a
        return b

    def coincidence(a, b):
        queue = []

        def merge(u, v):
            u = rep(u)
            v = rep(v)
            if u != v:
                if u > v:
                    u, v = v, u
                p[v] = u
                dead[0] += 1
                queue.append(v)

        merge(a, b)
        qi = 0
        while qi < len(queue):
            y = queue[qi]
            qi += 1
            row = table[y]
            for x in range(nl):
                d = row[x]
                if d != UNDEF:
                    table[d][x ^ 1] = UNDEF
                    row[x] = UNDEF
                    mu = rep(y)
                    nu = rep(d)
                    t = table[mu][x]
                    if t != UNDEF:
                        merge(nu, t)
                    else:
                        t2 = table[nu][x ^ 1]
                        if t2 != UNDEF:
                            merge(mu, t2)
                        else:
                            table[mu][x] = nu
                            table[nu][x ^ 1] = mu

    def scan_and_fill(a, w):
        i = 0
        j = len(w) - 1
        f = a
        b = a
        while True:
            while i <= j:
                t = table[f][w[i]]
                if t == UNDEF:
                    break
                f = t
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i:
                t = table[b][w[j] ^ 1]
                if t == UNDEF:
                    break
                b = t
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][w[i]] = b
                table[b][w[i] ^ 1] = f
                return
            define(f, w[i])

    for w in subgens:
        scan_and_fill(0, w)
    a = 0
    while a < len(table):
        if rep(a) != a:
            a += 1
            continue
        for w in relators:
            scan_and_fill(a, w)
            if rep(a) != a:
                break
        if rep(a) == a:
            row = table[a]
            for x in range(nl):
                if row[x] == UNDEF:
                    define(a, x)
        a += 1

    live = [i for i in range(len(table)) if rep(i) == i]
    renumber = {old: new for new, old in enumerate(live)}
    out = np.empty((len(live), nl), dtype=np.int32)
    for new, i in enumerate(live):
        out[new] = [renumber[rep(c)] for c in table[i]]
    return out
