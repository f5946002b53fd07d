"""The benchmark's own Weyl group arithmetic, used to make and check inputs.

It shares no code with ``schubertcalc``, so inputs stay identical when the
program changes its element representation or enumeration order.  An element
``w`` is stored as the weight ``w^-1(rho)`` in fundamental-weight
coordinates: right multiplication by ``s_i`` reflects that vector, ``i`` is a
right descent exactly when its ``i``-th entry is negative, and the vector
determines ``w`` because ``rho`` is regular.  Inputs leave this module only as
words in the simple reflections (1-based letters).
"""

from __future__ import annotations

import random

# Cartan matrices with A[i][j] = <alpha_j, alpha_i^vee>, the program's convention.
def _cartan_a(n):
    return tuple(tuple(2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)) for i in range(n))


def _cartan_bc(n, long_last):
    a = [list(r) for r in _cartan_a(n)]
    if long_last:
        a[n - 2][n - 1] = -2
    else:
        a[n - 1][n - 2] = -2
    return tuple(map(tuple, a))


def _cartan_d(n):
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 2):
        a[i][i + 1] = a[i + 1][i] = -1
    a[n - 3][n - 1] = a[n - 1][n - 3] = -1
    return tuple(map(tuple, a))


CARTAN = {
    "G2": ((2, -1), (-3, 2)),
    "B3": _cartan_bc(3, long_last=False),
    "A4": _cartan_a(4),
    "D4": _cartan_d(4),
    "C4": _cartan_bc(4, long_last=True),
    "B4": _cartan_bc(4, long_last=False),
    "A5": _cartan_a(5),
    "F4": ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2)),
}


class Group:
    """A Weyl group given by its Cartan matrix, acting on ``w^-1(rho)``."""

    def __init__(self, label: str):
        self.label = label
        a = CARTAN[label]
        self.rank = len(a)
        # alpha_i in fundamental-weight coordinates is column i of A.
        self._alpha = [tuple(a[j][i] for j in range(self.rank)) for i in range(self.rank)]
        self._cartan = a
        self.rho = (1,) * self.rank
        self.w0_word = self.climb(())
        self.nroots = len(self.w0_word)

    def reflect(self, x, i):
        """``x`` after right multiplication of its element by ``s_i``."""
        c = x[i - 1]
        return tuple(xj - c * aj for xj, aj in zip(x, self._alpha[i - 1]))

    def vec(self, word):
        x = self.rho
        for i in word:
            x = self.reflect(x, i)
        return x

    def reduce(self, x, rng: random.Random | None = None):
        """A reduced word of the element with vector ``x``.

        Strips the least right descent, or a random one when ``rng`` is given,
        so a seeded ``rng`` yields a non-canonical reduced word.
        """
        letters = []
        while True:
            down = [i for i, c in enumerate(x, 1) if c < 0]
            if not down:
                break
            i = rng.choice(down) if rng else down[0]
            letters.append(i)
            x = self.reflect(x, i)
        letters.reverse()
        return tuple(letters)

    def subword(self, rng: random.Random, word, keep: float):
        """A reduced word of the product of a random subword of ``word``.

        Every subword product of a reduced word of ``u`` lies below ``u`` in
        Bruhat order, so this draws elements of the interval ``[e, u]``.
        """
        return self.reduce(self.vec([i for i in word if rng.random() < keep]))

    def elements(self):
        """Reduced words of all elements, by length then canonical word."""
        seen, level, out = {self.rho}, [self.rho], [()]
        while level:
            nxt = {}
            for x in level:
                for i, c in enumerate(x, 1):
                    if c > 0:
                        y = self.reflect(x, i)
                        if y not in seen:
                            seen.add(y)
                            nxt[y] = self.reduce(y)
            level = sorted(nxt, key=nxt.get)
            out.extend(nxt[y] for y in level)
        return out

    def demazure(self, *words):
        """A reduced word of the Demazure product, which lies above each factor.

        Letters that are ascents of the product so far are taken, the others
        skipped, so the result is >= every factor in Bruhat order.
        """
        x = self.rho
        for i in (i for w in words for i in w):
            if x[i - 1] > 0:
                x = self.reflect(x, i)
        return self.reduce(x)

    def climb(self, word, length: int | None = None, rng: random.Random | None = None):
        """A reduced word above ``word``, going up by ascents to ``length``.

        Takes the least ascent, or a random one when ``rng`` is given; with no
        ``length`` it climbs to the longest element.
        """
        x, n = self.vec(word), len(word)
        while length is None or n < length:
            up = [i for i, c in enumerate(x, 1) if c > 0]
            if not up:
                break
            x = self.reflect(x, rng.choice(up) if rng else up[0])
            n += 1
        return self.reduce(x)

    def coroot(self, word, j):
        """Simple-coroot coordinates of ``b^-1(alpha_j^vee)``, for ``word`` = b.

        If ``u = a s_j b`` and ``w = a b`` are reduced, then ``u = w r_beta``
        with ``beta = b^-1(alpha_j)``; this is that beta's coroot.
        """
        a = self._cartan
        g = [int(m == j - 1) for m in range(self.rank)]
        for k in word:
            # s_k(g) = g - <alpha_k, g> alpha_k^vee, <alpha_k, alpha_m^vee> = A[m][k]
            g[k - 1] -= sum(g[m] * a[m][k - 1] for m in range(self.rank))
        return tuple(g)

    def mul(self, *words):
        """A reduced word of the product of the given words."""
        return self.reduce(self.vec([i for w in words for i in w]))


def show(word) -> str:
    """The CLI spelling of a word: ``s1 s3 s2``, or ``e`` for the identity."""
    return " ".join(f"s{i}" for i in word) or "e"
