"""Braid-group and sign action on monodromy data (S, C), and a bounded
search for the transformation matching the derived-category side.

The elementary braid b_{i,i+1} acts on an upper-triangular unipotent S and
its companion C through the matrix K = K(S):

    K[k][k] = 1 (k != i, i+1),  K[i+1][i+1] = -S[i][i+1],
    K[i][i+1] = K[i+1][i] = 1,  all other entries 0,

    b(S) = K S K,   b(C) = C K^(-1).

The inverse letter solves b(X) = S in closed form: with s = S[i][i+1],

    b^(-1)(S) = Kt S Kt,  Kt block [[-s, 1], [1, 0]],   b^(-1)(C) = C Kt^(-1),

where Kt^(-1) has block [[0, 1], [1, s]].  A sign diagonal J acts by
S -> J S J, C -> C J.  No re-triangularization or reordering is performed
between letters; the letters act literally through these matrices, so
they carry an integer S to integers and the search compares S exactly.
"""

from __future__ import annotations

import functools
import itertools

from monodromy_lab.engine import max_deviation
from monodromy_lab.record import Record
from monodromy_lab.ring import matmul


class BraidWord(Record):
    """A word in the generators; letters are (index i in 1..n-1, exponent +-1).
    A ``Record``, not a dataclass: see ``monodromy_lab.record``."""

    __slots__ = _fields = ("letters",)

    def __init__(self, letters):
        for i, e in letters:
            if i < 1 or e not in (1, -1):
                raise ValueError(f"bad letter ({i}, {e})")
        object.__setattr__(self, "letters", letters)

    @classmethod
    def empty(cls):
        return cls(letters=())

    def labels(self):
        return [f"b{i}{i+1}" + ("_inverse" if e < 0 else "") for i, e in self.letters]


class SignDiagonal(Record):
    """A diagonal of signs +-1, as a tuple."""

    __slots__ = _fields = ("signs",)

    def __init__(self, signs):
        if any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +-1")
        object.__setattr__(self, "signs", signs)


def _letter_matrices(S, i, exp):
    """(M, Minv) with b^exp(S) = M S M and b^exp(C) = C Minv."""
    n = len(S)
    s = S[i - 1][i]
    M = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    Minv = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    a, b = i - 1, i
    if exp == 1:
        M[a][a], M[a][b], M[b][a], M[b][b] = 0, 1, 1, -s
        Minv[a][a], Minv[a][b], Minv[b][a], Minv[b][b] = s, 1, 1, 0
    else:
        M[a][a], M[a][b], M[b][a], M[b][b] = -s, 1, 1, 0
        Minv[a][a], Minv[a][b], Minv[b][a], Minv[b][b] = 0, 1, 1, s
    return M, Minv


def _act_on_S(word, S):
    """(w(S), the letters' Minv in order): w(C) is C times their product."""
    S, inverses = tuple(map(tuple, S)), []
    for i, exp in word.letters:
        if i >= len(S):
            raise ValueError(f"letter index {i} out of range for size {len(S)}")
        M, Minv = _letter_matrices(S, i, exp)
        S = matmul(matmul(M, S), M)
        inverses.append(Minv)
    return S, inverses


def braid_act(word, S, C):
    """Apply a braid word (letters left to right) to (S, C).

    S, C are square nested sequences over any scalar type; new tuples of
    rows are returned.
    """
    S, inverses = _act_on_S(word, S)
    return S, functools.reduce(matmul, inverses, tuple(map(tuple, C)))


def _sign_S(J, S):
    n = len(S)
    return tuple(tuple(J[a] * J[b] * S[a][b] for b in range(n)) for a in range(n))


def sign_act(diag, S, C):
    """S -> J S J and C -> C J for J = diag(signs), as tuples of rows."""
    J = diag.signs
    return _sign_S(J, S), tuple(tuple(x * j for x, j in zip(row, J)) for row in C)


def search_equivalence(S, C, S_target, C_target, max_len, tol):
    """Breadth-first search for (word, signs) with J*w(S)*J == S_target
    exactly and w(C)*J = C_target to max-entry deviation <= tol.

    S and S_target are compared with ``==`` on tuples of rows: the braid
    letters and signs carry an integer S to integers, so the S side takes
    no tolerance, and ``tol`` bounds the numeric C side only.  Words are
    enumerated by length then lexicographically over the letters (1,+1),
    (1,-1), (2,+1), ..., and sign diagonals in binary order with +1 first,
    so the first (shortest, smallest) match is returned.  Returns
    (BraidWord, SignDiagonal) or None.  The S side is compared first: a
    word's C product is formed only once some sign diagonal matches on S.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    n = len(S)
    S_target = tuple(map(tuple, S_target))
    alphabet = [(i, e) for i in range(1, n) for e in (1, -1)]
    sign_patterns = [SignDiagonal(p) for p in itertools.product((1, -1), repeat=n)]

    for length in range(max_len + 1):
        for letters in itertools.product(alphabet, repeat=length):
            word = BraidWord(letters=letters)
            Sw, inverses = _act_on_S(word, S)
            Cw = None
            for diag in sign_patterns:
                if _sign_S(diag.signs, Sw) != S_target:
                    continue
                if Cw is None:
                    Cw = functools.reduce(matmul, inverses, C)
                if max_deviation(sign_act(diag, Sw, Cw)[1], C_target) <= tol:
                    return word, diag
    return None
