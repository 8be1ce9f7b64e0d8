"""Braid/sign action on (S, C) and the bounded equivalence search."""

import random

import pytest

from monodromy_lab import reference
from monodromy_lab.braid import (
    BraidWord,
    SignDiagonal,
    braid_act,
    search_equivalence,
    sign_act,
)
from monodromy_lab.engine import max_deviation

import oracles


def _random_unipotent(rng, n=4):
    S = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            S[i][j] = float(rng.randint(-5, 5))
    return S


def _random_C(rng, n=4):
    return [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
            for _ in range(n)]


def test_empty_word_is_identity():
    rng = random.Random(3)
    S, C = _random_unipotent(rng), _random_C(rng)
    S2, C2 = braid_act(BraidWord.empty(), S, C)
    assert max_deviation(S2, S) == 0
    assert max_deviation(C2, C) == 0


def test_letter_followed_by_inverse():
    rng = random.Random(5)
    for i in (1, 2, 3):
        S, C = _random_unipotent(rng), _random_C(rng)
        for first in (1, -1):
            w = BraidWord(letters=((i, first), (i, -first)))
            S2, C2 = braid_act(w, S, C)
            assert max_deviation(S2, S) < 1e-12
            assert max_deviation(C2, C) < 1e-12


def test_braid_relation_on_3x3():
    rng = random.Random(11)
    for _ in range(5):
        S = _random_unipotent(rng, n=3)
        C = _random_C(rng, n=3)
        w1 = BraidWord(letters=((1, 1), (2, 1), (1, 1)))
        w2 = BraidWord(letters=((2, 1), (1, 1), (2, 1)))
        S1, C1 = braid_act(w1, S, C)
        S2, C2 = braid_act(w2, S, C)
        assert max_deviation(S1, S2) < 1e-12
        assert max_deviation(C1, C2) < 1e-12


def test_sign_action_transpose_compatibility():
    rng = random.Random(13)
    S = _random_unipotent(rng)
    J = SignDiagonal(signs=(1, -1, 1, -1))
    Sj, _ = sign_act(J, S, _random_C(rng))
    St = [[S[j][i] for j in range(4)] for i in range(4)]
    Sjt, _ = sign_act(J, St, _random_C(rng))
    got_t = [[Sj[j][i] for j in range(4)] for i in range(4)]
    assert max_deviation(got_t, Sjt) == 0


def test_braid_action_preserves_constraints():
    # the monodromy constraint residuals are invariant under the action
    from monodromy_lab.engine import get_engine
    from monodromy_lab.monodromy import verify_constraints

    e = get_engine("mp", dps=40)
    C = reference.numeric(oracles.C_REF, dps=40)
    base = verify_constraints(
        reference.S_REF, [[e.complex(x) for x in row] for row in C], e
    )
    # the integer S_REF braids to an integer Stokes matrix
    w = BraidWord(letters=((2, -1),))
    S2, C2 = braid_act(w, reference.S_REF, C)
    moved = verify_constraints(
        S2, [[e.complex(x) for x in row] for row in C2], e
    )
    for key in base:
        assert abs(float(base[key]) - float(moved[key])) <= 1e-9


def test_search_finds_identity():
    rng = random.Random(17)
    S, C = _random_unipotent(rng), _random_C(rng)
    found = search_equivalence(S, C, S, C, max_len=1, tol=1e-6)
    assert found is not None
    word, signs = found
    assert word.letters == ()
    assert signs.signs == (1, 1, 1, 1)


def test_search_goes_past_a_word_that_matches_only_on_S():
    # with S = I, b12 fixes S and swaps C's first two columns, so the empty
    # word matches S_target = I under every sign diagonal but never C_target
    rng = random.Random(19)
    S, C = [[float(i == j) for j in range(4)] for i in range(4)], _random_C(rng)
    C_target = [[row[1], row[0], row[2], row[3]] for row in C]
    for signs in ((1, 1, 1, 1), (1, -1, 1, -1)):
        Ss, Cs = sign_act(SignDiagonal(signs), S, C)
        assert max_deviation(Ss, S) == 0 and max_deviation(Cs, C_target) > 0.01
    word, signs = search_equivalence(S, C, S, C_target, max_len=1, tol=1e-9)
    assert word.letters == ((1, 1),)
    assert signs.signs == (1, 1, 1, 1)


def test_search_published_transformation():
    from monodromy_lab.ktheory import c_gamma_matrix, euler_matrix, numeric_matrix
    from monodromy_lab.monodromy import _unipotent_inverse

    S = [[complex(x) for x in row] for row in reference.S_REF]
    C = reference.numeric(oracles.C_REF, dps=30)
    S_target = [[complex(x) for x in row] for row in _unipotent_inverse(euler_matrix())]
    C_target = numeric_matrix(c_gamma_matrix(), dps=30)
    found = search_equivalence(S, C, S_target, C_target, max_len=2, tol=1e-6)
    assert found is not None
    word, signs = found
    assert word.labels() == reference.EXPECTED_BRAID_LABELS
    assert signs.signs == reference.EXPECTED_SIGNS
    Sw, Cw = braid_act(word, S, C)
    Ss, Cs = sign_act(signs, Sw, Cw)
    assert max_deviation(Ss, S_target) <= 1e-6
    assert max_deviation(Cs, C_target) <= 1e-6


def test_search_rejects_perturbed_target():
    from monodromy_lab.ktheory import c_gamma_matrix, euler_matrix, numeric_matrix
    from monodromy_lab.monodromy import _unipotent_inverse

    S = [[complex(x) for x in row] for row in reference.S_REF]
    C = reference.numeric(oracles.C_REF, dps=30)
    S_target = [[complex(x) for x in row] for row in _unipotent_inverse(euler_matrix())]
    C_target = numeric_matrix(c_gamma_matrix(), dps=30)
    C_target[1][1] += 1e-3
    assert search_equivalence(S, C, S_target, C_target, max_len=2, tol=1e-6) is None


def test_word_validation():
    with pytest.raises(ValueError):
        BraidWord(letters=((0, 1),))
    with pytest.raises(ValueError):
        BraidWord(letters=((1, 2),))
    with pytest.raises(ValueError):
        SignDiagonal(signs=(1, 0, 1, 1))
    with pytest.raises(ValueError):
        search_equivalence([[1]], [[1]], [[1]], [[1]], max_len=0, tol=1e-6)
    with pytest.raises(ValueError):
        braid_act(BraidWord(letters=((5, 1),)), [[1, 0], [0, 1]], [[1, 0], [0, 1]])
