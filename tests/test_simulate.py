import numpy as np

from helpers import CX
from qaroute.qvbench import haar_su4
from qaroute.simulate import (apply_two_qubit, embed_two_qubit,
                              exchange_qubits, is_unitary,
                              permutation_matrix, phase_distance, zero_state)


def random_state(n, seed=0):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return amp / np.linalg.norm(amp)


def test_zero_state():
    psi = zero_state(3)
    assert psi.shape == (8,)
    assert psi[0] == 1.0 and np.count_nonzero(psi) == 1


def test_is_unitary():
    assert is_unitary(np.eye(4))
    assert is_unitary(haar_su4(0))
    assert not is_unitary(np.ones((4, 4)))
    assert not is_unitary(np.eye(3)[:2])


def test_apply_matches_embed():
    u = haar_su4(1)
    psi = random_state(3, seed=4)
    for a, b in ((0, 1), (2, 0), (1, 2)):
        via_apply = apply_two_qubit(psi, u, a, b, 3)
        via_embed = embed_two_qubit(u, a, b, 3) @ psi
        assert np.allclose(via_apply, via_embed)


def test_apply_to_matrix_acts_on_each_column():
    u = haar_su4(5)
    rng = np.random.default_rng(6)
    cols = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    out = apply_two_qubit(cols, u, 2, 0, 3)
    assert out.shape == (8, 3)
    for k in range(3):
        assert np.allclose(out[:, k], apply_two_qubit(cols[:, k], u, 2, 0, 3))


def test_exchange_qubits_involution():
    u = haar_su4(2)
    assert np.allclose(exchange_qubits(exchange_qubits(u)), u)
    # Exchanging CX swaps control and target.
    xc = embed_two_qubit(CX, 1, 0, 2)
    assert np.allclose(exchange_qubits(CX), xc)


def test_embed_order_sensitivity():
    # Wire order matters: (a, b) and (b, a) differ by conjugation.
    u = haar_su4(3)
    a_b = embed_two_qubit(u, 0, 1, 2)
    b_a = embed_two_qubit(exchange_qubits(u), 1, 0, 2)
    assert np.allclose(a_b, b_a)


def test_permutation_matrix_composition():
    dest1 = (1, 2, 0)
    dest2 = (2, 0, 1)
    p1 = permutation_matrix(dest1)
    p2 = permutation_matrix(dest2)
    comp = tuple(dest2[dest1[q]] for q in range(3))
    assert np.allclose(permutation_matrix(comp), p2 @ p1)
    assert np.allclose(permutation_matrix((0, 1, 2)), np.eye(8))


def test_permutation_matrix_moves_bits():
    # |100> with wire 0 set, sent to wire 2.
    psi = zero_state(3)
    psi[0b100] , psi[0] = 1.0, 0.0
    out = permutation_matrix((2, 1, 0)) @ psi
    assert out[0b001] == 1.0


def test_phase_distance():
    u = haar_su4(4)
    assert phase_distance(u, 1j * u) < 1e-12
    assert phase_distance(u, np.exp(0.3j) * u) < 1e-12
    v = haar_su4(5)
    assert phase_distance(u, v) > 1e-3
