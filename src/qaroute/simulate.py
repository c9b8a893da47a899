"""Dense statevector and unitary helpers for small registers.

Everything here works on explicit numpy arrays; registers stay small
(at most a dozen qubits for statevectors, six for full unitaries), so
no sparsity or tensor-network tricks are needed.

Conventions: qubit 0 is the first (most significant) tensor factor, and
a two-qubit matrix acting on the ordered pair (a, b) treats a as its
first factor, i.e. basis order |a b> = |00>, |01>, |10>, |11>.
"""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

CX = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]], dtype=complex)

SWAP = np.array(
    [[1, 0, 0, 0],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1]], dtype=complex)


def is_unitary(m: np.ndarray, atol: float = 1e-8) -> bool:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return np.allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=atol)


def exchange_qubits(u4: np.ndarray) -> np.ndarray:
    """Return the same two-qubit gate with its tensor factors exchanged."""
    return SWAP @ u4 @ SWAP


def apply_two_qubit(state: np.ndarray, u4: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    """Apply a 4x4 gate to wires (a, b) of an n-wire statevector, or of
    every column of a matrix with 2^n rows whose columns are states."""
    psi = state.reshape((2,) * n + state.shape[1:])
    psi = np.moveaxis(psi, (a, b), (0, 1))
    rest = psi.shape[2:]
    psi = (u4 @ psi.reshape(4, -1)).reshape((2, 2) + rest)
    psi = np.moveaxis(psi, (0, 1), (a, b))
    return psi.reshape(state.shape)


def zero_state(n: int) -> np.ndarray:
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    return psi


def embed_two_qubit(u4: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    """Expand a 4x4 gate on wires (a, b) to the full 2^n x 2^n matrix."""
    return apply_two_qubit(np.eye(2**n, dtype=complex), u4, a, b, n)


def permutation_matrix(dest: list[int] | tuple[int, ...]) -> np.ndarray:
    """Permutation operator sending the content of wire q to wire dest[q].

    Acting on a basis state whose wire q carries bit b_q, the image has
    bit b_q on wire dest[q].
    """
    n = len(dest)
    p = np.zeros((2**n, 2**n), dtype=complex)
    for col in range(2**n):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        row = 0
        for q in range(n):
            row |= bits[q] << (n - 1 - dest[q])
        p[row, col] = 1.0
    return p


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm distance between two matrices up to a global phase."""
    inner = np.trace(b.conj().T @ a)
    if abs(inner) < 1e-12:
        # No useful phase alignment; fall back to the best entrywise guess.
        idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
        if abs(b[idx]) < 1e-12:
            return float(np.max(np.abs(a - b)))
        phase = a[idx] / b[idx]
        if abs(phase) < 1e-12:
            return float(np.max(np.abs(a - b)))
        phase /= abs(phase)
    else:
        phase = inner / abs(inner)
    return float(np.max(np.abs(a - phase * b)))
