"""Dense statevector and unitary helpers for small registers.

Everything here works on explicit numpy arrays; registers stay small
(at most a dozen qubits for statevectors, eight for unitaries), so no
sparsity or tensor-network tricks are needed.

Conventions: qubit 0 is the first (most significant) tensor factor, and
a two-qubit matrix acting on the ordered pair (a, b) treats a as its
first factor, i.e. basis order |a b> = |00>, |01>, |10>, |11>.
"""

from __future__ import annotations

import functools

import numpy as np

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


# How far from zero an entry of m m^dagger - I may be for m to count as
# unitary: one rule for the circuit loader and the gate pricing alike.
UNITARY_ATOL = 1e-8


def unitary_defect(m: np.ndarray) -> np.ndarray:
    """The largest |entry| of ``m m^dagger - I`` for a square matrix, or
    for each matrix of a stack of them: infinite for a matrix with a
    non-finite entry, or one too large to square."""
    m = np.asarray(m, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # such a matrix gives inf or nan
        dev = np.abs(m @ np.conj(np.swapaxes(m, -1, -2)) - np.eye(m.shape[-1]))
    dev[np.isnan(dev)] = np.inf
    return dev.max(axis=(-2, -1), initial=0.0)


def is_unitary(m: np.ndarray) -> bool:
    """True when ``m`` is square and every entry of ``m m^dagger - I``
    lies within ``UNITARY_ATOL`` of zero."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return float(unitary_defect(m)) <= UNITARY_ATOL


def exchange_qubits(u4: np.ndarray) -> np.ndarray:
    """Return the same two-qubit gate with its tensor factors exchanged."""
    return SWAP @ u4 @ SWAP


@functools.cache
def _wire_axes(a: int, b: int, ndim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The axis order that brings wires ``a`` and ``b`` of an array with
    ``ndim`` axes to the front, and the order that undoes it."""
    order = (a, b, *(k for k in range(ndim) if k != a and k != b))
    undo = [0] * ndim
    for k, axis in enumerate(order):
        undo[axis] = k
    return order, tuple(undo)


def apply_two_qubit(state: np.ndarray, u4: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    """Apply a 4x4 gate to wires (a, b) of an n-wire statevector, or of
    every column of a matrix with 2^n rows whose columns are states."""
    psi = state.reshape((2,) * n + state.shape[1:])
    order, undo = _wire_axes(a, b, psi.ndim)
    psi = psi.transpose(order)
    rest = psi.shape[2:]
    psi = (u4 @ psi.reshape(4, -1)).reshape((2, 2) + rest)
    return psi.transpose(undo).reshape(state.shape)


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
    cols = np.arange(2**n)
    rows = np.zeros(2**n, dtype=np.intp)
    for q in range(n):
        rows |= ((cols >> (n - 1 - q)) & 1) << (n - 1 - dest[q])
    p = np.zeros((2**n, 2**n), dtype=complex)
    p[rows, cols] = 1.0
    return p


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm distance between two matrices after aligning ``b``'s
    global phase with ``a`` by their overlap Tr(b^dagger a). Between two
    d x d unitaries with no overlap every phase leaves a distance of at
    least sqrt(2/d), so ``b`` is then taken as it is."""
    inner = np.vdot(b, a)
    phase = inner / abs(inner) if inner else 1.0
    return float(np.max(np.abs(a - phase * b)))
