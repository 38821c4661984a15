"""Dense complex-matrix kernel: operators, norms, square roots, radii,
kernels and commutator norms.

All quantities are computed for explicit finite matrices.  An Operator is its
dense matrix and nothing else: truncation windows read the level shift of an
operator off its nonzero entries (``spaces.auto_margin``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class OpcoreError(ValueError):
    """Base error for kernel-level misuse."""


class NotHermitianError(OpcoreError):
    pass


class NegativeEigenvalueError(OpcoreError):
    pass


class Operator:
    """A bounded operator between finite-dimensional spaces, stored densely."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = np.asarray(mat, dtype=complex)
        if m.ndim != 2:
            raise OpcoreError(f"operator entries must be a matrix, got ndim={m.ndim}")
        if m.shape[0] < 1 or m.shape[1] < 1:
            raise OpcoreError(f"operator dimensions must be positive, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise OpcoreError("operator entries must be finite")
        self.mat = m

    @property
    def rows(self) -> int:
        return self.mat.shape[0]

    @property
    def cols(self) -> int:
        return self.mat.shape[1]

    @property
    def H(self) -> "Operator":
        return Operator(self.mat.conj().T)

    @classmethod
    def identity(cls, n: int) -> "Operator":
        return cls(np.eye(n))

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "Operator":
        return cls(np.zeros((rows, cols if cols is not None else rows)))

    def __matmul__(self, other):
        o = as_operator(other)
        if self.cols != o.rows:
            raise OpcoreError(
                f"composition mismatch: {self.rows}x{self.cols} @ {o.rows}x{o.cols}"
            )
        return Operator(self.mat @ o.mat)

    def __add__(self, other):
        o = as_operator(other)
        if (self.rows, self.cols) != (o.rows, o.cols):
            raise OpcoreError("shape mismatch in sum")
        return Operator(self.mat + o.mat)

    def __sub__(self, other):
        o = as_operator(other)
        if (self.rows, self.cols) != (o.rows, o.cols):
            raise OpcoreError("shape mismatch in difference")
        return Operator(self.mat - o.mat)

    def __mul__(self, scalar):
        return Operator(self.mat * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return Operator(-self.mat)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __repr__(self):
        return f"Operator({self.rows}x{self.cols})"


def as_operator(x) -> Operator:
    if isinstance(x, Operator):
        return x
    return Operator(x)


def _mat(x) -> np.ndarray:
    return x.mat if isinstance(x, Operator) else np.asarray(x, dtype=complex)


ARITY = {"gamma7": 7, "gamma5": 5, "penta": 3, "tetra": 3, "sym": 2}


@dataclass
class OperatorTuple:
    """A kind-tagged family of square operators on a shared space."""

    kind: str
    ops: tuple

    def __post_init__(self):
        if self.kind not in ARITY:
            raise OpcoreError(f"unknown tuple kind {self.kind!r}")
        ops = tuple(as_operator(o) for o in self.ops)
        if len(ops) != ARITY[self.kind]:
            raise OpcoreError(
                f"kind {self.kind!r} needs {ARITY[self.kind]} operators, got {len(ops)}"
            )
        dim = ops[0].rows
        for o in ops:
            if not o.is_square() or o.rows != dim:
                raise OpcoreError("tuple members must be square on a common space")
        self.ops = ops

    @property
    def dim(self) -> int:
        return self.ops[0].rows


def op_norm(a) -> float:
    """Largest singular value."""
    m = _mat(a)
    if m.size == 0:
        raise OpcoreError("dimension-zero input")
    return float(np.linalg.norm(m, 2))


def herm_sqrt(h, herm_tol: float = 1e-10, neg_clamp: float = 1e-10) -> Operator:
    """Principal square root of a PSD Hermitian matrix.

    Eigenvalues in [-neg_clamp, 0) are clamped to zero; anything lower is an
    error (the input is then genuinely indefinite, not just noisy).
    """
    a = as_operator(h)
    if not a.is_square():
        raise OpcoreError("square root needs a square matrix")
    m = a.mat
    asym = np.linalg.norm(m - m.conj().T, 2)
    if asym > herm_tol:
        raise NotHermitianError(f"input is not Hermitian: asymmetry {asym:.3e}")
    sym = (m + m.conj().T) / 2.0
    w, v = np.linalg.eigh(sym)
    if w.min() < -neg_clamp:
        raise NegativeEigenvalueError(
            f"eigenvalue {w.min():.6e} below the clamp window -{neg_clamp:.1e}"
        )
    w = np.clip(w, 0.0, None)
    s = (v * np.sqrt(w)) @ v.conj().T
    s = (s + s.conj().T) / 2.0
    return Operator(s)


def spectral_radius(a) -> float:
    m = _mat(a)
    if m.shape[0] != m.shape[1]:
        raise OpcoreError("spectral radius needs a square matrix")
    return float(np.abs(np.linalg.eigvals(m)).max())


def _theta_profile(m: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """lambda_max of Re(e^{i theta} M) for a batch of angles."""
    out = np.empty(len(thetas))
    mh = m.conj().T
    chunk = 2048
    for lo in range(0, len(thetas), chunk):
        ph = np.exp(1j * thetas[lo:lo + chunk])
        stack = 0.5 * (ph[:, None, None] * m + np.conj(ph)[:, None, None] * mh)
        out[lo:lo + chunk] = np.linalg.eigvalsh(stack)[:, -1]
    return out


NR_COARSE_SAMPLES = 720


def _golden_max(f, lo: float, hi: float, theta_tol: float = 1e-10) -> float:
    """Golden-section maximization of a scalar profile on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    best = max(fc, fd)
    while (hi - lo) > theta_tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
        best = max(best, fc, fd)
    return best


def numerical_radius(a, tol: float = 1e-8) -> float:
    """max over theta of lambda_max((e^{i theta}A + e^{-i theta}A*)/2).

    Coarse 720-point sweep, a short zoom around every near-tie bracket, then
    golden-section refinement to 1e-10 in theta; the profile is a max of
    sinusoids of amplitude <= omega(A), so refinement never overshoots.
    """
    op = as_operator(a)
    if not op.is_square():
        raise OpcoreError("numerical radius needs a square matrix")
    m = op.mat
    scale = op_norm(m)
    if scale == 0.0:
        return 0.0
    thetas = np.linspace(0.0, 2.0 * np.pi, NR_COARSE_SAMPLES, endpoint=False)
    vals = _theta_profile(m, thetas)
    best = vals.max()
    step = 2.0 * np.pi / NR_COARSE_SAMPLES
    cut = best - max(1e-5 * scale, 10.0 * tol)
    hot = np.nonzero(vals >= cut)[0]
    # contiguous runs of hot indices (cyclically) -> refinement brackets
    brackets = []
    if len(hot) == NR_COARSE_SAMPLES:
        brackets.append((0.0, 2.0 * np.pi))
    else:
        gaps = np.nonzero(np.diff(hot) > 1)[0]
        runs = np.split(hot, gaps + 1)
        if len(runs) > 1 and hot[0] == 0 and hot[-1] == NR_COARSE_SAMPLES - 1:
            runs[0] = np.concatenate([runs[-1] - NR_COARSE_SAMPLES, runs[0]])
            runs = runs[:-1]
        for run in runs:
            brackets.append((step * run[0] - step, step * run[-1] + step))

    def profile(theta):
        return float(_theta_profile(m, np.array([theta]))[0])

    for lo, hi in brackets:
        for _ in range(2):
            grid = np.linspace(lo, hi, 17)
            gv = _theta_profile(m, grid)
            k = int(gv.argmax())
            best = max(best, float(gv.max()))
            w = (hi - lo) / 8.0
            lo, hi = grid[k] - w, grid[k] + w
        best = max(best, _golden_max(profile, lo, hi))
    return float(best)


def kernel_basis(a, tol: float | None = None) -> np.ndarray:
    """Orthonormal columns spanning the numerical kernel, via SVD.

    Singular values below ``tol`` count as zero; the default cutoff is
    1e-8 * op_norm(A).
    """
    m = _mat(a)
    if tol is not None and tol <= 0:
        raise OpcoreError("tol must be positive")
    if not np.any(m):
        return np.eye(m.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(m)
    if tol is None:
        tol = 1e-8 * (s[0] if len(s) else 1.0)
    rank = int(np.sum(s >= tol))
    return vh[rank:].conj().T


def commutator_norms(ops, window=None) -> list:
    """Pairwise commutator norms ||[A_i, A_j]|| (optionally right-windowed)."""
    mats = [_mat(o) for o in ops]
    norm = op_norm if window is None else window.wnorm
    out = []
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            out.append(((i, j), norm(mats[i] @ mats[j] - mats[j] @ mats[i])))
    return out

