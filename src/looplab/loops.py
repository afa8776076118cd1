"""Truncated Fourier loops in C^d with Sobolev norms and spectral projections.

A loop gamma(theta) = sum_n c_n e^{i n theta}, |n| <= N, is stored as the
dense coefficient block c_{-N}..c_N.  All integrals over the circle use the
normalized measure dtheta/2pi, so Parseval reads ||gamma||_{L^2}^2 =
sum |c_n|^2 and the half-norm squared is sum |c_n|^2 |n| + |c_0|^2.

Two splittings of the mode range are used throughout:

* polarization:   plus  = modes n > 0,  minus = modes n <= 0
  (eigenspaces of -J d/dtheta with positive / nonpositive eigenvalue n);
* spectral (APS): plus  = modes n <= 0, minus = modes n > 0
  (L = J d/dtheta has eigenvalue -n on mode n, so nonnegative spectrum
  means n <= 0).

Values on a theta-grid are reached through an FFT bridge (`sample` /
`synthesize`) used for pointwise nonlinearities.

A block's shape is read off its array: axis -2 holds the 2N+1 modes
(`block_N`) and axis -1 the d coordinates, so no function takes d or N
beside a block.  Loops and cylinder fields store their blocks through
`frozen_block`: a read-only, C-ordered complex copy, whatever the layout of
the input, so that later sums over a block always run in the same order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .coverage import tracked


@dataclass(frozen=True)
class SpectralConvention:
    """Fixed spectral conventions, recorded in every report."""

    angular_measure: str = "dtheta/2pi"
    complex_structure: str = "J = multiplication by i"
    eigenvalue_minus_J_dtheta: str = "mode n -> n"
    eigenvalue_L_J_dtheta: str = "mode n -> -n"
    polarization_plus: str = "modes n > 0"
    polarization_minus: str = "modes n <= 0"
    aps_plus: str = "lambda >= 0, i.e. modes n <= 0"
    aps_minus: str = "lambda < 0, i.e. modes n > 0"
    zero_mode_half_weight: str = "+|c_0|^2"


CONVENTION = SpectralConvention()

#: coefficient-wise tolerance for loop equality where no exact check is stated
LOOP_ATOL = 1e-12


def mode_numbers(N: int) -> np.ndarray:
    """Mode indices n = -N..N in storage order."""
    return np.arange(-N, N + 1)


def lambda_of_modes(N: int) -> np.ndarray:
    """Eigenvalues of L = J d/dtheta in storage order (lambda_n = -n), as floats."""
    return (-mode_numbers(N)).astype(float)


def block_N(block: np.ndarray) -> int:
    """N of a block (..., 2N+1, d), whose axis -2 holds the modes c_{-N}..c_N."""
    return (block.shape[-2] - 1) // 2


def sobolev_weights(order: float, N: int) -> np.ndarray:
    """Mode weights for the L^2 (0), L^2_{1/2} (0.5), L^2_1 (1) and L^2_2 (2) norms.

    The L^2_2 weight (1 + n^2)^2 is the square of the L^2_1 weight.
    """
    n = mode_numbers(N)
    if order == 0:
        return np.ones_like(n, dtype=float)
    if order == 0.5:
        w = np.abs(n).astype(float)
        w[N] = 1.0  # zero mode carries weight +1
        return w
    if order == 1:
        return 1.0 + n.astype(float) ** 2
    if order == 2:
        return sobolev_weights(1, N) ** 2
    raise ValueError(f"unsupported Sobolev order {order!r}; use 0, 0.5, 1 or 2")


def frozen_block(values, ndim: int, what: str) -> np.ndarray:
    """Read-only C-ordered complex copy of values (..., 2N+1, d), checked to have
    ndim axes, N >= 1, d >= 1 and finite entries."""
    block = np.array(values, dtype=complex, order="C")
    modes, d = block.shape[-2:] if block.ndim == ndim else (0, 0)
    if modes < 3 or modes % 2 == 0 or d < 1:
        raise ValueError(f"{what} need {ndim} axes, 2N+1 >= 3 modes, d >= 1; got {block.shape}")
    if not np.all(np.isfinite(block.view(float))):
        raise ValueError(f"{what} must be finite")
    block.setflags(write=False)
    return block


@dataclass(frozen=True)
class Loop:
    """A truncated Fourier loop: coeffs[N + n] is c_n in C^d; d and N are read off coeffs."""

    coeffs: np.ndarray = field(repr=False)
    d: int = field(init=False)
    N: int = field(init=False)

    def __post_init__(self):
        c = frozen_block(self.coeffs, 2, "loop coefficients")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "d", c.shape[1])
        object.__setattr__(self, "N", block_N(c))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(d: int, N: int) -> "Loop":
        return Loop(np.zeros((2 * N + 1, d), complex))

    @staticmethod
    def from_modes(d: int, N: int, modes: dict[int, np.ndarray | complex]) -> "Loop":
        """Build a loop from a {n: c_n} dict; scalar entries go to coordinate 0."""
        c = np.zeros((2 * N + 1, d), complex)
        for n, v in modes.items():
            if abs(n) > N:
                raise ValueError(f"mode {n} outside [-{N}, {N}]")
            v = np.asarray(v, dtype=complex)
            if v.ndim == 0:
                c[N + n, 0] = v
            else:
                c[N + n, :] = v
        return Loop(c)

    # -- accessors ----------------------------------------------------------

    def mode(self, n: int) -> np.ndarray:
        if abs(n) > self.N:
            raise ValueError(f"mode {n} outside [-{self.N}, {self.N}]")
        return self.coeffs[self.N + n]

    @property
    def modes(self) -> np.ndarray:
        return mode_numbers(self.N)

    # -- arithmetic (shape-checked) ------------------------------------------

    def _check(self, other: "Loop") -> None:
        if self.coeffs.shape != other.coeffs.shape:
            raise ValueError(f"loop shape mismatch: {self.coeffs.shape} vs {other.coeffs.shape}")

    def __add__(self, other: "Loop") -> "Loop":
        self._check(other)
        return Loop(self.coeffs + other.coeffs)

    def __sub__(self, other: "Loop") -> "Loop":
        self._check(other)
        return Loop(self.coeffs - other.coeffs)

    def __mul__(self, a: complex) -> "Loop":
        return Loop(self.coeffs * a)

    __rmul__ = __mul__

    def allclose(self, other: "Loop", atol: float = LOOP_ATOL) -> bool:
        self._check(other)
        return bool(np.max(np.abs(self.coeffs - other.coeffs)) <= atol)


# -- norms and inner products -------------------------------------------------


@tracked("loopspace.sobolev_norm")
def sobolev_norm(gamma: Loop, order: float) -> float:
    """Sobolev norm of the loop: order 0, 1/2 (|n| weight, +1 on c_0), 1 or 2."""
    return float(np.sqrt(sobolev_sq(gamma.coeffs, order)))


def block_sums(x: np.ndarray) -> np.ndarray:
    """Sum of each trailing (2N+1, d) block of x (..., 2N+1, d).

    The sum runs along the contiguous last axis of the flattened block, so
    each block sums bit-identically to np.sum of that block on its own.
    """
    return x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],)).sum(axis=-1)


def sobolev_sq(coeffs: np.ndarray, order: float) -> np.ndarray:
    """Squared Sobolev norm of each (2N+1, d) block of a stack (..., 2N+1, d)."""
    return block_sums(sobolev_weights(order, block_N(coeffs))[:, None] * np.abs(coeffs) ** 2)


def inner_values(a: np.ndarray, b: np.ndarray, order: float) -> np.ndarray:
    """Real Sobolev pairing of each pair of (2N+1, d) blocks of two stacks (..., 2N+1, d)."""
    return block_sums(sobolev_weights(order, block_N(a))[:, None] * (a * b.conj()).real)


@tracked("loopspace.inner")
def inner(gamma: Loop, delta: Loop, order: float = 0) -> float:
    """Real inner product inducing sobolev_norm: inner(g, g, k) = norm(g, k)^2."""
    gamma._check(delta)
    if order not in (0, 0.5):
        raise ValueError("inner supports orders 0 and 0.5")
    return float(inner_values(gamma.coeffs, delta.coeffs, order))


# -- polarization and APS projections -----------------------------------------


def _keep_sector(gamma: Loop, sector: str, plus_is_positive: bool) -> Loop:
    """gamma with the modes outside `sector` set to 0: 'plus' is n > 0 if
    plus_is_positive, else n <= 0, and 'minus' is the other side."""
    if sector not in ("plus", "minus"):
        raise ValueError("sector must be 'plus' or 'minus'")
    positive = (sector == "plus") == plus_is_positive
    keep = (mode_numbers(gamma.N) > 0) == positive
    return Loop(np.where(keep[:, None], gamma.coeffs, 0.0))


@tracked("loopspace.project")
def project(gamma: Loop, sector: str) -> Loop:
    """Polarization projection: 'plus' keeps modes n > 0, 'minus' keeps n <= 0."""
    return _keep_sector(gamma, sector, plus_is_positive=True)


@tracked("loopspace.aps_project")
def aps_project(gamma: Loop, sector: str) -> Loop:
    """Spectral projection of L: 'plus' keeps lambda >= 0 (n <= 0), 'minus' lambda < 0."""
    return _keep_sector(gamma, sector, plus_is_positive=False)


# -- FFT bridge ---------------------------------------------------------------


def theta_points(N: int) -> int:
    """Size M = 4N of the theta grid on which every nonlinear term is evaluated.

    Pointwise terms (H, grad H) use the M-point rectangle rule.  grad H is not
    band-limited, so this is a chosen quadrature, not exact de-aliasing; a
    refinement study changes only this function.
    """
    return 4 * N


def _check_grid(M: int, N: int) -> None:
    if M < 2 * N + 2:
        raise ValueError(f"grid size M={M} must be >= 2N+2 = {2 * N + 2}")


# The bridge puts mode n >= 0 at index n of the M-point spectrum and n < 0 at
# M + n, by two slice copies, so that it returns C-ordered blocks
def sample_coeffs(coeffs: np.ndarray, M: int) -> np.ndarray:
    """Evaluate a coefficient block (..., 2N+1, d) on the M-point theta grid."""
    N = block_N(coeffs)
    _check_grid(M, N)
    spec = np.zeros(coeffs.shape[:-2] + (M,) + coeffs.shape[-1:], complex)
    spec[..., : N + 1, :] = coeffs[..., N:, :]
    spec[..., M - N :, :] = coeffs[..., :N, :]
    return np.fft.ifft(spec, axis=-2) * M


def synthesize_values(values: np.ndarray, N: int) -> np.ndarray:
    """Fourier coefficients |n| <= N of grid values (..., M, d)."""
    M = values.shape[-2]
    _check_grid(M, N)
    spec = np.fft.fft(values, axis=-2)
    return np.concatenate((spec[..., M - N :, :], spec[..., : N + 1, :]), axis=-2) / M


def theta_values(coeffs: np.ndarray) -> np.ndarray:
    """Values of a coefficient block (..., 2N+1, d) on the theta_points(N) grid."""
    return sample_coeffs(coeffs, theta_points(block_N(coeffs)))


@functools.cache
def theta_matrices(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense (S, Y) of the FFT bridge on the theta_points(N) grid, read-only.

    S (M x 2N+1) is sample_coeffs and Y (2N+1 x M) synthesize_values, each
    applied to the identity, so S @ c samples a block c (2N+1, d) and
    Y @ v synthesizes grid values v (M, d).  The products cost O(N^2) per
    column, against O(N log N) for the FFT pair, and are the faster of the
    two up to about N = 32 on 2 cores.  They are formed once per N.
    """
    M = theta_points(N)
    S = sample_coeffs(np.eye(2 * N + 1, dtype=complex), M)
    Y = synthesize_values(np.eye(M, dtype=complex), N)
    S.setflags(write=False)
    Y.setflags(write=False)
    return S, Y


@tracked("loopspace.sample")
def sample(gamma: Loop, M: int) -> np.ndarray:
    """Values gamma(theta_j) at theta_j = 2 pi j / M, shape (M, d)."""
    return sample_coeffs(gamma.coeffs, M)


@tracked("loopspace.synthesize")
def synthesize(values: np.ndarray, N: int) -> Loop:
    """Loop with the Fourier coefficients |n| <= N of the given grid values."""
    values = np.asarray(values, dtype=complex)
    if values.ndim == 1:
        values = values[:, None]
    return Loop(synthesize_values(values, N))


# -- random loops (deterministic given rng) -----------------------------------


def gaussian_block(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """iid complex Gaussians a + i b of the given shape, all of a drawn before b.

    a and then b are drawn through one real buffer into the complex output,
    which holds the bytes of a + 1j * b.
    """
    out = np.empty(shape, complex)
    buf = np.empty(shape)
    out.real = rng.standard_normal(out=buf)
    out.imag = rng.standard_normal(out=buf)
    return out


def gaussian_loop(
    d: int, N: int, rng: np.random.Generator, scale: float = 1.0, max_mode: int | None = None
) -> Loop:
    """Loop with iid complex Gaussian coefficients (optionally band-limited)."""
    c = scale * gaussian_block(rng, (2 * N + 1, d))
    if max_mode is not None:
        mask = np.abs(mode_numbers(N)) <= max_mode
        c = np.where(mask[:, None], c, 0.0)
    return Loop(c)
