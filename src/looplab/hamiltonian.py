"""Radial Hamiltonians on C^d and the action functional on loops.

The working Hamiltonian is H(x) = h(|x|^2) with a profile h that vanishes
for |x|^2 <= s0, grows with the quintic-smoothstep ramp of h' on [s0, s1],
and continues with constant slope h' = 1 + eps beyond s1.  The ramp makes
h' nondecreasing and C^1 with h'' = 0 at both junctions, so h is C^2 and
every level 2 h'(s) = k with 0 < k < 2(1+eps) is hit exactly once: the
radial-orbit root is unique per winding number.

A flat core, a nondecreasing slope capped at 1+eps, and an exact quadratic
tail h(s) = (1+eps) s are jointly impossible (the mean of h' over [s0, s1]
would have to equal its maximum), so the tail is quadratic up to a constant:
h(s) = (1+eps) s + c_inf with c_inf = -(1+eps)(s0+s1)/2 < 0.  Everything
downstream depends only on h' (vector fields, splitting, orbit radii) or on
h itself as implemented (action values), never on the absent constant.

The 'pure_quadratic' variant is h(s) = (1+eps) s globally, used for the
linear theory where X_H = c x with c = 2(1+eps) i.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .coverage import tracked
from .loops import Loop, block_N, block_sums, mode_numbers, synthesize_values, theta_values

_PROFILE_GRID = 20001  # sampling density for recorded constants


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """Quintic smoothstep 6t^5 - 15t^4 + 10t^3 of t in [0, 1]."""
    return t**3 * (10.0 + t * (-15.0 + 6.0 * t))


def _smoothstep_d(t: np.ndarray) -> np.ndarray:
    """Derivative 30 t^2 (1 - t)^2 of the quintic smoothstep, of t in [0, 1]."""
    return 30.0 * t**2 * (1.0 - t) ** 2


def _smoothstep_int(t: np.ndarray) -> np.ndarray:
    """Antiderivative of the quintic smoothstep with value 0 at t = 0, for t in [0, 1]."""
    return t**4 * (2.5 + t * (-3.0 + t))


@dataclass(frozen=True)
class HamiltonianModel:
    """Radial Hamiltonian H(x) = h(|x|^2); see module docstring for h."""

    eps_H: float = 0.1
    s0: float = 0.25
    s1: float = 4.0
    variant: str = "bump"

    def __post_init__(self):
        if self.variant not in ("bump", "pure_quadratic"):
            raise ValueError("variant must be 'bump' or 'pure_quadratic'")
        # eps_H = 0 is admitted only for the linear-theory variant, where the
        # resonant case c = 2i is itself the object of study
        if self.eps_H < 0 or (self.eps_H == 0 and self.variant == "bump"):
            raise ValueError("eps_H must be positive (nonnegative for pure_quadratic)")
        if not (0 < self.s0 < self.s1):
            raise ValueError("need 0 < s0 < s1")

    @property
    def slope(self) -> float:
        return 1.0 + self.eps_H

    @property
    def tail_offset(self) -> float:
        """c_inf with h(s) = (1+eps) s + c_inf for s >= s1 (bump variant)."""
        if self.variant == "pure_quadratic":
            return 0.0
        return -self.slope * (self.s0 + self.s1) / 2.0

    # -- profile -------------------------------------------------------------

    def _ramp(self, s: np.ndarray) -> np.ndarray:
        """Ramp coordinate (s - s0) / (s1 - s0), clipped to [0, 1]."""
        return ((s - self.s0) / (self.s1 - self.s0)).clip(0.0, 1.0)

    def _h_bump(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """h of the bump variant at s, given the ramp coordinate t of s."""
        tail = np.where(s > self.s1, self.slope * (s - self.s1), 0.0)
        return self.slope * (self.s1 - self.s0) * _smoothstep_int(t) + tail

    def h(self, s):
        """h(s); the bump variant evaluates its formula only off the flat core.

        On the flat core s <= s0 the clip gives t = +0.0, which is the
        formula's value there, so t is kept as h and overwritten at the
        points with t != 0 (a NaN s keeps t = NaN and takes the formula).
        A 0-d s takes the formula as it is: its t is a numpy scalar, whose
        power numpy takes with the scalar pow, and that differs in the last
        bit from the array power in about 5% of values.  s itself is never
        written, so one s can feed both h and h_prime.
        """
        s = np.asarray(s, dtype=float)
        if self.variant == "pure_quadratic":
            return self.slope * s
        t = self._ramp(s)
        if s.ndim == 0:
            return self._h_bump(s, t)
        off_core = t != 0
        t[off_core] = self._h_bump(s[off_core], t[off_core])
        return t

    def h_prime(self, s):
        s = np.asarray(s, dtype=float)
        if self.variant == "pure_quadratic":
            return np.full_like(s, self.slope)
        return self.slope * _smoothstep(self._ramp(s))

    def h_second(self, s):
        s = np.asarray(s, dtype=float)
        if self.variant == "pure_quadratic":
            return np.zeros_like(s)
        return self.slope * _smoothstep_d(self._ramp(s)) / (self.s1 - self.s0)


# -- pointwise evaluations ------------------------------------------------------


# The stack evaluations (grad_h_modes, action_values) take H and grad H
# through the untracked _sq_radius and _grad_h, not eval_H and eval_gradH, so
# that the coverage counts do not follow how a caller splits its stacks, which
# solver.stack_rows sizes from the one memory budget cylinder.BLOCK_BYTES.


def _sq_radius(x: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(x) ** 2, axis=-1)


def _grad_h(m: HamiltonianModel, x: np.ndarray, s=None) -> np.ndarray:
    """2 h'(|x|^2) x of complex points x (..., d); s is |x|^2 when the caller has it."""
    return (2.0 * m.h_prime(_sq_radius(x) if s is None else s))[..., None] * x


def theta_samples(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The theta samples x = theta_values(coeffs) of a stack and their squared
    radii |x|^2: what action_values, grad_h_modes and grad_action_values read
    of it, so that a caller of several of them samples the stack once."""
    x = theta_values(coeffs)
    return x, _sq_radius(x)


@tracked("hamiltonian.eval_H")
def eval_H(m: HamiltonianModel, x: np.ndarray):
    """H(x) = h(|x|^2) for x of shape (..., d)."""
    x = np.asarray(x, dtype=complex)
    return m.h(_sq_radius(x))


@tracked("hamiltonian.eval_gradH")
def eval_gradH(m: HamiltonianModel, x: np.ndarray) -> np.ndarray:
    """Gradient for the real inner product: grad H = 2 h'(|x|^2) x."""
    return _grad_h(m, np.asarray(x, dtype=complex))


@tracked("hamiltonian.eval_XH")
def eval_XH(m: HamiltonianModel, x: np.ndarray) -> np.ndarray:
    """Hamiltonian vector field X_H = J grad H = 2 h'(|x|^2) i x."""
    return 1j * eval_gradH(m, x)


def grad_h_modes(m: HamiltonianModel, coeffs: np.ndarray, samples=None) -> np.ndarray:
    """Modes |n| <= N of grad H on coefficient blocks (..., 2N+1, d) sampled by
    theta_values; samples is their theta_samples when the caller has them."""
    grad = _grad_h(m, theta_values(coeffs)) if samples is None else _grad_h(m, *samples)
    return synthesize_values(grad, block_N(coeffs))


@tracked("hamiltonian.k_factor")
def k_factor(m: HamiltonianModel, x: np.ndarray):
    """Scalar multiplier kappa(x) = 2 h'(|x|^2) with X_H(x) = kappa(x) i x.

    As a linear map this is K(x) = kappa(x) J; pointwise |K(x)| = kappa(x).
    Only the bump variant factors through K(0) = 0.
    """
    if m.variant != "bump":
        raise ValueError("k_factor requires the bump variant (K(0) = 0 fails otherwise)")
    x = np.asarray(x, dtype=complex)
    return 2.0 * m.h_prime(_sq_radius(x))


@functools.cache
def k_factor_constant(m: HamiltonianModel) -> float:
    """Recorded constant C with |K(x)| <= C |x| and |K(x) - K(y)| <= C |x - y|.

    Both suprema live on the ramp band; they are evaluated on a dense grid,
    once per model (models are frozen and hashable).
    The pointwise bounds give ||X_H(a) - X_H(b)||_{L^2} <= 2C (||a||_{L^4} +
    ||b||_{L^4}) ||a - b||_{L^4}, so C is also the Sobolev-Lipschitz constant
    of the solver's 1/(8C) contraction ball.
    """
    if m.variant != "bump":
        raise ValueError("k_factor_constant requires the bump variant")
    s = np.linspace(m.s0, m.s1, _PROFILE_GRID)
    bound = np.max(2.0 * m.h_prime(s) / np.sqrt(s))
    lip = np.max(4.0 * np.sqrt(s) * m.h_second(s))
    return float(max(bound, lip))


# -- action functional ----------------------------------------------------------


def action_values(m: HamiltonianModel, coeffs: np.ndarray, samples=None) -> np.ndarray:
    """CSD_H of each coefficient block in a stack (..., 2N+1, d).

    The quadratic term 1/2 sum_n n |c_n|^2 is exact in modes; the H term is
    the rectangle rule (the trapezoid rule on a periodic grid) on
    theta_points(N) nodes under dtheta/2pi.  Both sums run along the
    contiguous last axis, so each block's value is bit-identical to that of
    the block on its own.  samples is the stack's theta_samples when the
    caller has them.
    """
    n = mode_numbers(block_N(coeffs)).astype(float)
    quad = 0.5 * block_sums(n[:, None] * np.abs(coeffs) ** 2)
    s = _sq_radius(theta_values(coeffs)) if samples is None else samples[1]
    return quad - np.mean(m.h(s), axis=-1)


def grad_action_values(m: HamiltonianModel, coeffs: np.ndarray, samples=None) -> np.ndarray:
    """L^2 gradient n c_n - (grad H)_n of CSD_H for each block of a stack (..., 2N+1, d);
    samples as for grad_h_modes."""
    n = mode_numbers(block_N(coeffs)).astype(float)
    return n[:, None] * coeffs - grad_h_modes(m, coeffs, samples)


@tracked("hamiltonian.action")
def action(m: HamiltonianModel, gamma: Loop) -> float:
    """CSD_H(gamma) = 1/2 sum_n n |c_n|^2 - mean_j H(gamma(theta_j)); see action_values."""
    return float(action_values(m, gamma.coeffs))


@tracked("hamiltonian.grad_action")
def grad_action(m: HamiltonianModel, gamma: Loop) -> Loop:
    """Formal L^2 gradient: mode n of -J gamma' - grad H(gamma) is n c_n - (grad H o gamma)_n."""
    return Loop(grad_action_values(m, gamma.coeffs))


# -- linear/compact splitting ---------------------------------------------------


@dataclass(frozen=True)
class Splitting:
    """X_H = c u + X_{H_c}(u) with c = 2(1+eps) i and compactly supported rest."""

    model: HamiltonianModel
    c: complex
    nonresonant: bool

    def lipschitz_bound(self) -> float:
        """Dense-grid bound on the pointwise Lipschitz constant of X_{H_c}."""
        m = self.model
        hi = max(m.s1 * 4.0, 16.0)
        s = np.linspace(0.0, hi, _PROFILE_GRID)
        # |D X_{H_c}| <= |2h'(s) - 2(1+eps)| + 4 s h''(s)
        return float(
            np.max(np.abs(2.0 * m.h_prime(s) - 2.0 * m.slope) + 4.0 * s * m.h_second(s))
        )


@tracked("hamiltonian.split")
def split(m: HamiltonianModel) -> Splitting:
    two_slope = 2.0 * m.slope
    nonres = abs(two_slope - round(two_slope)) > 1e-9
    return Splitting(model=m, c=two_slope * 1j, nonresonant=nonres)


@tracked("hamiltonian.eval_compact_part")
def eval_compact_part(spl: Splitting, x: np.ndarray) -> np.ndarray:
    """X_{H_c}(x) = (2h'(|x|^2) - 2(1+eps)) i x; vanishes for |x|^2 >= s1."""
    x = np.asarray(x, dtype=complex)
    m = spl.model
    factor = 2.0 * m.h_prime(_sq_radius(x)) - 2.0 * m.slope
    return factor[..., None] * 1j * x
