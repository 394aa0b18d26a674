"""Physical-layer model for a two-user downlink NOMA pair with imperfect SIC.

Holds the system configuration, derived channel/threshold parameters, and the
pure math used everywhere else: dB conversion, mean channel gains, SINRs under
the linear residual-interference model, per-condition channel-gain thresholds
(zeta1..zeta4) and the six power-split breakpoints (alpha1..alpha6).

Conventions: user 1 is the near/strong user, user 2 the far/weak user. The
base station gives fraction ``alpha`` of its power to user 1 and ``1 - alpha``
to user 2. Channel power gains are exponential with mean ``lambda_n``.
``beta`` is the residual-interference factor of imperfect SIC: 0 means perfect
cancellation, 1 means no cancellation at all.
"""

from __future__ import annotations

__all__ = ["Breakpoints", "DerivedParams", "SystemConfig", "breakpoints",
           "db_to_linear", "mean_gain", "reference_config",
           "sinr_threshold", "sinrs", "zetas"]

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

# rho_t consistency check between rho_t_db and pt_dbm - noise_dbm, in dB
RHO_CONSISTENCY_TOL_DB = 1e-9
# mean gains, SNR and SINR thresholds lie in [1/SCALE_LIMIT, SCALE_LIMIT], so
# the zetas, POP exponents and optimizer coefficients stay finite
SCALE_LIMIT = 1e50


def db_to_linear(x_db: float) -> float:
    """Convert a decibel value to a linear ratio: 10^(x/10)."""
    return 10.0 ** (x_db / 10.0)


def mean_gain(d: float, lp: float, e: float) -> float:
    """Mean channel power gain at distance d: lp * d^(-e).

    Small-scale Rayleigh fading and path loss are folded into a single
    exponential gain with this mean; no separate factorization is exposed.
    """
    if d <= 0:
        raise ValueError(f"distance must be positive, got {d}")
    if lp <= 0:
        raise ValueError(f"path loss constant must be positive, got {lp}")
    return lp * d ** (-e)


def sinr_threshold(r_th: float) -> float:
    """Minimum SINR needed to sustain rate r_th (bits/s/Hz): 2^r_th - 1."""
    return 2.0 ** r_th - 1.0


class SinrTuple(NamedTuple):
    """The four decode SINRs; gamma_nm is the SINR of user n's data at user m.

    Works elementwise when the channel gains are numpy arrays.
    """

    gamma21: float
    gamma12: float
    gamma11: float
    gamma22: float


def decode_terms(alpha: float, beta: float):
    """The four decode conditions at split ``alpha``, in SinrTuple order.

    Each is ``(user, message, c, k)``: user ``user`` (1 or 2) decodes message
    ``message`` at SINR c * g / (k * g + 1 / rho_t), g being its own channel
    gain, and the condition holds when that SINR exceeds pi_message. Users
    decode the other user's message first, with full interference from their
    own, then their own message after SIC with residual factor beta.
    """
    return ((1, 2, 1.0 - alpha, alpha),
            (2, 1, alpha, 1.0 - alpha),
            (1, 1, alpha, (1.0 - alpha) * beta),
            (2, 2, 1.0 - alpha, alpha * beta))


def sinrs(alpha: float, g1, g2, beta: float, rho_t: float) -> SinrTuple:
    """SINRs of both messages at both receivers for one channel realization.

    The conditions' coefficients come from `decode_terms`. g1/g2 may be
    scalars or numpy arrays.
    """
    inv_rho, gains = 1.0 / rho_t, (g1, g2)
    return SinrTuple(*(c * gains[user - 1] / (k * gains[user - 1] + inv_rho)
                       for user, _, c, k in decode_terms(alpha, beta)))


@dataclass(frozen=True)
class SystemConfig:
    """All physical and protocol parameters of the two-user downlink pair.

    rho_t_db is the transmit SNR in dB. pt_dbm/noise_dbm are optional; when
    both are given they must satisfy rho_t_db = pt_dbm - noise_dbm. Each
    given field is stored as a Python float, so numpy scalars work as well.
    """

    d1: float
    d2: float
    path_loss_constant: float
    path_loss_exponent: float
    rho_t_db: float
    beta: float
    r1_th: float
    r2_th: float
    pt_dbm: float | None = None
    noise_dbm: float | None = None

    def __post_init__(self):
        # NaN fails no comparison below, so non-finite values go first
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            object.__setattr__(self, f.name, float(value))
        if self.d1 <= 0 or self.d2 <= 0:
            raise ValueError("user distances must be positive")
        if self.d1 > self.d2:
            raise ValueError(
                f"near user must be the stronger on average: d1={self.d1} "
                f"must not exceed d2={self.d2}")
        if self.path_loss_constant <= 0:
            raise ValueError("path_loss_constant must be positive")
        if self.path_loss_exponent <= 0:
            raise ValueError("path_loss_exponent must be positive")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if self.r1_th <= 0 or self.r2_th <= 0:
            raise ValueError("threshold rates must be positive")
        if self.pt_dbm is not None and self.noise_dbm is not None:
            implied = self.pt_dbm - self.noise_dbm
            if abs(implied - self.rho_t_db) > RHO_CONSISTENCY_TOL_DB:
                raise ValueError(
                    f"rho_t_db={self.rho_t_db} inconsistent with "
                    f"pt_dbm - noise_dbm = {implied}")


class Breakpoints(NamedTuple):
    """The six split values where a gain threshold flips sign or dominance.

    alpha1/alpha3 bound positivity of zeta1/zeta2 (near-user conditions),
    alpha4/alpha6 bound positivity of zeta3/zeta4 (far-user conditions), and
    alpha2/alpha5 are the crossovers zeta1=zeta2 and zeta3=zeta4.
    """

    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float
    alpha5: float
    alpha6: float


def breakpoints(pi1: float, pi2: float, beta: float) -> Breakpoints:
    """Closed forms of the six power-split breakpoints."""
    if pi1 <= 0 or pi2 <= 0:
        raise ValueError("SINR thresholds must be positive")
    a1 = beta * pi1 / (1.0 + beta * pi1)
    a2 = pi1 * (1.0 + pi2 * beta) / (pi2 * (1.0 + pi1 * beta)
                                     + pi1 * (1.0 + pi2))
    a3 = 1.0 / (1.0 + pi2)
    a4 = pi1 / (1.0 + pi1)
    a5 = pi1 * (1.0 + pi2) / (pi2 * (1.0 + pi1) + pi1 * (1.0 + beta * pi2))
    a6 = 1.0 / (1.0 + beta * pi2)
    return Breakpoints(a1, a2, a3, a4, a5, a6)


@dataclass(frozen=True)
class DerivedParams:
    """Everything computable from a SystemConfig before choosing alpha."""

    lambda1: float
    lambda2: float
    rho_t: float
    pi1: float
    pi2: float
    beta: float
    breakpoints: Breakpoints = field(init=False)

    @classmethod
    def from_config(cls, config: SystemConfig) -> "DerivedParams":
        lp, e = config.path_loss_constant, config.path_loss_exponent
        try:  # a huge power in the conversions raises OverflowError
            return cls(
                lambda1=mean_gain(config.d1, lp, e),
                lambda2=mean_gain(config.d2, lp, e),
                rho_t=db_to_linear(config.rho_t_db),
                pi1=sinr_threshold(config.r1_th),
                pi2=sinr_threshold(config.r2_th),
                beta=config.beta,
            )
        except OverflowError:
            raise ValueError("a mean gain, the SNR or an SINR threshold "
                             "overflows a float") from None

    def __post_init__(self):
        object.__setattr__(self, "breakpoints",
                           breakpoints(self.pi1, self.pi2, self.beta))
        for name in ("lambda1", "lambda2", "rho_t", "pi1", "pi2"):
            value = getattr(self, name)
            if not 1.0 / SCALE_LIMIT <= value <= SCALE_LIMIT:
                raise ValueError(f"{name}={value:g} must lie in "
                                 f"[{1 / SCALE_LIMIT:g}, {SCALE_LIMIT:g}]")
        if self.lambda1 < self.lambda2:
            raise ValueError("near user must have the larger mean gain")


class ZetaTuple(NamedTuple):
    """Minimum channel gains required by the four decode conditions.

    A threshold is +inf when its denominator is nonpositive, meaning the
    corresponding SINR condition cannot be met at this split regardless of
    the channel draw.
    """

    zeta1: float
    zeta2: float
    zeta3: float
    zeta4: float


def _threshold(num: float, denom):
    if isinstance(denom, np.ndarray):
        # a tiny positive denominator overflows to inf, quietly as in Python
        with np.errstate(over="ignore"):
            return np.divide(num, denom, out=np.full(denom.shape, math.inf),
                             where=denom > 0.0)
    return num / denom if denom > 0.0 else math.inf


def zetas(alpha, derived: DerivedParams) -> ZetaTuple:
    """Gain thresholds zeta1..zeta4 at power split alpha.

    zeta1/zeta2 apply to the near user's gain (own data after SIC, far data
    before SIC); zeta3/zeta4 apply to the far user's gain (near data before
    SIC, own data after SIC). Infeasibility is data, not an error. Given an
    array of splits, each field is an array equal elementwise to the floats.
    """
    if isinstance(alpha, np.ndarray):
        if alpha.size and not (alpha.min() > 0.0 and alpha.max() < 1.0):
            raise ValueError("all alphas must lie in (0, 1)")
    elif not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    pi1, pi2, beta, rho = derived.pi1, derived.pi2, derived.beta, derived.rho_t
    return ZetaTuple(
        zeta1=_threshold(pi1, (alpha - beta * (1.0 - alpha) * pi1) * rho),
        zeta2=_threshold(pi2, (1.0 - alpha - alpha * pi2) * rho),
        zeta3=_threshold(pi1, (alpha - (1.0 - alpha) * pi1) * rho),
        zeta4=_threshold(pi2, (1.0 - alpha - beta * alpha * pi2) * rho),
    )


def reference_config() -> SystemConfig:
    """The reference configuration used throughout the experiments.

    Near user at 50 m, far user at 100 m, unit path loss constant, exponent 3,
    60 dB transmit SNR (-30 dBm over -90 dBm noise), beta 0.2, and 0.1 b/s/Hz
    threshold rates for both users.
    """
    return SystemConfig(
        d1=50.0,
        d2=100.0,
        path_loss_constant=1.0,
        path_loss_exponent=3.0,
        rho_t_db=60.0,
        beta=0.2,
        r1_th=0.1,
        r2_th=0.1,
        pt_dbm=-30.0,
        noise_dbm=-90.0,
    )
