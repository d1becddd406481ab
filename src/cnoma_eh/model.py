"""Instantaneous rates of a two-user cooperative NOMA downlink with RF
energy harvesting at the strong user.

Protocol (two phases of equal duration, hence the 1/2 rate prefactor):

* Phase 1: the source superimposes both users' symbols, putting a fraction
  ``alpha`` of its power on the strong user's symbol x1.  The strong user U1
  splits its received signal, diverting a fraction ``rho`` of the power to an
  energy harvester and decoding on the remaining ``1 - rho``.  U1 first
  decodes the weak user's symbol x2 (treating x1 as interference), cancels
  it, then decodes x1.
* Phase 2: U1 retransmits x2 to the weak user U2 using the harvested energy.
  U2 combines the phase-1 direct observation and the phase-2 relayed one
  with maximal ratio combining (MRC).

All SINRs are noise-normalized: ``avg_snr`` is transmit power over noise
power, channel gains are dimensionless, and the RF-to-baseband conversion
noise adds an extra ``mu`` to the decoding denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "SystemParams",
    "ChannelRealization",
    "DesignPoint",
    "RateTriple",
    "sinr_x1_at_u1",
    "sinr_x2_at_u1",
    "sinr_mrc_at_u2",
    "rates",
    "db_to_linear",
]


def db_to_linear(snr_db):
    """Convert an SNR from dB to a linear power ratio."""
    return 10.0 ** (snr_db / 10.0)


@dataclass(frozen=True)
class SystemParams:
    """Static scenario description; every field is finite.

    avg_snr   transmit power over noise power (linear scale), > 0
    mu        conversion-noise factor, >= 0
    eta       energy conversion efficiency, in (0, 1]
    var1-3    mean channel power gains: source->U1, source->U2, U1->U2
    w1, w2    priority weights of U1 and U2, both > 0
    """

    avg_snr: float
    mu: float = 1.0
    eta: float = 1.0
    var1: float = 1.0
    var2: float = 1.0
    var3: float = 1.0
    w1: float = 1.0
    w2: float = 2.0

    def __post_init__(self):
        for name in ("avg_snr", "mu", "var1", "var2", "var3", "w1", "w2"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.avg_snr > 0:
            raise DomainError(f"avg_snr must be > 0, got {self.avg_snr}")
        if not self.mu >= 0:
            raise DomainError(f"mu must be >= 0, got {self.mu}")
        if not 0 < self.eta <= 1:
            raise DomainError(f"eta must be in (0, 1], got {self.eta}")
        for name in ("var1", "var2", "var3"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be > 0, got {getattr(self, name)}")
        if not (self.w1 > 0 and self.w2 > 0):
            raise DomainError(f"weights must be > 0, got w1={self.w1}, w2={self.w2}")

    @property
    def wtilde2(self) -> float:
        """Weight ratio w2 / w1."""
        return self.w2 / self.w1


@dataclass(frozen=True)
class ChannelRealization:
    """One block-fading draw of the three channel power gains (finite, >= 0)."""

    g1: float
    g2: float
    g3: float

    def __post_init__(self):
        for name in ("g1", "g2", "g3"):
            g = getattr(self, name)
            if not g >= 0:
                raise DomainError(f"{name} must be >= 0, got {g}")
            if not math.isfinite(g):
                raise DomainError(f"{name} must be finite, got {g}")


@dataclass(frozen=True)
class DesignPoint:
    """The two decision variables: power allocation and power splitting."""

    alpha: float
    rho: float = 0.0

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise DomainError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0 <= self.rho < 1:
            raise DomainError(f"rho must be in [0, 1), got {self.rho}")


@dataclass(frozen=True)
class RateTriple:
    """Achievable rates (bits/s/Hz) and their weighted sum."""

    c1: float
    c2: float
    weighted_sum: float


# Raw kernels: array-friendly, no validation.  The typed wrappers below are
# the scalar public API; the optimizer and Monte Carlo drivers broadcast the
# kernels over grids and sample blocks.

def _sinr_x1(avg_snr, mu, g1, alpha, rho):
    keep = 1.0 - rho
    return keep * alpha * avg_snr * g1 / (keep + mu)


def _sinr_x2(avg_snr, mu, g1, alpha, rho):
    keep = 1.0 - rho
    return keep * (1.0 - alpha) * avg_snr * g1 / (keep * alpha * avg_snr * g1 + keep + mu)


def _sinr_mrc(avg_snr, mu, eta, g1, g2, g3, alpha, rho):
    direct = (1.0 - alpha) * avg_snr * g2 / (alpha * avg_snr * g2 + 1.0 + mu)
    relayed = rho * eta * avg_snr * g1 * g3 / (1.0 + mu)
    return direct + relayed


def _rate_tuple(avg_snr, mu, eta, g1, g2, g3, alpha, rho, w1, w2):
    c1 = 0.5 * np.log2(1.0 + _sinr_x1(avg_snr, mu, g1, alpha, rho))
    s2 = np.minimum(
        _sinr_x2(avg_snr, mu, g1, alpha, rho),
        _sinr_mrc(avg_snr, mu, eta, g1, g2, g3, alpha, rho),
    )
    c2 = 0.5 * np.log2(1.0 + s2)
    return c1, c2, w1 * c1 + w2 * c2


def sinr_x1_at_u1(p: SystemParams, ch: ChannelRealization, d: DesignPoint) -> float:
    """SINR at U1 for decoding its own symbol x1 (after cancelling x2).

    (1-rho) * alpha * avg_snr * g1 / ((1-rho) + mu)
    """
    return float(_sinr_x1(p.avg_snr, p.mu, ch.g1, d.alpha, d.rho))


def sinr_x2_at_u1(p: SystemParams, ch: ChannelRealization, d: DesignPoint) -> float:
    """SINR at U1 for decoding the weak user's symbol x2, before cancellation.

    (1-rho) * (1-alpha) * avg_snr * g1 / ((1-rho) * alpha * avg_snr * g1 + (1-rho) + mu)
    """
    return float(_sinr_x2(p.avg_snr, p.mu, ch.g1, d.alpha, d.rho))


def sinr_mrc_at_u2(p: SystemParams, ch: ChannelRealization, d: DesignPoint) -> float:
    """Combined SINR at U2 for x2: direct link plus harvested-power relay link.

    (1-alpha) * avg_snr * g2 / (alpha * avg_snr * g2 + 1 + mu)
      + rho * eta * avg_snr * g1 * g3 / (1 + mu)
    """
    return float(_sinr_mrc(p.avg_snr, p.mu, p.eta, ch.g1, ch.g2, ch.g3, d.alpha, d.rho))


def rates(p: SystemParams, ch: ChannelRealization, d: DesignPoint) -> RateTriple:
    """Instantaneous achievable rates of both users and their weighted sum.

    c1 = 1/2 log2(1 + sinr_x1_at_u1); the x2 rate is limited by the weaker of
    U1's decode SINR and U2's combiner SINR: c2 = 1/2 log2(1 + min of the two).
    """
    c1, c2, ws = _rate_tuple(
        p.avg_snr, p.mu, p.eta, ch.g1, ch.g2, ch.g3, d.alpha, d.rho, p.w1, p.w2
    )
    return RateTriple(c1=float(c1), c2=float(c2), weighted_sum=float(ws))
