"""Growth-class labels.

A positive function U on (0, inf) is labelled by its two orders, the lower
order mu = liminf and the upper order nu = limsup of log U(x) / log x:

* ``M(rho)``      -- mu = nu = rho, a finite number: the limit exists;
* ``MInf``        -- mu = nu = -inf (decay faster than any power);
* ``MNegInf``     -- mu = nu = +inf (growth faster than any power);
* ``Oscillating`` -- mu < nu (no limit);
* ``Undecided``   -- the numerics could not tell: the orders are NaN.

This map is the one place where orders and labels meet: ``ClassLabel.orders``
reads it one way and ``ClassLabel.from_orders`` the other, and an order
beyond +-ORDER_BOUND is +-inf (``bounded_order``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import ParamError, _real

# The one range of decided orders: a limit beyond it reads as +-inf, and kappa is
# bisected within it. A power of two, so kappa keeps the dyadic steps of 2**k.
ORDER_BOUND = 128.0

TAG_M = "M"
TAG_M_INF = "MInf"
TAG_M_NEG_INF = "MNegInf"
TAG_OSC = "Oscillating"
TAG_UNDECIDED = "Undecided"

_TAGS = (TAG_M, TAG_M_INF, TAG_M_NEG_INF, TAG_OSC, TAG_UNDECIDED)

# (mu, nu) of the labels whose tag alone fixes them
_TAG_ORDERS = {TAG_M_INF: (-math.inf, -math.inf), TAG_M_NEG_INF: (math.inf, math.inf),
               TAG_UNDECIDED: (math.nan, math.nan)}


def bounded_order(v: float) -> float:
    """An order as it is decided: beyond +-ORDER_BOUND it is +-inf."""
    return math.copysign(math.inf, v) if abs(v) > ORDER_BOUND else v


@dataclass(frozen=True)
class ClassLabel:
    """Classification verdict for a handle.

    ``rho`` is set only for tag ``M``; ``mu``/``nu`` (extended reals) only for
    tag ``Oscillating``, with mu < nu.
    """

    tag: str
    rho: float | None = None
    mu: float | None = None
    nu: float | None = None

    def __post_init__(self) -> None:
        if self.tag not in _TAGS:
            raise ParamError(f"unknown class tag {self.tag!r}")
        if self.tag == TAG_M:
            object.__setattr__(self, "rho", _real(self.rho, "rho"))
        elif self.rho is not None:
            raise ParamError(f"{self.tag} label carries no rho")
        if self.tag == TAG_OSC:
            for name in ("mu", "nu"):  # extended reals: +-inf or a finite number
                v = getattr(self, name)
                if not (isinstance(v, numbers.Real) and abs(v) == math.inf):
                    v = _real(v, name)
                object.__setattr__(self, name, float(v))
            if not self.mu < self.nu:
                raise ParamError("Oscillating label requires mu < nu")
        elif self.mu is not None or self.nu is not None:
            raise ParamError(f"{self.tag} label carries no mu/nu")

    # -- constructors -------------------------------------------------
    @staticmethod
    def m(rho: float) -> "ClassLabel":
        return ClassLabel(TAG_M, rho=rho)

    @staticmethod
    def m_inf() -> "ClassLabel":
        return ClassLabel(TAG_M_INF)

    @staticmethod
    def m_neg_inf() -> "ClassLabel":
        return ClassLabel(TAG_M_NEG_INF)

    @staticmethod
    def oscillating(mu: float, nu: float) -> "ClassLabel":
        return ClassLabel(TAG_OSC, mu=mu, nu=nu)

    @staticmethod
    def undecided() -> "ClassLabel":
        return ClassLabel(TAG_UNDECIDED)

    @staticmethod
    def from_orders(mu: float, nu: float) -> "ClassLabel":
        """The label of the orders (mu, nu), each bounded first: nu = -inf is
        MInf, then mu = +inf MNegInf, equal orders M, mu < nu Oscillating and
        anything else (a NaN, mu > nu) Undecided."""
        mu, nu = bounded_order(mu), bounded_order(nu)
        if nu == -math.inf:
            return ClassLabel.m_inf()
        if mu == math.inf:
            return ClassLabel.m_neg_inf()
        if mu == nu:
            return ClassLabel.m(mu)
        if mu < nu:
            return ClassLabel.oscillating(mu, nu)
        return ClassLabel.undecided()

    # -- predicates ---------------------------------------------------
    @property
    def is_m(self) -> bool:
        return self.tag == TAG_M

    @property
    def is_decided(self) -> bool:
        return self.tag != TAG_UNDECIDED

    @property
    def orders(self) -> tuple[float, float]:
        """(mu, nu) as extended reals; (NaN, NaN) when Undecided."""
        if self.tag == TAG_M:
            return self.rho, self.rho
        if self.tag == TAG_OSC:
            return self.mu, self.nu
        return _TAG_ORDERS[self.tag]

    # -- serialization ------------------------------------------------
    def to_dict(self) -> dict:
        out: dict = {"tag": self.tag}
        if self.tag == TAG_M:
            out["rho"] = self.rho
        if self.tag == TAG_OSC:
            out["mu"] = self.mu
            out["nu"] = self.nu
        return out

    def __str__(self) -> str:
        if self.tag == TAG_M:
            return f"M({self.rho:g})"
        if self.tag == TAG_OSC:
            return f"Oscillating({self.mu:g}, {self.nu:g})"
        return self.tag
