"""Exact-rational ledger of the optimal cloning and estimation values.

Every closed form lives here as a Fraction, independent of the simulator:

    eta_opt(N, M)        = N(M+2) / (M(N+2))
    fidelity_opt(N, M)   = (NM+N+M) / (M(N+2))   = (1 + eta_opt)/2
    eta_meas_opt(M)      = M / (M+2)
    fidelity_meas_opt(M) = (M+1) / (M+2)

The identities among them (multiplicativity under concatenation, the
measurement value as the many-clone limit, measurement never beating
coherent cloning at finite M) are checked in exact arithmetic; the
simulator's floats are compared against them only in the CLI checks.
Every count must be an integer in range (a bool is not), else ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import inf

from .linalg import _integer_in

_AT_LEAST = " must be an integer >= {lo}, got {value}"


def eta_opt(n, m):
    """Optimal shrinking factor for the universal n→m cloner."""
    n = _integer_in(n, 1, inf, "n" + _AT_LEAST)
    m = _integer_in(m, n, inf, "m" + _AT_LEAST)
    return Fraction(n * (m + 2), m * (n + 2))


def fidelity_opt(n, m):
    """Optimal single-clone fidelity on pure inputs; equals (1+eta_opt)/2."""
    n = _integer_in(n, 1, inf, "n" + _AT_LEAST)
    m = _integer_in(m, n, inf, "m" + _AT_LEAST)
    return Fraction(n * m + n + m, m * (n + 2))


def eta_meas_opt(m):
    """Shrinking factor of optimal state estimation on m copies."""
    m = _integer_in(m, 1, inf, "m" + _AT_LEAST)
    return Fraction(m, m + 2)


def fidelity_meas_opt(m):
    """Optimal estimation fidelity on m copies."""
    m = _integer_in(m, 1, inf, "m" + _AT_LEAST)
    return Fraction(m + 1, m + 2)


@dataclass
class BoundsReport:
    n: int
    m: int
    l: int
    eta_opt: Fraction
    fidelity_opt: Fraction
    eta_meas_opt: Fraction
    fidelity_meas_opt: Fraction
    inequality_checks: list = field(default_factory=list)  # (name, holds, slack)

    @property
    def all_hold(self):
        return all(holds for _, holds, _ in self.inequality_checks)


def check_identities(n, m, l):
    """Exact-arithmetic verification of the ledger identities for n<=m<=l.

    Checks, with slack reported as an exact Fraction:
      - chain: eta_opt(n,m)*eta_opt(m,l) == eta_opt(n,l)
      - measurement-as-limit: eta_opt(n,m)*eta_meas_opt(m) == eta_meas_opt(n)
      - fidelity relation: fidelity_opt == (1+eta_opt)/2
      - finite-m gap: eta_opt(m,L) - eta_meas_opt(m) == 2m/(L(m+2)) > 0,
        evaluated at L = 10^3 c and 10^6 c with c = ceil(m / 10^3), so L >= m
        for every m and L = 10^3, 10^6 for m <= 1000 (positive sign, 1/L decay).
    """
    l = _integer_in(l, 1, inf, "l" + _AT_LEAST)   # n and m are checked by eta_opt
    if not 1 <= n <= m <= l:
        raise ValueError(f"need 1 <= n <= m <= l, got ({n}, {m}, {l})")
    checks = []

    chain_slack = eta_opt(n, m) * eta_opt(m, l) - eta_opt(n, l)
    checks.append(("chain-multiplicativity", chain_slack == 0, chain_slack))

    meas_slack = eta_opt(n, m) * eta_meas_opt(m) - eta_meas_opt(n)
    checks.append(("measurement-limit-consistency", meas_slack == 0, meas_slack))

    fid_slack = fidelity_opt(n, m) - (1 + eta_opt(n, m)) / 2
    checks.append(("fidelity-from-eta", fid_slack == 0, fid_slack))

    scale = -(-m // 10 ** 3)  # ceil(m / 10^3)
    for big_l in (10 ** 3 * scale, 10 ** 6 * scale):
        gap = eta_opt(m, big_l) - eta_meas_opt(m)
        expected = Fraction(2 * m, big_l * (m + 2))
        holds = gap == expected and gap > 0
        checks.append((f"finite-clone-gap-L={big_l}", holds, gap - expected))

    return BoundsReport(
        n=n, m=m, l=l,
        eta_opt=eta_opt(n, m),
        fidelity_opt=fidelity_opt(n, m),
        eta_meas_opt=eta_meas_opt(m),
        fidelity_meas_opt=fidelity_meas_opt(m),
        inequality_checks=checks,
    )
