"""(2,n) threshold secret sharing over a prime field.

Initial preferences and election proposals are split into linear-polynomial
shares so that any two shares reconstruct the secret and a single share
reveals nothing. Reconstruction with more than two shares cross-checks every
share against the line through the first two; any disagreement is reported
as an inconsistency rather than repaired, because the protocol punishes
inconsistent share sets with a bottom decision instead of voting them out.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InconsistencyError

# Default modulus: the Mersenne prime 2^31 - 1. Tests use small primes
# (7, 101) for exhaustive checks.
DEFAULT_PRIME = 2**31 - 1


class InsufficientSharesError(ValueError):
    """Fewer than two distinct shares were supplied."""


@dataclass(frozen=True)
class LinearPolynomial:
    """q(x) = constant + slope*x over GF(p); q(0) is the secret."""

    constant: int
    slope: int
    p: int = DEFAULT_PRIME

    def __post_init__(self):
        if not (0 <= self.constant < self.p):
            raise ValueError(f"constant {self.constant} outside field [0, {self.p})")
        if not (0 <= self.slope < self.p):
            raise ValueError(f"slope {self.slope} outside field [0, {self.p})")


def make_polynomial(secret: int, rng, p: int = DEFAULT_PRIME) -> LinearPolynomial:
    """Build a degree-1 sharing polynomial with a uniformly random slope."""
    if not (0 <= secret < p):
        raise ValueError(f"secret {secret} outside field [0, {p})")
    return LinearPolynomial(constant=secret, slope=rng.randrange(p), p=p)


def share_for(poly: LinearPolynomial, agent_id: int) -> int:
    """Agent agent_id's share: the polynomial at that nonzero point."""
    if agent_id == 0:
        raise ValueError("evaluation at 0 would expose the secret")
    if agent_id < 0:
        raise ValueError(f"agent id must be positive, got {agent_id}")
    return (poly.constant + poly.slope * agent_id) % poly.p


def reconstruct(shares, p: int = DEFAULT_PRIME) -> int:
    """Interpolate the secret at x=0 from two or more (owner, value) shares.

    All shares must lie on a single degree-1 polynomial; with more than two
    shares, every extra share is checked against the line fixed by the first
    two and any mismatch raises InconsistencyError share/off-line.
    """
    shares = sorted(shares)     # by owner: equal owners are rejected below
    if len({s[0] for s in shares}) != len(shares):
        raise ValueError("shares must have distinct owners")
    if len(shares) < 2:
        raise InsufficientSharesError(
            f"need at least 2 shares to reconstruct, got {len(shares)}"
        )
    (x0, y0), (x1, y1) = shares[0], shares[1]
    # Line through the first two points: slope and value at 0.
    inv_dx = pow((x1 - x0) % p, p - 2, p)
    slope = ((y1 - y0) * inv_dx) % p
    secret = (y0 - slope * x0) % p
    for x, y in shares[2:]:
        if (secret + slope * x) % p != y:
            raise InconsistencyError(
                "share", "off-line",
                detail=f"share at x={x} does not lie on the polynomial "
                f"through x={x0}, x={x1}")
    return secret
