"""Bundled reference sweeps of the convolution dilatation magnitude.

Each row fixes an order n, a left-factor parameter a, an angle for the
right factor, and a probe point z = 0.99 e^{i pi q}; the reference column
is the expected |dilatation| there.  All angles are exact rational
multiples of pi, stored as (numerator, denominator) pairs.
"""
import math
from dataclasses import dataclass
from typing import Tuple

from ._core import instance, positive_int, prepare, real
from .convolution import ConvolutionSpec, _derivatives, _ratio
from .errors import ParameterError
from .mappings import make_mapping, term_table

PROBE_RADIUS = 0.99
TOLERANCE = 1e-4


@dataclass(frozen=True)
class TableRow:
    n: int
    a: float
    theta: Tuple[int, int]    # angle of the right factor, as num/den of pi
    z_angle: Tuple[int, int]  # probe angle, as num/den of pi
    reference: float


# right-factor angle fixed at pi
THETA_PI_ROWS = (
    TableRow(2, 0.5, (1, 1), (1, 3), 1.06019),
    TableRow(3, 0.5, (1, 1), (3, 4), 1.28884),
    TableRow(4, -0.5, (1, 1), (1, 8), 1.07326),
    TableRow(5, -0.5, (1, 1), (1, 10), 1.04422),
    TableRow(6, -0.4, (1, 1), (1, 11), 1.03038),
    TableRow(7, 0.5, (1, 1), (1, 3), 1.04396),
    TableRow(8, 0.5, (1, 1), (1, 3), 1.02052),
    TableRow(9, 0.5, (1, 1), (1, 2), 1.12641),
    TableRow(10, 0.3, (1, 1), (1, 4), 1.05563),
    TableRow(11, -0.7, (1, 1), (1, 5), 1.32055),
    TableRow(12, 0.0, (1, 1), (1, 5), 1.09197),
    TableRow(13, 0.0, (1, 1), (1, 5), 1.00698),
    TableRow(14, -0.4, (1, 1), (1, 6), 1.20222),
    TableRow(15, -0.2, (1, 1), (1, 6), 1.04876),
)

# general right-factor angles
GENERAL_ROWS = (
    TableRow(2, 0.5, (1, 8), (1, 2), 1.16334),
    TableRow(3, 0.5, (1, 12), (1, 2), 1.09124),
    TableRow(4, 0.5, (1, 3), (1, 3), 1.05616),
    TableRow(5, 0.8, (1, 6), (2, 3), 1.06377),
    TableRow(6, 0.7, (1, 3), (1, 2), 1.09271),
    TableRow(7, 0.7, (1, 6), (1, 2), 1.01364),
    TableRow(8, 0.6, (-1, 3), (1, 2), 1.04091),
    TableRow(9, 0.7, (1, 2), (-7, 8), 1.20496),
    TableRow(10, 0.7, (-1, 2), (-7, 8), 1.97405),
    TableRow(11, 0.4, (1, 2), (-7, 8), 1.42585),
    TableRow(12, 0.0, (1, 2), (7, 8), 1.09957),
    TableRow(13, 0.9, (-1, 16), (7, 8), 1.01078),
    TableRow(14, 0.9, (-3, 4), (7, 8), 1.08478),
    TableRow(15, 0.9, (-1, 4), (-7, 8), 1.00032),
)


def angle_value(frac: Tuple[int, int]) -> float:
    """num/den of pi, for a real num and a positive integer den."""
    if not isinstance(frac, (tuple, list)) or len(frac) != 2:
        raise ParameterError(f"angle must be a (num, den) pair, got {frac!r}")
    num, den = frac
    return math.pi * real(num, "angle numerator") / positive_int(
        den, "angle denominator")


def compute_row(row: TableRow) -> dict:
    """Recompute one row; returns parameters, computed modulus, reference
    and absolute difference.  The probe lies at radius 0.99, clear of every
    singular point, so the point kernel takes it unguarded, and a critical
    probe would read inf (and fail its row) rather than raise.  Its modulus
    is Python's complex abs, libm's hypot: numpy's complex abs (as in
    ``convolution._moduli``) rounds the last bit of 10 of the 28 rows
    differently."""
    theta = angle_value(instance(row, TableRow, "row").theta)
    spec = ConvolutionSpec(row.a, make_mapping("Fn", theta=theta, n=row.n))
    z = PROBE_RADIUS * complex(math.cos(angle_value(row.z_angle)),
                               math.sin(angle_value(row.z_angle)))
    w = _ratio(*_derivatives(spec.a, term_table(spec.right), prepare(z)[0]))
    computed = abs(complex(w))
    return {
        "n": row.n,
        "a": row.a,
        "theta": f"{row.theta[0]}pi/{row.theta[1]}",
        "z_angle": f"{row.z_angle[0]}pi/{row.z_angle[1]}",
        "computed": computed,
        "reference": row.reference,
        "diff": abs(computed - row.reference),
    }


def compute_table(which: int):
    """Recompute a whole bundled table (1: angle pi, 2: general angles)."""
    which = positive_int(which, "table")
    if which not in (1, 2):
        raise ParameterError(f"table must be 1 or 2, got {which!r}")
    rows = THETA_PI_ROWS if which == 1 else GENERAL_ROWS
    return [compute_row(r) for r in rows]
