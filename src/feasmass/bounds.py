"""Closed-form envelopes, thresholds and inequality checks, in natural-log space.

Magnitudes like 2**-625 underflow doubles, so every envelope is carried as a
base-e log value; linear values appear only where they provably fit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class BoundReport:
    """One evaluated bound or inequality check."""

    name: str
    params: dict
    value: float
    satisfied: bool


def log_factorial(n: int) -> float:
    return math.lgamma(n + 1)


def uniform_baseline(n: int) -> float:
    """ln(n! / 2**(n**2))."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return log_factorial(n) - n * n * math.log(2)


def l4_envelope(num_qubits: int, beta: float) -> float:
    """ln of the angle-averaged fourth-moment cap (1/2 + sin^2(2b)/4)**N."""
    return num_qubits * math.log(0.5 + 0.25 * math.sin(2 * beta) ** 2)


def lightcone_1d_bound(n: int, p: int) -> float:
    """ln of [(2p+1) 2**-(n-1)]**n (path-coupled rows)."""
    if p < 0:
        raise ValueError("depth must be >= 0")
    return n * (math.log(2 * p + 1) - (n - 1) * math.log(2))


def lightcone_degree_bound(n: int, p: int, delta_row: float, C: float) -> float:
    """ln of [C d_row**p 2**-(n-1)]**n for general intra-row degree."""
    if delta_row < 1 or C <= 0:
        raise ValueError("need delta_row >= 1 and C > 0")
    return n * (math.log(C) + p * math.log(delta_row) - (n - 1) * math.log(2))


def transfer_factor(n: int) -> tuple:
    """(ln(2**(n**2)/n**n), ln(sqrt(2 pi n) e**n)): exact factor and Stirling
    floor.  The exact factor is the master ratio with no light-cone loss
    (alpha = 0) and c_CE = 1."""
    if n < 2:
        raise ValueError("n must be >= 2")
    exact = ratio_master(n, 0.0, 1.0, 1.0)
    floor = 0.5 * math.log(2 * math.pi * n) + n
    return exact, floor


def ratio_master(n: int, alpha: float, delta_row: float, c_ce: float) -> float:
    """n^2 (ln2 - a ln d) - n ln n + ln c_ce."""
    if c_ce < 1:
        raise ValueError("c_ce must be >= 1")
    return (n * n * (math.log(2) - alpha * math.log(delta_row))
            - n * math.log(n) + math.log(c_ce))


# ---------------------------------------------------------------------------
# inequality batteries

def injective_ratio_inequality_holds(n: int) -> bool:
    """(n**n / n!)**2 > ((n+1)/n)**(n(n-1)), evaluated in log space."""
    return 2 * (n * math.log(n) - log_factorial(n)) > n * (n - 1) * math.log((n + 1) / n)


def control_threshold_start(c_t: float) -> int:
    """First n from which n**n 2**(-c_t n^2 / 2) < 1 is promised."""
    a = c_t * math.log(2) / 2
    return max(9, math.ceil(4 / (a * a)))


def control_inequality_holds(c_t: float, n: int) -> bool:
    """n**n 2**(-c_t n^2/2) < 1, in log space."""
    return n * math.log(n) - (c_t * math.log(2) / 2) * n * n < 0


def verify_bounds() -> list:
    """Run the inequality sweeps; known finite-n failures come back as WARNs
    (satisfied=False on the specific report, not an exception)."""
    n_ratio_max, n_control_max, n_stirling_max = 50, 200, 60
    reports = []
    ratio_ok = all(injective_ratio_inequality_holds(n) for n in range(2, n_ratio_max + 1))
    reports.append(BoundReport("injective_ratio_inequality", {"n_max": n_ratio_max},
                               value=math.nan, satisfied=ratio_ok))
    for c_t in (0.1, 0.5, 1.0):
        start = control_threshold_start(c_t)
        ok = all(control_inequality_holds(c_t, n) for n in range(start, n_control_max + 1))
        reports.append(BoundReport("control_threshold",
                                   {"c_t": c_t, "start": start, "n_max": n_control_max},
                                   value=math.nan, satisfied=ok))
    for n in range(2, n_stirling_max + 1):
        exact, floor = transfer_factor(n)
        reports.append(BoundReport("stirling_floor", {"n": n},
                                   value=exact - floor, satisfied=exact >= floor))
    return reports
