"""Dirichlet series of a periodic integer sequence at s = 1 + it.

L(s, chi) = sum chi(n) n^(-s), for chi of period q with zero mean, is a
direct head sum up to M = Kq plus an Euler-Maclaurin tail. Every n > M is
n = kq + a with k >= K and 1 <= a <= q, so the tail is sum_a chi(a) T_a,
T_a = sum_{k>=K} f_a(k) with f_a(x) = (xq + a)^(-s) and
f_a^(m)(x) = (-1)^m (s)_m q^m (xq + a)^(-s-m), (s)_m the rising factorial.
Euler-Maclaurin through B_16 at N_a = M + a gives

    T_a = N_a^(1-s) / (q (s-1)) + N_a^(-s) [1/2 + sum_{j<=8} B_2j/(2j)! (s)_(2j-1) (q/N_a)^(2j-1)]
          + R_a.

As sum_a chi(a) = 0, each pole term may be taken against M^(1-s); with
delta_a = log(N_a/M) and sinc x = sin x / x,
(N_a^(1-s) - M^(1-s)) / (s-1) = -M^(-it) delta_a e^(-it delta_a/2) sinc(t delta_a/2),
which stays smooth through t = 0. The periodic Bernoulli function obeys
|B~_16| <= |B_16| = 16! 2 zeta(16)/(2 pi)^16, so with C = 2 zeta(16)/(2 pi)^16
|R_a| <= C int_K^inf |f_a^(16)| = C |(s)_16| q^15 N_a^(-16) / 16,
and N_a > M bounds the q classes together by C |(s)_16| (q/M)^16 / 16
times max |chi|. The head keeps K >= max(16, 8 (1 + |s|)), which holds
the remainder below 1e-19; it is largest at t = 0, C 16!/16^16/16 = 2.4e-20.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import check_budget
from .summation import BLOCK

# B_2, B_4, ..., B_16: the Euler-Maclaurin corrections here and in zeta_em
EM_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730, 7.0 / 6,
                -3617.0 / 510)


def periodic_lseries(chi: np.ndarray, s: complex) -> tuple[complex, float]:
    """(value, bound) for sum_{n>=1} chi[n mod q] n^(-s), Re(s) = 1.

    chi must be an integer array over one full period with zero total; its
    one caller, dirichlet_direct, passes s = 1 + it and the table of a
    non-principal character, so neither is checked here.
    bound is the tail's remainder bound plus a rounding allowance for the
    head sum (the tail totals at most about q/M <= 1/16 in modulus) plus,
    off the real axis, the rounding of the head's phases: t log n is
    rounded twice (log n and the product, each within u = 2^-53 relative),
    so the term chi(n) n^(-s) moves by at most 2u |t| log n |chi(n)| / n.
    """
    q = len(chi)
    t = s.imag
    M = q * max(2, math.ceil(max(4096, 16 * q, 8 * q * (1 + abs(s))) / q))
    check_budget("charsum_head", M, period=q, abs_s=abs(s))
    chi_f = np.asarray(chi, dtype=np.float64)
    head = 0.0 + 0.0j
    phase = 0.0  # sum |chi(n)| |t| log n / n over the head
    for lo in range(1, M + 1, BLOCK):  # M can reach the head budget
        k = np.arange(lo, min(lo + BLOCK, M + 1))
        n = k.astype(np.float64)
        w = chi_f[k % q] / n
        if t == 0.0:
            head += float(np.sum(w))
        else:  # n^(-s) = (cos(t log n) - i sin(t log n)) / n
            phi = t * np.log(n)
            head += complex(np.sum(w * np.cos(phi)), -np.sum(w * np.sin(phi)))
            phase += abs(float(np.dot(np.abs(w), phi)))

    a = np.arange(1, q + 1)
    n = M + a.astype(np.float64)
    corr = np.full(q, 0.5 + 0.0j)
    rising, fact = s, 1.0
    for j, b in enumerate(EM_BERNOULLI, start=1):
        fact *= (2 * j - 1) * (2 * j)
        corr += (b / fact) * rising * (q / n) ** (2 * j - 1)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    delta = np.log1p(a / M)
    pole = (-delta / q) * np.exp(-1j * t * (math.log(M) + 0.5 * delta))
    pole *= np.sinc(t * delta / (2.0 * math.pi))
    tail = complex(np.sum(chi_f[a % q] * (np.exp(-s * np.log(n)) * corr + pole)))

    remainder = abs(EM_BERNOULLI[-1]) / math.factorial(16) / 16 * float(np.max(np.abs(chi_f)))
    for j in range(16):
        remainder *= abs(s + j) * q / M
    return head + tail, remainder + 4e-16 * math.log(M + 1) + 2.0**-52 * phase
