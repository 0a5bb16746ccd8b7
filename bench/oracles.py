"""Independent oracles for the benchmark's checks.

Nothing here imports multising.  The layer chain (pi, Q) comes from the
closed form of the 2x2 transfer matrix computed below; everything else is a
closed form, a brute-force enumeration or exact integer arithmetic.  Spin
index 0 is +1 and index 1 is -1, as in the package.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

SPINS = np.array([1.0, -1.0])
LOG2 = math.log(2.0)


def log2cosh(x: float) -> float:
    """log(2 cosh x) without overflow."""
    x = abs(x)
    return x + math.log1p(math.exp(-2.0 * x))


def entropy_of(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def binary_entropy(a: float) -> float:
    return entropy_of([a, 1.0 - a])


class Chain:
    """Perron data of K(a, b) = exp(A a b + B b), A = beta*J, B = beta*h.

    K = D^-1 S D with D = diag(e^{B s/2}) and the symmetric
    S(a, b) = exp(A a b + B (a + b)/2), whose eigenvectors follow from one
    rotation angle.  Then Q(a, b) = S(a, b) u(b) / (lam u(a)) and
    pi(a) ~ e^{B s_a / 2} u(a); every log is formed without subtraction of
    nearly equal numbers.
    """

    def __init__(self, beta: float, J: float, h: float):
        self.A = beta * J
        self.B = beta * h
        log_s = self.A * np.outer(SPINS, SPINS) + 0.5 * self.B * (SPINS[:, None] + SPINS[None, :])
        m = float(log_s.max())
        s = np.exp(log_s - m)
        p, q, r = s[0, 0], s[0, 1], s[1, 1]
        # p == r exactly at h = 0, where q may underflow; the angle is pi/4
        theta = math.pi / 4 if p == r else 0.5 * math.atan2(2.0 * q, p - r)
        self.u = np.array([math.cos(theta), math.sin(theta)])
        self.v = np.array([-math.sin(theta), math.cos(theta)])
        lam = 0.5 * (p + r) + math.hypot(0.5 * (p - r), q)
        self.log_lam = m + math.log(lam)
        self.ratio = (p * r - q * q) / lam / lam  # lambda_- / lambda_+
        log_u = np.log(self.u)
        self.log_Q = log_s - self.log_lam + log_u[None, :] - log_u[:, None]
        self.Q = np.exp(self.log_Q)
        lp = 0.5 * self.B * SPINS + log_u
        lp = lp - lp.max()
        self.log_pi = lp - math.log(np.exp(lp).sum())
        self.pi = np.exp(self.log_pi)
        self.flip = self.Q[0, 1] + self.Q[1, 0]  # 1 - rho
        with np.errstate(invalid="ignore"):  # no stationary law once Q is diagonal
            self.mu = np.array([self.Q[1, 0], self.Q[0, 1]]) / self.flip
        self.row_entropy = -(self.Q * self.log_Q).sum(axis=1)

    def q_power(self, n: int) -> np.ndarray:
        """Q^n = Pi + rho^n (I - Pi) with Pi the stationary projector."""
        proj = np.outer(np.ones(2), self.mu)
        return proj + (1.0 - self.flip) ** n * (np.eye(2) - proj)

    def marginal_entropy(self, k: int) -> float:
        """Entropy of the chain law on sites 0..k:
        H(pi) + sum_{i<k} (pi Q^i) . H(Q(a, .)), summed in closed form."""
        geo = -math.expm1(k * math.log1p(-self.flip)) / self.flip  # sum_{i<k} rho^i
        return (entropy_of(self.pi) + k * float(self.mu @ self.row_entropy)
                + float((self.pi - self.mu) @ self.row_entropy) * geo)

    def ks_entropy(self) -> float:
        """sum_k 2^-(k+2) H_k = H(pi)/2 + [mu/2 + (pi - mu)/(4 - 2 rho)] . H(Q)."""
        rho = 1.0 - self.flip
        weights = 0.5 * self.mu + (self.pi - self.mu) / (4.0 - 2.0 * rho)
        return 0.5 * entropy_of(self.pi) + float(weights @ self.row_entropy)

    def printed_variant(self) -> float:
        """The entrywise-power expression with a -1/2 resolvent prefactor."""
        r_pp = 0.5 / (1.0 - 0.5 * self.Q)
        term = float(np.einsum("a,ab,bc->", self.pi, r_pp, self.Q * self.log_Q))
        return 0.5 * entropy_of(self.pi) - 0.5 * term

    def log_partition(self, n_bonds: int, bc_field: float = 0.0) -> float:
        """log Z of the free-left chain on sites 0..n_bonds whose last site
        carries the extra weight e^{bc_field * s}, by the spectral form
        Z = sum_{+-} lam_{+-}^n (a . e)(e . b)."""
        la = 0.5 * self.B * SPINS
        lb = (0.5 * self.B + bc_field) * SPINS
        a = np.exp(la - la.max())
        b = np.exp(lb - lb.max())
        main = (a @ self.u) * (self.u @ b)
        rest = (a @ self.v) * (self.v @ b) * self.ratio ** n_bonds
        return (n_bonds * self.log_lam + float(la.max()) + float(lb.max())
                + math.log(main + rest))


def brute_chain_log_partition(n_bonds: int, beta: float, J: float, h: float,
                              bc_field: float = 0.0) -> float:
    """Direct sum over all 2^(n+1) configurations of the chain."""
    n = n_bonds + 1
    states = np.arange(1 << n)
    spins = 1.0 - 2.0 * ((states[:, None] >> np.arange(n)[None, :]) & 1)
    a = beta * (J * (spins[:, :-1] * spins[:, 1:]).sum(axis=1) + h * spins.sum(axis=1))
    a = a + bc_field * spins[:, -1]
    m = a.max()
    return float(m + np.log(np.exp(a - m).sum()))


def free_energy(bc: str, beta: float, J: float, h: float, jbc: float = None,
                brute_bonds: int = 10) -> float:
    """sum_p 2^-(p+2) log Z_chain(p+1 bonds; bc) + (1/2) log 2cosh(beta(h +- jbc)),
    with chains of up to brute_bonds bonds enumerated and longer ones in
    spectral form."""
    jbc = J if jbc is None else jbc
    sign = {"free": 0.0, "plus": 1.0, "minus": -1.0}[bc]
    chain = Chain(beta, J, h)
    bc_field = sign * beta * jbc
    total = 0.0
    p = 0
    scale = LOG2 + abs(beta * J) + abs(beta * h) + abs(bc_field) + 1.0
    while 0.5 ** (p + 2) * (p + 3) * scale > 1e-18:
        if p + 1 <= brute_bonds:
            log_z = brute_chain_log_partition(p + 1, beta, J, h, bc_field)
        else:
            log_z = chain.log_partition(p + 1, bc_field)
        total += 0.5 ** (p + 2) * log_z
        p += 1
    return total + 0.5 * log2cosh(beta * h + bc_field)


def psi2(r: int, n: int) -> int:
    """Largest k with r 2^k <= n."""
    return (n // r).bit_length() - 1


def smb_mean(n: int, chain: Chain) -> float:
    """E[-(1/n) log mu(s_[1,n])] = (1/n) sum_{odd r<=n} H(chain law on 0..psi2(r,n))."""
    return sum(chain.marginal_entropy(psi2(r, n)) for r in range(1, n + 1, 2)) / n


def joint_law_logprobs(sites, chain: Chain) -> np.ndarray:
    """log P of every spin pattern on the sites (bit j set: site j is -1).
    Layers r = odd part are independent chains; gaps use Q^gap."""
    sites = list(sites)
    out = np.empty(1 << len(sites))
    for pattern in range(1 << len(sites)):
        layers = {}
        for j, site in enumerate(sites):
            v = (site & -site).bit_length() - 1
            layers.setdefault(site >> v, []).append((v, (pattern >> j) & 1))
        lp = 0.0
        for items in layers.values():
            items.sort()
            (v0, s0) = items[0]
            lp += math.log((chain.pi @ chain.q_power(v0))[s0])
            for (va, sa), (vb, sb) in zip(items, items[1:]):
                lp += math.log(chain.q_power(vb - va)[sa, sb])
        out[pattern] = lp
    return out


# ---------------------------------------------------------------------------
# Dyadic-layer SCGF of a first-layer observable, with exact t-derivatives.
# ---------------------------------------------------------------------------


def window_scgf(terms, chain: Chain, t, tail_tol: float = 1e-16):
    """F(t), F'(t), F''(t) of F = sum_k 2^-(k+2) P^k(t f*) on an array of tilts.

    terms: ((offset, ...), coeff) pairs of the one-dimensional layer
    observable f*.  P^k is propagated on the dense 2^w-state window chain
    together with its first two t-derivatives (forward mode), rescaled every
    step.  The depth follows from |P^k| <= (k+1) |t| sup, |P^k'| <= (k+1) sup
    and |P^k''| <= (k+1)^2 sup^2, with sup = sum |c|.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    w = 1 + max((o for offs, _ in terms for o in offs), default=0)
    n_states = 1 << w
    bits = (np.arange(n_states)[:, None] >> np.arange(w)[None, :]) & 1
    spins = 1.0 - 2.0 * bits
    f = np.zeros(n_states)
    for offs, c in terms:
        f = f + c * np.prod(spins[:, list(offs)], axis=1)
    init = chain.pi[bits[:, 0]].copy()
    for j in range(w - 1):
        init = init * chain.Q[bits[:, j], bits[:, j + 1]]
    step = np.zeros((n_states, n_states))
    for state in range(n_states):
        for new in (0, 1):
            step[state, (state >> 1) | (new << (w - 1))] = chain.Q[bits[state, w - 1], new]
    sup = sum(abs(c) for _, c in terms)
    growth = max(1.0, float(np.max(np.abs(t), initial=0.0))) * max(sup, sup * sup, 1.0)
    depth = 0
    while growth * (depth + 3) ** 2 * 0.5 ** (depth + 2) > tail_tol:
        depth += 1
    e = np.exp(np.outer(t, f))
    v = init[None, :] * e
    v1 = v * f
    v2 = v1 * f
    log_scale = np.zeros(t.size)
    F = np.zeros(t.size)
    F1 = np.zeros(t.size)
    F2 = np.zeros(t.size)
    for k in range(depth + 1):
        z = v.sum(axis=1)
        m1 = v1.sum(axis=1) / z
        m2 = v2.sum(axis=1) / z
        wk = 0.5 ** (k + 2)
        log_scale += np.log(z)
        F += wk * log_scale
        F1 += wk * m1
        F2 += wk * (m2 - m1 * m1)
        v, v1, v2 = v / z[:, None], v1 / z[:, None], v2 / z[:, None]
        y, y1, y2 = v @ step, v1 @ step, v2 @ step
        v = y * e
        v1 = (y1 + y * f) * e
        v2 = (y2 + 2.0 * y1 * f + y * f * f) * e
    return F, F1, F2


def rate_function(terms, chain: Chain, x, t_start):
    """I(x) = sup_t (t x - F(t)) by safeguarded Newton on F'(t) = x from
    t_start; returns (I, t*)."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t_start, dtype=float).copy()
    for _ in range(60):
        _, F1, F2 = window_scgf(terms, chain, t)
        step = (F1 - x) / np.maximum(F2, 1e-300)
        t = t - np.clip(step, -1.0, 1.0)
        if np.all(np.abs(step) <= 1e-14 * np.maximum(1.0, np.abs(t))):
            break
    F, _, _ = window_scgf(terms, chain, t)
    return t * x - F, t


# ---------------------------------------------------------------------------
# Multi-prime layers.
# ---------------------------------------------------------------------------


def smooth_by_trial_division(n: int, primes) -> bool:
    for p in primes:
        while n % p == 0:
            n //= p
    return n == 1


def smooth_numbers_upto(limit: int, primes):
    """All integers <= limit whose prime factors lie in `primes`, sorted;
    built by nested exponent loops (no heap)."""
    out = [1]
    for p in primes:
        grown = []
        for m in out:
            while m <= limit:
                grown.append(m)
                m *= p
        out = grown
    return sorted(out)


def kappa(primes) -> Fraction:
    k = Fraction(1)
    for p in primes:
        k *= Fraction(p - 1, p)
    return k


def decompose(n: int, primes):
    """(r, exponent vector) with n = r * prod p^x and r coprime to the primes."""
    exps = []
    for p in primes:
        x = 0
        while n % p == 0:
            n //= p
            x += 1
        exps.append(x)
    return n, tuple(exps)


def layer_regions(n: int, primes):
    """r -> sorted exponent vectors of the layer r within [1, n]."""
    layers = {}
    for i in range(1, n + 1):
        r, x = decompose(i, primes)
        layers.setdefault(r, []).append(x)
    return {r: sorted(pts) for r, pts in layers.items()}


def dependence_sites(points, terms):
    """Sites x + o over the region points and the non-constant monomials."""
    return {tuple(a + b for a, b in zip(x, o)) for x in points for offs, _ in terms if offs
            for o in offs}


def brute_region_pressure(points, terms, t: float, chain: Chain, axis: int) -> float:
    """log E exp(t sum_{x in region} f*(theta_x)) by enumerating every line
    chain of the dependence set from its origin, weighted by pi and Q."""
    sites = dependence_sites(points, terms)
    const = sum(c for offs, c in terms if not offs) * len(points)
    if not sites:
        return t * const
    lines = {}
    for s in sites:
        key = s[:axis] + s[axis + 1:]
        lines[key] = max(lines.get(key, 0), s[axis] + 1)
    keys = sorted(lines)
    lengths = [lines[k] for k in keys]
    monos = [[tuple(a + b for a, b in zip(x, o)) for o in offs] for x in points
             for offs, _ in terms if offs]
    coeffs = [c for x in points for offs, c in terms if offs]
    vals = []
    for assign in itertools.product((0, 1), repeat=sum(lengths)):
        spin = {}
        logp = 0.0
        pos = 0
        for key, length in zip(keys, lengths):
            chain_bits = assign[pos:pos + length]
            pos += length
            logp += chain.log_pi[chain_bits[0]]
            for a, b in zip(chain_bits, chain_bits[1:]):
                logp += chain.log_Q[a, b]
            for i, bit in enumerate(chain_bits):
                spin[key[:axis] + (i,) + key[axis:]] = 1 - 2 * bit
        tilt = const
        for inst, c in zip(monos, coeffs):
            prod = 1
            for s in inst:
                prod *= spin[s]
            tilt += c * prod
        vals.append(logp + t * tilt)
    m = max(vals)
    return m + math.log(sum(math.exp(v - m) for v in vals))


def brute_bits(points, terms, axis: int) -> int:
    """Number of spins brute_region_pressure enumerates."""
    lines = {}
    for s in dependence_sites(points, terms):
        key = s[:axis] + s[axis + 1:]
        lines[key] = max(lines.get(key, 0), s[axis] + 1)
    return sum(lines.values())
