"""Reference routes shared by the unit tests.

Everything here enumerates configurations directly, evaluates the naive
Perron formulas in high-precision decimal arithmetic, keeps an earlier route
that the package replaced (the second-order tilted pass, the gathering
multiplicative average, the bounded smooth-number enumeration), keeps a
route that only the tests call (the first smooth numbers, the exact
finite-volume pressure), or builds reference regions that only the tests
use; no bounded enumeration is shared with the implementations under test.
The chain and region brute-force enumerators live in multising.acceptance,
where `multising verify` runs them, and the tests import them from there.
"""

import decimal
import functools
import itertools
import math

import numpy as np

from multising import arith


def is_lower_set(region):
    """Whether the region's exponent vectors are closed under coordinatewise
    decrease."""
    for pt in region.points:
        for axis, x in enumerate(pt):
            if x > 0:
                below = pt[:axis] + (x - 1,) + pt[axis + 1 :]
                if below not in region.points:
                    return False
    return True


def smooth_numbers_upto(limit, primes):
    """Every integer <= limit whose prime factors lie in `primes`, sorted,
    by multiplying each one found so far by the powers of the next prime."""
    found = [1]
    for p in primes:
        grown = []
        for m in found:
            while m <= limit:
                grown.append(m)
                m *= p
        found = grown
    return sorted(found)


def smooth_numbers(basis, count):
    """First `count` integers whose prime factors all lie in the basis,
    in increasing order (n_1 = 1), from the heap merge behind
    arith.iter_kie_weights."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return list(itertools.islice(arith._smooth_heap(basis.primes), count))


def canonical_region(basis, cardinality):
    """The lower set realized by layer r = 1 at the smallest volume whose
    region has the given cardinality: the exponent vectors of the first
    `cardinality` basis-smooth numbers."""
    pts = []
    for m in smooth_numbers(basis, cardinality):
        pts.append(arith.decompose(m, basis).exponents)
    return arith.Region(frozenset(pts))


def finite_volume_cylinder_logprob(values, n, params):
    """log P(s_0..s_k = values) under the finite free-boundary chain on
    [0, n], by scaled transfer sums (independent of the Markov (pi, Q) route).
    """
    k = len(values) - 1
    assert n >= k
    K = np.empty((2, 2))
    spins = (1, -1)
    for ia, sa in enumerate(spins):
        for ib, sb in enumerate(spins):
            K[ia, ib] = math.exp(params.beta * (params.J * sa * sb + params.h * sb))
    idx = [0 if v == 1 else 1 for v in values]
    # numerator: pinned prefix, then free tail summed
    num = math.exp(params.beta * params.h * values[0])
    log_num = math.log(num)
    for a, b in zip(idx, idx[1:]):
        log_num += math.log(K[a, b])
    v = np.zeros(2)
    v[idx[-1]] = 1.0
    scale = 0.0
    for _ in range(n - k):
        v = v @ K
        mx = v.max()
        v /= mx
        scale += math.log(mx)
    log_num += scale + math.log(v.sum())
    # denominator: full partition function
    w = np.array([math.exp(params.beta * params.h), math.exp(-params.beta * params.h)])
    scale = 0.0
    for _ in range(n):
        w = w @ K
        mx = w.max()
        w /= mx
        scale += math.log(mx)
    log_den = scale + math.log(w.sum())
    return log_num - log_den


def _reference_transfer_at(A, B, digits):
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        ctx.Emax, ctx.Emin = decimal.MAX_EMAX, decimal.MIN_EMIN
        ea, eb = decimal.Decimal(A).exp(), decimal.Decimal(B).exp()
        K = [[ea * eb, 1 / (ea * eb)], [eb / ea, ea / eb]]  # K(a, b) = e^{A ab + B b}
        lam = (K[0][0] + K[1][1]) / 2 + (((K[0][0] - K[1][1]) / 2) ** 2 + K[0][1] * K[1][0]).sqrt()
        # right eigenvector from the first row of (K - lam) e = 0, as it stands
        e = (K[0][1], lam - K[0][0])
        if e[1] <= 0:
            return None
        q = [K[i][j] * e[j] / (lam * e[i]) for i in range(2) for j in range(2)]
        w = (eb * e[0], e[1] / eb)  # e^{B s_a} e(a)
        probs = q + [w[0] / (w[0] + w[1]), w[1] / (w[0] + w[1])]
    with decimal.localcontext() as ctx:
        # the ratios are exact to `digits`; their logs are needed to 50
        ctx.prec = 50
        ctx.Emax, ctx.Emin = decimal.MAX_EMAX, decimal.MIN_EMIN
        return [(+x).ln() for x in probs]


@functools.lru_cache(maxsize=None)
def reference_transfer(A, B):
    """(log Q, log pi) at beta*J = A and beta*h = B from the naive Perron
    formulas, lam - K(+,+) included, in decimal arithmetic.

    The subtraction cancels up to (4|A| + 2|B|)/ln 10 digits, so the
    precision starts at 60 digits beyond that and grows by half until two
    evaluations agree to 1e-25 (relative beyond magnitude 1).
    """
    digits = 60 + int((4 * abs(A) + 2 * abs(B)) / math.log(10))
    prev = _reference_transfer_at(A, B, digits)
    while True:
        digits = digits * 3 // 2
        cur = _reference_transfer_at(A, B, digits)
        if prev is not None and cur is not None and all(
            abs(x - y) <= decimal.Decimal("1e-25") * max(1, abs(y)) for x, y in zip(prev, cur)
        ):
            v = np.array([float(x) for x in cur])
            v.flags.writeable = False  # shared by the cache
            return v[:4].reshape(2, 2), v[4:]
        prev = cur


def multiplicative_log_partition(n, params, bc="free", bc_coupling="J"):
    """Direct enumeration of the volume [1, 2n] under the multiplicative
    Hamiltonian with the given boundary condition."""
    jbc = params.J if bc_coupling == "J" else 1.0
    sign = {"free": 0.0, "plus": 1.0, "minus": -1.0}[bc]
    vals = []
    for cfg in itertools.product((1, -1), repeat=2 * n):
        s = {i + 1: cfg[i] for i in range(2 * n)}
        e = params.J * sum(s[i] * s[2 * i] for i in range(1, n + 1))
        e += params.h * sum(s[i] for i in range(1, 2 * n + 1))
        e += sign * jbc * sum(s[i] for i in range(n + 1, 2 * n + 1))
        vals.append(params.beta * e)
    m = max(vals)
    return m + math.log(sum(math.exp(v - m) for v in vals))


def tilted_pressure_by_enumeration(k, fstar, t, params):
    """P^k(t f*) by enumerating all chains of length k + width and weighting
    by exact cylinder log-probabilities log pi + sum log Q."""
    from multising.ising1d import transfer

    td = transfer(params)
    w = fstar.width
    length = k + w
    vals = []
    for chain in itertools.product((0, 1), repeat=length):
        logp = float(td.log_pi[chain[0]])
        for a, b in zip(chain, chain[1:]):
            logp += float(td.log_Q[a, b])
        spins = [1 - 2 * c for c in chain]
        total = 0.0
        for i in range(k + 1):
            for offsets, coeff in fstar.terms:
                prod = coeff
                for (o,) in offsets:
                    prod *= spins[i + o]
                total += prod
        vals.append(logp + t * total)
    m = max(vals)
    return m + math.log(sum(math.exp(v - m) for v in vals))


def tilted_prefix_moments(k, fstar, t, params):
    """(P, dP, d2P) of the tilted prefix pressures P^i(t f*), i = 0..k, each
    of shape (k+1,) for scalar t and (k+1, len(t)) for a vector of tilts.

    The log route of ising1d.tilted_prefix_pressures, its merge by the last
    step's normalised weights and its log-domain rescue of tiny pairs
    included, in plain expressions, with the variance channel that the
    package no longer carries: per window state the log tilted weight, the
    tilted conditional mean of S and its conditional variance, so that
    d2P^i = Var_t S_i.  The package takes the log route for a tilt whose
    weight span the linear route's certificate does not cover, or for every
    tilt with _LINEAR_SPAN set to -inf; the linear route agrees with this
    pass to about 1e-15 in F and F', not bit for bit.  The reference for
    ising1d.prefix_variances.
    """
    from multising.ising1d import transfer

    td = transfer(params)
    w = max(fstar.width, 2)
    n, half = 1 << w, 1 << (w - 1)
    bits = (np.arange(n)[:, None] >> np.arange(w)[None, :]) & 1
    spins = 1.0 - 2.0 * bits
    f = np.zeros(n)
    for offsets, coeff in fstar.terms:
        prod = np.full(n, coeff)
        for (o,) in offsets:
            prod = prod * spins[:, o]
        f += prod
    f = f[:, None]
    t_in, t = t, np.atleast_1d(np.asarray(t, dtype=float))
    log_q = td.log_Q[(np.arange(half) >> (w - 2)) & 1].T[:, :, None]  # [new slot, prefix]
    log_w = td.log_pi[bits[:, 0]] + td.log_Q[bits[:, :-1], bits[:, 1:]].sum(axis=1)
    log_w = log_w[:, None] + np.zeros((1, t.size))
    mean = np.zeros((n, t.size))
    var = np.zeros((n, t.size))
    out = np.empty((3, k + 1, t.size))
    for i in range(k + 1):
        if i:
            # window states 2q and 2q+1 shift into prefix q; prefix q and new
            # slot b make state q + b n/2.  Their weights relative to the last
            # step's top are u; pairs summing below 2^-960 merge by logaddexp
            a0, a1, m0, m1 = log_w[0::2], log_w[1::2], mean[0::2], mean[1::2]
            pair = u[0::2] + u[1::2]
            low = pair < 2.0 ** -960
            with np.errstate(divide="ignore", invalid="ignore"):
                merged = np.where(low, np.logaddexp(a0, a1), np.log(pair) + top)
                r0 = np.where(low, np.exp(a0 - merged), u[0::2] / pair)
                r1 = np.where(low, np.exp(a1 - merged), u[1::2] / pair)
            mq = m0 + r1 * (m1 - m0)
            vq = r0 * var[0::2] + r1 * var[1::2] + r0 * r1 * (m1 - m0) * (m1 - m0)
            log_w = (log_q + merged[None]).reshape(n, t.size)
            mean = np.concatenate([mq, mq]) + f
            var = np.concatenate([vq, vq])
        else:
            mean = mean + f
        log_w = log_w + f * t[None, :]
        top = log_w.max(axis=0)
        u = np.exp(log_w - top)
        z = u.sum(axis=0)
        out[1, i] = (u * mean).sum(axis=0) / z
        out[2, i] = (u * ((mean - out[1, i]) * (mean - out[1, i]) + var)).sum(axis=0) / z
        out[0, i] = top + np.log(z)
    if np.ndim(t_in) == 0:
        out = out[:, :, 0]
    return tuple(out)


def finite_pressure_exact(fstar, t, n, params):
    """(1/n) log E exp(t * sum_{i<=n} f(s_{i.})), exact at finite volume:
    the expectation factorizes over layers, each contributing the tilted
    pressure of its chain window; layers are grouped by psi2 depth."""
    from multising.gibbs import layer_count_by_depth
    from multising.ising1d import tilted_prefix_pressures

    if n < 1 or n > 1 << 20:
        raise ValueError("volume must be in [1, 2^20]")
    counts = layer_count_by_depth(n)
    prefix = tilted_prefix_pressures(max(counts), fstar, t, params)[0]
    total = 0.0
    for p, c in sorted(counts.items()):
        total += c * float(prefix[p])
    return total / n


def clt_variance_by_second_order_pass(fstar, params, depth):
    """F''(0) as the second-order pass gave it: d2P^k at t = 0 weighted by
    2^-(k+2) and summed in order of k, for k = 0..depth."""
    d2P = tilted_prefix_moments(depth, fstar, 0.0, params)[2]
    return float(np.cumsum(np.ldexp(d2P, -np.arange(2, depth + 3)))[-1])


def multiplicative_average_by_gather(batch, f, n):
    """X_n(f) per replica, each factor read by fancy-index gathering the
    columns i b - 1 of 4096 shifts i at a time: the reference for the
    strided reads of ldp.multiplicative_average."""
    cfg = batch.configurations
    x = np.zeros(batch.count)
    chunk = 4096
    for key, coeff in f.terms:
        if not key:
            x += coeff * n
            continue
        factors = sorted(key)
        for start in range(1, n + 1, chunk):
            i_vals = np.arange(start, min(n, start + chunk - 1) + 1)
            prod = cfg[:, i_vals * factors[0] - 1]
            for b in factors[1:]:
                prod = prod * cfg[:, i_vals * b - 1]
            x += coeff * prod.sum(axis=1, dtype=np.float64)
    return x / n

