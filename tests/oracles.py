"""Brute-force oracles shared by the unit tests.

Everything here enumerates configurations directly, evaluates the naive
Perron formulas in high-precision decimal arithmetic, generates smooth
numbers by a heap merge, or keeps an earlier route that the package replaced
(the second-order tilted pass, the gathering multiplicative average); no
bounded enumeration is shared with the implementations under test.
"""

import decimal
import functools
import heapq
import itertools
import math

import numpy as np


def smooth_numbers_by_heap(primes):
    """The primes-smooth numbers 1 = n_1 < n_2 < ... by a heap merge of the
    prime multiples.  m is multiplied only by the primes up to its smallest
    prime factor, so every number enters the heap once, as (n / q) * q with
    q the smallest prime factor of n."""
    heap = [1]
    while True:
        m = heapq.heappop(heap)
        yield m
        for p in primes:
            heapq.heappush(heap, m * p)
            if m % p == 0:
                break


def chain_spins(n_sites):
    """All 2^n chain configurations as a (2^n, n) array of +-1."""
    states = np.arange(1 << n_sites)
    return 1.0 - 2.0 * ((states[:, None] >> np.arange(n_sites)[None, :]) & 1)


def chain_log_partition(n_bonds, params, bc="free", bc_coupling="J"):
    spins = chain_spins(n_bonds + 1)
    jbc = params.J if bc_coupling == "J" else 1.0
    energy = params.J * (spins[:, :-1] * spins[:, 1:]).sum(axis=1) + params.h * spins.sum(axis=1)
    if bc == "plus":
        energy = energy + jbc * spins[:, -1]
    elif bc == "minus":
        energy = energy - jbc * spins[:, -1]
    a = params.beta * energy
    m = a.max()
    return float(m + np.log(np.exp(a - m).sum()))


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

    The forward-mode log-domain window pass of ising1d.tilted_prefix_pressures
    in plain expressions, with the variance channel that the package no
    longer carries: per window state the log tilted weight, the tilted
    conditional mean of S and its conditional variance, so that
    d2P^i = Var_t S_i.  The reference for ising1d.prefix_variances.
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
            # slot b make state q + b n/2
            a0, a1, m0, m1 = log_w[0::2], log_w[1::2], mean[0::2], mean[1::2]
            gap = a1 - a0
            small = np.exp(-np.abs(gap))
            merged = np.maximum(a0, a1) + np.log1p(small)
            big = 1.0 / (1.0 + small)
            small = small * big
            r0 = np.where(gap > 0.0, small, big)
            r1 = np.where(gap > 0.0, big, small)
            mq = r0 * m0 + r1 * m1
            vq = r0 * var[0::2] + r1 * var[1::2] + r0 * r1 * (m1 - m0) * (m1 - m0)
            log_w = (log_q + merged[None]).reshape(n, t.size)
            mean = np.concatenate([mq, mq]) + f
            var = np.concatenate([vq, vq])
        else:
            mean = mean + f
        log_w = log_w + f * t[None, :]
        top = log_w.max(axis=0)
        p = np.exp(log_w - top)
        z = p.sum(axis=0)
        p = p / z
        out[1, i] = (p * mean).sum(axis=0)
        out[2, i] = (p * ((mean - out[1, i]) * (mean - out[1, i]) + var)).sum(axis=0)
        out[0, i] = top + np.log(z)
    if np.ndim(t_in) == 0:
        out = out[:, :, 0]
    return tuple(out)


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


def enumerated_region_pressure(key, model):
    """Psi of a region pressure key by enumerating every spin pattern of the
    dependence set S = region + support(f*), 2^|S| of them in chunks of 2^20.

    Lines coupled by no common tilt monomial factor out, so only each
    coupled component is enumerated jointly.  Within a line, unassigned gaps
    are summed by numpy matrix powers of Q, not by the package's closed form.
    """
    from multising.numutil import RunningLogSum

    region, fstar, t = key.region, key.fstar, key.t
    axis = model.base_axis
    psi = t * sum(c for offs, c in fstar.terms if not offs) * region.cardinality
    sites = set()
    monomials = []
    for x in region.points:
        for offs, coeff in fstar.terms:
            if offs:
                inst = tuple(sorted(tuple(a + b for a, b in zip(x, o)) for o in offs))
                monomials.append((inst, coeff))
                sites.update(inst)
    if not sites:
        return psi
    site_list = sorted(sites)
    site_id = {s: i for i, s in enumerate(site_list)}
    lines = {}
    for s in site_list:
        lines.setdefault(s[:axis] + s[axis + 1:], []).append((s[axis], site_id[s]))
    line_keys = sorted(lines)
    line_of_site = {sid: li for li, lk in enumerate(line_keys) for _, sid in lines[lk]}

    parent = list(range(len(line_keys)))  # union-find over lines

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for inst, _ in monomials:
        first = find(line_of_site[site_id[inst[0]]])
        for s in inst[1:]:
            parent[find(line_of_site[site_id[s]])] = first
    components = {}
    for li in range(len(line_keys)):
        components.setdefault(find(li), []).append(li)

    td = model.td

    def log_q_power(n):
        # an entry that underflows to 0 reads as -inf, its exact log in doubles
        with np.errstate(divide="ignore"):
            return np.log(np.linalg.matrix_power(td.Q, n))

    def log_site_law(n):
        with np.errstate(divide="ignore"):
            return np.log(td.pi @ np.linalg.matrix_power(td.Q, n))

    for comp in components.values():
        comp_sites = sorted(sid for li in comp for _, sid in lines[line_keys[li]])
        local = {sid: b for b, sid in enumerate(comp_sites)}
        m = len(local)
        comp_monos = [([local[site_id[s]] for s in inst], coeff)
                      for inst, coeff in monomials if line_of_site[site_id[inst[0]]] in comp]
        acc = RunningLogSum()
        total = 1 << m
        chunk = 1 << min(20, m)
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
            bits = [(idx >> b) & 1 for b in range(m)]
            logp = np.zeros(idx.size)
            for li in comp:
                entries = lines[line_keys[li]]
                v0, sid0 = entries[0]
                logp = logp + log_site_law(v0)[bits[local[sid0]]]
                for (va, sa), (vb, sb) in zip(entries, entries[1:]):
                    logp = logp + log_q_power(vb - va)[bits[local[sa]], bits[local[sb]]]
            tilt = np.zeros(idx.size)
            for bit_ids, coeff in comp_monos:
                prod = 1.0 - 2.0 * bits[bit_ids[0]]
                for b in bit_ids[1:]:
                    prod = prod * (1.0 - 2.0 * bits[b])
                tilt = tilt + coeff * prod
            acc.add(logp + t * tilt)
        psi += acc.value()
    return psi
