"""Acceptance suite: closed-form-oracle and property checks at desk scale.

Each criterion is a function returning (passed, detail).  The `verify` CLI
subcommand and the test suite both run this registry; every criterion pins
its tolerance here rather than deferring to runtime knobs.  The brute-force
oracles below are the only chain and region enumerators; the tests import
them too.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from collections import Counter
from fractions import Fraction
from typing import Callable, List, Tuple

import numpy as np

from . import arith, gibbs, ldp, multiprime
from .arith import PrimeBasis, Region
from .ising1d import ModelParams, log_partition, transfer
from .observables import FirstLayerObservable, Observable, to_first_layer

F_BOND = Observable.make([((1, 2), 1.0)])
SEED = 20260810


# ---------------------------------------------------------------------------
# Independent oracles (enumeration-based; no transfer algebra shared with the
# implementations they check).
# ---------------------------------------------------------------------------


SPIN = np.array([1.0, -1.0])  # the spin of state 0 and of state 1


def chain_spins(n_sites: int) -> np.ndarray:
    """All 2^n chain configurations as a (2^n, n) array of +-1."""
    states = np.arange(1 << n_sites)
    return SPIN[(states[:, None] >> np.arange(n_sites)[None, :]) & 1]


def brute_log_partition(n_bonds: int, params: ModelParams, bc: str = "free",
                        bc_coupling: str = "J") -> float:
    """Direct sum over all 2^(n+1) chain configurations; the boundary spin
    couples to the right end through J, or 1 with bc_coupling="1"."""
    spins = chain_spins(n_bonds + 1)
    jbc = params.J if bc_coupling == "J" else 1.0
    energy = params.J * (spins[:, :-1] * spins[:, 1:]).sum(axis=1)
    energy = energy + params.h * spins.sum(axis=1)
    if bc == "plus":
        energy = energy + jbc * spins[:, -1]
    elif bc == "minus":
        energy = energy - jbc * spins[:, -1]
    a = params.beta * energy
    m = a.max()
    return float(m + np.log(np.exp(a - m).sum()))


def lower_closure(points) -> set:
    """Every exponent vector coordinatewise at or below one of `points`."""
    return {y for x in points for y in itertools.product(*(range(v + 1) for v in x))}


def brute_region_pressure(points, fstar: FirstLayerObservable, t: float,
                          params: ModelParams) -> float:
    """Psi of the region by a sum over every configuration of the full
    axis-0 lines 0..max that carry a site of the dependence set.

    One (2,)*m array holds the log weight of each configuration: log pi on
    the first site of each line, log Q on each consecutive pair and
    t*c*prod(s) for each monomial instance are added into it by broadcasting,
    and one log-sum-exp finishes.  Nothing is summed out in closed form."""
    td = transfer(params)
    monos = [(tuple(tuple(a + b for a, b in zip(x, o)) for o in offs), c)
             for x in points for offs, c in fstar.terms if offs]
    const = t * len(points) * sum(c for offs, c in fstar.terms if not offs)
    lengths = {}
    for inst, _ in monos:
        for s in inst:
            lengths[s[1:]] = max(lengths.get(s[1:], 0), s[0] + 1)
    first, m = {}, 0
    for line in sorted(lengths):
        first[line] = m
        m += lengths[line]
    if m == 0:
        return const

    def at(values, axes):
        # `values`, indexed by the spins on the ascending `axes`, broadcast
        # over every configuration
        shape = [1] * m
        for a in axes:
            shape[a] = 2
        return values.reshape(shape)

    logw = np.zeros((2,) * m)
    for line, start in first.items():
        logw += at(td.log_pi, [start])
        for a in range(start, start + lengths[line] - 1):
            logw += at(td.log_Q, [a, a + 1])
    for inst, c in monos:
        axes = sorted(first[s[1:]] + s[0] for s in inst)
        logw += at(t * c * functools.reduce(np.multiply.outer, [SPIN] * len(axes)), axes)
    top = logw.max()
    logw -= top  # in place: at m = 22 the array is 32 MB
    np.exp(logw, out=logw)
    return const + float(top) + math.log(logw.sum())


# ---------------------------------------------------------------------------
# Criteria.
# ---------------------------------------------------------------------------


def criterion_partition_oracle() -> Tuple[bool, str]:
    """Transfer-matrix log Z vs brute force: <= 13 sites, 50 random
    parameter triples in [-2,2]^3, all boundary conditions, rel err 1e-10."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        beta, J, h = rng.uniform(-2.0, 2.0, size=3)
        params = ModelParams(float(beta), float(J), float(h))
        n_bonds = int(rng.integers(0, 13))
        for bc in ("free", "plus", "minus"):
            a = log_partition(n_bonds, params, bc)
            b = brute_log_partition(n_bonds, params, bc)
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return worst <= 1e-10, f"max relative error {worst:.3e} (tol 1e-10)"


def criterion_scgf_closed_form() -> Tuple[bool, str]:
    """Both SCGF routes equal log cosh t at beta=0 (1e-8) and agree with each
    other within 2*tol for beta*J in {0.5, 1, 2}, h=0, t in [-3,3]."""
    fstar = to_first_layer(F_BOND)
    tol = 1e-9
    grid = -3.0 + 0.1 * np.arange(61)
    p0 = ModelParams(0.0, 1.0, 0.0)
    worst_closed = 0.0
    worst_route = 0.0
    for t in grid:
        va, _ = ldp.scgf(fstar, p0, float(t), tol)
        vb = ldp.scgf_via_free_energy(float(t), p0, tol)
        target = math.log(math.cosh(t))
        worst_closed = max(worst_closed, abs(va - target), abs(vb - target))
        worst_route = max(worst_route, abs(va - vb))
    for bj in (0.5, 1.0, 2.0):
        params = ModelParams(1.0, bj, 0.0)
        for t in grid:
            va, _ = ldp.scgf(fstar, params, float(t), tol)
            vb = ldp.scgf_via_free_energy(float(t), params, tol)
            worst_route = max(worst_route, abs(va - vb))
    ok = worst_closed <= 1e-8 and worst_route <= 2 * tol
    return ok, (
        f"max |F - log cosh| {worst_closed:.3e} (tol 1e-8); "
        f"max route disagreement {worst_route:.3e} (tol {2 * tol:.0e})"
    )


def criterion_ks_entropy() -> Tuple[bool, str]:
    """Entropy series vs closed form (<=1e-10) on beta*J in {0,...,3}, h=0;
    J=0 exactly log 2; the resolvent formula (matrix powers) matches the
    series at h=0 and h!=0; the printed entrywise variant's deviation is
    reported."""
    worst_closed = 0.0
    worst_formula = 0.0
    for bj in np.arange(0.0, 3.0001, 0.25):
        params = ModelParams(1.0, float(bj), 0.0)
        s = gibbs.ks_entropy(params, "series", 1e-11)
        c = gibbs.ks_entropy(params, "closed_h0")
        f = gibbs.ks_entropy(params, "formula")
        worst_closed = max(worst_closed, abs(s - c))
        worst_formula = max(worst_formula, abs(f - s))
    p_free = ModelParams(1.0, 0.0, 0.0)
    exact_j0 = gibbs.ks_entropy(p_free, "closed_h0") == math.log(2.0)
    formula_j0 = abs(gibbs.ks_entropy(p_free, "formula") - math.log(2.0))
    p_h = ModelParams(1.0, 1.0, 0.5)
    h_dev = abs(gibbs.ks_entropy(p_h, "formula") - gibbs.ks_entropy(p_h, "series", 1e-11))
    printed_dev = abs(
        gibbs.ks_entropy_printed_variant(p_free) - gibbs.ks_entropy(p_free, "formula")
    )
    ok = (
        worst_closed <= 1e-10
        and worst_formula <= 1e-10
        and exact_j0
        and formula_j0 <= 1e-13
        and h_dev <= 1e-10
    )
    return ok, (
        f"series vs closed {worst_closed:.3e}, vs formula {worst_formula:.3e} "
        f"(tol 1e-10); J=0 exact: {exact_j0}; h=0.5 formula-series dev {h_dev:.3e} "
        f"(matches); printed entrywise variant off by {printed_dev:.3e} at J=0"
    )


def criterion_mult_invariance() -> Tuple[bool, str]:
    """Cylinder laws of (s_p) and (s_mp) coincide (<=1e-12) for all index
    sets within {1..12} of size <= 3 and m in {2,3,5,6} at h=0; a strict
    violation appears at h=0.5."""
    params = ModelParams(1.0, 1.0, 0.0)
    td = transfer(params)
    worst = 0.0
    n_checked = 0
    for size in (1, 2, 3):
        for combo in itertools.combinations(range(1, 13), size):
            for m in (2, 3, 5, 6):
                rep = gibbs.check_mult_invariance(combo, m, td)
                worst = max(worst, rep.max_abs_diff_prob)
                n_checked += 1
    rep_h = gibbs.check_mult_invariance((1, 2), 2, ModelParams(1.0, 1.0, 0.5))
    ok = worst <= 1e-12 and rep_h.max_abs_diff_prob > 1e-3 and not rep_h.invariant
    return ok, (
        f"{n_checked} joint laws, max deviation {worst:.3e} (tol 1e-12); "
        f"h=0.5 violation {rep_h.max_abs_diff_prob:.3e} detected"
    )


def criterion_non_stationarity() -> Tuple[bool, str]:
    """P(s1=+, s2=+) = 0.44040 (5 decimals) differs from
    P(s3=+, s4=+) = 0.25 at beta*J=1, h=0."""
    params = ModelParams(1.0, 1.0, 0.0)
    p12 = math.exp(gibbs.cylinder_logprob_sigma({1: 1, 2: 1}, params))
    p34 = math.exp(gibbs.cylinder_logprob_sigma({3: 1, 4: 1}, params))
    ok = abs(p12 - 0.44040) <= 5e-6 and abs(p34 - 0.25) <= 1e-12 and p12 != p34
    return ok, f"P(s1+,s2+)={p12:.7f} (target 0.44040), P(s3+,s4+)={p34:.7f}"


def criterion_kie_weights() -> Tuple[bool, str]:
    """d=1 weights exactly 1/2^(j+1); mass identities within 1e-8 for bases
    {2}, {2,3}, {2,3,5}; kappa({2,3}) = 1/3 exactly."""
    ws1 = arith.kie_weights(PrimeBasis((2,)), 1e-8)
    exact_d1 = all(w == 0.5 ** (j + 1) for j, w in enumerate(ws1.weights, 1))
    kappa_23 = PrimeBasis((2, 3)).kappa_fraction() == Fraction(1, 3)
    worst_mass = 0.0
    terms = {}
    for primes in ((2,), (2, 3), (2, 3, 5)):
        ws = arith.kie_weights(PrimeBasis(primes), 1e-8)
        terms[primes] = ws.j_max
        worst_mass = max(
            worst_mass,
            abs(ws.sum_weights() - ws.kappa),
            abs(ws.sum_j_weights() - 1.0),
        )
    ok = exact_d1 and kappa_23 and worst_mass <= 1e-8
    return ok, (
        f"d=1 weights exact: {exact_d1}; kappa(2,3)=1/3 exact: {kappa_23}; "
        f"worst mass defect {worst_mass:.3e} (tol 1e-8); series lengths {terms}"
    )


def criterion_dyadic_average() -> Tuple[bool, str]:
    """Finite dyadic average of psi2 depth approaches the series value 1/2
    with error <= log(N)/N, decreasing in N."""
    errors = []
    for k in (10, 12, 14):
        n = 1 << k
        avg = arith.koroa_finite_average(lambda p: p, n)
        err = abs(float(avg) - 0.5)
        if err > math.log(n) / n:
            return False, f"error {err:.3e} at N=2^{k} exceeds log(N)/N"
        errors.append(err)
    decreasing = all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))
    return decreasing, f"errors along N=2^10,2^12,2^14: {errors} (bound log N/N)"


def criterion_region_pressure() -> Tuple[bool, str]:
    """Exact region pressures vs brute_region_pressure (<=1e-10) on 25
    lower closures of random points, each with a dependence set of at most
    16 sites; at every volume n <= 120 over basis {2,3}, each layer region
    is the canonical region of its cardinality j (so all share Psi_j), and
    c_j(n) of arith.layer_counts of them have cardinality j, or a witness is
    emitted: finite_pressure_exact_d's (1/n) sum_j c_j(n) Psi_j rests on both."""
    rng = np.random.default_rng(SEED + 1)
    params = ModelParams(0.8, 1.0, 0.3)
    f_two = Observable.make([((1, 2), 1.0), ((1, 3), 1.0)])
    _, fstar = multiprime.extend_observable(f_two)
    td = transfer(params)
    worst = 0.0
    done = 0
    while done < 25:
        pts = lower_closure([(int(rng.integers(0, 3)), int(rng.integers(0, 3)))
                             for _ in range(int(rng.integers(1, 4)))])
        sites = {tuple(a + b for a, b in zip(x, o)) for x in pts
                 for offs, _ in fstar.terms for o in offs}
        if len(sites) > 16:
            continue
        t = float(rng.uniform(-1.0, 1.0))
        key = multiprime.RegionPressureKey(Region(frozenset(pts)), fstar, t)
        a = multiprime.region_pressure(key, td)
        b = brute_region_pressure(pts, fstar, t, params)
        worst = max(worst, abs(a - b))
        done += 1

    basis = PrimeBasis((2, 3))
    canonical = [arith.decompose(m, basis).exponents for _, m, _ in arith.layer_counts(120, basis)]
    witness = None
    for n in range(1, 121):
        part = arith.layer_partition(n, basis).items()
        stray = [r for r, reg in part if reg.points != frozenset(canonical[:reg.cardinality])]
        counts = {j: c for j, _, c in arith.layer_counts(n, basis) if c}
        if stray or Counter(reg.cardinality for _, reg in part) != counts:
            witness = f"n={n}: non-canonical layers {stray}, layer_counts {counts}"
            break
    ok = worst <= 1e-10 and witness is None
    detail = (f"25 oracle cases, max |diff| {worst:.3e} (tol 1e-10); shape scan n<=120 "
              f"over (2, 3): every layer region canonical, cardinalities counted by layer_counts")
    return ok, detail + (f"; WITNESS at {witness}" if witness else "")


def criterion_monte_carlo() -> Tuple[bool, str]:
    """Seeded statistics at N=2^12, 2e4 replicas, beta*J=1, h=0, f=s1*s2:
    mean within 4*SE of F'(0); N*Var within 15% of F''(0); SMB mean within
    4*SE of 0.529238; at beta=0 the SMB statistic is log 2 with zero
    variance."""
    params = ModelParams(1.0, 1.0, 0.0)
    n = 1 << 12
    count = 20000
    s = ldp.clt_mc_summary(F_BOND, params, n, count, SEED + 2)
    mean_ok = abs(s["emp_mean"] - s["fprime0"]) <= 4.0 * s["emp_se"]
    var_ok = abs(s["n_times_var"] - s["sigma2"]) <= 0.15 * s["sigma2"]
    smb_mean, smb_se = gibbs.smb_estimate(n, params, count, SEED + 3)
    smb_ok = abs(smb_mean - 0.529238) <= 4.0 * smb_se
    m0, se0 = gibbs.smb_estimate(n, ModelParams(0.0, 1.0, 0.0), 2000, SEED + 4)
    zero_ok = abs(m0 - math.log(2.0)) <= 1e-12 and se0 <= 1e-15
    ok = mean_ok and var_ok and smb_ok and zero_ok
    return ok, (
        f"mean dev {abs(s['emp_mean'] - s['fprime0']):.2e} vs 4SE "
        f"{4 * s['emp_se']:.2e}; N*Var {s['n_times_var']:.4f} vs sigma^2 "
        f"{s['sigma2']:.4f} (15%); SMB {smb_mean:.6f} +- {smb_se:.1e} vs "
        f"0.529238; beta=0 SMB exact log 2 / zero variance: {zero_ok}"
    )


def criterion_legendre() -> Tuple[bool, str]:
    """I(F'(0)) <= 1e-10; duality residual <= 1e-9 on the rate grid;
    I(0.5) = 0.13081 +- 1e-4 for beta=0, f=s1*s2."""
    params = ModelParams(0.0, 1.0, 0.0)
    fstar = to_first_layer(F_BOND)
    x0 = float(ldp.scgf_values(fstar, params, 0.0, 1e-12)[1][0])
    xs = np.linspace(-0.9, 0.9, 19)
    rc = ldp.rate_curve(fstar, params, np.concatenate([[x0, 0.5], xs]), 1e-12)
    i0, i_half = rc.I[0], rc.I[1]
    F_star = ldp.scgf_values(fstar, params, rc.t_star[2:], 1e-12)[0]
    worst_residual = float(np.max(np.abs(F_star + rc.I[2:] - rc.t_star[2:] * xs)))
    ok = bool(i0 <= 1e-10 and worst_residual <= 1e-9 and abs(i_half - 0.13081) <= 1e-4)
    return ok, (
        f"I(F'(0)) = {i0:.2e} (tol 1e-10); max duality residual "
        f"{worst_residual:.2e} (tol 1e-9); I(0.5) = {i_half:.6f} (0.13081 +- 1e-4)"
    )


CRITERIA: List[Tuple[str, str, Callable[[], Tuple[bool, str]]]] = [
    ("1", "partition function brute-force oracle", criterion_partition_oracle),
    ("2", "SCGF closed form and route equivalence", criterion_scgf_closed_form),
    ("3", "Kolmogorov-Sinai entropy mode agreement", criterion_ks_entropy),
    ("4", "multiplication invariance of cylinder laws", criterion_mult_invariance),
    ("5", "non-stationarity witness", criterion_non_stationarity),
    ("6", "smooth-number weight series", criterion_kie_weights),
    ("7", "dyadic average convergence", criterion_dyadic_average),
    ("8", "region pressures and shape independence", criterion_region_pressure),
    ("9", "Monte Carlo statistics", criterion_monte_carlo),
    ("10", "Legendre duality", criterion_legendre),
]


def run_all(emit=print) -> bool:
    all_ok = True
    for cid, title, fn in CRITERIA:
        start = time.perf_counter()
        ok, detail = fn()
        seconds = time.perf_counter() - start
        all_ok = all_ok and ok
        emit(f"{'PASS' if ok else 'FAIL'} criterion {cid}: {title} ({seconds:.2f} s) -- {detail}")
    return all_ok
