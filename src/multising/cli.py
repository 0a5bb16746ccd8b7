"""Command-line frontend.

Subcommands: scgf, rate, free-energy, entropy, sample, smb, invariance,
kie-weights, verify.  Parameters come from flags, optionally backed by a flat
"key = value" config file (flags win).  Outputs are CSV or JSON with a JSON
metadata sidecar echoing the resolved configuration and truncation bounds.

Exit codes: 0 ok, 2 usage error, 3 numerical precondition failure,
4 infeasible exact-computation size.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from contextlib import nullcontext
from dataclasses import astuple
from fractions import Fraction
from itertools import islice
from typing import Dict, Optional, Sequence

import numpy as np

from . import __version__, arith, gibbs, ldp, multiprime
from .errors import InfeasibleSizeError, ObservableSyntaxError, PreconditionError
from .ising1d import ModelParams
from .observables import Observable, to_first_layer

_NUM_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


# ---------------------------------------------------------------------------
# Observable expressions.
# ---------------------------------------------------------------------------


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*":
            tokens.append((c, c, i))
            i += 1
            continue
        if c == "s" and i + 1 < n and text[i + 1] == "[":
            j = text.find("]", i)
            if j == -1:
                raise ObservableSyntaxError("unterminated site index", i)
            body = text[i + 2 : j].strip()
            if not body.isdigit():
                raise ObservableSyntaxError("site index must be a nonnegative integer", i + 2)
            idx = int(body)
            if idx < 1:
                raise ObservableSyntaxError("site index must be >= 1", i + 2)
            tokens.append(("site", idx, i))
            i = j + 1
            continue
        m = _NUM_RE.match(text, i)
        if m:
            tokens.append(("num", float(m.group()), i))
            i = m.end()
            continue
        raise ObservableSyntaxError(f"unexpected character {c!r}", i)
    return tokens


def parse_observable(text: str) -> Observable:
    """Parse "coeff? s[i] (* s[j])* (+|- term)*" into canonical form:
    monomials keyed by index set (s_i^2 = 1), like terms merged, zeros
    dropped."""
    tokens = _tokenize(text)
    if not tokens:
        raise ObservableSyntaxError("empty expression", 0)
    k = 0

    def peek():
        return tokens[k] if k < len(tokens) else (None, None, len(text))

    pairs = []
    sign = 1.0
    kind, _, pos = peek()
    if kind in ("+", "-"):
        sign = -1.0 if kind == "-" else 1.0
        k += 1
    while True:
        kind, value, pos = peek()
        coeff = sign
        if kind == "num":
            coeff = sign * value
            k += 1
            kind, value, pos = peek()
            if kind == "*":
                k += 1
                kind, value, pos = peek()
        if kind != "site":
            raise ObservableSyntaxError("expected a spin factor s[i]", pos)
        counts: Dict[int, int] = {}
        while True:
            counts[value] = counts.get(value, 0) + 1
            k += 1
            kind, value, pos = peek()
            if kind == "*":
                k += 1
                kind, value, pos = peek()
                if kind != "site":
                    raise ObservableSyntaxError("expected a spin factor after '*'", pos)
                continue
            if kind == "site":
                continue
            break
        indices = [i for i, c in counts.items() if c % 2]
        pairs.append((indices, coeff))
        kind, _, pos = peek()
        if kind is None:
            break
        if kind not in ("+", "-"):
            raise ObservableSyntaxError("expected '+', '-' or end of expression", pos)
        sign = -1.0 if kind == "-" else 1.0
        k += 1
    return Observable.make(pairs)


# ---------------------------------------------------------------------------
# Config resolution and output plumbing.
# ---------------------------------------------------------------------------


def _load_config(path: str) -> Dict[str, str]:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


class _Resolver:
    """Flag > config file > default."""

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        self.file = _load_config(self.args["config"]) if self.args.get("config") else {}
        self.resolved: Dict[str, object] = {}

    def get(self, name: str, conv, default):
        v = self.args.get(name.replace("-", "_"))
        if v is None:
            raw = self.file.get(name)
            v = conv(raw) if raw is not None else default
        self.resolved[name] = v
        return v


_CSV_CHUNK_ROWS = 1 << 13


def _open_output(path: Optional[str]):
    return nullcontext(sys.stdout) if path is None else open(path, "w", encoding="ascii")


def _write_csv(path: Optional[str], header: Sequence[str], columns) -> None:
    """Write equal-length columns, _CSV_CHUNK_ROWS rows at a time.  A column
    is a numpy array or a sized iterable of Python scalars (tuple, list,
    range, dict view); each value is written as the repr of a Python float
    (shortest round trip) or int, so a numpy scalar must not reach repr.
    A chunk is formatted column by column and joined into rows by zip, so
    no Python code runs per row."""
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("CSV columns must have equal lengths")
    iters = [None if isinstance(c, np.ndarray) else iter(c) for c in columns]
    with _open_output(path) as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, _CSV_CHUNK_ROWS):
            size = min(_CSV_CHUNK_ROWS, n - lo)
            chunk = [c[lo:lo + size].tolist() if it is None else islice(it, size)
                     for c, it in zip(columns, iters)]
            fh.write("\n".join(map(",".join, zip(*[map(repr, c) for c in chunk]))) + "\n")


def _is_finite_json(value) -> bool:
    try:
        json.dumps(value, allow_nan=False)
    except ValueError:
        return False
    return True


def _write_json(path: Optional[str], payload: Dict[str, object]) -> None:
    if not _is_finite_json(payload):
        bad = [k for k, v in sorted(payload.items()) if not _is_finite_json(v)]
        raise PreconditionError(f"{', '.join(bad)}: not finite; no output written")
    with _open_output(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _sidecar(path: Optional[str], command: str, resolved: Dict[str, object],
             extra: Dict[str, object]) -> None:
    if path is None:
        return
    meta = {
        "command": command,
        "config": {k: (repr(v) if isinstance(v, float) else v) for k, v in sorted(resolved.items())},
        "version": __version__,
    }
    meta.update(extra)
    with open(path + ".meta.json", "w", encoding="ascii") as fh:
        fh.write(json.dumps(meta, indent=2, sort_keys=True, default=str) + "\n")


def _parse_grid(spec: str) -> np.ndarray:
    """'start:stop:step' (inclusive), 'a,b,c', or a single number.

    Over a common denominator d the bounds are integers a, b, c; there are
    trunc((b - a) / c) + 1 points, and point i is the correctly rounded
    (a + i c) / d, the bits of float(Fraction).  So -0.9:0.9:0.1 contains
    0.5 itself, not 0.4999999999999996."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("grid must be 'start:stop:step'")
        try:
            bounds = [Fraction(p) for p in parts]
        except (ValueError, ZeroDivisionError):
            raise ValueError("grid bounds must be decimal numbers") from None
        if bounds[2] <= 0:
            raise ValueError("grid step must be positive")
        d = math.lcm(*(f.denominator for f in bounds))
        a, b, c = (f.numerator * (d // f.denominator) for f in bounds)
        n = (b - a) // c if b >= a else -((a - b) // c)
        return np.array([(a + i * c) / d for i in range(n + 1)])
    if "," in spec:
        return np.array([float(p) for p in spec.split(",")])
    return np.array([float(spec)])


def _params(res: _Resolver) -> ModelParams:
    return ModelParams(
        beta=res.get("beta", float, 1.0),
        J=res.get("J", float, 1.0),
        h=res.get("h", float, 0.0),
    )


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_scgf(args) -> int:
    res = _Resolver(args)
    params = _params(res)
    obs = parse_observable(res.get("f", str, "s[1]*s[2]"))
    tol = res.get("tol", float, 1e-10)
    grid = _parse_grid(res.get("t", str, "-2:2:0.1"))
    output = res.get("output", str, None)
    if all(i & (i - 1) == 0 for key, _ in obs.terms for i in key):  # dyadic indices
        fstar = to_first_layer(obs)
        values, fprime, _, errs = ldp.scgf_values(fstar, params, grid, tol, order=1)
        # the bounds are >= 0, so an empty grid reads 0.0
        extra = {"observable": str(obs), "max_trunc_err": repr(float(np.max(errs, initial=0.0)))}
        _write_csv(output, ["t", "F", "Fprime", "trunc_err"], [grid, values, fprime, errs])
        _sidecar(output, "scgf", res.resolved, extra)
        return 0
    # non-dyadic indices: multi-prime route, single tilt, series table output
    if grid.size != 1:
        raise ValueError("observables with non-dyadic indices use the smooth-number "
                         "series; pass a single --t value")
    value, rows = multiprime.kie_pressure(obs, params, float(grid[0]), tol)
    extra = {"observable": str(obs), "value": repr(float(value)),
             "tail_bound": repr(float(rows[-1].tail_bound))}
    _write_csv(output, ["j", "n_j", "w_j", "Psi_j", "partial_sum", "tail_bound"],
               list(zip(*map(astuple, rows))))
    _sidecar(output, "scgf", res.resolved, extra)
    return 0


def _cmd_rate(args) -> int:
    res = _Resolver(args)
    params = _params(res)
    obs = parse_observable(res.get("f", str, "s[1]*s[2]"))
    tol = res.get("tol", float, 1e-10)
    xs = _parse_grid(res.get("x", str, "-0.9:0.9:0.1"))
    output = res.get("output", str, None)
    fstar = to_first_layer(obs)
    curve = ldp.rate_curve(fstar, params, xs, tol)
    _write_csv(output, curve.csv_header(), curve.csv_columns())
    _sidecar(output, "rate", res.resolved,
             {"observable": str(obs), "domain": [repr(d) for d in curve.domain]})
    return 0


def _cmd_free_energy(args) -> int:
    res = _Resolver(args)
    params = _params(res)
    tol = res.get("tol", float, 1e-10)
    bc = res.get("bc", str, "all")
    bc_coupling = res.get("bc-coupling", str, "J")
    output = res.get("output", str, None)
    bcs = ("free", "plus", "minus") if bc == "all" else (bc,)
    payload = {
        b: gibbs.free_energy(b, params, tol, bc_coupling=bc_coupling) for b in bcs
    }
    _write_json(output, payload)
    _sidecar(output, "free-energy", res.resolved, {"tol": repr(tol)})
    return 0


def _cmd_entropy(args) -> int:
    res = _Resolver(args)
    params = _params(res)
    tol = res.get("tol", float, 1e-12)
    mode = res.get("mode", str, "all")
    units = res.get("units", str, "nats")
    output = res.get("output", str, None)
    if units not in ("nats", "bits"):
        raise ValueError("units must be 'nats' or 'bits'")
    scale = 1.0 if units == "nats" else 1.0 / math.log(2.0)
    if mode == "all":
        payload = gibbs.ks_entropy_report(params, tol)
        payload = {k: v * scale for k, v in payload.items()}
    else:
        payload = {mode: gibbs.ks_entropy(params, mode, tol) * scale}
    payload["units"] = units
    _write_json(output, payload)
    _sidecar(output, "entropy", res.resolved, {"tol": repr(tol)})
    return 0


def _cmd_sample(args) -> int:
    res = _Resolver(args)
    params = _params(res)
    n = res.get("N", int, 64)
    count = res.get("count", int, 100)
    seed = res.get("seed", int, 0)
    fmt = res.get("format", str, "bin")
    output = res.get("output", str, None)
    if output is None:
        raise ValueError("sample requires --output")
    batch = gibbs.sample(n, params, count, seed)
    if fmt == "bin":
        batch.save_binary(output)
    elif fmt == "csv":
        batch.save_csv(output)
    else:
        raise ValueError("format must be 'bin' or 'csv'")
    _sidecar(output, "sample", res.resolved,
             {"N": n, "count": count, "seed": seed, "stream_version": gibbs.STREAM_VERSION})
    return 0


def _cmd_smb(args) -> int:
    res = _Resolver(args)
    params = _params(res)
    n = res.get("N", int, 4096)
    count = res.get("count", int, 2000)
    seed = res.get("seed", int, 0)
    output = res.get("output", str, None)
    mean, stderr = gibbs.smb_estimate(n, params, count, seed)
    payload = {"mean": mean, "stderr": stderr, "N": n, "count": count, "seed": seed}
    if params.h == 0.0:
        payload["entropy_closed_h0"] = gibbs.ks_entropy(params, "closed_h0")
    _write_json(output, payload)
    _sidecar(output, "smb", res.resolved, {"stderr": repr(stderr)})
    return 0


def _cmd_invariance(args) -> int:
    res = _Resolver(args)
    params = _params(res)
    indices = [int(s) for s in res.get("indices", str, "1,2").split(",")]
    multiplier = res.get("multiplier", int, 2)
    atol = res.get("atol", float, 1e-10)
    output = res.get("output", str, None)
    rep = gibbs.check_mult_invariance(indices, multiplier, params, atol)
    payload = {
        "indices": list(rep.indices),
        "multiplier": rep.multiplier,
        "logprob_before": [float(v) for v in rep.logprob_before],
        "logprob_after": [float(v) for v in rep.logprob_after],
        "max_abs_diff_prob": rep.max_abs_diff_prob,
        "max_abs_diff_logprob": rep.max_abs_diff_logprob,
        "invariant": bool(rep.invariant),
    }
    _write_json(output, payload)
    _sidecar(output, "invariance", res.resolved, {"atol": repr(atol)})
    return 0


def _cmd_kie_weights(args) -> int:
    res = _Resolver(args)
    primes = tuple(int(s) for s in res.get("primes", str, "2").split(","))
    tol = res.get("tol", float, 1e-8)
    output = res.get("output", str, None)
    basis = arith.PrimeBasis(primes)
    ws = arith.kie_weights(basis, tol)
    J = ws.j_max
    _write_csv(output, ["j", "n_j", "w_j"], [range(1, J + 1), ws.smooth[:J], ws.weights])
    _sidecar(output, "kie-weights", res.resolved, {
        "kappa": repr(ws.kappa),
        "kappa_exact": str(ws.kappa_fraction),
        "truncation_tail": repr(ws.truncation_tail),
        "sum_weights": repr(ws.sum_weights()),
        "sum_j_weights": repr(ws.sum_j_weights()),
    })
    return 0


def _cmd_verify(args) -> int:
    from .acceptance import run_all

    ok = run_all(print)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta", type=float, default=None, help="inverse temperature")
    p.add_argument("--J", type=float, default=None, help="coupling strength")
    p.add_argument("--h", type=float, default=None, help="magnetic field")
    p.add_argument("--config", type=str, default=None, help="flat key = value config file")
    p.add_argument("--tol", type=float, default=None, help="series truncation tolerance")
    p.add_argument("--output", type=str, default=None, help="output path (stdout if omitted)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multising",
        description="Thermodynamics of the multiplicative Ising model",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scgf", help="scaled cumulant generating function of an observable")
    _add_common(p)
    p.add_argument("--f", type=str, default=None, help="observable, e.g. 's[1]*s[2]'")
    p.add_argument("--t", type=str, default=None, help="tilt grid 'start:stop:step' or value")
    p.set_defaults(func=_cmd_scgf)

    p = sub.add_parser("rate", help="Legendre-transform rate function")
    _add_common(p)
    p.add_argument("--f", type=str, default=None)
    p.add_argument("--x", type=str, default=None, help="rate grid 'start:stop:step'")
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("free-energy", help="boundary-condition dependent free energies")
    _add_common(p)
    p.add_argument("--bc", type=str, default=None, choices=["free", "plus", "minus", "all"])
    p.add_argument("--bc-coupling", type=str, default=None, choices=["J", "1"],
                   help="coupling carried by the +- boundary term")
    p.set_defaults(func=_cmd_free_energy)

    p = sub.add_parser("entropy", help="Kolmogorov-Sinai entropy")
    _add_common(p)
    p.add_argument("--mode", type=str, default=None,
                   choices=["series", "formula", "closed_h0", "all"])
    p.add_argument("--units", type=str, default=None, choices=["nats", "bits"])
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("sample", help="draw configurations from the infinite-volume measure")
    _add_common(p)
    p.add_argument("--N", type=int, default=None, help="volume [1, N]")
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", type=str, default=None, choices=["bin", "csv"])
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("smb", help="Shannon-McMillan-Breiman entropy estimator")
    _add_common(p)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_smb)

    p = sub.add_parser("invariance", help="multiplication-invariance check of cylinder laws")
    _add_common(p)
    p.add_argument("--indices", type=str, default=None, help="comma-separated sites")
    p.add_argument("--multiplier", type=int, default=None)
    p.add_argument("--atol", type=float, default=None)
    p.set_defaults(func=_cmd_invariance)

    p = sub.add_parser("kie-weights", help="smooth-number layer weight series")
    _add_common(p)
    p.add_argument("--primes", type=str, default=None, help="comma-separated primes")
    p.set_defaults(func=_cmd_kie_weights)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.set_defaults(func=_cmd_verify)
    return parser


_GRID_FLAGS = {"--t", "--x"}


def _preprocess(argv):
    # grid specs may start with '-' (e.g. --t -3:3:0.1); fold them into
    # --flag=value form so argparse does not mistake them for options
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _GRID_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_preprocess(list(argv)))
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as err:
        if isinstance(err, InfeasibleSizeError):
            code = 4
        elif isinstance(err, (PreconditionError, ArithmeticError)):
            code = 3
        else:  # usage errors, ObservableSyntaxError among them
            code = 2
        error = {"code": code, "type": type(err).__name__, "message": str(err)}
        sys.stderr.write(json.dumps({"error": error}, sort_keys=True) + "\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
