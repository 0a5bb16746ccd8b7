"""Command-line frontend.

Subcommands: scgf, rate, free-energy, entropy, sample, smb, invariance,
kie-weights, verify, with their options declared once in _COMMANDS.  A value
comes from its flag, else a flat "key = value" config file, else its default,
converted and checked alike from either source.  Outputs are CSV or JSON with
a JSON metadata sidecar echoing the resolved options and truncation bounds.

Exit codes: 0 ok, 2 usage error, 3 numerical precondition failure,
4 infeasible exact-computation size; every error is also JSON on stderr.
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
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import __version__, arith, gibbs, ldp, multiprime
from .errors import InfeasibleSizeError, ObservableSyntaxError, PreconditionError
from .ising1d import ModelParams
from .observables import Observable, extend_observable, to_first_layer

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
# Config files and output plumbing.
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


_CSV_CHUNK_ROWS = 1 << 13
_MAX_GRID_POINTS = 1_000_000  # at the cap, scgf takes 5.4 s and 75 MB, rate 16 s and 253 MB
_MAX_INVARIANCE_SITES = 16  # 2^16 patterns per law: invariance takes 9.4 s
_MAX_SAMPLE_BYTES = 1 << 30  # 4 times the 2^28 spins that took 1.0 s and 297 MB
_MAX_SMB_COUNT = 1 << 22  # at the cap, smb at N = 2 takes 1.0 s and 710 MB


def _open_output(path: Optional[str]):
    return nullcontext(sys.stdout) if path is None else open(path, "w", encoding="ascii")


def write_csv(path: Optional[str], header: Sequence[str], columns) -> None:
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


def _echo(value):
    """An option value as the sidecar shows it: a float by its repr, an int
    list as the comma list a flag or config file takes."""
    if isinstance(value, float):
        return repr(value)
    return ",".join(map(str, value)) if isinstance(value, tuple) else value


def _sidecar(command: str, cfg: Dict[str, object], extra: Dict[str, object]) -> None:
    if cfg["output"] is None:
        return
    meta = {
        "command": command,
        "config": {k: _echo(v) for k, v in sorted(cfg.items())},
        "version": __version__,
    }
    meta.update(extra)
    with open(cfg["output"] + ".meta.json", "w", encoding="ascii") as fh:
        fh.write(json.dumps(meta, indent=2, sort_keys=True, default=str) + "\n")


def _parse_grid(spec: str) -> np.ndarray:
    """'start:stop:step' (inclusive), 'a,b,c', or a single number.

    Over a common denominator d the bounds are integers a, b, c; there are
    trunc((b - a) / c) + 1 points, and point i is the correctly rounded
    (a + i c) / d, the bits of float(Fraction).  So -0.9:0.9:0.1 contains
    0.5 itself, not 0.4999999999999996.  A range of more than
    _MAX_GRID_POINTS points is refused before any point is built."""
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
        if n >= _MAX_GRID_POINTS:
            raise InfeasibleSizeError(f"the grid has {n + 1} points (cap {_MAX_GRID_POINTS})")
        return np.array([(a + i * c) / d for i in range(n + 1)])
    if "," in spec:
        return np.array([float(p) for p in spec.split(",")])
    return np.array([float(spec)])


def _params(cfg: Dict[str, object]) -> ModelParams:
    return ModelParams(beta=cfg["beta"], J=cfg["J"], h=cfg["h"])


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_scgf(cfg) -> int:
    params = _params(cfg)
    obs = parse_observable(cfg["f"])
    grid = _parse_grid(cfg["t"])
    extra = {"observable": str(obs)}
    basis, fstar = extend_observable(obs)
    if basis.dim == 1:
        curve = ldp.ScgfCurve(grid, *ldp.scgf_values(fstar, params, grid, cfg["tol"]))
        # the bounds are >= 0, so an empty grid reads 0.0
        extra["max_trunc_err"] = repr(float(np.max(curve.trunc_err, initial=0.0)))
        write_csv(cfg["output"], curve.csv_header(), curve.csv_columns())
    else:
        # an index with an odd prime factor: single tilt, series table output
        if grid.size != 1:
            raise ValueError("observables with non-dyadic indices use the smooth-number "
                             "series; pass a single --t value")
        value, rows = multiprime.kie_pressure(obs, params, float(grid[0]), cfg["tol"])
        extra["value"] = repr(float(value))
        extra["tail_bound"] = repr(float(rows[-1].tail_bound))
        write_csv(cfg["output"], ["j", "n_j", "w_j", "Psi_j", "partial_sum", "tail_bound"],
                  list(zip(*map(astuple, rows))))
    _sidecar("scgf", cfg, extra)
    return 0


def _cmd_rate(cfg) -> int:
    obs = parse_observable(cfg["f"])
    curve = ldp.rate_curve(to_first_layer(obs), _params(cfg), _parse_grid(cfg["x"]), cfg["tol"])
    write_csv(cfg["output"], curve.csv_header(), curve.csv_columns())
    _sidecar("rate", cfg, {"observable": str(obs), "domain": [repr(d) for d in curve.domain]})
    return 0


def _cmd_free_energy(cfg) -> int:
    params = _params(cfg)
    bcs = ("free", "plus", "minus") if cfg["bc"] == "all" else (cfg["bc"],)
    payload = {b: gibbs.free_energy(b, params, cfg["tol"], bc_coupling=cfg["bc-coupling"])
               for b in bcs}
    _write_json(cfg["output"], payload)
    _sidecar("free-energy", cfg, {"tol": repr(cfg["tol"])})
    return 0


def _cmd_entropy(cfg) -> int:
    params = _params(cfg)
    mode, units = cfg["mode"], cfg["units"]
    scale = 1.0 if units == "nats" else 1.0 / math.log(2.0)
    if mode == "all":
        payload = {k: v * scale for k, v in gibbs.ks_entropy_report(params, cfg["tol"]).items()}
    else:
        payload = {mode: gibbs.ks_entropy(params, mode, cfg["tol"]) * scale}
    payload["units"] = units
    _write_json(cfg["output"], payload)
    _sidecar("entropy", cfg, {"tol": repr(cfg["tol"])})
    return 0


def _cmd_sample(cfg) -> int:
    if cfg["output"] is None:
        raise ValueError("sample requires --output")
    n, count, seed = cfg["N"], cfg["count"], cfg["seed"]
    if n * count > _MAX_SAMPLE_BYTES:
        raise InfeasibleSizeError(f"sample needs N * count = {n * count} bytes "
                                  f"(cap {_MAX_SAMPLE_BYTES})")
    batch = gibbs.sample(n, _params(cfg), count, seed)
    (batch.save_binary if cfg["format"] == "bin" else batch.save_csv)(cfg["output"])
    _sidecar("sample", cfg,
             {"N": n, "count": count, "seed": seed, "stream_version": gibbs.STREAM_VERSION})
    return 0


def _cmd_smb(cfg) -> int:
    params = _params(cfg)
    n, count, seed = cfg["N"], cfg["count"], cfg["seed"]
    if count > _MAX_SMB_COUNT:
        raise InfeasibleSizeError(f"smb draws {count} replicas (cap {_MAX_SMB_COUNT})")
    mean, stderr = gibbs.smb_estimate(n, params, count, seed)
    payload = {"mean": mean, "stderr": stderr, "N": n, "count": count, "seed": seed}
    if params.h == 0.0:
        payload["entropy_closed_h0"] = gibbs.ks_entropy(params, "closed_h0")
    _write_json(cfg["output"], payload)
    _sidecar("smb", cfg, {"stderr": repr(stderr)})
    return 0


def _cmd_invariance(cfg) -> int:
    k = len(set(cfg["indices"]))
    if k > _MAX_INVARIANCE_SITES:
        raise InfeasibleSizeError(f"{k} sites need 2^{k} spin patterns "
                                  f"(cap 2^{_MAX_INVARIANCE_SITES})")
    rep = gibbs.check_mult_invariance(cfg["indices"], cfg["multiplier"], _params(cfg), cfg["atol"])
    payload = dict(vars(rep), logprob_before=rep.logprob_before.tolist(),
                   logprob_after=rep.logprob_after.tolist())
    _write_json(cfg["output"], payload)
    _sidecar("invariance", cfg, {"atol": repr(cfg["atol"])})
    return 0


def _cmd_kie_weights(cfg) -> int:
    ws = arith.kie_weights(arith.PrimeBasis(cfg["primes"]), cfg["tol"])
    write_csv(cfg["output"], ["j", "n_j", "w_j"], [range(1, ws.j_max + 1), ws.smooth, ws.weights])
    _sidecar("kie-weights", cfg, {
        "kappa": repr(ws.kappa),
        "kappa_exact": str(ws.kappa_fraction),
        "truncation_tail": repr(ws.truncation_tail),
        "sum_weights": repr(ws.sum_weights()),
        "sum_j_weights": repr(ws.sum_j_weights()),
    })
    return 0


def _cmd_verify(cfg) -> int:
    from .acceptance import run_all

    ok = run_all(print)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Entry point: one table of commands and their options.
# ---------------------------------------------------------------------------


def int_list(text: str) -> Tuple[int, ...]:
    """A comma-separated list of ints, e.g. '2,3,5'."""
    return tuple(int(s) for s in text.split(","))


class _Option(NamedTuple):
    """Flag --<name> and config key <name>; choices, if any, are the allowed values."""

    type: Callable[[str], object]
    default: object
    choices: Tuple[str, ...] = ()
    help: Optional[str] = None


class _Command(NamedTuple):
    help: str
    run: Callable[[Dict[str, object]], int]
    options: Dict[str, _Option]


_MODEL = {
    "beta": _Option(float, 1.0, help="inverse temperature"),
    "J": _Option(float, 1.0, help="coupling strength"),
    "h": _Option(float, 0.0, help="magnetic field"),
}
_OUTPUT = {"output": _Option(str, None, help="output path (stdout if omitted)")}
_TOL_HELP = "series truncation tolerance"

_COMMANDS = {
    "scgf": _Command("scaled cumulant generating function of an observable", _cmd_scgf, {
        "f": _Option(str, "s[1]*s[2]", help="observable, e.g. 's[1]*s[2]'"),
        "t": _Option(str, "-2:2:0.1", help="tilt grid 'start:stop:step' or value"),
        "tol": _Option(float, 1e-10, help=_TOL_HELP), **_MODEL, **_OUTPUT}),
    "rate": _Command("Legendre-transform rate function", _cmd_rate, {
        "f": _Option(str, "s[1]*s[2]"),
        "x": _Option(str, "-0.9:0.9:0.1", help="rate grid 'start:stop:step'"),
        "tol": _Option(float, 1e-10, help=_TOL_HELP), **_MODEL, **_OUTPUT}),
    "free-energy": _Command("boundary-condition dependent free energies", _cmd_free_energy, {
        "bc": _Option(str, "all", ("free", "plus", "minus", "all")),
        "bc-coupling": _Option(str, "J", ("J", "1"),
                               help="coupling carried by the +- boundary term"),
        "tol": _Option(float, 1e-10, help=_TOL_HELP), **_MODEL, **_OUTPUT}),
    "entropy": _Command("Kolmogorov-Sinai entropy", _cmd_entropy, {
        "mode": _Option(str, "all", ("series", "formula", "closed_h0", "all")),
        "units": _Option(str, "nats", ("nats", "bits")),
        "tol": _Option(float, 1e-12, help=_TOL_HELP), **_MODEL, **_OUTPUT}),
    "sample": _Command("draw configurations from the infinite-volume measure", _cmd_sample, {
        "N": _Option(int, 64, help="volume [1, N]"),
        "count": _Option(int, 100),
        "seed": _Option(int, 0),
        "format": _Option(str, "bin", ("bin", "csv")), **_MODEL, **_OUTPUT}),
    "smb": _Command("Shannon-McMillan-Breiman entropy estimator", _cmd_smb, {
        "N": _Option(int, 4096),
        "count": _Option(int, 2000),
        "seed": _Option(int, 0), **_MODEL, **_OUTPUT}),
    "invariance": _Command("multiplication-invariance check of cylinder laws", _cmd_invariance, {
        "indices": _Option(int_list, (1, 2), help="comma-separated sites"),
        "multiplier": _Option(int, 2),
        "atol": _Option(float, 1e-10), **_MODEL, **_OUTPUT}),
    "kie-weights": _Command("smooth-number layer weight series", _cmd_kie_weights, {
        "primes": _Option(int_list, (2,), help="comma-separated primes"),
        "tol": _Option(float, 1e-8, help=_TOL_HELP), **_OUTPUT}),
    "verify": _Command("run the acceptance suite", _cmd_verify, {}),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, which main reports as exit 2."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="multising",
                     description="Thermodynamics of the multiplicative Ising model")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        for name, opt in spec.options.items():
            # every value is read as a string; _resolve converts and checks it
            metavar = "{" + ",".join(opt.choices) + "}" if opt.choices else None
            p.add_argument("--" + name, dest=name, metavar=metavar, help=opt.help)
        if spec.options:
            p.add_argument("--config", help="flat key = value config file")
    return parser


def _resolve(args: argparse.Namespace) -> Dict[str, object]:
    """The command's options, each from its flag, else the config file, else
    its default; flag and file values are converted and checked alike.
    Config keys the command does not declare are ignored."""
    flags = vars(args)
    file = _load_config(flags["config"]) if flags.get("config") else {}
    cfg = {}
    for name, opt in _COMMANDS[args.command].options.items():
        raw = flags[name] if flags[name] is not None else file.get(name)
        if raw is None:
            cfg[name] = opt.default
            continue
        try:
            value = opt.type(raw)
        except ValueError:
            raise ValueError(f"{name}: invalid {opt.type.__name__} value {raw!r}") from None
        if opt.choices and value not in opt.choices:
            raise ValueError(f"{name}: invalid choice {raw!r}; allowed: {', '.join(opt.choices)}")
        cfg[name] = value
    return cfg


def _preprocess(argv):
    # every declared option takes a value, and a value may start with '-'
    # (a grid -3:3:0.1, an observable -s[1]*s[2]); fold it into --flag=value
    # form so argparse does not mistake it for an option
    spec = _COMMANDS.get(argv[0]) if argv else None
    flags = {"--" + name for name in spec.options} if spec else ()
    out = []
    for tok in argv:
        if out and out[-1] in flags and tok.startswith("-"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_preprocess(list(argv)))
        return _COMMANDS[args.command].run(_resolve(args))
    except (ValueError, OSError, ArithmeticError, MemoryError) as err:
        if isinstance(err, (InfeasibleSizeError, MemoryError)):
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
