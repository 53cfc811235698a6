"""Command-line front door wiring every module together.

Exit codes: 0 success, 1 formula/oracle mismatch, 2 usage error,
3 budget or horizon exhaustion.  All outputs are deterministic: words are
sorted, JSON keys are sorted and floats use repr.  Every scan runs serially;
the worker-count flag is accepted for compatibility and has no effect.
Each handler imports the modules it runs, so a subcommand loads only its own
layers: `presets` loads `cli`, `errors`, `presets` and `coding`, and only
`spectrum` imports `toeplitz.spectral`.  Of the `spectrum` runs,
`--energies` imports neither numpy, `ctypes` nor `fractions`; `--size`
imports `ctypes` to call LAPACK's `dsterf` from numpy's wheel, and numpy
only where that wheel bundles no `dsterf`.  Of the other subcommands, only
`repetitivity` and `bosh` import `fractions`.  Every record is a named
tuple, not a dataclass, so no subcommand imports `dataclasses` or `inspect`
(numpy's own start-up does).
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from typing import Optional, Sequence

from .coding import Coding
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    HorizonExceeded,
    PrefixTooShort,
    ToeplitzError,
)
from .presets import PRESET_NAMES, parse_coding_spec, preset

CHECK_MISMATCH = 1
USAGE_ERROR = 2
RESOURCE_ERROR = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--coding", help="coding spec, e.g. 'a:2 | x:2 y:2 z:2'")
    parser.add_argument("--preset", help="preset name, e.g. grigorchuk")
    parser.add_argument(
        "--periods", default="2",
        help="cyclic period pattern for generator tails (comma separated)",
    )
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="symbol budget for materialized words, "
                             "the states of the --check oracles, "
                             "finite-section matrix entries and the "
                             "energies of a spectrum --energies grid")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; has no effect")


def _resolve(args: argparse.Namespace) -> Coding:
    sources = [s for s in (args.coding, args.preset) if s]
    if len(sources) != 1:
        raise ValueError("--coding/--preset: exactly one coding source required")
    try:
        periods = tuple(int(x) for x in args.periods.split(","))
    except ValueError:
        raise ValueError(
            f"--periods: expected comma-separated integers, got {args.periods!r}"
        ) from None
    if not periods or any(p < 2 for p in periods):
        raise ValueError("--periods: every period must be >= 2")
    if args.coding:
        coding = parse_coding_spec(args.coding, periods)
    else:
        coding = preset(args.preset, periods)
    if args.budget <= 0:
        raise ValueError("--budget: must be positive")
    if args.jobs <= 0:
        raise ValueError("--jobs: must be positive")
    if getattr(args, "max_len", 0) < 0:
        raise ValueError("--max-len: must be >= 0")
    if getattr(args, "horizon", 1) < 1:
        raise ValueError("--horizon: must be >= 1")
    return coding


def _write(path: Optional[str], text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        try:
            fh = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc.strerror}") from None
        with fh:
            fh.write(text)


def _emit_json(payload, path: Optional[str]) -> None:
    import json

    _write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _cmd_gen(c: Coding, args) -> int:
    from .words import word_prefix

    prefix = word_prefix(c, args.length, args.budget)
    _write(args.out, c.alphabet.render(prefix) + "\n")
    return 0


def _cmd_language(c: Coding, args) -> int:
    from .language import language

    lang = language(c, args.length, args.budget)
    rendered = [c.alphabet.render(w) for w in lang]
    if args.json:
        _emit_json({"L": args.length, "count": len(rendered), "words": rendered},
                   args.out)
    else:
        _write(args.out, "".join(f"{w}\n" for w in rendered))
    return 0


def _csv_cell(value) -> str:
    return "" if value is None else str(value)


def _write_csv(path: Optional[str], header: str, lines) -> None:
    _write(path, "\n".join([header, *lines]) + "\n")


def _formula_vs_oracle(args, rows, width: int = 3) -> int:
    """Write the table, the first `width` fields of each `words.Row` under
    their names (`length` as L); report every row whose formula and oracle
    differ."""
    from .words import Row

    _write_csv(args.csv, ",".join(("L", *Row._fields[1:width])),
               [",".join(map(_csv_cell, r[:width])) for r in rows])
    bad = [r for r in rows
           if None not in (r.formula, r.oracle) and r.oracle != r.formula]
    for r in bad:
        print(f"mismatch at L={r.length}: formula {r.formula} != "
              f"oracle {r.oracle}", file=sys.stderr)
    return CHECK_MISMATCH if bad else 0


def _cmd_complexity(c: Coding, args) -> int:
    from . import complexity

    rows = complexity.profile(c, args.max_len, args.check, args.budget)
    return _formula_vs_oracle(args, rows, 4)


def _cmd_palindrome(c: Coding, args) -> int:
    from . import debruijn

    rows = debruijn.palindrome_profile(c, args.max_len, args.check, args.budget)
    return _formula_vs_oracle(args, rows)


def _graph_payload(graph) -> dict:
    """A `debruijn.DeBruijnGraph` as JSON-ready data."""
    from .debruijn import right_special_report

    render = graph.alphabet.render
    ann = graph.annotations
    return {
        "L": graph.length,
        "vertices": [render(v) for v in graph.vertices],
        "edges": [[render(u), render(v), render(w)] for u, v, w in graph.edges],
        "annotations": {
            "level": ann.level,
            "u1": render(ann.u1),
            "v1": render(ann.v1),
            "u2": None if ann.u2 is None else render(ann.u2),
            "v2": None if ann.v2 is None else render(ann.v2),
            "right_special": [
                {"vertex": render(v), "out_degree": degree}
                for v, degree in right_special_report(graph).items()
            ],
        },
    }


def _cmd_debruijn(c: Coding, args) -> int:
    from . import debruijn

    graph = debruijn.build_graph(c, args.length, args.budget)
    if args.dot:
        _write(args.dot, debruijn.to_dot(graph))
    if args.json_out:
        _emit_json(_graph_payload(graph), args.json_out)
    if not args.dot and not args.json_out:
        _emit_json(_graph_payload(graph), None)
    return 0


def _verdict_payload(v) -> dict:
    """A `verdicts.Verdict` as JSON-ready data."""
    return {
        "verdict": v.status.value,
        "kind": v.kind,
        "witness": list(v.witness),
        "period": None if v.period is None else list(v.period),
        "trend": v.trend,
    }


def _cmd_repetitivity(c: Coding, args) -> int:
    from . import repetitivity

    if not args.max_len and args.alpha is None:
        raise ValueError("--max-len: required unless --alpha is given")
    if args.alpha is not None:
        from fractions import Fraction

        try:
            alpha = Fraction(args.alpha)
        except (ValueError, ZeroDivisionError):
            raise ValueError(
                f"--alpha: expected a rational number, got {args.alpha!r}"
            ) from None
        if alpha < 1:
            raise ValueError("--alpha: alpha-repetitivity is defined for "
                             f"alpha >= 1, got {args.alpha!r}")
    code = 0
    if args.max_len:
        code = _formula_vs_oracle(
            args, repetitivity.report(c, args.max_len, args.budget))
    if args.alpha is not None:
        av = repetitivity.alpha_verdict(c, alpha, args.horizon)
        payload = _verdict_payload(av)
        payload["alpha"] = str(av.alpha)
        payload["kappa_gaps"] = list(av.kappa_gaps)
        payload["log_ratios"] = [repr(x) for x in av.log_ratios]
        _emit_json(payload, None)
    return code


def _cmd_bosh(c: Coding, args) -> int:
    from . import boshernitzan

    for flag, value in (("--eta", args.eta), ("--prefix", args.prefix)):
        if value is not None and value < 0:
            raise ValueError(f"{flag}: must be >= 0")
    if (args.eta is None) != (args.prefix is None):
        raise ValueError("--eta: requires --prefix M" if args.prefix is None
                         else "--prefix: requires --eta L")
    bv = boshernitzan.bosh_verdict(c, args.horizon)
    payload = _verdict_payload(bv)
    payload["liminf_criterion"] = (
        None if bv.liminf_criterion is None else bv.liminf_criterion.value
    )
    if args.eta is not None:
        eta = boshernitzan.estimate_eta(c, args.eta, args.prefix, args.budget)
        payload["eta"] = {
            "L": eta.length,
            "min_frequency": str(eta.min_frequency),
            "prefix": eta.prefix_length,
            "rarest": c.alphabet.render(eta.rarest or b""),
        }
    _emit_json(payload, args.out)
    return 0


def _parse_coeff(c: Coding, spec: str, flag: str,
                 default: float) -> dict[str, float]:
    """Letter name -> value from a --p or --q map."""
    values = dict.fromkeys(c.alphabet.names, default)
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"{flag}: bad assignment {item!r}")
        name, raw = item.split("=", 1)
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"{flag}: {name} must be a number, "
                             f"got {raw!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{flag}: {name} must be finite, got {raw!r}")
        if name == "const":
            values = dict.fromkeys(values, value)
        elif name in values:
            values[name] = value
        else:
            raise ValueError(f"{flag}: unknown letter {name!r} in {item!r}")
    return values


def _cmd_spectrum(c: Coding, args) -> int:
    from . import spectral

    if args.lyapunov is not None and not args.energies:
        raise ValueError("--lyapunov: requires --energies lo:hi:steps")
    if args.size is not None and args.energies:
        raise ValueError("--size: not used with --energies")
    coeff = spectral.CoefficientMap.from_names(
        c.alphabet, q=_parse_coeff(c, args.q, "--q", 0.0),
        p=_parse_coeff(c, args.p, "--p", 1.0))
    if args.energies:
        try:
            lo, hi, steps = args.energies.split(":")
            lo, hi, steps = float(lo), float(hi), int(steps)
        except ValueError:
            raise ValueError(
                f"--energies: expected lo:hi:steps, got {args.energies!r}"
            ) from None
        bad = ValueError("--energies: need steps >= 1 and finite "
                         f"energies, got {args.energies!r}")
        if steps < 1 or not (math.isfinite(lo) and math.isfinite(hi)):
            raise bad
        if steps > args.budget:
            raise BudgetExceeded(f"--energies: a grid of {steps} energies "
                                 f"exceeds the budget of {args.budget}")
        grid = spectral.energy_grid(lo, hi, steps)
        if not all(map(math.isfinite, grid)):
            raise bad
        n = 4096 if args.lyapunov is None else args.lyapunov
        try:
            estimates = spectral.lyapunov_over_grid(c, coeff, grid, n, args.budget)
        except OverflowError:
            raise ValueError(
                "--energies: the cocycle overflows a float at these energies "
                "and --p/--q coefficients; use smaller energies or other "
                "--p/--q values"
            ) from None
        _write_csv(args.csv, "E,lyapunov",
                   [f"{repr(e.energy)},{repr(e.value)}" for e in estimates])
        return 0
    size = 256 if args.size is None else args.size
    eigenvalues = spectral.finite_section_spectrum(c, coeff, size, args.budget)
    _write_csv(args.csv, "j,eigenvalue",
               [f"{j},{repr(ev)}" for j, ev in enumerate(eigenvalues)])
    return 0


def _cmd_presets(_c, _args) -> int:
    for name in PRESET_NAMES:
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toeplitz",
        description="simple Toeplitz subshifts: words, complexity, graphs, "
                    "repetitivity, Boshernitzan checks and Jacobi spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a prefix of the limit word")
    _add_common(p)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("language", help="list all factors of one length")
    _add_common(p)
    p.add_argument("-L", "--length", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("complexity", help="complexity table, optionally checked")
    _add_common(p)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--check", action="store_true",
                   help="compute the oracle and fail on mismatch")
    p.add_argument("--csv", default=None)

    p = sub.add_parser("palindrome", help="palindrome complexity table")
    _add_common(p)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--check", action="store_true")
    p.add_argument("--csv", default=None)

    p = sub.add_parser("debruijn", help="de Bruijn graph at one length")
    _add_common(p)
    p.add_argument("-L", "--length", type=int, required=True)
    p.add_argument("--dot", default=None)
    p.add_argument("--json", dest="json_out", default=None,
                   help="write the graph as JSON to this path")

    p = sub.add_parser("repetitivity", help="repetitivity table and verdicts")
    _add_common(p)
    p.add_argument("--max-len", type=int, default=0)
    p.add_argument("--alpha", default=None,
                   help="also emit the alpha-repetitivity verdict")
    p.add_argument("--horizon", type=int, default=12)
    p.add_argument("--csv", default=None)

    p = sub.add_parser("bosh", help="Boshernitzan condition verdict")
    _add_common(p)
    p.add_argument("--horizon", type=int, default=12)
    p.add_argument("--eta", type=int, default=None,
                   help="also estimate eta at this word length")
    p.add_argument("--prefix", type=int, default=None,
                   help="prefix length for the eta estimate")
    p.add_argument("--out", default=None)

    p = sub.add_parser("spectrum", help="finite sections and Lyapunov scans")
    _add_common(p)
    p.add_argument("--q", default="const=0", help="diagonal map, e.g. a=0,x=1")
    p.add_argument("--p", default="const=1", help="off-diagonal map")
    p.add_argument("--size", type=int, default=None,
                   help="finite-section size (default 256); not with --energies")
    p.add_argument("--energies", default=None, help="lo:hi:steps grid")
    p.add_argument("--lyapunov", type=int, default=None,
                   help="cocycle steps per energy")
    p.add_argument("--csv", default=None)

    sub.add_parser("presets", help="list the preset registry")

    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "language": _cmd_language,
    "complexity": _cmd_complexity,
    "palindrome": _cmd_palindrome,
    "debruijn": _cmd_debruijn,
    "repetitivity": _cmd_repetitivity,
    "bosh": _cmd_bosh,
    "spectrum": _cmd_spectrum,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "presets":
        return _cmd_presets(None, args)
    try:
        with warnings.catch_warnings():
            # one line naming the command, not a source location
            warnings.showwarning = lambda message, *_, **__: print(
                f"toeplitz {args.command}: warning: {message}", file=sys.stderr)
            return _HANDLERS[args.command](_resolve(args), args)
    except (BudgetExceeded, HorizonExceeded, PrefixTooShort) as exc:
        print(f"toeplitz {args.command}: {exc}", file=sys.stderr)
        return RESOURCE_ERROR
    except (ToeplitzError, ValueError, KeyError, IndexError) as exc:
        print(f"toeplitz {args.command}: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
