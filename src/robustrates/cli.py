"""Batch command-line surface.

Commands: ``simulate``, ``price``, ``gap``, ``verify``, ``calibrate``,
``gheat``.  Options can come from a JSON config file (``--config``); flags
given on the command line win over config values.  All numeric output uses
17 significant digits so values round-trip exactly.

Exit codes: 0 success, 1 validation error, 2 numerical failure (a closed-form
price, sample, mean, se, drift fit or terminal error that is not finite), 3
verification failure (a martingale row failed or the gap disagrees with its closed form).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager, suppress
from typing import Optional, Sequence

import numpy as np

from .band import VolBand
from .bonds import _require_finite, martingale_check, noarb_gap, price_classical_hw, price_robust
from .calibration import calibrate, ingest_forward_curve, initial_curve_roundtrip
from .errors import NumericalError, ValidationError, _to_float
from .gheat import _terminal_grid, solve_gheat
from .mc import McConfig
from .paths import RateParams, TimeGrid, simulate_bundle
from .scenarios import Constant, default_scenario_family, family_from_json

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_VERIFICATION = 3


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(fh, header: str, rows) -> None:
    """The header, then one line per row: strings as they are, numbers via :func:`_fmt`."""
    fh.write(header + "\n")
    for row in rows:
        fh.write(",".join(x if isinstance(x, str) else _fmt(x) for x in row) + "\n")


_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _to_bool(value) -> bool:
    """Flag or config boolean: true/false, 1/0 or yes/no, any case."""
    try:
        return _BOOLEANS[str(value).strip().lower()]
    except KeyError:
        raise ValidationError(f"expected true/false, 1/0 or yes/no, got {value!r}") from None


@contextmanager
def _output(path: Optional[str]):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _to_str(value) -> str:
    """Text from a flag or a JSON string; other JSON types are errors."""
    if not isinstance(value, str):
        raise ValidationError(f"expected a string, got {value!r}")
    return value


def _to_int(value) -> int:
    """Integer from a flag or a JSON number; booleans and fractions
    (``12.9``, ``"2.5"``) are errors, never truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        with suppress(ValueError):
            return int(value)
    raise ValidationError(f"expected an integer, got {value!r}")


def _to_floats(value) -> list[float]:
    """Numbers from ``'1,2,5'`` or a JSON list; an empty field is an error."""
    items = value.split(",") if isinstance(value, str) else value
    if not isinstance(items, list) or not items:
        raise ValidationError(f"expected a comma-separated list of numbers, got {value!r}")
    return [_to_float(v) for v in items]


def _to_band(value) -> tuple[float, float]:
    """Band edges from ``'lo,hi'``, ``[lo, hi]`` or ``{"lo": .., "hi": ..}``;
    the edges themselves are checked by ``VolBand`` when a command runs."""
    if isinstance(value, dict):
        value = [value.get("lo"), value.get("hi")]
    edges = _to_floats(value)
    if len(edges) != 2:
        raise ValidationError(f"band expects 'lo,hi', got {value!r}")
    return edges[0], edges[1]


#: every option: name -> (converter of a flag or config value, default, help);
#: ``_COMMANDS`` says which command accepts which, ``_COMMAND_DEFAULTS`` where
#: a command's default differs
_OPTIONS = {
    "config": (_to_str, None, "JSON config file; flags override its values"),
    "out": (_to_str, None, "output path ('-' for stdout)"),
    "band": (_to_band, "0.005,0.02", "volatility band as 'lo,hi'"),
    "curve": (_to_str, None, "forward-curve CSV/JSON file (replaces r0/mu)"),
    "alpha": (_to_float, 1.0, "mean-reversion speed"),
    "r0": (_to_float, 0.02, "initial short rate"),
    "mu": (_to_float, 0.0, "constant reversion level"),
    "seed": (_to_int, 0, "base RNG seed"),
    "paths": (_to_int, 100_000, "Monte Carlo paths"),
    "steps": (_to_int, 512, "time steps"),
    "antithetic": (_to_bool, "true", "antithetic path pairing: true/false, 1/0 or yes/no"),
    "horizon": (_to_float, 1.0, "horizon in years"),
    "maturity": (_to_float, 1.0, "bond maturity"),
    "maturities": (_to_floats, "1,2,3,4,5,6,7,8,9,10", "comma-separated maturities"),
    "checkpoints": (_to_floats, "0.25,0.5,0.75,1.0", "comma-separated checkpoint times"),
    "scenarios": (_to_str, None, "scenario-family JSON file (replaces the default family)"),
    # gap's 20-member default family: constant grid, bang-bang pair, switching
    "n_constant": (_to_int, 12, "constant scenarios in the default family"),
    "n_switching": (_to_int, 6, "random-switching scenarios in the default family"),
    "sigma": (_to_float, None, "constant scenario volatility (default band top)"),
    "dynamics": (_to_str, "shifted", "shifted, or original (the adversarial power fixture)"),
    "path_index": (_to_int, 0, "index of the path written"),
    "phi": (_to_str, "square", "payoff: square|negsquare|relu|abs|identity|call:K|const:c"),
    "nodes_per_width": (_to_int, 100, "PDE grid nodes per band width"),
    "pad_widths": (_to_float, 8.0, "PDE grid padding in band widths"),
}


class _Config:
    """The options of one command, each resolved once: the flag if given,
    else the config-file value through the flag's converter, else the
    default.  A config key that no command accepts is an error; one that
    belongs to another command is ignored, so one file serves them all."""

    def __init__(self, args: argparse.Namespace):
        doc = {}
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict):
                raise ValidationError("config file must hold a JSON object")
        unknown = sorted(set(doc) - set(_OPTIONS))
        if unknown:
            raise ValidationError(f"unknown config keys {unknown}")
        _, _, names = _COMMANDS[args.command]
        defaults = _COMMAND_DEFAULTS.get(args.command, {})
        self._values = {}
        for name in names:
            convert, default, _ = _OPTIONS[name]
            value = getattr(args, name)  # a given flag is already converted
            if value is None and name in doc:
                try:
                    value = convert(doc[name])  # every converter rejects null
                except ValueError as exc:
                    raise ValidationError(f"config key '{name}': {exc}") from None
            elif value is None and default is not None:
                value = convert(defaults.get(name, default))
            self._values[name] = value

    def get(self, key: str):
        return self._values[key]

    def band(self) -> VolBand:
        return VolBand(*self.get("band"))

    def rate_params(self) -> RateParams:
        """Either explicit (mu, r0) parameters or those of a calibrated curve."""
        curve_path = self.get("curve")
        alpha = self.get("alpha")
        if curve_path is not None:
            return calibrate(ingest_forward_curve(curve_path), alpha)
        return RateParams(r0=self.get("r0"), alpha=alpha, mu=self.get("mu"))

    def mc_config(self, horizon: float) -> McConfig:
        mc = McConfig(
            n_paths=self.get("paths"),
            n_steps=self.get("steps"),
            horizon=horizon,
            base_seed=self.get("seed"),
            antithetic=self.get("antithetic"),
        )
        if mc.n_paths // (1 + mc.antithetic) < 2:  # paths, or antithetic pairs
            raise ValidationError(f"paths = {mc.n_paths} with antithetic = {mc.antithetic} gives "
                                  "1 independent sample; a standard error needs at least 2")
        return mc

    def scenarios(self, band: VolBand, horizon: float):
        fam_path = self.get("scenarios")
        if fam_path:
            with open(fam_path, "r", encoding="utf-8") as fh:
                file_band, family = family_from_json(json.load(fh))
            if (file_band.sigma_lo, file_band.sigma_hi) != (band.sigma_lo, band.sigma_hi):
                raise ValidationError("scenario file band differs from configured band")
            return family
        return default_scenario_family(
            band,
            n_constant=self.get("n_constant"),
            n_switching=self.get("n_switching"),
            seed=self.get("seed"),
            horizon=horizon,
        )


def cmd_simulate(cfg: _Config) -> int:
    band = cfg.band()
    params = cfg.rate_params()
    grid = TimeGrid(cfg.get("horizon"), cfg.get("steps"))
    sigma = cfg.get("sigma")
    scenario = Constant(band.sigma_hi if sigma is None else sigma)
    bundle = simulate_bundle(
        scenario, band, grid, params,
        seed=cfg.get("seed"),
        n_paths=cfg.get("paths"),
        dynamics=cfg.get("dynamics"),
    )
    i = cfg.get("path_index")
    if not (0 <= i < bundle.n_paths):
        raise ValidationError(f"path_index {i} out of range")
    # one row per grid point; the last sigma repeats the final step's value
    rows = zip(grid.times, np.append(bundle.sigma[i], bundle.sigma[i, -1]),
               bundle.b[i], bundle.qv[i], bundle.lam[i], bundle.r[i], bundle.d[i])
    with _output(cfg.get("out")) as fh:
        _write_csv(fh, "t,sigma,B,qv,lambda,r,D", rows)
    return EXIT_OK


def cmd_price(cfg: _Config) -> int:
    """Term structure: robust price flanked by the classical prices at the
    band edges (price grows with volatility, so the bottom of the band gives
    the lower price and the top the upper)."""
    band = cfg.band()
    params = cfg.rate_params()
    rows = []  # every row, before the output file is opened
    for T in cfg.get("maturities"):
        robust = price_robust(params, 0.0, T, params.r0, 0.0)
        with np.errstate(over="ignore"):  # an overflow is reported below
            lower = price_classical_hw(params, band.sigma_lo, 0.0, T, params.r0)
            upper = price_classical_hw(params, band.sigma_hi, 0.0, T, params.r0)
        _require_finite(T, lower, robust, upper)
        rows.append((T, lower, robust, upper))
    with _output(cfg.get("out")) as fh:
        _write_csv(fh, "T,price_lower,price_robust,price_upper", rows)
    return EXIT_OK


def cmd_gap(cfg: _Config) -> int:
    band = cfg.band()
    params = cfg.rate_params()
    T = cfg.get("maturity")
    mc = cfg.mc_config(T)
    family = cfg.scenarios(band, T)
    report = noarb_gap(params, band, T, family, mc)
    payload = {
        "upper": report.upper,
        "lower": report.lower,
        "gap": report.gap,
        "closed_form_gap": report.closed_form_gap,
        "se": report.gap_se,
        "upper_se": report.upper_se,
        "lower_se": report.lower_se,
        "closed_form_upper": report.closed_form_upper,
        "closed_form_lower": report.closed_form_lower,
        "argmax_scenario": report.argmax_scenario,
        "argmin_scenario": report.argmin_scenario,
        "gap_significant": report.significant,
        "per_scenario": [
            {"scenario": s.scenario_id, "mean": s.mean, "se": s.se}
            for s in report.per_scenario
        ],
    }
    with _output(cfg.get("out")) as fh:
        json.dump(payload, fh, indent=2, default=float)
        fh.write("\n")
    # verification: a non-degenerate band must show a significant gap that
    # agrees with the closed form; a degenerate band must show none
    ok_agree = abs(report.gap - report.closed_form_gap) <= 3.0 * max(report.gap_se, 1e-300)
    if band.is_degenerate:
        ok = report.gap == 0.0
    else:
        ok = report.significant and ok_agree
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_verify(cfg: _Config) -> int:
    band = cfg.band()
    params = cfg.rate_params()
    T = cfg.get("maturity")
    mc = cfg.mc_config(T)
    family = cfg.scenarios(band, T)
    reports = martingale_check(
        params, band, family, T, cfg.get("checkpoints"), mc, dynamics=cfg.get("dynamics")
    )
    rows = [
        (rep.scenario_id, row.t, row.mean, row.se, row.reference, str(row.passed).lower())
        for rep in reports
        for row in rep.checkpoints
    ]
    with _output(cfg.get("out")) as fh:
        _write_csv(fh, "scenario,t,mean,se,ref,pass", rows)
    return EXIT_OK if all(rep.all_pass for rep in reports) else EXIT_VERIFICATION


def cmd_calibrate(cfg: _Config) -> int:
    curve_path = cfg.get("curve")
    if not curve_path:
        raise ValidationError("calibrate needs --curve <file>")
    params = calibrate(ingest_forward_curve(curve_path), cfg.get("alpha"))
    report = initial_curve_roundtrip(params, cfg.get("maturities"))
    rows = [(row.maturity, row.p_model, row.p_curve, row.abs_error) for row in report.rows]
    with _output(cfg.get("out")) as fh:
        _write_csv(fh, "T,P_model,P_curve,abs_error", rows)
    print(f"max abs error: {report.max_abs_error:.3e}", file=sys.stderr)
    return EXIT_OK


_PAYOFFS = {
    "square": lambda x: x**2,
    "negsquare": lambda x: -(x**2),
    "relu": lambda x: np.maximum(x, 0.0),
    "abs": np.abs,
    "identity": lambda x: x,
}


def _payoff(name: str):
    if name.startswith("call:"):
        k = _to_float(name.split(":", 1)[1])
        return lambda x: np.maximum(x - k, 0.0)
    if name.startswith("const:"):
        c = _to_float(name.split(":", 1)[1])
        return lambda x: np.full_like(x, c)
    try:
        return _PAYOFFS[name]
    except KeyError:
        raise ValidationError(
            f"unknown payoff '{name}'; choose from {sorted(_PAYOFFS)} or call:K / const:c"
        ) from None


def cmd_gheat(cfg: _Config) -> int:
    band = cfg.band()
    t = cfg.get("horizon")
    phi = _payoff(cfg.get("phi"))
    grid = _terminal_grid(
        band, t,
        nodes_per_width=cfg.get("nodes_per_width"),
        pad_widths=cfg.get("pad_widths"),
    )
    out = cfg.get("out")
    # one solve: with --out it also keeps eight slices for the dump
    sol = solve_gheat(phi, band, grid, store_every=max(1, grid.nt // 8) if out else None)
    if out:
        # one row per stored slice and node
        rows = zip(np.repeat(sol.times, grid.nx), np.tile(grid.x, sol.times.size), sol.u.ravel())
        with _output(out) as fh:
            _write_csv(fh, "t,x,u", rows)
    print(f"u({_fmt(t)}, 0) = {_fmt(sol.value_at(0.0))}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument errors are validation errors (exit 1, not argparse's 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="robustrates",
        description="Band-robust short-rate modeling: simulate, price, and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (_, text, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name, (convert, default, help_text) in _OPTIONS.items():
            if name in names:
                default = _COMMAND_DEFAULTS.get(command, {}).get(name, default)
                if default is not None:
                    help_text = f"{help_text} (default {default})"
                p.add_argument("--" + name.replace("_", "-"), dest=name,
                               type=_flag_type(convert), help=help_text)
    return parser


def _flag_type(convert):
    """The converter as an argparse ``type`` that reports its own message."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


_IO = ("config", "out")
_RATES = _IO + ("band", "curve", "alpha", "r0", "mu")
_MC = ("maturity", "paths", "steps", "seed", "antithetic", "scenarios", "n_constant", "n_switching")

#: command -> (function, help, the options it reads)
_COMMANDS = {
    "simulate": (cmd_simulate, "simulate one scenario and dump a path CSV",
                 _RATES + ("horizon", "steps", "seed", "paths", "sigma", "dynamics", "path_index")),
    "price": (cmd_price, "term structure with uncertainty band", _RATES + ("maturities",)),
    "gap": (cmd_gap, "no-arbitrage gap report (JSON)", _RATES + _MC),
    "verify": (cmd_verify, "martingale verification report (CSV)",
               _RATES + _MC + ("checkpoints", "dynamics")),
    "calibrate": (cmd_calibrate, "fit to a forward curve and report the round trip",
                  _IO + ("curve", "alpha", "maturities")),
    "gheat": (cmd_gheat, "solve the nonlinear band heat equation",
              _IO + ("band", "horizon", "phi", "nodes_per_width", "pad_widths")),
}

#: the defaults that differ from _OPTIONS by command; verify's 5-member
#: default family holds both edges, the midpoint and two bang-bang scenarios
_COMMAND_DEFAULTS = {"simulate": {"paths": 1}, "verify": {"n_constant": 3, "n_switching": 0}}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_Config(args))
    except (ValueError, OSError) as exc:
        # ValidationError and JSONDecodeError are ValueErrors; OSError is a
        # file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
