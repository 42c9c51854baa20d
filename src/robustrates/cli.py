"""Batch command-line surface.

Commands: ``simulate``, ``price``, ``gap``, ``verify``, ``calibrate``,
``gheat``.  Options can come from a JSON config file (``--config``); flags
given on the command line win over config values.  All numeric output uses
17 significant digits so values round-trip exactly.

Exit codes: 0 success, 1 validation error, 2 numerical failure,
3 verification failure (a martingale row failed or the gap disagrees with
its closed form).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import Optional, Sequence

import numpy as np

from .band import VolBand
from .bonds import a_classical, a_robust, martingale_check, noarb_gap, price_robust
from .calibration import (
    calibrate,
    fitted_price,
    ingest_forward_curve,
    initial_curve_roundtrip,
)
from .errors import NumericalError, ValidationError
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


class _Config:
    """Merged view of config-file values and CLI flags (flags win)."""

    def __init__(self, args: argparse.Namespace):
        doc = {}
        if getattr(args, "config", None):
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict):
                raise ValidationError("config file must hold a JSON object")
        self._doc = doc
        self._args = args

    def get(self, key: str, default=None):
        flag = getattr(self._args, key, None)
        if flag is not None:
            return flag
        return self._doc.get(key, default)

    def band(self) -> VolBand:
        raw = self.get("band", "0.005,0.02")
        if isinstance(raw, str):
            parts = raw.split(",")
            if len(parts) != 2:
                raise ValidationError("--band expects 'lo,hi'")
            lo, hi = (float(p) for p in parts)
        elif isinstance(raw, dict):
            lo, hi = float(raw["lo"]), float(raw["hi"])
        else:
            lo, hi = (float(v) for v in raw)
        return VolBand(lo, hi)

    def rate_params(self):
        """Either explicit (mu, r0) parameters or a calibrated curve."""
        curve_path = self.get("curve")
        alpha = float(self.get("alpha", 1.0))
        if curve_path:
            model = calibrate(ingest_forward_curve(curve_path), alpha)
            return model.rate_params(), model
        params = RateParams(
            r0=float(self.get("r0", 0.02)),
            alpha=alpha,
            mu=float(self.get("mu", 0.0)),
        )
        return params, None

    def mc_config(self, horizon: float) -> McConfig:
        return McConfig(
            n_paths=int(self.get("paths", 100_000)),
            n_steps=int(self.get("steps", 512)),
            horizon=horizon,
            base_seed=int(self.get("seed", 0)),
            antithetic=_to_bool(self.get("antithetic", True)),
        )

    def scenarios(self, band: VolBand, horizon: float, n_constant: int, n_switching: int):
        fam_path = self.get("scenarios")
        if fam_path:
            with open(fam_path, "r", encoding="utf-8") as fh:
                file_band, family = family_from_json(json.load(fh))
            if (file_band.sigma_lo, file_band.sigma_hi) != (band.sigma_lo, band.sigma_hi):
                raise ValidationError("scenario file band differs from configured band")
            return family
        return default_scenario_family(
            band,
            n_constant=int(self.get("n_constant", n_constant)),
            n_switching=int(self.get("n_switching", n_switching)),
            seed=int(self.get("seed", 0)),
            horizon=horizon,
        )


def _parse_maturities(cfg: _Config) -> list[float]:
    raw = cfg.get("maturities", "1,2,3,4,5,6,7,8,9,10")
    if isinstance(raw, str):
        return [float(p) for p in raw.split(",") if p.strip()]
    return [float(v) for v in raw]


def cmd_simulate(cfg: _Config) -> int:
    band = cfg.band()
    params, _ = cfg.rate_params()
    horizon = float(cfg.get("horizon", 1.0))
    grid = TimeGrid(horizon, int(cfg.get("steps", 512)))
    scen_value = cfg.get("sigma")
    scenario = Constant(float(scen_value)) if scen_value is not None else Constant(band.sigma_hi)
    bundle = simulate_bundle(
        scenario, band, grid, params,
        seed=int(cfg.get("seed", 0)),
        n_paths=int(cfg.get("paths", 1)),
        dynamics=str(cfg.get("dynamics", "shifted")),
    )
    with _output(cfg.get("out")) as fh:
        bundle.write_csv(fh, path_index=int(cfg.get("path_index", 0)))
    return EXIT_OK


def cmd_price(cfg: _Config) -> int:
    """Term structure: robust price flanked by the classical prices at the
    band edges (price grows with volatility, so the bottom of the band gives
    the lower price and the top the upper)."""
    band = cfg.band()
    params, model = cfg.rate_params()
    maturities = _parse_maturities(cfg)
    with _output(cfg.get("out")) as fh:
        fh.write("T,price_lower,price_robust,price_upper\n")
        for T in maturities:
            if model is not None:
                robust = fitted_price(model, 0.0, T, model.r0, 0.0)
            else:
                robust = price_robust(params, 0.0, T, params.r0, 0.0).price
            # classical intercept = robust intercept + sigma^2/2 * int B^2
            base = a_robust(params, 0.0, T)
            lower, upper = (
                robust * float(np.exp(a_classical(params, sigma, 0.0, T) - base))
                for sigma in (band.sigma_lo, band.sigma_hi)
            )
            fh.write(f"{_fmt(T)},{_fmt(lower)},{_fmt(robust)},{_fmt(upper)}\n")
    return EXIT_OK


def cmd_gap(cfg: _Config) -> int:
    band = cfg.band()
    params, _ = cfg.rate_params()
    T = float(cfg.get("maturity", 1.0))
    mc = cfg.mc_config(T)
    # 20-member default family: constant grid, bang-bang pair, switching
    family = cfg.scenarios(band, T, n_constant=12, n_switching=6)
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
    params, _ = cfg.rate_params()
    T = float(cfg.get("maturity", 1.0))
    mc = cfg.mc_config(T)
    raw = cfg.get("checkpoints", "0.25,0.5,0.75,1.0")
    checkpoints = (
        [float(p) for p in raw.split(",")] if isinstance(raw, str) else [float(v) for v in raw]
    )
    # 5-member default family: both edges, the midpoint, two bang-bang
    family = cfg.scenarios(band, T, n_constant=3, n_switching=0)
    dynamics = str(cfg.get("dynamics", "shifted"))
    reports = martingale_check(params, band, family, T, checkpoints, mc, dynamics=dynamics)
    any_fail = False
    with _output(cfg.get("out")) as fh:
        fh.write("scenario,t,mean,se,ref,pass\n")
        for rep in reports:
            for row in rep.checkpoints:
                ok = row.passed
                any_fail |= not ok
                fh.write(
                    f"{rep.scenario_id},{_fmt(row.t)},{_fmt(row.mean)},"
                    f"{_fmt(row.se)},{_fmt(row.reference)},{str(ok).lower()}\n"
                )
    return EXIT_VERIFICATION if any_fail else EXIT_OK


def cmd_calibrate(cfg: _Config) -> int:
    curve_path = cfg.get("curve")
    if not curve_path:
        raise ValidationError("calibrate needs --curve <file>")
    model = calibrate(ingest_forward_curve(curve_path), float(cfg.get("alpha", 1.0)))
    maturities = _parse_maturities(cfg)
    report = initial_curve_roundtrip(model, maturities)
    with _output(cfg.get("out")) as fh:
        fh.write("T,P_model,P_curve,abs_error\n")
        for row in report.rows:
            fh.write(
                f"{_fmt(row.maturity)},{_fmt(row.p_model)},"
                f"{_fmt(row.p_curve)},{_fmt(row.abs_error)}\n"
            )
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
        k = float(name.split(":", 1)[1])
        return lambda x: np.maximum(x - k, 0.0)
    if name.startswith("const:"):
        c = float(name.split(":", 1)[1])
        return lambda x: np.full_like(x, c)
    try:
        return _PAYOFFS[name]
    except KeyError:
        raise ValidationError(
            f"unknown payoff '{name}'; choose from {sorted(_PAYOFFS)} or call:K / const:c"
        ) from None


def cmd_gheat(cfg: _Config) -> int:
    band = cfg.band()
    t = float(cfg.get("horizon", 1.0))
    phi = _payoff(str(cfg.get("phi", "square")))
    grid = _terminal_grid(
        band, t, 0.0,
        nodes_per_width=int(cfg.get("nodes_per_width", 100)),
        pad_widths=float(cfg.get("pad_widths", 8.0)),
    )
    out = cfg.get("out")
    # one solve: with --out it also keeps eight slices for the dump
    sol = solve_gheat(phi, band, grid, store_every=max(1, grid.nt // 8) if out else None)
    if out:
        with _output(out) as fh:
            sol.write_csv(fh)
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

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, help="base RNG seed (default 0)")
        p.add_argument("--out", help="output path ('-' for stdout)")
        p.add_argument("--band", help="volatility band as 'lo,hi' (default 0.005,0.02)")
        p.add_argument("--alpha", type=float, help="mean-reversion speed (default 1.0)")
        p.add_argument("--paths", type=int, help="Monte Carlo paths (default 100000)")
        p.add_argument("--steps", type=int, help="time steps (default 512)")
        p.add_argument("--r0", type=float, help="initial short rate (default 0.02)")
        p.add_argument("--mu", type=float, help="constant reversion level (default 0)")
        p.add_argument("--curve", help="forward-curve CSV/JSON file (replaces r0/mu)")
        p.add_argument("--horizon", type=float, help="simulation horizon in years")
        p.add_argument("--scenarios", help="scenario-family JSON file")
        p.add_argument("--antithetic", type=_to_bool,
                       help="antithetic path pairing: true/false, 1/0 or yes/no (default true)")

    p = sub.add_parser("simulate", help="simulate one scenario and dump a path CSV")
    common(p)
    p.add_argument("--sigma", type=float, help="constant scenario volatility (default band top)")
    p.add_argument("--dynamics", choices=["original", "shifted"])
    p.add_argument("--path-index", dest="path_index", type=int)

    p = sub.add_parser("price", help="term structure with uncertainty band")
    common(p)
    p.add_argument("--maturities", help="comma-separated maturities (default 1..10)")

    p = sub.add_parser("gap", help="no-arbitrage gap report (JSON)")
    common(p)
    p.add_argument("--maturity", type=float, help="bond maturity (default 1.0)")
    p.add_argument("--n-constant", dest="n_constant", type=int)
    p.add_argument("--n-switching", dest="n_switching", type=int)

    p = sub.add_parser("verify", help="martingale verification report (CSV)")
    common(p)
    p.add_argument("--maturity", type=float, help="bond maturity (default 1.0)")
    p.add_argument("--checkpoints", help="comma-separated checkpoint times")
    p.add_argument("--dynamics", choices=["original", "shifted"],
                   help="'original' is the adversarial power fixture")
    p.add_argument("--n-constant", dest="n_constant", type=int)
    p.add_argument("--n-switching", dest="n_switching", type=int)

    p = sub.add_parser("calibrate", help="fit to a forward curve and report the round trip")
    common(p)
    p.add_argument("--maturities", help="comma-separated report maturities")

    p = sub.add_parser("gheat", help="solve the nonlinear band heat equation")
    common(p)
    p.add_argument("--phi", help="payoff: square|negsquare|relu|abs|identity|call:K|const:c")
    p.add_argument("--nodes-per-width", dest="nodes_per_width", type=int)
    p.add_argument("--pad-widths", dest="pad_widths", type=float)

    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "price": cmd_price,
    "gap": cmd_gap,
    "verify": cmd_verify,
    "calibrate": cmd_calibrate,
    "gheat": cmd_gheat,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _Config(args)
        return _COMMANDS[args.command](cfg)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        # ValidationError subclasses ValueError; bare ValueError also covers
        # malformed numeric fields in config files
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
