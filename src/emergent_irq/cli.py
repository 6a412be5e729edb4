"""Experiment runner: deterministic CSV/JSON reports over any carrier.

Usage:

    emergent-irq run --config cfg.json [--carrier N] [--experiment N]
                     [--seed S] [--samples S] [--tol T] [--max-k K]
                     [--out PATH] [--format csv|json]
    emergent-irq list-carriers
    emergent-irq list-experiments

The config is one flat JSON object: reserved keys (carrier, experiment,
seed, samples, tol, max_k, radius, out, format) plus the chosen carrier's
own parameters at top level, e.g.

    {"carrier": "heisenberg", "epsilon": 0.5, "experiment": "converge"}

Flags override the file.  EMERGENT_IRQ_SEED supplies the seed when neither
does.  Every row is {experiment, carrier, identity, k, samples,
max_residual, rate, passed}; the exit status is 0 only if all rows pass,
2 for configuration errors.  Reports are byte-identical across reruns of
the same config and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from .calculus import MapBetweenCarriers, check_derivative_morphism, derivative
from .carriers import build_carrier, carrier_registry
from .core import check_irq_axioms, sample_tuples, star_k
from .division import (DivisionMethod, check_involution, check_loos_axioms,
                       default_division_method, loop_isotope_k,
                       right_divide_k)
from .errors import (ConfigError, DistributivityError, EmergentAlgebraError,
                     InvalidPointError, NonConvergenceError,
                     UnsupportedCarrierError)
from .limits import (LimitConfig, emergent_difference, emergent_inverse,
                     emergent_sum, reconstruct_group)

__all__ = ["main", "run_experiment"]

COLUMNS = ("experiment", "carrier", "identity", "k", "samples",
           "max_residual", "rate", "passed")

RESERVED_KEYS = ("carrier", "experiment", "seed", "samples", "tol", "max_k",
                 "radius", "out", "format")

# experiment -> (samples default, tol default, one-line description)
EXPERIMENTS = {
    "axioms": (250, 1e-9, "level-k irq identities P1, P2, 3.4a-g, 3.5h-k"),
    "converge": (100, 1e-6, "emergent limits with trails, rates, and closed-form oracles"),
    "reconstruct": (200, 1e-8, "distributivity gate and group reconstruction 6.1/6.2"),
    "symmetric": (100, 1e-8, "T involution 6.5 and Loos axioms L1-L4, 6.6, 6.8"),
    "derivative": (100, 1e-7, "derivatives Tf and their tangent-group morphism check"),
    "divide": (100, 1e-10, "right division 6.3, loop isotopes and their limit"),
}


def _coerce(name, value, kind):
    try:
        out = kind(value)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad value for {name}: {err}") from err
    return out


def _resolve_config(file_cfg, args):
    cfg = dict(file_cfg)
    unknown = [k for k in cfg if not isinstance(k, str)]
    if unknown:
        raise ConfigError(f"non-string config keys: {unknown}")
    for key in ("carrier", "experiment", "seed", "samples", "tol", "out",
                "format"):
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    if getattr(args, "max_k", None) is not None:
        cfg["max_k"] = args.max_k

    carrier = cfg.pop("carrier", None)
    experiment = cfg.pop("experiment", None)
    if not carrier:
        raise ConfigError("config needs a carrier (key or --carrier)")
    if not experiment:
        raise ConfigError("config needs an experiment (key or --experiment)")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; known: "
                          + ", ".join(sorted(EXPERIMENTS)))

    seed = cfg.pop("seed", None)
    if seed is None:
        seed = os.environ.get("EMERGENT_IRQ_SEED", 0)
    seed = _coerce("seed", seed, int)

    samples_default, tol_default, _ = EXPERIMENTS[experiment]
    samples = _coerce("samples", cfg.pop("samples", samples_default), int)
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    tol = _coerce("tol", cfg.pop("tol", tol_default), float)
    if not tol > 0.0:
        raise ConfigError(f"tol must be positive, got {tol}")
    max_k = _coerce("max_k", cfg.pop("max_k", 200), int)
    if max_k < 5:
        raise ConfigError(f"max_k must be >= 5, got {max_k}")
    radius = _coerce("radius", cfg.pop("radius", 2.0), float)
    if not radius > 0.0:
        raise ConfigError(f"radius must be positive, got {radius}")
    out = cfg.pop("out", None)
    fmt = str(cfg.pop("format", "csv"))
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")

    # Whatever remains is carrier parameters.
    return {"carrier": str(carrier), "experiment": str(experiment),
            "seed": seed, "samples": samples, "tol": tol, "max_k": max_k,
            "radius": radius, "out": out, "format": fmt, "params": cfg}


def _row(experiment, carrier, identity, k, samples, residual, rate, passed):
    return {"experiment": experiment, "carrier": carrier,
            "identity": identity, "k": k, "samples": int(samples),
            "max_residual": float(residual),
            "rate": None if rate is None or math.isnan(rate) else float(rate),
            "passed": bool(passed)}


def _report_rows(experiment, carrier, reports, k=None):
    return [_row(experiment, carrier, rep.identity, k, rep.samples,
                 rep.max_residual, None, rep.passed) for rep in reports]


def _need_uniform(irq, experiment):
    if not irq.is_uniform:
        raise ConfigError(
            f"experiment {experiment!r} needs a uniform carrier; "
            f"{irq.name!r} is not")


def _exp_axioms(irq, cfg):
    reports = check_irq_axioms(irq, seed=cfg["seed"], count=cfg["samples"],
                               radius=cfg["radius"], tol=cfg["tol"])
    return _report_rows("axioms", irq.name, reports)


def _limit_config(cfg, consumer_tol, margin=100.0):
    # The inner limits only need to land well inside the tolerance their
    # rows are judged at; insisting on the global default can sit below a
    # carrier's numerical floor and turn every row into a non-convergence.
    return LimitConfig(tol=max(float(consumer_tol) / margin, 1e-11),
                       max_k=cfg["max_k"])


def _exp_converge(irq, cfg):
    _need_uniform(irq, "converge")
    x, u, v = sample_tuples(irq, cfg["seed"], cfg["samples"], cfg["radius"], 3)
    lcfg = _limit_config(cfg, cfg["tol"])
    g = irq.group if (irq.group is not None and irq.group.is_morphism) else None
    ops = [
        ("5.1-sum", lambda: emergent_sum(irq, x, u, v, lcfg),
         (lambda: g.mul(g.mul(u, g.inv(x)), v)) if g else None, "4.6-sum"),
        ("5.1-dif", lambda: emergent_difference(irq, x, u, v, lcfg),
         (lambda: g.mul(g.mul(x, g.inv(u)), v)) if g else None, "4.6-dif"),
        ("5.1-inv", lambda: emergent_inverse(irq, x, u, lcfg),
         (lambda: g.mul(g.mul(x, g.inv(u)), x)) if g else None, "4.6-inv"),
    ]
    rows = []
    n = cfg["samples"]
    for name, compute, oracle, oracle_name in ops:
        try:
            value, rep = compute()
        except NonConvergenceError as err:
            trail = err.trail or [float("inf")]
            rows.append(_row("converge", irq.name, name, cfg["max_k"], n,
                             trail[-1], None, False))
            continue
        except InvalidPointError:
            # Deep iterates left the carrier's numerical domain.
            rows.append(_row("converge", irq.name, name, cfg["max_k"], n,
                             float("inf"), None, False))
            continue
        rows.append(_row("converge", irq.name, name, rep.stop_k, n,
                         rep.residual_trail[-1], rep.estimated_rate, True))
        if oracle is not None:
            residual = float(np.max(irq.metric(value, oracle())))
            rows.append(_row("converge", irq.name, oracle_name, rep.stop_k, n,
                             residual, None, residual <= cfg["tol"]))
    return rows


def _exp_reconstruct(irq, cfg):
    _need_uniform(irq, "reconstruct")
    lcfg = _limit_config(cfg, cfg["tol"])
    try:
        rec = reconstruct_group(irq, irq.base, lcfg, samples=cfg["samples"],
                                tol=max(cfg["tol"], 1e-6), seed=cfg["seed"],
                                radius=cfg["radius"])
    except DistributivityError as err:
        return _report_rows("reconstruct", irq.name, [err.report])
    rows = _report_rows("reconstruct", irq.name, [rec.distributivity])
    x, y, z = sample_tuples(irq, cfg["seed"], cfg["samples"], cfg["radius"], 3)
    tol, n = cfg["tol"], cfg["samples"]

    checks = [("6.1iii", rec.star(x, y), irq.star(x, y)),
              ("6.2", emergent_sum(irq, x, y, z, lcfg)[0],
               emergent_difference(irq, y, x, z, lcfg)[0])]
    if irq.group is not None:
        g = irq.group
        checks.append(("6.1i", rec.product(x, y), g.mul(x, y)))
        checks.append(("6.1ii", emergent_difference(irq, x, y, z, lcfg)[0],
                       g.mul(g.mul(x, g.inv(y)), z)))
    for name, lhs, rhs in checks:
        residual = float(np.max(irq.metric(lhs, rhs)))
        rows.append(_row("reconstruct", irq.name, name, None, n, residual,
                         None, residual <= tol))
    return rows


def _exp_symmetric(irq, cfg):
    rows = _report_rows("symmetric", irq.name, [check_involution(
        irq, samples=cfg["samples"], tol=cfg["tol"], seed=cfg["seed"],
        radius=cfg["radius"])])
    if irq.is_uniform:
        try:
            reports = check_loos_axioms(
                irq, _limit_config(cfg, cfg["tol"], 4.0),
                samples=cfg["samples"], tol=cfg["tol"], seed=cfg["seed"],
                radius=cfg["radius"])
        except NonConvergenceError:
            # A quarter of the row tolerance can sit below the carrier's
            # numerical floor on the compounded points these checks form;
            # the row tolerance itself is the loosest accuracy the rows can
            # absorb, so retry there before giving up on per-axiom rows.
            reports = check_loos_axioms(
                irq, _limit_config(cfg, cfg["tol"], 1.0),
                samples=cfg["samples"], tol=cfg["tol"], seed=cfg["seed"],
                radius=cfg["radius"])
        rows.extend(_report_rows("symmetric", irq.name, reports))
    return rows


def _exp_derivative(irq, cfg):
    _need_uniform(irq, "derivative")
    lcfg = _limit_config(cfg, cfg["tol"], 10.0)
    x = irq.base
    u = irq.sample(cfg["seed"], cfg["samples"], cfg["radius"])
    n, tol = cfg["samples"], cfg["tol"]
    rows = []

    ident = MapBetweenCarriers(irq, irq, lambda p: p, name="id")
    value, rep = derivative(ident, x, u, lcfg)
    residual = float(np.max(irq.metric(value, u)))
    rows.append(_row("derivative", irq.name, "Tf-id", rep.stop_k, n,
                     residual, None, residual <= tol))

    target = ident
    if irq.group is not None and irq.group.delta is not None:
        target = MapBetweenCarriers(irq, irq, irq.group.delta, name="delta")
        try:
            value, rep = derivative(target, x, u, lcfg)
        except NonConvergenceError as err:
            trail = err.trail or [float("inf")]
            rows.append(_row("derivative", irq.name, "Tf-delta",
                             cfg["max_k"], n, trail[-1], None, False))
            target = ident
        else:
            if irq.group.is_morphism:
                residual = float(np.max(irq.metric(value, irq.group.delta(u))))
            else:
                residual = rep.residual_trail[-1]
            rows.append(_row("derivative", irq.name, "Tf-delta", rep.stop_k,
                             n, residual, rep.estimated_rate,
                             residual <= max(tol, lcfg.tol * 10)))

    morphism = check_derivative_morphism(target, x, lcfg,
                                         samples=cfg["samples"], tol=tol,
                                         seed=cfg["seed"],
                                         radius=cfg["radius"])
    rows.extend(_report_rows("derivative", irq.name, [morphism]))
    return rows


def _exp_divide(irq, cfg):
    try:
        method = default_division_method(irq)
    except UnsupportedCarrierError as err:
        raise ConfigError(str(err)) from err
    method = DivisionMethod(method.kind, method.max_terms,
                            tol=min(method.tol, cfg["tol"]))
    pts = irq.sample(cfg["seed"], 4 * cfg["samples"], cfg["radius"])
    n = cfg["samples"]
    a, b, x, v = (pts[i * n:(i + 1) * n] for i in range(4))
    rows = []
    supported = 0
    loop_tol = 0.0 if irq.is_exact else cfg["tol"]
    for k in (-1, 1, 2, 3):
        try:
            y = right_divide_k(irq, k, b, a, method)
        except UnsupportedCarrierError:
            continue
        except NonConvergenceError as err:
            rows.append(_row("divide", irq.name, "6.3", k, n,
                             err.trail[-1], None, False))
            supported += 1
            continue
        supported += 1
        residual = float(np.max(irq.metric(star_k(irq, k, y, a), b)))
        rows.append(_row("divide", irq.name, "6.3", k, n, residual, None,
                         residual <= method.tol))
        unit = max(float(np.max(irq.metric(loop_isotope_k(irq, k, x, x, v,
                                                          method), v))),
                   float(np.max(irq.metric(loop_isotope_k(irq, k, x, a, x,
                                                          method), a))))
        rows.append(_row("divide", irq.name, "6.3-loop", k, n, unit, None,
                         unit <= loop_tol))
    if not supported:
        raise ConfigError(
            f"carrier {irq.name!r} supports right division at no level in "
            "the grid (-1, 1, 2, 3)")
    if irq.is_uniform:
        k_lim = min(30, cfg["max_k"] - 1)
        tol_lim = max(cfg["tol"], 1e-6)
        # The loop isotopes converge to the tangent sum when the dilation
        # is a group morphism; without that the two limits genuinely
        # differ (the isotope limit here need not be the tangent sum), so
        # the comparison row is only claimed on morphism carriers.
        if irq.group is not None and irq.group.is_morphism:
            lcfg = _limit_config(cfg, tol_lim)
            limit = float(np.max(irq.metric(
                loop_isotope_k(irq, k_lim, x, a, v, method),
                emergent_sum(irq, x, a, v, lcfg)[0])))
            rows.append(_row("divide", irq.name, "6.3-limit", k_lim, n,
                             limit, None, limit <= tol_lim))
        pre = float(np.max(irq.metric(
            right_divide_k(irq, k_lim, a, x, method), a)))
        rows.append(_row("divide", irq.name, "6.3-prefactor", k_lim, n, pre,
                         None, pre <= tol_lim))
    return rows


_RUNNERS = {"axioms": _exp_axioms, "converge": _exp_converge,
            "reconstruct": _exp_reconstruct, "symmetric": _exp_symmetric,
            "derivative": _exp_derivative, "divide": _exp_divide}


def run_experiment(cfg):
    """Build the carrier, run the experiment, and return sorted rows."""
    irq = build_carrier(cfg["carrier"], cfg["params"])
    rows = _RUNNERS[cfg["experiment"]](irq, cfg)
    rows.sort(key=lambda r: (r["identity"],
                             r["k"] if isinstance(r["k"], int) else -(10 ** 9)))
    return rows


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render(rows, fmt):
    """Render rows to report text (CSV with fixed columns, or JSON)."""
    if fmt == "json":
        safe = [{**row, "max_residual": (row["max_residual"]
                                         if math.isfinite(row["max_residual"])
                                         else None)}
                for row in rows]
        return json.dumps(safe, indent=2, allow_nan=False) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in rows:
        writer.writerow([_format_cell(row[col]) for col in COLUMNS])
    return buf.getvalue()


def _cmd_run(args):
    file_cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}") from err
        if not isinstance(file_cfg, dict):
            raise ConfigError("config must be a JSON object")
    cfg = _resolve_config(file_cfg, args)
    try:
        rows = run_experiment(cfg)
    except NonConvergenceError as err:
        # A limit that failed to settle is a failing 5.1 uniformity row.
        trail = err.trail or [float("inf")]
        rows = [_row(cfg["experiment"], cfg["carrier"], "5.1-limit",
                     cfg["max_k"], cfg["samples"], trail[-1], None, False)]
    except InvalidPointError:
        # Experiment iterates left the carrier's numerical domain: a
        # failing row, not a configuration problem.
        rows = [_row(cfg["experiment"], cfg["carrier"], "5.1-limit",
                     cfg["max_k"], cfg["samples"], float("inf"), None,
                     False)]
    except EmergentAlgebraError as err:
        raise ConfigError(str(err)) from err
    text = render(rows, cfg["format"])
    if cfg["out"]:
        with open(cfg["out"], "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(row["passed"] for row in rows) else 1


def _cmd_list_carriers(_args):
    for name, params in carrier_registry().items():
        rendered = " ".join(
            f"{key}=<required>" if default is None else f"{key}={default}"
            for key, default in params.items())
        print(f"{name:<12} {rendered}")
    return 0


def _cmd_list_experiments(_args):
    for name, (samples, tol, blurb) in sorted(EXPERIMENTS.items()):
        print(f"{name:<12} {blurb} (defaults: samples={samples}, tol={tol})")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="emergent-irq",
        description="Numerical experiments on emergent algebras over irqs.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and write a report")
    run.add_argument("--config", help="JSON config file")
    run.add_argument("--carrier", help="carrier name (see list-carriers)")
    run.add_argument("--experiment", help="experiment name (see list-experiments)")
    run.add_argument("--seed", type=int, help="sampling seed")
    run.add_argument("--samples", type=int, help="sample count per check")
    run.add_argument("--tol", type=float, help="report tolerance")
    run.add_argument("--max-k", dest="max_k", type=int,
                     help="iteration budget for limits")
    run.add_argument("--out", help="report path (default: stdout)")
    run.add_argument("--format", choices=("csv", "json"), help="report format")
    run.set_defaults(fn=_cmd_run)

    lc = sub.add_parser("list-carriers", help="carrier names and parameters")
    lc.set_defaults(fn=_cmd_list_carriers)
    le = sub.add_parser("list-experiments", help="experiment names")
    le.set_defaults(fn=_cmd_list_experiments)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
