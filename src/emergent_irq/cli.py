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
2 for configuration errors.  The identities reported depend only on the
experiment and the carrier: a computation whose limit does not settle, or
whose iterates leave the carrier, fails each row it would have reported.
Reports are byte-identical across reruns of the same config and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from .calculus import MapBetweenCarriers, check_derivative_morphism, derivative
from .carriers import build_carrier, carrier_registry
from .core import (AxiomReport, check_irq_axioms, identity_names,
                   sample_tuples, star_k)
from .division import (DivisionMethod, check_involution, check_loos_axioms,
                       default_division_method, loop_isotope_k,
                       loos_identity_names, right_divide_k)
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
    for key in ("carrier", "experiment", "seed", "samples", "tol", "max_k",
                "out", "format"):
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag

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


def _row(identity, k, samples, residual, passed, rate=None):
    return {"identity": identity, "k": k, "samples": int(samples),
            "max_residual": float(residual),
            "rate": None if rate is None or math.isnan(rate) else float(rate),
            "passed": bool(passed)}


def _report_rows(reports, k=None, rate=None):
    return [_row(rep.identity, k, rep.samples, rep.max_residual, rep.passed,
                 rate) for rep in reports]


def _guard(cfg, names, k, compute, *args):
    """Rows of ``compute(*args)``, or failing rows when it cannot finish.

    A limit that does not settle (:class:`NonConvergenceError`) or iterates
    that leave the carrier (:class:`InvalidPointError`) fail one row per
    identity in ``names``, the identities ``compute`` reports on success,
    at level ``k`` and the last step of the residual trail (inf without one).
    """
    try:
        return compute(*args)
    except (NonConvergenceError, InvalidPointError) as err:
        trail = getattr(err, "trail", None) or [float("inf")]
        return [_row(name, k, cfg["samples"], trail[-1], False)
                for name in names]


def _check(irq, cfg, name, pairs, tol=None, k=None):
    """One guarded row judging the (lhs, rhs) pairs that ``pairs()`` lists."""
    tol = cfg["tol"] if tol is None else tol
    return _guard(cfg, [name], k, lambda: _report_rows(
        [AxiomReport.judge(irq, name, cfg["samples"], pairs(), tol)], k))


def _sampling(cfg):
    return {"samples": cfg["samples"], "seed": cfg["seed"],
            "radius": cfg["radius"]}


def _need_uniform(irq, experiment):
    if not irq.is_uniform:
        raise ConfigError(
            f"experiment {experiment!r} needs a uniform carrier; "
            f"{irq.name!r} is not")


def _exp_axioms(irq, cfg):
    return _guard(cfg, identity_names(), None, lambda: _report_rows(
        check_irq_axioms(irq, seed=cfg["seed"], count=cfg["samples"],
                         radius=cfg["radius"], tol=cfg["tol"])))


def _limit_config(cfg, consumer_tol, margin=100.0, extrapolate=True):
    """Limits for rows that use only a limit's value, Richardson-extrapolated
    where the carrier allows; ``extrapolate=False`` keeps the raw levels
    for rows that report a limit's stop level or rate."""
    return LimitConfig.within(consumer_tol, margin, max_k=cfg["max_k"],
                              extrapolate=extrapolate)


def _exp_converge(irq, cfg):
    _need_uniform(irq, "converge")
    x, u, v = sample_tuples(irq, cfg["seed"], cfg["samples"], cfg["radius"], 3)
    lcfg = _limit_config(cfg, cfg["tol"], extrapolate=False)
    g = irq.group if (irq.group is not None and irq.group.is_morphism) else None
    ops = {"sum": (lambda: emergent_sum(irq, x, u, v, lcfg),
                   lambda: g.mul(g.mul(u, g.inv(x)), v)),
           "dif": (lambda: emergent_difference(irq, x, u, v, lcfg),
                   lambda: g.mul(g.mul(x, g.inv(u)), v)),
           "inv": (lambda: emergent_inverse(irq, x, u, lcfg),
                   lambda: g.mul(g.mul(x, g.inv(u)), x))}

    def limit_rows(name, compute, oracle):
        value, rep = compute()
        rows = [_row(f"5.1-{name}", rep.stop_k, cfg["samples"],
                     rep.residual_trail[-1], True, rep.estimated_rate)]
        if g is not None:
            rows += _report_rows([AxiomReport.judge(
                irq, f"4.6-{name}", cfg["samples"], [(value, oracle())],
                cfg["tol"])], rep.stop_k)
        return rows

    rows = []
    for name, (compute, oracle) in ops.items():
        # The 4.6 row checks the 5.1 limit's value, so it fails with it.
        names = [f"5.1-{name}"] + [f"4.6-{name}"] * (g is not None)
        rows += _guard(cfg, names, cfg["max_k"], limit_rows, name, compute,
                       oracle)
    return rows


def _exp_reconstruct(irq, cfg):
    _need_uniform(irq, "reconstruct")
    lcfg = _limit_config(cfg, cfg["tol"])
    try:
        rec = reconstruct_group(irq, irq.base, lcfg,
                                tol=max(cfg["tol"], 1e-6), **_sampling(cfg))
    except DistributivityError as err:
        return _report_rows([err.report])
    x, y, z = sample_tuples(irq, cfg["seed"], cfg["samples"], cfg["radius"], 3)

    def dif(a, b, c):
        return emergent_difference(irq, a, b, c, lcfg)[0]

    checks = {"6.1iii": lambda: [(rec.star(x, y), irq.star(x, y))],
              "6.2": lambda: [(emergent_sum(irq, x, y, z, lcfg)[0],
                               dif(y, x, z))]}
    g = irq.group
    if g is not None:
        checks["6.1i"] = lambda: [(rec.product(x, y), g.mul(x, y))]
        checks["6.1ii"] = lambda: [(dif(x, y, z),
                                    g.mul(g.mul(x, g.inv(y)), z))]
    rows = _report_rows([rec.distributivity])
    for name, pairs in checks.items():
        rows += _check(irq, cfg, name, pairs)
    return rows


def _exp_symmetric(irq, cfg):
    rows = _report_rows([check_involution(irq, tol=cfg["tol"],
                                          **_sampling(cfg))])
    if irq.is_uniform:
        lcfg = _limit_config(cfg, cfg["tol"], 4.0)
        rows += _guard(cfg, loos_identity_names(irq), None, lambda: (
            _report_rows(check_loos_axioms(irq, lcfg, tol=cfg["tol"],
                                           **_sampling(cfg)))))
    return rows


def _exp_derivative(irq, cfg):
    _need_uniform(irq, "derivative")
    # Tf-id and Tf-delta report their limit's stop level (and rate), so
    # they keep the raw levels; Tf-morphism uses only values.
    lcfg = _limit_config(cfg, cfg["tol"], 10.0, extrapolate=False)
    x = irq.base
    u = irq.sample(cfg["seed"], cfg["samples"], cfg["radius"])
    n, tol, g = cfg["samples"], cfg["tol"], irq.group

    def tf_id(m):
        value, rep = derivative(m, x, u, lcfg)
        return _report_rows([AxiomReport.judge(irq, "Tf-id", n, [(value, u)],
                                               tol)], rep.stop_k)

    def tf_delta(m):
        value, rep = derivative(m, x, u, lcfg)
        tol_delta = max(tol, lcfg.tol * 10)
        if g.is_morphism:
            report = AxiomReport.judge(irq, "Tf-delta", n,
                                       [(value, g.delta(u))], tol_delta)
        else:
            report = AxiomReport.from_residual(
                "Tf-delta", n, rep.residual_trail[-1], tol_delta)
        return _report_rows([report], rep.stop_k, rep.estimated_rate)

    target = MapBetweenCarriers(irq, irq, lambda p: p, name="id")
    rows = _guard(cfg, ["Tf-id"], cfg["max_k"], tf_id, target)
    if g is not None and g.delta is not None:
        target = MapBetweenCarriers(irq, irq, g.delta, name="delta")
        rows += _guard(cfg, ["Tf-delta"], cfg["max_k"], tf_delta, target)
    rows += _guard(cfg, ["Tf-morphism"], None, lambda: _report_rows(
        [check_derivative_morphism(target, x,
                                   _limit_config(cfg, tol, 10.0), tol=tol,
                                   **_sampling(cfg))]))
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

    def level_rows(k):
        y = right_divide_k(irq, k, b, a, method)
        rows = _report_rows([AxiomReport.judge(
            irq, "6.3", n, [(star_k(irq, k, y, a), b)], method.tol)], k)
        return rows + _check(irq, cfg, "6.3-loop", lambda: [
            (loop_isotope_k(irq, k, x, x, v, method), v),
            (loop_isotope_k(irq, k, x, a, x, method), a)], k=k)

    rows = []
    for k in (-1, 1, 2, 3):
        # 6.3-loop divides at the same level, so it fails with 6.3.
        try:
            rows += _guard(cfg, ["6.3", "6.3-loop"], k, level_rows, k)
        except UnsupportedCarrierError:
            continue
    if not rows:
        raise ConfigError(
            f"carrier {irq.name!r} supports right division at no level in "
            "the grid (-1, 1, 2, 3)")
    if irq.is_uniform:
        tol_lim = max(cfg["tol"], 1e-6)
        # a /_k x lies about eps^k d(a, x) from a, and sampled points lie
        # within 2 * radius of each other: the smallest level k >= 30 where
        # that bound is within the row tolerance, at most max_k - 1.
        k_lim = min(30, cfg["max_k"] - 1)
        while (k_lim < cfg["max_k"] - 1
               and irq.epsilon ** k_lim * 2.0 * cfg["radius"] > tol_lim):
            k_lim += 1
        # The loop isotopes converge to the tangent sum when the dilation
        # is a group morphism; without that the two limits genuinely
        # differ (the isotope limit here need not be the tangent sum), so
        # the comparison row is only claimed on morphism carriers.
        if irq.group is not None and irq.group.is_morphism:
            lcfg = _limit_config(cfg, tol_lim)
            rows += _check(irq, cfg, "6.3-limit", lambda: [(
                loop_isotope_k(irq, k_lim, x, a, v, method),
                emergent_sum(irq, x, a, v, lcfg)[0])], tol_lim, k_lim)
        rows += _check(irq, cfg, "6.3-prefactor", lambda: [(
            right_divide_k(irq, k_lim, a, x, method), a)], tol_lim, k_lim)
    return rows


_RUNNERS = {"axioms": _exp_axioms, "converge": _exp_converge,
            "reconstruct": _exp_reconstruct, "symmetric": _exp_symmetric,
            "derivative": _exp_derivative, "divide": _exp_divide}


def run_experiment(cfg):
    """Build the carrier, run the experiment, and return sorted rows."""
    irq = build_carrier(cfg["carrier"], cfg["params"])
    rows = [{"experiment": cfg["experiment"], "carrier": irq.name, **row}
            for row in _RUNNERS[cfg["experiment"]](irq, cfg)]
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
