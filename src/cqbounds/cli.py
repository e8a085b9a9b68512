"""Batch command-line front end.

Loads model files, runs computations and verification suites, and writes
machine-readable reports: a structured text file of ``name = value [unit]``
rows plus CSV margin tables for suites and sweeps.

Exit codes: 0 success, 2 validation or domain error, 3 precondition
(threshold) error, 4 resource-cap error.  All randomized commands require an
explicit ``--seed`` and are bit-reproducible given it.  Suites run
single-threaded, their instances evaluated as stacked arrays; the
environment variable ``CQBOUNDS_THREADS`` is still accepted but changes no
output and no work.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from . import bounds as bd
from . import bottleneck as bn
from . import verify as vf
from .entropy import LN2, relative_entropy, von_neumann_entropy
from .errors import (
    CQBoundsError,
    DomainError,
    PreconditionError,
    ResourceCapError,
    ValidationError,
)
from .hyptest import brute_force_beta_distributed, neyman_pearson_beta, product_source
from .model_io import load_model
from .operators import DensityMatrix, HermitianOperator, tensor_all

COMMANDS = (
    "entropy", "beta", "delta", "delta-star", "theta",
    "sc-bound", "image-size", "source-bound", "verify", "sweep",
)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


class Report:
    """Accumulates (name, value, unit) rows and writes them canonically."""

    def __init__(self, command: str, flags: dict, bits: bool):
        self.command = command
        self.flags = flags
        self.bits = bits
        self.rows = []

    def add(self, name: str, value, unit: str = "1"):
        if unit == "nats" and self.bits and isinstance(value, (int, float, np.floating)):
            value, unit = float(value) / LN2, "bits"
        self.rows.append((name, value, unit))

    def render(self) -> str:
        lines = ["cqbounds report", f"command = {self.command}"]
        flag_text = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(self.flags.items()))
        lines.append(f"flags = {flag_text}")
        lines.append(f"units = {'bits' if self.bits else 'nats'}")
        for name, value, unit in self.rows:
            lines.append(f"{name} = {_fmt(value)} [{unit}]")
        return "\n".join(lines) + "\n"

    def write(self, path: str):
        with _open_out(path, newline="\n") as fh:
            fh.write(self.render())


def _open_out(path: str, newline: str):
    """Open an output file for writing; an unwritable path is a validation error."""
    try:
        return open(path, "w", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise ValidationError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _write_csv(path: str, columns, rows):
    with _open_out(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _rate_in(value: float, bits: bool) -> float:
    return value * LN2 if bits else value


# ---------------------------------------------------------------------------
# command handlers


def _cmd_entropy(args, report: Report):
    src, alt = load_model(args.model)
    report.add("H_X", bd.source_entropy(src), "nats")
    report.add("S_avg_output", von_neumann_entropy(src.rho_y).nats, "nats")
    joint = src.joint_state()
    report.add("S_joint", von_neumann_entropy(joint).nats, "nats")
    report.add("I_XY", bd.source_mutual_information(src), "nats")
    report.add("H_Y_given_X", bd.source_conditional_output_entropy(src), "nats")
    report.add("eta", src.eta)
    report.add("gamma", src.gamma)
    if alt is not None:
        alt_joint = _alt_joint(src, alt)
        report.add("D_joint_vs_alt", relative_entropy(joint, alt_joint).nats, "nats")


def _alt_joint(src, alt_states) -> DensityMatrix:
    k, d = src.size, src.d_y
    out = np.zeros((k * d, k * d), dtype=complex)
    for i, (qi, s) in enumerate(zip(src.q_x, alt_states)):
        out[i * d : (i + 1) * d, i * d : (i + 1) * d] = qi * s.entries
    return DensityMatrix(out, (k, d))


def _cmd_beta(args, report: Report):
    src, alt = load_model(args.model)
    if args.r1 is not None:
        rate = _rate_in(args.r1, args.bits)
        beta, encoder, record = brute_force_beta_distributed(src, args.n, rate, args.eps)
        report.add("beta_min", beta)
        report.add("w_size", record.constants["w_size"])
        report.add("num_encoders", record.constants["num_encoders"])
        report.add("exponent_estimate", record.first_order, "nats")
        assignment = record.witnesses["assignment"]
        report.add("best_encoder", "".join(str(w) for w in assignment))
    else:
        src_n = product_source(src, args.n)
        null = src_n.joint_state()
        if alt is not None:
            alt_src = type(src)(src.alphabet, src.q_x, alt)
            alt_n = product_source(alt_src, args.n)
            alternative = alt_n.joint_state()
        else:
            alternative = DensityMatrix(
                tensor_all([src.independence_alternative()] * args.n)
            )
        beta, _ = neyman_pearson_beta(null, alternative, args.eps)
        report.add("beta", beta)
        report.add("exponent_estimate", -math.log(max(beta, 1e-300)) / args.n, "nats")


def _nu_for(src, choice: str):
    if choice == "avg":
        return HermitianOperator(src.rho_y.entries)
    if choice == "mixed":
        d = src.d_y
        return HermitianOperator(np.eye(d) / d)
    raise ValidationError(f"unknown reference state {choice!r} (use avg or mixed)")


def _cmd_delta(args, report: Report):
    src, _ = load_model(args.model)
    nu = _nu_for(src, args.nu)
    inst = bn.DeltaInstance(src.q_x, src.states, nu, args.c)
    res = bn.delta(inst)
    report.add("delta", res.value, "nats")
    for label, g in zip(src.alphabet, res.gamma):
        report.add(f"gamma_opt[{label}]", float(g))


def _cmd_delta_star(args, report: Report):
    src, _ = load_model(args.model)
    nu = _nu_for(src, args.nu)
    u_size = args.u_size if args.u_size else src.size + 1
    res = bn.delta_star(src.q_x, src.states, nu, args.c, u_size)
    report.add("delta_star", res.value, "nats")
    for j, p in enumerate(res.best.p_u):
        report.add(f"p_u[{j}]", float(p))


def _cmd_theta(args, report: Report):
    src, alt = load_model(args.model)
    alt_states = alt if alt is not None else [src.rho_y] * src.size
    rate = _rate_in(args.r1, args.bits)
    value = bd.theta_n_lower(src, alt_states, args.n, rate)
    report.add("theta_lower", value, "nats")
    report.add("n", args.n)


#: report rows that carry entropic units
_NATS_ROWS = {
    "first_order", "second_order", "third_order", "total",
    "constants.K_eps", "constants.A", "constants.r", "constants.lhs",
    "constants.margin",
}


def _report_bound(rep, report: Report):
    for name, value in rep.rows():
        report.add(name, value, "nats" if name in _NATS_ROWS else "1")


def _cmd_sc_bound(args, report: Report):
    src, _ = load_model(args.model)
    rate = _rate_in(args.r, args.bits)
    rep = bd.sc_bound_stein(src, rate, args.eps, args.n, args.u_size or None)
    _report_bound(rep, report)


def _cmd_image_size(args, report: Report):
    src, _ = load_model(args.model)
    sigma_choice = args.sigma
    if sigma_choice == "avg":
        sigma = src.rho_y
    elif sigma_choice == "mixed":
        sigma = DensityMatrix(np.eye(src.d_y) / src.d_y)
    else:
        raise ValidationError(f"unknown reference state {sigma_choice!r}")
    rep = bd.image_size_bound_ii(
        src.q_x, src, sigma, args.c, args.delta, args.eps, args.n, args.u_size or None
    )
    _report_bound(rep, report)


def _cmd_source_bound(args, report: Report):
    src, _ = load_model(args.model)
    log_w1 = _rate_in(args.log_w1, args.bits)
    first = bd.source_coding_first_order(src, log_w1, args.u_size or None)
    total = bd.source_coding_bound(src, args.eps, args.n, log_w1, args.u_size or None)
    report.add("first_order", first, "nats")
    report.add("rate_lower_bound", total, "nats")
    report.add("n", args.n)


def _cmd_verify(args, report: Report, out_base: str):
    names = list(vf.SUITES) if args.all else [args.suite]
    if not args.all and args.suite not in vf.SUITES:
        raise ValidationError(
            f"unknown suite {args.suite!r}; available: {', '.join(sorted(vf.SUITES))}"
        )
    overall = True
    csv_paths = []
    for name in names:
        res = vf.run_suite(name, args.seed, args.instances)
        overall = overall and res.passed
        report.add(f"suite[{name}].instances", res.summary["instances"])
        report.add(f"suite[{name}].min_margin", res.summary["min_margin"])
        report.add(f"suite[{name}].tolerance", res.summary["tolerance"])
        report.add(f"suite[{name}].pass", res.passed)
        path = f"{out_base}.{name}.csv"
        _write_csv(path, res.columns, res.rows)
        csv_paths.append(path)
    report.add("overall_pass", overall)
    return csv_paths


_SWEEPABLE = {
    "sc-bound": ("r", "n"),
    "source-bound": ("log-w1", "n"),
    "bottleneck": ("r",),
}


def _cmd_sweep(args, report: Report, out_base: str):
    src, _ = load_model(args.model)
    if args.quantity not in _SWEEPABLE:
        raise ValidationError(
            f"unknown sweep quantity {args.quantity!r}; available: {', '.join(_SWEEPABLE)}"
        )
    if args.param not in _SWEEPABLE[args.quantity]:
        raise ValidationError(
            f"quantity {args.quantity!r} sweeps over {_SWEEPABLE[args.quantity]}, "
            f"not {args.param!r}"
        )
    try:
        values = [float(tok) for tok in args.values.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"could not parse --values {args.values!r}") from None
    if not values:
        raise ValidationError("--values must list at least one number")
    rows = []
    for idx, raw in enumerate(values):
        if args.param in ("r", "log-w1"):
            raw_nats = _rate_in(raw, args.bits)
        else:
            raw_nats = raw
        if args.quantity == "sc-bound":
            n = int(raw_nats) if args.param == "n" else args.n
            r = raw_nats if args.param == "r" else _rate_in(args.r, args.bits)
            rep = bd.sc_bound_stein(src, r, args.eps, n, args.u_size or None)
            lhs, rhs = rep.total, rep.first_order
        elif args.quantity == "source-bound":
            n = int(raw_nats) if args.param == "n" else args.n
            w1 = raw_nats if args.param == "log-w1" else _rate_in(args.log_w1, args.bits)
            first = bd.source_coding_first_order(src, w1, args.u_size or None)
            total = bd.source_coding_bound(src, args.eps, n, w1, args.u_size or None)
            lhs, rhs = first, total
        else:
            value, _ = bd.bottleneck_sup_constrained(src, raw_nats, args.u_size or None)
            lhs, rhs = bd.source_mutual_information(src), value
        rows.append([idx, args.seed, raw, lhs, rhs, lhs - rhs])
    cols = ["instance_id", "seed", args.param, "lhs", "rhs", "margin"]
    path = f"{out_base}.sweep.csv"
    _write_csv(path, cols, rows)
    report.add("sweep_quantity", args.quantity)
    report.add("sweep_param", args.param)
    report.add("sweep_points", len(rows))
    return [path]


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqbounds",
        description="entropic quantities and strong-converse bounds for "
        "classical-quantum sources",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True):
        if model:
            p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out", default="report.txt", help="report file path")
        p.add_argument("--bits", action="store_true",
                       help="accept and emit rates/entropies in bits")

    p = sub.add_parser("entropy", help="entropic summary of a model")
    common(p)

    p = sub.add_parser("beta", help="optimal type-II error (optionally rate-limited)")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--r1", type=float, default=None, help="rate for brute-force encoding")

    p = sub.add_parser("delta", help="measure-side bottleneck functional")
    common(p)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--nu", default="avg", help="reference state: avg or mixed")

    p = sub.add_parser("delta-star", help="channel-side bottleneck functional")
    common(p)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--nu", default="avg")
    p.add_argument("--u-size", type=int, default=0)

    p = sub.add_parser("theta", help="encoded-divergence lower estimate")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r1", type=float, required=True)

    p = sub.add_parser("sc-bound", help="strong-converse bound report")
    common(p)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--u-size", type=int, default=0)

    p = sub.add_parser("image-size", help="single-letter image-size bound report")
    common(p)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--u-size", type=int, default=0)
    p.add_argument("--sigma", default="avg", help="reference state: avg or mixed")

    p = sub.add_parser("source-bound", help="source-coding rate lower bound")
    common(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--log-w1", type=float, required=True, dest="log_w1")
    p.add_argument("--u-size", type=int, default=0)

    p = sub.add_parser("verify", help="run seeded verification suites")
    common(p, model=False)
    p.add_argument("--suite", default=None)
    p.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--instances", type=int, default=None,
                   help="instances per suite; the fixed-size suites np-trend, "
                   "single-letter, soundness and sandwich ignore it")

    p = sub.add_parser("sweep", help="sweep one parameter of a bound")
    common(p)
    p.add_argument("--quantity", required=True)
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--log-w1", type=float, default=0.0, dest="log_w1")
    p.add_argument("--u-size", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    flags = {k: v for k, v in vars(args).items() if k != "command" and v is not None}
    report = Report(args.command, flags, getattr(args, "bits", False))
    out_base = args.out[:-4] if args.out.endswith(".txt") else args.out
    try:
        if args.command == "entropy":
            _cmd_entropy(args, report)
        elif args.command == "beta":
            _cmd_beta(args, report)
        elif args.command == "delta":
            _cmd_delta(args, report)
        elif args.command == "delta-star":
            _cmd_delta_star(args, report)
        elif args.command == "theta":
            _cmd_theta(args, report)
        elif args.command == "sc-bound":
            _cmd_sc_bound(args, report)
        elif args.command == "image-size":
            _cmd_image_size(args, report)
        elif args.command == "source-bound":
            _cmd_source_bound(args, report)
        elif args.command == "verify":
            if not args.all and not args.suite:
                raise ValidationError("verify needs --suite NAME or --all")
            _cmd_verify(args, report, out_base)
        elif args.command == "sweep":
            _cmd_sweep(args, report, out_base)
        report.write(args.out)
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 4
    except CQBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
