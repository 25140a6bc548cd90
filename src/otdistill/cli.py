"""Command-line interface.

Subcommands:
  loss      compute the loss breakdown for a pair of dumped logit files
  sinkhorn  run the alternating-normalization solver on a cost matrix CSV
  oracle    solve exact transport on a cost matrix CSV
  distill   run the toy distillation harness and write per-step metrics

Exit codes: 0 success, 2 I/O or parse error, 3 shape/limit error,
4 numeric failure.
"""

import argparse
import functools
import json
import sys

from . import fileio
from .composite import COMPONENTS, LossWeights, total_loss
from .errors import (InvalidConfig, InvalidInput, NumericalFailure,
                     NumericalUnderflow, TooLargeForExact)
from .fileio import ParseError
from .harness import MODES, DistillConfig, run_distillation
from .oracle import ASSIGNMENT, BRUTE_FORCE, exact_ot
from .seq_ot import SinkhornConfig, sd_loss, sinkhorn_plan

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SHAPE = 3
EXIT_NUMERIC = 4


def _int(text):
    # A number that is not an integer is a config value out of range (exit
    # 3); text that is not a number stays a parse error (exit 2).
    return fileio.parse_int(text, InvalidConfig)


_WEIGHT_KEYS = {
    "alpha": float, "beta": float, "gamma": float,
    "tau_sl": float, "tau_sd": float, "k": _int,
    "lambda": float, "n_iters": _int,
}
_DISTILL_KEYS = {
    "seed": _int, "m": _int, "n": _int, "T": _int,
    "contexts": _int, "steps": _int, "lr": float, "sharpness": float,
}


def _parse_config(path, schema):
    raw = fileio.load_keyvalue_config(path)
    out = {}
    for key, value in raw.items():
        if key not in schema:
            raise ParseError(f"{path}: unknown config key {key!r}")
        try:
            out[key] = schema[key](value)
        except InvalidConfig as exc:
            raise InvalidConfig(f"{path}: {key}: {exc}") from None
        except ValueError as exc:
            raise ParseError(f"{path}: bad value for {key}: {value!r}") from exc
    return out


def _weights_from(overrides):
    sink = SinkhornConfig(
        regularization=overrides.pop("lambda", SinkhornConfig.regularization),
        iterations=overrides.pop("n_iters", SinkhornConfig.iterations),
    )
    return LossWeights(sinkhorn=sink, **overrides)


def _cmd_loss(args):
    teacher = fileio.load_logit_file(args.teacher)
    student = fileio.load_logit_file(args.student)
    labels = None
    if args.labels:
        labels = fileio.load_labels_file(args.labels)
    overrides = _parse_config(args.config, _WEIGHT_KEYS) if args.config else {}
    w = _weights_from(overrides)

    breakdown = total_loss(teacher, student, labels, w)
    fields = {name: getattr(breakdown, name) for name in COMPONENTS + ("k_eff",)}
    if args.json:
        print(json.dumps(fields))
    else:
        for name, value in fields.items():
            if name == "k_eff":
                print(f"{name:6s} {value}")
            else:
                print(f"{name:6s} {value:.6f}")
    return EXIT_OK


def _cmd_sinkhorn(args):
    cost = fileio.load_matrix_csv(args.cost)
    cfg = SinkhornConfig(regularization=args.lam, iterations=args.iters)
    plan = sinkhorn_plan(cost, cfg)
    value = sd_loss(cost, plan)
    fileio.write_matrix_csv(args.out, plan)
    print(f"{value:.17g}")
    return EXIT_OK


def _cmd_oracle(args):
    cost = fileio.load_matrix_csv(args.cost)
    method = BRUTE_FORCE if args.method == "brute" else ASSIGNMENT
    result = exact_ot(cost, method)
    print(f"value {result.value:.17g}")
    print("permutation " + ",".join(str(i) for i in result.permutation))
    return EXIT_OK


def _cmd_distill(args):
    overrides = _parse_config(args.config, _DISTILL_KEYS | _WEIGHT_KEYS)
    weight_overrides = {k: overrides.pop(k) for k in list(overrides)
                        if k in _WEIGHT_KEYS}
    if "T" in overrides:
        overrides["tokens"] = overrides.pop("T")
    cfg = DistillConfig(weights=_weights_from(weight_overrides),
                        mode=args.mode, **overrides)
    try:
        metrics = run_distillation(cfg)
    except NumericalFailure as exc:
        if getattr(exc, "metrics", None) is not None:
            try:
                exc.metrics.to_csv(args.out)
            except ParseError as unwritten:
                # The failure stays the exit status, naming both errors.
                raise NumericalFailure(f"{exc}; {unwritten}") from None
        raise
    metrics.to_csv(args.out)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="otdistill",
        description="Multi-level optimal-transport distillation losses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("loss", help="loss breakdown for two logit files")
    p.add_argument("--teacher", required=True)
    p.add_argument("--student", required=True)
    p.add_argument("--labels")
    p.add_argument("--config")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_loss)

    p = sub.add_parser("sinkhorn", help="transport plan for a cost matrix CSV")
    p.add_argument("--cost", required=True)
    p.add_argument("--lambda", dest="lam", type=float,
                   default=SinkhornConfig.regularization)
    p.add_argument("--iters", type=int, default=SinkhornConfig.iterations)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sinkhorn)

    p = sub.add_parser("oracle", help="exact transport on a cost matrix CSV")
    p.add_argument("--cost", required=True)
    p.add_argument("--method", choices=["brute", "assign"], default="brute")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("distill", help="run the toy distillation harness")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=list(MODES), default=DistillConfig.mode)
    p.set_defaults(func=_cmd_distill)
    return parser


@functools.cache
def _parser():
    # One parser per process: building one costs about 1 ms and 27 kB, and
    # parse_args fills a new namespace on each call, so nothing carries over.
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InvalidInput, InvalidConfig, TooLargeForExact) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except NumericalUnderflow as exc:
        print(f"error: {exc} (try a larger --lambda)", file=sys.stderr)
        return EXIT_NUMERIC
    except NumericalFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
