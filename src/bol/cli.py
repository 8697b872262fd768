"""Command-line entry point.

Exit codes: 0 success, 1 failed assertion, 2 usage error, 3 malformed
function spec or parameters, 4 conflicting flags, 5 resource-guard
violation.  Option precedence: config file < BOL_* environment < flags.
Reports are byte-stable JSON (schema "bol/1", sorted keys, no
timestamps) with the resolved config embedded.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .besov import QuadratureConfig, besov_orlicz_norm
from .condition import (ConditionQuad, condition_sup, section5_first_bound,
                        section5_second_bound)
from .corpus import make_corpus
from .errors import BolError, DivergenceError, DomainError, ResourceGuardError
from .evidence import lemma6_check, necessity_ball_experiment, sobolev_check
from .grid import GridFunction, load_grid_function, norm_bundle
from .molecules import (decompose, default_alpha_budget, molecule_count_bound,
                        verify_r1_r2, verify_r3, write_decomposition)
from .orlicz import luxemburg_norm
from .young import SECTION5_R, parse_weight_spec, parse_young_spec

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_USAGE = 2
EXIT_SPEC = 3
EXIT_CONFLICT = 4
EXIT_GUARD = 5

_OVERRIDABLE = {
    "phi": str, "psi": str, "dim": int, "smin": float, "smax": float,
    "points": int, "quad_nodes": int, "alpha": float, "radii": str,
    "offsets": str, "r": float, "seed": int, "samples": int, "n": int,
    "tmin": float, "tmax": float,
}


class ConflictError(BolError):
    pass


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _emit(report, config, output=None):
    payload = {"schema": "bol/1", "config": _jsonable(config),
               "report": _jsonable(report)}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _float_list(text):
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise DomainError(f"malformed number list {text!r}") from exc


def staircase_fixture() -> GridFunction:
    """Two-step 1D staircase whose decomposition has exactly two layers."""
    return GridFunction(1.0, (0.0,), np.array([1.0, 1.0, 2.0, 2.0, 1.0, 1.0]))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bol",
        description="Numerical toolkit for an Orlicz-modulus embedding of BV",
    )
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command")

    # the grid-function source, shared by the commands that read one
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--input", help="grid file (.grid with header, or raw .csv)")
    source.add_argument("--fixture", choices=["staircase"])
    source.add_argument("--dim", type=int, default=None)
    source.add_argument("--shape", help="comma-separated extents for raw csv input")
    source.add_argument("--spacing", type=float, default=None)

    pc = sub.add_parser("check-condition", help="evaluate the two-integral condition")
    pc.add_argument("--phi", default=None)
    pc.add_argument("--psi", default=None)
    pc.add_argument("--dim", type=int, default=None)
    pc.add_argument("--smin", type=float, default=None)
    pc.add_argument("--smax", type=float, default=None)
    pc.add_argument("--points", type=int, default=None)
    pc.add_argument("--quad-nodes", type=int, default=None, dest="quad_nodes")
    pc.add_argument("--head-lower-limit", type=float, default=None)
    pc.add_argument("--csv", help="write the (s, value) curve here")
    pc.add_argument("--output", default=None)

    pd = sub.add_parser("decompose", parents=[source],
                        help="layer decomposition of a grid function")
    pd.add_argument("--outdir", help="write molecule files and manifest here")
    pd.add_argument("--verify", action="store_true")
    pd.add_argument("--output", default=None)

    pn = sub.add_parser("norms", parents=[source], help="norm bundle of a grid function")
    pn.add_argument("--phi", default=None)
    pn.add_argument("--psi", default=None)
    pn.add_argument("--tmin", type=float, default=None)
    pn.add_argument("--tmax", type=float, default=None)
    pn.add_argument("--nodes", type=int, default=None)
    pn.add_argument("--output", default=None)

    pe = sub.add_parser("example5", help="piecewise-exponential example bounds")
    pe.add_argument("--alpha", type=float, default=None)
    pe.add_argument("--s-multiples", default="1,10,1000",
                    help="scales as multiples of the matching point r")
    pe.add_argument("--x-span", type=float, default=1e5)
    pe.add_argument("--output", default=None)

    pb = sub.add_parser("necessity", help="ball-indicator ratio experiment")
    pb.add_argument("--phi", default=None)
    pb.add_argument("--psi", default=None)
    pb.add_argument("--dim", type=int, default=None)
    pb.add_argument("--radii", default=None)
    pb.add_argument("--output", default=None)

    pl = sub.add_parser("lemma6", help="symmetric-difference lower bound")
    pl.add_argument("--dim", type=int, default=None)
    pl.add_argument("--r", type=float, default=None)
    pl.add_argument("--offsets", default=None)
    pl.add_argument("--samples", type=int, default=None)
    pl.add_argument("--seed", type=int, default=None)
    pl.add_argument("--output", default=None)

    ps = sub.add_parser("sobolev", help="critical-norm vs TV ratios on a corpus")
    ps.add_argument("--dim", type=int, default=None)
    ps.add_argument("--n", type=int, default=None)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--output", default=None)

    pr = sub.add_parser("report", help="standard battery: condition + fixture + geometry")
    pr.add_argument("--output", default=None)

    return parser


def _resolve(args, key, builtin):
    """flag > BOL_<KEY> environment > config file > builtin default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    env = os.environ.get("BOL_" + key.upper())
    if env is not None:
        return _convert(key, env, "BOL_" + key.upper())
    if args._config_values and key in args._config_values:
        return _convert(key, args._config_values[key], f"config key {key!r}")
    return builtin


def _convert(key, raw, source):
    try:
        return _OVERRIDABLE.get(key, str)(raw)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"malformed value {raw!r} for {source}") from exc


def _resolve_dim(args):
    dim = _resolve(args, "dim", 2)
    if dim < 1:
        raise DomainError("dimension must be at least 1")
    return dim


def _load_input(args):
    if args.input and args.fixture:
        raise ConflictError("--input and --fixture are mutually exclusive")
    if args.fixture == "staircase":
        return staircase_fixture()
    if not args.input:
        raise DomainError("need --input or --fixture")
    if args.input.endswith(".csv"):
        if args.dim is None:
            raise DomainError("raw csv input needs --dim (no header present)")
        vals = np.loadtxt(args.input, delimiter=",", ndmin=1).ravel()
        if args.shape:
            shape = tuple(int(x) for x in args.shape.split(","))
        elif args.dim == 1:
            shape = (vals.size,)
        else:
            raise DomainError("raw csv input with dim > 1 needs --shape")
        if len(shape) != args.dim:
            raise DomainError("--shape length must equal --dim")
        h = args.spacing if args.spacing is not None else 1.0
        return GridFunction(h, (0.0,) * args.dim, vals.reshape(shape))
    return load_grid_function(args.input)


def _cmd_check_condition(args):
    phi = parse_young_spec(_resolve(args, "phi", "power:p=1.3"))
    psi = parse_weight_spec(_resolve(args, "psi", "powerweight:theta=0.5385"))
    dim = _resolve_dim(args)
    smin = float(_resolve(args, "smin", 1e-6))
    smax = float(_resolve(args, "smax", 1e12))
    points = int(_resolve(args, "points", 97))
    quad = ConditionQuad()
    qn = _resolve(args, "quad_nodes", None)
    if qn is not None:
        quad = ConditionQuad(n_mid=int(qn))
    rep = condition_sup(phi, psi, dim, s_range=(smin, smax), n_points=points,
                        quad=quad, head_lower_limit=args.head_lower_limit)
    out = {
        "verdict": rep.verdict,
        "D_hat": rep.D_hat,
        "argmax_s": rep.argmax_s,
        "head_slope": rep.head_slope,
        "tail_slope": rep.tail_slope,
        "diverged_s": rep.diverged_s,
        "curve": [{"s": s, "value": v}
                  for s, v in zip(rep.s_grid.tolist(), rep.values.tolist())],
    }
    if args.csv:
        _write_csv(args.csv, ["s", "value"], zip(rep.s_grid, rep.values))
    _emit(out, _config_dict(args), args.output)
    return EXIT_OK  # a verdict is a finding, not a failure


def _cmd_decompose(args):
    f = _load_input(args)
    dec = decompose(f)
    out = {
        "molecules": len(dec.molecules),
        "count_bound": molecule_count_bound(dec),
        "alpha_observed": dec.alpha_observed,
        "alpha_budget": default_alpha_budget(f.dim, 0.25),
    }
    code = EXIT_OK
    if args.verify:
        add = verify_r1_r2(dec)
        ratio_max, _ = verify_r3(dec)
        out["additivity"] = {
            "reconstruction_exact": add.reconstruction_exact,
            "l1_rel_error": add.l1_rel_error,
            "tv_rel_error": add.tv_rel_error,
            "halving_ok": add.halving_ok,
        }
        out["ratio_max"] = ratio_max
        ok = add.all_pass and len(dec.molecules) <= out["count_bound"] \
            and ratio_max <= out["alpha_budget"] + 1e-12
        out["pass"] = ok
        if not ok:
            code = EXIT_ASSERT
    if args.outdir:
        out["manifest"] = write_decomposition(dec, args.outdir)
    _emit(out, _config_dict(args), args.output)
    return code


def _cmd_norms(args):
    f = _load_input(args)
    nb = norm_bundle(f, ps=(2.0,))
    out = {"l1": nb.l1, "linf": nb.linf, "tv": nb.tv, "l2": nb.lp(2.0)}
    phi_spec = _resolve(args, "phi", None)
    if phi_spec:
        phi = parse_young_spec(phi_spec)
        out["orlicz"] = luxemburg_norm(f, phi).norm
        psi_spec = _resolve(args, "psi", None)
        if psi_spec:
            psi = parse_weight_spec(psi_spec)
            quad = QuadratureConfig(
                nodes=int(args.nodes) if args.nodes else 256,
                t_head=_resolve(args, "tmin", None),
                t_tail=_resolve(args, "tmax", None),
            )
            bn = besov_orlicz_norm(f, phi, psi, quad)
            out["besov"] = {"orlicz_part": bn.orlicz_part,
                            "seminorm_part": bn.seminorm_part,
                            "total": bn.total}
    _emit(out, _config_dict(args), args.output)
    return EXIT_OK


def _cmd_example5(args):
    alpha = float(_resolve(args, "alpha", 0.1))
    multiples = _float_list(args.s_multiples)
    s_list = [m * SECTION5_R for m in multiples]
    rows = section5_first_bound(alpha, s_list)
    second, remainder = section5_second_bound(alpha, SECTION5_R, x_span=args.x_span)
    out = {
        "alpha": alpha,
        "r": SECTION5_R,
        "first_bound": [
            {"s_over_r": m, "value": v, "intermediate": inter, "below_two": ok}
            for m, (_, v, inter, ok) in zip(multiples, rows)
        ],
        "second_bound": {"value": second, "remainder": remainder},
    }
    ok = all(r[3] for r in rows)
    out["pass"] = ok
    _emit(out, _config_dict(args), args.output)
    return EXIT_OK if ok else EXIT_ASSERT


def _cmd_necessity(args):
    phi = parse_young_spec(_resolve(args, "phi", "power:p=1.3"))
    psi = parse_weight_spec(_resolve(args, "psi", "powerweight:theta=0.5385"))
    dim = _resolve_dim(args)
    radii = _float_list(_resolve(args, "radii", "1,0.5,0.25,0.125"))
    rec = necessity_ball_experiment(phi, psi, dim, radii)
    _emit(rec, _config_dict(args), args.output)
    _print_ratio_table(rec)
    return EXIT_OK if rec.passed else EXIT_ASSERT


def _print_ratio_table(rec):
    rows = rec.measured["rows"]
    sys.stderr.write(f"{'radius':>10} {'total':>12} {'ratio':>10}\n")
    for row in rows:
        sys.stderr.write(
            f"{row['radius']:>10.4g} {row['total']:>12.5g} {row['ratio']:>10.5g}\n"
        )


def _cmd_lemma6(args):
    dim = _resolve_dim(args)
    r = float(_resolve(args, "r", 1.0))
    offsets = _float_list(_resolve(args, "offsets", "0.1,0.5,0.9"))
    samples = int(_resolve(args, "samples", 10_000_000))
    seed = _resolve(args, "seed", None)
    kwargs = {"n_samples": samples}
    if seed is not None:
        kwargs["seed"] = int(seed)
    rec = lemma6_check(dim, r, offsets, **kwargs)
    _emit(rec, _config_dict(args), args.output)
    return EXIT_OK if rec.passed else EXIT_ASSERT


def _cmd_sobolev(args):
    dim = _resolve_dim(args)
    n = int(_resolve(args, "n", 32))
    seed = int(_resolve(args, "seed", 7))
    corpus = make_corpus(seed=seed, dim=dim, n=n)
    rec = sobolev_check(corpus, dim)
    _emit(rec, _config_dict(args), args.output)
    return EXIT_OK if rec.passed else EXIT_ASSERT


def _cmd_report(args):
    phi = parse_young_spec("power:p=1.3")
    psi = parse_weight_spec("powerweight:theta=0.5385")
    cond = condition_sup(phi, psi, 2, s_range=(1e-4, 1e8), n_points=33)
    dec = decompose(staircase_fixture())
    add = verify_r1_r2(dec)
    geo = lemma6_check(2, 1.0, [0.1, 0.5, 0.9])
    ok = add.all_pass and geo.passed
    out = {
        "condition": {"verdict": cond.verdict, "D_hat": cond.D_hat},
        "staircase": {"molecules": len(dec.molecules),
                      "additivity_ok": add.all_pass},
        "geometry": {"passed": geo.passed},
        "pass": ok,
    }
    _emit(out, _config_dict(args), args.output)
    return EXIT_OK if ok else EXIT_ASSERT


_COMMANDS = {
    "check-condition": _cmd_check_condition,
    "decompose": _cmd_decompose,
    "norms": _cmd_norms,
    "example5": _cmd_example5,
    "necessity": _cmd_necessity,
    "lemma6": _cmd_lemma6,
    "sobolev": _cmd_sobolev,
    "report": _cmd_report,
}


_PATH_KEYS = {"output", "csv", "outdir", "config"}


def _config_dict(args):
    """Resolved config for provenance; output destinations are excluded so
    identical runs emit byte-identical reports wherever they are written."""
    return {k: v for k, v in sorted(vars(args).items())
            if not k.startswith("_") and v is not None and k not in _PATH_KEYS}


def parse_args(argv):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)
    args._config_values = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DomainError(f"unreadable config file: {exc}") from exc
        if not isinstance(cfg, dict):
            raise DomainError("config file must hold a JSON object")
        unknown = set(cfg) - set(_OVERRIDABLE)
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        args._config_values = cfg
    return args


def run(args) -> int:
    return _COMMANDS[args.command](args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parse_args(argv)
        return run(args)
    except ConflictError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFLICT
    except ResourceGuardError as exc:
        sys.stderr.write(f"error: {exc} (guard: {exc.guard})\n")
        return EXIT_GUARD
    except (DomainError, DivergenceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SPEC
    except BolError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ASSERT


if __name__ == "__main__":
    raise SystemExit(main())
