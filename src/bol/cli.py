"""Command-line entry point.

Exit codes: 0 success, 1 failed assertion, 2 usage error, 3 malformed
function spec or parameters, 4 conflicting flags, 5 resource-guard
violation.  Option precedence: config file < BOL_* environment < flags.
Reports are byte-stable JSON (schema "bol/1", sorted keys, no
timestamps) with the resolved config embedded.
"""

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import operator
import os
import sys
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from .besov import besov_orlicz_norm
from .condition import (condition_sup, section5_first_bound,
                        section5_second_bound)
from .corpus import make_corpus
from .errors import BolError, DivergenceError, DomainError, ResourceGuardError
from .evidence import (DEFAULT_MC_SEED, lemma6_check, necessity_ball_experiment,
                       sobolev_check)
from .grid import GridFunction, load_grid_function, lp_norm, total_variation
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
    "points": int, "alpha": float, "radii": str,
    "offsets": str, "r": float, "seed": int, "samples": int, "n": int,
    "tmin": float, "tmax": float,
}


class ConflictError(BolError):
    pass


class _CommandParser(argparse.ArgumentParser):
    """A command's flags: each command takes --output, and a malformed
    value there exits 3, not 2."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.add_argument("--output", default=None)

    def error(self, message):
        raise DomainError(message)


def _json(obj, pad):
    """``obj`` as the JSON text ``json.dumps(indent=2, sort_keys=True)``
    writes, at the indent ``pad`` ("\\n" and two spaces a level).  Keys
    become str, a tuple or an ndarray a list, a dataclass the dict of its
    fields, a numpy integer an int, and a float that is not finite
    (numpy's too) the string of its repr, "inf" or "nan".  Any other
    type raises ``TypeError`` as ``json`` does, np.bool_ among them."""
    # the scalars a report is mostly made of, by exact type: a numpy float
    # is a float subclass and takes the float branch further down
    kind = type(obj)
    if kind is float:
        return repr(obj) if math.isfinite(obj) else _string(repr(obj))
    if kind is str:
        return _string(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        return _json_object(obj, pad)
    if isinstance(obj, (list, tuple)):
        return _json_array(obj, pad)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _json_object({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, pad)
    if isinstance(obj, np.ndarray):
        return _json_array(obj.tolist(), pad)
    if isinstance(obj, np.integer):
        return int.__repr__(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _json(float(obj), pad)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_object(obj, pad):
    if not obj:
        return "{}"
    if not all(type(k) is str for k in obj):
        obj = {str(k): v for k, v in obj.items()}
    inner = pad + "  "
    return "{" + inner + ("," + inner).join(
        [_string(k) + ": " + _json(obj[k], inner) for k in sorted(obj)]) + pad + "}"


def _json_array(items, pad):
    if not items:
        return "[]"
    inner = pad + "  "
    body = _float_rows(items, inner)
    if body is None:
        body = ("," + inner).join([_json(v, inner) for v in items])
    return "[" + inner + body + pad + "]"


def _finite_floats(values):
    return set(map(type, values)) == {float} and math.isfinite(sum(values))


def _float_rows(items, inner):
    """The body of a list of finite floats in one join, and of a list of
    dicts that share one key set of str and hold only finite floats (the
    ``check-condition`` curve) in one template per row; None for any
    other list.  A sum that overflows merely sends a list the long way."""
    first = items[0]
    if type(first) is float:
        return ("," + inner).join(map(float.__repr__, items)) if _finite_floats(items) else None
    if type(first) is not dict or not first:
        return None
    keys = first.keys()
    if not all(type(row) is dict and row.keys() == keys for row in items) \
            or not all(type(k) is str for k in keys):
        return None
    names = sorted(keys)
    rows = list(map(operator.itemgetter(*names), items))
    if not _finite_floats(rows if len(names) == 1 else list(itertools.chain.from_iterable(rows))):
        return None
    deeper = inner + "  "
    template = "{" + deeper + ("," + deeper).join(
        [_string(k).replace("%", "%%") + ": %r" for k in names]) + inner + "}"
    return ("," + inner).join(map(template.__mod__, rows))


@contextlib.contextmanager
def _writable(path):
    """A path that cannot be written exits 3, not with a traceback."""
    try:
        yield
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc


def _emit(report, config, output=None):
    # built whole before anything is written: a value JSON lacks raises first
    text = _json({"schema": "bol/1", "config": config, "report": report}, "\n") + "\n"
    if output:
        with _writable(output), open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _float_list(text):
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise DomainError(f"malformed number list {text!r}") from exc


def staircase_fixture() -> GridFunction:
    """Two-step 1D staircase whose decomposition has exactly two layers."""
    return GridFunction(1.0, (0.0,), np.array([1.0, 1.0, 2.0, 2.0, 1.0, 1.0]))


def _resolve(args, key):
    """flag > BOL_<KEY> environment > config file > the command's builtin."""
    val = getattr(args, key)
    env = "BOL_" + key.upper()
    if val is None and env in os.environ:
        # embedded in the report's config next to the flags; builtins stay out
        val = args._resolved[key] = _convert(key, os.environ[env], env)
    elif val is None and key in args._config_values:
        val = args._resolved[key] = _convert(key, args._config_values[key], f"config key {key!r}")
    elif val is None:
        val = _COMMANDS[args.command][2][key]
    if key == "dim" and val is not None and val < 1:
        raise DomainError("dimension must be at least 1")
    return val


def _convert(key, raw, source):
    """A config value converts as its flag's text would: 2.7 is no int."""
    try:
        return _OVERRIDABLE[key](str(raw))
    except ValueError as exc:
        raise DomainError(f"malformed value {raw!r} for {source}") from exc


def _load_input(args):
    if args.input and args.fixture:
        raise ConflictError("--input and --fixture are mutually exclusive")
    if not (args.input or args.fixture):
        raise DomainError("need --input or --fixture")
    if args.fixture or not args.input.endswith(".csv"):
        # the fixture or the grid file's header fixes the layout; only the
        # flags conflict with it, not BOL_DIM or the config key dim
        given = [flag for flag in ("dim", "shape", "spacing") if getattr(args, flag) is not None]
        if given:
            raise ConflictError(f"--{', --'.join(given)} apply only to raw csv input")
        return staircase_fixture() if args.fixture else load_grid_function(args.input)
    dim = _resolve(args, "dim")
    if dim is None:
        raise DomainError("raw csv input needs --dim (no header present)")
    if dim > 1 and not args.shape:
        raise DomainError("raw csv input with dim > 1 needs --shape")
    try:
        vals = np.loadtxt(args.input, delimiter=",", ndmin=1).ravel()
        shape = tuple(int(x) for x in args.shape.split(",")) if args.shape else vals.shape
    except (OSError, ValueError) as exc:
        raise DomainError(f"unreadable csv input: {exc}") from exc
    if len(shape) != dim or math.prod(shape) != vals.size:
        raise DomainError(f"--shape must give {dim} extents holding the {vals.size} csv values")
    h = args.spacing if args.spacing is not None else 1.0
    return GridFunction(h, (0.0,) * dim, vals.reshape(shape))


def _cmd_check_condition(args):
    phi = parse_young_spec(_resolve(args, "phi"))
    psi = parse_weight_spec(_resolve(args, "psi"))
    rep = condition_sup(phi, psi, _resolve(args, "dim"),
                        s_range=(_resolve(args, "smin"), _resolve(args, "smax")),
                        n_points=_resolve(args, "points"), head_lower_limit=args.head_lower_limit)
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
        with _writable(args.csv), open(args.csv, "w") as fh:
            fh.write("s,value\n")
            fh.writelines(f"{s!r},{v!r}\n"
                          for s, v in zip(rep.s_grid.tolist(), rep.values.tolist()))
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
        with _writable(args.outdir):
            out["manifest"] = write_decomposition(dec, args.outdir)
    _emit(out, _config_dict(args), args.output)
    return code


def _cmd_norms(args):
    f = _load_input(args)
    out = {"l1": lp_norm(f, 1), "linf": lp_norm(f, np.inf), "tv": total_variation(f),
           "l2": lp_norm(f, 2.0)}
    phi_spec = _resolve(args, "phi")
    if phi_spec:
        phi = parse_young_spec(phi_spec)
        psi_spec = _resolve(args, "psi")
        if not psi_spec:
            out["orlicz"] = luxemburg_norm(f, phi).norm
        else:
            bn = besov_orlicz_norm(f, phi, parse_weight_spec(psi_spec),
                                   nodes=args.nodes if args.nodes is not None else 256,
                                   t_head=_resolve(args, "tmin"),
                                   t_tail=_resolve(args, "tmax"))
            out["orlicz"] = bn.orlicz_part
            out["besov"] = {"orlicz_part": bn.orlicz_part,
                            "seminorm_part": bn.seminorm_part,
                            "total": bn.total}
    _emit(out, _config_dict(args), args.output)
    return EXIT_OK


def _cmd_example5(args):
    alpha = _resolve(args, "alpha")
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
    phi = parse_young_spec(_resolve(args, "phi"))
    psi = parse_weight_spec(_resolve(args, "psi"))
    rec = necessity_ball_experiment(phi, psi, _resolve(args, "dim"),
                                    _float_list(_resolve(args, "radii")))
    _emit(rec, _config_dict(args), args.output)
    _print_ratio_table(rec)
    return EXIT_OK


def _print_ratio_table(rec):
    rows = rec.measured["rows"]
    sys.stderr.write(f"{'radius':>10} {'total':>12} {'ratio':>10}\n")
    for row in rows:
        sys.stderr.write(
            f"{row['radius']:>10.4g} {row['total']:>12.5g} {row['ratio']:>10.5g}\n"
        )


def _cmd_lemma6(args):
    rec = lemma6_check(_resolve(args, "dim"), _resolve(args, "r"),
                       _float_list(_resolve(args, "offsets")),
                       n_samples=_resolve(args, "samples"), seed=_resolve(args, "seed"))
    _emit(rec, _config_dict(args), args.output)
    return EXIT_OK if rec.passed else EXIT_ASSERT


def _cmd_sobolev(args):
    dim = _resolve(args, "dim")
    corpus = make_corpus(dim=dim, n=_resolve(args, "n"), seed=_resolve(args, "seed"))
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


# the grid-function source of the commands that read one; --dim is a table key
_SOURCE = [("--input", {"help": "grid file (.grid with header, or raw .csv with "
                                "--dim, --shape and --spacing)"}),
           ("--fixture", {"choices": ["staircase"]}),
           ("--shape", {"help": "comma-separated extents; raw csv input only"}),
           ("--spacing", {"type": float, "help": "raw csv input only"})]

# command -> (handler, help, {option key: builtin default}, other flags).  Each
# option key is a --<key> flag of type _OVERRIDABLE[key], and a BOL_<KEY>
# variable or config key the command reads only when the flag is absent.
_COMMANDS = {
    "check-condition": (
        _cmd_check_condition, "evaluate the two-integral condition",
        {"phi": "power:p=1.3", "psi": "powerweight:theta=0.5385", "dim": 2,
         "smin": 1e-6, "smax": 1e12, "points": 97},
        [("--head-lower-limit", {"type": float}),
         ("--csv", {"help": "write the (s, value) curve here"})]),
    "decompose": (
        _cmd_decompose, "layer decomposition of a grid function", {"dim": None},
        _SOURCE + [("--outdir", {"help": "write molecule files and manifest here"}),
                   ("--verify", {"action": "store_true"})]),
    "norms": (
        _cmd_norms, "norm bundle of a grid function",
        {"dim": None, "phi": None, "psi": None, "tmin": None, "tmax": None},
        _SOURCE + [("--nodes", {"type": int})]),
    "example5": (
        _cmd_example5, "piecewise-exponential example bounds", {"alpha": 0.1},
        [("--s-multiples", {"default": "1,10,1000",
                            "help": "scales as multiples of the matching point r"}),
         ("--x-span", {"type": float, "default": 1e5})]),
    "necessity": (
        _cmd_necessity, "ball-indicator ratio experiment",
        {"phi": "power:p=1.3", "psi": "powerweight:theta=0.5385", "dim": 2,
         "radii": "1,0.5,0.25,0.125"}, []),
    "lemma6": (
        _cmd_lemma6, "symmetric-difference lower bound",
        {"dim": 2, "r": 1.0, "offsets": "0.1,0.5,0.9", "samples": 10_000_000,
         "seed": DEFAULT_MC_SEED}, []),
    "sobolev": (_cmd_sobolev, "critical-norm vs TV ratios on a corpus",
                {"dim": 2, "n": 32, "seed": 7}, []),
    "report": (_cmd_report, "standard battery: condition + fixture + geometry", {}, []),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bol",
        description="Numerical toolkit for an Orlicz-modulus embedding of BV",
    )
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", parser_class=_CommandParser)
    for name, (_, help_text, defaults, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for key in defaults:
            command.add_argument("--" + key, type=_OVERRIDABLE[key])
        for flag, kwargs in flags:
            command.add_argument(flag, **kwargs)
    return parser


_PARSER = _build_parser()


_PATH_KEYS = {"output", "csv", "outdir", "config"}


def _config_dict(args):
    """Resolved config for provenance: the flags given plus every value
    taken from BOL_* or the config file.  Output destinations are excluded
    so identical runs emit byte-identical reports wherever they are written."""
    given = {k: v for k, v in vars(args).items()
             if not k.startswith("_") and v is not None and k not in _PATH_KEYS}
    return {**args._resolved, **given}


def parse_args(argv):
    args = _PARSER.parse_args(argv)
    if args.command is None:
        _PARSER.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)
    args._config_values = {}
    args._resolved = {}
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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parse_args(argv)
        return _COMMANDS[args.command][0](args)
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
