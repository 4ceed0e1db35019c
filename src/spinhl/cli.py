"""Command-line front end: evaluation, enumeration, correspondence inspection,
and the verification suite.

Rationals cross the JSON boundary as strings "p/q".  Exit codes: 0 success,
1 verification failure, 2 usage, pole or arithmetic error.  The SPINHL_SEED
environment variable overrides any seed given on the command line, and a
config file of ``key = value`` lines can preset the verify flags.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from .arith import ParamPoint, SpinParams, rat, rat_str
from .bijection import (
    ensemble_to_triangle,
    normalized_product,
    robbins_parameters,
    strict_ensembles,
)
from .identities import CHECK_NAMES, GAMMA_CHECKS, run_all, run_check
from .pfaffian import SkewMatrix
from .robbins import (
    damts,
    monotone_triangles,
    mt_weight,
    robbins_star_bialternant,
    robbins_star_enum,
)
from .series import f_lambda_series
from .symfun import f_lambda
from .vertex import enumerate_ensembles


def _rats(text):
    return tuple(rat(part) for part in text.split(","))


def _ints(text):
    return tuple(int(part) for part in text.split(","))


def _int_setting(text, where):
    """int(text) for a setting that does not come through argparse, with an
    error that names where the text came from."""
    try:
        return int(text)
    except ValueError:
        raise ValueError("%s must be an integer, got %r" % (where, text)) from None


def _emit(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


def _spin_from_args(args):
    values = _rats(args.spin) if args.spin else (Fraction(0),)
    p = args.p if args.p is not None else len(values) - 1
    if len(values) != p + 1:
        raise ValueError("--spin needs p prefix values followed by the tail value")
    return SpinParams(values[:p], values[p])


def _point_from_args(args, n):
    spin = _spin_from_args(args)
    u = _rats(args.u) if args.u else ()
    if len(u) != n:
        raise ValueError("--u needs exactly %d values" % n)
    return ParamPoint(rat(args.t), Fraction(1), spin, u)


def _cmd_eval_f(args):
    lam = _ints(args.lam)
    n = args.n if args.n is not None else len(lam)
    if n != len(lam):
        raise ValueError("--n disagrees with the partition length")
    if args.series:
        if args.D < 0:
            raise ValueError("need D >= 0, got D=%s" % args.D)
        spin = _spin_from_args(args)
        series = f_lambda_series(lam, spin, rat(args.t), args.D, nvars=n)
        _emit({"lambda": list(lam), "D": args.D, "series": series.to_json()})
    else:
        point = _point_from_args(args, n)
        value = f_lambda(lam, point)
        _emit({"lambda": list(lam), "value": rat_str(value)})
    return 0


def _cmd_eval_robbins(args):
    bottom = _ints(args.bottom)
    x = _rats(args.x)
    u, v, w = rat(args.u), rat(args.v), rat(args.w)
    if args.mode == "enum":
        value = robbins_star_enum(bottom, x, u, v, w)
    else:
        value = robbins_star_bialternant(bottom, x, u, v, w)
    _emit({"bottom": list(bottom), "mode": args.mode, "value": rat_str(value)})
    return 0


def _cmd_enumerate(args):
    if args.what == "ensembles":
        if not args.lam:
            raise ValueError("enumerate ensembles needs --lambda")
        ens = enumerate_ensembles(_ints(args.lam))
        _emit(
            {
                "count": len(ens),
                "ensembles": [{"occupancy": [list(row) for row in e.occ]} for e in ens],
            }
        )
    elif args.what == "triangles":
        if not args.bottom:
            raise ValueError("enumerate triangles needs --bottom")
        tris = monotone_triangles(_ints(args.bottom))
        _emit(
            {
                "count": len(tris),
                "triangles": [[list(row) for row in M.rows] for M in tris],
            }
        )
    else:
        if not args.bottom:
            raise ValueError("enumerate damts needs --bottom")
        out = []
        for D in damts(_ints(args.bottom)):
            out.append(
                {
                    "rows": [list(row) for row in D.triangle.rows],
                    "decorations": [
                        {"row": r, "col": c, "arrow": arrow}
                        for (r, c), arrow in D.decorations
                    ],
                }
            )
        _emit({"count": len(out), "damts": out})
    return 0


def _cmd_bijection(args):
    lam = _ints(args.lam)
    t = rat(args.t)
    xs = _rats(args.x)
    if len(xs) != len(lam):
        raise ValueError("--x needs one value per part")
    u, v, w = robbins_parameters(t)
    items = []
    all_equal = True
    for ens in strict_ensembles(lam):
        M = ensemble_to_triangle(ens)
        pw = normalized_product(ens, xs, t)
        tw = mt_weight(M, xs, u, v, w)
        all_equal = all_equal and pw == tw
        items.append(
            {
                "occupancy": [list(row) for row in ens.occ],
                "triangle": [list(row) for row in M.rows],
                "path_weight": rat_str(pw),
                "triangle_weight": rat_str(tw),
                "equal": pw == tw,
            }
        )
    _emit({"lambda": list(lam), "count": len(items), "weights_match": all_equal, "pairs": items})
    return 0 if all_equal else 1


def _cmd_verify(args):
    seed = args.seed
    env = os.environ.get("SPINHL_SEED")
    if env is not None:
        seed = _int_setting(env, "SPINHL_SEED")
    if args.gamma is not None and args.what not in GAMMA_CHECKS:
        only = " and ".join(GAMMA_CHECKS)
        raise ValueError("--gamma applies to verify %s only, not to %s" % (only, args.what))
    gamma = rat(args.gamma) if args.gamma is not None else None
    if args.what == "all":
        reports = run_all(n=args.n, p=args.p, D=args.D, seed=seed)
    else:
        reports = [run_check(args.what, n=args.n, p=args.p, D=args.D, seed=seed, gamma=gamma)]
    ok = all(r.passed for r in reports)
    _emit(
        {
            "seed": seed,
            "status": "pass" if ok else "fail",
            "checks": [r.to_dict() for r in reports],
        }
    )
    return 0 if ok else 1


def _cmd_pfaffian(args):
    try:
        with open(args.file) as handle:
            data = json.load(handle)
        labels = tuple(data["labels"])
        upper = {(a, b): rat(value) for a, b, value in data["entries"]}
        unlisted = [lab for pair in upper for lab in pair if lab not in labels]
        if unlisted:
            raise ValueError("entry label %r is not in \"labels\"" % (unlisted[0],))
        value = SkewMatrix(labels, upper).pfaffian()
    except KeyError as exc:
        raise ValueError("bad matrix file %s: no key %s" % (args.file, exc)) from None
    except (TypeError, ValueError) as exc:
        raise ValueError("bad matrix file %s: %s" % (args.file, exc)) from None
    _emit({"value": rat_str(value)})
    return 0


def _read_config(path):
    out = {}
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinhl",
        description="Exact evaluation and verification of spin Hall-Littlewood "
        "functions, Robbins polynomials, and their Littlewood-type identities.",
    )
    parser.add_argument("--config", help="file of key = value lines presetting verify flags")
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval-f", help="evaluate F_lambda at a point or as a series")
    pe.add_argument("--lambda", dest="lam", required=True, help="comma-separated parts")
    pe.add_argument("--n", type=int)
    pe.add_argument("--p", type=int)
    pe.add_argument("--spin", help="comma list: p prefix values then the tail")
    pe.add_argument("--u", help="comma-separated spectral values")
    pe.add_argument("--t", required=True, help="square root of q")
    pe.add_argument("--series", action="store_true")
    pe.add_argument("--D", type=int, default=4, help="series degree cap")
    pe.set_defaults(func=_cmd_eval_f)

    pr = sub.add_parser("eval-robbins", help="evaluate a modified Robbins polynomial")
    pr.add_argument("--bottom", required=True)
    pr.add_argument("--mode", choices=("enum", "bialternant"), default="enum")
    pr.add_argument("--x", required=True)
    pr.add_argument("--u", required=True)
    pr.add_argument("--v", required=True)
    pr.add_argument("--w", required=True)
    pr.set_defaults(func=_cmd_eval_robbins)

    pn = sub.add_parser("enumerate", help="list ensembles, triangles, or decorated triangles")
    pn.add_argument("what", choices=("ensembles", "triangles", "damts"))
    pn.add_argument("--lambda", dest="lam")
    pn.add_argument("--bottom")
    pn.set_defaults(func=_cmd_enumerate)

    pb = sub.add_parser("bijection", help="pair ensembles with triangles and compare weights")
    pb.add_argument("--lambda", dest="lam", required=True)
    pb.add_argument("--t", required=True)
    pb.add_argument("--x", required=True)
    pb.set_defaults(func=_cmd_bijection)

    pv = sub.add_parser("verify", help="run identity checks")
    pv.add_argument("what", choices=CHECK_NAMES + ("all",))
    pv.add_argument("--n", type=int, default=None)
    pv.add_argument("--p", type=int, default=None)
    pv.add_argument("--D", type=int, default=None)
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--gamma")
    pv.set_defaults(func=_cmd_verify)

    pp = sub.add_parser("pfaffian", help="Pfaffian of a skew matrix from a JSON file")
    pp.add_argument("--file", required=True)
    pp.set_defaults(func=_cmd_pfaffian)

    return parser


_VERIFY_DEFAULTS = {"n": 2, "p": 1, "D": 4, "seed": 7}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {}
    if args.config:
        try:
            config = _read_config(args.config)
        except OSError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
    try:
        unknown = sorted(set(config) - set(_VERIFY_DEFAULTS))
        if unknown:
            raise ValueError(
                "unknown key %r in config file %s (the keys are %s)"
                % (unknown[0], args.config, ", ".join(_VERIFY_DEFAULTS))
            )
        if args.command == "verify":
            for key, default in _VERIFY_DEFAULTS.items():
                if getattr(args, key) is None:
                    where = "key %r in config file %s" % (key, args.config)
                    setattr(args, key, _int_setting(config.get(key, default), where))
        return args.func(args)
    except (ArithmeticError, RuntimeError, ValueError, KeyError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
