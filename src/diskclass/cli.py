"""Command-line front end.

Every subcommand prints a JSON report (pretty by default, canonical
single-line with --json) that echoes its full effective configuration, so
any run can be reproduced from its own output.  Exit codes: 0 success/IN,
3 OUT, 4 BOUNDARY, 2 usage or input errors.

A subcommand is one ``_COMMANDS`` row; ``build_parser`` and ``main`` read
nothing else.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import replace
from functools import cache

import numpy as np

from .catalog import DiskFunction, catalog_ids, make_catalog
from .errors import ArgumentOutOfDomain, DiskClassError, ParamOutOfRange
from .explorer import CAMPAIGNS, CampaignConfig, run_campaign, write_rows_csv
from .hankel import hankel_det
from .membership import CLASS_TAGS, ScanPolicy, radius_of, test_class
from .operators import decompose, g_transform, u_operator
from .serialize import _canon, canonical_json, complex_pair
from .series import DEFAULT_ORDER, ComplexSeries

VERDICT_EXIT = {"IN": 0, "OUT": 3, "BOUNDARY": 4}


def _emit(payload: dict, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(payload) + "\n")
        return
    if args.json:
        print(canonical_json(payload))
    else:
        print(json.dumps(_canon(payload), indent=2, sort_keys=True))


def _given(args, *keys) -> dict:
    """The flags among ``keys`` given on the command line; a flag that the
    subcommand does not define is never given."""
    return {key: value for key in keys if (value := getattr(args, key, None)) is not None}


def _policy(args, base=None) -> ScanPolicy:
    """The policy ``base`` (by default the default one) updated by the flags given."""
    return replace(base or ScanPolicy(), **_given(args, "r_max", "grid", "delta"))


def _read_json_object(path: str) -> dict:
    """The JSON object in a file; anything else raises DiskClassError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise DiskClassError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise DiskClassError(f"{path} does not hold a JSON object")
    return data


def _order(args) -> int:
    return DEFAULT_ORDER if args.order is None else args.order


def _function_from(args) -> DiskFunction:
    if args.series_file:
        if args.id is not None or args.b is not None:
            raise DiskClassError("--series-file takes neither --id nor --b")
        if args.order is not None:
            raise DiskClassError("--series-file takes no --order: the file sets it")
        data = _read_json_object(args.series_file)
        f = DiskFunction.from_series(ComplexSeries.from_json_dict(data))
    elif args.id:
        if args.id == "fb" and args.b is None:
            raise DiskClassError("--id fb requires --b")
        params = None if args.b is None else {"b": args.b}
        f = make_catalog(args.id, params, order=_order(args))
        if args.of_g and f.quotient.order < f.order:  # g takes the quotient's order
            f = make_catalog(args.id, params, order=f.order + 1)
    else:
        raise DiskClassError("provide --id or --series-file")
    if args.of_g:
        f = g_transform(f)
    return f


def _flag(*names, **options):
    """One flag, as the ``(names, options)`` pair ``add_argument`` takes."""
    return names, options


_FUNCTION = (
    _flag("--id", help="catalog id (see the catalog subcommand)"),
    _flag("--b", type=float, help="parameter of the fb family"),
    _flag("--series-file", help="JSON file with a Taylor series"),
    _flag("--of-g", action="store_true",
          help="apply the normalized transform g before testing"),
    _flag("--order", type=int, help=f"series order (default {DEFAULT_ORDER})"),
)
_GRID = (_flag("--grid", type=int, help="circle grid size (default 4096)"),)
_VERDICT_POLICY = _GRID + (  # a radius search reads neither of these
    _flag("--r-max", type=float, help="scan radius (default 1 - 2^-10)"),
    _flag("--delta", type=float, help="verdict margin (default 1e-6)"),
)
_OUT = (
    _flag("--json", action="store_true",
          help="canonical single-line JSON instead of pretty"),
    _flag("--out", help="write the report to this file"),
)


def _parse_point(text: str) -> complex:
    try:
        return complex(text)
    except ValueError:
        pass
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise DiskClassError(f"cannot parse point {text!r}") from exc


def _parse_range(text: str):
    lo, _, hi = text.partition(":")
    try:
        return (float(lo), float(hi))
    except ValueError as exc:
        raise ParamOutOfRange(f"--a2 expects lo:hi, got {text!r}") from exc


def _echo_function(args) -> dict:
    if args.series_file:
        return {"series_file": args.series_file, "of_g": bool(args.of_g)}
    return {"id": args.id, "b": args.b, "of_g": bool(args.of_g), "order": _order(args)}


def _membership(f, args):
    policy = _policy(args)
    report = test_class(f, args.class_tag, policy, alpha=args.alpha)
    return ({"class": args.class_tag, "alpha": args.alpha, "policy": policy.to_dict()},
            report.to_dict(), VERDICT_EXIT[report.verdict])


def _hankel(f, args):
    return {"q": args.q, "n": args.n}, hankel_det(f, args.q, args.n).to_dict(), 0


def _radius(f, args):
    policy = _policy(args)
    res = radius_of(f, args.class_tag, tol=args.tol, policy=policy, alpha=args.alpha)
    return ({"class": args.class_tag, "alpha": args.alpha, "tol": args.tol,
             "policy": policy.to_dict()}, res.to_dict(), 0)


def _campaign(args):
    base = _read_json_object(args.config) if args.config else {}
    base.update(_given(args, "campaign", "samples", "seed", "order", "shrink"))
    if args.a2:
        base["a2_range"] = _parse_range(args.a2)
    if "campaign" not in base:
        raise DiskClassError("campaign kind missing: pass --kind or --config")
    cfg = CampaignConfig.from_dict(base)
    cfg = replace(cfg, policy=_policy(args, cfg.policy))
    report = run_campaign(cfg, keep_rows=bool(args.csv))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            write_rows_csv(report, fh)
        report.pop("per_sample", None)
    return report, 0


def _decompose(f, args):
    return {}, decompose(f).to_dict(), 0


def _eval(f, args):
    z = _parse_point(args.point)
    if not abs(z) < 1.0:
        raise ArgumentOutOfDomain(f"point {z!r} lies outside the open unit disk")
    u = u_operator(f)(z)
    pt = np.array([z])
    fz, f1, f2 = (complex(v[0]) for v in f.kernel.f_jet(pt, 2))
    return {"point": complex_pair(z)}, {
        "f": complex_pair(fz),
        "f_prime": complex_pair(f1),
        "f_second": complex_pair(f2),
        "quotient_h": complex_pair(complex(f.kernel.h_jet(pt, 0)[0][0])),
        "deviation_u": complex_pair(u),
        "deviation_u_abs": abs(u),
    }, 0


def _catalog(args):
    extra = {"fb": {"params": {"b": "(0, 2] required"}}}
    return {"catalog": [{"id": cid, **extra.get(cid, {})} for cid in catalog_ids()]}, 0


# name: (help, on_function, flags, run).  A function's subcommand
# (on_function) also takes the _FUNCTION flags, and its run takes (f, args)
# and returns (config entries, report, exit code); any other run takes args
# and returns (payload, exit code).
_COMMANDS = {
    "membership": ("three-way class membership verdict", True, (
        _flag("--class", dest="class_tag", required=True,
              help=f"one of {', '.join(CLASS_TAGS)}"),
        _flag("--alpha", type=float, help="alpha for the mocanu family"),
        *_VERDICT_POLICY), _membership),
    "hankel": ("Hankel determinant of Taylor coefficients", True, (
        _flag("--q", type=int, required=True),
        _flag("--n", type=int, required=True)), _hankel),
    "radius": ("largest radius on which a property holds", True, (
        _flag("--class", dest="class_tag", required=True),
        _flag("--alpha", type=float),
        _flag("--tol", type=float, default=1e-4),
        *_GRID), _radius),
    "campaign": ("seeded randomized campaign", False, (
        _flag("--kind", dest="campaign", choices=CAMPAIGNS),
        _flag("--samples", type=int),
        _flag("--seed", type=int),
        _flag("--order", type=int),
        _flag("--a2", help="range lo:hi of |a2|"),
        _flag("--shrink", type=float),
        _flag("--config", help="JSON file mirroring the campaign config"),
        _flag("--csv", help="also write per-sample rows to this CSV file"),
        *_VERDICT_POLICY), _campaign),
    "decompose": ("split f into (a2, omega1, c1..c3)", True, (), _decompose),
    "eval": ("evaluate f and its functionals at a point", True, (
        _flag("point", help="complex point, e.g. 0.99 or 0.3+0.4j or 0.3,0.4"),),
        _eval),
    "catalog": ("list built-in function ids", False, (), _catalog),
}


def build_parser() -> argparse.ArgumentParser:
    """A new parser with one subcommand per ``_COMMANDS`` row."""
    p = argparse.ArgumentParser(
        prog="diskclass",
        description="Numerical toolkit for a class of non-vanishing "
                    "normalized analytic functions on the unit disk.")
    subs = p.add_subparsers(dest="command", required=True)
    for name, (help_, on_function, flags, _) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_)
        for names, options in (_FUNCTION if on_function else ()) + flags + _OUT:
            sub.add_argument(*names, **options)
    return p


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses for the life of the process: parsing keeps
    no state in the parser, and building one costs far more than a parse.
    ``build_parser`` returns a new parser on every call."""
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand on ``argv`` (default: the process arguments),
    print its report and return the exit code of the module docstring."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["eval"]:
        # argparse takes a point such as -0.4j or -0.1-0.2j for an option; a
        # leading space, which complex() and float() ignore, keeps it a value
        argv = [" " + a if re.fullmatch(r"-\.?\d[\d.eEjJ+,-]*", a) else a for a in argv]
    args = _parser().parse_args(argv)
    _, on_function, _, run = _COMMANDS[args.command]
    try:
        if on_function:
            config, report, code = run(_function_from(args), args)
            payload = {"config": {"function": _echo_function(args), **config}, **report}
        else:
            payload, code = run(args)
        _emit(payload, args)
        return code
    except (DiskClassError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
