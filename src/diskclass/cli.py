"""Command-line front end.

Every subcommand prints a JSON report (pretty by default, canonical
single-line with --json) that echoes its full effective configuration, so
any run can be reproduced from its own output.  Exit codes: 0 success/IN,
3 OUT, 4 BOUNDARY, 2 usage or input errors.

``main`` builds its parser once per process and reuses it: parsing keeps
no state in the parser, and building it costs far more than a parse.
``build_parser`` returns a new parser on every call.
"""
from __future__ import annotations

import argparse
import json
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
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(payload) + "\n")
        return
    if getattr(args, "json", False):
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


def _fn_flags(sub):
    sub.add_argument("--id", help="catalog id (see the catalog subcommand)")
    sub.add_argument("--b", type=float, help="parameter of the fb family")
    sub.add_argument("--series-file", help="JSON file with a Taylor series")
    sub.add_argument("--of-g", action="store_true",
                     help="apply the normalized transform g before testing")
    sub.add_argument("--order", type=int, help=f"series order (default {DEFAULT_ORDER})")


def _policy_flags(sub, verdicts=True):
    sub.add_argument("--grid", type=int, help="circle grid size (default 4096)")
    if verdicts:  # a radius search reads neither
        sub.add_argument("--r-max", type=float, help="scan radius (default 1 - 2^-10)")
        sub.add_argument("--delta", type=float, help="verdict margin (default 1e-6)")


def _out_flags(sub):
    sub.add_argument("--json", action="store_true",
                     help="canonical single-line JSON instead of pretty")
    sub.add_argument("--out", help="write the report to this file")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="diskclass",
        description="Numerical toolkit for a class of non-vanishing "
                    "normalized analytic functions on the unit disk.")
    subs = p.add_subparsers(dest="command", required=True)

    s = subs.add_parser("membership", help="three-way class membership verdict")
    _fn_flags(s)
    s.add_argument("--class", dest="class_tag", required=True,
                   help=f"one of {', '.join(CLASS_TAGS)}")
    s.add_argument("--alpha", type=float, help="alpha for the mocanu family")
    _policy_flags(s)
    _out_flags(s)

    s = subs.add_parser("hankel", help="Hankel determinant of Taylor coefficients")
    _fn_flags(s)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    _out_flags(s)

    s = subs.add_parser("radius", help="largest radius on which a property holds")
    _fn_flags(s)
    s.add_argument("--class", dest="class_tag", required=True)
    s.add_argument("--alpha", type=float)
    s.add_argument("--tol", type=float, default=1e-4)
    _policy_flags(s, verdicts=False)
    _out_flags(s)

    s = subs.add_parser("campaign", help="seeded randomized campaign")
    s.add_argument("--kind", dest="campaign", choices=CAMPAIGNS)
    s.add_argument("--samples", type=int)
    s.add_argument("--seed", type=int)
    s.add_argument("--order", type=int)
    s.add_argument("--a2", help="range lo:hi of |a2|")
    s.add_argument("--shrink", type=float)
    s.add_argument("--config", help="JSON file mirroring the campaign config")
    s.add_argument("--csv", help="also write per-sample rows to this CSV file")
    _policy_flags(s)
    _out_flags(s)

    s = subs.add_parser("decompose", help="split f into (a2, omega1, c1..c3)")
    _fn_flags(s)
    _out_flags(s)

    s = subs.add_parser("eval", help="evaluate f and its functionals at a point")
    _fn_flags(s)
    s.add_argument("point", help="complex point, e.g. 0.99 or 0.3+0.4j or 0.3,0.4")
    _out_flags(s)

    s = subs.add_parser("catalog", help="list built-in function ids")
    _out_flags(s)

    return p


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


def cmd_membership(args) -> int:
    f = _function_from(args)
    policy = _policy(args)
    report = test_class(f, args.class_tag, policy, alpha=args.alpha)
    payload = {"config": {"function": _echo_function(args),
                          "class": args.class_tag, "alpha": args.alpha,
                          "policy": policy.to_dict()},
               **report.to_dict()}
    _emit(payload, args)
    return VERDICT_EXIT[report.verdict]


def cmd_hankel(args) -> int:
    f = _function_from(args)
    rep = hankel_det(f, args.q, args.n)
    payload = {"config": {"function": _echo_function(args),
                          "q": args.q, "n": args.n},
               **rep.to_dict()}
    _emit(payload, args)
    return 0


def cmd_radius(args) -> int:
    f = _function_from(args)
    policy = _policy(args)
    res = radius_of(f, args.class_tag, tol=args.tol, policy=policy,
                    alpha=args.alpha)
    payload = {"config": {"function": _echo_function(args),
                          "class": args.class_tag, "alpha": args.alpha,
                          "tol": args.tol, "policy": policy.to_dict()},
               **res.to_dict()}
    _emit(payload, args)
    return 0


def cmd_campaign(args) -> int:
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
    _emit(report, args)
    return 0


def cmd_decompose(args) -> int:
    f = _function_from(args)
    payload = {"config": {"function": _echo_function(args)},
               **decompose(f).to_dict()}
    _emit(payload, args)
    return 0


def cmd_eval(args) -> int:
    f = _function_from(args)
    z = _parse_point(args.point)
    if not abs(z) < 1.0:
        raise ArgumentOutOfDomain(f"point {z!r} lies outside the open unit disk")
    u = u_operator(f)(z)
    pt = np.array([z])
    fz, f1, f2 = (complex(v[0]) for v in f.kernel.f_jet(pt, 2))
    payload = {
        "config": {"function": _echo_function(args), "point": complex_pair(z)},
        "f": complex_pair(fz),
        "f_prime": complex_pair(f1),
        "f_second": complex_pair(f2),
        "quotient_h": complex_pair(complex(f.kernel.h_jet(pt, 0)[0][0])),
        "deviation_u": complex_pair(u),
        "deviation_u_abs": abs(u),
    }
    _emit(payload, args)
    return 0


def cmd_catalog(args) -> int:
    entries = []
    for cid in catalog_ids():
        entry = {"id": cid}
        if cid == "fb":
            entry["params"] = {"b": "(0, 2] required"}
        entries.append(entry)
    _emit({"catalog": entries}, args)
    return 0


_COMMANDS = {
    "membership": cmd_membership,
    "hankel": cmd_hankel,
    "radius": cmd_radius,
    "campaign": cmd_campaign,
    "decompose": cmd_decompose,
    "eval": cmd_eval,
    "catalog": cmd_catalog,
}


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses for the life of the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DiskClassError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
