"""Seeded randomized campaigns over certified members of the deviation class.

Every campaign runs the catalog rows of ``catalog_prepends`` and then
``samples`` certified members built from (a2, generator) pairs of a
per-index RNG stream (``_materialize``), evaluates its quantities, and
aggregates worst cases, violations, and a histogram into a report whose
canonical JSON depends on the config alone (``run_campaign``).  What
differs between the kinds lives in one ``_CampaignSpec`` per kind
(``_SPECS``).  Replay re-runs the same evaluator, so a certificate is
checked by exactly the code that produced it.

Campaign kinds:

* ``theorem1``: second and third Hankel determinant bounds (1 and 1/4),
  coefficient-constraint slacks, profile majorization;
* ``theorem2``: joint verdicts for the alpha-convex family versus the
  deviation class across an alpha grid, one scan per function;
* ``theorem3``: the normalized transform g on the circle |z| =
  (1 - shrink)|a2|/2: sup |g' - 1|, sup |z g'/g - 1|, sup of the deviation
  of g (parts "abc" in one scan, or "ab" when |a2| > 1 leaves part c
  unproved), and monotonicity of the majorizing profile;
* ``conjecture``: the unproved range 1 < |a2| <= 2, sup of the deviation
  of g on a ladder of circles approaching |z| = |a2|/2, one scan per
  function with one row per rung.

The conjecture campaign never claims more than "evidence"; any value past
1 + delta becomes a replayable counterexample certificate and flips the
status to "counterexample-candidate".
"""
from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, fields
from numbers import Integral, Real
from typing import Callable

import numpy as np

from .catalog import (
    DEFAULT_ORDER,
    DiskFunction,
    SchwarzGenerator,
    _check_order,
    _sample_generator,
    build_member,
    make_catalog,
    seed_key,
)
from .errors import (
    DiskClassError,
    ParamOutOfRange,
    PartCPrecondition,
    ReplayMismatch,
    SecondCoefficientVanishes,
)
from .hankel import h3_profile_bound, hankel_det, prokhorov_szynal_check, reduced_h2, reduced_h3
from .membership import ScanPolicy, _is_number, theorem2_grid, theorem3_check
from .operators import decompose, phi_profile
from .serialize import canonical_json, complex_pair

LADDER = (0.1, 0.01, 0.001)
ALPHA_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0)
FB_GRID = tuple(0.25 * k for k in range(1, 9))
REPLAY_TOL = 1e-9
# A later sample takes a worst-case certificate only when its value beats the
# held one by more than this, relative: values equal in exact arithmetic stay
# with the first index instead of being ranked by last-ulp noise.
TIE_RTOL = 1e-12

__all__ = [
    "CampaignConfig",
    "catalog_prepends",
    "run_campaign",
    "replay",
    "write_rows_csv",
]


@dataclass(frozen=True)
class CampaignConfig:
    campaign: str
    samples: int = 100
    seed: int = 0
    order: int = DEFAULT_ORDER
    policy: ScanPolicy = field(default_factory=ScanPolicy)
    a2_range: tuple = (0.05, 2.0)
    shrink: float = 0.01
    ladder: tuple = LADDER
    alpha_grid: tuple = ALPHA_GRID

    def __post_init__(self):
        if self.campaign not in CAMPAIGNS:
            raise ParamOutOfRange(
                f"campaign must be one of {CAMPAIGNS}, not {self.campaign!r}")
        for name, kind in (("samples", int), ("seed", int), ("order", int),
                           ("shrink", float), ("a2_range", tuple), ("ladder", tuple),
                           ("alpha_grid", tuple)):
            object.__setattr__(self, name, _numbers(name, getattr(self, name), kind))
        if self.samples < 1:
            raise ParamOutOfRange("samples must be at least 1")
        _check_order(self.order, 8)
        if len(self.a2_range) != 2 or not 0.0 < self.a2_range[0] <= self.a2_range[1] <= 2.0:
            raise ParamOutOfRange(
                f"a2_range must satisfy 0 < lo <= hi <= 2, got {self.a2_range}")
        if not 0.0 < self.shrink < 1.0:
            raise ParamOutOfRange(f"shrink must lie in (0, 1), got {self.shrink}")
        if not self.ladder or any(not 0.0 < e < 1.0 for e in self.ladder):
            raise ParamOutOfRange("ladder entries must lie in (0, 1)")
        if not self.alpha_grid:
            raise ParamOutOfRange("alpha_grid must not be empty")
        if not all(np.isfinite(self.alpha_grid)):
            raise ParamOutOfRange(
                f"alpha_grid entries must be finite, got {self.alpha_grid}")
        for name in ("ladder", "alpha_grid"):  # report keys are :g labels
            values = getattr(self, name)
            if len({f"{v:g}" for v in values}) < len(values):
                raise ParamOutOfRange(f"{name} entries share a :g label: {values}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data) -> "CampaignConfig":
        data = _known_fields(cls, data, "campaign config")
        if "policy" in data:
            data["policy"] = ScanPolicy(**_known_fields(ScanPolicy, data["policy"], "policy"))
        return cls(**data)


def _numbers(name, value, kind):
    """A JSON number as ``kind`` (int takes integers only), or for kind tuple a
    list of numbers as a tuple of floats; a bool or anything else raises ParamOutOfRange."""
    is_list = isinstance(value, (list, tuple))
    items = value if is_list else [value]
    number = Integral if kind is int else Real
    if is_list != (kind is tuple) or not all(_is_number(v, number) for v in items):
        what = {int: "an integer", float: "a number", tuple: "a list of numbers"}[kind]
        raise ParamOutOfRange(f"{name} must be {what}, got {value!r}")
    return tuple(map(float, items)) if is_list else kind(value)


def _known_fields(cls, data, what):
    """A JSON object as keyword arguments of the dataclass ``cls``."""
    if not isinstance(data, dict):
        raise ParamOutOfRange(f"{what} must be a JSON object, got {data!r}")
    unknown = sorted(map(str, set(data) - {f.name for f in fields(cls)}))
    if unknown:
        raise ParamOutOfRange(f"unknown {what} key(s): {', '.join(unknown)}")
    return dict(data)


def catalog_prepends(campaign: str):
    """(id, params) rows force-included ahead of the random samples."""
    rows = [("koebe", None), ("f1", None), ("f2", None)]
    rows += [("fb", {"b": b}) for b in FB_GRID]
    return rows + [(cid, None) for cid in _SPECS[campaign].extra_prepends]


def _materialize(cfg: CampaignConfig, prepends, index: int):
    """Function number `index` of the campaign: catalog row or fresh sample.

    Sampling draws |a2| uniformly from a2_range and its phase uniformly.
    For |a2| > 1 the generator is the constant whose quadratic quotient has
    both roots on or outside the unit circle (the only kind guaranteed
    certifiable there); for |a2| <= 1 it is an even split between that
    paired-root family and an independent generator of a random kind.
    """
    if index < len(prepends):
        cid, params = prepends[index]
        label = cid if not params else f"{cid}(b={params['b']:g})"
        return f"catalog:{label}", make_catalog(cid, params, order=cfg.order)
    rng = np.random.default_rng(seed_key(cfg.seed, index))
    lo, hi = cfg.a2_range
    t = float(rng.uniform(lo, hi))
    chi = float(rng.uniform(0.0, 2.0 * np.pi))
    a2 = t * np.exp(1j * chi)
    if t > 1.0 or rng.random() < 0.5:
        cap = float(np.sqrt(max(1.0 - 0.25 * t * t, 0.0)))
        mu = float(rng.uniform(0.0, cap))
        gen = SchwarzGenerator.constant(-np.exp(2j * chi) * (0.25 * t * t + mu * mu))
    else:
        kind = ("scaled_unimodular", "blaschke_product",
                "random_polynomial")[int(rng.integers(3))]
        degree = (int(rng.integers(1, 5)) if kind == "blaschke_product"
                  else int(rng.integers(0, 17)))
        gen = _sample_generator(rng, kind, degree)
    return "sampled", build_member(a2, gen, order=cfg.order)


# ---------------------------------------------------------------------------
# per-sample evaluation
# ---------------------------------------------------------------------------
def _eval_theorem1(f: DiskFunction, cfg: CampaignConfig) -> dict:
    dec = decompose(f)
    # H3(1) reads a_1..a_5, H2(2) a_2..a_4: the wider window first derives
    # the one f prefix both read
    h3 = hankel_det(f, 3, 1)
    h2 = hankel_det(f, 2, 2)
    red2 = reduced_h2(dec.a2, dec.c)
    red3 = reduced_h3(dec.c)
    ps = prokhorov_szynal_check(*dec.c)
    return {
        "h2_modulus": h2.modulus,
        "h3_modulus": h3.modulus,
        "reduction_gap": max(abs(h2.value - red2), abs(h3.value - red3)),
        "ps_slack_min": min(ps.slack1, ps.slack2, ps.slack3),
        "h3_profile_slack": h3_profile_bound(abs(dec.c[0])) - abs(red3),
    }


def _eval_theorem2(f: DiskFunction, cfg: CampaignConfig) -> dict:
    records = theorem2_grid(f, cfg.alpha_grid, cfg.policy)
    u_rep = records[0].u
    rows = [{
        "alpha": rec.alpha,
        "m_verdict": rec.m_alpha.verdict,
        "m_extremal": rec.m_alpha.extremal_value,
        "u_verdict": rec.u.verdict,
        "u_estimate": rec.u.boundary_estimate,
        "implication_respected": rec.implication_respected,
    } for rec in records]
    return {
        "rows": rows,
        "u_estimate": u_rep.boundary_estimate,
        "u_witness": complex_pair(u_rep.witness),
    }


def _eval_theorem3(f: DiskFunction, cfg: CampaignConfig) -> dict:
    try:
        reports = theorem3_check(f, "abc", cfg.shrink, cfg.policy)
    except PartCPrecondition:
        reports = theorem3_check(f, "ab", cfg.shrink, cfg.policy)
    out = {"radius": reports[0].scan_radius, "part_c_sup": None,
           "part_c_witness": None, "phi_min_step": None}
    for part, rep in zip("abc", reports):
        out[f"part_{part}_sup"] = rep.extremal_value
        out[f"part_{part}_witness"] = complex_pair(rep.witness)
    if len(reports) == 3:
        ts = np.linspace(0.0, out["radius"], 33)
        vals = np.array([phi_profile(t, out["radius"], abs(f.a2)) for t in ts])
        out["phi_min_step"] = float(np.diff(vals).min())
    return out


def _eval_conjecture(f: DiskFunction, cfg: CampaignConfig) -> dict:
    reports = theorem3_check(f, "c", cfg.ladder, cfg.policy, allow_large_a2=True)
    return {"rungs": [{"eps": eps, "radius": rep.scan_radius, "sup": rep.extremal_value,
                       "witness": complex_pair(rep.witness)}
                      for eps, rep in zip(cfg.ladder, reports)]}


def _run_one(cfg: CampaignConfig, prepends, index: int) -> dict:
    try:
        source, f = _materialize(cfg, prepends, index)
    except DiskClassError as exc:
        return {"index": index, "source": "sampled", "status": "rejected",
                "error": type(exc).__name__}
    try:
        record = _SPECS[cfg.campaign].evaluate(f, cfg)
    except (SecondCoefficientVanishes, PartCPrecondition) as exc:
        return {"index": index, "source": source, "status": "inapplicable",
                "error": type(exc).__name__}
    except DiskClassError as exc:
        return {"index": index, "source": source, "status": "rejected",
                "error": type(exc).__name__}
    return {"index": index, "source": source, "status": "ok", "error": None,
            "record": record, "function": f.to_spec()}


# ---------------------------------------------------------------------------
# campaign specs
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _Tracked:
    """One quantity of one sample.  The report keeps the certificate of its
    largest (smallest if not ``largest``) value, and certifies every value
    past ``limit`` as a violation; margins are measured from ``threshold``."""

    name: str
    value: float | None
    threshold: float | None = None
    limit: float | None = None
    largest: bool = True
    witness: list | None = None
    radius: float | None = None
    alpha: float | None = None


@dataclass(frozen=True)
class _CampaignSpec:
    evaluate: Callable  # (f, cfg) -> per-sample record
    tracked: Callable  # (record, cfg) -> iterable of _Tracked
    histogram: tuple  # (quantity name, record -> value, lo, hi, bins)
    status: tuple = ("ok", "violation")  # without / with violations
    extra_prepends: tuple = ()  # catalog ids added ahead of the samples
    extras: Callable | None = None  # (cfg, accepted rows) -> (sections, violations)


def _theorem1_tracked(rec, cfg):
    delta = cfg.policy.delta
    return (_Tracked("h2_modulus", rec["h2_modulus"], 1.0, 1.0 + delta),
            _Tracked("h3_modulus", rec["h3_modulus"], 0.25, 0.25 + delta),
            _Tracked("reduction_gap", rec["reduction_gap"], None, 1e-8),
            _Tracked("ps_slack_min", rec["ps_slack_min"], 0.0, -delta, largest=False),
            _Tracked("h3_profile_slack", rec["h3_profile_slack"], 0.0, -delta,
                     largest=False))


def _theorem2_tracked(rec, cfg):
    return (_Tracked("u_boundary_estimate", rec["u_estimate"],
                     witness=rec["u_witness"]),)


def _theorem2_extras(cfg, rows):
    """Catalog rows, separating exhibits (M_alpha IN, U OUT), per-alpha
    verdict counts of the sampled rows, and the implication violations."""
    extra = {"rows": [], "exhibits": [], "alpha_summary": {
        f"{a:g}": {"IN": 0, "OUT": 0, "BOUNDARY": 0} for a in cfg.alpha_grid}}
    violations = []
    for row in rows:
        rec = row["record"]
        for r in rec["rows"]:
            full = {"index": row["index"], "source": row["source"], **r}
            if row["source"].startswith("catalog:"):
                extra["rows"].append(full)
            else:
                extra["alpha_summary"][f"{r['alpha']:g}"][r["m_verdict"]] += 1
            if r["m_verdict"] == "IN" and r["u_verdict"] == "OUT":
                extra["exhibits"].append({**full, "function": row["function"]})
            if not r["implication_respected"]:
                violations.append(_certificate(cfg, row, _Tracked(
                    "u_boundary_estimate", rec["u_estimate"], 1.0,
                    witness=rec["u_witness"], alpha=r["alpha"])))
    return extra, violations


def _theorem3_tracked(rec, cfg):
    limit = 1.0 + cfg.policy.delta
    out = [_Tracked(f"part_{part}_sup", rec[f"part_{part}_sup"], 1.0, limit,
                    witness=rec[f"part_{part}_witness"], radius=rec["radius"])
           for part in ("a", "b", "c")]
    out.append(_Tracked("phi_min_step", rec["phi_min_step"], 0.0, -1e-12,
                        largest=False, radius=rec["radius"]))
    return out


def _conjecture_tracked(rec, cfg):
    return [_Tracked(f"ug_sup@{rung['eps']:g}", rung["sup"], 1.0, 1.0 + cfg.policy.delta,
                     witness=rung["witness"], radius=rung["radius"])
            for rung in rec["rungs"]]


_SPECS = {
    "theorem1": _CampaignSpec(
        _eval_theorem1, _theorem1_tracked,
        ("h3_modulus", lambda rec: rec["h3_modulus"], 0.0, 0.3, 30)),
    "theorem2": _CampaignSpec(
        _eval_theorem2, _theorem2_tracked,
        ("u_boundary_estimate", lambda rec: rec["u_estimate"], 0.0, 4.0, 40),
        extra_prepends=("identity", "half_plane", "log_map", "example_sec1"),
        extras=_theorem2_extras),
    "theorem3": _CampaignSpec(
        _eval_theorem3, _theorem3_tracked,
        ("max_part_sup", lambda rec: max(
            v for v in (rec["part_a_sup"], rec["part_b_sup"], rec["part_c_sup"])
            if v is not None), 0.0, 1.2, 30)),
    "conjecture": _CampaignSpec(
        _eval_conjecture, _conjecture_tracked,
        ("ug_sup_tightest", lambda rec: min(rec["rungs"], key=lambda r: r["eps"])["sup"],
         0.0, 1.1, 22),
        status=("evidence", "counterexample-candidate")),
}
CAMPAIGNS = tuple(_SPECS)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------
def _certificate(cfg, row, q: _Tracked):
    return {
        "index": row["index"],
        "source": row["source"],
        "seed": cfg.seed,
        "quantity": q.name,
        "value": float(q.value),
        "margin": None if q.threshold is None else float(q.value - q.threshold),
        "witness": q.witness,
        "radius": q.radius,
        "alpha": q.alpha,
        "function": row["function"],
        "config": cfg.to_dict(),
    }


def _histogram(values, lo, hi, bins):
    edges = np.linspace(lo, hi, bins + 1)
    counts = np.histogram(np.clip(np.asarray(values, dtype=float), lo, hi),
                          bins=edges)[0] if values else np.zeros(bins, int)
    return {"edges": [float(e) for e in edges], "counts": [int(c) for c in counts]}


def _beats(value, held, largest):
    """True when value improves on held by more than TIE_RTOL relative."""
    margin = TIE_RTOL * abs(held)
    return value > held + margin if largest else value < held - margin


def _aggregate(cfg: CampaignConfig, results) -> dict:
    spec = _SPECS[cfg.campaign]
    counts = {"ok": 0, "rejected": 0, "inapplicable": 0}
    accepted, violations, worst, hist_values = [], [], {}, []
    hq, hist_value, lo, hi, bins = spec.histogram
    for row in results:
        counts[row["status"]] += 1
        if row["status"] != "ok":
            continue
        accepted.append(row)
        for q in spec.tracked(row["record"], cfg):
            if q.value is None:
                continue
            best = worst.get(q.name)
            if best is None or _beats(q.value, best["value"], q.largest):
                worst[q.name] = _certificate(cfg, row, q)
            if q.limit is not None and (q.value > q.limit if q.largest
                                        else q.value < q.limit):
                violations.append(_certificate(cfg, row, q))
        hist_values.append(hist_value(row["record"]))
    extra = {}
    if spec.extras is not None:
        extra, more = spec.extras(cfg, accepted)
        violations += more

    report = {
        "campaign": cfg.campaign,
        "config": cfg.to_dict(),
        "catalog_prepends": [r["source"] for r in results
                             if r["source"].startswith("catalog:")],
        "samples_run": len(results),
        "accepted": counts["ok"],
        "rejected": counts["rejected"],
        "inapplicable": counts["inapplicable"],
        "worst_case": dict(sorted(worst.items())),
        "violations": violations,
        "histogram": {"quantity": hq, **_histogram(hist_values, lo, hi, bins)},
        "status": spec.status[bool(violations)],
    }
    report.update(extra)
    return report


def _run_chunk(cfg, prepends, chunk):
    """The rows of ``chunk`` in order up to the first that raises, and
    ``(index, exception)`` of that row, or None if none raised."""
    rows = []
    for i in chunk:
        try:
            rows.append(_run_one(cfg, prepends, i))
        except Exception as exc:
            return rows, (i, exc)
    return rows, None


def _fork_chunk(cfg, prepends, chunk):
    """Fork a child that pickles back what ``_run_chunk`` returns for
    ``chunk``; return its pid and the read end of its pipe."""
    import pickle

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    code = 1
    try:
        os.close(read_fd)
        data = pickle.dumps(_run_chunk(cfg, prepends, chunk), pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_fd, "wb") as out:
            out.write(data)
        code = 0
    finally:
        os._exit(code)


def _run_rows(cfg, prepends, rows: int, workers: int) -> list:
    """Rows 0..rows-1 in index order, run by ``workers`` processes as
    ``run_campaign`` describes."""
    if not hasattr(os, "fork"):
        workers = 1
    chunks = [range(k, rows, workers) for k in range(workers)]
    if len(chunks) == 1:
        return [_run_one(cfg, prepends, i) for i in chunks[0]]
    # imported here: only forking needs them, and with them imported at the
    # top, serial coefficient campaigns measured about 4% slower
    import pickle
    import signal
    import sys

    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    children = {}  # pid -> read end of its pipe, until reaped
    try:
        for chunk in chunks[1:]:
            pid, reader = _fork_chunk(cfg, prepends, chunk)
            children[pid] = reader
        results, error = _run_chunk(cfg, prepends, chunks[0])
        errors = [error]
        for pid, reader in list(children.items()):
            data = reader.read()
            reader.close()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            try:
                chunk_rows, error = pickle.loads(data)
            except Exception:
                raise RuntimeError(f"a campaign worker process ended (exit code "
                                   f"{os.waitstatus_to_exitcode(status)}) without "
                                   f"sending its rows") from None
            results += chunk_rows
            errors.append(error)
        first = min(filter(None, errors), key=lambda err: err[0], default=None)
        if first is not None:
            raise first[1]
        return sorted(results, key=lambda row: row["index"])
    finally:
        # a child not yet reaped may be blocked on a full pipe
        for pid, reader in children.items():
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_campaign(cfg: CampaignConfig, threads: int = 1,
                 keep_rows: bool = False) -> dict:
    """Execute the campaign and return its report as a plain dict.

    The report is deterministic for a given config: sample i of seed s
    draws from its own ``seed_key(s, i)`` stream, and rows aggregate in
    index order in the calling process.  ``threads`` = k processes run the
    rows (at most one per row), dealt out in turn so that the catalog rows
    and the costlier sampled rows are shared alike: process j runs rows j,
    j + k, j + 2k, ...  The caller is process 0; a child forked for this
    call runs each other chunk and pickles back only its row dicts, so the
    report and its "per_sample" rows are the same bytes at every k.  Each
    process stops at its first row error, and once all are read the lowest
    row's error raises with its own type, the same at every k.  A child
    that dies without sending its rows makes the call raise RuntimeError;
    every child is reaped before the call returns or raises.  Without
    ``os.fork`` every row runs in the caller.  Do not pass k > 1 from a
    process that runs other threads: a forked child holds only the calling
    thread, and a lock another thread held at the fork stays held.  With
    keep_rows=True the raw per-sample rows go under "per_sample" (for CSV
    export; not part of the canonical report).
    """
    if not (_is_number(threads, Integral) and threads >= 1):
        raise ParamOutOfRange(f"threads must be an integer of at least 1, got {threads!r}")
    prepends = catalog_prepends(cfg.campaign)
    rows = len(prepends) + cfg.samples
    results = _run_rows(cfg, prepends, rows, min(int(threads), rows))
    report = _aggregate(cfg, results)
    if keep_rows:
        report["per_sample"] = results
    return report


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------
def replay(cert: dict) -> dict:
    """Rebuild the certified function and re-evaluate its quantity.

    The reconstruction goes through the stored generator parameters, not
    the RNG, so it survives RNG implementation changes.  The campaign's own
    evaluator runs again on the rebuilt function and the certified quantity
    is read from its record.  A mismatch beyond 1e-9 raises ReplayMismatch:
    that signals a determinism bug and must fail the suite.
    """
    cfg = CampaignConfig.from_dict(cert["config"])
    spec = _SPECS[cfg.campaign]
    f = DiskFunction.from_spec(cert["function"], order=cfg.order)
    values = {q.name: q.value for q in spec.tracked(spec.evaluate(f, cfg), cfg)}
    value = values.get(cert["quantity"])
    if value is None:
        raise ReplayMismatch(
            f"{cfg.campaign} campaign yields no {cert['quantity']!r} for this function")
    if abs(value - cert["value"]) > REPLAY_TOL:
        raise ReplayMismatch(
            f"{cert['quantity']} replayed to {value!r}, certificate says "
            f"{cert['value']!r} (index {cert['index']}, seed {cert['seed']})")
    return {**cert, "replayed_value": float(value)}


def write_rows_csv(report: dict, fileobj) -> int:
    """Flatten per-sample rows (run_campaign(..., keep_rows=True)) to CSV."""
    import csv

    rows = report.get("per_sample") or []
    writer = csv.writer(fileobj)
    writer.writerow(["index", "source", "status", "error", "record"])
    for row in rows:
        writer.writerow([row["index"], row["source"], row["status"],
                         row["error"] or "",
                         canonical_json(row.get("record", {}))])
    return len(rows)
