"""The benchmark's workloads: seeded inputs, the operations and their checks.

Each workload is a list of operations that one closed-loop caller runs
back to back, in one process.  An operation is what a user waits for: one
campaign pass, or one query.  Its ``weight`` is the work it completes, rows
for a campaign pass and 1 for a query.  Every output is checked; a check
returns the list of problems it found, empty when the output is right.

Inputs come only from the seed given to the constructor.  The package is
passed in as ``dc`` (the imported ``diskclass`` with ``dc.cli`` loaded), so
the workloads hold no import of their own and see the fresh import made
during set-up.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

# Sizes of the inputs, per workload.  On a 2-vCPU Xeon a pass of
# coeff_campaign takes about 0.4 s and one of verdict_campaign about 1 s,
# and a cycle of query_mix about 15 s.  Several seeded configs or rounds per
# run average out the cost differences between sampled function kinds, and
# few enough configs repeat often within a run to time each at its median.
# An odd number of configs puts the median pass inside one config's times
# rather than on the step between two.
SIZES = {
    "coeff_campaign": {"samples": 300, "configs": 5},
    "verdict_campaign": {"samples": 4, "configs": 5},
    "query_mix": {"rounds": 8},
}

# Values pinned by the paper's catalog and the CLI's exit-code contract.
PINNED = {
    "koebe_h2": -1.0,
    "f1_u_verdict": "BOUNDARY",
    "log_map_u_verdict": "OUT",
    "fb1_of_g_starlike_radius": 0.5,
    "koebe_convex_radius": 2.0 - math.sqrt(3.0),
}
VERDICT_EXIT = {"IN": 0, "OUT": 3, "BOUNDARY": 4}
RADIUS_TOL = 1e-4
VALUE_TOL = 1e-9
# Margin on the sharp bounds 1 and 1/4, the default ScanPolicy delta.
DELTA = 1e-6

# Seeded members in query_mix: generator kinds with a fixed size, so a
# member's query cost depends on its seed only through its coefficients.
MEMBER_KINDS = {"unimodular": ("scaled_unimodular", 0),
                "polynomial": ("random_polynomial", 6),
                "blaschke": ("blaschke_product", 2)}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    weight: int = 1


class Workload:
    """Operations plus the checks that run once, after the timed region."""

    name = ""
    ops: list

    def warm_up(self) -> None:
        raise NotImplementedError

    def final_checks(self):
        """(label, problems) for each check made outside the timed region."""
        return []

    def accept_ratio(self) -> float:
        return 0.0

    def thread_speedup(self) -> float:
        return 0.0

    def replay_ms_per_cert(self) -> float:
        return 0.0


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------
def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class CampaignWorkload(Workload):
    """Passes of one campaign kind, cycling over a few seeded configs.

    Repeating a config must reproduce its counts and canonical report bytes
    exactly; the first pass of each config is the reference.
    """

    kind = ""
    threads = 1
    # worst-case quantity -> sharp bound it must respect
    bounds: dict = {}

    def __init__(self, dc, seed: int, samples: int, configs: int):
        self.dc = dc
        rng = np.random.default_rng([seed, 1])
        self.configs = [dc.CampaignConfig(self.kind, samples=samples, seed=int(s))
                        for s in rng.integers(0, 2 ** 31, configs)]
        rows = len(dc.catalog_prepends(self.kind)) + samples
        self.reference = {}
        self.ops = [Op(f"{self.kind}[seed={cfg.seed}]", self._runner(cfg),
                       self._checker(i, rows), rows)
                    for i, cfg in enumerate(self.configs)]

    def _runner(self, cfg):
        # Looked up on each call, so a traced run sees the wrapped function.
        return lambda: self.dc.run_campaign(cfg, threads=self.threads)

    def _checker(self, i, rows):
        return lambda report: self.check_pass(i, rows, report)

    def warm_up(self):
        dc = self.dc
        cfg = dc.CampaignConfig("theorem1", samples=1, seed=self.configs[0].seed)
        dc.run_campaign(cfg, threads=self.threads)
        dc.test_class(dc.make_catalog("koebe"), "mocanu", alpha=0.5)

    def check_pass(self, i, rows, report):
        problems = []
        if report["status"] != "ok":
            problems.append(f"status {report['status']!r}")
        if report["violations"]:
            problems.append(f"{len(report['violations'])} violation(s)")
        if report["samples_run"] != rows:
            problems.append(f"{report['samples_run']} rows, expected {rows}")
        for name, bound in self.bounds.items():
            cert = report["worst_case"].get(name)
            if cert is None or not cert["value"] <= bound + DELTA:
                problems.append(f"worst {name} {cert and cert['value']!r} above {bound}")
        counts = (report["accepted"], report["rejected"], report["inapplicable"])
        digest = _digest(self.dc.canonical_json(report))
        ref = self.reference.setdefault(i, (counts, digest, report))
        if ref[0] != counts:
            problems.append(f"counts {counts} differ from the first pass {ref[0]}")
        elif ref[1] != digest:
            problems.append("report bytes differ from the first pass")
        return problems

    def _certificates(self):
        for i, (_, _, report) in sorted(self.reference.items()):
            for name, cert in sorted(report["worst_case"].items()):
                yield f"{self.ops[i].label} replay {name}", cert

    def final_checks(self):
        out = []
        for label, cert in self._certificates():
            try:
                self.dc.replay(cert)
                out.append((label, []))
            except self.dc.DiskClassError as exc:
                out.append((label, [f"{type(exc).__name__}: {exc}"]))
        return out

    def accept_ratio(self):
        reports = [r for _, _, r in self.reference.values()]
        rows = sum(r["samples_run"] for r in reports)
        return sum(r["accepted"] for r in reports) / rows if rows else 0.0

    def thread_speedup(self):
        """Wall time of the first config at 1 thread over nproc threads,
        median of two runs each."""
        times = {1: [], nproc(): []}
        for _ in range(2):
            for threads, runs in times.items():
                t0 = perf_counter()
                self.dc.run_campaign(self.configs[0], threads=threads)
                runs.append(perf_counter() - t0)
        return float(np.median(times[1]) / np.median(times[nproc()]))

    def replay_ms_per_cert(self):
        certs = [cert for _, cert in self._certificates()]
        if not certs:
            return 0.0
        t0 = perf_counter()
        for cert in certs:
            self.dc.replay(cert)
        return 1e3 * (perf_counter() - t0) / len(certs)


class CoeffCampaign(CampaignWorkload):
    name = "coeff_campaign"
    kind = "theorem1"
    threads = 1
    bounds = {"h2_modulus": 1.0, "h3_modulus": 0.25}


class VerdictCampaign(CampaignWorkload):
    name = "verdict_campaign"
    kind = "theorem2"
    bounds = {}

    def __init__(self, dc, seed, samples, configs):
        self.threads = nproc()
        super().__init__(dc, seed, samples, configs)

    def final_checks(self):
        out = super().final_checks()
        for i, (_, digest, _) in sorted(self.reference.items()):
            single = self.dc.run_campaign(self.configs[i], threads=1)
            same = _digest(self.dc.canonical_json(single)) == digest
            out.append((f"{self.ops[i].label} 1-thread bytes",
                        [] if same else [f"bytes differ from {self.threads} threads"]))
        return out


# ---------------------------------------------------------------------------
# single queries
# ---------------------------------------------------------------------------
class QueryMix(Workload):
    """A fixed, seeded list of single queries, each timed start to finish.

    Each round holds the same query shapes with fresh seeded parameters:
    CLI calls on catalog ids (in process, ``--json``) and seeded members
    built with ``build_member`` and queried directly.
    """

    name = "query_mix"

    def __init__(self, dc, seed: int, rounds: int):
        self.dc = dc
        self.ops = []
        for r in range(rounds):
            self.ops += self._round(np.random.default_rng([seed, 2, r]), r)

    # -- inputs -------------------------------------------------------------
    def _member(self, rng, kind):
        """(a2, generator spec) of an admissible member: drawn until
        build_member certifies one, so no timed query is refused."""
        gen_kind, degree = MEMBER_KINDS[kind]
        while True:
            a2 = float(rng.uniform(0.05, 1.0)) * np.exp(2j * np.pi * float(rng.random()))
            gen = self.dc.sample_schwarz(int(rng.integers(2 ** 31)), gen_kind, degree)
            try:
                self.dc.build_member(a2, gen)
            except self.dc.DiskClassError:
                continue
            return complex(a2), gen.to_dict()

    def _round(self, rng, r):
        b = round(float(rng.uniform(0.1, 2.0)), 6)
        alpha = round(float(rng.uniform(-2.0, 1.0)), 6)
        cid = ["koebe", "f2", "fb"][int(rng.integers(3))]
        cls = ["U", "starlike", "bounded_turning"][int(rng.integers(3))]
        ev_id = ["koebe", "f1", "f2", "fb"][int(rng.integers(4))]
        z = complex(float(rng.uniform(0.0, 0.95)) * np.exp(2j * np.pi * float(rng.random())))
        point = repr(z)  # "(re+imj)": a leading "-" would read as a flag

        def fb(args, of_id):
            return args + ["--b", repr(b)] if of_id == "fb" else args

        cli = self._cli
        ops = [
            cli("membership f1 U", ["membership", "--id", "f1", "--class", "U"],
                self._verdict_is(PINNED["f1_u_verdict"])),
            cli("membership log_map U", ["membership", "--id", "log_map", "--class", "U"],
                self._verdict_is(PINNED["log_map_u_verdict"])),
            cli(f"membership fb mocanu({alpha})",
                ["membership", "--id", "fb", "--b", repr(b), "--class", "mocanu",
                 "--alpha", repr(alpha)], self._verdict_is(None)),
            cli(f"membership {cid} {cls}",
                fb(["membership", "--id", cid, "--class", cls], cid),
                self._verdict_is("not OUT" if cls == "U" else None)),
            cli("hankel koebe 2 2", ["hankel", "--id", "koebe", "--q", "2", "--n", "2"],
                self._hankel_value(PINNED["koebe_h2"])),
            cli(f"hankel fb({b}) 3 1",
                ["hankel", "--id", "fb", "--b", repr(b), "--q", "3", "--n", "1"],
                self._modulus_at_most(0.25)),
            cli(f"decompose fb({b})", ["decompose", "--id", "fb", "--b", repr(b)],
                self._decompose_a2(-b)),
            cli(f"eval {ev_id} {point}", fb(["eval", "--id", ev_id, point], ev_id),
                self._deviation_inside()),
            cli("radius koebe convex", ["radius", "--id", "koebe", "--class", "convex"],
                self._radius_is(PINNED["koebe_convex_radius"])),
            cli("radius fb(1) of-g starlike",
                ["radius", "--id", "fb", "--b", "1", "--of-g", "--class", "starlike"],
                self._radius_is(PINNED["fb1_of_g_starlike_radius"])),
        ]
        members = {kind: self._member(rng, kind) for kind in MEMBER_KINDS}
        second_blaschke = self._member(rng, "blaschke")
        for kind, spec in members.items():
            ops.append(self._on_member(f"U {kind}", spec, self._test_u, self._check_u))
        ops.append(self._on_member("hankel(2,2) polynomial", members["polynomial"],
                                   self._hankel(2, 2), self._check_modulus(1.0)))
        ops.append(self._on_member("hankel(3,1) blaschke", members["blaschke"],
                                   self._hankel(3, 1), self._check_modulus(0.25)))
        for kind, spec in [*members.items(), ("blaschke", second_blaschke)]:
            ops.append(self._on_member(f"radius starlike {kind}", spec,
                                       self._radius_starlike, self._check_radius))
        for op in ops:
            op.label = f"round {r}: {op.label}"
        return ops

    def warm_up(self):
        """One query of each shape but the slow radius ones, from round 0."""
        for op in self.ops:
            if op.label.startswith("round 1:"):
                break
            if "radius" not in op.label:
                op.run()

    # -- CLI queries ----------------------------------------------------------
    def _cli(self, label, argv, check):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.dc.cli.main(argv + ["--json"])
                except SystemExit as exc:  # argparse rejected the arguments
                    code = exc.code
            text = out.getvalue().strip()
            return code, json.loads(text) if text else None, err.getvalue()

        def checked(result):
            code, payload, err = result
            if payload is None:
                return [f"exit {code}, no output: {err.strip()}"]
            return check(code, payload)

        return Op(label, run, checked)

    @staticmethod
    def _verdict_is(expected):
        def check(code, payload):
            verdict = payload.get("verdict")
            problems = []
            if VERDICT_EXIT.get(verdict) != code:
                problems.append(f"exit {code} for verdict {verdict!r}")
            if expected == "not OUT" and verdict == "OUT":
                problems.append("a class member reads U OUT")
            elif expected not in (None, "not OUT") and verdict != expected:
                problems.append(f"verdict {verdict!r}, expected {expected!r}")
            return problems
        return check

    @staticmethod
    def _hankel_value(expected):
        def check(code, payload):
            value = complex(*payload["value"])
            if code != 0 or abs(value - expected) > VALUE_TOL:
                return [f"exit {code}, H = {value!r}, expected {expected!r}"]
            return []
        return check

    @staticmethod
    def _modulus_at_most(bound):
        def check(code, payload):
            if code != 0 or not payload["modulus"] <= bound + DELTA:
                return [f"exit {code}, |H| = {payload['modulus']!r} above {bound}"]
            return []
        return check

    @staticmethod
    def _decompose_a2(expected):
        def check(code, payload):
            a2 = complex(*payload["a2"])
            if code != 0 or abs(a2 - expected) > VALUE_TOL:
                return [f"exit {code}, a2 = {a2!r}, expected {expected!r}"]
            return []
        return check

    @staticmethod
    def _deviation_inside():
        def check(code, payload):
            if code != 0 or not payload["deviation_u_abs"] <= 1.0 + DELTA:
                return [f"exit {code}, |U| = {payload['deviation_u_abs']!r} above 1"]
            return []
        return check

    @staticmethod
    def _radius_is(expected):
        def check(code, payload):
            if code != 0 or abs(payload["radius"] - expected) > RADIUS_TOL:
                return [f"exit {code}, radius {payload['radius']!r}, "
                        f"expected {expected!r} within {RADIUS_TOL}"]
            return []
        return check

    # -- seeded members -------------------------------------------------------
    def _on_member(self, label, spec, query, check):
        dc = self.dc
        a2, gen = spec

        def run():
            return query(dc.build_member(a2, dc.SchwarzGenerator.from_dict(gen)))

        return Op(label, run, check)

    def _test_u(self, f):
        return self.dc.test_class(f, "U")

    @staticmethod
    def _check_u(report):
        return ["a member reads U OUT"] if report.verdict == "OUT" else []

    def _hankel(self, q, n):
        return lambda f: self.dc.hankel_det(f, q, n)

    @staticmethod
    def _check_modulus(bound):
        def check(report):
            if not report.modulus <= bound + DELTA:
                return [f"|H| = {report.modulus!r} above {bound}"]
            return []
        return check

    def _radius_starlike(self, f):
        return self.dc.radius_of(f, "starlike", tol=RADIUS_TOL)

    @staticmethod
    def _check_radius(res):
        lo, hi = res.bracket
        if not 0.0 <= res.radius <= 1.0 or not hi - lo <= RADIUS_TOL:
            return [f"radius {res.radius!r}, bracket {res.bracket!r}"]
        return []


WORKLOADS = {w.name: w for w in (CoeffCampaign, VerdictCampaign, QueryMix)}


def make(dc, name: str, seed: int) -> Workload:
    return WORKLOADS[name](dc, seed, **SIZES[name])
