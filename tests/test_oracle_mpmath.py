"""Kernel jets, series inversion, Hankel determinants and zero counts
against mpmath.

Every reference value is computed at 50 digits without diskclass: the h
jet by mpmath differentiation of a closed form of h = z/f (for a Blaschke
member, by quadrature of psi), the f and omega jets from it by the product
rule applied to f h = z and z omega1 = 1 - a2 z - h, and the coefficients
by the convolution recurrence.  A value passes when it agrees to 1e-12,
relative above modulus 1 and absolute below.

The zero counts of the certification are checked against 80-digit mpmath
roots (polynomials) and an mpmath winding number (Blaschke members); a
count must equal the reference or refuse, and never be wrong.  The zeros
that winding counts place (``zero_bracket``) must lie in their brackets.

The kernels' logarithm (``catalog._log``, taken in real arithmetic) is
checked at 50 digits on the arguments the Blaschke and ``log_map`` kernels
pass it: within 4 ulp of max(1, |log w|).  U of ``log_map`` near the
origin, where it cancels to about z^2/12, is checked at 40 digits for its
relative error at orders 64 and 5, and through ``eval``.

The circle proofs of radius searches are checked at 50 digits: the
polynomials P/Q of each tag's functional equal the operators, every
circle proven clear has T < 0 on a grid 16 times finer than its own, and
every circle proven failed has T > 0 at its grid node.

The circle scans of ``test_class`` are checked against a 40-digit
maximization: on sampled polynomial members, the maxima of |U| and of
-Re z f'/f on |z| = r_max agree to 1e-13 relative.
"""
import contextlib
import io
import json

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

import diskclass.membership as membership
from diskclass import (
    DiskFunction,
    ScanPolicy,
    SchwarzGenerator,
    build_member,
    convex_quotient,
    count_zeros_on_disk,
    g_transform,
    hankel_det,
    make_catalog,
    mocanu_real_part,
    radius_of,
    sample_schwarz,
    starlike_quotient,
    test_class as classify,
    turning_derivative,
    u_operator,
)
from diskclass.catalog import CERT_RADIUS, _log, _unit_circle, zero_bracket
from diskclass.cli import main as cli_main
from diskclass.errors import BoundaryTooClose, DenominatorVanishes
from diskclass.membership import RADIUS_CAP
from diskclass.series import ComplexSeries

mp = pytest.importorskip("mpmath")

DPS = 50
TOL = 1e-12
# |z| = 1e-4 lies inside the near-origin mask of the kernels that divide by z
RADII = (1e-4, 0.3, 0.9)
ANGLE = 0.7
BLASCHKE = {"a2": 0.1, "alphas": (0.4, 0.2 - 0.3j), "rho": 0.8, "theta": 1.1}


def close(got, want):
    want = complex(want)
    return abs(complex(got) - want) <= TOL * max(1.0, abs(want))


def _psi(z):
    b = BLASCHKE
    value = mp.mpf(b["rho"]) * mp.expj(mp.mpf(b["theta"]))
    for a in b["alphas"]:
        a = mp.mpc(a)
        value *= (z - a) / (1 - mp.conj(a) * z)
    return value


def _closed_h_jet(h):
    return lambda z: [mp.diff(h, z, k) for k in range(3)]


def _blaschke_h_jet(z):
    a2 = mp.mpf(BLASCHKE["a2"])
    om, psi, psi1 = mp.quad(_psi, [0, z]), _psi(z), mp.diff(_psi, z)
    # h = 1 - a2 z - z omega1, differentiated twice
    return [1 - a2 * z - z * om, -a2 - om - z * psi, -2 * psi - z * psi1]


def _g_of_fb_half(z):
    # g = (h_f - 1)/(-a2) for h_f = 1 + z/2 + z^2, a2 = -1/2
    return z / ((1 + z / 2 + z * z - 1) / mp.mpf(0.5))


CASES = {
    "koebe": (lambda: make_catalog("koebe"), _closed_h_jet(lambda z: (1 - z) ** 2)),
    "fb(0.7)": (lambda: make_catalog("fb", {"b": 0.7}),
                _closed_h_jet(lambda z: 1 + mp.mpf(0.7) * z + z * z)),
    "log_map": (lambda: make_catalog("log_map"),
                _closed_h_jet(lambda z: z / -mp.log(1 - z))),
    "blaschke": (lambda: build_member(BLASCHKE["a2"], SchwarzGenerator.blaschke(
                     BLASCHKE["alphas"], BLASCHKE["rho"], BLASCHKE["theta"])),
                 _blaschke_h_jet),
    "g(fb(0.5))": (lambda: g_transform(make_catalog("fb", {"b": 0.5})),
                   _closed_h_jet(_g_of_fb_half)),
}


def reference_jets(h_jet, a2, z):
    """(h, f, omega) jets at z from the h jet, by the product rule."""
    h, h1, h2 = h_jet(z)
    # f h = z
    f = z / h
    f1 = (1 - f * h1) / h
    f2 = -(2 * f1 * h1 + f * h2) / h
    # z omega1 = 1 - a2 z - h
    om = (1 - a2 * z - h) / z
    om1 = (-a2 - h1 - om) / z
    om2 = (-h2 - 2 * om1) / z
    return {"h_jet": [h, h1, h2], "f_jet": [f, f1, f2], "omega_jet": [om, om1, om2]}


@pytest.mark.parametrize("radius", RADII)
@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_jets(case, radius):
    make, h_jet = CASES[case]
    f = make()
    z = radius * np.exp(1j * ANGLE)
    with mp.workdps(DPS):
        want = reference_jets(h_jet, mp.mpc(f.a2), mp.mpc(z))
    for jet, values in want.items():
        got = getattr(f.kernel, jet)(np.array([z]), 2)
        for k in range(3):
            assert close(got[k][0], values[k]), (case, radius, jet, k)


def _disk_points(rng, n, radius):
    """n points of |z| <= radius, the first tenth on the circle itself."""
    z = radius * np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(2j * np.pi * rng.random(n))
    z[:n // 10] *= radius / np.abs(z[:n // 10])
    return z


def _log_arguments(kind):
    rng = np.random.default_rng(7)
    if kind == "blaschke":  # 1 - conj(c) z, 0.01 <= |c| <= 0.95, |z| <= 1
        c = rng.uniform(0.01, 0.95, 1000) * np.exp(2j * np.pi * rng.random(1000))
        return 1.0 - np.conj(c) * _disk_points(rng, 1000, 1.0)
    z = _disk_points(rng, 1000, RADIUS_CAP)  # 1 - z, |z| <= RADIUS_CAP
    # and z near 1, where w is small and |log w| large
    near = 1.0 - np.geomspace(2.0 ** -14, 0.5, 100) * np.exp(1j * rng.uniform(-1.5, 1.5, 100))
    return 1.0 - np.concatenate((z, near * np.minimum(1.0, RADIUS_CAP / np.abs(near))))


@pytest.mark.parametrize("kind", ["blaschke", "log_map"])
def test_kernel_log_is_within_four_ulp(kind):
    w = _log_arguments(kind)
    got = _log(w)
    with mp.workdps(DPS):
        for wk, gk in zip(w, got):
            want = mp.log(mp.mpc(wk.real, wk.imag))
            ulp = np.spacing(max(1.0, float(abs(want))))
            assert float(abs(mp.mpc(gk.real, gk.imag) - want)) <= 4.0 * ulp, (kind, wk)


def _mp_log_map_u(z):
    z = mp.mpc(z.real, z.imag)
    return (z / mp.log(1 - z)) ** 2 / (1 - z) - 1


# (order, radius) -> bound on the relative error of U of log_map.  At order 64
# the quotient series' polynomial serves |z| < 0.05; at order 5 only |z| <
# 1e-3, since a wider mask there read 1e-4 at |z| = 0.049.
LOG_MAP_U_RTOL = {(64, 0.002): 2e-9, (64, 0.01): 1e-10, (64, 0.03): 1e-11,
                  (5, 9e-4): 1e-8, (5, 0.002): 3e-6, (5, 0.01): 2e-8, (5, 0.03): 1e-9}


@pytest.mark.parametrize("order, radius", sorted(LOG_MAP_U_RTOL))
def test_log_map_u_keeps_relative_accuracy_near_the_origin(order, radius):
    z = radius * np.exp(2j * np.pi * (np.arange(50) + 0.1) / 50)
    got = u_operator(make_catalog("log_map", order=order))(z)
    with mp.workdps(40):
        worst = max(float(abs(mp.mpc(g.real, g.imag) / _mp_log_map_u(zk) - 1))
                    for zk, g in zip(z, got))
    assert worst <= LOG_MAP_U_RTOL[order, radius], worst


def test_log_map_eval_reads_u_to_ten_digits():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["eval", "--id", "log_map", "0.01j", "--json"]) == 0
    got = complex(*json.loads(out.getvalue())["deviation_u"])
    with mp.workdps(40):
        want = _mp_log_map_u(0.01j)
        assert float(abs(mp.mpc(got) / want - 1)) <= 1e-10


def _mp_reciprocal(c, order):
    r = [1 / c[0]]
    for k in range(1, order + 1):
        r.append(-mp.fsum(c[j] * r[k - j] for j in range(1, min(k, len(c) - 1) + 1)) / c[0])
    return r


def test_series_reciprocal():
    rng = np.random.default_rng(3)
    c = (rng.standard_normal(31) + 1j * rng.standard_normal(31)) * 0.5 ** np.arange(31)
    c[0] = 0.8 + 0.3j
    got = ComplexSeries(c).reciprocal().coeffs
    with mp.workdps(DPS):
        want = _mp_reciprocal([mp.mpc(ck) for ck in c], 30)
    for k in range(31):
        assert close(got[k], want[k]), k


def test_log_map_quotient_is_the_reciprocal():
    # log_map is defined by its f series; its quotient, 1/(f/z), is one inversion
    got = make_catalog("log_map", order=40).quotient.coeffs
    with mp.workdps(DPS):
        want = _mp_reciprocal([1 / mp.mpf(k + 1) for k in range(got.size)], got.size - 1)
    for k in range(got.size):
        assert close(got[k], want[k]), k


def _blaschke_f_coeffs(order):
    """a_1..a_{order+1} of the Blaschke member: psi's expansion, the omega1
    primitive, h = 1 - a2 z - z omega1, then f/z = 1/h."""
    b = BLASCHKE
    q = [mp.mpf(1)]
    for a in b["alphas"]:  # q = prod (1 - conj(a) z)
        q = [x - mp.conj(mp.mpc(a)) * y for x, y in zip(q + [0], [0] + q)]
    p = [mp.mpf(b["rho"]) * mp.expj(mp.mpf(b["theta"]))]
    for a in b["alphas"]:  # p = scale prod (z - a)
        p = [y - mp.mpc(a) * x for x, y in zip(p + [0], [0] + p)]
    inv_q = _mp_reciprocal(q, order)
    psi = [mp.fsum(p[j] * inv_q[k - j] for j in range(min(k, len(p) - 1) + 1))
           for k in range(order + 1)]
    h = [mp.mpf(1), -mp.mpf(b["a2"])] + [-psi[k - 1] / k for k in range(1, order)]
    return [None] + _mp_reciprocal(h, order)


@pytest.mark.parametrize("q, n", [(2, 2), (3, 1)])
@pytest.mark.parametrize("case", ["fb(0.7)", "log_map", "blaschke"])
def test_hankel_det(case, q, n):
    f = CASES[case][0]()
    got = hankel_det(f, q, n).value
    with mp.workdps(DPS):
        if case == "fb(0.7)":
            a = [None] + _mp_reciprocal([mp.mpf(1), mp.mpf(0.7), mp.mpf(1)], 8)
        elif case == "log_map":
            a = [None] + [1 / mp.mpf(k) for k in range(1, 9)]
        else:
            a = _blaschke_f_coeffs(8)
        want = mp.det(mp.matrix([[a[n + i + j] for j in range(q)] for i in range(q)]))
    assert close(got, want)


# ---------------------------------------------------------------------------
# zero counts of the certification
# ---------------------------------------------------------------------------
def _planted_polynomial(rng, degree):
    """Coefficients (low to high) of a polynomial whose roots are planted:
    one to three of them 1e-16 to 1e-1 inside or outside CERT_RADIUS, half
    the time with a near-double partner, the rest over 0.2 <= |z| <= 3."""
    near = int(rng.integers(1, min(degree, 3) + 1))
    gaps = rng.choice([-1.0, 1.0], near) * 10.0 ** rng.uniform(-16, -1, near)
    roots = list((CERT_RADIUS + gaps) * np.exp(2j * np.pi * rng.uniform(size=near)))
    if degree > near and rng.random() < 0.5:
        split = 10.0 ** rng.uniform(-12, -3) * np.exp(2j * np.pi * rng.uniform())
        roots.append(roots[0] * (1.0 + split))
    rest = degree - len(roots)
    roots += list(rng.uniform(0.2, 3.0, rest) * np.exp(2j * np.pi * rng.uniform(size=rest)))
    return npp.polyfromroots(roots)


def _mp_zeros_inside(coeffs):
    """Zeros of the polynomial with exactly these float coefficients inside
    |z| < CERT_RADIUS, from its 80-digit mpmath roots (numpy's roots only
    seed the iteration)."""
    with mp.workdps(80):
        roots = mp.polyroots([mp.mpc(complex(c)) for c in coeffs[::-1]],
                             maxsteps=400, extraprec=300,
                             roots_init=[mp.mpc(complex(z)) for z in npp.polyroots(coeffs)])
        return sum(1 for r in roots if abs(r) < CERT_RADIUS)


def test_polynomial_zero_counts_are_right_or_refused():
    rng = np.random.default_rng(2024)
    wrong, decided = [], 0
    for degree in list(range(1, 19)) * 4:
        coeffs = _planted_polynomial(rng, degree)
        try:
            got = count_zeros_on_disk(coeffs)
        except BoundaryTooClose:
            continue
        decided += 1
        want = _mp_zeros_inside(coeffs)
        if got != want:
            wrong.append((degree, got, want))
    assert wrong == []
    assert decided >= 25  # 31 of the 72 at this seed


def _mp_blaschke_jet(alphas, rho, theta, a2):
    """z -> (h, h') of a Blaschke member at mpmath precision.  By partial
    fractions psi = C + sum r_k / (1 - conj(alpha_k) z), so omega1, its
    primitive from 0, is C z - sum (r_k / conj(alpha_k)) log(1 - conj(alpha_k) z)."""
    al = [mp.mpc(a) for a in alphas]
    ca = [mp.conj(a) for a in al]
    scale = mp.mpf(rho) * mp.expj(mp.mpf(theta))
    const = scale * mp.fprod(-1 / c for c in ca)
    res = [scale * mp.fprod(1 / ck - a for a in al)
           / mp.fprod(1 - cj / ck for j, cj in enumerate(ca) if j != k)
           for k, ck in enumerate(ca)]
    a2 = mp.mpc(a2)

    def jet(z):
        om = const * z - mp.fsum(r / c * mp.log(1 - c * z) for r, c in zip(res, ca))
        psi = scale * mp.fprod((z - a) / (1 - c * z) for a, c in zip(al, ca))
        return 1 - a2 * z - z * om, -a2 - om - z * psi
    return jet


def _mp_winding(jet, radius):
    """Winding number of h around 0 on |z| = radius.  An arc is halved until
    the argument of h turns by less than 0.2 from its start to its midpoint
    and on to its end, and the turning rate d arg h / d theta = Re(z h'/h)
    at those three points times the width stays below 0.4, so a cluster of
    zeros near the arc cannot hide a full turn."""
    def at(t):
        z = radius * mp.expj(t)
        h, h1 = jet(z)
        return h, abs(mp.re(z * h1 / h))

    n = 64
    width = 2 * mp.pi / n
    pts = [at(k * width) for k in range(n)]
    arcs = [(k * width, width, pts[k], pts[(k + 1) % n]) for k in range(n)]
    total = mp.mpf(0)
    while arcs:
        t, width, (fa, ra), (fb, rb) = arcs.pop()
        fm, rm = mid = at(t + width / 2)
        d1, d2 = mp.arg(fm / fa), mp.arg(fb / fm)
        if max(abs(d1), abs(d2)) < 0.2 and width * max(ra, rm, rb) < 0.4:
            total += d1 + d2
        else:
            arcs += [(t, width / 2, (fa, ra), mid), (t + width / 2, width / 2, mid, (fb, rb))]
    return int(mp.nint(total / (2 * mp.pi)))


def _planted_blaschke(rng, zeros):
    """(alphas, rho, theta, a2) of a Blaschke member with `zeros` (1 or 2)
    zeros of h planted 1e-16 to 1e-1 inside or outside CERT_RADIUS, a pair
    1e-8 to 1e-2 apart.  h = 1 - a2 z - s z Omega(z), with Omega the
    primitive of psi/s, is linear in (a2, s); draws with |s| > 1 or
    |a2| > 2 are redrawn."""
    while True:
        m = int(rng.integers(1, 5))
        alphas = rng.uniform(0.05, 0.95, m) * np.exp(2j * np.pi * rng.uniform(size=m))
        gap = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16, -1)
        star = [mp.mpc((CERT_RADIUS + gap) * np.exp(2j * np.pi * rng.uniform()))]
        if zeros == 2:
            split = 10.0 ** rng.uniform(-8, -2) * np.exp(2j * np.pi * rng.uniform())
            star.append(star[0] * (1 + mp.mpc(split)))
        unit = _mp_blaschke_jet(alphas, 1.0, 0.0, 0)
        rows = [[z, 1 - unit(z)[0]] for z in star]  # z, z Omega(z)
        if zeros == 1:
            s = mp.mpc(rng.uniform(0.0, 1.0) * np.exp(2j * np.pi * rng.uniform()))
            a2 = (1 - s * rows[0][1]) / rows[0][0]
        else:
            a2, s = mp.lu_solve(mp.matrix(rows), mp.matrix([1, 1]))
        if abs(s) <= 1 and abs(a2) <= 2:
            return alphas, float(abs(s)), float(mp.arg(s)), complex(a2)


def test_blaschke_zero_counts_match_the_mpmath_winding():
    """Members with one zero or a close pair of zeros of h planted near
    CERT_RADIUS, and members at a random a2."""
    rng = np.random.default_rng(77)
    wrong, decided = [], 0
    for case in range(36):
        with mp.workdps(40):
            if case % 3:
                alphas, rho, theta, a2 = _planted_blaschke(rng, case % 3)
            else:
                m = int(rng.integers(1, 5))
                alphas = rng.uniform(0.05, 0.95, m) * np.exp(2j * np.pi * rng.uniform(size=m))
                rho, theta = rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0 * np.pi)
                a2 = complex(rng.uniform(0.05, 2.0) * np.exp(2j * np.pi * rng.uniform()))
            kernel = SchwarzGenerator.blaschke(alphas, rho, theta).member(a2, 8)[1]
            try:
                got = count_zeros_on_disk(kernel.factor("pole"))
            except BoundaryTooClose:
                continue
            decided += 1
            want = _mp_winding(_mp_blaschke_jet(alphas, rho, theta, a2), CERT_RADIUS)
        if got != want:
            wrong.append((case, got, want))
    assert wrong == []
    assert decided >= 15  # 18 of the 36 at this seed


def _mp_zero(fn, coeffs):
    """The zero of fn nearest the origin: mpmath's findroot from the root
    of the truncated Taylor polynomial ``coeffs`` nearest the origin."""
    start = min(npp.polyroots(coeffs), key=abs)
    return mp.findroot(fn, mp.mpc(start))


def test_placed_zeros_lie_in_their_brackets():
    """h of a Blaschke member with a2 = 1.8 vanishes near 0.556, and for g
    of a member whose D = a2 + omega1 is planted to vanish at 0.45 e^{-2.5i},
    D and D + z psi = -h' (a2 g') vanish inside the disk; each mpmath zero
    lies in the bracket placed by bisecting winding counts."""
    alphas, rho, theta = [0.5, -0.3j], 0.9, 0.4
    h, kernel = SchwarzGenerator.blaschke(alphas, rho, theta).member(1.8)
    f = DiskFunction("blaschke_zero", {}, kernel, quotient=ComplexSeries(h))
    z0 = 0.45 * np.exp(-2.5j)
    gen = SchwarzGenerator.blaschke([0.3 + 0.4j, -0.6j], 0.7, 2.0)
    a2 = -gen.member(0.0)[1].omega_jet(np.array([z0]), 0)[0][0]
    g = g_transform(build_member(a2, gen))
    with mp.workdps(30):
        h_jet = _mp_blaschke_jet(alphas, rho, theta, 1.8)
        g_jet = _mp_blaschke_jet([0.3 + 0.4j, -0.6j], 0.7, 2.0, a2)
        cases = [
            (f, "pole", lambda z: h_jet(z)[0], h),
            (g, "root", lambda z: (1 - g_jet(z)[0]) / z, g.series.coeffs[1:]),
            (g, "crit", lambda z: g_jet(z)[1], npp.polyder(g.series.coeffs)),
        ]
        zeros = {}
        for fn, part, zero_of, coeffs in cases:
            lo, hi, _ = zero_bracket(fn, part, CERT_RADIUS)
            zeros[part] = zero = abs(_mp_zero(zero_of, coeffs))
            assert lo <= zero <= hi < lo + 5e-5, (part, lo, float(zero), hi)
        assert abs(zeros["root"] - 0.45) < 1e-12  # the planted zero of D


class _MpPoly:
    """A polynomial with mpmath coefficients, low to high, with the
    operations ``membership._functional_polys`` builds P and Q from."""

    def __init__(self, c):
        self.c = [mp.mpc(x) for x in c]

    def _sum(self, other, sign):
        n = max(len(self.c), len(other.c))
        pad = [mp.mpc(0)] * n
        return _MpPoly([x + sign * y for x, y in zip((self.c + pad)[:n], (other.c + pad)[:n])])

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __mul__(self, other):
        if not isinstance(other, _MpPoly):
            return _MpPoly([mp.mpf(other) * x for x in self.c])
        out = [mp.mpc(0)] * (len(self.c) + len(other.c) - 1)
        for i, x in enumerate(self.c):
            for j, y in enumerate(other.c):
                out[i + j] += x * y
        return _MpPoly(out)

    def d(self):
        return _MpPoly([k * x for k, x in enumerate(self.c)][1:] or [0])

    def z(self):
        return _MpPoly([0] + self.c)

    def __call__(self, z):
        return mp.polyval(self.c[::-1], z)


def _mp_polys(f, tag, alpha):
    """Exact P and Q of the tag's functional of f = z M/N, from the float
    coefficients of N and M."""
    n, m = (_MpPoly(f.kernel._coeffs(x)) for x in "NM")
    return membership._functional_polys(n, m, tag, alpha)


def _mp_t(polys, tag, z):
    """T at z: |P|^2 - |Q|^2 for U, -Re(P conj(Q)) for the real-part tags."""
    p, q = (poly(z) for poly in polys)
    return abs(p) ** 2 - abs(q) ** 2 if tag == "U" else -mp.re(p * mp.conj(q))


_MEMBER = (0.5 + 0.1j, SchwarzGenerator.polynomial([0.3, -0.2j, 0.1]))
RATIONAL = {
    "koebe": lambda: make_catalog("koebe"),
    "fb(0.7)": lambda: make_catalog("fb", {"b": 0.7}),
    "example_sec1": lambda: make_catalog("example_sec1"),
    "f2": lambda: make_catalog("f2"),
    "g(fb(0.5))": lambda: g_transform(make_catalog("fb", {"b": 0.5})),
    "member": lambda: build_member(*_MEMBER),
    "g(member)": lambda: g_transform(build_member(*_MEMBER)),
}
PROOF_TAGS = [("U", None), ("starlike", None), ("convex", None), ("bounded_turning", None),
              ("mocanu", 0.5), ("mocanu", -1.0), ("mocanu", 2.0)]


@pytest.mark.parametrize("case", sorted(RATIONAL))
def test_circle_polys_are_the_tag_functionals(case):
    f = RATIONAL[case]()
    rng = np.random.default_rng(11)
    z = rng.uniform(0.1, 0.2, 5) * np.exp(2j * np.pi * rng.uniform(size=5))
    operators = {"U": u_operator(f), "starlike": starlike_quotient(f),
                 "convex": convex_quotient(f), "bounded_turning": turning_derivative(f)}
    for tag, alpha in PROOF_TAGS:
        got = operators[tag](z) if alpha is None else mocanu_real_part(f, alpha)(z)
        with mp.workdps(DPS):
            p, q = _mp_polys(f, tag, alpha)
            for zk, gk in zip(z, got):
                want = p(mp.mpc(zk)) / q(mp.mpc(zk))
                want = complex(want if alpha is None else mp.re(want))
                assert abs(gk - want) <= TOL * abs(want), (case, tag, alpha, zk)


def _proven_circles(policy):
    """(f, tag, alpha, r, verdict) of every circle that the radius searches
    of the RATIONAL cases at PROOF_TAGS decide by a proof."""
    circles, proof = [], membership._circle_proof
    for case in sorted(RATIONAL):
        f = RATIONAL[case]()
        for tag, alpha in PROOF_TAGS:
            def recorded(polys, r, grid):
                out = proof(polys, r, grid)
                if out is not None:
                    circles.append((f, tag, alpha, r, out))
                return out

            membership._circle_proof = recorded
            try:
                radius_of(f, tag, policy=policy, alpha=alpha)
            finally:
                membership._circle_proof = proof
    return circles


def _twenty(circles):
    assert len(circles) >= 20
    return circles[::len(circles) // 20][:20]


def test_circles_proven_clear_have_t_below_zero_on_a_finer_grid():
    grid = 64
    clear = _twenty([c for c in _proven_circles(ScanPolicy(grid=grid)) if c[4]])
    fine = 16 * grid
    with mp.workdps(DPS):
        for f, tag, alpha, r, _ in clear:
            polys = _mp_polys(f, tag, alpha)
            top = max(_mp_t(polys, tag, mp.mpf(r) * mp.expj(2 * mp.pi * j / fine))
                      for j in range(fine))
            assert top < 0, (f.id, tag, alpha, r, top)


def test_circles_proven_failed_have_t_above_zero_at_their_node():
    grid = ScanPolicy().grid
    failed = _twenty([c for c in _proven_circles(ScanPolicy()) if not c[4]])
    with mp.workdps(DPS):
        for f, tag, alpha, r, _ in failed:
            p, q = membership._circle_polys(f, tag, alpha)
            z = r * _unit_circle(grid)
            pv, qv = npp.polyval(z, p.c), npp.polyval(z, q.c)
            node = int(np.argmax(-(pv.real * qv.real + pv.imag * qv.imag)))
            t = _mp_t(_mp_polys(f, tag, alpha), tag, mp.mpf(r) * mp.expj(2 * mp.pi * node / grid))
            assert t > 0, (f.id, tag, alpha, r, node, t)


def _sampled_polynomial_members(count=24):
    """The first ``count`` certified members of the two polynomial kinds,
    alternating, at seeded a2 and degrees 2 to 8."""
    members = []
    for seed in range(3 * count):
        kind = ("random_polynomial", "scaled_unimodular")[seed % 2]
        a2 = (0.3 + 1.5 * (0.37 * seed % 1.0)) * np.exp(0.9j * seed)
        try:
            members.append(build_member(a2, sample_schwarz(seed, kind, 2 + seed % 7)))
        except DenominatorVanishes:
            continue
        if len(members) == count:
            break
    return members


def _mp_circle_max(f, tag, r, dps=40):
    """The maximum on |z| = r of |P/Q| (U) or -Re P/Q (starlike), P/Q the
    tag's functional: local maxima of a 2^14-point float scan, each polished
    to a zero of the exact angular derivative at ``dps`` digits."""
    with mp.workdps(dps):
        p, q = _mp_polys(f, tag, None)
        dp, dq = p.d(), q.d()

        def value_and_slope(t):  # G = P/Q and dG/dt at z = r e^{it}
            z = mp.mpf(r) * mp.expj(t)
            pz, qz = p(z), q(z)
            return pz / qz, 1j * z * (dp(z) * qz - pz * dq(z)) / qz ** 2

        if tag == "U":
            value = lambda t: abs(value_and_slope(t)[0])
            slope = lambda t: mp.re(mp.conj(value_and_slope(t)[0]) * value_and_slope(t)[1])
        else:
            value = lambda t: -mp.re(value_and_slope(t)[0])
            slope = lambda t: -mp.re(value_and_slope(t)[1])
        n = 2 ** 14
        theta = 2 * np.pi * np.arange(n) / n
        z = r * np.exp(1j * theta)
        g = npp.polyval(z, [complex(c) for c in p.c]) / npp.polyval(z, [complex(c) for c in q.c])
        v = np.abs(g) if tag == "U" else -g.real
        peaks = np.flatnonzero((v >= np.roll(v, 1)) & (v >= np.roll(v, -1)))
        step = 2 * mp.pi / n
        return max(value(mp.findroot(slope, (mp.mpf(theta[k]) - step, mp.mpf(theta[k]) + step),
                                     solver="anderson"))
                   for k in peaks[np.argsort(-v[peaks])[:3]])


def test_scan_maxima_match_a_40_digit_maximization():
    policy = ScanPolicy()
    members = _sampled_polynomial_members()
    assert len(members) == 24
    for f in members:
        for tag, sign in (("U", 1.0), ("starlike", -1.0)):
            got = sign * classify(f, tag, policy).extremal_value
            want = _mp_circle_max(f, tag, policy.r_max)
            assert abs(got - want) <= 1e-13 * abs(want), (f.id, f.params, tag, got, want)
