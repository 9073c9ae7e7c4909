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
count must equal the reference or refuse, and never be wrong.
"""
import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from diskclass import (
    SchwarzGenerator,
    build_member,
    count_zeros_on_disk,
    g_transform,
    hankel_det,
    make_catalog,
)
from diskclass.catalog import CERT_RADIUS
from diskclass.errors import BoundaryTooClose
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
                got = count_zeros_on_disk(lambda z: kernel.h_jet(z, 0)[0], CERT_RADIUS,
                                          *kernel.winding_bounds(CERT_RADIUS))
            except BoundaryTooClose:
                continue
            decided += 1
            want = _mp_winding(_mp_blaschke_jet(alphas, rho, theta, a2), CERT_RADIUS)
        if got != want:
            wrong.append((case, got, want))
    assert wrong == []
    assert decided >= 15  # 18 of the 36 at this seed
