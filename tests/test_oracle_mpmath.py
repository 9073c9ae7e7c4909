"""Kernel jets, series inversion and Hankel determinants against mpmath.

Every reference value is computed at 50 digits without diskclass: the h
jet by mpmath differentiation of a closed form of h = z/f (for a Blaschke
member, by quadrature of psi), the f and omega jets from it by the product
rule applied to f h = z and z omega1 = 1 - a2 z - h, and the coefficients
by the convolution recurrence.  A value passes when it agrees to 1e-12,
relative above modulus 1 and absolute below.
"""
import numpy as np
import pytest

from diskclass import SchwarzGenerator, build_member, g_transform, hankel_det, make_catalog
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
