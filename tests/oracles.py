"""Closed-form oracles that the tests compare the library against.

Nothing in the package calls these; each one restates a formula of the
paper (or a classical identity) independently of the code under test.
``jet_at`` is the tests' reader of the kernel jets at a point.
"""
import numpy as np

from diskclass.catalog import DiskFunction
from diskclass.errors import ArgumentOutOfDomain
from diskclass.membership import RADIUS_CAP, ScanPolicy, class_functional, extremal_on_circle
from diskclass.operators import PointFunctional, convex_quotient, starlike_quotient
from diskclass.series import ComplexSeries


def rotate(series: ComplexSeries, theta: float) -> ComplexSeries:
    """Coefficient rotation c_n -> exp(i(n-1)theta) c_n.

    This is the series of exp(-i theta) f(exp(i theta) z), the standard
    normalization-preserving rotation.
    """
    n = np.arange(series.coeffs.size)
    return ComplexSeries(series.coeffs * np.exp(1j * theta * (n - 1)))


def jet_at(kernel, name, n, z):
    """The ``name`` jet ("h", "f" or "omega") of a kernel to order n at z:
    a list of complex numbers for a scalar z, of arrays for an array."""
    zz = np.asarray(z, dtype=np.complex128)
    jet = getattr(kernel, f"{name}_jet")(np.atleast_1d(zz), n)
    return [complex(v[0]) for v in jet] if zz.ndim == 0 else jet


def u_series(f: DiskFunction) -> ComplexSeries:
    """Taylor series of the deviation, h - z h' - 1 on the quotient series."""
    h = f.quotient.coeffs
    u = h - np.arange(h.size) * h
    u[0] -= 1.0
    return ComplexSeries(u)


def c_coefficients(generator):
    """First three Taylor coefficients of omega1 (c1, c2, c3).

    omega1_k = psi_{k-1}/k = -h_{k+1} for the quotient h of the a2 = 0
    member, which build_member divides the same way, so these equal the c
    of a built member exactly.
    """
    h = generator.member(0j, 2)[0]
    c = np.zeros(3, dtype=np.complex128)
    c[:h.size - 2] = -h[2:5]
    return tuple(complex(ck) for ck in c)


def coeffs_from_c(a2: complex, c) -> tuple:
    """(a3, a4, a5) rebuilt from the decomposition data (a2, c1, c2, c3)."""
    a2 = complex(a2)
    c1, c2, c3 = (complex(ck) for ck in c[:3])
    a3 = c1 + a2 ** 2
    a4 = c2 + 2.0 * a2 * c1 + a2 ** 3
    a5 = c3 + 2.0 * a2 * c2 + c1 ** 2 + 3.0 * a2 ** 2 * c1 + a2 ** 4
    return a3, a4, a5


def c3_envelope(c1: float, c2_abs: float) -> float:
    """Largest |c3| compatible with the constraints at real c1 >= 0:
    (1 - c1^2 - 4 |c2|^2/(1 + c1))/3."""
    c1, c2_abs = float(c1), float(c2_abs)
    if not 0.0 <= c1 <= 1.0:
        raise ArgumentOutOfDomain(f"c1 = {c1} outside [0, 1]")
    if c2_abs < 0.0 or c2_abs > (1.0 - c1 * c1) / 2.0 + 1e-12:
        raise ArgumentOutOfDomain(
            f"|c2| = {c2_abs} outside [0, (1 - c1^2)/2]")
    return (1.0 - c1 * c1 - 4.0 * c2_abs * c2_abs / (1.0 + c1)) / 3.0


def constant_psi(spec):
    """(a2, c) of a campaign function with constant psi = c, read off its
    spec, or None: koebe (a2 = 2) and fb(b) (a2 = -b) have omega1 = -z, and
    a scaled_unimodular member has psi = rho e^{i theta}."""
    p = spec["params"]
    if spec["id"] == "koebe":
        return 2.0, -1.0
    if spec["id"] == "fb":
        return -p["b"], -1.0
    if spec["id"] == "sampled" and p["generator"]["kind"] == "scaled_unimodular":
        g = p["generator"]["params"]
        return complex(*p["a2"]), g["rho"] * np.exp(1j * g["theta"])
    return None


def moebius_deviation_sup(a2, c, r: float) -> float:
    """sup of |U_g| on |z| = r for g of a constant-psi member.

    h = 1 - a2 z - c z^2 gives g = z + b z^2 with b = c/a2, whose quotient
    1/(1 + b z) has U_g = -b^2 z^2/(1 + b z)^2, so the sup is
    (|b| r/(1 - |b| r))^2 for |b| r < 1.
    """
    t = abs(c / a2) * r
    return (t / (1.0 - t)) ** 2


def mocanu_functional(f, alpha: float) -> PointFunctional:
    """(1 - alpha) z f'/f + alpha (1 + z f''/f')."""
    s = starlike_quotient(f)
    c = convex_quotient(f)
    alpha = float(alpha)

    def fn(zz):
        return (1.0 - alpha) * s(zz) + alpha * c(zz)

    return PointFunctional(fn)


# An outward walk over fixed radii: a ladder of halvings 0.01 * 2^-j
# (j = 8, ..., 1), then 96 evenly spaced radii from 0.01 to RADIUS_CAP, whose
# step bounds how narrow a failure dip can be and still be seen.
WALK_RADII = np.concatenate((0.01 * 2.0 ** -np.arange(8.0, 0.0, -1.0),
                             np.linspace(0.01, RADIUS_CAP, 96)))


def walk_radius(f, class_tag, tol=1e-4, policy=None, alpha=None) -> float:
    """The radius of a class property found without knowing where its
    functional has poles: walk outward over WALK_RADII, one circle per
    scan, to the first radius that fails, then bisect the bracket (last
    radius that clears, first that fails) to tol.  1.0 when every radius
    clears.  Each circle is scanned as ``radius_of`` scans it."""
    policy = policy or ScanPolicy()
    functional = class_functional(f, class_tag, alpha)
    threshold = 1.0 if class_tag == "U" else 0.0

    def clears(r):
        return extremal_on_circle(functional, r, policy, threshold=threshold)[0] < threshold

    lo = 0.0
    for hi in WALK_RADII:
        if not clears(float(hi)):
            break
        lo = float(hi)
    else:
        return 1.0
    hi = float(hi)
    while hi - lo > tol and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if clears(mid) else (lo, mid)
    return 0.5 * (lo + hi)
