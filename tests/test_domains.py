import tracemalloc

import numpy as np
import pytest
import scipy.optimize

from mudilate.domains import (E211, E311, E312, BlockStructure, DomainPoint,
                              DomainError, PoleOnTorusError,
                              certificate_search, gamma5_coords, gamma7_coords,
                              membership, mu_E, on_K0, penta_coords, point_pi,
                              point_pi_eta, psi3_supnorm, tetra_coords,
                              _structure_radius)
from mudilate.opcore import op_norm, spectral_radius


def _quadratic_max_root(tr, det):
    disc = np.sqrt(tr * tr - 4.0 * det + 0j)
    return np.maximum(np.abs((tr + disc) / 2.0), np.abs((tr - disc) / 2.0))


def _cubic_max_root(c2, c1, c0):
    """Largest-modulus root of z^3 - c2 z^2 + c1 z - c0, by Cardano
    (vectorized; independent of the LAPACK eigensolver path)."""
    a, b, c = -c2, c1, -c0
    p = b - a * a / 3.0
    q = 2.0 * a ** 3 / 27.0 - a * b / 3.0 + c
    disc = np.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3 + 0j)
    u1, u2 = -q / 2.0 + disc, -q / 2.0 - disc
    u = np.where(np.abs(u1) >= np.abs(u2), u1, u2)
    cr = np.where(np.abs(u) < 1e-30, 1e-30, u) ** (1.0 / 3.0)
    best = np.zeros(np.shape(q))
    for k in range(3):
        ck = cr * np.exp(2j * np.pi * k / 3.0)
        best = np.maximum(best, np.abs(ck - p / (3.0 * ck) - a / 3.0))
    return best


def mu_charpoly_oracle(a, structure, pts=64):
    """Independent evaluation: closed-form characteristic-polynomial roots of
    the scaled matrix on a full (unreduced) torus grid."""
    axes = [np.exp(2j * np.pi * np.arange(pts) / pts)] * structure.s
    zs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, structure.s)
    d = np.repeat(zs, structure.r, axis=1)
    m = a[None, :, :] * d[:, None, :]
    tr = np.trace(m, axis1=1, axis2=2)
    if structure.n == 2:
        det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
        return float(_quadratic_max_root(tr, det).max())
    m2 = np.einsum("kij,kjl->kil", m, m)
    c1 = (tr * tr - np.trace(m2, axis1=1, axis2=2)) / 2.0
    det = np.linalg.det(m)
    return float(_cubic_max_root(tr, c1, det).max())


def mu_polished_reference(a, structure, pts, keep=4):
    """Independent evaluation: the spectral radius on a dense reduced-torus
    grid, its `keep` best points polished by Nelder-Mead in the angles."""
    sfree = structure.s - 1
    ring = 2 * np.pi * np.arange(pts) / pts
    ang = np.stack([g.ravel() for g in np.meshgrid(*[ring] * sfree, indexing="ij")], axis=1)

    def radius(th):
        th = np.atleast_2d(th)
        z = np.exp(1j * np.concatenate([np.zeros((len(th), 1)), th], axis=1))
        d = np.repeat(z, structure.r, axis=1)
        return np.abs(np.linalg.eigvals(a[None] * d[:, None, :])).max(axis=1)

    vals = radius(ang)
    best = vals.max()
    for k in np.argsort(-vals)[:keep]:
        r = scipy.optimize.minimize(lambda t: -radius(t)[0], ang[k], method="Nelder-Mead",
                                    options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000})
        best = max(best, -r.fun)
    return best


class TestBlockStructure:
    def test_parse(self):
        s = BlockStructure.parse("3,2,1,2")
        assert (s.n, s.s, s.r) == (3, 2, (1, 2))

    def test_rejects_inconsistent(self):
        with pytest.raises(DomainError):
            BlockStructure(3, 2, (1, 1))


class TestMuE:
    def test_zero_matrix(self):
        assert mu_E(np.zeros((3, 3)), E311) == 0.0

    def test_diagonal_closed_form(self):
        a = np.diag([0.3, 0.6, 0.9]).astype(complex)
        got = mu_E(a, E311, tol=1e-4)
        assert got == pytest.approx(0.9, abs=1e-3)
        assert got == pytest.approx(mu_charpoly_oracle(a, E311, pts=8), abs=1e-3)

    def test_block_diagonal_closed_form(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = np.zeros((3, 3), dtype=complex)
            a[0, 0] = rng.standard_normal() + 1j * rng.standard_normal()
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            a[1:, 1:] = b
            want = max(abs(a[0, 0]), float(np.abs(np.linalg.eigvals(b)).max()))
            assert mu_E(a, E312, tol=1e-4) == pytest.approx(want, abs=1e-3)

    def test_homogeneity(self):
        rng = np.random.default_rng(18)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        base = mu_E(a, E311, tol=1e-4)
        for c in (0.5, 2.0, 1.7j):
            assert mu_E(c * a, E311, tol=1e-4) == \
                pytest.approx(abs(c) * base, abs=2e-4 * max(1, abs(c)))

    def test_random_against_charpoly_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(8):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            got = mu_E(a, E211, tol=1e-4)
            assert got == pytest.approx(mu_charpoly_oracle(a, E211, pts=512),
                                        abs=1e-3)

    def test_random_full_structure_against_dense_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            got = mu_E(a, E311, tol=1e-4)
            want = mu_charpoly_oracle(a, E311, pts=64)
            assert got >= want - 1e-6  # the dense grid only lower-bounds
            assert got == pytest.approx(want, abs=2e-2)

    def test_reaches_polished_dense_reference(self):
        # the zoom runs each seed to a step of tol / (4 ||A||), far below
        # the 1e-8 relative slack; the reference only lower-bounds mu
        rng = np.random.default_rng(26)
        for structure, pts, count in ((E211, 512, 4), (E312, 512, 4), (E311, 96, 4),
                                      (BlockStructure(4, 4, (1,) * 4), 24, 2)):
            for _ in range(count):
                n = structure.n
                a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                want = mu_polished_reference(a, structure, pts)
                assert mu_E(a, structure, tol=1e-4) >= want * (1 - 1e-8)

    def test_diagonal_entries_lower_bound(self):
        # scaling a single block exposes each diagonal entry as an eigenvalue
        rng = np.random.default_rng(22)
        for _ in range(10):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert mu_E(a, E311, tol=1e-4) >= \
                np.abs(np.diag(a)).max() - 1e-3

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            mu_E(np.zeros((2, 2)), E311)

    def test_many_scalar_blocks_bounded_memory(self):
        # a full 16-point grid on five free axes would hold 2^20 6x6
        # matrices (about 600 MB); the grid of at most 1024 points and the
        # zoom stencil stay near the 1 MB of one eigensolver chunk
        rng = np.random.default_rng(24)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        tracemalloc.start()
        try:
            got = mu_E(a, BlockStructure(6, 6, (1,) * 6), tol=1e-4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert spectral_radius(a) * (1 - 1e-12) <= got <= op_norm(a) * (1 + 1e-12)

    def test_structure_radius_chunks_match_rowwise(self):
        # 2000 rows of 16x16 matrices are 8 MB in one batch; the chunks
        # hold 2^16 entries (1 MB) at a time and are stitched in order
        rng = np.random.default_rng(25)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        structure = BlockStructure(16, 3, (4, 4, 8))
        zs = np.exp(2j * np.pi * rng.uniform(size=(2000, 3)))
        tracemalloc.start()
        try:
            got = _structure_radius(a, structure, zs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        for k in (0, 255, 256, 1999):
            d = np.repeat(zs[k], structure.r)
            assert got[k] == pytest.approx(spectral_radius(a * d[None, :]), rel=1e-12)


class TestPsi3:
    def test_zero_point(self):
        assert psi3_supnorm((0,) * 7).value == 0.0

    def test_two_parameter_cancellation(self):
        # numerator and denominator share the factors (1 - z a)(1 - w b)
        r = psi3_supnorm(point_pi(0.5, 0.5))
        assert r.value == pytest.approx(0.25, abs=1e-12)

    def test_axis_form_matches_direct_evaluation(self):
        x1, x6, x7 = 0.4 + 0.1j, 0.3, 0.2j
        pt = DomainPoint("gamma7", (x1, 0, 0, 0, 0, x6, x7))
        got = psi3_supnorm(pt, grid=64)
        ang = 2.0 * np.pi * (np.arange(64) + 0.5) / 64
        zs = np.exp(1j * ang)
        z, w = np.meshgrid(zs, zs, indexing="ij")
        direct = np.abs((-w * x6 + z * w * x7) / (1.0 - z * x1)).max()
        assert got.value >= direct - 1e-12
        assert got.value == pytest.approx(direct, rel=1e-3)

    def test_pole_detected(self):
        pt = DomainPoint("gamma7", (2.0, 0, 0, 0, 0, 0.5, 0.5))
        # denominator 1 - 2z vanishes inside, stays bounded on the torus:
        # no pole error expected here, only for unimodular poles
        psi3_supnorm(pt)
        bad = DomainPoint("gamma7", (1.0, 0, 0, 1.0, 0, 0, 0))
        with pytest.raises(PoleOnTorusError):
            psi3_supnorm(bad, grid=64)


class TestCoordinateMaps:
    def test_pi_point_realized_by_diagonal(self):
        a, b = 0.3 + 0.2j, -0.5
        got = gamma7_coords(np.diag([a, b, a * b]))
        np.testing.assert_allclose(got, point_pi(a, b).coords, atol=1e-14)

    def test_pi_eta_matches_gamma5_coords(self):
        a, b, eta = 0.4, 0.5j, 0.8
        p5 = point_pi_eta(point_pi(a, b), eta)
        got = gamma5_coords(np.diag([a, b, eta * a * b]))
        np.testing.assert_allclose(got, p5.coords, atol=1e-14)

    def test_tetra_penta_maps(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert tetra_coords(m) == (1.0, 4.0, pytest.approx(-2.0))
        assert penta_coords(m) == (3.0, 5.0, pytest.approx(-2.0))


class TestMembership:
    def test_tetra_corner(self):
        assert membership(DomainPoint("tetra", (1, 1, 1))).verdict == "inside"

    def test_tetra_interior_and_outside(self):
        assert membership(DomainPoint("tetra", (0.3, 0.2, 0.06))).verdict == "inside"
        assert membership(DomainPoint("tetra", (1.4, 0.1, 0.14))).verdict == "outside"
        assert membership(DomainPoint("tetra", (0.1, 1.4, 0.14))).verdict == "outside"

    def test_penta_peak_point(self):
        rep = membership(DomainPoint("penta", (1, 0, 1)))
        assert rep.verdict == "boundary"
        ok, res = on_K0(DomainPoint("penta", (1, 0, 1)))
        assert ok and res <= 1e-12

    def test_penta_inside_outside(self):
        assert membership(DomainPoint("penta", (0.2, 0.3, 0.1))).verdict == "inside"
        assert membership(DomainPoint("penta", (2.5, 0.0, 0.1))).verdict == "outside"

    def test_on_k0_points_are_members(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            x2 = 2.0 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            x3 = np.exp(2j * np.pi * rng.uniform())
            # peak-set equation x2 = conj(x2) x3 forces x3 to align with x2^2
            if abs(x2) > 1e-12:
                x3 = x2 / np.conj(x2)
            x1 = np.sqrt(1.0 - abs(x2) ** 2 / 4.0) * np.exp(2j * np.pi * rng.uniform())
            pt = DomainPoint("penta", (x1, x2, x3))
            ok, _ = on_K0(pt)
            assert ok
            assert membership(pt).verdict in ("inside", "boundary")

    def test_pi_image_inside(self):
        assert membership(point_pi(0.5, 0.5)).verdict == "inside"
        assert membership(point_pi(0.5, 0.5)).meta["decode"] == "diagonal"

    def test_pi_family_random(self):
        rng = np.random.default_rng(29)
        etas = [0.0, 1.0] + [np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                             for _ in range(6)]
        for _ in range(25):
            a = 0.97 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            b = 0.97 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            assert membership(point_pi(a, b)).verdict == "inside"
            for eta in etas:
                assert membership(point_pi_eta(point_pi(a, b), eta)).verdict == "inside"

    def test_gamma7_outside_when_decoded(self):
        assert membership(point_pi(1.5, 0.5)).verdict == "outside"

    def test_gamma7_axis_routes_through_tetra(self):
        rep = membership(DomainPoint("gamma7", (0.4, 0, 0, 0, 0, 0.5, 0.2)))
        assert rep.meta["decode"] == "axis"
        assert rep.verdict == "inside"

    def test_closed_form_kinds_name_their_decode(self):
        for pt in (DomainPoint("tetra", (0.3, 0.2, 0.06)),
                   DomainPoint("tetra", (1.4, 0.1, 0.14)),
                   DomainPoint("penta", (0.2, 0.3, 0.1))):
            assert membership(pt).meta["decode"] == "closed"

    def test_boundary_upgrade_on_distinguished_set(self):
        a, b = np.exp(0.3j), np.exp(-1.1j)
        rep = membership(point_pi(a, b))
        assert rep.verdict == "boundary"

    def test_tetra_near_boundary_decided_by_exact_realiser(self):
        # the sup of |x2 - z x3| / |1 - x1 z| over 4e6 torus points is 1.058,
        # above 1 only in a sliver that a 512-point sample misses
        x = (-0.0229 + 0.9893j, -0.2066 - 0.0697j, 0.0662 - 0.1977j)
        rep = membership(DomainPoint("tetra", x))
        assert rep.verdict == "outside"
        assert rep.meta["decode"] == "closed"
        assert rep.meta["certificate_bound"] == pytest.approx(1.00074, abs=1e-5)
        z = np.exp(2j * np.pi * np.arange(2 ** 22) / 2 ** 22)
        assert (np.abs(x[1] - z * x[2]) / np.abs(1 - x[0] * z)).max() > 1.05

    def test_items_and_meta_name_the_certificate(self):
        for pt, decode in ((point_pi(0.5, 0.5), "diagonal"),
                           (DomainPoint("penta", (0.2, 0.3, 0.1)), "closed"),
                           (DomainPoint("gamma7", (0.4, 0, 0, 0, 0, 0.5, 0.2)), "axis")):
            rep = membership(pt)
            assert [i.label for i in rep.items] == [
                "distinguished-boundary", "certificate-residual", "certificate-bound"]
            assert rep.meta["decode"] == decode
            assert rep.meta["certificate_bound"] == certificate_search(pt).constraint_value
        rep = membership(DomainPoint("tetra", (0.3, 0.2, 0.06)))
        assert [i.label for i in rep.items] == ["certificate-residual", "certificate-bound"]

    @pytest.mark.parametrize("coords", [(0, 1e200, 0), (1e200, 1e200, 0),
                                        (1e200j, -1e200, 1e300), (0, 0, 1e306)])
    def test_huge_closed_form_points_are_outside_with_finite_bound(self, coords):
        for kind in ("tetra", "penta"):
            rep = membership(DomainPoint(kind, coords))
            assert rep.verdict == "outside"
            assert np.isfinite(rep.meta["certificate_bound"])
            assert rep.meta["certificate_bound"] > 1e100
        ok, res = on_K0(DomainPoint("penta", (0, 1e200, 0)))
        assert not ok and res >= 1e200

    def test_scaled_certificate_realises_the_point(self):
        x = (3e5 + 1e5j, -2e5, 4e10j)
        for kind, coords in (("tetra", tetra_coords), ("penta", penta_coords)):
            c = certificate_search(DomainPoint(kind, x))
            np.testing.assert_allclose(coords(c.A), x, rtol=1e-12)

    @pytest.mark.parametrize("z", [float("nan"), complex(0, float("inf")),
                                   complex(1.5e308, 1.5e308)])
    def test_coordinates_with_infinite_modulus_refused(self, z):
        with pytest.raises(DomainError, match="finite"):
            DomainPoint("penta", (z, 0, 0))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9, 0.011, 1.0])
    def test_tol_out_of_range_refused(self, tol):
        with pytest.raises(DomainError, match="tol"):
            membership(DomainPoint("tetra", (1.05, 0.1, 0.105)), tol=tol)

    def test_tol_range_ends_accepted(self):
        assert membership(DomainPoint("tetra", (1, 1, 1)), tol=0.0).verdict == "inside"
        assert membership(DomainPoint("tetra", (1.005, 0, 0)), tol=1e-2).verdict == "inside"


class TestCertificates:
    def test_penta_zero(self):
        c = certificate_search(DomainPoint("penta", (0, 0, 0)))
        np.testing.assert_allclose(c.A, 0, atol=1e-9)
        assert c.residual <= 1e-9

    def test_penta_identity(self):
        c = certificate_search(DomainPoint("penta", (0, 2, 1)))
        np.testing.assert_allclose(c.A, np.eye(2), atol=1e-8)
        assert c.constraint_value == pytest.approx(1.0, abs=1e-8)

    def test_closed_forms_are_minimal_over_their_families(self):
        # every 2x2 realiser is [[x2/2 + u, (c - u^2)/x1], [x1, x2/2 - u]]
        # (penta) or [[x1, t], [q/t, x2]] (tetra); a dense scan of the free
        # entry never beats the closed form
        rng = np.random.default_rng(36)
        re, im = np.meshgrid(np.linspace(-2, 2, 161), np.linspace(-2, 2, 161))
        free = (re + 1j * im).ravel()
        free = free[free != 0]
        for _ in range(6):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            x1, x2, x3 = penta_coords(m)
            c = x2 * x2 / 4 - x3
            fam = np.stack([np.stack([x2 / 2 + free, (c - free ** 2) / x1], -1),
                            np.stack([np.full_like(free, x1), x2 / 2 - free], -1)], 1)
            got = certificate_search(DomainPoint("penta", (x1, x2, x3)))
            assert got.constraint_value <= np.linalg.norm(fam, 2, axis=(1, 2)).min() + 1e-12
            y1, y2, y3 = tetra_coords(m)
            q = y1 * y2 - y3
            fam = np.stack([np.stack([np.full_like(free, y1), free], -1),
                            np.stack([q / free, np.full_like(free, y2)], -1)], 1)
            got = certificate_search(DomainPoint("tetra", (y1, y2, y3)))
            assert got.constraint_value <= np.linalg.norm(fam, 2, axis=(1, 2)).min() + 1e-12

    def test_gamma5_diagonal(self):
        pt = point_pi_eta(point_pi(0.5, 0.5), 1.0)
        c = certificate_search(pt)
        np.testing.assert_allclose(sorted(np.abs(np.diag(c.A))),
                                   [0.25, 0.5, 0.5], atol=1e-9)
        assert c.residual <= 1e-6 and c.constraint_value <= 1.0 + 1e-6

    def test_tetra_inside_has_certificate_and_back(self):
        rng = np.random.default_rng(33)
        for _ in range(8):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            m *= 0.9 / np.linalg.norm(m, 2)
            pt = DomainPoint("tetra", tetra_coords(m))
            assert membership(pt).verdict in ("inside", "boundary")
            c = certificate_search(pt)
            assert c.residual <= 1e-6
            assert c.constraint_value <= 1.0 + 1e-6

    def test_gamma7_search_recovers_random_certificates(self):
        rng = np.random.default_rng(35)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a *= 0.55 / np.linalg.norm(a, 2)
        pt = DomainPoint("gamma7", gamma7_coords(a))
        c = certificate_search(pt, budget=300)
        assert c.residual <= 1e-6
        np.testing.assert_allclose(gamma7_coords(c.A), pt.coords, atol=1e-5)
