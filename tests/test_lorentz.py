import numpy as np
import pytest

from maxsurf.errors import AmbientMismatch, EquatorError
from maxsurf.lorentz import Ambient, Vec3, cross_lorentz, inner, stereo_inv

from oracles import CausalCharacter, NorthPole, OffHyperboloid, causal_character, stereo

L = Ambient.LORENTZIAN
E = Ambient.EUCLIDEAN


def lv(a, b, c):
    return Vec3(a, b, c, L)


class TestVec3:
    def test_algebra(self):
        u, v = lv(1.0, 2.0, 3.0), lv(-0.5, 1.0, 0.25)
        assert (u + v).as_array().tolist() == [0.5, 3.0, 3.25]
        assert (u - v).as_array().tolist() == [1.5, 1.0, 2.75]
        assert (2.0 * u).as_array().tolist() == [2.0, 4.0, 6.0]

    def test_mixed_ambient_rejected(self):
        with pytest.raises(AmbientMismatch):
            lv(1, 0, 0) + Vec3(1, 0, 0, E)
        with pytest.raises(AmbientMismatch):
            inner(lv(1, 0, 0), Vec3(1, 0, 0, E))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Vec3(np.nan, 0.0, 0.0, L)
        with pytest.raises(ValueError):  # one bad entry of a batch
            Vec3(np.zeros(3), np.array([0.0, np.inf, 0.0]), np.zeros(3), L)

    def test_batch_components_share_one_shape(self):
        u = Vec3(np.arange(3.0), np.ones(3), np.zeros(3), L)
        assert u.as_array().shape == (3, 3)
        assert (u + lv(1.0, 0.0, 0.0)).as_array()[0].tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match="different shapes"):
            Vec3(np.zeros(2), 0.0, np.zeros(2), L)

    def test_inner_signature(self):
        assert inner(lv(1, 2, 3), lv(4, 5, 6)) == 4 + 10 - 18
        assert inner(Vec3(1, 2, 3, E), Vec3(4, 5, 6, E)) == 4 + 10 + 18

    def test_causal_characters(self):
        assert causal_character(lv(1, 0, 0)) is CausalCharacter.SPACELIKE
        assert causal_character(lv(0, 0, 1)) is CausalCharacter.TIMELIKE
        assert causal_character(lv(1, 0, 1)) is CausalCharacter.LIGHTLIKE
        assert causal_character(lv(1, 0, 1 + 1e-14)) is CausalCharacter.LIGHTLIKE
        with pytest.raises(AmbientMismatch):
            causal_character(Vec3(1, 0, 0, E))


class TestCross:
    def test_e1_cross_e2(self):
        w = cross_lorentz(lv(1, 0, 0), lv(0, 1, 0))
        assert w.as_array().tolist() == [0.0, 0.0, 1.0]

    def test_antisymmetry_and_orthogonality(self, rng):
        for _ in range(20):
            u = lv(*rng.normal(size=3))
            v = lv(*rng.normal(size=3))
            w = cross_lorentz(u, v)
            neg = cross_lorentz(v, u)
            assert np.allclose(w.as_array(), -neg.as_array())
            assert abs(inner(w, u)) < 1e-12
            assert abs(inner(w, v)) < 1e-12

    def test_triple_product_is_minus_det(self, rng):
        for _ in range(20):
            u, v, z = (lv(*rng.normal(size=3)) for _ in range(3))
            det = float(np.linalg.det(np.stack([u.as_array(), v.as_array(), z.as_array()])))
            assert abs(inner(cross_lorentz(u, v), z) + det) < 1e-12

    def test_euclidean_operands_rejected(self):
        with pytest.raises(AmbientMismatch):
            cross_lorentz(Vec3(1, 0, 0, E), Vec3(0, 1, 0, E))


class TestStereo:
    def test_round_trip_outside_equator(self, rng):
        for _ in range(25):
            z = (1.1 + 2.0 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            p = stereo_inv(complex(z))
            assert abs(inner(p, p) + 1.0) < 1e-12
            assert p.x3 >= 1.0
            assert abs(stereo(p) - z) < 1e-12 * abs(z)

    def test_upper_sheet_for_modulus_above_one(self):
        p = stereo_inv(2.0)
        assert p.x3 > 1.0
        assert abs(p.x1 - (-4.0 / 3.0)) < 1e-15
        assert abs(p.x3 - 5.0 / 3.0) < 1e-15

    def test_equator_rejected(self):
        with pytest.raises(EquatorError):
            stereo_inv(np.exp(0.3j))
        with pytest.raises(EquatorError):  # one point of a batch
            stereo_inv(np.array([2.0, np.exp(0.3j), -3.0j]))

    def test_off_hyperboloid_rejected(self):
        with pytest.raises(OffHyperboloid):
            stereo(lv(0.0, 0.0, 2.0))

    def test_north_pole_rejected(self):
        with pytest.raises(NorthPole):
            stereo(lv(0.0, 0.0, 1.0))

    def test_euclidean_point_rejected(self):
        with pytest.raises(AmbientMismatch):
            stereo(Vec3(0.0, 0.0, 1.0, E))
