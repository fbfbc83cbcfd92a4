import numpy as np
import pytest

from maxsurf.duality import check_commutation, flat, sharp
from maxsurf.errors import AmbientMismatch
from maxsurf.lorentz import Ambient
from maxsurf.weierstrass import build_isotropic_euclidean, build_isotropic_maximal

from conftest import disk_samples
from oracles import equivalent


class TestFlatSharp:
    def test_sharp_produces_euclidean_isotropic(self, catalog_data):
        for data in catalog_data.values():
            dual = sharp(build_isotropic_maximal(data))
            assert dual.ambient is Ambient.EUCLIDEAN
            assert dual.isotropy_residual() < 1e-12

    def test_flat_produces_lorentzian_isotropic(self, plane15):
        minimal = build_isotropic_euclidean(plane15.g, plane15.dh)
        back = flat(minimal)
        assert back.ambient is Ambient.LORENTZIAN
        assert back.isotropy_residual() < 1e-12

    def test_mutually_inverse_coefficient_exact(self, catalog_data):
        for name in ("plane-r05", "shift3-r09", "rational-r09"):
            curve = build_isotropic_maximal(catalog_data[name])
            back = flat(sharp(curve))
            for orig, rt in zip(curve.forms, back.forms):
                assert equivalent(orig, rt)
                assert orig.radius == rt.radius

    def test_only_third_component_changes(self, catalog_data, rng):
        curve = build_isotropic_maximal(catalog_data["shift4-r05"])
        dual = sharp(curve)
        z = disk_samples(rng, curve.radius, 8)
        orig = curve.densities_at(z)
        got = dual.densities_at(z)
        assert np.max(np.abs(got[0] - orig[0])) == 0.0
        assert np.max(np.abs(got[1] - orig[1])) == 0.0
        assert np.max(np.abs(got[2] - 1j * orig[2])) == 0.0

    def test_wrong_ambient_rejected(self, catalog_data, plane15):
        maximal = build_isotropic_maximal(catalog_data["plane-r05"])
        minimal = build_isotropic_euclidean(plane15.g, plane15.dh)
        with pytest.raises(AmbientMismatch):
            sharp(minimal)  # sharp eats Lorentzian curves only
        with pytest.raises(AmbientMismatch):
            flat(maximal)

    def test_commutation_with_conjugation_exact(self, catalog_data):
        for data in catalog_data.values():
            assert check_commutation(build_isotropic_maximal(data)) == 0.0
