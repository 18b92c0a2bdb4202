import json
from fractions import Fraction

import numpy as np
import pytest

from radonrange import InvalidParameterError, TrigPoly
from radonrange.bodies import (
    body_from_json,
    load_tangential,
    scalar_from_json,
    tangential_from_json,
    trigpoly_from_json,
)


class TestScalars:
    def test_fraction_strings(self):
        assert scalar_from_json("1/2") == Fraction(1, 2)
        assert scalar_from_json("-7/3") == Fraction(-7, 3)
        assert scalar_from_json("3") == 3
        assert scalar_from_json(2.5) == 2.5
        assert scalar_from_json(4) == 4

    def test_rejects_garbage(self):
        with pytest.raises(InvalidParameterError):
            scalar_from_json("abc")
        with pytest.raises(InvalidParameterError):
            scalar_from_json(True)
        with pytest.raises(InvalidParameterError):
            scalar_from_json("1/0")


class TestBodies:
    def test_ellipse(self):
        body = body_from_json({"kind": "ellipse", "a": 2, "b": 1, "tilt": 0})
        assert body.kind == "ellipse"
        assert body.rho2_poly.cos_coeffs == (Fraction(5, 2), 0, Fraction(3, 2))

    def test_trig_with_fractions(self):
        body = body_from_json({"kind": "trig", "rho2": {"cos": ["1", 0, "1/4"], "sin": [0, 0, 0]}})
        assert body.rho2_poly.coefficient(2)[0] == Fraction(1, 4)

    def test_perturbed_nesting(self):
        body = body_from_json(
            {
                "kind": "perturbed",
                "base": {"kind": "ellipse", "a": 1, "b": 1},
                "eps": 0.05,
                "frequency": 4,
            }
        )
        assert body.rho2_poly.coefficient(4)[0] == pytest.approx(0.05)

    def test_sampled(self):
        body = body_from_json({"kind": "sampled", "values": ["1", "3/2", "1", "3/2"]})
        assert body.is_exact
        assert body.values[1] == Fraction(3, 2)

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            body_from_json({"kind": "square"})
        with pytest.raises(InvalidParameterError):
            body_from_json({})


class TestTangential:
    def test_default_density(self):
        data = tangential_from_json({"kind": "ellipse", "a": 2, "b": 1})
        assert data.m == 1
        assert isinstance(data.densities[0], TrigPoly)

    def test_m_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            tangential_from_json(
                {"kind": "ellipse", "a": 2, "b": 1, "m": 3, "densities": [1, 2]}
            )

    def test_density_objects(self):
        data = tangential_from_json(
            {
                "kind": "ellipse",
                "a": 2,
                "b": 1,
                "densities": [{"cos": [0, 0, "1/2"]}, "-1"],
            }
        )
        assert data.m == 2
        assert data.densities[0].coefficient(2)[0] == Fraction(1, 2)

    def test_sampled_densities(self):
        data = tangential_from_json(
            {"kind": "sampled", "values": ["1", "1", "1", "1"], "densities": [["1/2", "1", "1/2", "1"]]}
        )
        assert isinstance(data.densities[0], np.ndarray)
        assert data.is_exact

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "body.json"
        path.write_text(json.dumps({"kind": "ellipse", "a": 2, "b": 1, "densities": [1]}))
        data = load_tangential(path)
        assert data.m == 1


def test_trigpoly_from_json():
    poly = TrigPoly((Fraction(1, 2), 0, 3), (0, Fraction(-2, 7), 0))
    assert trigpoly_from_json({"cos": ["1/2", 0, 3], "sin": [0, "-2/7", 0]}) == poly
    assert trigpoly_from_json("5").cos_coeffs == (5,)
