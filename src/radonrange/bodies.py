"""Reading body definitions and tangential data from JSON documents.

A body document looks like one of

    {"kind": "ellipse", "a": 2, "b": 1, "tilt": 0.5235987755982988}
    {"kind": "trig", "rho2": {"cos": [1, 0, "1/4"], "sin": [0, 0, 0]}}
    {"kind": "perturbed", "base": {...}, "eps": 0.05, "frequency": 4}
    {"kind": "sampled", "values": ["1/2", "2/3", ...]}

optionally extended with ``"m"`` and ``"densities"`` (a list of scalars or
{"cos": [...], "sin": [...]} objects) to form tangential data; a missing
density list defaults to the single density q_0 = 1.  Exact rationals are
given as "p/q" strings everywhere.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .circle import TrigPoly
from .errors import InvalidParameterError
from .geometry import SupportFunction, TangentialData, make_ellipse, perturb


def scalar_from_json(value):
    """Finite JSON number -> int/float; "p/q" string -> Fraction."""
    if isinstance(value, bool):
        raise InvalidParameterError("booleans are not scalars")
    if isinstance(value, float) and not math.isfinite(value):
        raise InvalidParameterError(f"scalar {value!r} is not finite")
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            frac = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidParameterError(f"cannot parse scalar {value!r}") from exc
        return int(frac) if frac.denominator == 1 else frac
    raise InvalidParameterError(f"cannot parse scalar {value!r}")


def trigpoly_from_json(value) -> TrigPoly:
    if isinstance(value, (int, float, str)):
        return TrigPoly.constant(scalar_from_json(value))
    if isinstance(value, dict):
        cos = [scalar_from_json(x) for x in value.get("cos", [])]
        sin = [scalar_from_json(x) for x in value.get("sin", [])]
        return TrigPoly(tuple(cos) or (0,), tuple(sin) or (0,))
    raise InvalidParameterError("a trig polynomial is a scalar or a {cos, sin} object")


def body_from_json(doc: dict) -> SupportFunction:
    """Build the support function described by a body document."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InvalidParameterError("a body document needs a 'kind' field")
    kind = doc["kind"]
    if kind == "ellipse":
        tilt = scalar_from_json(doc.get("tilt", 0.0))
        return make_ellipse(
            scalar_from_json(doc.get("a", 1)),
            scalar_from_json(doc.get("b", 1)),
            float(tilt),
        )
    if kind == "trig":
        if "rho2" not in doc:
            raise InvalidParameterError("a trig body needs 'rho2'")
        return SupportFunction.from_rho2_poly(trigpoly_from_json(doc["rho2"]))
    if kind == "perturbed":
        if "base" not in doc:
            raise InvalidParameterError("a perturbed body needs 'base'")
        base = body_from_json(doc["base"])
        frequency = doc.get("frequency", 4)
        if not isinstance(frequency, int) or isinstance(frequency, bool):
            raise InvalidParameterError("'frequency' must be an integer")
        return perturb(base, scalar_from_json(doc.get("eps", 0)), frequency)
    if kind == "sampled":
        values = doc.get("values")
        if not values:
            raise InvalidParameterError("a sampled body needs 'values'")
        return SupportFunction.from_samples([scalar_from_json(v) for v in values])
    raise InvalidParameterError(f"unknown body kind {kind!r}")


def _density_from_json(value):
    if isinstance(value, list):
        return [scalar_from_json(v) for v in value]
    return trigpoly_from_json(value)


def tangential_from_json(doc: dict) -> TangentialData:
    """Build tangential data from a body document with optional densities.

    When both ``m`` and ``densities`` are present their lengths must agree.
    A document without densities gets the single density q_0 = 1.
    """
    body = body_from_json(doc)
    densities = doc.get("densities")
    if densities is None:
        densities = [1]
    if not isinstance(densities, list) or not densities:
        raise InvalidParameterError("'densities' must be a non-empty list")
    if "m" in doc and int(doc["m"]) != len(densities):
        raise InvalidParameterError(
            f"m={doc['m']} does not match the {len(densities)} given densities"
        )
    return TangentialData(body, tuple(_density_from_json(q) for q in densities))


def load_tangential(path) -> TangentialData:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return tangential_from_json(doc)

