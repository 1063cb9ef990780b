"""The two-pass JSON writer of earlier versions, kept as a reference.

``epkit.io.write_json`` lays its JSON out in one recursive pass;
test_json_reference.py checks it byte for byte against the straightforward
code here, which first turns numpy values, complex numbers, non-finite
floats and non-string keys into plain JSON values (``jsonable``) and then
hands the result to ``json.dumps(indent=2, sort_keys=True)``.
"""

from __future__ import annotations

import json
import math

import numpy as np


def jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):  # before int, which bool subclasses
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, complex):
        return {"re": jsonable(obj.real), "im": jsonable(obj.imag)}
    return obj


def json_text(payload) -> str:
    """What ``write_json`` writes for ``payload``."""
    return json.dumps(jsonable(payload), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
