"""Loading and saving of classical-quantum source model files.

A model file is UTF-8 JSON with fields:

* ``schema_version``: integer, currently 1;
* ``alphabet``: list of symbol labels;
* ``q_x``: list of probabilities (full support, summing to 1);
* ``states``: one complex matrix per symbol, encoded as nested row-major
  lists of ``[re, im]`` pairs;
* ``alt_states`` (optional): a second family for an alternative hypothesis;
* ``labels`` (optional): free-form metadata, ignored by computations.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ValidationError
from .hyptest import CQSource
from .operators import DensityMatrix

SCHEMA_VERSION = 1


def _decode_matrix(obj, where: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: not a numeric nested array ({exc})") from None
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(
            f"{where}: expected a square matrix of [re, im] pairs, got shape {arr.shape}"
        )
    bad = np.argwhere(~np.isfinite(arr))
    if len(bad):  # JSON NaN and Infinity parse as floats
        r, c = bad[0][:2].tolist()
        raise ValidationError(
            f"{where}[{r}][{c}]: expected finite numbers, got {arr[r, c].tolist()!r}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def _encode_matrix(mat: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, dtype=complex)]


def _decode_states(raw, count: int, where: str):
    if not isinstance(raw, list) or len(raw) != count:
        raise ValidationError(f"{where}: expected {count} matrices")
    out = []
    for i, entry in enumerate(raw):
        mat = _decode_matrix(entry, f"{where}[{i}]")
        try:
            out.append(DensityMatrix(mat))
        except ValidationError as exc:
            raise ValidationError(f"{where}[{i}]: {exc}") from None
    return out


def load_model(path):
    """Parse and validate a model file; returns (CQSource, alt_states|None)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"model file not found: {path}") from None
    except OSError as exc:  # a directory, or a file that cannot be read
        raise ValidationError(f"cannot read model file {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"model file is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError("model file must contain a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValidationError(
            f"schema_version: unsupported value {version!r} (supported: {SCHEMA_VERSION})"
        )
    for field in ("alphabet", "q_x", "states"):
        if field not in doc:
            raise ValidationError(f"{field}: missing required field")
    alphabet = doc["alphabet"]
    if not isinstance(alphabet, list) or not alphabet:
        raise ValidationError("alphabet: must be a nonempty list of labels")
    q_x = doc["q_x"]
    if not isinstance(q_x, list) or len(q_x) != len(alphabet):
        raise ValidationError(
            f"q_x: expected {len(alphabet)} probabilities, got "
            f"{len(q_x) if isinstance(q_x, list) else type(q_x).__name__}"
        )
    for i, value in enumerate(q_x):
        # JSON true/false parse as bool, a subclass of int; NaN and Infinity as floats
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValidationError(f"q_x[{i}]: expected a finite number, got {value!r}")
    total = float(sum(q_x))
    if not abs(total - 1.0) <= 1e-9:
        raise ValidationError(f"q_x: sums to {total!r}, not 1 (tolerance 1e-9)")
    states = _decode_states(doc["states"], len(alphabet), "states")
    try:
        src = CQSource(alphabet, q_x, states)
    except ValidationError as exc:
        raise ValidationError(f"model invalid: {exc}") from None
    alt = None
    if doc.get("alt_states") is not None:
        alt = tuple(_decode_states(doc["alt_states"], len(alphabet), "alt_states"))
        if any(s.dim != src.d_y for s in alt):
            raise ValidationError("alt_states: dimension differs from states")
    return src, alt


def save_model(path, src: CQSource, alt_states=None, labels=None):
    """Write a CQSource (and optional alternative family) as a model file."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "alphabet": list(src.alphabet),
        "q_x": [float(q) for q in src.q_x],
        "states": [_encode_matrix(s.entries) for s in src.states],
    }
    if alt_states is not None:
        doc["alt_states"] = [_encode_matrix(s.entries) for s in alt_states]
    if labels:
        doc["labels"] = labels
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
