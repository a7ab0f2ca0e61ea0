"""JSON and CSV input/output with reproducibility manifests.

Games, behaviors and KS sets use flat string-keyed JSON tables with
rationals written as "p/q" to avoid float loss.  Every emitted file
embeds a manifest block (tool version, config hash, input hashes) and is
byte-identical across runs with identical configuration.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .games import Alphabet, Behavior, Game

TOOL_VERSION = "0.1.0"


class InputFormatError(ValueError):
    """Malformed input file; message carries field diagnostics."""


def frac_str(value) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_frac(text, where: str = "") -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"bad rational {text!r}"
                               + (f" at {where}" if where else "")) from exc


def _key(parts: Iterable[int]) -> str:
    return ",".join(str(p) for p in parts)


def _parse_key(key: str, sizes: Sequence[int], where: str) -> tuple[int, ...]:
    """The symbols of ``key``, one per alphabet of ``sizes``, each in range."""
    parts = key.split(",")
    if len(parts) != len(sizes):
        raise InputFormatError(f"key {key!r} at {where}: expected "
                               f"{len(sizes)} comma-separated symbols")
    try:
        symbols = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise InputFormatError(f"key {key!r} at {where}: non-integer symbol") from exc
    for sym, size in zip(symbols, sizes):
        if not 0 <= sym < size:
            raise InputFormatError(f"key {key!r} at {where}: symbol {sym} "
                                   f"outside its alphabet 0..{size - 1}")
    return symbols


def _object(data: dict, name: str) -> dict:
    """Field ``name`` of ``data``; InputFormatError unless an object."""
    value = json_field(data, name, lambda v: v)
    if not isinstance(value, dict):
        raise InputFormatError(f"field {name!r} must be a JSON object, not "
                               f"{type(value).__name__}")
    return value


def whole(value) -> int:
    """``value`` as an ``int``; ValueError unless it is a whole number."""
    if int(value) != Fraction(value):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _typed(value, kind: type, what: str):
    """``value`` itself; TypeError, naming ``what`` it should be, unless it
    is a ``kind``."""
    if not isinstance(value, kind):
        raise TypeError(f"{value!r} is not {what}")
    return value


def string(value) -> str:
    """``value`` itself; TypeError unless it is a string."""
    return _typed(value, str, "a string")


def json_list(value) -> list:
    """``value`` itself; TypeError unless it is a list (a string would be
    read symbol by symbol)."""
    return _typed(value, list, "a list")


def json_field(data, name: str, parse, default=None):
    """``parse`` of field ``name`` of the JSON object ``data``, or of
    ``default`` where that field is absent; a missing field, or one that
    ``parse`` rejects, raises ``InputFormatError`` naming it."""
    value = data.get(name, default) if isinstance(data, dict) else None
    if value is None:
        raise InputFormatError(f"missing field {name!r}")
    try:
        return parse(value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise InputFormatError(f"bad field {name!r}: {exc}") from exc


def _alphabets(data) -> tuple[int, list[int], list[int]]:
    """The party count and the input and output alphabet sizes."""
    return (json_field(data, "parties", whole),
            *(json_field(data, name, lambda sizes: [
                whole(s) for s in json_list(sizes)])
              for name in ("inputs", "outputs")))


# ---------------------------------------------------------------------------
# game and behavior schemas
# ---------------------------------------------------------------------------

def game_from_dict(data: dict) -> Game:
    parties, inputs, outputs = _alphabets(data)
    pi_raw, v_raw = _object(data, "pi"), _object(data, "V")
    pi = {}
    for key, val in pi_raw.items():
        ins = _parse_key(key, inputs, "pi")
        pi[ins] = parse_frac(val, f"pi[{key}]")
    predicate = {}
    for key, val in v_raw.items():
        sym = _parse_key(key, outputs + inputs, "V")
        if val not in (0, 1):
            raise InputFormatError(f"V[{key}] = {val!r} is not 0/1")
        predicate[(sym[:parties], sym[parties:])] = int(val)
    return Game(parties, tuple(Alphabet(s) for s in inputs),
                tuple(Alphabet(s) for s in outputs), pi, predicate,
                name=json_field(data, "name", string, ""))


def behavior_to_dict(behavior: Behavior) -> dict:
    return {
        "parties": behavior.parties,
        "inputs": list(behavior.input_sizes),
        "outputs": list(behavior.output_sizes),
        "P": {f"{_key(outs)}|{_key(ins)}": frac_str(p)
              for (outs, ins), p in sorted(behavior.table.items()) if p},
        "subnormalized": behavior.subnormalized,
    }


def behavior_from_dict(data: dict) -> Behavior:
    parties, inputs, outputs = _alphabets(data)
    p_raw = _object(data, "P")
    if len(inputs) != parties or len(outputs) != parties:
        raise InputFormatError(f"behavior declares {parties} parties but "
                               f"{len(inputs)} input and {len(outputs)} "
                               f"output alphabets")
    table = {}
    for key, val in p_raw.items():
        if "|" not in key:
            raise InputFormatError(f"P key {key!r} lacks the outputs|inputs bar")
        out_key, in_key = key.split("|", 1)
        outs = _parse_key(out_key, outputs, "P")
        ins = _parse_key(in_key, inputs, "P")
        table[(outs, ins)] = parse_frac(val, f"P[{key}]")
    subnormalized = json_field(data, "subnormalized",
                               lambda v: _typed(v, bool, "a boolean"), False)
    return Behavior(tuple(inputs), tuple(outputs), table,
                    subnormalized=subnormalized)


# ---------------------------------------------------------------------------
# manifests and file emission
# ---------------------------------------------------------------------------

def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build_manifest(config: dict, input_paths: Sequence[Union[str, Path]] = ()
                   ) -> dict:
    canonical = json.dumps(config, sort_keys=True, default=str)
    inputs = {}
    for path in input_paths:
        p = Path(path)
        inputs[p.name] = sha256_hex(p.read_bytes())
    return {
        "tool_version": TOOL_VERSION,
        "config_hash": sha256_hex(canonical.encode()),
        "input_hashes": inputs,
    }


def write_json(path: Union[str, Path], payload: dict, manifest: dict) -> None:
    body = dict(payload)
    body["manifest"] = manifest
    Path(path).write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")


def csv_text(header: Sequence[str], rows: Iterable[Sequence],
             manifest: Optional[dict] = None) -> str:
    buf = io.StringIO()
    if manifest is not None:
        buf.write(f"# tool_version: {manifest['tool_version']}\n")
        buf.write(f"# config_hash: {manifest['config_hash']}\n")
        for name, digest in sorted(manifest["input_hashes"].items()):
            buf.write(f"# input {name}: {digest}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def write_csv(path: Union[str, Path], header: Sequence[str],
              rows: Iterable[Sequence], manifest: Optional[dict] = None) -> None:
    Path(path).write_text(csv_text(header, rows, manifest))


def guessing_curve_rows(points) -> tuple[list[str], list[list]]:
    """CSV rows for (w, pg) curves: rationals both as p/q and decimal."""
    header = ["w", "pg", "hmin", "w_decimal", "pg_decimal"]
    rows = []
    for w, pg in points:
        rows.append([frac_str(w), frac_str(pg), repr(-math.log2(pg) or 0.0),
                     repr(float(w)), repr(float(pg))])
    return header, rows
