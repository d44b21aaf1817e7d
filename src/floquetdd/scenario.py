"""Strict scenario-file parsing.

Scenarios are JSON with nested blocks (drive, geometry, bath, optional
numerics and task).  One function, ``read_block``, reads every block, the
top level and each subcommand's task from a table ``{key: (reader,
default)}``.  A reader takes the JSON value and returns the parsed value or
raises ``ValueError``/``TypeError`` with the reason; readers are strict and
coerce nothing (``number`` refuses strings and booleans).  A key whose
default is ``REQUIRED`` must be given; any other absent key takes its
default.  Every refusal of a single key takes one of three forms:

    unknown key '<block>.<key>'
    missing key '<block>.<key>'
    invalid <block>.<key>: <reason>

Only rules across keys are written out by hand: exactly one of
``omega_eg``/``detuning`` and of ``dipole_mag``/``dipole_ea0``, and
``positions``/``dipole_axis`` against ``separation``/``theta_d``.
Physical quantities have no defaults, and the frequency convention must be
declared explicitly ("angular" values are rad/s as given, "ordinary" values
are Hz and get multiplied by 2 pi).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bath import E_A0, AtomGeometry, BathParams
from .errors import ScenarioError
from .floquet import DriveParams, check_n_samples

# The default of a key that must be given.
REQUIRED = object()


@dataclass(frozen=True)
class Scenario:
    """Validated physical scenario plus the raw input echo.

    ``n_samples`` is ``numerics.n_samples``, the one numerical setting.  The
    sideband truncation is not a setting: ``floquet_solve`` chooses it from
    the discarded Fourier weight.  ``task`` is the task block unread: each
    subcommand reads it with its own table.
    """

    drive: DriveParams
    geometry: AtomGeometry
    bath: BathParams
    n_samples: int
    task: dict
    raw: dict


def read_block(block: dict, keys: dict, context: str) -> dict:
    """Every key of ``keys``, read from the JSON object ``block``.

    ``keys`` maps each allowed key to ``(reader, default)``; ``context`` is
    the block's name in refusals (``""`` for the top level).  Any other key
    in ``block`` is refused.
    """
    prefix = f"{context}." if context else ""
    for key in block:
        if key not in keys:
            raise ScenarioError(f"unknown key '{prefix}{key}'")
    out = {}
    for key, (reader, default) in keys.items():
        if key in block:
            try:
                out[key] = reader(block[key])
            except (TypeError, ValueError) as err:
                raise ScenarioError(f"invalid {prefix}{key}: {err}") from err
        elif default is REQUIRED:
            raise ScenarioError(f"missing key '{prefix}{key}'")
        else:
            out[key] = default
    return out


def number(value) -> float:
    """The float of a finite JSON number; bool, str and ints beyond float range are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        raise ValueError("must be a number within float range") from None
    if not math.isfinite(out):
        raise ValueError(f"must be finite, got {value!r}")
    return out


def numbers(value) -> list:
    """A JSON list of numbers, or of such lists, with every entry read by ``number``."""
    if not isinstance(value, list):
        raise ValueError(f"must be a list, got {value!r}")
    return [numbers(entry) if isinstance(entry, list) else number(entry) for entry in value]


def integer(value) -> int:
    """The int of an integral JSON number; a fraction or any non-number is refused."""
    if not number(value).is_integer():
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def positive(value) -> float:
    """A number above zero."""
    out = number(value)
    if out <= 0.0:
        raise ValueError(f"must be positive, got {value!r}")
    return out


def within(reader, lo: float, hi: float):
    """The reader of a ``reader`` value in [lo, hi]."""

    def read(value):
        out = reader(value)
        if not lo <= out <= hi:
            raise ValueError(f"must lie in [{lo:g}, {hi:g}], got {value!r}")
        return out

    return read


def one_of(*choices: str):
    """The reader of a string among ``choices``."""
    allowed = ", ".join(map(repr, choices[:-1])) + f" or {choices[-1]!r}"

    def read(value) -> str:
        if not (isinstance(value, str) and value in choices):
            raise ValueError(f"must be {allowed}")
        return value

    return read


non_negative = within(number, 0.0, math.inf)


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise ValueError("must be an object")
    return value


def _n_samples(value) -> int:
    out = integer(value)
    check_n_samples(out)
    return out


# The keys of every scenario block; "" is the top level.
BLOCK_KEYS = {
    "": {
        "drive": (_object, REQUIRED),
        "geometry": (_object, REQUIRED),
        "bath": (_object, REQUIRED),
        "numerics": (_object, {}),
        "task": (_object, {}),
    },
    "drive": {
        "omega": (positive, REQUIRED),
        "rabi": (non_negative, REQUIRED),
        "omega_eg": (positive, None),
        "detuning": (number, None),
        "frequency_convention": (one_of("angular", "ordinary"), REQUIRED),
    },
    "geometry": {
        "separation": (positive, None),
        "theta_d": (within(number, 0.0, math.pi), None),
        "dipole_mag": (positive, None),
        "dipole_ea0": (positive, None),
        "positions": (numbers, None),
        "dipole_axis": (numbers, None),
    },
    "bath": {"temperature": (non_negative, REQUIRED)},
    "numerics": {"n_samples": (_n_samples, 1024)},
}


def _exactly_one(values: dict, context: str, first: str, second: str) -> None:
    if (values[first] is None) == (values[second] is None):
        raise ScenarioError(f"{context} needs exactly one of '{first}' or '{second}'")


def _parse_drive(block: dict) -> DriveParams:
    keys = read_block(block, BLOCK_KEYS["drive"], "drive")
    _exactly_one(keys, "drive", "omega_eg", "detuning")
    factor = 1.0 if keys["frequency_convention"] == "angular" else 2.0 * np.pi
    omega, rabi = factor * keys["omega"], factor * keys["rabi"]
    try:
        if keys["omega_eg"] is not None:
            return DriveParams(omega=omega, rabi=rabi, omega_eg=factor * keys["omega_eg"])
        return DriveParams.from_detuning(omega=omega, rabi=rabi, detuning=factor * keys["detuning"])
    except ValueError as err:
        raise ScenarioError(f"invalid drive block: {err}") from err


def _parse_geometry(block: dict) -> AtomGeometry:
    keys = read_block(block, BLOCK_KEYS["geometry"], "geometry")
    _exactly_one(keys, "geometry", "dipole_mag", "dipole_ea0")
    dipole = keys["dipole_mag"] if keys["dipole_mag"] is not None else E_A0 * keys["dipole_ea0"]
    try:
        if keys["positions"] is None:
            if keys["dipole_axis"] is not None:
                raise ScenarioError("geometry.dipole_axis is only meaningful with 'positions'")
            for key in ("separation", "theta_d"):
                if keys[key] is None:
                    raise ScenarioError(f"missing key 'geometry.{key}'")
            return AtomGeometry(
                separation=keys["separation"], dipole_mag=dipole, theta_d=keys["theta_d"]
            )
        if keys["separation"] is not None or keys["theta_d"] is not None:
            raise ScenarioError(
                "geometry takes either positions/dipole_axis or separation/theta_d, not both"
            )
        if keys["dipole_axis"] is None:
            raise ScenarioError("geometry.positions requires 'dipole_axis'")
        return AtomGeometry.from_positions(
            keys["positions"], dipole_mag=dipole, dipole_axis=keys["dipole_axis"]
        )
    except ValueError as err:
        raise ScenarioError(f"invalid geometry block: {err}") from err


def parse_scenario_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario root must be an object")
    blocks = read_block(data, BLOCK_KEYS[""], "")
    return Scenario(
        drive=_parse_drive(blocks["drive"]),
        geometry=_parse_geometry(blocks["geometry"]),
        bath=BathParams(**read_block(blocks["bath"], BLOCK_KEYS["bath"], "bath")),
        n_samples=read_block(blocks["numerics"], BLOCK_KEYS["numerics"], "numerics")["n_samples"],
        task=dict(blocks["task"]),
        raw=data,
    )


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r") as fh:
            data = json.load(fh)
    except ValueError as err:  # malformed, or an int beyond Python's digit limit
        raise ScenarioError(f"scenario cannot be read as JSON: {err}") from err
    return parse_scenario_dict(data)
