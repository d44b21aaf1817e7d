"""Strict scenario-file parsing.

Scenarios are JSON with nested blocks (drive, geometry, bath, optional
numerics and task).  Parsing is strict: unknown keys are rejected with a
message naming the offender, physical quantities have no defaults, and the
frequency convention must be declared explicitly ("angular" values are
rad/s as given, "ordinary" values are Hz and get multiplied by 2 pi).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bath import E_A0, AtomGeometry, BathParams
from .errors import ScenarioError
from .floquet import DriveParams, check_n_samples

_TOP_KEYS = {"drive", "geometry", "bath", "numerics", "task"}
_DRIVE_KEYS = {"omega", "rabi", "omega_eg", "detuning", "frequency_convention"}
_GEOMETRY_KEYS = {"separation", "theta_d", "dipole_mag", "dipole_ea0", "positions", "dipole_axis"}
_BATH_KEYS = {"temperature"}
_NUMERICS_KEYS = {"n_samples"}


@dataclass(frozen=True)
class Scenario:
    """Validated physical scenario plus the raw input echo.

    ``n_samples`` is ``numerics.n_samples``, the one numerical setting.  The
    sideband truncation is not a setting: ``floquet_solve`` chooses it from
    the discarded Fourier weight.
    """

    drive: DriveParams
    geometry: AtomGeometry
    bath: BathParams
    n_samples: int
    task: dict
    raw: dict


def _reject_unknown(block: dict, allowed: set, context: str) -> None:
    """Refuse keys outside ``allowed``, named as ``<context>.<key>`` like every invalid value."""
    for key in block:
        if key not in allowed:
            raise ScenarioError(f"unknown key '{context}.{key}'" if context else f"unknown key '{key}'")


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


def integer(value) -> int:
    """The int of an integral JSON number; a fraction or any non-number is refused."""
    if not number(value).is_integer():
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def _read(block: dict, key: str, context: str, reader):
    """``reader(block[key])``, its refusal turned into a ScenarioError naming the key."""
    try:
        return reader(block[key])
    except (TypeError, ValueError) as err:
        raise ScenarioError(f"invalid {context}.{key}: {err}") from err


def _require_number(block: dict, key: str, context: str) -> float:
    if key not in block:
        raise ScenarioError(f"missing key '{key}' in {context}")
    return _read(block, key, context, number)


def _parse_drive(block) -> DriveParams:
    if not isinstance(block, dict):
        raise ScenarioError("drive block must be an object")
    _reject_unknown(block, _DRIVE_KEYS, "drive")
    convention = block.get("frequency_convention")
    if convention not in ("angular", "ordinary"):
        raise ScenarioError(
            "drive.frequency_convention must be 'angular' or 'ordinary'"
        )
    factor = 1.0 if convention == "angular" else 2.0 * np.pi
    has_eg = "omega_eg" in block
    has_det = "detuning" in block
    if has_eg == has_det:
        raise ScenarioError("drive needs exactly one of 'omega_eg' or 'detuning'")
    omega = factor * _require_number(block, "omega", "drive")
    rabi = factor * _require_number(block, "rabi", "drive")
    try:
        if has_eg:
            return DriveParams(omega=omega, rabi=rabi, omega_eg=factor * _require_number(block, "omega_eg", "drive"))
        return DriveParams.from_detuning(omega=omega, rabi=rabi, detuning=factor * _require_number(block, "detuning", "drive"))
    except ValueError as err:
        raise ScenarioError(f"invalid drive block: {err}") from err


def _parse_geometry(block) -> AtomGeometry:
    if not isinstance(block, dict):
        raise ScenarioError("geometry block must be an object")
    _reject_unknown(block, _GEOMETRY_KEYS, "geometry")
    has_mag = "dipole_mag" in block
    has_ea0 = "dipole_ea0" in block
    if has_mag == has_ea0:
        raise ScenarioError("geometry needs exactly one of 'dipole_mag' or 'dipole_ea0'")
    if has_mag:
        dipole = _require_number(block, "dipole_mag", "geometry")
    else:
        dipole = E_A0 * _require_number(block, "dipole_ea0", "geometry")

    has_positions = "positions" in block
    if has_positions:
        if "separation" in block or "theta_d" in block:
            raise ScenarioError(
                "geometry takes either positions/dipole_axis or separation/theta_d, not both"
            )
        if "dipole_axis" not in block:
            raise ScenarioError("geometry.positions requires 'dipole_axis'")
        try:
            return AtomGeometry.from_positions(
                block["positions"], dipole_mag=dipole, dipole_axis=block["dipole_axis"]
            )
        except ValueError as err:
            raise ScenarioError(f"invalid geometry block: {err}") from err
    if "dipole_axis" in block:
        raise ScenarioError("geometry.dipole_axis is only meaningful with 'positions'")
    try:
        return AtomGeometry(
            separation=_require_number(block, "separation", "geometry"),
            dipole_mag=dipole,
            theta_d=_require_number(block, "theta_d", "geometry"),
        )
    except ValueError as err:
        raise ScenarioError(f"invalid geometry block: {err}") from err


def _parse_bath(block) -> BathParams:
    if not isinstance(block, dict):
        raise ScenarioError("bath block must be an object")
    _reject_unknown(block, _BATH_KEYS, "bath")
    try:
        return BathParams(temperature=_require_number(block, "temperature", "bath"))
    except ValueError as err:
        raise ScenarioError(f"invalid bath block: {err}") from err


def _parse_n_samples(block) -> int:
    """numerics.n_samples; 1024 when the block or the key is absent."""
    if block is None:
        block = {}
    if not isinstance(block, dict):
        raise ScenarioError("numerics block must be an object")
    _reject_unknown(block, _NUMERICS_KEYS, "numerics")
    if "n_samples" not in block:
        return 1024
    n_samples = _read(block, "n_samples", "numerics", integer)
    try:
        check_n_samples(n_samples)
    except ValueError as err:
        raise ScenarioError(f"numerics.{err}") from err
    return n_samples


def parse_scenario_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario root must be an object")
    _reject_unknown(data, _TOP_KEYS, "")
    for required in ("drive", "geometry", "bath"):
        if required not in data:
            raise ScenarioError(f"missing block '{required}' in scenario")
    task = data.get("task", {})
    if not isinstance(task, dict):
        raise ScenarioError("task block must be an object")
    return Scenario(
        drive=_parse_drive(data["drive"]),
        geometry=_parse_geometry(data["geometry"]),
        bath=_parse_bath(data["bath"]),
        n_samples=_parse_n_samples(data.get("numerics")),
        task=dict(task),
        raw=data,
    )


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r") as fh:
            data = json.load(fh)
    except ValueError as err:  # malformed, or an int beyond Python's digit limit
        raise ScenarioError(f"scenario cannot be read as JSON: {err}") from err
    return parse_scenario_dict(data)


def task_params(scenario: Scenario, allowed: dict, context: str) -> dict:
    """Validate the task block against {key: (required, reader)} specs."""
    block = scenario.task
    for key in block:
        if key not in allowed:
            raise ScenarioError(f"unknown key 'task.{key}' for {context}")
    out = {}
    for key, (required, reader) in allowed.items():
        if key in block:
            out[key] = _read(block, key, "task", reader)
        elif required:
            raise ScenarioError(f"missing task key '{key}' for {context}")
    return out
