"""Strict scenario-file parsing.

Scenarios are JSON with nested blocks (drive, geometry, bath, optional
numerics and task).  Parsing is strict: unknown keys are rejected with a
message naming the offender, physical quantities have no defaults, and the
frequency convention must be declared explicitly ("angular" values are
rad/s as given, "ordinary" values are Hz and get multiplied by 2 pi).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import constants

from .bath import AtomGeometry, BathParams
from .errors import ScenarioError
from .floquet import DriveParams

_E_A0 = constants.e * constants.physical_constants["Bohr radius"][0]

_TOP_KEYS = {"drive", "geometry", "bath", "numerics", "task"}
_DRIVE_KEYS = {"omega", "rabi", "omega_eg", "detuning", "frequency_convention"}
_GEOMETRY_KEYS = {"separation", "theta_d", "dipole_mag", "dipole_ea0", "positions", "dipole_axis"}
_BATH_KEYS = {"temperature"}
_NUMERICS_KEYS = {"n_samples", "sideband_cutoff"}


@dataclass(frozen=True)
class Numerics:
    """Grid and truncation settings; the only block with defaults."""

    n_samples: int = 1024
    sideband_cutoff: int = 16

    def __post_init__(self):
        if self.n_samples < 64 or (self.n_samples & (self.n_samples - 1)) != 0:
            raise ScenarioError("numerics.n_samples must be a power of two, at least 64")
        if self.sideband_cutoff < 1:
            raise ScenarioError("numerics.sideband_cutoff must be positive")
        if self.sideband_cutoff > self.n_samples // 4:
            raise ScenarioError(
                "numerics.sideband_cutoff must not exceed n_samples / 4 "
                f"({self.n_samples // 4} at {self.n_samples} samples)"
            )


@dataclass(frozen=True)
class Scenario:
    """Validated physical scenario plus the raw input echo."""

    drive: DriveParams
    geometry: AtomGeometry
    bath: BathParams
    numerics: Numerics
    task: dict
    raw: dict


def _reject_unknown(block: dict, allowed: set, context: str) -> None:
    for key in block:
        if key not in allowed:
            raise ScenarioError(f"unknown key '{key}' in {context}")


def _require_number(block: dict, key: str, context: str) -> float:
    if key not in block:
        raise ScenarioError(f"missing key '{key}' in {context}")
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"key '{key}' in {context} must be a number")
    if not np.isfinite(value):
        raise ScenarioError(f"key '{key}' in {context} must be finite")
    return float(value)


def integer(value) -> int:
    """The int of an integral JSON number; a fraction, bool or string is refused."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


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
        dipole = _E_A0 * _require_number(block, "dipole_ea0", "geometry")

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


def _parse_numerics(block) -> Numerics:
    if block is None:
        return Numerics()
    if not isinstance(block, dict):
        raise ScenarioError("numerics block must be an object")
    _reject_unknown(block, _NUMERICS_KEYS, "numerics")
    kwargs = {}
    for key in ("n_samples", "sideband_cutoff"):
        if key in block:
            _require_number(block, key, "numerics")
            try:
                kwargs[key] = integer(block[key])
            except ValueError as err:
                raise ScenarioError(f"invalid numerics.{key}: {err}") from err
    return Numerics(**kwargs)


def parse_scenario_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario root must be an object")
    _reject_unknown(data, _TOP_KEYS, "scenario")
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
        numerics=_parse_numerics(data.get("numerics")),
        task=dict(task),
        raw=data,
    )


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as err:
        raise ScenarioError(f"scenario is not valid JSON: {err}") from err
    return parse_scenario_dict(data)


def task_params(scenario: Scenario, allowed: dict, context: str) -> dict:
    """Validate the task block against {key: (required, caster)} specs."""
    block = scenario.task
    for key in block:
        if key not in allowed:
            raise ScenarioError(f"unknown key '{key}' in task ({context})")
    out = {}
    for key, (required, caster) in allowed.items():
        if key in block:
            try:
                out[key] = caster(block[key])
            except (TypeError, ValueError) as err:
                raise ScenarioError(f"invalid task.{key}: {err}") from err
        elif required:
            raise ScenarioError(f"missing task key '{key}' for {context}")
    return out
