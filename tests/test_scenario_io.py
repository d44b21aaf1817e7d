import json
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import constants

from floquetdd.errors import ScenarioError
from floquetdd.io import (
    ResultBundle,
    Table,
    emit_csv,
    emit_json,
    matrix_to_json,
    read_csv,
    read_json,
)
from floquetdd.scenario import load_scenario, parse_scenario_dict, task_params

E_A0 = constants.e * constants.physical_constants["Bohr radius"][0]


def base_scenario():
    return {
        "drive": {
            "omega": 1e10,
            "rabi": 1e8,
            "omega_eg": 1e10,
            "frequency_convention": "angular",
        },
        "geometry": {"separation": 40e-6, "dipole_ea0": 1000.0, "theta_d": np.pi / 2},
        "bath": {"temperature": 0.0},
    }


class TestScenarioParsing:
    def test_canonical(self):
        sc = parse_scenario_dict(base_scenario())
        assert sc.drive.omega == 1e10
        assert sc.drive.detuning == 0.0
        assert sc.geometry.dipole_mag == pytest.approx(1000 * E_A0)
        assert sc.bath.temperature == 0.0
        assert sc.n_samples == 1024
        assert sc.task == {}

    def test_unknown_keys_are_named(self):
        for mutate, expected in (
            (lambda d: d.update(extra=1), "extra"),
            (lambda d: d["drive"].update(rabbi=1.0), "rabbi"),
            (lambda d: d["geometry"].update(sep=1.0), "sep"),
            (lambda d: d["bath"].update(temp=1.0), "temp"),
        ):
            data = base_scenario()
            mutate(data)
            with pytest.raises(ScenarioError, match=expected):
                parse_scenario_dict(data)

    def test_exactly_one_transition_spec(self):
        data = base_scenario()
        data["drive"]["detuning"] = 0.0
        with pytest.raises(ScenarioError, match="exactly one"):
            parse_scenario_dict(data)
        del data["drive"]["omega_eg"]
        sc = parse_scenario_dict(data)
        assert sc.drive.omega_eg == 1e10

    def test_frequency_convention_required(self):
        data = base_scenario()
        del data["drive"]["frequency_convention"]
        with pytest.raises(ScenarioError, match="frequency_convention"):
            parse_scenario_dict(data)
        data["drive"]["frequency_convention"] = "sometimes"
        with pytest.raises(ScenarioError, match="frequency_convention"):
            parse_scenario_dict(data)

    def test_ordinary_convention_scales_by_two_pi(self):
        data = base_scenario()
        data["drive"]["frequency_convention"] = "ordinary"
        sc = parse_scenario_dict(data)
        assert sc.drive.omega == pytest.approx(2 * np.pi * 1e10)
        assert sc.drive.omega_eg == pytest.approx(2 * np.pi * 1e10)
        assert sc.drive.rabi == pytest.approx(2 * np.pi * 1e8)

    def test_dipole_requires_exactly_one_unit(self):
        data = base_scenario()
        data["geometry"]["dipole_mag"] = 1e-27
        with pytest.raises(ScenarioError, match="exactly one"):
            parse_scenario_dict(data)

    def test_positions_route(self):
        data = base_scenario()
        data["geometry"] = {
            "positions": [[0.0, 0.0, 0.0], [0.0, 0.0, 40e-6]],
            "dipole_axis": [1.0, 0.0, 0.0],
            "dipole_ea0": 1000.0,
        }
        sc = parse_scenario_dict(data)
        assert sc.geometry.separation == pytest.approx(40e-6)
        assert sc.geometry.theta_d == pytest.approx(np.pi / 2)

    def test_positions_conflicts_rejected(self):
        data = base_scenario()
        data["geometry"]["positions"] = [[0, 0, 0], [0, 0, 1]]
        with pytest.raises(ScenarioError):
            parse_scenario_dict(data)
        # Position and axis entries are numbers: strings and booleans are
        # refused, not converted, and the refusal names the key.
        pair = [[0, 0, 0], [4e-5, 0, 0]]
        for positions, axis, key in (
            ([["0", "0", "0"], ["4e-5", "0", "0"]], [0, 0, 1], "geometry.positions"),
            ([[0, 0, 0], ["1e-5", 0, 0]], [0, 0, 1], "geometry.positions"),
            (pair, [False, False, True], "geometry.dipole_axis"),
            (pair, ["0", "0", "1"], "geometry.dipole_axis"),
            (pair, "001", "geometry.dipole_axis"),
        ):
            data["geometry"] = {"positions": positions, "dipole_axis": axis, "dipole_ea0": 1000.0}
            with pytest.raises(ScenarioError, match=re.escape(f"invalid {key}: must be a")):
                parse_scenario_dict(data)
        # An axis nested one level too deep is no 3-vector.
        data["geometry"]["dipole_axis"] = [[0, 0, 1]]
        with pytest.raises(ScenarioError, match="dipole_axis must be a nonzero 3-vector"):
            parse_scenario_dict(data)

    def test_missing_block(self):
        data = base_scenario()
        del data["bath"]
        with pytest.raises(ScenarioError, match="bath"):
            parse_scenario_dict(data)

    def test_physical_validation_routed(self):
        data = base_scenario()
        data["drive"]["omega"] = -1.0
        with pytest.raises(ScenarioError):
            parse_scenario_dict(data)

    def test_numerics_defaults_and_validation(self):
        data = base_scenario()
        data["numerics"] = {"n_samples": 512}
        sc = parse_scenario_dict(data)
        assert sc.n_samples == 512
        data["numerics"] = {}
        assert parse_scenario_dict(data).n_samples == 1024
        data["numerics"] = {"n_samples": 100}
        with pytest.raises(ScenarioError):
            parse_scenario_dict(data)
        # floquet_solve chooses the sideband truncation; the schema has no key for it
        data["numerics"] = {"n_samples": 64, "sideband_cutoff": 16}
        with pytest.raises(ScenarioError, match="unknown key 'numerics.sideband_cutoff'"):
            parse_scenario_dict(data)

    def test_readme_example_parses(self):
        # The scenario example in README.md must stay valid under the schema.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
        assert len(blocks) == 1
        sc = parse_scenario_dict(json.loads(blocks[0]))
        assert sc.n_samples == 1024
        assert sc.task == {"horizon": 3e-5}

    def test_task_params_validation(self):
        data = base_scenario()
        data["task"] = {"horizon": 1e-5}
        sc = parse_scenario_dict(data)
        out = task_params(sc, {"horizon": (True, float)}, "compare")
        assert out == {"horizon": 1e-5}
        with pytest.raises(ScenarioError, match="horizon"):
            task_params(sc, {"other": (False, float)}, "compare")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(base_scenario()))
        sc = load_scenario(path)
        assert sc.drive.omega == 1e10
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ScenarioError):
            load_scenario(bad)
        # valid JSON, but an int past Python's 4300-digit conversion limit
        bad.write_text('{"drive": {"rabi": 1' + "0" * 5000 + "}}")
        with pytest.raises(ScenarioError):
            load_scenario(bad)


class TestCsvEmission:
    def test_empty_table_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(Table(columns=("a", "b"), data=((), ())), path)
        assert path.read_text() == "a,b\n"

    def test_round_trip_is_string_exact(self, tmp_path):
        path = tmp_path / "t.csv"
        table = Table(
            columns=("name", "count", "value"),
            data=(("x", "y"), (3, -2), (1.0 / 3.0, 6.02214076e23)),
        )
        emit_csv(table, path)
        first = path.read_text()
        back = read_csv(path)
        assert back.rows == (("x", 3, 1.0 / 3.0), ("y", -2, 6.02214076e23))
        emit_csv(back, path)
        assert path.read_text() == first

    def test_scientific_17_digits(self, tmp_path):
        path = tmp_path / "v.csv"
        emit_csv(Table(columns=("v",), data=((np.pi,),)), path)
        assert path.read_text().splitlines()[1] == "3.1415926535897931e+00"

    def test_cells_follow_the_column_rule(self, tmp_path):
        path = tmp_path / "c.csv"
        floats = np.concatenate(
            [
                [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.0 / 3.0],
                np.random.default_rng(7).standard_normal(64) * 10.0 ** np.arange(-32, 32),
            ]
        )
        ints = np.arange(floats.size) - 30
        flags = ints % 3 == 0
        emit_csv(Table(columns=("x", "n", "b"), data=(floats, ints, flags)), path)
        expected = [f"{x:.16e},{int(n)},{int(b)}" for x, n, b in zip(floats, ints, flags)]
        assert path.read_text().splitlines()[1:] == expected

    def test_non_finite_guard(self, tmp_path):
        with pytest.raises(RuntimeError):
            emit_csv(Table(columns=("v",), data=((np.nan,),)), tmp_path / "x.csv")
        with pytest.raises(RuntimeError):
            emit_csv(Table(columns=("v",), data=((1.0, np.inf),)), tmp_path / "x.csv")

    @pytest.mark.parametrize("cell", ["a,b", "a\nb"])
    def test_separator_in_string_refused(self, tmp_path, cell):
        with pytest.raises(ValueError, match="separators"):
            emit_csv(Table(columns=("s",), data=(("ok", cell),)), tmp_path / "x.csv")

    def test_unsupported_dtype_refused(self, tmp_path):
        with pytest.raises(TypeError):
            emit_csv(Table(columns=("z",), data=((1j,),)), tmp_path / "x.csv")

    def test_lf_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        emit_csv(Table(columns=("v",), data=((1.0, 2.0),)), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_column_length_guard(self):
        with pytest.raises(ValueError, match="length"):
            Table(columns=("a", "b"), data=((1.0,), (1.0, 2.0)))
        with pytest.raises(ValueError, match="name"):
            Table(columns=("a",), data=((1.0,), (2.0,)))


class TestJsonEmission:
    def test_bundle_round_trip(self, tmp_path):
        bundle = ResultBundle(
            task="demo",
            inputs={"drive": {"omega": 1e10}},
            outputs={"value": 1.25, "list": [1.0, 2.0]},
            version="0.1.0",
        )
        path = tmp_path / "b.json"
        emit_json(bundle, path)
        back = read_json(path)
        assert back.task == "demo"
        assert back.outputs == bundle.outputs
        assert back.inputs == bundle.inputs

    def test_matrix_round_trip(self):
        m = np.array([[1.0 + 2.0j, 0.0], [3.5, -1.0j]])
        encoded = matrix_to_json(m)
        assert encoded["rows"] == 2 and encoded["cols"] == 2
        shape = (encoded["rows"], encoded["cols"])
        decoded = np.reshape(encoded["real"], shape) + 1j * np.reshape(encoded["imag"], shape)
        np.testing.assert_array_equal(decoded, m)

    def test_non_finite_guard(self, tmp_path):
        bundle = ResultBundle(
            task="demo", inputs={}, outputs={"bad": float("inf")}, version="0"
        )
        with pytest.raises(RuntimeError):
            emit_json(bundle, tmp_path / "bad.json")

    @pytest.mark.parametrize(
        "outputs",
        [
            {"rows": [[1.0, 2.0], [3.0, float("nan")]]},
            {"report": {"margins": {"tau_s": np.float64(np.inf)}}},
        ],
        ids=["nan-in-list", "inf-in-dict"],
    )
    def test_nested_non_finite_refused_before_writing(self, tmp_path, outputs):
        bundle = ResultBundle(task="demo", inputs={}, outputs=outputs, version="0")
        path = tmp_path / "bad.json"
        with pytest.raises(RuntimeError, match="non-finite value reached JSON emission"):
            emit_json(bundle, path)
        assert not path.exists()

    def test_schema_version_present(self, tmp_path):
        bundle = ResultBundle(task="demo", inputs={}, outputs={}, version="0.1.0")
        path = tmp_path / "s.json"
        emit_json(bundle, path)
        assert json.loads(path.read_text())["schema_version"] == "1"
