import json
import re
import struct
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import constants

from floquetdd import io
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
from floquetdd.cli import TASK_KEYS
from floquetdd.scenario import (
    BLOCK_KEYS,
    REQUIRED,
    load_scenario,
    one_of,
    parse_scenario_dict,
    positive,
    read_block,
)

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

    def test_read_block_refusal_forms(self):
        keys = {"horizon": (positive, REQUIRED), "initial_state": (one_of("+-", "-+"), "+-")}
        assert read_block({"horizon": 1e-5}, keys, "task") == {"horizon": 1e-5, "initial_state": "+-"}
        for block, message in (
            ({"horizon": 1e-5, "other": 1.0}, "unknown key 'task.other'"),
            ({"initial_state": "-+"}, "missing key 'task.horizon'"),
            ({"horizon": 0}, "invalid task.horizon: must be positive, got 0"),
            ({"horizon": "1e-5"}, "invalid task.horizon: must be a number, got '1e-5'"),
            ({"horizon": 1e-5, "initial_state": "xx"}, "invalid task.initial_state: must be '+-' or '-+'"),
        ):
            with pytest.raises(ScenarioError, match=re.escape(message)):
                read_block(block, keys, "task")
        # the top level names its keys without a block prefix
        data = base_scenario()
        del data["drive"]
        with pytest.raises(ScenarioError, match=re.escape("missing key 'drive'")):
            parse_scenario_dict(data)
        data = base_scenario()
        del data["geometry"]["theta_d"]
        with pytest.raises(ScenarioError, match=re.escape("missing key 'geometry.theta_d'")):
            parse_scenario_dict(data)

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


# One valid task block of each subcommand that reads its task.
VALID_TASKS = {
    "evolve": {"model": "obe", "t_final": 1e-6, "n_times": 3, "initial_state": "gg"},
    "steady": {"model": "fme"},
    "spinmodel": {"n_atoms": 3, "positions": [[0, 0, 0], [1e-5, 0, 0], [0, 1e-5, 0]], "dipole_axis": [0, 0, 1]},
    "taumap": {
        "rabi_over_omega_min": 0.0,
        "rabi_over_omega_max": 0.5,
        "n_rabi": 3,
        "omega_eg_over_omega_min": 0.5,
        "omega_eg_over_omega_max": 1.5,
        "n_omega_eg": 3,
    },
    "compare": {"horizon": 3e-5, "initial_state": "+-"},
}
# (block, key) of every scenario key and (subcommand, key) of every task key.
SCENARIO_KEYS = [(block, key) for block, keys in BLOCK_KEYS.items() for key in keys]
TASK_KEY_NAMES = [(sub, key) for sub, keys in TASK_KEYS.items() for key in keys]
# JSON values of every kind: null, booleans, integers beyond float range,
# floats (NaN and infinities too, which Python's json accepts), strings,
# and lists and objects of them.
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()
    | st.text(max_size=8)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
FIXED_VALUES = (
    None, True, False, 0, -1, 2, 10**400, -(10**400), 0.5, -0.0, 1e300, float("nan"), float("inf"),
    "", "fme", "1e-5", [], [0, 0, 1], [[0, 0, 0], [4e-5, 0, 0]], [[0, 0, 0], [1e300, 0, 0]],
    [[1e308, 0, 0], [-1e308, 0, 0]], [1e200, 1e200, 1e200], {}, {"a": 1},
)

POSITIONS_GEOMETRY = {"positions": [[0, 0, 0], [4e-5, 0, 0]], "dipole_axis": [0, 0, 1], "dipole_ea0": 1000.0}
# The base scenario's key that each of these keys stands in for.
STANDS_IN_FOR = {"detuning": "omega_eg", "dipole_mag": "dipole_ea0"}


def _parse_scenario_with(block, key, value):
    """Parse the base scenario with ``value`` at ``block.key``, on the route that reads that key.

    A ScenarioError is a refusal; any other exception fails the caller.
    """
    data = {**base_scenario(), "numerics": {"n_samples": 64}}
    if key in ("positions", "dipole_axis"):
        data["geometry"] = dict(POSITIONS_GEOMETRY)
    target = data if block == "" else data[block]
    target.pop(STANDS_IN_FOR.get(key), None)
    target[key] = value
    try:
        parse_scenario_dict(data)
    except ScenarioError:
        pass


def _read_task_with(sub, key, value):
    """Read the valid task of ``sub`` with ``value`` at ``key``; a ScenarioError is a refusal."""
    try:
        read_block({**VALID_TASKS[sub], key: value}, TASK_KEYS[sub], "task")
    except ScenarioError:
        pass


class TestReaderProperty:
    """Parse only: every table reads any JSON value or refuses it with a ScenarioError."""

    def test_valid_tasks_parse(self):
        assert sorted(VALID_TASKS) == sorted(TASK_KEYS)
        for sub, task in VALID_TASKS.items():
            read_block(task, TASK_KEYS[sub], "task")

    def test_fixed_values_at_every_key(self):
        for value in FIXED_VALUES:
            for block, key in SCENARIO_KEYS:
                _parse_scenario_with(block, key, value)
            for sub, key in TASK_KEY_NAMES:
                _read_task_with(sub, key, value)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(SCENARIO_KEYS), JSON_VALUES)
    def test_any_value_at_any_scenario_key(self, where, value):
        _parse_scenario_with(*where, value)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(TASK_KEY_NAMES), JSON_VALUES)
    def test_any_value_at_any_task_key(self, where, value):
        _read_task_with(*where, value)


# Rows of a one-column table on either side of io._VECTOR_CELLS: written one
# '%' per row, or by the vectorized writer.
CSV_ROWS = (1, io._VECTOR_CELLS)


def _body_by_rows(columns):
    """The body ``emit_csv`` writes below the cut-off: one '%' per row."""
    line = ",".join(io._cell_format(column) for column in columns) + "\n"
    return "".join(line % row for row in zip(*columns))


def _body_vectorized(columns):
    return "".join(io._numeric_text(columns))


def _double(sign, exponent, fraction):
    """The double of the given bit fields."""
    return struct.unpack("<d", struct.pack("<Q", sign << 63 | exponent << 52 | fraction))[0]


# Finite doubles: Hypothesis's own mix, and random bit patterns with every
# exponent equally likely (random 64-bit integers are mostly subnormals).
FINITE_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(_double, st.integers(0, 1), st.integers(0, 2046), st.integers(0, 2**52 - 1)),
)


def _edge_floats():
    """Doubles at the edges of the vectorized digits: powers of ten and
    their neighbours (decade boundaries, 3-digit exponents), every power of two
    down to the subnormals, exact halves of the 17th digit, ±0.0, the
    extremes of the double range, and the negatives of all of them."""
    tens = 10.0 ** np.arange(-300, 301)
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    halves = 1.0 + np.ldexp(1.0, -np.arange(1, 53))
    values = np.concatenate(
        [
            tens,
            np.nextafter(tens, 0.0),
            np.nextafter(tens, np.inf),
            twos,
            halves,
            [0.0, 5e-324, 2.2250738585072014e-308, 1e-250, 1e250, 1.7976931348623157e308],
            np.nextafter([1e-250, 1e250], [0.0, np.inf]),
        ]
    )
    return np.concatenate([values, -values])


class TestCsvEmission:
    """The refusals, the line endings and the cell rules are checked on
    tables on both sides of the cut-off (``CSV_ROWS``)."""

    def test_empty_table_is_header_only(self, tmp_path):
        # a table without rows has no cells, whatever its column count
        for n_columns in CSV_ROWS:
            names = tuple(f"c{k}" for k in range(n_columns))
            path = tmp_path / "empty.csv"
            emit_csv(Table(columns=names, data=((),) * n_columns), path)
            assert path.read_text() == ",".join(names) + "\n"

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
        cells = np.concatenate(
            [
                [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.0 / 3.0],
                np.random.default_rng(7).standard_normal(64) * 10.0 ** np.arange(-32, 32),
            ]
        )
        for rows, vectorized in zip(CSV_ROWS, (False, True)):
            floats = np.resize(cells, max(rows, cells.size))
            ints = np.arange(floats.size) - 30
            flags = ints % 3 == 0
            assert io._vectorized([floats, ints, flags]) == vectorized
            emit_csv(Table(columns=("x", "n", "b"), data=(floats, ints, flags)), path)
            expected = [f"{x:.16e},{int(n)},{int(b)}" for x, n, b in zip(floats, ints, flags)]
            assert path.read_text().splitlines()[1:] == expected

    def test_non_finite_guard(self, tmp_path):
        path = tmp_path / "x.csv"
        for rows in CSV_ROWS:
            for bad in (np.nan, np.inf, -np.inf):
                values = np.ones(rows)
                values[-1] = bad
                with pytest.raises(RuntimeError, match="non-finite value reached CSV emission"):
                    emit_csv(Table(columns=("v",), data=(values,)), path)
                assert not path.exists()

    @pytest.mark.parametrize("cell", ["a,b", "a\nb"])
    def test_separator_in_string_refused(self, tmp_path, cell):
        with pytest.raises(ValueError, match="separators"):
            emit_csv(Table(columns=("s",), data=(("ok", cell),)), tmp_path / "x.csv")

    def test_unsupported_dtype_refused(self, tmp_path):
        path = tmp_path / "x.csv"
        for rows in CSV_ROWS:
            with pytest.raises(TypeError, match="unsupported column dtype complex128"):
                emit_csv(Table(columns=("v", "z"), data=(np.ones(rows), np.full(rows, 1j))), path)
            assert not path.exists()

    def test_lf_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        for rows in CSV_ROWS:
            values = np.arange(1.0, rows + 2.0)
            emit_csv(Table(columns=("v",), data=(values,)), path)
            raw = path.read_bytes()
            assert b"\r" not in raw
            assert raw.endswith(b"\n")
            assert raw.count(b"\n") == values.size + 1

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                FINITE_DOUBLES,
                st.integers(-(2**63), 2**63 - 1),
                st.integers(0, 2**64 - 1),
                st.booleans(),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_vectorized_text_is_the_rows_text(self, cells):
        floats, ints, unsigned, flags, singles = zip(*cells)
        columns = [
            np.array(floats),
            np.array(ints, dtype=np.int64),
            np.array(unsigned, dtype=np.uint64),
            np.array(flags),
            np.array(singles, dtype=np.float32),
        ]
        assert _body_vectorized(columns) == _body_by_rows(columns)

    def test_vectorized_text_at_the_edges(self):
        floats = _edge_floats()
        extremes = [-(2**63), 2**63 - 1, 0, -1, 9999, 10_000, -10_000, 99_999_999, 100_000_000]
        ints = np.resize(np.array(extremes, dtype=np.int64), floats.size)
        columns = [floats, ints, np.resize(np.array([0, 2**64 - 1], dtype=np.uint64), floats.size)]
        assert _body_vectorized(columns) == _body_by_rows(columns)

    def test_power_table_is_exact(self):
        # hi is 10**q rounded to a double, lo the rest of 10**q rounded
        for q, hi, lo in zip(range(io._Q_MIN, io._Q_MIN + io._POW_HI.size), io._POW_HI, io._POW_LO):
            exact = Fraction(10) ** q
            assert hi == float(exact), q
            assert lo == float(exact - Fraction(hi)), q

    # tracemalloc peak of one emit_csv of 1e5 rows of 9 float columns (7.2 MB
    # of doubles, 21 MB of text): 0.76 MB, the working memory of one block
    # of rows.
    PEAK_MB = 1.0

    def test_vectorized_memory_does_not_grow_with_the_table(self, tmp_path):
        rng = np.random.default_rng(11)
        table = Table(columns=tuple("abcdefghi"), data=tuple(rng.standard_normal(100_000) for _ in range(9)))
        out = tmp_path / "big.csv"
        emit_csv(table, out)
        tracemalloc.start()
        try:
            emit_csv(table, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 1e6 < self.PEAK_MB

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

    @pytest.mark.parametrize(
        "matrix",
        [
            np.arange(12.0).reshape(3, 4) * np.pi - 5.0 + 1j * np.arange(12.0).reshape(3, 4) * -0.0,
            np.arange(6).reshape(2, 3) - 3,
            (np.arange(6, dtype=np.float32).reshape(3, 2) / 3).astype(np.float32),
        ],
        ids=["complex", "int", "float32"],
    )
    def test_matrix_to_json_entries_are_each_float(self, matrix):
        encoded = matrix_to_json(matrix)
        for key, part in (("real", np.real(matrix)), ("imag", np.imag(matrix))):
            expected = [float(v) for v in part.ravel()]
            assert all(type(v) is float for v in encoded[key])
            assert [v.hex() for v in encoded[key]] == [v.hex() for v in expected]

    def test_schema_version_present(self, tmp_path):
        bundle = ResultBundle(task="demo", inputs={}, outputs={}, version="0.1.0")
        path = tmp_path / "s.json"
        emit_json(bundle, path)
        assert json.loads(path.read_text())["schema_version"] == "2"

    @pytest.mark.parametrize("found", ["1", "3", 2, None], ids=["older", "newer", "number", "missing"])
    def test_other_schema_version_refused(self, tmp_path, found):
        data = ResultBundle(task="demo", inputs={}, outputs={}, version="0.1.0").to_dict()
        if found is None:
            del data["schema_version"]
        else:
            data["schema_version"] = found
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"schema version {found!r} is not '2'"):
            read_json(path)
