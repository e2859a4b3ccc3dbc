"""Command-line interface: subcommands, file formats, determinism."""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import diraclab
from diraclab.cli import _CHUNK_ROWS, _write_csv, main, parse_matrix_file, write_matrix_file
from diraclab.clifford import GAMMA5, random_matrix
from diraclab.invariance import GeneralizedParams
from diraclab.nonrel import (
    kinetic_minus_rest,
    nonrel_abs_error,
    nonrel_error,
    pauli_energy,
)
from diraclab.operators import dispersion


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Reference sweeps: the per-row loops the dispersion and limit commands ran
# before they became single array calls, one scalar call per value.
def reference_dispersion_csv(m0, eps, p, k_min, k_max, steps, c_light=1.0):
    params = GeneralizedParams.from_physical(m0, eps, (0.0, 0.0, p))
    lines = ["k,eps_plus,eps_minus,eps_pauli,eps_ll"]
    for k in np.linspace(k_min, k_max, steps):
        if c_light == 1.0:
            plus = dispersion(float(k), params, +1)
            minus = dispersion(float(k), params, -1)
        else:
            w = kinetic_minus_rest(float(k), params, c_light=c_light) + m0 * c_light ** 2
            plus = w - eps
            minus = -w - eps
        pauli = pauli_energy(float(k), params)
        row = (float(k), plus, minus, pauli, pauli)
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def reference_limit_csv(m0, k_max, points, c_light=1.0):
    params = GeneralizedParams.from_physical(m0)
    lines = ["k,dirac_kinetic,pauli_kinetic,abs_error,rel_error"]
    for k in np.geomspace(k_max * 1e-3, k_max, points):
        kin = kinetic_minus_rest(float(k), params, c_light=c_light)
        pauli = pauli_energy(float(k), params)
        err = nonrel_error(float(k), params, c_light=c_light)
        rel = err.value if err.relative else float("nan")
        row = (float(k), kin, pauli, nonrel_abs_error(float(k), params, c_light=c_light), rel)
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


# Set before comparing: the array path may round the last digit differently
# from the scalar calls (the square of an array is x*x, of a float pow(x, 2));
# at c_light != 1 the command takes the branch energy as sqrt(...) itself,
# the loop as the cancellation-free kinetic energy plus m0 c^2.
SWEEP_RTOL = 1e-15


def assert_csv_close(out, reference, exact_columns):
    got = [line.split(",") for line in out.splitlines()]
    ref = [line.split(",") for line in reference.splitlines()]
    assert got[0] == ref[0] and len(got) == len(ref)
    header = ref[0]
    for col, name in enumerate(header):
        column_got = [row[col] for row in got[1:]]
        column_ref = [row[col] for row in ref[1:]]
        if name in exact_columns:
            assert column_got == column_ref, name
        else:
            np.testing.assert_allclose(
                np.array(column_got, dtype=float),
                np.array(column_ref, dtype=float),
                rtol=SWEEP_RTOL,
                atol=0,
                err_msg=name,
            )


def assert_mass_rejected(capsys, argv, path):
    """argv exits 2 with an m0 error and writes nothing, to stdout or to -o."""
    for extra in ([], ["-o", str(path)]):
        code, out, err = run_main(capsys, [*argv, *extra])
        assert code == 2
        assert out == ""
        assert "m0 must be positive" in err
    assert not path.exists()


class TestMatrixFiles:
    def test_identity_file(self, tmp_path):
        path = tmp_path / "identity.mat"
        rows = []
        for r in range(4):
            fields = []
            for c in range(4):
                fields += ["1", "0"] if r == c else ["0", "0"]
            rows.append(" ".join(fields))
        path.write_text("\n".join(rows) + "\n")
        np.testing.assert_array_equal(parse_matrix_file(str(path)), np.eye(4))

    def test_roundtrip_random(self, tmp_path):
        rng = np.random.default_rng(81)
        path = tmp_path / "m.mat"
        for _ in range(20):
            m = 3.0 * random_matrix(rng)
            write_matrix_file(str(path), m)
            np.testing.assert_array_equal(parse_matrix_file(str(path)), m)

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.complex128, (4, 4), elements=st.complex_numbers(allow_nan=False, allow_infinity=False)))
    def test_roundtrip_is_bit_exact(self, m):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.mat")
            write_matrix_file(path, m)
            back = parse_matrix_file(path)
        # compared as bits, so signed zeros and subnormals count too
        np.testing.assert_array_equal(back.view(np.uint64), m.view(np.uint64))

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("1 0 0 0 0 0 0\n0 0 1 0 0 0 0 0\n0 0 0 0 1 0 0 0\n0 0 0 0 0 0 1 0\n")
        with pytest.raises(ValueError, match="line 1.*found 7"):
            parse_matrix_file(str(path))

    def test_wrong_line_count(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("1 0 0 0 0 0 0 0\n")
        with pytest.raises(ValueError, match="expected 4 data lines"):
            parse_matrix_file(str(path))

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "bad.mat"
        good = "0 0 0 0 0 0 0 0"
        path.write_text("\n".join([good, "0 0 0 0 x 0 0 0", good, good]) + "\n")
        with pytest.raises(ValueError, match="line 2, field 5"):
            parse_matrix_file(str(path))


class TestVerifyCommand:
    def test_exit_zero_and_report_shape(self, capsys):
        code, out, _ = run_main(capsys, ["verify", "--trials", "40", "--seed", "42"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# diraclab verify trials=40 seed=42"
        assert len(lines) >= 16
        for line in lines[1:]:
            assert line.startswith("CHECK ")
            assert "max_residual=" in line
            assert line.endswith("PASS")

    def test_byte_identical_reports(self, capsys):
        _, out1, _ = run_main(capsys, ["verify", "--trials", "40", "--seed", "42"])
        _, out2, _ = run_main(capsys, ["verify", "--trials", "40", "--seed", "42"])
        assert out1 == out2

    def test_seed_changes_draws_not_verdict(self, capsys):
        code, out, _ = run_main(capsys, ["verify", "--trials", "40", "--seed", "7"])
        assert code == 0

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_non_positive_trials_exit_2(self, capsys, trials):
        code, out, err = run_main(capsys, ["verify", f"--trials={trials}"])
        assert code == 2
        assert out == ""
        assert "trials" in err

    def test_negative_seed_exits_2_naming_the_seed(self, capsys):
        code, out, err = run_main(capsys, ["verify", "--trials", "5", "--seed", "-1"])
        assert code == 2
        assert out == ""
        assert err == "error: seed must be an integer >= 0, got -1\n"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "-inf"])
    def test_bad_tol_exits_2_without_output(self, capsys, tol):
        # inf would pass every gated check vacuously; nan, -1 and 0 would
        # print a whole report of FAIL lines.
        code, out, err = run_main(capsys, ["verify", "--trials", "5", f"--tol={tol}"])
        assert code == 2
        assert out == ""
        assert err == f"error: tol must be positive and finite, got {float(tol)}\n"


class TestDispersionCommand:
    def test_golden_row(self, capsys):
        code, out, _ = run_main(
            capsys,
            [
                "dispersion", "--m0", "1", "--eps-tilde", "0.5", "--p-tilde", "0.25",
                "--k-min", "-2", "--k-max", "2", "--steps", "81",
            ],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,eps_plus,eps_minus,eps_pauli,eps_ll"
        assert len(lines) == 82
        mid = lines[1 + 40].split(",")  # k = 0 row
        assert float(mid[0]) == pytest.approx(0.0, abs=1e-15)
        assert float(mid[1]) == pytest.approx(0.5307764064044151, rel=1e-12)
        assert float(mid[2]) == pytest.approx(-np.sqrt(1.0625) - 0.5, rel=1e-12)
        assert float(mid[3]) == pytest.approx(0.25 ** 2 / 2 - 0.5, rel=1e-12)
        assert mid[3] == mid[4]

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "disp.csv"
        code, out, _ = run_main(
            capsys,
            [
                "dispersion", "--m0", "1", "--k-min", "0", "--k-max", "1",
                "--steps", "3", "-o", str(path),
            ],
        )
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("k,eps_plus")

    def test_physical_units(self, capsys):
        code, out, _ = run_main(
            capsys,
            [
                "dispersion", "--m0", "1", "--k-min", "0", "--k-max", "0",
                "--steps", "2", "--c-light", "10",
            ],
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(100.0)

    def test_bad_steps(self, capsys):
        code, _, err = run_main(
            capsys,
            ["dispersion", "--m0", "1", "--k-min", "0", "--k-max", "1", "--steps", "1"],
        )
        assert code == 2
        assert "steps" in err

    @pytest.mark.parametrize(
        "m0, eps, p, k_min, k_max, steps",
        [(1.0, 0.5, 0.25, -2.0, 2.0, 81), (0.73, -0.61, -0.42, -2.0, 2.0, 1001),
         (1.9, 0.0, 0.0, 0.0, 3.5, 7)],
    )
    def test_matches_row_loop_byte_for_byte(self, capsys, m0, eps, p, k_min, k_max, steps):
        code, out, _ = run_main(
            capsys,
            ["dispersion", "--m0", repr(m0), f"--eps-tilde={eps!r}", f"--p-tilde={p!r}",
             "--k-min", repr(k_min), "--k-max", repr(k_max), "--steps", str(steps)],
        )
        assert code == 0
        assert out == reference_dispersion_csv(m0, eps, p, k_min, k_max, steps)

    def test_physical_units_match_row_loop(self, capsys):
        code, out, _ = run_main(
            capsys,
            ["dispersion", "--m0", "0.73", "--eps-tilde=-0.61", "--p-tilde=-0.42",
             "--k-min", "-2", "--k-max", "2", "--steps", "1001", "--c-light", "10"],
        )
        assert code == 0
        reference = reference_dispersion_csv(0.73, -0.61, -0.42, -2.0, 2.0, 1001, 10.0)
        assert_csv_close(out, reference, {"k", "eps_pauli", "eps_ll"})

    @pytest.mark.parametrize(
        "argv",
        [
            ["--k-min", "0", "--k-max", "inf", "--steps", "3"],
            ["--k-min", "nan", "--k-max", "1", "--steps", "3"],
            ["--k-min", "0", "--k-max", "1", "--steps", "3", "--c-light", "nan"],
            ["--k-min", "0", "--k-max", "1", "--steps", "3", "--eps-tilde", "inf"],
            # finite, but the energies overflow
            ["--k-min", "0", "--k-max", "1e200", "--steps", "3"],
            ["--k-min", "0", "--k-max", "1", "--steps", "2", "--m0", "1e200"],
            # finite bounds whose span overflows
            ["--k-min=-1e308", "--k-max", "1e308", "--steps", "3"],
        ],
    )
    def test_non_finite_input_exits_2_without_output(self, capsys, argv):
        code, out, err = run_main(capsys, ["dispersion", "--m0", "1", *argv])
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("m0", ["0", "-1"])
    def test_non_positive_mass_exits_2_without_output(self, capsys, tmp_path, m0):
        # the Pauli columns divide by 2 m0, so the domain is m0 > 0
        argv = ["dispersion", f"--m0={m0}", "--k-min", "0", "--k-max", "1", "--steps", "3"]
        assert_mass_rejected(capsys, argv, tmp_path / "disp.csv")


class TestEvolveCommand:
    def test_trajectory_csv(self, capsys):
        code, out, _ = run_main(
            capsys,
            [
                "evolve", "--n", "128", "--length", "100", "--dt", "0.05",
                "--steps", "40", "--k0", "0.5", "--width", "8", "--m0", "1",
                "--sample-every", "10",
            ],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,norm,mean_x,spread,mean_k"
        assert len(lines) == 6  # initial sample plus four chunks
        for line in lines[1:]:
            t, norm, mean_x, spread, mean_k = map(float, line.split(","))
            assert norm == pytest.approx(1.0, abs=1e-10)
            assert spread > 0

    def test_resolution_error_exits_2(self, capsys):
        code, _, err = run_main(
            capsys,
            [
                "evolve", "--n", "128", "--length", "100", "--dt", "0.05",
                "--steps", "10", "--k0", "0.5", "--width", "0.5", "--m0", "1",
            ],
        )
        assert code == 2
        assert "width" in err

    ARGV = {
        "--n": "128", "--length": "100", "--dt": "0.05", "--steps": "10",
        "--k0": "0.5", "--width": "8", "--m0": "1",
    }

    @pytest.mark.parametrize("flag, value", [("--dt", "nan"), ("--m0", "inf")])
    def test_non_finite_input_exits_2_without_output(self, capsys, flag, value):
        argv = {**self.ARGV, flag: value}
        code, out, err = run_main(capsys, ["evolve", *(x for kv in argv.items() for x in kv)])
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            # finite inputs that overflow
            ("--m0", "1e200", "overflow"),
            ("--dt", "1e308", "overflow"),
            ("--width", "1e300", "overflow"),
            ("--width", "-10", "width must be positive"),
            ("--width", "0", "width must be positive"),
            # grid sizes, checked before the grid spacing is computed
            ("--n", "0", "n must be"),
            ("--n", "-64", "n must be"),
            ("--length", "0", "length must be"),
            ("--length", "-100", "length must be"),
            # the mass domain is m0 >= 0; --m0 0 is the massless packet
            pytest.param("--m0", "-1", "m0 must be nonnegative", id="--m0--1-nonnegative"),
            ("--m0", "nan", "m0 must be finite"),
            # an x0 so far off the grid that the envelope vanishes everywhere
            ("--x0", "1e6", "vanishes"),
            ("--x0", "-300", "vanishes"),
            ("--x0", "1e200", "vanishes"),
            # a step count no array holds: numpy's ValueError, not MemoryError
            ("--steps", str(2**61), "array is too big"),
        ],
    )
    def test_out_of_range_input_exits_2_without_output(
        self, capsys, tmp_path, flag, value, message
    ):
        argv = {**self.ARGV, flag: value}
        path = tmp_path / "trajectory.csv"
        for extra in ([], ["-o", str(path)]):
            code, out, err = run_main(
                capsys, ["evolve", *(x for kv in argv.items() for x in kv), *extra]
            )
            assert code == 2
            assert out == ""
            assert message in err
        assert not path.exists()

    def test_massless_packet_moves_at_light_speed(self, capsys):
        code, out, err = run_main(
            capsys,
            [
                "evolve", "--n", "512", "--length", "200", "--dt", "0.5",
                "--steps", "100", "--k0", "0.5", "--width", "8", "--m0", "0",
                "--x0", "50", "--sample-every", "10",
            ],
        )
        assert code == 0, err
        data = np.array([[float(v) for v in line.split(",")] for line in out.splitlines()[1:]])
        t, norm, mean_x = data[:, 0], data[:, 1], data[:, 2]
        assert np.max(np.abs(norm - 1.0)) <= 1e-10
        assert np.polyfit(t, mean_x, 1)[0] == pytest.approx(1.0, rel=0.01)

    @pytest.mark.parametrize("steps", [2**61, 2**100], ids=["2**61", "2**100"])
    def test_steps_past_any_array_names_steps(self, capsys, tmp_path, steps):
        # numpy's size check rejects the sample arrays before allocating
        # anything: "array is too big" at 2**61, "Maximum allowed size
        # exceeded" at 2**100.  The error line names steps.
        argv = [
            "evolve", "--n", "64", "--length", "64", "--dt", "0.5", "--steps", str(steps),
            "--k0", "0.5", "--width", "6", "--m0", "1",
        ]
        path = tmp_path / "trajectory.csv"
        for extra in ([], ["-o", str(path)]):
            code, out, err = run_main(capsys, [*argv, *extra])
            assert (code, out) == (2, "")
            assert err.startswith(f"error: steps {steps} at sample_every 1 gives more samples ")
            assert err.count("\n") == 1
        assert not path.exists()


class TestLimitCommand:
    def test_table_and_slope(self, capsys):
        code, out, _ = run_main(
            capsys,
            ["limit", "--m0", "1", "--k-max", "0.1", "--points", "21"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,dirac_kinetic,pauli_kinetic,abs_error,rel_error"
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert data.shape == (21, 5)
        slope = np.polyfit(np.log(data[:, 0]), np.log(data[:, 3]), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.1)

    def test_bad_points(self, capsys):
        code, _, err = run_main(capsys, ["limit", "--m0", "1", "--k-max", "0.1", "--points", "1"])
        assert code == 2

    def test_k_max_whose_first_point_underflows_names_the_flag(self, capsys, tmp_path):
        # The grid starts at --k-max/1000, which is zero for the smallest
        # doubles, and numpy's geomspace cannot start at zero.  A first
        # point that is subnormal but not zero still gives a table.
        argv = ["limit", "--m0", "1", "--k-max", "5e-324", "--points", "3"]
        path = tmp_path / "limit.csv"
        for extra in ([], ["-o", str(path)]):
            code, out, err = run_main(capsys, [*argv, *extra])
            assert (code, out) == (2, "")
            assert err == ("error: --k-max is too small: the grid's first point, --k-max/1000, "
                           "underflows to zero, got 5e-324\n")
        assert not path.exists()
        code, out, _ = run_main(capsys, ["limit", "--m0", "1", "--k-max", "1e-320", "--points", "3"])
        assert code == 0 and len(out.splitlines()) == 4

    @pytest.mark.parametrize(
        "m0, k_max, points, c_light",
        [(1.0, 0.1, 21, 1.0), (0.73, 0.6, 1001, 1.0), (1.9, 1.7, 301, 1.0),
         (1.0, 9.0, 101, 10.0)],
    )
    def test_matches_row_loop(self, capsys, m0, k_max, points, c_light):
        code, out, _ = run_main(
            capsys,
            ["limit", "--m0", repr(m0), "--k-max", repr(k_max), "--points", str(points),
             "--c-light", repr(c_light)],
        )
        assert code == 0
        assert_csv_close(
            out,
            reference_limit_csv(m0, k_max, points, c_light),
            {"k", "dirac_kinetic", "pauli_kinetic"},
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["--m0", "nan", "--k-max", "0.1", "--points", "3"],
            ["--m0", "1", "--k-max", "nan", "--points", "3"],
            ["--m0", "1", "--k-max", "0.1", "--points", "3", "--c-light", "inf"],
            ["--m0", "1", "--k-max", "0.1", "--points", "3", "--c-light", "1e200"],
        ],
    )
    def test_non_finite_input_exits_2_without_output(self, capsys, argv):
        code, out, err = run_main(capsys, ["limit", *argv])
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("m0", ["0", "-1"])
    def test_non_positive_mass_exits_2_without_output(self, capsys, tmp_path, m0):
        # the pauli_kinetic column divides by 2 m0, so the domain is m0 > 0
        argv = ["limit", f"--m0={m0}", "--k-max", "0.1", "--points", "3"]
        assert_mass_rejected(capsys, argv, tmp_path / "limit.csv")

    def test_relativistic_momentum_writes_nothing(self, capsys, tmp_path):
        argv = ["limit", "--m0", "1", "--k-max", "5", "--points", "4"]
        code, out, err = run_main(capsys, argv)
        assert code == 2
        assert out == ""
        assert "m0 * c_light" in err
        path = tmp_path / "limit.csv"
        code, out, _ = run_main(capsys, [*argv, "-o", str(path)])
        assert code == 2
        assert out == ""
        assert not path.exists()

    def test_overflowing_momentum_writes_nothing(self, capsys, tmp_path):
        # k_max < m0 * c_light, but |k|^2 overflows: an overflow, not a
        # momentum at or above m0 * c_light
        argv = ["limit", "--m0", "1e200", "--k-max", "1e199", "--points", "3"]
        path = tmp_path / "limit.csv"
        for extra in ([], ["-o", str(path)]):
            code, out, err = run_main(capsys, [*argv, *extra])
            assert code == 2
            assert out == ""
            assert err.count("\n") == 1
            assert "overflow double precision" in err
            assert "m0 * c_light" not in err
        assert not path.exists()


def row_csv(header, columns):
    """The CSV of _write_csv's definition: one row at a time."""
    rows = zip(*(np.asarray(col, dtype=float).tolist() for col in columns))
    return header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


# repr's edge cases: nan, a signed zero, the smallest subnormal, and both
# sides of its switches to exponent form (below 1e-4, at 1e16 and above)
REPR_EDGES = np.array(
    [np.nan, -0.0, 5e-324, 1e16, 1e-5, 1e-4, 9999999999999998.0, 0.1, -2.5e-310]
)


class TestWriteCsv:
    @pytest.mark.parametrize(
        "rows",
        [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1],
    )
    def test_matches_row_definition(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        edges = np.resize(REPR_EDGES, rows)
        wide = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
        # the same object twice, and an equal copy of it
        columns = (edges, wide, edges, np.roll(edges, 1), wide.copy())
        header = "a,b,a_again,c,b_copy"
        path = tmp_path / "out.csv"
        _write_csv(str(path), header, columns)
        assert path.read_bytes() == row_csv(header, columns).encode()

    @pytest.mark.parametrize("command", ["dispersion", "limit"])
    def test_cli_stdout_matches_file(self, capsys, tmp_path, command):
        argv = {
            "dispersion": ["dispersion", "--m0", "1", "--k-min", "0", "--k-max", "1",
                           "--steps", str(_CHUNK_ROWS + 1)],
            "limit": ["limit", "--m0", "1", "--k-max", "0.5", "--points",
                      str(_CHUNK_ROWS + 1)],
        }[command]
        path = tmp_path / "out.csv"
        assert run_main(capsys, [*argv, "-o", str(path)])[:2] == (0, "")
        for extra in ([], ["-o", "-"]):
            code, out, _ = run_main(capsys, [*argv, *extra])
            assert code == 0
            assert out.encode() == path.read_bytes()


# Sweep CSVs of 1025 rows, generated before the writer formatted rows in
# chunks of 512; a change that moves any byte of them shows here.
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_SWEEPS = {
    "dispersion.csv": [
        "dispersion", "--m0", "0.73", "--eps-tilde=-0.61", "--p-tilde=-0.42",
        "--k-min", "-2", "--k-max", "2", "--steps", "1025", "--c-light", "10",
    ],
    "limit.csv": ["limit", "--m0", "1.9", "--k-max", "1.7", "--points", "1025"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_sweep_matches_golden(capsys, name):
    code, out, _ = run_main(capsys, GOLDEN_SWEEPS[name])
    assert code == 0
    assert out.encode() == (GOLDEN_DIR / name).read_bytes()


# Trajectory CSVs generated at commit 8f133b5, before trajectory's blocks
# and last row shared one row routine: the evolve_dense geometry sampled
# every 50 steps, criterion 09's two cases, a massless packet with a
# partial last step, and a lower-branch packet run backwards in time.
GOLDEN_EVOLVE_DENSE = ["--n", "4096", "--length", "800", "--dt", "0.5", "--steps", "1000",
                       "--width", "10", "--x0", "100"]
GOLDEN_CRITERION_09 = ["--n", "1024", "--length", "200", "--dt", "5e-3", "--steps", "10000",
                       "--sample-every", "500", "--width", "10", "--x0", "60", "--m0", "1"]
GOLDEN_TRAJECTORIES = {
    "evolve_dense.csv": ["evolve", *GOLDEN_EVOLVE_DENSE, "--sample-every", "50",
                         "--k0", "0.55", "--m0", "1.2", "--eps-tilde=0.3", "--p-tilde=0.1"],
    "criterion09_a.csv": ["evolve", *GOLDEN_CRITERION_09, "--k0", "0.5"],
    "criterion09_b.csv": ["evolve", *GOLDEN_CRITERION_09, "--k0", "0", "--p-tilde", "0.5"],
    "massless.csv": ["evolve", "--n", "512", "--length", "200", "--dt", "0.25", "--steps", "100",
                     "--sample-every", "7", "--width", "8", "--x0", "60", "--k0", "0.5",
                     "--m0", "0", "--p-tilde=-0.2"],
    "negative_branch.csv": ["evolve", "--n", "256", "--length", "100", "--dt=-0.2",
                            "--steps", "60", "--sample-every", "3", "--width", "6", "--x0", "50",
                            "--k0", "0.4", "--m0", "1", "--eps-tilde=0.2", "--p-tilde=-0.1",
                            "--branch", "-1"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRAJECTORIES))
def test_trajectory_matches_golden(capsys, name):
    # t exactly, the other columns within 1e-13 relative; case B's packet
    # sits at zero grid momentum, so its mean_k is roundoff around 0 and
    # is compared within an absolute 1e-15
    code, out, _ = run_main(capsys, GOLDEN_TRAJECTORIES[name])
    assert code == 0
    golden = (GOLDEN_DIR / name).read_text().splitlines()
    lines = out.splitlines()
    assert lines[0] == golden[0] == "t,norm,mean_x,spread,mean_k"
    got, want = (np.loadtxt(rows[1:], delimiter=",", ndmin=2) for rows in (lines, golden))
    assert got.shape == want.shape
    assert np.array_equal(got[:, 0], want[:, 0])
    relative = slice(1, 4) if name == "criterion09_b.csv" else slice(1, 5)
    assert np.all(np.abs(got[:, relative] - want[:, relative]) <= 1e-13 * np.abs(want[:, relative]))
    if name == "criterion09_b.csv":
        assert np.max(np.abs(got[:, 4] - want[:, 4])) <= 1e-15


@pytest.mark.parametrize("extra", [[], ["-o", "-"]], ids=["no-o", "o-dash"])
@pytest.mark.parametrize("command", ["dispersion", "evolve", "decompose"])
def test_stdout_stays_open(capsys, tmp_path, command, extra):
    matrix = tmp_path / "g5.mat"
    write_matrix_file(str(matrix), GAMMA5)
    argv = {
        "dispersion": ["dispersion", "--m0", "1", "--k-min", "0", "--k-max", "1",
                       "--steps", "3"],
        "evolve": ["evolve", "--n", "64", "--length", "64", "--dt", "0.5", "--steps", "2",
                   "--k0", "0.5", "--width", "6", "--m0", "1"],
        "decompose": ["decompose", "--input", str(matrix)],
    }[command]
    first = run_main(capsys, [*argv, *extra])
    assert not sys.stdout.closed
    second = run_main(capsys, [*argv, *extra])
    assert not sys.stdout.closed
    assert first[0] == 0 and first[1] and first == second


class TestDecomposeCommand:
    def test_chiral_element(self, capsys, tmp_path):
        path = tmp_path / "g5.mat"
        write_matrix_file(str(path), GAMMA5)
        code, out, _ = run_main(capsys, ["decompose", "--input", str(path)])
        assert code == 0
        lines = dict(line.split("=") for line in out.strip().splitlines())
        assert lines["e5"] == "1+0i"
        for label, value in lines.items():
            if label != "e5":
                assert value == "0+0i"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_main(capsys, ["decompose", "--input", str(tmp_path / "no.mat")])
        assert code == 2
        assert "error" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("1 2 3\n")
        code, _, err = run_main(capsys, ["decompose", "--input", str(path)])
        assert code == 2

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_field_exits_2_without_output(self, capsys, tmp_path, token):
        # these printed 16 nan coefficients and exited 0
        path = tmp_path / "bad.mat"
        good = "0 0 0 0 0 0 0 0"
        path.write_text("\n".join([good, good, f"0 0 0 {token} 0 0 0 0", good]) + "\n")
        with pytest.raises(ValueError, match="line 3, field 4.*not finite"):
            parse_matrix_file(str(path))
        out_path = tmp_path / "coeffs.txt"
        for argv in ([], ["-o", str(out_path)]):
            code, out, err = run_main(capsys, ["decompose", "--input", str(path), *argv])
            assert code == 2
            assert out == ""
            assert err.count("\n") == 1 and "line 3, field 4" in err
        assert not out_path.exists()


class TestUsageErrors:
    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--no-such-flag"])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


EVOLVE_ARGV = [
    "evolve", "--n", "128", "--length", "100", "--steps", "10",
    "--k0", "0.5", "--width", "8", "--m0", "1",
]


def run_module(*argv, **env):
    """Run `python -m diraclab` in a child process that imports the same
    diraclab as this one, installed or not, with `env` added to this
    process's environment.  A numpy RuntimeWarning is an error there, as it
    is in this process."""
    src = str(Path(diraclab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "diraclab", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


def test_module_entry_point():
    proc = run_module("verify", "--trials", "10", "--seed", "1")
    assert proc.returncode == 0
    assert proc.stdout.startswith("# diraclab verify trials=10 seed=1")
    assert "CHECK clifford_anticommutators" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [["verify", "--trials", "500", "--seed", "42"], GOLDEN_TRAJECTORIES["evolve_dense.csv"]],
    ids=["verify", "evolve_dense"],
)
def test_output_does_not_depend_on_the_blas_thread_count(argv):
    # The benchmark runs with one BLAS thread; a default run may use more.
    outputs = set()
    for threads in ("1", "2"):
        proc = run_module(*argv, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["dispersion", "--m0", "1", "--k-min", "0", "--k-max", "1e200", "--steps", "3"],
        ["dispersion", "--m0", "1", "--k-min=-1e308", "--k-max", "1e308", "--steps", "3"],
        [*EVOLVE_ARGV, "--dt", "1e308"],  # dt * steps overflows
        [*EVOLVE_ARGV, "--dt", "1e307"],  # the span is finite, the phase w*t is not
    ],
    ids=["dispersion-k-max", "dispersion-span", "evolve-span", "evolve-phase"],
)
def test_overflow_prints_one_error_line(argv):
    # numpy's RuntimeWarnings must not reach stderr ahead of the error line
    proc = run_module(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["limit", "--m0", "1", "--k-max", "0.5", "--points", str(2**1100)],
        ["limit", "--m0", "1", "--k-max", "0.5", "--points", str(2**62)],
        ["dispersion", "--m0", "1", "--k-min", "0", "--k-max", "1", "--steps", str(2**1100)],
        ["dispersion", "--m0", "1", "--k-min", "0", "--k-max", "1", "--steps", str(2**62)],
    ],
    ids=["points-2**1100", "points-2**62", "steps-2**1100", "steps-2**62"],
)
def test_a_sweep_count_no_array_holds_is_rejected_by_name(capsys, tmp_path, argv):
    # These reached exit 2 through an OverflowError, "Maximum allowed size
    # exceeded" or "array is too big", none of which named the flag.
    path = tmp_path / "sweep.csv"
    code, out, err = run_main(capsys, [*argv, "-o", str(path)])
    assert code == 2 and out == "" and not path.exists()
    most = sys.maxsize // 8
    assert err == (f"error: {argv[-2]} must be at most {most}, the most float64 values one "
                   "array can hold\n")
    assert run_main(capsys, [*argv[:-1], str(most + 1)])[2] == err


@pytest.mark.parametrize(
    "argv",
    [
        ["limit", "--m0", "1", "--k-max", "0.5", "--points", str(2**59)],
        ["dispersion", "--m0", "1", "--k-min", "0", "--k-max", "1", "--steps", str(2**59)],
    ],
    ids=["limit", "dispersion"],
)
def test_a_sweep_too_large_for_memory_exits_2(capsys, tmp_path, argv):
    # 2**59 rows pass the count rule, but one column takes 4 EiB: numpy
    # raises MemoryError (_ArrayMemoryError) at once, with no page touched.
    # main reports it as one error line, exit 2, with no output to stdout
    # or to -o.
    path = tmp_path / "sweep.csv"
    for extra in ([], ["-o", str(path)]):
        code, out, err = run_main(capsys, [*argv, *extra])
        assert (code, out) == (2, "")
        assert err.startswith("error: the inputs need more memory than is available: ")
        assert err.count("\n") == 1
    assert not path.exists()
