"""CLI surface: output formats, exit codes, CSV determinism."""

import argparse
import csv
import io
import math
import re
import shlex
from pathlib import Path

import pytest

from betareduce import cli, decompose_pos, incomplete_beta, parse_rational, reduce_beta_many
from betareduce.cli import main
from betareduce.reduction import MAX_TAIL_TERMS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_beta_half(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "beta", "--nu", "1/2", "--z", "0.25")
        assert code == 0
        value = float(out.strip())
        assert abs(value - math.log(3)) <= 2 * math.ulp(math.log(3))

    def test_lerch_integer(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "lerch", "--nu", "1", "--z", "0.5")
        assert code == 0
        assert out.strip() == "1.3862943611198906"

    def test_beta_divergent_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "eval", "beta", "--nu", "-3", "--z", "0.5")
        assert code == 2
        assert err.startswith("DivergentParameter")

    def test_complex_output_format(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "beta", "--nu", "12.3", "--z", "2")
        assert code == 0
        assert out.strip().endswith("i")
        assert "-3.14159265358979" in out

    def test_complex_input(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "beta", "--nu", "1/2", "--z", "0.3,0.4")
        assert code == 0

    def test_beta_mu(self, capsys):
        # B(1, 2, z) = z - z^2/2
        code, out, _ = run_cli(capsys, "eval", "beta-mu", "--nu", "1", "--mu", "2", "--z", "0.5")
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.375, abs=1e-15)

    def test_beta_mu_zero_rejected(self, capsys):
        code, _, err = run_cli(capsys, "eval", "beta-mu", "--nu", "1", "--mu", "0", "--z", "0.5")
        assert code == 2

    # the refusal names the mu the user passed and its bound, not the binomial sum's m = mu - 1
    def test_beta_mu_beyond_budget_names_mu(self, capsys):
        code, _, err = run_cli(capsys, "eval", "beta-mu", "--nu", "1/3", "--mu", "2000000", "--z", "0.5")
        assert code == 2
        assert f"mu must be an integer in [0, {MAX_TAIL_TERMS + 1}], got 2000000" in err

    def test_malformed_nu(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "beta", "--nu", "half", "--z", "0.5"])
        assert exc.value.code == 2

    def test_over_long_nu_exit_two(self, capsys):
        # past the 4,300-digit int-string limit: a ParseError, not a leaked ValueError
        with pytest.raises(SystemExit) as exc:
            main(["eval", "beta", "--nu", "1" * 5000, "--z", "0.5"])
        assert exc.value.code == 2
        assert "numeral too long" in capsys.readouterr().err

    # argparse reads a value that begins with "-" and is no plain number, such as -1e308, as
    # an option: --z -1e308 exits 2 with "expected one argument", the = form evaluates
    def test_negative_z_in_the_equals_form(self, capsys):
        code, out, err = run_cli(capsys, "eval", "beta", "--nu", "1/3", "--z=-1e308")
        assert code == 0 and err == ""
        value = incomplete_beta(parse_rational("1/3"), 0, -1e308)
        assert complex(out.strip().replace("i", "j")) == value
        with pytest.raises(SystemExit) as exc:
            main(["eval", "beta", "--nu", "1/3", "--z", "-1e308"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err

    # so is --nu -7/3; the --nu help of beta and beta-mu names the = form, which evaluates
    def test_negative_nu_in_the_equals_form(self, capsys):
        for function in ("beta", "beta-mu"):
            with pytest.raises(SystemExit) as exc:
                main(["eval", function, "--help"])
            assert exc.value.code == 0
            assert "a negative nu: --nu=-7/3" in " ".join(capsys.readouterr().out.split())
        with pytest.raises(SystemExit) as exc:
            main(["eval", "beta", "--nu", "-7/3", "--z", "0.5"])
        assert exc.value.code == 2
        assert "argument --nu: expected one argument" in capsys.readouterr().err
        code, out, err = run_cli(capsys, "eval", "beta", "--nu=-7/3", "--z", "0.5")
        assert (code, out, err) == (0, "-6.600498308227433\n", "")
        assert float(out) == incomplete_beta(parse_rational("-7/3"), 0, 0.5)

    @pytest.mark.parametrize("z", ["abc", "1,2,3"])
    def test_malformed_z(self, capsys, z):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "beta", "--nu", "1/2", "--z", z])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_branch_point_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "eval", "beta", "--nu", "1/2", "--z", "1")
        assert code == 2
        assert err.startswith("BranchPoint")

    @pytest.mark.parametrize(
        "kind,z", [("beta", "inf"), ("beta", "nan"), ("beta", "0.5,-inf"), ("lerch", "nan")]
    )
    def test_non_finite_z_exit_two(self, capsys, kind, z):
        code, out, err = run_cli(capsys, "eval", kind, "--nu", "1/3", "--z", z)
        assert code == 2
        assert out == ""
        assert err.startswith("OutsideDomain")

    # the power tail overflows; these used to print nan-nani and exit 0
    @pytest.mark.parametrize(
        "nu,z", [("2000/3", "3"), ("2000", "3"), ("2001/2", "3"), ("-2000/3", "1e-3"), ("-1999/2", "1e-3")]
    )
    def test_overflowing_tail_exit_two(self, capsys, nu, z):
        code, out, err = run_cli(capsys, "eval", "beta", f"--nu={nu}", "--z", z)
        assert code == 2
        assert out == ""
        assert err.startswith("OutsideDomain")

    # z**(-nu) overflows; these used to exit 1 with an OverflowError traceback
    @pytest.mark.parametrize("argv", [["eval", "lerch"], ["integral", "powlin"]])
    def test_overflowing_power_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--nu", "2000/3", "--z", "1e-3")
        assert code == 2
        assert out == ""
        assert err.startswith("OutsideDomain")

    # z**-1 used to overflow here although z^(-1/3) is about 4.6e106
    def test_tiny_z_negative_power_exit_zero(self, capsys):
        code, out, err = run_cli(capsys, "eval", "lerch", "--nu", "1/3", "--z", "1e-320")
        assert code == 0 and err == ""
        assert math.isfinite(abs(complex(out.strip().replace("i", "j"))))

    # z**2 underflows to 0, so z**-2 used to end in a ZeroDivisionError traceback
    @pytest.mark.parametrize("argv", [["eval", "lerch"], ["integral", "powlin"]])
    def test_underflowing_base_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--nu", "2", "--z", "1e-200")
        assert code == 2
        assert out == ""
        assert err.startswith("OutsideDomain")

    # |1 - z| overflows in the log loop; this used to end in an OverflowError traceback
    def test_overflowing_log_argument_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "eval", "beta", "--nu", "2", "--z", "1.5e308,1.5e308")
        assert code == 2
        assert out == ""
        assert err.startswith("OutsideDomain")

    # a result outside the double range used to print nan-nani, inf or -inf+infi and exit 0, or
    # end in an OverflowError traceback (z^(-96/97) through cmath.exp)
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "lerch", "--nu", "7/3", "--z", "1e160,1e160"],
            ["eval", "lerch", "--nu", "3/2", "--z", "7.925630563534007e-232"],
            ["integral", "powlin", "--nu", "5/3", "--z", "1.244849450585257e-282"],
            ["eval", "beta-mu", "--nu", "1/3", "--mu", "2", "--z", "1e300"],
            ["eval", "beta-mu", "--nu", "1/3", "--mu", "3", "--z", "1e150,1e150"],
            ["eval", "beta-mu", "--nu=-96/97", "--mu", "2", "--z", "6.8238642e-317"],
            # nu beyond the double range: float(nu) overflowed, or rounded to 0.0 and was
            # divided by, and ended in a traceback with exit 1
            ["eval", "beta-mu", "--nu", "1" + "0" * 400, "--mu", "1", "--z", "0.5"],
            ["eval", "beta-mu", "--nu", "1/1" + "0" * 400, "--mu", "1", "--z", "0.5"],
            ["eval", "beta-mu", "--nu=-1/1" + "0" * 400, "--mu", "1", "--z", "0.5"],
        ],
    )
    def test_result_outside_double_range_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("OutsideDomain")

    # |m| = 10^6 + 1 power-tail terms: refused before any work
    def test_work_budget_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "eval", "beta", "--nu", "2000003/2", "--z", "0.5")
        assert code == 2
        assert out == ""
        assert err.startswith("MaxTermsExceeded")

    # q = 10^6 + 1 roots of unity: refused before the root table is built
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "beta", "--nu", "1/1000001", "--z", "0.5"],
            ["eval", "lerch", "--nu", "1/1000001", "--z", "0.5"],
            ["integral", "powlin", "--nu", "1/1000001", "--z", "0.5"],
            ["integral", "tanh", "--lambda", "1/1000001", "--z", "0.5"],
            ["figure", "--nu", "1/1000001"],
        ],
    )
    def test_denominator_budget_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("MaxTermsExceeded")


class TestParser:
    # the parser is built once, when the module is imported; main only parses
    def test_main_builds_no_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in (
            ["eval", "beta", "--nu", "1/2", "--z", "0.25"],
            ["eval", "lerch", "--nu", "1/2", "--z", "0.25"],
            ["integral", "tanh", "--lambda", "1/2", "--z", "0.5"],
            ["figure", "--nu", "1/2", "--points", "2"],
            ["verify", "--n-max", "0", "--q-max", "2", "--z-point", "0.5"],
        ):
            assert main(argv) == 0
        with pytest.raises(SystemExit):
            main(["eval", "beta", "--nu", "half", "--z", "0.5"])
        capsys.readouterr()
        assert built == []
        cli.build_parser()  # the counter does see a build
        assert len(built) > 0

    # an appended option must not carry its values from one call into the next
    def test_repeated_option_does_not_accumulate(self, capsys):
        argv = ("verify", "--n-max", "0", "--q-max", "3")
        run_cli(capsys, *argv, "--z-point", "0.5")
        code, out, _ = run_cli(capsys, *argv, "--z-point", "0.3")
        rows = out.strip().split("\n")[1:]
        assert code == 0 and len(rows) == 3
        assert all(row.split(",")[1:3] == ["0.3", "0.0"] for row in rows)

    # Phi(z, 1, nu) is the power-over-linear integral: one handler, refusals included
    @pytest.mark.parametrize(
        "nu,z", [("1/3", "0.5"), ("5/4", "-2,0.5"), ("7", "0.9"), ("37/3", "3"), ("1/2", "1"), ("-1/2", "0.5")]
    )
    def test_lerch_is_powlin(self, capsys, nu, z):
        lerch = run_cli(capsys, "eval", "lerch", f"--nu={nu}", f"--z={z}")
        powlin = run_cli(capsys, "integral", "powlin", f"--nu={nu}", f"--z={z}")
        assert lerch == powlin


class TestFigure:
    def test_row_count_and_reference_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "figure", "--nu", "1/2", "--z-start", "1.1", "--z-end", "2.0", "--points", "2"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "z,im_reduction,im_series_analytic"
        assert len(lines) == 3
        for line in lines[1:]:
            z, im, ref = line.split(",")
            assert float(ref) == -math.pi
            assert abs(float(im) + math.pi) <= 1e-12

    def test_figure_parameter_from_the_plot(self, capsys):
        code, out, _ = run_cli(
            capsys, "figure", "--nu", "12.3", "--z-start", "1.1", "--z-end", "10", "--points", "50"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 51
        for line in lines[1:]:
            assert abs(float(line.split(",")[1]) + math.pi) <= 1e-12

    # the batch pairs conjugate logs on the real ray, so Im B is -pi exactly in every row
    @pytest.mark.parametrize("nu", ["4/97", "12.3"])
    def test_every_row_is_minus_pi(self, capsys, nu):
        code, out, _ = run_cli(capsys, "figure", "--nu", nu)
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 50
        assert all(row.split(",")[1] == repr(-math.pi) for row in rows)

    # the rows are written one f-string each: the bytes of a csv.writer rendering; past
    # 2^1000 the batch leaves the rows to the scalar kernel, which pairs the rows too: Im is -pi
    @pytest.mark.parametrize(
        "nu,points,start,end",
        [
            pytest.param(nu, points, 1.25, 7.5, id=f"{nu}-{points}")
            for nu, points in [("37/3", 7), ("3/1000", 3), ("5", 2)]
        ]
        + [pytest.param("1/3", 3, 2e301, 1e302, id="1/3-3-past-2^1000")],
    )
    def test_bytes_are_csv_writer_bytes(self, capsys, tmp_path, nu, points, start, end):
        path = tmp_path / "figure.csv"
        argv = ["figure", "--nu", nu, "--z-start", repr(start), "--z-end", repr(end)]
        code, out, _ = run_cli(capsys, *argv, "--points", str(points))
        assert code == 0
        assert main([*argv, "--points", str(points), "--out", str(path)]) == 0
        step = (end - start) / (points - 1)
        zs = [start + j * step for j in range(points)]
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["z", "im_reduction", "im_series_analytic"])
        values = reduce_beta_many(decompose_pos(parse_rational(nu)), zs)
        for z, value in zip(zs, values):
            writer.writerow([repr(z), repr(value.imag), repr(-math.pi)])
        if start > 2.0**1000:
            assert all(value.imag == -math.pi for value in values)
        assert out == expected.getvalue()
        assert path.read_bytes() == expected.getvalue().encode()

    # a value off -pi prints its own repr, not the text of -pi
    def test_row_off_minus_pi_prints_its_value(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "reduce_beta_many", lambda dec, zs: [complex(1.0, -3.0) for _ in zs])
        code, out, _ = run_cli(capsys, "figure", "--nu", "1/3", "--z-start", "1.5", "--z-end", "2", "--points", "2")
        assert code == 0
        assert out.split("\n")[1:3] == [f"1.5,-3.0,{-math.pi!r}", f"2.0,-3.0,{-math.pi!r}"]

    def test_bad_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--nu", "1/2", "--z-start", "0.5", "--z-end", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("start,end", [("1.5", "inf"), ("1.5", "nan"), ("inf", "inf")])
    def test_non_finite_range_refused_before_output(self, capsys, start, end):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--nu", "1/3", "--z-start", start, "--z-end", end])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    # every row is evaluated before the CSV is opened; the first used to print the header and a row
    @pytest.mark.parametrize(
        "argv,error",
        [
            (["--nu", "2000/3", "--z-start", "2", "--z-end", "1e300", "--points", "4"], "OutsideDomain"),
            (["--nu", "1/3", "--z-start", "1.000000000000001"], "BranchPoint"),
        ],
    )
    @pytest.mark.parametrize("to_file", [False, True])
    def test_refused_row_writes_nothing(self, capsys, tmp_path, argv, error, to_file):
        path = tmp_path / "figure.csv"
        extra = ["--out", str(path)] if to_file else []
        code, out, err = run_cli(capsys, "figure", *argv, *extra)
        assert code == 2
        assert out == ""
        assert err.startswith(error)
        assert not path.exists()

    def test_too_few_points(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--nu", "1/2", "--points", "1"])
        assert exc.value.code == 2

    # the list of z is built before any row is evaluated, so a huge --points is refused first
    def test_too_many_points(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--nu", "1/2", "--points", str(cli.MAX_TAIL_TERMS + 1)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_points_budget_edge(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_TAIL_TERMS", 3)
        code, out, _ = run_cli(capsys, "figure", "--nu", "1/2", "--points", "3")
        assert code == 0 and len(out.strip().split("\n")) == 1 + 3
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--nu", "1/2", "--points", "4"])
        assert exc.value.code == 2


class TestIntegral:
    def test_powlin(self, capsys):
        code, out, _ = run_cli(capsys, "integral", "powlin", "--nu", "1", "--z", "0.5")
        assert code == 0
        assert out.strip() == "1.3862943611198906"

    def test_tanh_constant_integrand(self, capsys):
        code, out, _ = run_cli(capsys, "integral", "tanh", "--lambda", "1/2", "--z", "0.5")
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.5, abs=1e-14)

    def test_tanh_five_fourths(self, capsys):
        code, out, _ = run_cli(capsys, "integral", "tanh", "--lambda", "5/4", "--z", "0.8")
        assert code == 0
        u = math.sqrt(math.tanh(0.8))
        ref = math.atanh(u) - 2 * u + math.atan(u)
        assert abs(float(out.strip()) - ref) <= 1e-12

    # the integral diverges as z -> inf; inf used to exit 2 with BranchPoint, nan to print nan
    @pytest.mark.parametrize("z", ["inf", "nan"])
    def test_tanh_non_finite_z_exit_two(self, capsys, z):
        code, out, err = run_cli(capsys, "integral", "tanh", "--lambda", "1/2", "--z", z)
        assert code == 2
        assert out == ""
        assert err.startswith("OutsideDomain") and "z" in err

    # tanh(1e-200)^2 is subnormal and 1/(2 lambda) = 5e309 overflows: this used to print inf
    def test_tanh_value_beyond_double_range_exit_two(self, capsys):
        lam = "0." + "0" * 309 + "1"
        code, out, err = run_cli(capsys, "integral", "tanh", "--lambda", lam, "--z", "1e-200")
        assert code == 2
        assert out == ""
        assert err.startswith("OutsideDomain")

    def test_powlin_zero_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "integral", "powlin", "--nu", "1/2", "--z", "0")
        assert code == 2
        assert err.startswith("ZeroArgument")


class TestVerify:
    def test_small_grid_passes(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--n-max", "1", "--q-max", "4", "--tol", "1e-10"
        )
        assert code == 0
        assert "passed=" in err and "failed=0" in err
        lines = out.strip().split("\n")
        assert lines[0].startswith("nu,z_re,z_im,")
        assert len(lines) > 100

    def test_branch_points_skipped_not_failed(self, capsys):
        code, out, err = run_cli(
            capsys,
            "verify", "--n-max", "0", "--q-max", "3", "--z-point", "1.0", "--z-point", "0.5",
        )
        assert code == 0
        assert "Skipped" in out and "BranchPoint" in out

    # --z-point -0.5,0.25 exits 2 with "expected one argument": the = form evaluates
    def test_negative_z_point_in_the_equals_form(self, capsys):
        argv = ("verify", "--n-max", "0", "--q-max", "3", "--z-point=-0.5,0.25")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert "passed=3 failed=0 skipped=0" in err
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 3 and all(row.split(",")[1:3] == ["-0.5", "0.25"] for row in rows)

    def test_zero_tolerance_fails(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--n-max", "0", "--q-max", "3", "--tol", "0", "--side", "pos"
        )
        assert code == 1
        assert "failed=0" not in err

    # nan used to mark every point Fail and inf to pass every point
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_refused_before_output(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n-max", "0", "--q-max", "3", "--tol", tol])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [["--q-max", "1"], ["--n-max", "-1"]])
    def test_bad_grid_bounds_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    # the grid grows as q_max^2; these used to build it until memory ran out
    @pytest.mark.parametrize("argv", [["--q-max", "100000"], ["--n-max", "1000000000000"]])
    def test_grid_budget_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("MaxTermsExceeded")

    # every reduction at 1 - 1e-15 meets the branch-point guard, and the oracle refuses at
    # once where it used to run its 10^7-term budget first: the rows stay what they were
    def test_point_where_no_series_converges(self, capsys):
        argv = ("verify", "--z-point", "0.999999999999999", "--q-max", "4", "--n-max", "1")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert "passed=0 failed=0 skipped=15" in err
        nus = "1/2 1/3 2/3 1/4 3/4 3/2 4/3 5/3 5/4 7/4 -1/2 -2/3 -1/3 -3/4 -1/4".split()
        rows = [f"{nu},0.999999999999999,0.0,0.0,0.0,0.0,0.0,,0.0,0.0,Skipped,BranchPoint" for nu in nus]
        assert out.split("\n")[1:] == rows + [""]

    # a q = 2 row on (0, 1) used to depend on its siblings: the batch ran two logs, and a
    # refused sibling sent the whole nu to the scalar atanh
    def test_half_integer_row_independent_of_siblings(self, capsys):
        argv = ("verify", "--n-max", "4", "--q-max", "2", "--side", "pos", "--z-point", "0.05")
        rows = []
        for extra in ((), ("--z-point", "1")):
            _, out, _ = run_cli(capsys, *argv, *extra)
            rows += [line for line in out.split("\n") if line.startswith("9/2,0.05,")]
        assert len(rows) == 2 and rows[0] == rows[1]
        _, value, _ = run_cli(capsys, "eval", "beta", "--nu", "9/2", "--z", "0.05")
        assert rows[0].split(",")[3:5] == [value.strip(), "0.0"]

    # a refused sibling (z = 1) sends its nu to one-column batches, which must equal the full
    # batch bitwise (the scalar kernel differs in the last bits, e.g. at 1/2, 0.3+0.2i)
    def test_rows_independent_of_a_refused_sibling(self, capsys):
        argv = ("verify", "--n-max", "0", "--q-max", "3", "--z-point", "0.3,0.2", "--z-point", "0.7")
        _, alone, _ = run_cli(capsys, *argv)
        _, with_one, _ = run_cli(capsys, *argv, "--z-point", "1")
        kept = [row for row in with_one.split("\n") if ",1.0,0.0," not in row]
        assert kept == alone.split("\n")
        assert len(kept) == len(with_one.split("\n")) - 3

    # |z| is beyond the double range: the series oracle used to end in an OverflowError traceback
    def test_point_whose_modulus_overflows_is_skipped(self, capsys):
        argv = ("verify", "--z-point", "1.7e308,1.7e308", "--n-max", "0", "--q-max", "3")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert "passed=0 failed=0 skipped=3" in err
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 3
        assert all(row.endswith(",Skipped,OutsideDomain") for row in rows)

    # every record (about 274 B) is held until the CSV is written: 1,147,211 points here
    def test_point_budget_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--q-max", "100")
        assert code == 2
        assert out == ""
        assert err.startswith("MaxTermsExceeded")

    def test_output_deterministic(self, capsys):
        args = ("verify", "--n-max", "0", "--q-max", "5", "--side", "pos")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestBench:
    def test_zero_reps_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--reps", "0"])
        assert exc.value.code == 2

    # every duration is kept until the medians are taken, so a huge --reps is refused first
    def test_too_many_reps_exit_two(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--reps", str(cli.MAX_TAIL_TERMS + 1)])
        assert exc.value.code == 2
        monkeypatch.setattr(cli, "MAX_TAIL_TERMS", 2)
        code, _, _ = run_cli(capsys, "bench", "--preset", "small-z", "--reps", "2", "--warmup", "0")
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--preset", "small-z", "--reps", "3", "--warmup", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_negative_warmup_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--warmup", "-1"])
        assert exc.value.code == 2

    def test_small_z_preset_schema(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--preset", "small-z", "--reps", "3", "--warmup", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "method,nu,z_re,z_im,reps,median_ns,mean_ns,rel_diff"
        assert len(lines) == 1 + 3 * 3
        # each method agrees with the closed form, whose own row reads 0.0
        rel_diffs = [float(line.split(",")[-1]) for line in lines[1:]]
        assert rel_diffs[::3] == [0.0] * 3
        assert max(rel_diffs) <= 1e-9

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "bench.csv"
        code, out, _ = run_cli(
            capsys, "bench", "--preset", "small-z", "--reps", "1", "--warmup", "0", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("method,nu,")


README = Path(__file__).resolve().parents[1] / "README.md"
# a line of README's command-line block whose comment starts with the number it prints
README_EVAL = re.compile(r"^betareduce (eval .*?)\s+# (-?\d[\d.e+-]*)\b", re.MULTILINE)


def _readme_eval_lines():
    return README_EVAL.findall(README.read_text(encoding="utf-8"))


def test_readme_names_eval_lines_with_their_numbers():
    assert len(_readme_eval_lines()) >= 3


@pytest.mark.parametrize("command, printed", _readme_eval_lines())
def test_readme_eval_line_prints_its_number(capsys, command, printed):
    code, out, _ = run_cli(capsys, *shlex.split(command))
    assert (code, out) == (0, printed + "\n")
