"""CLI surface: output formats, exit codes, CSV determinism."""

import math

import pytest

from betareduce.cli import main


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

    def test_malformed_nu(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "beta", "--nu", "half", "--z", "0.5"])
        assert exc.value.code == 2

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

    # |1 - z| overflows in the log loop; this used to end in an OverflowError traceback
    def test_overflowing_log_argument_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "eval", "beta", "--nu", "2", "--z", "1.5e308,1.5e308")
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

    def test_small_z_preset_schema(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--preset", "small-z", "--reps", "3", "--warmup", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "method,nu,z_re,z_im,reps,median_ns,mean_ns,checksum"
        assert len(lines) == 1 + 3 * 3
        # checksums of the three methods at one point agree
        for point in range(3):
            sums = [float(lines[1 + 3 * point + i].split(",")[-1]) for i in range(3)]
            assert max(sums) - min(sums) <= 1e-9 * max(1.0, abs(sums[0]))

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "bench.csv"
        code, out, _ = run_cli(
            capsys, "bench", "--preset", "small-z", "--reps", "1", "--warmup", "0", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("method,nu,")
