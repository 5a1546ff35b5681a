import json
from collections import Counter
from fractions import Fraction

import pytest

import gasprover.driver
import gasprover.recurrence
from gasprover.cli import main
from gasprover.driver import prove, prove_k, webbook
from gasprover.positivity import replay_certificate
from gasprover.recurrence import build_contraction_poly, find_equilibrium, parse_rde

F = Fraction


class TestProveK:
    def test_benchmark_k5(self):
        result = prove_k(parse_rde("(4+x0)/(1+x1)"), 5)
        assert result.verdict == "true"
        assert result.K == 5
        cert = result.certificate
        assert cert.verdict == "Proven"
        # four top-level regions, no subdivision
        assert len(cert.nodes) == 4
        assert all(len(node.path) == 1 for node in cert.nodes)

    def test_benchmark_k1_not_true(self):
        result = prove_k(parse_rde("(4+x0)/(1+x1)"), 1)
        assert result.verdict != "true"

    def test_reciprocal_even_k_identically_zero(self):
        result = prove_k(parse_rde("1/x0"), 2)
        assert result.verdict == "false"
        assert result.reason == "identically-zero-for-strictness"

    def test_witness_attached_on_disproof(self):
        result = prove_k(parse_rde("2*x0"), 1)
        assert result.verdict == "false"
        w = result.certificate.witness
        assert w is not None
        assert result.certificate.witness_value < 0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            prove_k(parse_rde("1/2*x0"), 0)


class TestProve:
    def test_benchmark(self):
        result = prove(parse_rde("(4+x0)/(1+x1)"), maxK=8)
        assert result.verdict == "true"
        assert result.K == 5
        assert result.las.outcome == "LAS"
        assert result.certificate.verdict == "Proven"

    def test_unstable_is_false(self):
        result = prove(parse_rde("2*x0"), maxK=4)
        assert result.verdict == "false"
        assert result.las.outcome == "unstable"
        assert result.certificate is None

    def test_logistic_like(self):
        result = prove(parse_rde("2*x0/(1+x0)"), maxK=6)
        assert result.verdict == "true"
        assert result.equilibrium.value == 1

    def test_modulus_one_is_fail(self):
        result = prove(parse_rde("1/x0"), maxK=4)
        assert result.verdict == "FAIL"
        assert result.las.outcome == "inconclusive"

    @pytest.mark.parametrize("rde, verdict, K", [
        ("(4+x0)/(1+x1)", "true", 5),
        ("(1+2*x1)/(1+x0+x1)", "true", 2),
        ("x1/(2+x0+x1)", "true", 2),
        ("x1/(2+x1)", "true", 2),
        ("2*x0/(1+x0)", "true", 1),
        ("1+1/2*x0", "true", 1),
        ("2*x0", "false", None),
        ("1/x0", "FAIL", None),
    ])
    def test_planar_verdict_and_k(self, rde, verdict, K):
        # the answers the mesh-seeded start gave on these maps
        result = prove(parse_rde(rde), maxK=10)
        assert (result.verdict, result.K) == (verdict, K)

    def test_grid_refutes_third_order_map(self):
        spec = parse_rde("(2+x0)/(1+x1+x2)")
        eq = find_equilibrium(spec)
        for K in (1, 2, 3):
            result = prove_k(spec, K)
            assert result.verdict == "false"
            cert = result.certificate
            assert all(node.box is None for node in cert.nodes)
            assert replay_certificate(cert, build_contraction_poly(spec, eq, K))

    def test_k_loop_finds_the_equilibrium_once(self, monkeypatch):
        calls = Counter()
        for name in ("find_equilibrium", "build_contraction_poly", "prove_nonneg"):
            def counted(*args, _real=getattr(gasprover.driver, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(gasprover.driver, name, counted)
        assert prove(parse_rde("(1+2*x1)/(1+x0+x1)"), maxK=4).K == 2
        assert calls == {
            "find_equilibrium": 1, "build_contraction_poly": 2, "prove_nonneg": 2,
        }

    def test_timings_keys(self):
        stages = ["equilibrium", "las", "build", "positivity"]
        assert list(prove(parse_rde("2*x0/(1+x0)")).timings) == stages
        assert list(prove(parse_rde("(4+x0)/(1+x1)"), maxK=2).timings) == stages
        assert list(prove_k(parse_rde("2*x0/(1+x0)"), 1).timings) == [
            "equilibrium", "build", "positivity",
        ]
        assert list(prove_k(parse_rde("1/x0"), 2).timings) == ["equilibrium", "build"]

    def test_max_k_too_small(self):
        result = prove(parse_rde("(4+x0)/(1+x1)"), maxK=3)
        assert result.verdict == "FAIL"

    def test_prove_each_k(self):
        result = prove(parse_rde("1/2*x0"), maxK=3)
        assert result.verdict == "true"
        assert result.K == 1


class TestWebbook:
    def test_logistic_family(self):
        report = webbook(
            "b*x0/(1+x0)", {"b": (F(1), F(5))}, 10, 12345, maxK=8
        )
        assert len(report.rows) == 10
        for row in report.rows:
            assert row.status == "true"
            (name, b), = row.values
            assert name == "b"
            assert F(1) < b <= F(5)
            assert b.denominator <= 64
            assert row.equilibrium == b - 1

    def test_delay_family(self):
        report = webbook(
            "x1/(A + x1)", {"A": (F(1), F(3))}, 5, 7, maxK=6
        )
        assert len(report.rows) == 5
        assert all(row.status == "true" for row in report.rows)
        assert all(row.equilibrium == 0 for row in report.rows)

    def test_count_zero_rejected(self):
        with pytest.raises(ValueError):
            webbook("b*x0", {"b": (F(0), F(1))}, 0, 1)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            webbook("b*x0", {"b": (F(2), F(2))}, 1, 1)

    def test_variable_name_rejected(self):
        with pytest.raises(ValueError):
            webbook("x0*x1", {"x1": (F(0), F(1))}, 1, 1)

    def test_deterministic(self):
        args = ("b*x0/(1+x0)", {"b": (F(1), F(3))}, 4, 99)
        a = webbook(*args, maxK=6)
        b = webbook(*args, maxK=6)
        assert a.to_text() == b.to_text()
        assert a.rows == b.rows


class TestCli:
    def test_prove_k_benchmark(self, capsys):
        code = main(["prove-k", "--rde", "(4+x0)/(1+x1)", "--k", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: true" in out
        assert "K: 5" in out

    def test_prove_false_exit(self, capsys):
        assert main(["prove", "--rde", "2*x0", "--max-k", "2"]) == 1

    def test_prove_fail_exit(self, capsys):
        assert main(["prove", "--rde", "1/x0", "--max-k", "2"]) == 2

    def test_unsupported_exit(self, capsys):
        code = main(["prove", "--rde", "(1+x0)/(1+2*x0)", "--max-k", "2"])
        assert code == 3
        assert "irrational" in capsys.readouterr().err

    def test_parse_error_exit(self, capsys):
        assert main(["prove", "--rde", "0.5*x0", "--max-k", "2"]) == 3

    def test_positivity_proven(self, capsys):
        code = main(["positivity", "--poly", "x0^2+1", "--xbar", "1"])
        assert code == 0
        assert "Proven" in capsys.readouterr().out

    def test_positivity_disproven_with_witness(self, capsys):
        code = main(["positivity", "--poly", "x0^2-3*x0+1", "--xbar", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "witness:" in out

    def test_positivity_poly_file(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("x0^2+x1^2+1\n")
        code = main(["positivity", "--poly-file", str(f), "--xbar", "1/2"])
        assert code == 0

    def test_cert_written_and_valid_json(self, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        code = main([
            "prove-k", "--rde", "(4+x0)/(1+x1)", "--k", "5",
            "--cert", str(cert_path),
        ])
        assert code == 0
        data = json.loads(cert_path.read_text())
        assert data["verdict"] == "Proven"

    def test_webbook_cli(self, capsys):
        code = main([
            "webbook", "--template", "b*x0/(1+x0)",
            "--range", "b=1..3", "--count", "3", "--seed", "5",
            "--max-k", "6",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("true") == 3

    def test_webbook_missing_range(self, capsys):
        code = main([
            "webbook", "--template", "b*x0", "--count", "1", "--seed", "1",
        ])
        assert code == 3

    def test_prove_verbose(self, capsys):
        code = main(["prove", "--rde", "2*x0/(1+x0)", "--verbose"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert "local stability: LAS (characteristic coefficients low-to-high: -1/2, 1)" in lines
        stages = [line.split("]")[0] for line in lines if line.startswith("time[")]
        assert stages == ["time[equilibrium", "time[las", "time[build", "time[positivity"]

    def test_prove_k_verbose(self, capsys):
        code = main(["prove-k", "--rde", "2*x0/(1+x0)", "--k", "1", "--verbose"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert "region H: x0^4 + 4*x0^3 + 3*x0^2" in lines
        assert "region L: 2*x0^3 + 3*x0^2" in lines
        stages = [line.split("]")[0] for line in lines if line.startswith("time[")]
        assert stages == ["time[equilibrium", "time[build", "time[positivity"]

    def test_prove_k_verbose_builds_once(self, monkeypatch, capsys):
        calls = Counter()
        for module in (gasprover.driver, gasprover.recurrence):
            for name in ("find_equilibrium", "build_contraction_poly"):
                def counted(*args, _real=getattr(module, name), _name=name):
                    calls[_name] += 1
                    return _real(*args)
                monkeypatch.setattr(module, name, counted)
        assert main(["prove-k", "--rde", "(4+x0)/(1+x1)", "--k", "5", "--verbose"]) == 0
        assert calls == {"find_equilibrium": 1, "build_contraction_poly": 1}
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("region ") for line in lines) == 4

    def test_verbose_prints_regions(self, capsys):
        code = main([
            "positivity", "--poly", "x0^2-2*x0+2", "--xbar", "1",
            "--verbose",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "region" in out


class TestCliInputErrors:
    """Input, usage and file errors exit 3, never with a verdict's code."""

    def _usage_exit(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code

    def test_prove_without_rde(self, capsys):
        assert self._usage_exit(["prove"]) == 3
        assert "--rde" in capsys.readouterr().err

    def test_xbar_not_a_rational(self, capsys):
        assert self._usage_exit(["positivity", "--poly", "x0", "--xbar", "zz"]) == 3

    def test_xbar_float_rejected(self, capsys):
        assert self._usage_exit(["positivity", "--poly", "x0", "--xbar", "0.5"]) == 3
        assert "floating-point" in capsys.readouterr().err

    def test_range_float_rejected(self, capsys):
        code = self._usage_exit([
            "webbook", "--template", "b*x0/(1+x0)", "--range", "b=0.5..3",
            "--count", "1", "--seed", "1",
        ])
        assert code == 3
        assert "floating-point" in capsys.readouterr().err

    def test_division_by_zero_rde(self, capsys):
        assert main(["prove", "--rde", "1/0"]) == 3
        assert "division by zero" in capsys.readouterr().err

    def test_division_by_zero_poly(self, capsys):
        assert main(["positivity", "--poly", "x0/(x0-x0)", "--xbar", "1"]) == 3
        assert "division by zero" in capsys.readouterr().err

    def test_deep_nesting(self, capsys):
        rde = "(" * 400 + "4+x0" + ")" * 400 + "/(1+x1)"
        assert main(["prove", "--rde", rde]) == 3
        assert "nested" in capsys.readouterr().err

    def test_missing_poly_file(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.txt")
        assert main(["positivity", "--poly-file", missing, "--xbar", "1"]) == 3
        assert "absent.txt" in capsys.readouterr().err

    def test_unwritable_cert(self, tmp_path, capsys):
        cert = str(tmp_path / "no" / "c.json")
        assert main(["prove", "--rde", "(4+x0)/(1+x1)", "--cert", cert]) == 3
        out, err = capsys.readouterr()
        assert "verdict" not in out
        assert "c.json" in err
