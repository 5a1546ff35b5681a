import importlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import gasprover.driver
import gasprover.recurrence
from gasprover.certificate import (ProofCertificate, certificate_document, certificate_from_json,
                                   certificate_to_json)
from gasprover.checker import replay_certificate
from gasprover.cli import main
from gasprover.driver import prove, prove_k, webbook
from gasprover.packed import decimal_str
from gasprover.positivity import prove_nonneg
from gasprover.recurrence import (
    Equilibrium,
    UnsupportedInputError,
    build_contraction_poly,
    find_equilibrium,
    parse_rde,
)

F = Fraction
BENCH = Path(__file__).resolve().parents[1] / "bench"


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

    def test_zero_off_xbar_is_false_for_that_k(self, monkeypatch):
        fail = ProofCertificate("", 2, F(2), 12, "Fail", [], [F(1), F(1)], F(0),
                                "zero-off-xbar")
        monkeypatch.setattr(gasprover.driver, "prove_nonneg", lambda *args: fail)
        result = prove_k(parse_rde("(4+x0)/(1+x1)"), 1)
        assert (result.verdict, result.reason) == ("false", "zero-off-xbar")
        assert result.certificate is fail

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            prove_k(parse_rde("1/2*x0"), 0)

    def test_negative_depth_limit_rejected(self):
        # "2*x0" is unstable, so prove() would answer before any proof
        spec = parse_rde("2*x0")
        for call in (lambda: prove_k(spec, 1, -1), lambda: prove(spec, 4, -1),
                     lambda: webbook("b*x0", {"b": (F(0), F(1))}, 1, 1, depth_limit=-1)):
            with pytest.raises(ValueError, match="depth_limit must be >= 0"):
                call()

    def test_proof_path_makes_no_fractions_of_P(self, monkeypatch):
        built = []

        def keeping(spec, eq, K, *composition):
            built.append(build_contraction_poly(spec, eq, K, *composition))
            return built[-1]

        monkeypatch.setattr(gasprover.driver, "build_contraction_poly", keeping)
        assert prove_k(parse_rde("x2/(2+x0+x1+x2)"), 3).verdict == "true"
        spec = parse_rde("(4+x0)/(1+x1)")
        assert prove(spec).verdict == "true"
        # K = 3, and K = 2 and 5 of the second-order map: K = 2's negative
        # points refute K = 3 and 4 by their orbits, with no P
        assert len(built) == 3
        for P in built:
            assert P._terms is None
        # nor of the parsed map: the equilibrium, the LAS check, the
        # composition and the orbits read its integers
        assert spec.R.num._terms is None and spec.R.den._terms is None


def _random_map(rng):
    """A positive linear-fractional map of order 2 or 3, and its order.  In
    three of four maps the constant makes a seeded rational x̄ > 0 the one
    positive equilibrium; the rest have no constant, so 0 is a fixed point."""
    n = rng.choice((2, 3))
    b = [rng.choice((0, 0, 1, 2, 3)) for _ in range(n)]
    d = [rng.choice((0, 1, 1, 2, 3)) for _ in range(n)]
    c = rng.randint(1, 4)
    a = F(0)
    if rng.random() < 0.75:
        xbar = F(rng.randint(1, 8), rng.randint(1, 4))
        if c + sum(d) * xbar <= sum(b):
            c += sum(b)
        a = xbar * (c + sum(d) * xbar - sum(b))
    num = "+".join([f"({a})"] + [f"{v}*x{i}" for i, v in enumerate(b) if v])
    den = "+".join([str(c)] + [f"{v}*x{i}" for i, v in enumerate(d) if v])
    return f"({num})/({den})", n


class TestNoKBelowTheOrder:
    """For K < n, Q^K only shifts x_0 ... x_{n-1-K} into the oldest slots, so
    the squared distance to x̄ cannot shrink at a point whose K oldest
    coordinates are x̄: no such K is a strict contraction, and prove() does
    not try one."""

    def test_prove_k_is_never_true_below_the_order(self):
        rng = random.Random(29)
        maps = [(text, None) for text in (
            "(4+x0)/(1+x1)", "(1+2*x1)/(1+x0+x1)", "x1/(2+x0+x1)", "x1/(2+x1)",
            "(2+x0)/(1+x1+x2)", "(1/2+x0)/(1+x1+x2)", "x2/(2+x0+x1+x2)",
        )]
        for _ in range(10):  # the bench's second-order templates
            a = F(rng.randint(65, 256), 64)
            maps += [(f"x1/(({a})+x0+x1)", None), (f"x1/(({a})+x1)", None)]
        maps += [_random_map(rng) for _ in range(200)]
        decided = 0
        for text, order in maps:
            try:
                spec = parse_rde(text, order)
                find_equilibrium(spec)
            except UnsupportedInputError:  # x̄ irrational, or not unique
                continue
            assert spec.order >= 2
            for K in range(1, spec.order):
                result = prove_k(spec, K)
                assert result.verdict != "true", (text, K)
                decided += result.verdict == "false"
        assert decided > 250


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
            "find_equilibrium": 1, "build_contraction_poly": 1, "prove_nonneg": 1,
        }

    def test_timings_keys(self):
        stages = ["equilibrium", "las", "build", "positivity"]
        assert list(prove(parse_rde("2*x0/(1+x0)")).timings) == stages
        assert list(prove(parse_rde("(4+x0)/(1+x1)"), maxK=2).timings) == stages
        # the orbit checks of K = 3, 4 and 5
        assert list(prove(parse_rde("(4+x0)/(1+x1)")).timings) == stages + ["orbits"]
        assert list(prove_k(parse_rde("2*x0/(1+x0)"), 1).timings) == [
            "equilibrium", "build", "positivity",
        ]
        assert list(prove_k(parse_rde("1/x0"), 2).timings) == ["equilibrium", "build"]

    def test_max_k_too_small(self):
        result = prove(parse_rde("(4+x0)/(1+x1)"), maxK=3)
        assert result.verdict == "FAIL"

    @pytest.mark.parametrize("rde, built", [
        ("2*x0/(1+x0)", [1]),
        ("(4+x0)/(1+x1)", [2, 5]),  # K = 2's negative points refute K = 3, 4
        ("x2/(2+x0+x1+x2)", [3]),
        ("(1/2+x0)/(1+x1+x2)", [3, 4]),
    ])
    def test_k_loop_starts_at_the_order(self, monkeypatch, rde, built):
        ks, proofs, starts, compositions = [], [], [], set()

        def building(spec, eq, K, composition):
            ks.append(K)
            starts.append(composition.t)
            compositions.add(id(composition))
            return build_contraction_poly(spec, eq, K, composition)

        def proving(P, *args):
            proofs.append(P)
            return prove_nonneg(P, *args)

        monkeypatch.setattr(gasprover.driver, "build_contraction_poly", building)
        monkeypatch.setattr(gasprover.driver, "prove_nonneg", proving)
        result = prove(parse_rde(rde))
        assert (result.verdict, result.K) == ("true", built[-1])
        assert ks == built
        assert len(proofs) == len(built)
        # one composition for the loop, and each K composes on from the last
        assert len(compositions) == 1
        assert starts == [0] + built[:-1]

    @pytest.mark.parametrize("rde, maxK", [
        ("(4+x0)/(1+x1)", 1), ("(2+x0)/(1+x1+x2)", 1), ("(2+x0)/(1+x1+x2)", 2),
    ])
    def test_max_k_below_the_order_tries_no_k(self, monkeypatch, rde, maxK):
        def refuse(*args):
            raise AssertionError("a K below the order was tried")

        monkeypatch.setattr(gasprover.driver, "build_contraction_poly", refuse)
        monkeypatch.setattr(gasprover.driver, "prove_nonneg", refuse)
        result = prove(parse_rde(rde), maxK=maxK)
        assert (result.verdict, result.reason, result.K) == ("FAIL", "max-k-exhausted", maxK)
        assert result.certificate is None
        assert result.las.outcome == "LAS"
        assert list(result.timings) == ["equilibrium", "las"]

    def test_prove_each_k(self):
        result = prove(parse_rde("1/2*x0"), maxK=3)
        assert result.verdict == "true"
        assert result.K == 1


class TestOrbitSkip:
    """prove() skips a K below maxK that the exact orbit of an earlier K's
    negative point refutes, and answers as if it had built every K."""

    def test_skipping_changes_no_answer(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))
        # read the benchmark's cases without writing bytecode next to them
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        cases = importlib.import_module("cases")
        corpus = [(case.rde, case.k) for case in cases.PLANAR]
        # the acceptance families, and two third-order maps
        corpus += [(text, 10) for text in (
            "2*x0/(1+x0)", "x1/(2+x1)", "1+1/2*x0", "2*x0", "x1/(2+x0+x1)",
            "(1/2+x0)/(1+x1+x2)", "(2+x0)/(1+x1+x2)",
        )]
        for seed in (1, 2, 3):
            corpus += [(case.rde, case.k) for case in cases.batch(random.Random(seed))]

        def answers():
            out = []
            for text, maxK in corpus:
                try:
                    r = prove(parse_rde(text), maxK)
                except UnsupportedInputError as exc:
                    out.append(exc.kind)
                    continue
                cert = r.certificate and certificate_document(r.certificate)
                out.append((r.verdict, r.reason, r.K, r.las, cert))
            return out

        checks = Counter()

        def counting(orbits, K, timings, _real=gasprover.driver._orbits_refute):
            refuted = _real(orbits, K, timings)
            checks[refuted] += 1
            return refuted

        monkeypatch.setattr(gasprover.driver, "_orbits_refute", counting)
        skipping = answers()
        assert checks[True] >= 4  # K = 3, 4 of (4+x0)/(1+x1) and K = 4, 5 of order 3
        monkeypatch.setattr(gasprover.driver, "_orbits_refute", lambda *args: False)
        assert answers() == skipping

    @pytest.mark.parametrize("maxK, built", [(3, [2, 3]), (4, [2, 4]), (10, [2, 5])])
    def test_max_k_is_always_built(self, monkeypatch, maxK, built):
        ks = []

        def building(spec, eq, K, *composition):
            ks.append(K)
            return build_contraction_poly(spec, eq, K, *composition)

        monkeypatch.setattr(gasprover.driver, "build_contraction_poly", building)
        spec = parse_rde("(4+x0)/(1+x1)")
        result = prove(spec, maxK=maxK)
        assert ks == built
        # no orbit is checked at maxK, which is built whatever they say
        assert ("orbits" in result.timings) == (maxK > 3)
        if maxK < 5:
            assert (result.verdict, result.reason, result.K) == ("FAIL", "max-k-exhausted", maxK)
        # the certificate is that of result.K
        fresh = build_contraction_poly(spec, result.equilibrium, result.K)
        assert result.certificate.input_digest == fresh.digest()
        assert replay_certificate(result.certificate, fresh)

    def test_a_witness_off_the_open_orthant_is_not_carried(self, monkeypatch):
        # An orbit starts in the open orthant.  No witness of the prover has
        # a zero coordinate, but one that had would not be carried.
        ks = []

        def building(spec, eq, K, *composition):
            ks.append(K)
            return build_contraction_poly(spec, eq, K, *composition)

        def proving(P, *args):
            cert = prove_nonneg(P, *args)
            if cert.verdict == "Disproven":
                cert.witness = [F(0)] + cert.witness[1:]
            return cert

        monkeypatch.setattr(gasprover.driver, "build_contraction_poly", building)
        monkeypatch.setattr(gasprover.driver, "prove_nonneg", proving)
        result = prove(parse_rde("(4+x0)/(1+x1)"))
        assert (result.verdict, result.K) == ("true", 5)
        assert ks == [2, 3, 4, 5]
        assert "orbits" not in result.timings


class TestIntegersPastTheDigitLimit:
    def test_prove_certificate_and_printout(self, tmp_path, capsys):
        # x̄ = 3^3150; the K = 3 witness value has over 12,000 digits, past
        # the interpreter's limit on str() and int()
        rde = "(3^6300+x0)/(1+x1)"
        path = tmp_path / "big.json"
        assert main(["prove", "--rde", rde, "--max-k", "3", "--cert", str(path)]) == 2
        out = capsys.readouterr().out.splitlines()
        assert "reason: max-k-exhausted" in out and "K: 3" in out
        text = path.read_text()
        cert = certificate_from_json(text)
        assert cert.xbar == 3 ** 3150 and len(decimal_str(cert.witness_value)) > 12000
        witness = ", ".join(map(decimal_str, cert.witness))
        assert f"witness: ({witness}) -> {decimal_str(cert.witness_value)}" in out
        assert certificate_to_json(cert) == text
        P = build_contraction_poly(parse_rde(rde), Equilibrium(cert.xbar, 2), 3)
        assert P.digest() == cert.input_digest
        assert replay_certificate(cert, P)


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

    def test_parameter_missing_from_template_rejected(self, capsys):
        # x occurs only inside the word x0, which the substitution never matches
        for extra in ("c", "x"):
            with pytest.raises(ValueError, match=f"parameter {extra} does not occur"):
                webbook("b*x0/(1+x0)", {"b": (F(1), F(2)), extra: (F(5), F(6))}, 2, 1)
        assert main(["webbook", "--template", "b*x0/(1+x0)", "--range", "b=1..2",
                     "--range", "c=5..6", "--count", "2", "--seed", "1"]) == 3
        assert "parameter c does not occur" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv, code, reason", [
        (["prove", "--rde", "2*x0"], 1, "not-locally-asymptotically-stable"),
        (["prove", "--rde", "(4+x0)/(1+x1)", "--max-k", "1"], 2, "max-k-exhausted"),
        (["prove-k", "--rde", "1/x0", "--k", "2"], 1, "identically-zero-for-strictness"),
    ])
    def test_cert_without_a_certificate(self, tmp_path, capsys, argv, code, reason):
        cert_path = tmp_path / "cert.json"
        assert main(argv + ["--cert", str(cert_path)]) == code
        out, err = capsys.readouterr()
        assert f"reason: {reason}" in out.splitlines()
        assert err == f"no certificate ({reason}): {cert_path} not written\n"
        assert not cert_path.exists()

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

    def test_repeated_range_rejected(self, capsys):
        assert main(["webbook", "--template", "b*x0/(1+x0)", "--range", "b=1..2",
                     "--range", "b=5..6", "--count", "2", "--seed", "1"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "--range b is given more than once" in err

    def test_division_by_zero_rde(self, capsys):
        assert main(["prove", "--rde", "1/0"]) == 3
        assert "division by zero" in capsys.readouterr().err

    def test_division_by_zero_poly(self, capsys):
        assert main(["positivity", "--poly", "x0/(x0-x0)", "--xbar", "1"]) == 3
        assert "division by zero" in capsys.readouterr().err

    def test_order_below_one(self, capsys):
        webbook = ["webbook", "--template", "b*x0", "--range", "b=1..2", "--count", "1",
                   "--seed", "1", "--order", "0"]
        for argv in (["prove", "--rde", "5", "--order", "0"],
                     ["prove-k", "--rde", "5", "--k", "1", "--order", "0"], webbook):
            assert main(argv) == 3
            assert "order must be >= 1" in capsys.readouterr().err

    def test_negative_depth(self, capsys):
        webbook = ["webbook", "--template", "b*x0", "--range", "b=1..2", "--count", "1",
                   "--seed", "1"]
        for argv in (["prove", "--rde", "(4+x0)/(1+x1)"],
                     ["prove-k", "--rde", "(4+x0)/(1+x1)", "--k", "1"],
                     ["positivity", "--poly", "x0+1", "--xbar", "1"], webbook):
            assert main(argv + ["--depth", "-1"]) == 3
            assert "depth_limit must be >= 0" in capsys.readouterr().err

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
