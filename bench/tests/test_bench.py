"""Self-tests of the benchmark: oracle, workload maps, span arithmetic, hooks.

Run with: python3 -m pytest bench/tests
"""
import dataclasses
import random
from fractions import Fraction as F

import pytest

import gasprover.driver
from gasprover import parse_rde, prove, prove_k

import cases
import layers
import oracle
import speed
from passes import check_pass, judge_pass, run_pass
from tracer import Hook, Tracer, installed, quartiles, self_times


def _case(rde, call="prove", k=None, pool=cases.PLANAR + cases.ORDER3):
    return next(c for c in pool if c.rde == rde and (k is None or c.k == k))


def _answer(case):
    spec = parse_rde(case.rde)
    if case.call == "prove":
        return prove(spec, maxK=case.k)
    return prove_k(spec, case.k)


def test_oracle_accepts_real_answers():
    for rde in ("2*x0", "1/x0", "2*x0/(1+x0)", "x1/(2+x1)"):
        case = _case(rde)
        assert oracle.check(case, _answer(case), None) == []
    case = _case("(2+x0)/(1+x1+x2)", k=1)
    assert oracle.check(case, _answer(case), None) == []


def test_oracle_rejects_forged_verdict():
    unstable = _case("2*x0")
    forged = dataclasses.replace(_answer(unstable), verdict="true", K=1)
    assert oracle.check(unstable, forged, None)

    gas = _case("2*x0/(1+x0)")
    assert oracle.check(gas, dataclasses.replace(_answer(gas), verdict="false"), None)

    # (4+x0)/(1+x1) needs K=4 to contract at every probe point.
    bench = _case("(4+x0)/(1+x1)")
    real = prove(parse_rde(bench.rde), maxK=10)
    assert oracle.check(bench, real, None) == []
    assert oracle.check(bench, dataclasses.replace(real, K=1), None)


def test_oracle_rejects_forged_witness():
    case = _case("(2+x0)/(1+x1+x2)", k=1)
    real = _answer(case)
    assert real.verdict == "false" and real.certificate.witness is not None
    for witness in ([F(1), F(1), F(3)], [F(1)] * 3, [F(-1), F(2), F(2)]):
        cert = dataclasses.replace(real.certificate, witness=witness)
        forged = dataclasses.replace(real, certificate=cert)
        assert oracle.check(case, forged, None), witness
    no_witness = dataclasses.replace(
        real, certificate=dataclasses.replace(real.certificate, witness=None))
    assert oracle.check(case, no_witness, None)


def test_oracle_predicts_irrational_equilibria():
    assert cases._riccati(F(9, 4)).truth == cases.GAS
    assert cases._riccati(F(9, 4)).xbar == F(3, 2)
    assert cases._riccati(F(2)).truth == cases.IRRATIONAL
    irrational = cases._riccati(F(7, 3))
    with pytest.raises(gasprover.UnsupportedInputError) as info:
        _answer(irrational)
    assert oracle.check(irrational, None, info.value) == []
    # A rational instance must not be rejected, an irrational one not accepted.
    assert oracle.check(cases._riccati(F(4)), None, info.value)
    accepted = _answer(cases._riccati(F(4)))
    assert oracle.check(irrational, accepted, None)


def test_batch_mix_is_fixed_by_construction():
    for seed in range(5):
        batch = cases.build("batch", seed)
        assert len(batch) == 70
        irrational = [c for c in batch if c.truth == cases.IRRATIONAL]
        assert len(irrational) == cases.RICCATI_IRRATIONAL
        assert [c.rde for c in batch] == [c.rde for c in cases.build("batch", seed)]


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_maps_agree_with_parser(workload):
    pool = cases.build(workload, 0) + cases.batch(random.Random(1))
    for case in pool:
        R = parse_rde(case.rde).R
        assert R.nvars == case.order, case.rde
        for point in oracle.probe_points(case.order):
            assert case.step(point) == R.evaluate(point), (case.rde, point)


def _fake_tracer(times):
    return Tracer(clock=iter(times).__next__)


def test_self_time_and_layer_metrics():
    # case.prove [0, 10] > positivity [1, 8] > box_map [2, 4], digest [5, 6];
    # then check.replay [11, 13] > box_map [11.5, 12].
    tracer = _fake_tracer([0, 1, 2, 4, 5, 6, 8, 10, 11, 11.5, 12, 13])
    with tracer.span("case.prove"):
        with tracer.span("positivity"):
            with tracer.span("polynomial.box_map") as s:
                s.attrs["terms_out"] = 7
            with tracer.span("polynomial.digest"):
                pass
    with tracer.span("check.replay"):
        with tracer.span("polynomial.box_map") as s:
            s.attrs["terms_out"] = 3
    assert self_times(tracer.spans) == [3, 4, 2, 1, 1.5, 0.5]

    hooked = {"positivity", "polynomial.box_map", "polynomial.digest"}
    m = layers.span_metrics(tracer.spans, hooked, pass_wall_s=12.5)
    assert m["positivity.s"] == 7 and m["positivity.calls"] == 1
    assert m["positivity.self_s"] == 4
    assert m["polynomial.box_map.s"] == 2 and m["polynomial.box_map.calls"] == 1
    assert m["polynomial.box_map.terms_out"] == 7
    assert m["positivity.cert.replay_box_maps"] == 1
    assert m["driver.k_tried"] == 1
    assert m["trace.coverage"] == 10 / 12.5
    assert "conjecture.s" not in m and "recurrence.build.calls" not in m


def test_quartiles():
    assert quartiles([4, 1, 3, 2, 8, 6, 5, 7]) == (2.25, 4.5, 6.75)
    assert quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_scaled_time():
    # Twice the nominal reference time means a host at half speed.
    ref = speed.REFERENCE_S
    assert speed.scaled(3.0, ref, ref) == pytest.approx(3.0)
    assert speed.scaled(3.0, 1.5 * ref, 2.5 * ref) == pytest.approx(1.5)


def test_missing_hook_targets_are_skipped():
    original = gasprover.driver.prove_nonneg
    hooks = [
        Hook("conjecture", "gasprover.no_such_module:conjecture_k"),
        Hook("positivity.witness", "gasprover.positivity:renamed_search"),
        Hook("positivity", "gasprover.driver:prove_nonneg"),
    ]
    with installed(Tracer(), hooks) as hooked:
        assert hooked == {"positivity"}
        assert gasprover.driver.prove_nonneg is not original
    assert gasprover.driver.prove_nonneg is original


def test_traced_pass_gives_the_same_answers():
    quick = [c for c in cases.PLANAR if c.order == 1 or c.rde == "x1/(2+x1)"]
    quick.append(_case("(2+x0)/(1+x1+x2)", k=1))
    plain = run_pass(quick)
    tracer = Tracer()
    with installed(tracer, layers.HOOKS) as hooked:
        traced = run_pass(quick, tracer)
        check_pass(traced, tracer)
    assert hooked == set(layers.LAYERS)
    check_pass(plain)
    for p in (plain, traced):
        judge_pass(p)
        assert not any(r.problems for r in p.runs)
    assert [r.signature() for r in plain.runs] == [r.signature() for r in traced.runs]
    m = layers.span_metrics(tracer.spans, hooked, traced.wall_s)
    assert m["positivity.calls"] > 0 and m["positivity.cert.replay_box_maps"] > 0
    assert 0 < m["trace.coverage"] <= 1
