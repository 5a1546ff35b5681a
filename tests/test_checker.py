"""The certificate checker: every certificate the prover makes is accepted,
and a certificate that claims more than it shows is rejected, without the
checker proving anything again."""
import copy
import importlib.util
import json
import pathlib
import random
import sys
from fractions import Fraction

import pytest
from test_polynomial import _ref_add, _ref_mul

from gasprover import checker, positivity
from gasprover.certificate import CertNode
from gasprover.certificate import TestOutcome as Outcome
from gasprover.certificate import certificate_from_json, certificate_to_json
from gasprover.checker import _cones, replay_certificate, subdivide
from gasprover.driver import prove, prove_k
from gasprover.parsing import parse_poly
from gasprover.polynomial import MultiPoly
from gasprover.positivity import finitize, prove_nonneg
from gasprover.recurrence import UnsupportedInputError, build_contraction_poly, parse_rde

F = Fraction

EX2 = "x0^4*x1-5*x0^3*x1+10*x0^2*x1+x0^2+x1"

# the inputs of the golden certificates (test_positivity), one per ending
GOLDEN = [
    ("x0^2+x0*x1+x1^2+1", F(1), 12),
    ("x0^2-3*x0*x1+x1^2", F(1), 12),
    ("(x0-1024*x1)^2-x0*x1/1000", F(1), 12),
    ("6*x0^3+x0^2-4*x0+1", F(1, 2), 12),
    ("(x0-1/3)^2+(x1-1/3)^2", F(1), 2),
    ("(x0-1/3)^2+(x1-1/3)^2", F(1), 0),
    ("(x0-x1)^2+x0+1", F(0), 10),
    (EX2, F(1), 12),
    ("x0*x1-x0-x1+2", F(0), 10),
    ("((x0-1/3)^2+1/10^6)*((x0-4/5)^2-1/1000)", F(1), 4),
]


def P(text, nvars=None):
    return parse_poly(text, nvars)


def _roundtrip(cert):
    return certificate_from_json(certificate_to_json(cert))


def _bench_cases(monkeypatch):
    """The benchmark's case builder; it does not import gasprover."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "cases.py"
    spec = importlib.util.spec_from_file_location("bench_cases", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def _random_poly(rng, nvars):
    kind = rng.randrange(3)
    if kind == 0:  # sparse, mixed signs
        terms = {tuple(rng.randrange(0, 4) for _ in range(nvars)):
                 F(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(rng.randrange(1, 6))}
        return MultiPoly(nvars, terms)
    if kind == 1:  # mostly positive
        terms = {(0,) * nvars: F(rng.randrange(-2, 6))}
        for _ in range(rng.randrange(2, 7)):
            exps = tuple(rng.randrange(0, 4) for _ in range(nvars))
            terms[exps] = terms.get(exps, F(0)) + rng.choice((1, 1, -1)) * rng.randrange(1, 8)
        return MultiPoly(nvars, terms)
    return _shifted_squares(rng, nvars)


def _shifted_squares(rng, nvars):
    """c + sum_i (x_i - r_i)^2 with seeded c >= 0 and r_i >= 0, in Fractions."""
    zero = (0,) * nvars
    p = MultiPoly(nvars, {zero: F(rng.randrange(0, 3), 4)})
    for i in range(nvars):
        t = MultiPoly(nvars, {zero[:i] + (1,) + zero[i + 1:]: 1,
                              zero: -F(rng.randrange(0, 7), rng.randrange(1, 4))})
        p = _ref_add(p, _ref_mul(t, t))
    return p


def _random_corpus():
    """The golden inputs, then seeded 1-3 variable inputs at xbar in {0, 1/2,
    1, 2}, depth limits 0-5 (0-2 for three variables, where a split has eight
    children)."""
    rng = random.Random(307)
    inputs = [(P(text), xbar, depth) for text, xbar, depth in GOLDEN]
    while len(inputs) < 209:
        nvars = rng.randrange(1, 4)
        p = _random_poly(rng, nvars)
        if not p.is_zero():
            depth = rng.randrange(0, 6) if nvars < 3 else rng.randrange(0, 3)
            inputs.append((p, rng.choice([F(0), F(1, 2), F(1), F(2)]), depth))
    return inputs


def _ending(cert):
    return cert.fail_reason or cert.verdict


class TestAccepts:
    def test_bench_workloads_at_seeds_1_to_10(self, monkeypatch):
        cases = _bench_cases(monkeypatch)
        seen, endings = set(), set()
        for workload in cases.WORKLOADS:
            for seed in range(1, 11):
                for case in cases.build(workload, seed):
                    if (case.rde, case.call, case.k) in seen:
                        continue
                    seen.add((case.rde, case.call, case.k))
                    spec = parse_rde(case.rde)
                    try:
                        result = (prove(spec, maxK=case.k) if case.call == "prove"
                                  else prove_k(spec, case.k))
                    except UnsupportedInputError:  # an irrational equilibrium
                        continue
                    cert = result.certificate
                    if cert is None:
                        continue
                    P_K = build_contraction_poly(spec, result.equilibrium, result.K)
                    assert replay_certificate(_roundtrip(cert), P_K), case.rde
                    endings.add(_ending(cert))
        assert len(seen) > 200
        assert {"Proven", "Disproven"} <= endings

    def test_golden_and_random_corpus(self):
        endings = set()
        for p, xbar, depth in _random_corpus():
            cert = prove_nonneg(p, xbar, depth)
            assert replay_certificate(_roundtrip(cert), p), (str(p), xbar, depth)
            endings.add((_ending(cert), any(n.box is not None for n in cert.nodes)))
        assert endings >= {("Proven", False), ("Proven", True), ("Disproven", False),
                           ("Disproven", True), ("depth-limit", True),
                           ("cannot-finitize-zero-split", False), ("zero-off-xbar", True)}

    def test_reads_no_detail_digest_failed_outcome_or_split_outcome(self):
        # none of them is part of the proof, so a certificate without them
        # proves the same; a node digest of the older format is ignored
        for text, xbar, depth in GOLDEN:
            p = P(text)
            doc = _doc(prove_nonneg(p, xbar, depth))
            for node in doc["tree"]:
                node["digest"] = ""
            cert = certificate_from_json(json.dumps(doc))
            for node in cert.nodes:
                if node.status == "pass":
                    node.outcomes = [Outcome(node.outcomes[-1].test, "pass")]
                else:
                    node.outcomes = []
            assert replay_certificate(cert, p), text

    def test_walk_fed_a_certificates_nodes_visits_exactly_them(self):
        # the walk reads each node's status as the prover left it; a run that
        # ends at a refutation or a zero stops before the walk does, so the
        # walk is not resumed after its last node, which would yield nodes
        # the prover never reached
        for p, xbar, depth in _random_corpus():
            cert = prove_nonneg(p, xbar, depth)
            stopped = cert.verdict == "Disproven" or cert.fail_reason == "zero-off-xbar"
            seen, visited = [], []
            for path, region, box, _ in checker.walk(p.packed(), xbar, seen):
                visited.append((path, region, box))
                if len(seen) == len(cert.nodes):
                    break
                seen.append(cert.nodes[len(seen)])
                if stopped and len(seen) == len(cert.nodes):
                    break
            want = [(n.path, n.region, n.box) for n in cert.nodes]
            assert visited == want, (str(p), xbar, depth)

    def test_walk_ends_after_a_split_region_at_zero(self):
        # a grid-refuted region at xbar = 0 is left `split`, and no finite
        # box holds it, so a walk resumed after it ends there
        p = P("x0*x1-x0-x1+2")
        cert = prove_nonneg(p, F(0), 10)
        assert [n.status for n in cert.nodes] == ["split"]
        seen = []
        for _ in checker.walk(p.packed(), F(0), seen):
            seen.append(cert.nodes[len(seen)])
        assert seen == cert.nodes

    def test_does_not_prove_again(self, monkeypatch):
        certs = [(P(text), prove_nonneg(P(text), xbar, depth)) for text, xbar, depth in GOLDEN]

        def refuse(*args):
            raise AssertionError("the checker ran the prover")

        for name in ("prove_nonneg", "_run_tests", "_grid_negative", "_search_negative",
                     "_lcoeff", "_const"):
            monkeypatch.setattr(positivity, name, refuse)
        for p, cert in certs:
            assert replay_certificate(cert, p)


def _proven(text, xbar, depth):
    p = P(text)
    cert = _roundtrip(prove_nonneg(p, xbar, depth))
    assert replay_certificate(cert, p)
    return p, cert


def _collapse(cert, node, outcome):
    """The certificate with `node` made a pass leaf claimed by `outcome` and
    its subtree dropped, so the tree is otherwise the prover's."""
    forged = copy.deepcopy(cert)
    keep = []
    for other in forged.nodes:
        inside = other.path[:len(node.path)] == node.path and other.region == node.region
        if other.path == node.path and other.region == node.region:
            other.status, other.outcomes = "pass", [outcome]
            keep.append(other)
        elif not inside:
            keep.append(other)
    forged.nodes = keep
    return forged


class TestRejects:
    def test_dropped_node(self):
        p, cert = _proven(EX2, F(1), 12)
        for i in range(len(cert.nodes)):
            forged = copy.deepcopy(cert)
            del forged.nodes[i]
            assert not replay_certificate(forged, p), i

    def test_extra_node(self):
        p, cert = _proven(EX2, F(1), 12)
        for i in range(len(cert.nodes)):
            forged = copy.deepcopy(cert)
            forged.nodes.insert(i + 1, copy.deepcopy(forged.nodes[i]))
            assert not replay_certificate(forged, p), i

    def test_child_box_out_of_order(self):
        p, cert = _proven(EX2, F(1), 12)
        boxes = [i for i, n in enumerate(cert.nodes) if n.box is not None and len(n.path) == 2]
        i, j = boxes[0], boxes[1]
        assert cert.nodes[i].region == cert.nodes[j].region
        forged = copy.deepcopy(cert)
        forged.nodes[i], forged.nodes[j] = forged.nodes[j], forged.nodes[i]
        assert not replay_certificate(forged, p)
        # the same boxes under each other's paths
        forged = copy.deepcopy(cert)
        forged.nodes[i].box, forged.nodes[j].box = forged.nodes[j].box, forged.nodes[i].box
        assert not replay_certificate(forged, p)

    def test_split_flipped_to_pass(self):
        p, cert = _proven(EX2, F(1), 12)
        for node in cert.nodes:
            if node.status != "split":
                continue
            forged = copy.deepcopy(cert)
            next(n for n in forged.nodes if n.path == node.path).status = "pass"
            assert not replay_certificate(forged, p)
            # and with its subtree dropped, as a leaf claimed by a failing test
            for test in checker._PASS_TESTS:
                collapsed = _collapse(cert, node, Outcome(test, "pass"))
                assert not replay_certificate(collapsed, p), (node.path, test)

    def test_pass_claimed_for_a_failing_test(self):
        # each pass leaf relabelled with a test that fails on its polynomial
        p, cert = _proven(EX2, F(1), 12)
        forged_any = False
        for i, node in enumerate(cert.nodes):
            if node.status != "pass":
                continue
            if node.box is None:
                poly = positivity.region_poly(p, node.region)
            else:
                fin, _ = finitize(p, node.region)
                poly = fin.box_map(node.box.bounds)
            for name, test in checker._PASS_TESTS.items():
                try:
                    holds = test(poly.packed()).result == "pass"
                except ValueError:
                    holds = False
                if holds:
                    continue
                forged = copy.deepcopy(cert)
                forged.nodes[i].outcomes[-1] = Outcome(name, "pass")
                assert not replay_certificate(forged, p), (node.path, name)
                forged_any = True
        assert forged_any

    def test_last_outcome_not_a_pass(self):
        p, cert = _proven(EX2, F(1), 12)
        i = next(i for i, n in enumerate(cert.nodes) if n.status == "pass")
        for outcomes in ([], cert.nodes[i].outcomes[:-1] + [Outcome("PosCoeffs", "fail")],
                         cert.nodes[i].outcomes + [Outcome("Const", "fail")]):
            forged = copy.deepcopy(cert)
            forged.nodes[i].outcomes = outcomes
            assert not replay_certificate(forged, p)

    def test_cones_at_a_box_node(self):
        # the all-1 chain box NE/11 passes by ZeroOnlyAtOrigin, and Cones
        # would pass on its polynomial too, but Cones may pass only regions
        p, cert = _proven("3*(x0-1)^2-2*(x0-1)^2*(x1-1)+5*(x1-1)^2+(x0-1)^2*(x1-1)^3", F(1), 3)
        i = next(i for i, n in enumerate(cert.nodes) if n.path == ("NE", "11"))
        node = cert.nodes[i]
        fin, _ = finitize(p, node.region)
        assert _cones(fin.box_map(node.box.bounds).packed()).result == "pass"
        forged = copy.deepcopy(cert)
        forged.nodes[i].outcomes = [Outcome("Cones", "pass")]
        assert not replay_certificate(forged, p)

    def test_zero_only_at_origin_at_an_off_chain_box(self):
        # (x0 - 1)^2 at xbar = 2: box L/0 = [0, 1] has P = 0 at its upper
        # corner 1, which is not the xbar image, and ZeroOnlyAtOrigin passes
        # it; the prover ends there with zero-off-xbar.  Completed with L/1,
        # which PosCoeffs passes, the tree claims Proven.
        p = P("(x0-1)^2")
        cert = _roundtrip(prove_nonneg(p, F(2), 3))
        assert (cert.verdict, cert.fail_reason) == ("Fail", "zero-off-xbar")
        assert replay_certificate(cert, p)
        last = cert.nodes[-1]
        assert last.path == ("L", "0")
        assert [o.test for o in last.outcomes] == ["PosCoeffs", "ZeroOnlyAtOrigin"]
        forged = copy.deepcopy(cert)
        forged.verdict = "Proven"
        forged.fail_reason = forged.witness = forged.witness_value = None
        upper = subdivide(finitize(p, last.region)[1])[1][1]
        forged.nodes.append(CertNode(("L", "1"), last.region, upper,
                                     [Outcome("PosCoeffs", "pass")], "pass"))
        assert not replay_certificate(forged, p)

    def test_proven_with_a_depth_limit_leaf(self):
        p, cert = _proven("(x0-1/3)^2+(x1-1/3)^2", F(1), 2)
        assert cert.fail_reason == "depth-limit"
        cert.verdict, cert.fail_reason = "Proven", None
        assert not replay_certificate(cert, p)

    def test_depth_limit_within_the_limit(self):
        # each split of EX2, within the limit of 12, claimed as a depth-limit leaf
        p, cert = _proven(EX2, F(1), 12)
        cert.verdict, cert.fail_reason = "Fail", "depth-limit"
        for node in cert.nodes:
            if node.status == "split":
                forged = _collapse(cert, node, Outcome("Const", "fail"))
                next(n for n in forged.nodes if n.path == node.path).status = "depth-limit"
                assert not replay_certificate(forged, p), node.path

    def test_split_past_the_limit(self):
        for depth in (0, 2):
            p, cert = _proven("(x0-1/3)^2+(x1-1/3)^2", F(1), depth)
            limited = [i for i, n in enumerate(cert.nodes) if n.status == "depth-limit"]
            assert limited and all(len(cert.nodes[i].path) == depth + 1 for i in limited)
            for i in limited:
                forged = copy.deepcopy(cert)
                forged.nodes[i].status = "split"
                assert not replay_certificate(forged, p), (depth, i)
        # a whole proof, whose regions split, claimed under a limit of 0
        p, cert = _proven(EX2, F(1), 12)
        cert.depth_limit = 0
        assert not replay_certificate(cert, p)

    def test_split_then_a_depth_limit_node_at_the_same_place(self):
        # the older form: a split past the limit, then a node with no outcomes
        # that holds the box the split would subdivide
        for depth in (0, 2):
            p, cert = _proven("(x0-1/3)^2+(x1-1/3)^2", F(1), depth)
            forged = copy.deepcopy(cert)
            forged.nodes = []
            for node in cert.nodes:
                forged.nodes.append(node)
                if node.status == "depth-limit":
                    box = node.box or finitize(p, node.region)[1]
                    forged.nodes.append(CertNode(node.path, node.region, box, [], "depth-limit"))
                    node.status = "split"
            assert len(forged.nodes) > len(cert.nodes)
            assert not replay_certificate(forged, p), depth

    def test_depth_limit_at_a_region_split_at_zero(self):
        # a region at xbar = 0 cannot be mapped onto a finite box, so it is
        # never subdivided, and no depth limit can stop it
        p, cert = _proven("(x0-x1)^2+x0+1", F(0), 0)
        assert [n.status for n in cert.nodes] == ["cannot-finitize"]
        cert.nodes[0].status = "depth-limit"
        cert.fail_reason = "depth-limit"
        assert not replay_certificate(cert, p)

    def test_wrong_fail_reason(self):
        for text, xbar, depth in (("(x0-1/3)^2+(x1-1/3)^2", F(1), 2),
                                  ("(x0-x1)^2+x0+1", F(0), 10)):
            p, cert = _proven(text, xbar, depth)
            assert cert.verdict == "Fail"
            for reason in ("depth-limit", "cannot-finitize-zero-split", "node-budget", None):
                if reason != cert.fail_reason:
                    forged = copy.deepcopy(cert)
                    forged.fail_reason = reason
                    assert not replay_certificate(forged, p), (text, reason)
        # a Proven tree is no Fail
        p, cert = _proven(EX2, F(1), 12)
        cert.verdict, cert.fail_reason = "Fail", "depth-limit"
        assert not replay_certificate(cert, p)

    def test_cannot_finitize_only_at_a_region_split_at_zero(self):
        # at xbar = 1 every region and box can be mapped onto a finite box
        p, cert = _proven(EX2, F(1), 12)
        cert.verdict, cert.fail_reason = "Fail", "cannot-finitize-zero-split"
        for node in cert.nodes:
            if node.status == "split":
                forged = _collapse(cert, node, Outcome("Const", "fail"))
                next(n for n in forged.nodes if n.path == node.path).status = "cannot-finitize"
                assert not replay_certificate(forged, p), node.path
        p, cert = _proven("(x0-x1)^2+x0+1", F(0), 10)
        assert cert.nodes[0].status == "cannot-finitize"
        cert.nodes[0].status = "split"
        assert not replay_certificate(cert, p)

    def test_bad_witness(self):
        p, cert = _proven("x0+x1-1", F(1), 10)
        assert cert.verdict == "Disproven"
        for witness, value in (
            ([F(1), F(1)], F(1)),           # P >= 0 there
            (cert.witness, cert.witness_value - 1),  # mismatched value
            ([F(-1), F(0)], F(-2)),        # outside the orthant
            ([F(0)], F(-1)),               # too few coordinates
            (None, cert.witness_value),
        ):
            forged = copy.deepcopy(cert)
            forged.witness, forged.witness_value = witness, value
            assert not replay_certificate(forged, p), witness
        # Disproven needs no tree
        cert.nodes = []
        assert replay_certificate(cert, p)

    def test_bad_zero_witness(self):
        p = P("(x0-1)^2+(x1-1)^2")
        cert = _roundtrip(prove_nonneg(p, F(2), 10))
        assert cert.fail_reason == "zero-off-xbar" and replay_certificate(cert, p)
        q = P("(x0-2)^2+(x1-2)^2")
        for target, witness, value in (
            (p, [F(1), F(2)], F(0)),     # not a zero
            (p, [F(1), F(1)], F(1)),     # mismatched value
            (q, [F(2), F(2)], F(0)),     # the xbar point itself
        ):
            forged = copy.deepcopy(cert)
            forged.input_digest = target.digest()
            forged.witness, forged.witness_value = witness, value
            assert not replay_certificate(forged, target), witness


def _doc(cert):
    return json.loads(certificate_to_json(cert))


class TestMalformed:
    """Certificates that parse but are not the prover's: False, never raised."""

    @pytest.mark.parametrize("edit", [
        "box-arity", "unknown-test", "nvars", "unhashable-test", "unknown-status",
        "path-numbers", "depth-limit-string", "fail-reason-list", "float-witness",
        "region-arity", "no-tree",
    ])
    def test_returns_false(self, edit):
        p = P(EX2)
        doc = _doc(prove_nonneg(p, F(1), 12))
        node = next(n for n in doc["tree"] if n["box"] is not None and n["status"] == "pass")
        if edit == "box-arity":
            node["box"]["bounds"].append(["0", "1"])
            node["box"]["open_low"].append(False)
        elif edit == "unknown-test":
            node["tests"][-1]["test"] = "Oracle"
        elif edit == "nvars":
            doc["nvars"] = 3
        elif edit == "unhashable-test":
            node["tests"][-1]["test"] = ["PosCoeffs"]
        elif edit == "unknown-status":
            node["status"] = "trusted"
        elif edit == "path-numbers":
            node["path"] = [1, 2]
        elif edit == "depth-limit-string":
            doc["depth_limit"] = "12"
        elif edit == "fail-reason-list":
            doc["verdict"], doc["fail_reason"] = "Fail", ["depth-limit"]
        elif edit == "float-witness":
            doc["verdict"], doc["witness"], doc["witness_value"] = "Disproven", ["1/2", "1"], "-1"
        elif edit == "region-arity":
            node["region"]["highs"].append("H")
        elif edit == "no-tree":
            doc["tree"] = []
        cert = certificate_from_json(json.dumps(doc))
        if edit == "float-witness":
            cert.witness = [0.5, 1.0]
        assert replay_certificate(cert, p) is False


class TestFromJson:
    """A document that is not a certificate is a ValueError that names the
    problem; keys the format does not know are ignored."""

    @pytest.mark.parametrize("edit, message", [
        ("empty-object", "has no 'tree'"),
        ("array", "not a JSON object"),
        ("tree-not-a-list", "'tree' has the wrong JSON type"),
        ("node-not-an-object", "tree node 0 is not a JSON object"),
        ("node-without-status", "has no 'status'"),
        ("test-without-result", "has no 'result'"),
        ("bound-not-a-pair", "is not a pair"),
        ("bounds-not-a-list", "'bounds' has the wrong JSON type"),
        ("bound-a-number", "is not a rational string"),
        ("no-verdict", "has no 'verdict'"),
        ("xbar-a-number", "is not a rational string"),
        ("witness-a-string", "'witness' has the wrong JSON type"),
        ("highs-not-H-or-L", r"tree node \d+: 'highs' holds \['X'"),
        ("open_low-a-number", r"tree node \d+: 'open_low' holds \[1"),
    ])
    def test_value_error(self, edit, message):
        doc = _doc(prove_nonneg(P(EX2), F(1), 12))
        node = next(n for n in doc["tree"] if n["box"] is not None)
        if edit == "empty-object":
            doc = {}
        elif edit == "array":
            doc = []
        elif edit == "tree-not-a-list":
            doc["tree"] = {"0": node}
        elif edit == "node-not-an-object":
            doc["tree"][0] = "NE"
        elif edit == "node-without-status":
            del node["status"]
        elif edit == "test-without-result":
            del node["tests"][0]["result"]
        elif edit == "bound-not-a-pair":
            node["box"]["bounds"][0] = ["0"]
        elif edit == "bounds-not-a-list":
            node["box"]["bounds"] = "0 1"
        elif edit == "bound-a-number":
            node["box"]["bounds"][0] = [0, 1]
        elif edit == "no-verdict":
            del doc["verdict"]
        elif edit == "xbar-a-number":
            doc["xbar"] = 1
        elif edit == "witness-a-string":
            doc["witness"] = "1"
        elif edit == "highs-not-H-or-L":
            node["region"]["highs"][0] = "X"
        elif edit == "open_low-a-number":
            node["box"]["open_low"] = [int(b) for b in node["box"]["open_low"]]
        with pytest.raises(ValueError, match=message):
            certificate_from_json(json.dumps(doc))

    def test_unknown_keys_are_ignored(self):
        p = P(EX2)
        doc = _doc(prove_nonneg(p, F(1), 12))
        doc["comment"] = "made by hand"
        for node in doc["tree"]:
            node["digest"] = "0" * 64
            for test in node["tests"]:
                test["seconds"] = 0
        assert replay_certificate(certificate_from_json(json.dumps(doc)), p)
