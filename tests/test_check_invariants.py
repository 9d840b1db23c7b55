"""Runtime invariant sanitizer: failure paths and byte-transparency.

Two obligations, tested separately:

- **It catches corruption.**  Each invariant family gets a test that
  deliberately breaks simulator state (a skewed refcount, a backwards
  event, a dropped request) and asserts the violation report names the
  right invariant, replica, request, and block.
- **It changes nothing.**  Golden scenarios (the committed digests of
  :mod:`tests.test_golden_equivalence`) must reproduce byte-for-byte
  with the sanitizer attached — thousands of checks, zero drift.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

import pytest

from repro.analysis.export import report_to_json
from repro.analysis.runner import run_spec
from repro.analysis.spec import ExperimentSpec
from repro.check.invariants import InvariantChecker, InvariantViolation
from repro.prefixcache.manager import PrefixCacheManager
from repro.serving.kv_cache import KVCacheManager
from tests.conftest import make_request
from tests.test_golden_equivalence import GOLDEN


def violation(call, *args, **kwargs) -> InvariantViolation:
    with pytest.raises(InvariantViolation) as exc_info:
        call(*args, **kwargs)
    return exc_info.value


# ----------------------------------------------------------------------
# KV accounting
# ----------------------------------------------------------------------
class TestKVInvariants:
    def test_clean_kv_passes(self):
        kv = KVCacheManager(capacity_tokens=1024)
        kv.ensure(rid=1, tokens=100)
        checker = InvariantChecker()
        checker.check_kv(kv, "admit", replica=0, rid=1)
        assert checker.checks == 1

    def test_used_counter_skew_detected(self):
        kv = KVCacheManager(capacity_tokens=1024)
        kv.ensure(rid=1, tokens=100)
        kv._used += 1  # corrupt: counter no longer matches allocations
        v = violation(InvariantChecker().check_kv, kv, "finish", replica=3, rid=1)
        assert v.invariant == "kv-conservation"
        assert v.replica == 3 and v.rid == 1
        assert "after finish" in v.message

    def test_negative_allocation_detected(self):
        kv = KVCacheManager(capacity_tokens=1024)
        kv.ensure(rid=7, tokens=64)
        kv._allocated[7] = -1
        kv._used = -1
        v = violation(InvariantChecker().check_kv, kv, "preempt", rid=7)
        assert v.invariant == "kv-allocation"
        assert "request 7" in v.message

    @pytest.mark.parametrize("manager", [KVCacheManager, PrefixCacheManager])
    def test_covered_above_holdings_detected(self, manager):
        kv = manager(capacity_tokens=1024)
        kv.ensure(rid=4, tokens=40)  # 3 blocks: 48 tokens covered
        InvariantChecker().check_kv(kv, "admit", rid=4)
        kv.covered[4] += 1  # corrupt upward: claims a token no block holds
        v = violation(InvariantChecker().check_kv, kv, "decode-admission", rid=4)
        assert v.invariant == "kv-covered"
        assert "request 4 records 49 covered tokens but holds 48" in v.message

    def test_covered_entry_without_holdings_detected(self):
        kv = KVCacheManager(capacity_tokens=1024)
        kv.covered[9] = 16  # a released request left behind
        v = violation(InvariantChecker().check_kv, kv, "finish", rid=9)
        assert v.invariant == "kv-covered"


class TestPrefixInvariants:
    STREAM = 0x5157

    def _shared_kv(self) -> PrefixCacheManager:
        kv = PrefixCacheManager(capacity_tokens=1024)
        kv.ensure(rid=1, tokens=64)  # 4 blocks private
        kv.commit_keys(1, [(self.STREAM, 3)])  # three of them published as shared
        kv.lock_keys(2, [(self.STREAM, 2)])  # a second request references two
        # Two runs of one stream: depths 0-1 held by both requests, depth
        # 2 by request 1.
        return kv

    def _runs(self, kv):
        return kv._streams[self.STREAM]

    def test_clean_prefix_state_passes(self):
        kv = self._shared_kv()
        head, tail = self._runs(kv)
        assert (head.start, head.end, head.refcount, head.children) == (0, 2, 2, 1)
        assert (tail.start, tail.end, tail.refcount, tail.parent) == (2, 3, 1, head)
        assert kv._refs == {1: (tail, 3), 2: (head, 2)}
        InvariantChecker().check_kv(kv, "admit", rid=2)

    def test_refcount_skew_names_block(self):
        kv = self._shared_kv()
        self._runs(kv)[1].refcount += 1  # corrupt one run's refcount
        v = violation(InvariantChecker().check_kv, kv, "admit", replica=1, rid=2)
        assert v.invariant == "prefix-refcount"
        assert v.block == 2  # the run's tail depth
        assert v.replica == 1 and v.rid == 2
        assert "refcount=2 but 1 live chain(s)" in v.message

    def test_dangling_chain_reference_detected(self):
        kv = self._shared_kv()
        self._runs(kv).pop()  # request 1 still holds the evicted run
        v = violation(InvariantChecker().check_kv, kv, "evacuate")
        assert v.invariant == "prefix-refcount"
        assert v.block == 2
        assert "request 1 references a run missing" in v.message

    def test_unreferenced_count_skew_detected(self):
        kv = self._shared_kv()
        kv._unreferenced += 1
        v = violation(InvariantChecker().check_kv, kv, "retire")
        assert v.invariant == "prefix-unreferenced"

    def test_children_count_skew_detected(self):
        kv = self._shared_kv()
        self._runs(kv)[0].children = 5
        v = violation(InvariantChecker().check_kv, kv, "admit")
        assert v.invariant == "prefix-children"
        assert v.block == 1  # the run's tail, where its children hang

    def test_broken_chain_linkage_detected(self):
        kv = self._shared_kv()
        # Detach the tail run as a root (keeping the children tallies
        # consistent, so only the chain audit can catch it).
        head, tail = self._runs(kv)
        tail.parent, tail.start = None, 0
        head.children = 0
        v = violation(InvariantChecker().check_kv, kv, "admit")
        assert v.invariant == "prefix-chain"
        assert v.block == 0
        assert "does not hang from the stream's previous run, which ends at 1" in v.message

    def test_held_depth_off_its_tail_run_detected(self):
        kv = self._shared_kv()
        tail, _ = kv._refs[1]
        kv._refs[1] = (tail, 4)
        v = violation(InvariantChecker().check_kv, kv, "admit")
        assert v.invariant == "prefix-chain"
        assert "request 1 records 4 shared blocks but its tail run ends at 3" in v.message

    def test_cached_count_skew_detected(self):
        kv = self._shared_kv()
        kv._cached -= 1
        v = violation(InvariantChecker().check_kv, kv, "admit")
        assert v.invariant == "kv-conservation"
        assert "_cached=2 but the runs hold 3 blocks" in v.message

    def test_prefix_manager_without_its_table_fails_loudly(self):
        # A prefix-caching manager whose table is not where the checker
        # looks must fail the audit, not silently skip every prefix rule.
        kv = KVCacheManager(capacity_tokens=1024)
        kv.prefix_caching = True
        kv._refs = {}
        with pytest.raises(AttributeError, match="_streams"):
            InvariantChecker().check_kv(kv, "admit")


# ----------------------------------------------------------------------
# Event-time monotonicity + sampler bounds
# ----------------------------------------------------------------------
class TestTimeInvariants:
    def test_event_time_must_not_regress(self):
        checker = InvariantChecker()
        checker.check_event_time(5.0)
        checker.check_event_time(5.0)  # equal is fine
        v = violation(checker.check_event_time, 4.0)
        assert v.invariant == "event-monotonicity"
        assert v.time == 4.0
        assert "after t=5.0" in v.message

    def test_float_slack_tolerated(self):
        checker = InvariantChecker()
        checker.check_event_time(5.0)
        checker.check_event_time(5.0 - 1e-13)  # within _EPS

    def test_replica_step_names_replica(self):
        checker = InvariantChecker()
        checker.check_replica_step(1, 3.0)
        checker.check_replica_step(2, 1.0)  # other replicas are independent
        v = violation(checker.check_replica_step, 1, 2.0)
        assert v.invariant == "replica-monotonicity"
        assert v.replica == 1
        assert "3.0 -> 2.0" in v.message

    def test_sampler_beyond_event_time_detected(self):
        sampler = SimpleNamespace(samples=[SimpleNamespace(t=10.0)])
        v = violation(InvariantChecker().check_sampler, sampler, 5.0)
        assert v.invariant == "sampler-bound"
        assert "t=10.0" in v.message

    def test_sampler_at_event_time_passes(self):
        sampler = SimpleNamespace(samples=[SimpleNamespace(t=5.0)])
        InvariantChecker().check_sampler(sampler, 5.0)


# ----------------------------------------------------------------------
# Request conservation
# ----------------------------------------------------------------------
class TestConservation:
    def test_exact_accounting_passes(self):
        reqs = [make_request(rid=i) for i in range(3)]
        InvariantChecker().check_conservation(reqs, list(reversed(reqs)), "merge")

    def test_dropped_request_named(self):
        reqs = [make_request(rid=i) for i in range(3)]
        v = violation(
            InvariantChecker().check_conservation, reqs, reqs[:2], "fleet merge"
        )
        assert v.invariant == "request-conservation"
        assert v.rid == 2
        assert "at fleet merge" in v.message
        assert "missing rids [2]" in v.message

    def test_duplicated_request_named(self):
        reqs = [make_request(rid=i) for i in range(2)]
        v = violation(
            InvariantChecker().check_conservation,
            reqs,
            [*reqs, reqs[0]],
            "fleet merge",
        )
        assert "duplicated/unknown rids [0]" in v.message

    def test_violation_report_is_structured(self):
        v = InvariantViolation(
            "request-conservation", "boom", replica=2, rid=7, block=3, time=1.5
        )
        assert v.to_dict() == {
            "invariant": "request-conservation",
            "message": "boom",
            "replica": 2,
            "rid": 7,
            "block": 3,
            "time": 1.5,
        }
        assert v.format() == (
            "invariant request-conservation violated: boom "
            "[replica=2 rid=7 block=3 t=1.5]"
        )
        assert isinstance(v, AssertionError)


# ----------------------------------------------------------------------
# End-to-end transparency: golden digests with the sanitizer attached
# ----------------------------------------------------------------------
#: Golden scenario -> fewest checks its run must make (it actually ran).
_GOLDEN_UNDER_CHECK = {
    "solo-adaserve": 500,  # one-replica fleet under the per-replica checks
    "sessions-prefix-affinity-fleet": 1000,  # prefix sharing across a fleet
    "chaos-crash-straggler-fleet": 1000,  # crash + straggler + prefix cache
    "solo-fastserve-saturated": 1000,  # MLFQ level changes at a full batch
}


class TestEndToEnd:
    @pytest.mark.parametrize("name", list(_GOLDEN_UNDER_CHECK))
    def test_golden_digest_unchanged_under_invariants(self, name):
        kwargs, expected = next(
            (dict(kw), digest) for n, kw, digest in GOLDEN if n == name
        )
        checker = InvariantChecker()
        report = run_spec(
            ExperimentSpec.create(model="llama70b", seed=kwargs.pop("seed", 0), **kwargs),
            invariants=checker,
        )
        digest = hashlib.sha256(report_to_json(report).encode("utf-8")).hexdigest()
        assert digest == expected, "sanitizer must not perturb simulation"
        assert checker.checks > _GOLDEN_UNDER_CHECK[name]  # it ran, densely

    def test_solo_run_checked(self):
        checker = InvariantChecker()
        spec = ExperimentSpec.create(
            model="llama70b",
            system="vllm",
            rps=6.0,
            duration_s=6.0,
            trace="sessions",
            prefix_cache=True,
            seed=3,
        )
        baseline = report_to_json(run_spec(spec))
        checked = report_to_json(run_spec(spec, invariants=checker))
        assert checked == baseline
        assert checker.checks > 100

    def test_cli_flag_reports_checks(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "run",
                    "--system",
                    "vllm",
                    "--rps",
                    "2.0",
                    "--duration",
                    "4",
                    "--trace",
                    "steady",
                    "--check-invariants",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "invariants: ok (" in captured.err
        assert "cache: bypassed (--check-invariants always simulates)" in captured.out

    def test_cli_surfaces_violation(self, capsys, monkeypatch):
        import repro.analysis.runner as runner_mod
        from repro.cli import main

        def explode(config, observer=None, invariants=None):
            raise InvariantViolation("kv-conservation", "synthetic", replica=1, rid=4)

        monkeypatch.setattr(runner_mod, "run_spec", explode)
        code = main(
            [
                "run",
                "--system",
                "vllm",
                "--rps",
                "2.0",
                "--duration",
                "4",
                "--check-invariants",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "invariant kv-conservation violated" in err
        assert "replica=1" in err and "rid=4" in err
