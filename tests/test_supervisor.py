"""RunSupervisor: retries, backoff, real process crashes, chaos streams."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.faults.process import (
    KILL_EXIT_CODE,
    ChaosKill,
    ChaosMonkey,
    ProcessChaosConfig,
)
from repro.runner.supervisor import (
    RunFailed,
    RunSupervisor,
    SupervisorPolicy,
)

FAST = SupervisorPolicy(
    max_retries=2, backoff_base_s=0.001, backoff_max_s=0.002,
    heartbeat_timeout_s=5.0, poll_interval_s=0.01,
)


class TestPolicy:
    def test_backoff_grows_and_caps(self):
        policy = SupervisorPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.3
        )
        flat = [policy.backoff_for(attempt, 0.5) for attempt in (1, 2, 3, 4)]
        assert flat == [0.1, 0.2, 0.3, 0.3]

    def test_jitter_scales_half_to_one_and_a_half(self):
        policy = SupervisorPolicy(backoff_base_s=0.1)
        assert policy.backoff_for(1, 0.0) == pytest.approx(0.05)
        assert policy.backoff_for(1, 0.999) == pytest.approx(0.15, abs=0.001)


def _worker_ok(index: int, attempt: int, heartbeats) -> None:
    heartbeats.put((index, "stage"))


def _worker_crash_once(index: int, attempt: int, heartbeats) -> None:
    import os

    heartbeats.put((index, "start"))
    if attempt == 1:
        os._exit(KILL_EXIT_CODE)
    heartbeats.put((index, "done"))


def _worker_always_crash(index: int, attempt: int, heartbeats) -> None:
    import os

    os._exit(KILL_EXIT_CODE)


class TestProcesses:
    def _spawn(self, target):
        ctx = multiprocessing.get_context()

        def spawn(index: int, attempt: int, heartbeats):
            process = ctx.Process(target=target, args=(index, attempt, heartbeats))
            process.start()
            return process

        return spawn

    def test_requires_positive_worker_count(self):
        with pytest.raises(ValueError):
            RunSupervisor(FAST).run_processes([0], lambda *a: None)

    def test_clean_workers_complete(self):
        completed: list[int] = []
        policy = SupervisorPolicy(
            workers=2, max_retries=1, backoff_base_s=0.001,
            heartbeat_timeout_s=10.0, poll_interval_s=0.01,
        )
        outcomes = RunSupervisor(policy).run_processes(
            [0, 1, 2],
            self._spawn(_worker_ok),
            on_complete=completed.append,
        )
        assert sorted(completed) == [0, 1, 2]
        assert all(o.attempts == 1 for o in outcomes.values())

    def test_crashed_worker_retried_and_recovers(self):
        """A real exit-137 crash is detected and the shard re-attempted."""
        policy = SupervisorPolicy(
            workers=2, max_retries=2, backoff_base_s=0.001,
            heartbeat_timeout_s=10.0, poll_interval_s=0.01,
        )
        completed: list[int] = []
        outcomes = RunSupervisor(policy).run_processes(
            [0, 1],
            self._spawn(_worker_crash_once),
            on_complete=completed.append,
        )
        assert sorted(completed) == [0, 1]
        assert all(o.attempts == 2 for o in outcomes.values())
        assert all(
            o.crashes == [f"exit code {KILL_EXIT_CODE}"]
            for o in outcomes.values()
        )

    def test_persistent_crash_exhausts_budget(self):
        policy = SupervisorPolicy(
            workers=1, max_retries=1, backoff_base_s=0.001,
            heartbeat_timeout_s=10.0, poll_interval_s=0.01,
        )
        with pytest.raises(RunFailed):
            RunSupervisor(policy).run_processes(
                [0], self._spawn(_worker_always_crash)
            )


class TestChaosMonkey:
    def test_disabled_config_never_kills(self):
        monkey = ChaosMonkey(ProcessChaosConfig())
        for _ in range(100):
            monkey.worker_boundary("x")
            monkey.supervisor_boundary("x")
            assert monkey.torn_write(b"0123456789") is None
        assert monkey.kills == 0

    def test_rate_one_kills_at_first_boundary(self):
        monkey = ChaosMonkey(ProcessChaosConfig(kill_worker_rate=1.0))
        with pytest.raises(ChaosKill):
            monkey.worker_boundary("shard-0:candidates")
        assert monkey.kill_sites == [("worker", "shard-0:candidates")]

    def test_budget_caps_total_kills(self):
        monkey = ChaosMonkey(
            ProcessChaosConfig(kill_worker_rate=1.0, max_kills=2)
        )
        killed = 0
        for _ in range(10):
            try:
                monkey.worker_boundary("boundary")
            except ChaosKill:
                killed += 1
        assert killed == 2
        assert monkey.kills == 2

    def test_torn_write_cut_is_strictly_inside(self):
        monkey = ChaosMonkey(ProcessChaosConfig(torn_write_rate=1.0))
        data = b"0123456789" * 5
        cut = monkey.torn_write(data)
        assert cut is not None
        assert 0 < cut < len(data)

    def test_streams_are_independent(self):
        """Worker kills draw from their own stream: torn decisions repeat."""
        config = ProcessChaosConfig(
            seed=5, kill_worker_rate=0.5, torn_write_rate=0.5
        )
        solo = ChaosMonkey(
            ProcessChaosConfig(seed=5, torn_write_rate=0.5)
        )
        mixed = ChaosMonkey(config)
        torn_solo = []
        torn_mixed = []
        for _ in range(50):
            torn_solo.append(solo.torn_write(b"0123456789"))
            try:
                mixed.worker_boundary("x")
            except ChaosKill:
                pass
            torn_mixed.append(mixed.torn_write(b"0123456789"))
        assert torn_solo == torn_mixed

    def test_deterministic_for_a_seed(self):
        def sites(seed: int) -> list[tuple[str, str]]:
            monkey = ChaosMonkey(
                ProcessChaosConfig(
                    seed=seed, kill_worker_rate=0.3, kill_supervisor_rate=0.3,
                    max_kills=5,
                )
            )
            for step in range(40):
                try:
                    monkey.worker_boundary(f"w{step}")
                    monkey.supervisor_boundary(f"s{step}")
                except ChaosKill:
                    pass
            return monkey.kill_sites

        assert sites(9) == sites(9)
        assert sites(9) != sites(10)
