"""SPMD runtime: launcher, startup skew, records."""

import pytest

from repro.runtime import RunResult, run_spmd
from repro.runtime.skew import compute_phase
from repro.simnet import quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH

QUIET = quiet(FAST_ETHERNET_SWITCH)


def test_run_spmd_returns_per_rank_values():
    def main(env):
        yield env.sim.timeout(1.0)
        return env.rank * 2

    result = run_spmd(4, main, params=QUIET)
    assert result.returns == [0, 2, 4, 6]
    assert isinstance(result, RunResult)


def test_run_spmd_rejects_zero_ranks():
    with pytest.raises(ValueError):
        run_spmd(0, lambda env: iter(()))


def test_env_identity_fields():
    def main(env):
        yield env.sim.timeout(0.0)
        return (env.rank, env.size, env.comm.rank, env.comm.size,
                env.host.addr)

    result = run_spmd(3, main, params=QUIET)
    for r, got in enumerate(result.returns):
        assert got == (r, 3, r, 3, r)


def test_records_and_log():
    def main(env):
        env.log("samples", env.rank)
        env.log("samples", env.rank * 10)
        yield env.sim.timeout(0.0)

    result = run_spmd(2, main, params=QUIET)
    assert result.record_series("samples") == [[0, 0], [1, 10]]
    assert result.record_series("missing") == [[], []]


def test_init_done_after_skewed_start():
    skew = [0.0, 2000.0, 500.0]

    def main(env):
        yield env.sim.timeout(0.0)
        return env.now

    result = run_spmd(3, main, params=QUIET, skew=skew)
    assert result.init_done_us >= 2000.0
    # All ranks exit init together (the setup barrier): same time ±0.
    assert max(result.returns) - min(result.returns) < 500.0


def test_fixed_skew_out_of_range_is_zero():
    """A rank past the end of the delay list starts at 0."""
    def main(env):
        yield env.sim.timeout(0.0)
        return env.now

    short = run_spmd(3, main, params=QUIET, skew=[10_000.0])
    padded = run_spmd(3, main, params=QUIET, skew=[10_000.0, 0.0, 0.0])
    assert short.init_done_us >= 10_000.0
    assert short.returns == padded.returns
    assert short.init_done_us == padded.init_done_us


def test_fixed_skew_rejects_negative():
    with pytest.raises(ValueError, match="skew delays must be >= 0"):
        run_spmd(2, lambda env: iter(()), skew=[0.0, -5.0])


def test_compute_phase_advances_clock_reproducibly():
    def main(env):
        t0 = env.now
        yield from compute_phase(env, 200.0, jitter_frac=0.25)
        return env.now - t0

    r1 = run_spmd(2, main, params=QUIET, seed=9)
    r2 = run_spmd(2, main, params=QUIET, seed=9)
    assert r1.returns == r2.returns
    for d in r1.returns:
        assert 150.0 <= d <= 250.0


def test_seed_changes_outcome_with_jitter():
    def main(env):
        yield from env.comm.barrier()
        return env.now

    r1 = run_spmd(4, main, seed=1)   # default params have jitter
    r2 = run_spmd(4, main, seed=2)
    assert r1.returns != r2.returns


def test_same_seed_is_fully_deterministic():
    def main(env):
        obj = "d" if env.rank == 0 else None
        obj = yield from env.comm.bcast(obj, root=0)
        yield from env.comm.barrier()
        return env.now

    r1 = run_spmd(5, main, topology="hub", seed=42,
                  collectives={"bcast": "mcast-binary"})
    r2 = run_spmd(5, main, topology="hub", seed=42,
                  collectives={"bcast": "mcast-binary"})
    assert r1.returns == r2.returns
    assert r1.stats == r2.stats


def test_max_sim_us_suppresses_deadlock_error():
    """A bounded run returns quietly even with ranks blocked forever
    (the unbounded run raises DeadlockError instead)."""
    from repro.simnet import DeadlockError

    def main(env):
        yield env.sim.event()    # block forever

    result = run_spmd(2, main, params=QUIET, max_sim_us=5000.0)
    assert result.sim_time_us <= 5000.0
    assert result.returns == [None, None]
    with pytest.raises(DeadlockError):
        run_spmd(2, main, params=QUIET)


def test_max_sim_us_caps_clock_with_pending_events():
    def main(env):
        yield env.sim.timeout(1e9)   # event far beyond the bound

    result = run_spmd(2, main, params=QUIET, max_sim_us=5000.0)
    assert result.sim_time_us == 5000.0


def test_completed_run_ends_when_its_last_rank_returns():
    """A cancelled timer's record still pops (as a no-op) and moves the
    kernel's clock; the run's time is the instant its last rank program
    returned, not that of the heap's last record."""
    def main(env):
        timer = env.sim.timer(lambda: None)
        timer.arm(10_000.0)
        yield env.sim.timeout(100.0 * (env.rank + 1))
        timer.cancel()
        return env.sim.now

    result = run_spmd(2, main, params=QUIET)
    assert result.sim_time_us == max(result.returns)
    assert result.sim_time_us < 10_000.0 <= result.cluster.sim.now


def test_collectives_kwarg_validated():
    with pytest.raises(KeyError):
        run_spmd(2, lambda env: iter(()), params=QUIET,
                 collectives={"bcast": "no-such-impl"})
