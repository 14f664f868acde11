"""Counter synthesis is bit-identical to the seed's one-draw-per-value form.

``ServerSimulator.synthesize_counters`` serves every noisy value of an
epoch from one ``standard_normal`` draw.  These tests replay operating
points captured from real runs through it and through the seed's
scalar version (:func:`benchmarks.seed_reference.seed_synthesize_counters`)
from the same RNG state, and require every counter field to match bit
for bit and in type, and the RNG to be left at the same stream
position.  The grid covers noiseless, counter-only, power-only and
mixed sigmas, 4/16/64 cores, and one or several skewed controllers,
all with OoO backpressure on.
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np
import pytest

from benchmarks.seed_reference import seed_synthesize_counters
from repro.policies import make_policy
from repro.sim.config import NoiseConfig, table2_config
from repro.sim.server import ServerSimulator
from repro.workloads import get_workload

SIGMAS = (0.0, 0.01, 0.05)

#: (cores, controllers, controller skew); 4 cores have 2 channels, so
#: their multi-controller case splits them across 2 controllers.
TOPOLOGIES = ((4, 1, 0.0), (4, 2, 0.6), (16, 1, 0.0), (16, 4, 0.6), (64, 4, 0.6))


def _assert_identical(new, old, path: str = "counters") -> None:
    assert type(new) is type(old), f"{path}: {type(new)} vs {type(old)}"
    if dataclasses.is_dataclass(new):
        for field in dataclasses.fields(new):
            _assert_identical(
                getattr(new, field.name),
                getattr(old, field.name),
                f"{path}.{field.name}",
            )
    elif isinstance(new, tuple):
        assert len(new) == len(old), path
        for i, (a, b) in enumerate(zip(new, old)):
            _assert_identical(a, b, f"{path}[{i}]")
    elif isinstance(new, float):
        assert struct.pack("<d", new) == struct.pack("<d", old), (
            f"{path}: {new!r} vs {old!r}"
        )
    else:
        assert new == old, path


def _captured_run(n_cores, n_ctrl, skew, c_sig, p_sig, seed):
    """A simulator and the (epoch, op, settings) it synthesized from."""
    cfg = table2_config(
        n_cores, ooo=True, n_controllers=n_ctrl, controller_skew=skew
    ).with_updates(
        noise=NoiseConfig(counter_rel_sigma=c_sig, power_rel_sigma=p_sig)
    )
    sim = ServerSimulator(cfg, get_workload("MIX1"), seed=seed)
    captured = []
    synthesize = sim.synthesize_counters

    def capture(epoch_index, op, settings):
        captured.append((epoch_index, op, settings))
        return synthesize(epoch_index, op, settings)

    sim.synthesize_counters = capture
    sim.run(
        make_policy("fastcap"),
        0.6,
        instruction_quota=None,
        max_epochs=3,
        measure_decision_time=False,
    )
    del sim.synthesize_counters
    return sim, captured


@pytest.mark.parametrize("p_sig", SIGMAS)
@pytest.mark.parametrize("c_sig", SIGMAS)
@pytest.mark.parametrize("n_cores,n_ctrl,skew", TOPOLOGIES)
def test_matches_seed_bit_for_bit(n_cores, n_ctrl, skew, c_sig, p_sig):
    run_seed = 1 + (n_cores + n_ctrl) % 5
    sim, captured = _captured_run(n_cores, n_ctrl, skew, c_sig, p_sig, run_seed)
    assert len(captured) == 3
    # Later epochs run at FastCap's settings, not all-max.
    assert any(s != captured[0][2] for _, _, s in captured[1:])
    for noise_seed in (0, 7, 2**40 + 3):
        for epoch_index, op, settings in captured:
            sim._rng = np.random.default_rng(noise_seed)
            new = sim.synthesize_counters(epoch_index, op, settings)
            new_next = sim._rng.standard_normal()
            sim._rng = np.random.default_rng(noise_seed)
            old = seed_synthesize_counters(sim, epoch_index, op, settings)
            old_next = sim._rng.standard_normal()
            _assert_identical(new, old)
            assert new_next == old_next

