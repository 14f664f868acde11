"""ServerSimulator: the epoch loop and its accounting."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.config import table2_config
from repro.sim.server import (
    FrequencySettings,
    MaxFrequencyPolicy,
    ServerSimulator,
)
from repro.workloads import get_workload


@pytest.fixture
def sim16(config16):
    return ServerSimulator(config16, get_workload("MID1"), seed=5)


class TestFrequencySettings:
    def test_all_max(self, config16):
        s = FrequencySettings.all_max(config16)
        assert len(s.core_frequencies_hz) == 16
        assert set(s.core_frequencies_hz) == {config16.core_dvfs.f_max_hz}
        assert s.bus_frequency_hz == config16.mem_dvfs.f_max_hz

    def test_all_min(self, config16):
        s = FrequencySettings.all_min(config16)
        assert set(s.core_frequencies_hz) == {config16.core_dvfs.f_min_hz}

    def test_quantized_snaps(self, config16):
        s = FrequencySettings(
            tuple([3.05e9] * 16), 520e6
        ).quantized(config16)
        for f in s.core_frequencies_hz:
            config16.core_dvfs.index_of(f)
        config16.mem_dvfs.index_of(s.bus_frequency_hz)


class TestOperatingPoint:
    def test_max_settings_reasonable_power(self, sim16, config16):
        op = sim16.solve_operating_point(
            FrequencySettings.all_max(config16), np.zeros(16)
        )
        assert 40.0 < op.total_power_w < 130.0
        assert op.memory_power_w > 0
        assert np.all(op.per_core_ips > 0)

    def test_lower_frequency_lowers_power(self, sim16, config16):
        hi = sim16.solve_operating_point(
            FrequencySettings.all_max(config16), np.zeros(16)
        )
        lo = sim16.solve_operating_point(
            FrequencySettings.all_min(config16), np.zeros(16)
        )
        assert lo.total_power_w < hi.total_power_w

    def test_lower_core_frequency_lowers_ips(self, sim16, config16):
        hi = sim16.solve_operating_point(
            FrequencySettings.all_max(config16), np.zeros(16)
        )
        lo = sim16.solve_operating_point(
            FrequencySettings.all_min(config16), np.zeros(16)
        )
        assert lo.per_core_ips.sum() < hi.per_core_ips.sum()

    def test_slow_memory_hurts_memory_bound_most(self, config16):
        mem_sim = ServerSimulator(config16, get_workload("MEM1"), seed=5)
        ilp_sim = ServerSimulator(config16, get_workload("ILP2"), seed=5)
        max_settings = FrequencySettings.all_max(config16)
        slow_mem = FrequencySettings(
            max_settings.core_frequencies_hz, config16.mem_dvfs.f_min_hz
        )
        mem_hit = (
            mem_sim.solve_operating_point(slow_mem, np.zeros(16)).per_core_ips.sum()
            / mem_sim.solve_operating_point(max_settings, np.zeros(16)).per_core_ips.sum()
        )
        ilp_hit = (
            ilp_sim.solve_operating_point(slow_mem, np.zeros(16)).per_core_ips.sum()
            / ilp_sim.solve_operating_point(max_settings, np.zeros(16)).per_core_ips.sum()
        )
        assert mem_hit < ilp_hit  # MEM loses a larger fraction

    def test_activity_bounded(self, sim16, config16):
        op = sim16.solve_operating_point(
            FrequencySettings.all_max(config16), np.zeros(16)
        )
        assert np.all(op.per_core_activity > 0)
        assert np.all(op.per_core_activity <= 1.0)


class TestRunLoop:
    def test_instruction_quota_termination(self, config16):
        sim = ServerSimulator(config16, get_workload("ILP1"), seed=5)
        res = sim.run(MaxFrequencyPolicy(), 1.0, instruction_quota=10e6)
        assert res.instructions.min() >= 10e6
        assert res.n_epochs >= 1

    def test_max_epochs_termination(self, config16):
        sim = ServerSimulator(config16, get_workload("ILP1"), seed=5)
        res = sim.run(
            MaxFrequencyPolicy(), 1.0, instruction_quota=None, max_epochs=4
        )
        assert res.n_epochs == 4

    def test_needs_some_termination(self, config16):
        sim = ServerSimulator(config16, get_workload("ILP1"), seed=5)
        with pytest.raises(ConfigurationError):
            sim.run(MaxFrequencyPolicy(), 1.0, instruction_quota=None)

    def test_epoch_records_well_formed(self, config16):
        sim = ServerSimulator(config16, get_workload("MID2"), seed=5)
        res = sim.run(
            MaxFrequencyPolicy(), 1.0, instruction_quota=None, max_epochs=3
        )
        for i, epoch in enumerate(res.epochs):
            assert epoch.index == i
            assert epoch.duration_s == config16.epoch.epoch_s
            assert epoch.total_power_w > 0
            assert epoch.cpu_power_w + epoch.memory_power_w < epoch.total_power_w
            assert len(epoch.core_frequencies_hz) == 16

    def test_same_seed_reproducible(self, config16):
        res_a = ServerSimulator(config16, get_workload("MIX1"), seed=9).run(
            MaxFrequencyPolicy(), 1.0, instruction_quota=None, max_epochs=3
        )
        res_b = ServerSimulator(config16, get_workload("MIX1"), seed=9).run(
            MaxFrequencyPolicy(), 1.0, instruction_quota=None, max_epochs=3
        )
        np.testing.assert_array_equal(res_a.instructions, res_b.instructions)
        assert res_a.mean_power_w() == res_b.mean_power_w()

    def test_run_result_power_series(self, config16):
        sim = ServerSimulator(config16, get_workload("MID1"), seed=5)
        res = sim.run(
            MaxFrequencyPolicy(), 1.0, instruction_quota=None, max_epochs=3
        )
        t, p = res.power_series()
        assert len(t) == len(p) == 3
        assert t[1] == pytest.approx(config16.epoch.epoch_s)

    def test_tpi_positive(self, config16):
        sim = ServerSimulator(config16, get_workload("MID1"), seed=5)
        res = sim.run(
            MaxFrequencyPolicy(), 1.0, instruction_quota=None, max_epochs=3
        )
        assert np.all(res.per_core_tpi_s() > 0)


class TestOperatingPointMemoCounter:
    def test_distinct_settings_do_not_hit(self, sim16, config16):
        sim16.solve_operating_point(
            FrequencySettings.all_max(config16), np.zeros(16)
        )
        sim16.solve_operating_point(
            FrequencySettings.all_min(config16), np.zeros(16)
        )
        stats = sim16.operating_point_stats
        assert stats["op_solves"] == 2
        assert stats["op_memo_hits"] == 0

    def test_run_result_surfaces_stats(self, config16):
        sim = ServerSimulator(config16, get_workload("MID1"), seed=5)
        res = sim.run(
            MaxFrequencyPolicy(), 1.0, instruction_quota=None, max_epochs=3
        )
        assert set(res.stats) == {
            "op_solves",
            "op_memo_hits",
            "op_memo_hit_rate",
        }
        assert res.stats["op_solves"] > 0
        assert 0.0 <= res.stats["op_memo_hit_rate"] <= 1.0

    def test_stats_do_not_reach_serialized_results(self, config16):
        from repro.sim.results_io import run_result_to_dict

        sim = ServerSimulator(config16, get_workload("MID1"), seed=5)
        res = sim.run(
            MaxFrequencyPolicy(), 1.0, instruction_quota=None, max_epochs=2
        )
        assert "stats" not in run_result_to_dict(res)


class TestConfigurationModes:
    def test_ooo_mode_runs(self):
        cfg = table2_config(16, ooo=True)
        sim = ServerSimulator(cfg, get_workload("MEM2"), seed=5)
        res = sim.run(
            MaxFrequencyPolicy(), 1.0, instruction_quota=None, max_epochs=3
        )
        assert res.n_epochs == 3

    def test_ooo_raises_memory_pressure(self, config16):
        cfg_ooo = table2_config(16, ooo=True)
        in_order = ServerSimulator(config16, get_workload("MEM2"), seed=5)
        ooo = ServerSimulator(cfg_ooo, get_workload("MEM2"), seed=5)
        settings = FrequencySettings.all_max(config16)
        op_in = in_order.solve_operating_point(settings, np.zeros(16))
        op_ooo = ooo.solve_operating_point(settings, np.zeros(16))
        assert (
            op_ooo.solution.bus_utilization.mean()
            > op_in.solution.bus_utilization.mean()
        )

    def test_multi_controller_mode_runs(self):
        cfg = table2_config(16, n_controllers=4, controller_skew=0.6)
        sim = ServerSimulator(cfg, get_workload("MEM1"), seed=5)
        res = sim.run(
            MaxFrequencyPolicy(), 1.0, instruction_quota=None, max_epochs=3
        )
        assert res.n_epochs == 3

    def test_skew_imbalances_controllers(self):
        cfg = table2_config(16, n_controllers=4, controller_skew=0.9)
        sim = ServerSimulator(cfg, get_workload("MEM1"), seed=5)
        op = sim.solve_operating_point(
            FrequencySettings.all_max(cfg), np.zeros(16)
        )
        rates = op.solution.controller_arrival_per_s
        # Identical apps land on different home controllers, but the
        # interleaved assignment still spreads load nearly evenly;
        # with skewed *routing* per core the per-controller response
        # times differ even when total rates balance.  Check skew is
        # applied at the visit level instead.
        visits = sim._visit_probs
        assert visits.max() > 0.9  # each core heavily favours its home
        assert rates.min() > 0

    def test_counters_have_one_entry_per_controller(self):
        cfg = table2_config(16, n_controllers=4)
        sim = ServerSimulator(cfg, get_workload("MID1"), seed=5)
        op = sim.solve_operating_point(
            FrequencySettings.all_max(cfg), np.zeros(16)
        )
        counters = sim.synthesize_counters(
            0, op, FrequencySettings.all_max(cfg)
        )
        assert len(counters.controllers) == 4
        assert len(counters.cores[0].controller_visits) == 4


class TestNoise:
    def test_zero_noise_counters_deterministic(self, config16):
        cfg = config16.with_updates(
            noise=config16.noise.__class__(
                counter_rel_sigma=0.0, power_rel_sigma=0.0
            )
        )
        sim = ServerSimulator(cfg, get_workload("MID1"), seed=5)
        op = sim.solve_operating_point(
            FrequencySettings.all_max(cfg), np.zeros(16)
        )
        c1 = sim.synthesize_counters(0, op, FrequencySettings.all_max(cfg))
        c2 = sim.synthesize_counters(0, op, FrequencySettings.all_max(cfg))
        assert c1.cores[0].instructions == c2.cores[0].instructions
        assert c1.total_power_w == c2.total_power_w

    def test_noise_perturbs_counters(self, config16):
        sim = ServerSimulator(config16, get_workload("MID1"), seed=5)
        op = sim.solve_operating_point(
            FrequencySettings.all_max(config16), np.zeros(16)
        )
        c1 = sim.synthesize_counters(0, op, FrequencySettings.all_max(config16))
        c2 = sim.synthesize_counters(0, op, FrequencySettings.all_max(config16))
        assert c1.cores[0].instructions != c2.cores[0].instructions
