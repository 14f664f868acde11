"""Relaxed-parity gate for the compiled MVA fixed-point kernels.

The exact tier is protected byte-for-byte by
:mod:`tests.test_golden_parity`; this module is the second tier of the
contract: a ``parity="relaxed"`` run must agree with its exact twin at
run level — power and throughput trajectories within 1e-8 relative,
and *identical* per-epoch frequency decisions — across the same golden
grid, whichever backend the process resolves.

When the C kernel cannot be built the relaxed tier delegates to the
exact path, so the gate degenerates to a bit-identity check — still a
meaningful property: the fallback must be indistinguishable from the
exact tier.
"""

import numpy as np
import pytest

from repro.campaign import Campaign, CampaignRunner
from repro.queueing.kernels import cext, warmup

from tests.golden_grid import golden_specs

#: Run-level agreement bound of the relaxed tier (ISSUE 8 contract).
RTOL = 1e-8


def _assert_run_parity(exact, relaxed, label: str) -> None:
    """Run-level agreement: trajectories within RTOL, decisions equal."""
    assert len(exact.epochs) == len(relaxed.epochs), label
    np.testing.assert_allclose(
        relaxed.instructions, exact.instructions, rtol=RTOL, err_msg=label
    )
    np.testing.assert_allclose(
        relaxed.elapsed_s, exact.elapsed_s, rtol=RTOL, err_msg=label
    )
    for e, r in zip(exact.epochs, relaxed.epochs):
        where = f"{label} epoch {e.index}"
        # Settings decisions are discrete ladder levels: the relaxed
        # tier must make exactly the decisions the exact tier makes.
        assert r.core_frequencies_hz == e.core_frequencies_hz, where
        assert r.bus_frequency_hz == e.bus_frequency_hz, where
        for field in ("total_power_w", "cpu_power_w", "memory_power_w"):
            np.testing.assert_allclose(
                getattr(r, field),
                getattr(e, field),
                rtol=RTOL,
                err_msg=f"{where} {field}",
            )
        np.testing.assert_allclose(
            np.asarray(r.per_core_ips),
            np.asarray(e.per_core_ips),
            rtol=RTOL,
            err_msg=f"{where} per_core_ips",
        )
        np.testing.assert_allclose(
            r.duration_s, e.duration_s, rtol=RTOL, err_msg=where
        )


class TestRelaxedGrid:
    def test_process_resolves_a_kernel(self):
        kernel = warmup()
        assert kernel.name in ("cc", "numpy")
        assert kernel.compiled == (cext.load() is not None)

    def test_golden_grid_run_level_agreement(self):
        """Every golden-grid spec, exact vs relaxed, scalar execution."""
        from repro.campaign.runner import execute_spec

        mismatched = []
        for spec in golden_specs():
            exact = execute_spec(spec)
            relaxed = execute_spec(spec.replace(parity="relaxed"))
            try:
                _assert_run_parity(exact, relaxed, spec.to_json())
            except AssertionError as err:
                mismatched.append(
                    f"{spec.policy}/{spec.workload}/{spec.budget_fraction}: "
                    f"{err}"
                )
        assert not mismatched, (
            f"{len(mismatched)} specs left the relaxed envelope: "
            + "; ".join(mismatched[:3])
        )

    def test_fleet_campaign_relaxed_agreement(self):
        """The fleet lane: a relaxed-tier ``run_campaign(batch="fleet")``
        (batched kernel solves) against per-spec exact execution."""
        from repro.campaign.runner import execute_spec

        specs = golden_specs()
        runner = CampaignRunner(batch="fleet", parity="relaxed")
        results = runner.run_campaign(Campaign("relaxed-fleet", specs))
        assert runner.fleet_runs > 0, "fleet lane executed no fleets"
        for spec in specs:
            exact = execute_spec(spec)
            _assert_run_parity(exact, results[spec], spec.to_json())

    def test_memoized_relaxed_runs_stay_in_envelope(self):
        """The memo lane of the relaxed tier: ``parity="relaxed"`` +
        ``memo="op"`` must agree with the exact tier at run level over
        a grid subset — memoization may not widen the envelope."""
        from repro.campaign.runner import execute_spec

        for spec in golden_specs()[::5]:
            exact = execute_spec(spec)
            relaxed = execute_spec(
                spec.replace(parity="relaxed", memo="op")
            )
            _assert_run_parity(exact, relaxed, spec.to_json())

    def test_runner_parity_override_rewrites_specs(self):
        runner = CampaignRunner(parity="relaxed")
        spec = golden_specs()[0]
        assert runner.scaled(spec).parity == "relaxed"
        exact_runner = CampaignRunner()
        assert exact_runner.scaled(spec).parity == "exact"
