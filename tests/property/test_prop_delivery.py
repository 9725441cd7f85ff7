"""Property tests for the pluggable delivery disciplines.

Across random synth and faulted plans, under every discipline
(``twocase``, ``zerocopy``, ``damq``), the
:class:`~repro.faults.DeliveryInvariantChecker` stays clean:
conservation (no message lost or invented), no duplicate handling,
per-pair FIFO, and only legal buffered-mode transitions for the
discipline in force.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.synth import SynthApplication
from repro.experiments.config import SimulationConfig
from repro.faults.plan import FaultPlan
from repro.faults.runner import faulted_spec
from repro.machine.machine import Machine
from repro.ni.delivery import DELIVERY_KINDS
from repro.runner.registry import execute_spec

fault_plans = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=10_000),
    drop=st.floats(min_value=0.0, max_value=0.2),
    duplicate=st.floats(min_value=0.0, max_value=0.2),
    reorder=st.integers(min_value=0, max_value=300),
    spike=st.floats(min_value=0.0, max_value=0.2),
    spike_cycles=st.integers(min_value=100, max_value=2_000),
    stall=st.floats(min_value=0.0, max_value=0.2),
    stall_cycles=st.integers(min_value=50, max_value=600),
)


def _synth_machine(delivery, group_size, t_betw, seed):
    """A checker-enabled synth run under one delivery discipline.

    The ring/pool are sized small enough that random workloads actually
    hit the pressure paths (fallback, share refusal, eviction)."""
    config = SimulationConfig(
        num_nodes=3, seed=seed, delivery=delivery,
        zerocopy_ring_words=24, damq_capacity=3,
    )
    machine = Machine(config)
    app = SynthApplication(group_size=group_size, t_betw=t_betw,
                           total_messages_per_node=60, num_nodes=3,
                           seed=seed)
    job = machine.add_job(app)
    checker = machine.enable_invariant_checker()
    machine.start()
    machine.run_until_job_done(job, limit=2_000_000_000)
    return machine, job, checker


@pytest.mark.parametrize("delivery", DELIVERY_KINDS)
@given(group_size=st.integers(min_value=2, max_value=6),
       t_betw=st.integers(min_value=30, max_value=2_000),
       seed=st.integers(min_value=1, max_value=100))
@settings(max_examples=5, deadline=None)
def test_synth_invariants_clean(delivery, group_size, t_betw, seed):
    """Random synth runs keep every delivery invariant, per discipline."""
    _machine, _job, checker = _synth_machine(delivery, group_size,
                                             t_betw, seed)
    violations = checker.check()
    assert not violations, "\n".join(map(str, violations))


@pytest.mark.parametrize("delivery", DELIVERY_KINDS)
@given(plan=fault_plans, seed=st.integers(min_value=1, max_value=50))
@settings(max_examples=4, deadline=None)
def test_faulted_invariants_clean(delivery, plan, seed):
    """Faults (drops, duplicates, reorders, stalls) compose with every
    discipline: the reliable transport repairs them and the checker
    stays clean."""
    metrics, _extra = execute_spec(faulted_spec(
        num_nodes=3, messages=4, seed=seed, faults=plan.describe(),
        retries=True, delivery=delivery))
    assert metrics.invariant_violations == 0
