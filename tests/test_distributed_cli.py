"""Data-parallel training module and the CLI."""

from pathlib import Path

import numpy as np
import pytest

from repro.sim.costs import CostModel
from repro.systems import CronusSystem, TestbedConfig
from repro.workloads.distributed import (
    MODES,
    comm_time_us,
    data_parallel_train,
)

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


def _rstripped(text: str):
    return [line.rstrip() for line in text.strip().splitlines()]


class TestCommModel:
    def test_single_gpu_no_comm(self):
        assert comm_time_us(CostModel(), 1 << 20, 1, "p2p") == 0.0

    def test_mode_ordering_for_any_volume(self):
        costs = CostModel()
        for volume in (1 << 10, 1 << 20, 1 << 24):
            p2p = comm_time_us(costs, volume, 4, "p2p")
            staged = comm_time_us(costs, volume, 4, "secure-staging")
            encrypted = comm_time_us(costs, volume, 4, "encrypted")
            assert p2p < staged < encrypted

    def test_ring_allreduce_volume_grows_with_k(self):
        costs = CostModel()
        assert comm_time_us(costs, 1 << 20, 2, "p2p") < comm_time_us(costs, 1 << 20, 8, "p2p")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown all-reduce mode"):
            comm_time_us(CostModel(), 1024, 2, "carrier-pigeon")


class TestDataParallelTraining:
    def test_replicas_stay_in_sync(self):
        """After all-reduce + SGD every replica holds identical weights."""
        system = CronusSystem(TestbedConfig(num_gpus=2))
        result = data_parallel_train(system, 2, "p2p", total_samples=64)
        assert np.isfinite(result.final_loss)

    def test_more_gpus_less_time(self):
        times = {}
        for gpus in (1, 2):
            system = CronusSystem(TestbedConfig(num_gpus=gpus))
            times[gpus] = data_parallel_train(system, gpus, "p2p").total_time_us
        assert times[2] < times[1]

    def test_comm_share_grows_with_gpus(self):
        shares = {}
        for gpus in (2, 4):
            system = CronusSystem(TestbedConfig(num_gpus=gpus))
            result = data_parallel_train(system, gpus, "encrypted")
            shares[gpus] = result.comm_time_us / result.step_time_us
        assert shares[4] > shares[2]

    def test_convergence_independent_of_mode(self):
        losses = set()
        for mode in MODES:
            system = CronusSystem(TestbedConfig(num_gpus=2))
            result = data_parallel_train(system, 2, mode, total_samples=64)
            losses.add(round(result.final_loss, 8))
        assert len(losses) == 1

    def test_bad_mode_rejected(self):
        system = CronusSystem(TestbedConfig(num_gpus=2))
        with pytest.raises(ValueError, match="unknown mode"):
            data_parallel_train(system, 2, "smoke-signals")


class TestCli:
    def test_rodinia_command(self, capsys):
        from repro.__main__ import main

        assert main(["rodinia", "nn"]) == 0
        out = capsys.readouterr().out
        assert "nn" in out and "cronus" in out

    def test_attest_command(self, capsys):
        from repro.__main__ import main

        assert main(["attest"]) == 0
        assert "attestation verified" in capsys.readouterr().out

    def test_tcb_command(self, capsys):
        from repro.__main__ import main

        assert main(["tcb"]) == 0
        out = capsys.readouterr().out
        assert "monolithic" in out
        # The committed table III must be the one the code produces today.
        committed = RESULTS / "table3_tcb.txt"
        assert _rstripped(committed.read_text()) == _rstripped(out)

    def test_attacks_command(self, capsys):
        from repro.__main__ import main

        assert main(["attacks"]) == 0
        out = capsys.readouterr().out
        assert "BREACH" not in out
        assert "blocked" in out

    def test_unknown_command_rejected(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["frobnicate"])
