"""The adversary harness.

Every in-scope attack from the paper's threat model (section III-B) and the
failover analysis (section IV-D) exists here as an executable scenario
against a live :class:`~repro.systems.cronus.CronusSystem`.  Each scenario
*attempts* the attack through the same code paths a malicious normal OS or
mEnclave would use and reports whether the defense held; the test suite and
the Table-I benchmark assert on these outcomes.
"""

from repro.attacks.adversaries import (
    DropAdversary,
    ReorderAdversary,
    ReplayAdversary,
    TamperAdversary,
)
from repro.attacks.scenarios import (
    AttackOutcome,
    attempt_bad_device_tree,
    attempt_code_carrying_record,
    attempt_crashed_info_leak,
    attempt_deadlock_after_crash,
    attempt_drop,
    attempt_fabricated_accelerator,
    attempt_mos_substitution,
    attempt_non_owner_ecall,
    attempt_normal_world_secure_read,
    attempt_reorder,
    attempt_replay,
    attempt_secure_device_access,
    attempt_srpc_eavesdrop,
    attempt_tamper,
    attempt_toctou_after_crash,
    attempt_tzasc_reconfig,
    attempt_wrong_partition_dispatch,
    run_all_attacks,
)

__all__ = [
    "DropAdversary",
    "ReorderAdversary",
    "ReplayAdversary",
    "TamperAdversary",
    "AttackOutcome",
    "attempt_bad_device_tree",
    "attempt_code_carrying_record",
    "attempt_crashed_info_leak",
    "attempt_deadlock_after_crash",
    "attempt_drop",
    "attempt_fabricated_accelerator",
    "attempt_mos_substitution",
    "attempt_non_owner_ecall",
    "attempt_normal_world_secure_read",
    "attempt_reorder",
    "attempt_replay",
    "attempt_secure_device_access",
    "attempt_srpc_eavesdrop",
    "attempt_tamper",
    "attempt_toctou_after_crash",
    "attempt_tzasc_reconfig",
    "attempt_wrong_partition_dispatch",
    "run_all_attacks",
]
