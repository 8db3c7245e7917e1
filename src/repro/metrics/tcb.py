"""Table III analog: per-mOS trusted computing base accounting.

The paper's table III counts the LoC of each mOS (CPU/GPU/NPU) against the
monolithic OS that would bundle *all* of them: a PaaS service in CRONUS
trusts only the mOS of the device it uses, so its TCB is a fraction of the
monolithic stack.  We regenerate the same table over this repository's
modules: what a CPU-only / GPU-only / NPU-only tenant must trust versus the
sum of everything a monolithic secure OS would contain.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Tuple

import repro

_SRC_ROOT = os.path.dirname(os.path.abspath(repro.__file__))

# Module groups per trust domain.  Shared infrastructure (monitor, SPM,
# crypto) is in every tenant's TCB; device stacks are per-mOS.
TCB_GROUPS: Dict[str, Tuple[str, ...]] = {
    "shared (monitor+SPM+crypto)": (
        "secure/monitor.py",
        "secure/spm.py",
        "secure/partition.py",
        "crypto",
        "rpc/ringbuffer.py",
        "rpc/channel.py",
        "rpc/codec.py",
        "mos/shim.py",
        "mos/manager.py",
        "mos/microos.py",
        "enclave",
    ),
    "cpu mOS (optee analog)": ("accel/cpu.py",),
    "gpu mOS (nouveau+gdev analog)": ("accel/gpu.py",),
    "npu mOS (vta fsim analog)": ("accel/npu.py",),
    "hal": ("mos/hal.py",),
}


def _python_files(path: str) -> Iterable[str]:
    if os.path.isfile(path):
        yield path
        return
    for root, _dirs, files in os.walk(path):
        for name in files:
            if name.endswith(".py"):
                yield os.path.join(root, name)


def loc_of_modules(relative_paths: Iterable[str]) -> int:
    """Count non-blank source lines of the given repro-relative paths."""
    total = 0
    for rel in relative_paths:
        path = os.path.join(_SRC_ROOT, rel)
        for file_path in _python_files(path):
            with open(file_path, "r", encoding="utf-8") as fh:
                total += sum(1 for line in fh if line.strip())
    return total


def tcb_report() -> Dict[str, int]:
    """LoC per trust group + per-tenant and monolithic TCB totals."""
    group_loc = {group: loc_of_modules(paths) for group, paths in TCB_GROUPS.items()}
    shared = group_loc["shared (monitor+SPM+crypto)"] + group_loc["hal"]
    report = dict(group_loc)
    for device in ("cpu", "gpu", "npu"):
        key = next(g for g in TCB_GROUPS if g.startswith(f"{device} "))
        report[f"tenant TCB ({device})"] = shared + group_loc[key]
    report["monolithic OS (all stacks)"] = shared + sum(
        loc for group, loc in group_loc.items()
        if group.split(" ")[0] in ("cpu", "gpu", "npu")
    )
    return report
