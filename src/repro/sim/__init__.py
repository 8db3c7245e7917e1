"""Simulation kernel: virtual time, cost model, and asynchronous timelines.

Every CRONUS component charges virtual time to a shared :class:`SimClock`
through a :class:`CostModel`.  Asynchronous progress (a GPU stream, an sRPC
consumer thread) is modelled by :class:`Timeline` objects that advance
independently of the caller and are joined at synchronization points, the
same way CUDA streams join at ``cudaMemcpy``/``cudaStreamSynchronize``.
The serving engines' shared event loop lives in :mod:`repro.sim.events`.
"""

from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.timeline import Timeline

__all__ = ["SimClock", "CostModel", "Timeline"]
