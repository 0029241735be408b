"""Host-side substrate: block layer and host system facade.

Mirrors the pieces of the paper's Host System the experiments depend on:

- the **block layer** splits large host requests into device-sized
  sub-requests (the paper modified ``btt`` precisely because "large size
  requests ... are divided to more than one request in the device block
  layer"), enforces the device queue depth, and, once a tracer is
  attached, emits blktrace-style events for every lifecycle step;
- the **host system** bundles kernel + PSU + device + block layer and is
  what the test platform drives.

Public surface: :class:`~repro.host.block_layer.BlockLayer`,
:class:`~repro.host.block_layer.BlockRequest`,
:class:`~repro.host.system.HostSystem`.
"""

from repro.host.block_layer import BlockLayer, BlockRequest, RequestState
from repro.host.system import HostSystem

__all__ = ["BlockLayer", "BlockRequest", "HostSystem", "RequestState"]
