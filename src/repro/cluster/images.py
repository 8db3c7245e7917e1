"""Replicated enclave images.

A CRONUS enclave only boots from a measured image the platform's
attestation covers (section IV-A), so a cluster node can run a workload
only if it *holds* that workload's enclave image.  This registry is the
cluster's authoritative map of image id -> nodes able to boot it; the
router intersects it with liveness to get the candidate set for every
request, and a node death simply drops the node from every replica set
(surviving replicas keep the image servable).

Image ids are plain strings by convention:

* ``kernel:<kind>`` — a serving-request kind (e.g. ``kernel:matmul``),
* ``fn:<name>``     — a gateway function (e.g. ``fn:llm.generate``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set


class ImageError(Exception):
    """Unknown image, or a replica set that would become empty."""


class ImageRegistry:
    """image id -> the set of node names that can boot it."""

    def __init__(self) -> None:
        self._replicas: Dict[str, Set[str]] = {}
        self.version = 0
        """Bumped by every :meth:`register` and :meth:`drop_node`: a view
        derived from the replica sets is current only while this holds."""

    def register(self, image_id: str, nodes: Iterable[str]) -> None:
        """(Re)place an image on exactly ``nodes``."""
        node_set = set(nodes)
        if not node_set:
            raise ImageError(f"image {image_id!r} needs at least one replica")
        self._replicas[image_id] = node_set
        self.version += 1

    def drop_node(self, node: str) -> None:
        """A node died: remove it from every replica set.  Sets may drain
        to empty — the image becomes unroutable, which the router surfaces
        as an explicit rejection rather than an error here."""
        for replicas in self._replicas.values():
            replicas.discard(node)
        self.version += 1

    def holds(self, image_id: str, node: str) -> bool:
        return node in self._replicas.get(image_id, ())

    def nodes_for(self, image_id: str) -> List[str]:
        """Replica node names, sorted (deterministic candidate order)."""
        return sorted(self._replicas.get(image_id, ()))

    def images(self) -> List[str]:
        return sorted(self._replicas)

    def images_on(self, node: str) -> List[str]:
        return sorted(
            image for image, replicas in self._replicas.items() if node in replicas
        )
