"""Sharded read-only graph images for the multi-process execution backend.

The parallel kernels historically ran on the :class:`ClusterSimulator` —
one process doing all the work, charging virtual clocks.  Real
multi-process execution (``execution="processes"``) needs the opposite
data layout: every worker process must be able to *read* the part of the
graph its work units expand into, without sharing mutable state with the
parent.  :class:`ShardedStore` provides that layout:

* the graph is partitioned by a :class:`~repro.graph.partition.Fragmentation`
  (BFS edge-cut by default — the METIS stand-in, so neighbourhoods tend to
  stay fragment-local);
* each fragment becomes one *shard image*: the subgraph induced by the
  fragment's owned nodes **plus a halo** of every node within
  ``halo_hops`` of them.  With ``halo_hops ≥ dΣ`` (the rule set's maximum
  pattern diameter) any *connected*-pattern search seeded at an owned node
  finds exactly the matches it would find in the full graph: a complete
  match maps pattern paths onto data walks, so every matched node lies
  within dΣ undirected hops of the seed, and the induced halo contains all
  of those nodes and every edge between them;
* shard images are built on the frozen engine
  (:class:`~repro.graph.store.FrozenStore`) before any worker starts.  A
  frozen image is sealed by its one build, so under the ``fork`` start
  method the child processes share the parent's image copy-on-write
  (fork-safe), and under ``spawn`` each image is serialized exactly once
  (:meth:`ShardedStore.spool`, the :mod:`repro.graph.io` JSON conventions,
  which do not depend on the engine) and memo-loaded onto the frozen engine
  at most once per worker process (:func:`load_spooled`).  An image links
  its adjacency on its first read, in the process that reads it: spooling
  never does.

The sharding contract — what a worker may assume
------------------------------------------------

1. Shard images are *read-only*.  Workers must never mutate them (the
   frozen engine enforces this by raising on every mutator).
2. A work unit seeded at node ``v`` may be expanded against
   ``shard(owner(v))`` iff every rule pattern is connected and has
   diameter ≤ ``halo_hops`` (checked by :func:`supports_localized_matching`
   + the build-time ``halo_hops`` choice).  Disconnected patterns scan the
   global label index, which a shard truncates — callers must fall back
   to a single full image for those (``ShardedStore.single``).
3. Cost counters measured inside a shard may differ from the full-graph
   run (border nodes have truncated adjacency), but the *violations* are
   identical — parity is over results, not over work accounting.
4. Spooled images round-trip node ids through JSON (``default=str``, the
   :mod:`repro.graph.io` convention); graphs with non-JSON node ids must
   use the fork/inherit path.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Hashable, Iterable
from pathlib import Path
from typing import Optional, Union

from repro.errors import PartitionError
from repro.graph.graph import Graph
from repro.graph.io import load_graph, save_graph
from repro.graph.neighborhood import multi_source_nodes_within_hops
from repro.graph.partition import Fragmentation, bfs_edge_cut, hash_edge_cut

__all__ = [
    "ShardedStore",
    "supports_localized_matching",
    "spool_graph",
    "load_spooled",
    "clear_spool_cache",
]

#: Storage engine of shard images (sealed, immutable, fork-safe).
SHARD_BACKEND = "frozen"

#: Per-process memo of spooled images: resolved path -> Graph.
#: Worker processes consult this before touching the disk, so each image is
#: deserialized at most once per process no matter how many work units land
#: there.  Spool directories are one-shot (a fresh tempdir per run), so the
#: cache needs no invalidation.
_SPOOL_CACHE: dict[str, Graph] = {}


def supports_localized_matching(rules: Iterable) -> bool:
    """Return True when every rule pattern is connected.

    Connected patterns expand through adjacency only (after the seed), so
    a halo image serves them exactly.  A disconnected pattern needs a
    label-index scan for the far component, which only the full graph can
    answer — shard-local and neighbourhood-local search would silently
    miss matches.
    """
    for rule in rules:
        pattern = rule.pattern
        variables = pattern.variables
        if not variables:
            continue
        seen = {variables[0]}
        frontier = [variables[0]]
        while frontier:
            variable = frontier.pop()
            for neighbour in pattern.neighbours(variable):
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        if len(seen) != len(variables):
            return False
    return True


def spool_graph(graph: Graph, path: Union[str, Path]) -> str:
    """Serialize one read-only image to ``path`` (the graph/io JSON format)."""
    save_graph(graph, path)
    return str(path)


def load_spooled(path: Union[str, Path]) -> Graph:
    """Load a spooled image onto the frozen engine, memoized per process (see ``_SPOOL_CACHE``)."""
    key = str(Path(path).resolve())
    cached = _SPOOL_CACHE.get(key)
    if cached is None:
        cached = load_graph(path, store=SHARD_BACKEND)
        _SPOOL_CACHE[key] = cached
    return cached


def clear_spool_cache() -> None:
    """Drop every memoized image (tests re-spooling to the same paths)."""
    _SPOOL_CACHE.clear()


class ShardedStore:
    """A graph partitioned into per-fragment read-only images.

    Build one in the parent process with :meth:`build`; route a work unit
    seeded at node ``v`` with :meth:`owner`; read the image with
    :meth:`shard`.  For ``spawn``-style workers, :meth:`spool` writes every
    image plus a manifest once, and :meth:`load` reopens the store lazily
    (images deserialize on first :meth:`shard` call, memoized per process).
    """

    def __init__(
        self,
        shard_paths: list[Optional[str]],
        halo_hops: int,
        strategy: str,
        images: Optional[list[Optional[Graph]]] = None,
        owners: Optional[dict[Hashable, int]] = None,
        manifest_path: Optional[str] = None,
    ) -> None:
        self._paths = list(shard_paths)
        self.halo_hops = halo_hops
        self.strategy = strategy
        self._images: list[Optional[Graph]] = (
            list(images) if images is not None else [None] * len(shard_paths)
        )
        self._owners = owners
        self.manifest_path = manifest_path

    # ------------------------------------------------------------------ build

    @classmethod
    def build(
        cls,
        graph: Graph,
        num_shards: int,
        halo_hops: int,
        strategy: str = "bfs",
    ) -> "ShardedStore":
        """Partition ``graph`` into ``num_shards`` frozen halo images.

        ``halo_hops`` must be at least the maximum pattern diameter of the
        rules that will run against the shards (``RuleSet.diameter()``);
        the executor passes exactly that.
        """
        if num_shards < 1:
            raise PartitionError("a sharded store needs at least one shard")
        if num_shards == 1:
            return cls.single(graph)
        fragmentation = cls._fragment(graph, num_shards, strategy)
        images: list[Optional[Graph]] = []
        for fragment in fragmentation.fragments:
            if fragment.nodes:
                halo = multi_source_nodes_within_hops(graph, fragment.nodes, halo_hops)
                image = graph.induced_subgraph(
                    halo | set(fragment.nodes), name=f"{graph.name}[shard{fragment.index}]"
                )
            else:
                image = Graph(f"{graph.name}[shard{fragment.index}]", store=graph.store.fresh())
            if image.store_backend != SHARD_BACKEND:
                image = image.with_backend(SHARD_BACKEND)
            images.append(image)
        owners = {
            node: fragment.index
            for fragment in fragmentation.fragments
            for node in fragment.nodes
        }
        return cls(
            shard_paths=[None] * num_shards,
            halo_hops=halo_hops,
            strategy=fragmentation.strategy,
            images=images,
            owners=owners,
        )

    @classmethod
    def single(cls, graph: Graph) -> "ShardedStore":
        """Wrap the whole graph as one shard (the full-image fallback).

        Used when the rule set has disconnected patterns (shard-local
        search would be incomplete) and by incremental runs whose search
        space is already a replicated neighbourhood.  The image stays on its
        current engine (the fork path shares it copy-on-write as-is); a
        spooled single-image store is loaded on the read-only
        :data:`SHARD_BACKEND` by the workers.
        """
        return cls(
            shard_paths=[None],
            halo_hops=0,
            strategy="single",
            images=[graph],
            owners=None,
        )

    @staticmethod
    def _fragment(graph: Graph, num_shards: int, strategy: str) -> Fragmentation:
        if strategy == "bfs":
            return bfs_edge_cut(graph, num_shards)
        if strategy == "hash":
            return hash_edge_cut(graph, num_shards)
        raise PartitionError(f"unknown sharding strategy {strategy!r}; expected 'bfs' or 'hash'")

    # ----------------------------------------------------------------- access

    @property
    def num_shards(self) -> int:
        """Return the number of shard images."""
        return len(self._paths)

    def owner(self, node_id: Hashable) -> int:
        """Return the shard index owning ``node_id`` (0 for a single shard)."""
        if self._owners is None:
            return 0
        try:
            return self._owners[node_id]
        except KeyError:
            raise PartitionError(f"node {node_id!r} is not assigned to any shard") from None

    def shard(self, index: int) -> Graph:
        """Return shard ``index``'s image, loading (memoized) if spooled."""
        image = self._images[index]
        if image is None:
            path = self._paths[index]
            if path is None:
                raise PartitionError(f"shard {index} has neither an image nor a spool path")
            image = load_spooled(path)
            self._images[index] = image
        return image

    # ------------------------------------------------------------------ spool

    def spool(self, directory: Optional[Union[str, Path]] = None) -> str:
        """Serialize every image once; return the manifest path.

        Idempotent: a store that has already been spooled returns its
        existing manifest (the shard files and the manifest must share a
        directory — basenames are resolved relative to the manifest).
        The manifest records the shard file names, halo radius and
        strategy, so a worker process can :meth:`load` the store from the
        path alone.
        """
        if self.manifest_path is not None:
            return self.manifest_path
        if directory is None:
            directory = tempfile.mkdtemp(prefix="repro-shards-")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        adopted = self._adopt_manifest(directory)
        if adopted is not None:
            return adopted
        for index in range(self.num_shards):
            if self._paths[index] is None:
                path = directory / f"shard{index}.json"
                spool_graph(self.shard(index), path)
                self._paths[index] = str(path)
        manifest = {
            "format": "repro-sharded-store",
            "halo_hops": self.halo_hops,
            "strategy": self.strategy,
            "shards": [os.path.basename(path) for path in self._paths],
        }
        manifest_path = directory / "manifest.json"
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
        self.manifest_path = str(manifest_path)
        return self.manifest_path

    def _adopt_manifest(self, directory: Path) -> Optional[str]:
        """Reuse a manifest already spooled into ``directory``, if compatible.

        The durable segment cache hands the executor the same directory for
        the same runtime key across warm-pool reloads; when a previous load
        already serialized this store's images there, re-serializing them
        would only burn I/O.  Adoption requires an exact parameter match
        (shard count, halo radius, strategy) and every shard file on disk —
        anything else falls through to a fresh spool, which overwrites the
        stale manifest.  The images are :mod:`repro.graph.io` JSON, which
        does not depend on the engine, so the ``"backend"`` entry an older
        manifest carries is ignored.
        """
        manifest_path = directory / "manifest.json"
        if not manifest_path.is_file():
            return None
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if (
            not isinstance(manifest, dict)
            or manifest.get("format") != "repro-sharded-store"
            or manifest.get("halo_hops") != self.halo_hops
            or manifest.get("strategy") != self.strategy
        ):
            return None
        names = manifest.get("shards")
        if not isinstance(names, list) or len(names) != self.num_shards:
            return None
        paths = [str(directory / name) for name in names]
        if not all(os.path.isfile(path) for path in paths):
            return None
        self._paths = paths
        self.manifest_path = str(manifest_path)
        return self.manifest_path

    @classmethod
    def load(cls, manifest_path: Union[str, Path]) -> "ShardedStore":
        """Reopen a spooled store lazily (images load on the frozen engine on first access)."""
        manifest_path = Path(manifest_path)
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("format") != "repro-sharded-store":
            raise PartitionError(f"{manifest_path} is not a sharded-store manifest")
        directory = manifest_path.parent
        return cls(
            shard_paths=[str(directory / name) for name in manifest["shards"]],
            halo_hops=manifest["halo_hops"],
            strategy=manifest["strategy"],
            manifest_path=str(manifest_path),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ShardedStore(shards={self.num_shards}, halo={self.halo_hops}, "
            f"strategy={self.strategy!r})"
        )
