"""Simulated autoregressive transformer serving workload.

The LLM scenario the ROADMAP names (SHARP's ``fns/ollama`` brought into
the TEE): sequences arrive with a prompt, are **prefilled** once (one
full forward pass over the prompt), then **decode** one token per
iteration until they hit their token budget.  Three pieces live here:

* :class:`LLMConfig` — the model geometry (layers, width, KV dtype) and
  the paging geometry derived from it (KV bytes per token, tokens per
  block, stage-2 pages per block).
* :class:`LLMCostModel` — per-phase virtual-time costs calibrated
  against the same :class:`~repro.sim.costs.CostModel` constants the GPU
  kernel timing model uses (``gpu_flops_per_us``,
  ``gpu_kernel_launch_us``, ``pcie_dma_us_per_kib``), so a decode
  iteration and a ``cudaLaunchKernel`` matmul price compute identically.
* :class:`PagedKVCache` — the KV cache as **paged blocks of partition
  memory**: each block is a contiguous run of stage-2 pages allocated
  from the SPM (:meth:`~repro.secure.spm.SPM.allocate_pages`), written
  through :meth:`Partition.write <repro.secure.partition.Partition.write>`
  so every token append resolves through the stage-2 table and its TLB
  (the PR-1 fast lane).  Crash semantics follow the paper: a partition
  failure scrubs the pages (proceed-trap clear step) and reclaims them,
  so the cache's generation check forces the serving layer to re-prefill
  the victims — and the zero-check on freshly allocated blocks turns any
  scrub gap into a detected cross-sequence leak instead of silent reuse.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.hw.memory import PAGE_SIZE, ZERO_PAGE
from repro.secure.partition import Partition
from repro.secure.spm import SPM
from repro.sim.costs import CostModel

#: Bytes of each token's deterministic KV stamp (see ``token_stamp``).
STAMP_BYTES = 16


@dataclass(frozen=True)
class LLMConfig:
    """Model + paging geometry of the simulated transformer.

    The defaults describe a small decoder (4 layers x 128 wide, fp16 KV)
    so simulated-time magnitudes stay comparable to the existing matmul
    serving workload; the knobs scale the cost model and the KV footprint
    together.
    """

    n_layers: int = 4
    d_model: int = 128
    kv_dtype_bytes: int = 2
    block_tokens: int = 16
    """Tokens per KV block (the paged-attention page size, in tokens)."""

    def __post_init__(self) -> None:
        if self.n_layers < 1 or self.d_model < 1:
            raise ValueError("n_layers and d_model must be positive")
        if self.kv_dtype_bytes < 1:
            raise ValueError("kv_dtype_bytes must be positive")
        if self.block_tokens < 1:
            raise ValueError("block_tokens must be positive")

    @property
    def kv_bytes_per_token(self) -> int:
        """K and V rows across every layer for one token."""
        return 2 * self.n_layers * self.d_model * self.kv_dtype_bytes

    @property
    def block_bytes(self) -> int:
        return self.block_tokens * self.kv_bytes_per_token

    @property
    def pages_per_block(self) -> int:
        """Stage-2 pages backing one KV block (ceil)."""
        return -(-self.block_bytes // PAGE_SIZE)

    def blocks_for(self, tokens: int) -> int:
        """KV blocks needed to hold ``tokens`` tokens."""
        return -(-tokens // self.block_tokens) if tokens > 0 else 0

    def kv_footprint_bytes(self, tokens: int) -> int:
        """Page-granular KV footprint of a ``tokens``-token context — the
        number the admission quota charges (whole pages, like the SPM)."""
        return self.blocks_for(tokens) * self.pages_per_block * PAGE_SIZE


class LLMCostModel:
    """Virtual-time costs of the prefill/decode phases.

    Flop counts use the standard decoder estimate: ~24·L·d² flops of
    weight matmuls per token position plus 4·L·d·ctx of attention against
    the cached context.  Prefill runs all prompt positions in one fused
    pass (one kernel launch per layer); a decode iteration runs one
    position for *every* running sequence behind the same per-layer
    launches — which is exactly why continuous batching wins: the fixed
    ``n_layers x gpu_kernel_launch_us`` iteration overhead amortizes over
    however many sequences are resident.
    """

    def __init__(self, costs: CostModel, config: LLMConfig) -> None:
        self.costs = costs
        self.config = config

    def _flops_at(self, context_len: int) -> float:
        cfg = self.config
        weight = 24.0 * cfg.n_layers * cfg.d_model * cfg.d_model
        attention = 4.0 * cfg.n_layers * cfg.d_model * float(context_len)
        return weight + attention

    def prefill_us(self, prompt_tokens: int) -> float:
        """One fused forward pass over the whole prompt."""
        cfg = self.config
        costs = self.costs
        flops = sum(self._flops_at(i) for i in range(prompt_tokens))
        launch = cfg.n_layers * costs.gpu_kernel_launch_us
        # Prompt embeddings DMA over PCIe into device memory.
        dma = costs.copy_cost_us(
            prompt_tokens * cfg.d_model * cfg.kv_dtype_bytes,
            per_kib=costs.pcie_dma_us_per_kib,
        )
        return launch + dma + flops / costs.gpu_flops_per_us

    def decode_step_us(self, context_lens: Sequence[int]) -> float:
        """One decode iteration over a batch of resident sequences.

        ``context_lens`` holds each running sequence's current context
        length; every sequence advances by one token.  Empty batch = 0.
        """
        if not context_lens:
            return 0.0
        cfg = self.config
        costs = self.costs
        flops = sum(self._flops_at(ctx) for ctx in context_lens)
        launch = cfg.n_layers * costs.gpu_kernel_launch_us
        # Each emitted token's KV rows land in cache memory.
        kv = costs.copy_cost_us(
            len(context_lens) * cfg.kv_bytes_per_token,
            per_kib=costs.dram_copy_us_per_kib,
        )
        return launch + kv + flops / costs.gpu_flops_per_us


def token_stamp(rid: str, index: int) -> bytes:
    """The deterministic non-zero stamp written for token ``index`` of
    sequence ``rid`` — what the KV cache stores in lieu of real K/V rows.
    Non-zero by construction, so a scrubbed (zeroed) page can never pass
    for live KV data."""
    digest = hashlib.sha256(f"{rid}:{index}".encode()).digest()[:STAMP_BYTES]
    return digest if any(digest) else b"\x01" * STAMP_BYTES


class KVCacheError(Exception):
    """Misuse of the paged KV cache (unknown sequence, stale generation)."""


class PagedKVCache:
    """A paged KV cache carved out of one partition's stage-2 pages.

    Each sequence owns a block table: an ordered list of blocks, each a
    contiguous run of ``config.pages_per_block`` secure pages allocated
    from the SPM and identity-mapped into the partition's stage-2 table.
    Token appends write their stamp through the partition's single-page
    fast lane, so the cache exercises the same TLB the sRPC rings do.

    **Leak detection:** every freshly allocated block is scanned before
    first use; any non-zero byte means the allocator handed us a page
    that was recycled *without* being scrubbed — a cross-sequence KV leak
    (``leaked_blocks`` counts them, and they should always be zero: both
    ``free_pages`` and crash recovery zero pages before recycling).

    **Crash semantics:** when the partition dies, recovery scrubs and
    reclaims every page this cache held.  The cache detects the new
    partition generation via ``restarts`` and refuses stale block tables
    (:meth:`ensure_generation` drops them), forcing re-prefill.
    """

    def __init__(self, spm: SPM, partition: Partition, config: LLMConfig) -> None:
        self._spm = spm
        self._partition = partition
        self.config = config
        # The geometry ``append_token`` needs on every call, resolved once
        # (``LLMConfig``'s derived sizes are properties).
        self._block_tokens = config.block_tokens
        self._token_bytes = config.kv_bytes_per_token
        self._blocks: Dict[str, List[Tuple[int, ...]]] = {}
        self._tokens: Dict[str, int] = {}
        self._generation = partition.restarts
        self.blocks_allocated = 0
        self.blocks_released = 0
        self.tokens_written = 0
        self.leaked_blocks = 0

    @property
    def partition(self) -> Partition:
        return self._partition

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def stale(self) -> bool:
        """Did the partition restart since the block tables were built?"""
        return self._partition.restarts != self._generation

    def ensure_generation(self) -> bool:
        """Drop every block table if the partition restarted underneath us.

        Returns True when tables were dropped (recovery already scrubbed
        and reclaimed the pages — the sequences must re-prefill); callers
        never ``release`` stale tables, the pages are no longer theirs.
        """
        if not self.stale:
            return False
        self._blocks.clear()
        self._tokens.clear()
        self._generation = self._partition.restarts
        return True

    def sequences(self) -> List[str]:
        return list(self._blocks)

    def tokens_of(self, rid: str) -> int:
        return self._tokens.get(rid, 0)

    def pages_of(self, rid: str) -> Tuple[int, ...]:
        """Every stage-2 page currently backing ``rid``'s KV."""
        return tuple(
            page for block in self._blocks.get(rid, []) for page in block
        )

    def _allocate_block(self, rid: str) -> Tuple[int, ...]:
        pages = self._spm.allocate_pages(self._partition, self.config.pages_per_block)
        self.blocks_allocated += 1
        # Zero-scan before first use: recycled pages reach us only through
        # free_pages or crash recovery, both of which scrub.  A non-zero
        # byte here is another sequence's KV showing through — the exact
        # leak the paper's failure-clearing step exists to prevent.  The
        # read goes through the partition so the stage-2 walk and its TLB
        # counters stay as they are.
        for page in pages:
            if self._partition.read(page * PAGE_SIZE, PAGE_SIZE) != ZERO_PAGE:
                self.leaked_blocks += 1
                break
        return pages

    def append_token(self, rid: str) -> int:
        """Append one token's KV rows for ``rid``; returns the token index.

        Allocates a fresh block at block boundaries and writes the token's
        deterministic stamp through the stage-2 fast lane.
        """
        if self.stale:
            raise KVCacheError(
                f"KV cache generation {self._generation} is stale "
                f"(partition restarted); call ensure_generation first"
            )
        index = self._tokens.get(rid, 0)
        blocks = self._blocks.setdefault(rid, [])
        block, slot = divmod(index, self._block_tokens)
        if block >= len(blocks):
            blocks.append(self._allocate_block(rid))
        offset = slot * self._token_bytes
        page, within = divmod(offset, PAGE_SIZE)
        self._partition.write(
            blocks[block][page] * PAGE_SIZE + within, token_stamp(rid, index)
        )
        self._tokens[rid] = index + 1
        self.tokens_written += 1
        return index

    def read_stamp(self, rid: str, index: int) -> bytes:
        """Read token ``index``'s stamp back (test/audit path)."""
        blocks = self._blocks.get(rid)
        if blocks is None or index >= self._tokens.get(rid, 0):
            raise KVCacheError(f"sequence {rid!r} has no token {index}")
        slot = index % self.config.block_tokens
        pages = blocks[index // self.config.block_tokens]
        offset = slot * self.config.kv_bytes_per_token
        page = pages[offset // PAGE_SIZE]
        return self._partition.read(
            page * PAGE_SIZE + offset % PAGE_SIZE, STAMP_BYTES
        )

    def release(self, rid: str) -> int:
        """Free a finished sequence's blocks (scrub + recycle); returns the
        number of pages returned to the allocator."""
        blocks = self._blocks.pop(rid, None)
        self._tokens.pop(rid, None)
        if blocks is None:
            return 0
        freed = 0
        for pages in blocks:
            self._spm.free_pages(self._partition, pages)
            freed += len(pages)
        self.blocks_released += len(blocks)
        return freed

    @property
    def resident_pages(self) -> int:
        return sum(
            len(pages) for blocks in self._blocks.values() for pages in blocks
        )

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "blocks_allocated": self.blocks_allocated,
            "blocks_released": self.blocks_released,
            "tokens_written": self.tokens_written,
            "leaked_blocks": self.leaked_blocks,
            "resident_pages": self.resident_pages,
        }
