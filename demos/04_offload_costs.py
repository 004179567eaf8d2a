#!/usr/bin/env python3
"""What selection reuse buys in memory traffic, and when offloading pays.

Decode speed at long context is bounded by rereading the KV cache every step.
A reuse layer reads only its inherited selection instead of the whole cache,
so the bytes saved grow with context length. Because a reuse layer's indices
are known before the layer executes, its cache can also live across a slow
link (CPU memory, another device) and only the selected rows are fetched.
The model here is analytic: exact byte counts and their ratios, with no
hardware in the loop; the times below divide those bytes by a link bandwidth.
"""

from layerreuse import cost_model, static_jump_policy

# 32 layers, every 4th full: the planner shape this mirrors keeps 8 chains.
policy = static_jump_policy(32, 4)
BUDGET = 256
LINK_BYTES_PER_S = 32e9  # a PCIe-class link to CPU memory

print(f"policy: {policy.full_count} full of {policy.num_layers} layers, "
      f"budget {BUDGET} tokens, 64-wide float64 KV rows\n")

print("context  full KV read   hybrid KV read  ratio    speedup")
for n in (8192, 16384, 30720, 61440):
    r = cost_model(policy, n, BUDGET, head_dim=64)
    print(f"{n:7d}  {r.kv_bytes_full / 2**20:10.1f} MiB  {r.kv_bytes_hybrid / 2**20:11.1f} MiB"
          f"  {r.bytes_ratio:.4f}  {r.predicted_speedup:7.3f}x")

# The ratio approaches fullCount/L as context grows: reuse layers' reads stop
# mattering, full layers' reads dominate.
r = cost_model(policy, 1_000_000, BUDGET, head_dim=64)
print(f"\nat 1M tokens the ratio is {r.bytes_ratio:.4f} "
      f"(floor {policy.full_count}/{policy.num_layers} = {policy.full_count / policy.num_layers})")

# Offloading: keep the 8 full layers' caches in fast memory, move the other
# 24 across a 32 GB/s link. Per step, the link carries only each reuse
# layer's selected rows, where a naive placement would pull whole caches.
n = 61440
r = cost_model(policy, n, BUDGET, head_dim=64)
print(f"\noffload at context {n}:")
print(f"  whole caches over the link: {r.kv_bytes_full / LINK_BYTES_PER_S * 1e3:8.2f} ms/step")
print(f"  selected rows only:         {r.kv_bytes_hybrid / LINK_BYTES_PER_S * 1e3:8.2f} ms/step")

# Block-level selection trades precision for contiguous reads: budgets count
# blocks, coverage counts tokens.
blocks = cost_model(policy, n, 16, block_size=16, head_dim=64)
print(f"\nblock mode, 16 blocks of 16 tokens: covers {blocks.tokens_covered} tokens, "
      f"ratio {blocks.bytes_ratio:.4f}")

# The package stores float64; float32 storage would halve every byte count
# and leave the ratio as it is.
print(f"float32 variant: full read {r.kv_bytes_full / 2 / 2**20:.1f} MiB, "
      f"same ratio {r.bytes_ratio:.4f}")
