"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with scalar Python loops and the
math module rather than numpy vector ops, so a bug in the package's
numerics cannot hide in a shared code path. Only data generation (the
synthetic model's arrays) is shared, because the model is the test input
itself. A written trace's selections are read with plain numpy, not
with the package's reader.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np


def ref_softmax(logits):
    m = max(logits)
    exps = [math.exp(x - m) for x in logits]
    z = sum(exps)
    return [e / z for e in exps]


def ref_attention(q, keys, values):
    """Scalar-loop full attention. Returns (output, logits, weights)."""
    d = len(q)
    logits = [sum(q[i] * row[i] for i in range(d)) / math.sqrt(d) for row in keys]
    weights = ref_softmax(logits)
    out = [sum(weights[n] * values[n][i] for n in range(len(values))) for i in range(d)]
    return out, logits, weights


def ref_topk(logits, budget):
    """Top-k indices, ties to the lower index, returned ascending."""
    order = sorted(range(len(logits)), key=lambda i: (-logits[i], i))
    return sorted(order[: min(budget, len(logits))])


def ref_sparse_attention(q, keys, values, selected):
    """Scalar-loop attention over a subset of rows, renormalized on the subset."""
    sub_k = [keys[i] for i in selected]
    sub_v = [values[i] for i in selected]
    out, _, weights = ref_attention(q, sub_k, sub_v)
    return out, weights


def ref_matrix_from_trace(path):
    """Mean pairwise overlap computed from a written trace with set ops only.

    The token selections are read with plain numpy from the trace's topk
    sidecar, little-endian int64 of the shape [steps, layers, k] the
    document records.
    """
    with open(path, encoding="ascii") as fh:
        doc = json.load(fh)
    entry = doc["tensors"]["topk"]
    sidecar = os.path.join(os.path.dirname(path), entry["path"])
    topk = np.fromfile(sidecar, dtype="<i8").reshape(entry["shape"]).tolist()
    k = doc["budget"]
    layers = len(topk[0])
    steps = len(topk)
    entries = {}
    for j in range(layers):
        for i in range(j + 1):
            if i == j:
                entries[(i, j)] = 1.0
                continue
            total = 0.0
            for step in topk:
                si = set(step[i])
                sj = set(step[j])
                total += len(si & sj) / k
            entries[(i, j)] = total / steps
    return entries


def ref_hybrid_replay(queries, keys, values, actions, budget, context_len):
    """Naive replay of hybrid decoding from raw model arrays.

    actions is a list of "full" / "reuse" strings. queries is [T][L][H][d],
    keys/values are [L][H][N + T][d] grown arrays (plain nested lists or
    arrays; only indexing is used). Returns outputs[t][l][h] as lists.

    Full layers recompute everything and take the top-k of summed per-head
    logits; reuse layers inherit the previous layer's selection and run the
    subset attention. This mirrors the documented decode semantics with no
    shared attention code.
    """
    T = len(queries)
    L = len(actions)
    H = len(queries[0][0])
    outputs = [[[None] * H for _ in range(L)] for _ in range(T)]
    for t in range(T):
        n_t = context_len + t
        b_t = min(budget, n_t)
        sel = None
        for l in range(L):
            if actions[l] == "full":
                agg = [0.0] * n_t
                for h in range(H):
                    k_rows = [list(keys[l][h][n]) for n in range(n_t)]
                    v_rows = [list(values[l][h][n]) for n in range(n_t)]
                    out, logits, _ = ref_attention(list(queries[t][l][h]), k_rows, v_rows)
                    outputs[t][l][h] = out
                    for n in range(n_t):
                        agg[n] += logits[n]
                sel = ref_topk(agg, b_t)
            else:
                for h in range(H):
                    k_rows = [list(keys[l][h][n]) for n in range(n_t)]
                    v_rows = [list(values[l][h][n]) for n in range(n_t)]
                    out, _ = ref_sparse_attention(
                        list(queries[t][l][h]), k_rows, v_rows, sel
                    )
                    outputs[t][l][h] = out
        # sel persists across layers within the step, as in the engine
    return outputs


def ref_rnmse(x, ref):
    err = math.sqrt(sum((a - b) ** 2 for a, b in zip(x, ref)))
    nrm = math.sqrt(sum(b * b for b in ref))
    return err / nrm
