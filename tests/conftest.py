import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from layerreuse import SimilarityMatrix

sys.path.insert(0, str(Path(__file__).parent))


def random_similarity_matrix(rng: np.random.Generator, num_layers: int, budget: int = 8) -> SimilarityMatrix:
    """Uniform random lower-triangle entries, unit diagonal."""
    values = np.zeros((num_layers, num_layers))
    for j in range(num_layers):
        values[j, j] = 1.0
        for i in range(j):
            values[j, i] = float(rng.random())
    return SimilarityMatrix(values=values, budget=budget)


def assert_same_selection(fast, checked) -> None:
    """fast, a set built without checks, is the checked constructor's set: equal, same hash, same repr.

    Its indices are a tuple of Python ints, as the checked constructor
    stores them; a numpy integer would change the repr that golden digests hash.
    """
    assert fast == checked
    assert hash(fast) == hash(checked)
    assert repr(fast) == repr(checked)
    for field in dataclasses.fields(fast):
        value = getattr(fast, field.name)
        values = value if isinstance(value, tuple) else (value,)
        assert all(type(v) is int for v in values), (field.name, value)


def recording_cells(calls, real, queries, context_len):
    """A full_attention stand-in that appends to calls the list of (step, layer) cells each call serves.

    An [H, d] query serves one cell; an [S, H, d] query serves S consecutive
    steps of one layer, the last of which sees every cached row. Steps are
    read from the cache length and the layer from the query, so queries must
    differ between layers.
    """

    def recording(q, cache):
        rows = np.reshape(q, (-1,) + queries.shape[2:])
        first = cache.keys.shape[-2] - rows.shape[0] + 1 - context_len
        cells = []
        for t, row in enumerate(rows, start=first):
            layers = [l for l in range(queries.shape[1]) if np.array_equal(queries[t, l], row)]
            assert len(layers) == 1
            cells.append((t, layers[0]))
        calls.append(cells)
        return real(q, cache)

    return recording


def rewrite_sidecar(trace: Path, name: str, change) -> None:
    """Replace the sidecar of trace's tensors[name] by change(array), recording its new shape and sha256.

    array is a writable copy of the sidecar, read with plain numpy as int64
    for the topk and blocks selections and float64 otherwise; change returns
    the array to write, of any shape.
    """
    doc = json.loads(trace.read_text())
    entry = doc["tensors"][name]
    dtype = "<i8" if name in ("topk", "blocks") else "<f8"
    sidecar = trace.parent / entry["path"]
    array = np.ascontiguousarray(change(np.fromfile(sidecar, dtype=dtype).reshape(entry["shape"])), dtype=dtype)
    data = array.tobytes()
    sidecar.write_bytes(data)
    entry["shape"], entry["sha256"] = list(array.shape), hashlib.sha256(data).hexdigest()
    trace.write_text(json.dumps(doc))


class TornFile:
    """Writes the first half of what it is given, then fails like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")
