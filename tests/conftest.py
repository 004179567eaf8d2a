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
