"""Offline planning of which layers run full attention and which reuse a selection.

A policy assigns every layer an action. A Full layer computes attention over
the whole cache and publishes its top-k selection. A Reuse layer inherits the
selection of the layer directly below it, which transitively pins it to the
Full layer that opened its chain. So a policy is its actions: LayerPolicy
derives each layer's source and the Full count from them, and every policy
that can be built is a valid chain. A reuse edge from source i to target j is
admissible only when the profiled overlap matrix says M[i][j] >= theta, the
one rule validate_policy audits.

The planner minimizes the number of Full layers first and, among those
minima, maximizes the summed similarity credit (1 per Full layer, M[i][j] per
Reuse layer). Both the dynamic program and the exhaustive oracle share one
more tie rule so they return the identical policy: compare source indices
from the last layer downward and prefer the smaller one.
"""

from __future__ import annotations

import enum
import itertools
import numbers
from dataclasses import dataclass, field

from ._canon import V1_0, check_count, check_unit, payload_hash
from .errors import InvalidInputError
from .profiling import SimilarityMatrix

__all__ = [
    "Action",
    "LayerPolicy",
    "dp_optimize",
    "brute_force_policy",
    "validate_policy",
    "static_jump_policy",
]

BRUTE_FORCE_MAX_LAYERS = 14


class Action(enum.Enum):
    FULL = "full"
    REUSE = "reuse"


@dataclass(frozen=True)
class LayerPolicy:
    """Per-layer actions, plus where a planned policy came from.

    sources and full_count are derived from actions, not given: sources[j]
    is the nearest Full layer at or below j, so sources[j] == j exactly when
    layer j runs Full, and full_count counts the Full layers. The
    constructor refuses empty actions, a non-Action entry, a Reuse first
    layer, a theta outside [0, 1], a theta without a cum_similarity, a
    non-str matrix_hash, and a non-number cum_similarity or a finite one
    outside [full_count, num_layers].

    theta, cum_similarity, and matrix_hash are None for policies that were
    not planned against a similarity matrix (for example the static jump
    baseline).
    """

    actions: tuple[Action, ...]
    sources: tuple[int, ...] = field(init=False)
    theta: float | None
    full_count: int = field(init=False)
    cum_similarity: float | None
    matrix_hash: str | None

    def __post_init__(self) -> None:
        actions = tuple(self.actions)
        if len(actions) < 1:
            raise InvalidInputError("a policy must cover at least one layer")
        if not all(isinstance(a, Action) for a in actions):
            raise InvalidInputError("actions must be Action values")
        if actions[0] is not Action.FULL:
            raise InvalidInputError("the first layer of a policy must run full attention")
        if self.theta is not None:
            object.__setattr__(self, "theta", check_unit("theta", self.theta))
            if self.cum_similarity is None:
                raise InvalidInputError("cumSimilarity is null, but a planned policy records it")
        sources: list[int] = []
        for j, action in enumerate(actions):
            sources.append(j if action is Action.FULL else sources[-1])
        full_count, cum = actions.count(Action.FULL), self.cum_similarity
        if cum is not None and (isinstance(cum, bool) or not isinstance(cum, numbers.Real)):
            raise InvalidInputError(f"cum_similarity must be a number, got {cum!r}")
        # A plan's credit is 1 per Full layer plus an overlap in [0, 1] per Reuse layer.
        if cum is not None and not full_count <= cum <= len(actions):
            raise InvalidInputError(f"cumSimilarity {cum} lies outside [fullCount, L] = [{full_count}, {len(actions)}]")
        if self.matrix_hash is not None and not isinstance(self.matrix_hash, str):
            raise InvalidInputError(f"matrix_hash must be a string, got {self.matrix_hash!r}")
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "sources", tuple(sources))
        object.__setattr__(self, "full_count", full_count)
        object.__setattr__(self, "cum_similarity", None if cum is None else float(cum))

    @property
    def num_layers(self) -> int:
        return len(self.actions)

    def canonical_payload(self) -> dict:
        return {
            "version": V1_0,
            "kind": "layer-policy",
            "L": self.num_layers,
            "theta": self.theta,
            "actions": [a.value for a in self.actions],
            "sources": [None if a is Action.FULL else s for a, s in zip(self.actions, self.sources)],
            "fullCount": self.full_count,
            "cumSimilarity": self.cum_similarity,
            "matrixHash": self.matrix_hash,
        }

    def sha256(self) -> str:
        return payload_hash(self.canonical_payload())


def _policy_from_sources(
    matrix: SimilarityMatrix,
    sources: list[int],
    theta: float,
    cum_similarity: float,
) -> LayerPolicy:
    actions = tuple(Action.FULL if s == j else Action.REUSE for j, s in enumerate(sources))
    return LayerPolicy(
        actions=actions,
        theta=theta,
        cum_similarity=cum_similarity,
        matrix_hash=matrix.sha256(),
    )


def dp_optimize(matrix: SimilarityMatrix, theta: float) -> LayerPolicy:
    """Optimal policy for a similarity matrix and reuse threshold.

    State (i, j) means layer j takes its selection from Full layer i (i == j
    means layer j itself runs Full). Each state keeps its best incoming path
    as the tuple (Full count, -credit, source at layer j - 1), and "best" is
    tuple order: fewer Full layers, then more credit, then the smaller
    predecessor source. From state (i, j - 1) two moves reach layer j: stay
    on the chain, admissible only when M[i][j] >= theta, adding M[i][j]
    credit; or open a new chain at j, always admissible, adding one Full
    layer and credit 1. Credit is accumulated in ascending layer order and
    compared after each addition, so equal-credit paths compare
    bit-identically here and in brute_force_policy.

    Args:
        matrix: profiled overlap matrix.
        theta: reuse admission threshold in [0, 1]; the comparison is
            inclusive, an overlap exactly equal to theta admits the edge.

    Returns:
        The optimal LayerPolicy, with theta, cum_similarity, and the matrix
        hash filled in.
    """
    theta = check_unit("theta", theta)
    rows = matrix.values.tolist()
    L = len(rows)
    # cells[j][i]: best path into state (i, j), keyed by ascending source i.
    cells: list[dict[int, tuple[int, float, int]]] = [{0: (1, -1.0, -1)}]
    for j in range(1, L):
        prev = cells[-1]
        cell = {i: (f, neg - rows[j][i], i) for i, (f, neg, _) in prev.items() if rows[j][i] >= theta}
        cell[j] = min((f + 1, neg - 1.0, i) for i, (f, neg, _) in prev.items())
        cells.append(cell)
    _, neg, i = min((f, neg, i) for i, (f, neg, _) in cells[-1].items())

    sources = [0] * L
    for j in range(L - 1, -1, -1):
        sources[j] = i
        if i == j:
            i = cells[j][j][2]
    return _policy_from_sources(matrix, sources, theta, -neg)


def brute_force_policy(matrix: SimilarityMatrix, theta: float) -> LayerPolicy:
    """Exhaustive reference planner; enumerates every action sequence.

    Shares the dp_optimize objective and tie order exactly: minimal Full
    count, then maximal credit accumulated in ascending layer order, then
    sources compared from the last layer downward preferring the smaller.
    Refuses more than BRUTE_FORCE_MAX_LAYERS layers, the enumeration is
    exponential.
    """
    theta = check_unit("theta", theta)
    L = matrix.num_layers
    if L > BRUTE_FORCE_MAX_LAYERS:
        raise InvalidInputError(
            f"brute force is limited to {BRUTE_FORCE_MAX_LAYERS} layers, got {L}"
        )
    best_key: tuple | None = None
    best: tuple[list[int], float] | None = None
    for tail in itertools.product((Action.FULL, Action.REUSE), repeat=L - 1):
        actions = (Action.FULL,) + tail
        sources = [0] * L
        credit = 1.0
        fulls = 1
        feasible = True
        for j in range(1, L):
            if actions[j] is Action.FULL:
                sources[j] = j
                fulls += 1
                credit += 1.0
            else:
                src = sources[j - 1]
                sources[j] = src
                m = matrix.overlap(src, j)
                if m < theta:
                    feasible = False
                    break
                credit += m
        if not feasible:
            continue
        key = (fulls, -credit, tuple(reversed(sources)))
        if best_key is None or key < best_key:
            best_key = key
            best = (sources, credit)
    assert best is not None  # the all-Full sequence is always feasible
    sources, credit = best
    return _policy_from_sources(matrix, sources, theta, credit)


def validate_policy(
    policy: LayerPolicy, matrix: SimilarityMatrix, theta: float
) -> list[tuple[int, str]]:
    """Audit a policy's reuse edges against a matrix and threshold.

    LayerPolicy makes every policy a valid chain, so the one rule to audit
    needs the matrix: "threshold", broken by a Reuse layer j whose source i
    has M[i][j] < theta. Violations are returned as (layer, "threshold")
    pairs in layer order rather than raised, so a planner's output can be
    audited and a hand-built policy described.
    """
    theta = check_unit("theta", theta)
    if policy.num_layers != matrix.num_layers:
        raise InvalidInputError(
            f"policy covers {policy.num_layers} layers, matrix {matrix.num_layers}"
        )
    return [
        (j, "threshold")
        for j, (action, src) in enumerate(zip(policy.actions, policy.sources))
        if action is Action.REUSE and matrix.overlap(src, j) < theta
    ]


def static_jump_policy(num_layers: int, stride: int) -> LayerPolicy:
    """Fixed-stride baseline: Full at layers 0, stride, 2*stride, ..., Reuse between.

    Needs no similarity matrix, so theta, cum_similarity, and matrix_hash are
    None. stride = 1 is the all-Full policy.
    """
    num_layers = check_count("num_layers", num_layers)
    stride = check_count("stride", stride)
    actions = tuple(Action.FULL if j % stride == 0 else Action.REUSE for j in range(num_layers))
    return LayerPolicy(actions=actions, theta=None, cum_similarity=None, matrix_hash=None)
