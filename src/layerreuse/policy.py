"""Offline planning of which layers run full attention and which reuse a selection.

A policy assigns every layer an action. A Full layer computes attention over
the whole cache and publishes its top-k selection. A Reuse layer inherits the
selection of the layer directly below it, which transitively pins it to the
Full layer that opened its chain. A reuse edge from source i to target j is
admissible only when the profiled overlap matrix says M[i][j] >= theta.

The planner minimizes the number of Full layers first and, among those
minima, maximizes the summed similarity credit (1 per Full layer, M[i][j] per
Reuse layer). Both the dynamic program and the exhaustive oracle share one
more tie rule so they return the identical policy: compare source indices
from the last layer downward and prefer the smaller one.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from ._canon import V1_0, payload_hash
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
    """Per-layer actions plus the selection source for each layer.

    sources[j] == j exactly when layer j runs Full; a Reuse layer points at
    the Full layer whose selection it inherits. The constructor only enforces
    structural shape so that deliberately broken policies can be built and
    fed to validate_policy; semantic checks live there.

    theta, cum_similarity, and matrix_hash are None for policies that were
    not planned against a similarity matrix (for example the static jump
    baseline).
    """

    actions: tuple[Action, ...]
    sources: tuple[int, ...]
    theta: float | None
    full_count: int
    cum_similarity: float | None
    matrix_hash: str | None

    def __post_init__(self) -> None:
        actions = tuple(self.actions)
        sources = tuple(int(s) for s in self.sources)
        if len(actions) < 1:
            raise InvalidInputError("a policy must cover at least one layer")
        if len(actions) != len(sources):
            raise InvalidInputError(
                f"{len(actions)} actions but {len(sources)} sources"
            )
        if not all(isinstance(a, Action) for a in actions):
            raise InvalidInputError("actions must be Action values")
        L = len(actions)
        if not all(0 <= s < L for s in sources):
            raise InvalidInputError("sources must be layer indices")
        if self.full_count != sum(1 for a in actions if a is Action.FULL):
            raise InvalidInputError("full_count does not match the actions")
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "sources", sources)

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


def _check_theta(theta: float) -> float:
    if isinstance(theta, bool) or not isinstance(theta, (int, float)) or not 0.0 <= float(theta) <= 1.0:
        raise InvalidInputError(f"theta must lie in [0, 1], got {theta}")
    return float(theta)


def _policy_from_sources(
    matrix: SimilarityMatrix,
    sources: list[int],
    theta: float,
    full_count: int,
    cum_similarity: float,
) -> LayerPolicy:
    actions = tuple(Action.FULL if s == j else Action.REUSE for j, s in enumerate(sources))
    return LayerPolicy(
        actions=actions,
        sources=tuple(sources),
        theta=theta,
        full_count=full_count,
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
        The optimal LayerPolicy, with full_count, cum_similarity, and the
        matrix hash filled in.
    """
    theta = _check_theta(theta)
    rows = matrix.values.tolist()
    L = len(rows)
    # cells[j][i]: best path into state (i, j), keyed by ascending source i.
    cells: list[dict[int, tuple[int, float, int]]] = [{0: (1, -1.0, -1)}]
    for j in range(1, L):
        prev = cells[-1]
        cell = {i: (f, neg - rows[j][i], i) for i, (f, neg, _) in prev.items() if rows[j][i] >= theta}
        cell[j] = min((f + 1, neg - 1.0, i) for i, (f, neg, _) in prev.items())
        cells.append(cell)
    full_count, neg, i = min((f, neg, i) for i, (f, neg, _) in cells[-1].items())

    sources = [0] * L
    for j in range(L - 1, -1, -1):
        sources[j] = i
        if i == j:
            i = cells[j][j][2]
    return _policy_from_sources(matrix, sources, theta, full_count, -neg)


def brute_force_policy(matrix: SimilarityMatrix, theta: float) -> LayerPolicy:
    """Exhaustive reference planner; enumerates every action sequence.

    Shares the dp_optimize objective and tie order exactly: minimal Full
    count, then maximal credit accumulated in ascending layer order, then
    sources compared from the last layer downward preferring the smaller.
    Refuses more than BRUTE_FORCE_MAX_LAYERS layers, the enumeration is
    exponential.
    """
    theta = _check_theta(theta)
    L = matrix.num_layers
    if L > BRUTE_FORCE_MAX_LAYERS:
        raise InvalidInputError(
            f"brute force is limited to {BRUTE_FORCE_MAX_LAYERS} layers, got {L}"
        )
    best_key: tuple | None = None
    best: tuple[list[int], int, float] | None = None
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
            best = (sources, fulls, credit)
    assert best is not None  # the all-Full sequence is always feasible
    sources, fulls, credit = best
    return _policy_from_sources(matrix, sources, theta, fulls, credit)


def validate_policy(
    policy: LayerPolicy, matrix: SimilarityMatrix, theta: float
) -> list[tuple[int, str]]:
    """Check every policy invariant against a matrix and threshold.

    Violations are returned as (layer, constraint) pairs rather than raised,
    so a planner's output can be audited and a broken hand-built policy can
    be described. Constraints: "first-layer-full", "self-source" (a Full
    layer must source itself), "source-not-full", "chain" (a Reuse layer must
    inherit from the layer directly below), and "threshold".
    """
    theta = _check_theta(theta)
    if policy.num_layers != matrix.num_layers:
        raise InvalidInputError(
            f"policy covers {policy.num_layers} layers, matrix {matrix.num_layers}"
        )
    violations = _structural_violations(policy)
    unsourced = {j for j, rule in violations if rule == "source-not-full"}
    for j, (action, src) in enumerate(zip(policy.actions, policy.sources)):
        if j > 0 and action is Action.REUSE and j not in unsourced and matrix.overlap(src, j) < theta:
            violations.append((j, "threshold"))
    # Stable, so each layer's threshold violation follows its chain violation.
    return sorted(violations, key=lambda v: v[0])


def _structural_violations(policy: LayerPolicy) -> list[tuple[int, str]]:
    """validate_policy's rules that need no matrix, as (layer, constraint) pairs in layer order.

    "first-layer-full", then per layer "self-source", "source-not-full" or
    "chain". hybrid decoding refuses a policy that breaks any of them.
    """
    violations: list[tuple[int, str]] = []
    if policy.actions[0] is not Action.FULL:
        violations.append((0, "first-layer-full"))
    for j, (action, src) in enumerate(zip(policy.actions, policy.sources)):
        if action is Action.FULL:
            if src != j:
                violations.append((j, "self-source"))
        elif j == 0:
            continue  # already reported as first-layer-full
        elif src >= j or policy.actions[src] is not Action.FULL:
            violations.append((j, "source-not-full"))
        elif src != policy.sources[j - 1]:
            violations.append((j, "chain"))
    return violations


def static_jump_policy(num_layers: int, stride: int) -> LayerPolicy:
    """Fixed-stride baseline: Full at layers 0, stride, 2*stride, ..., Reuse between.

    Needs no similarity matrix, so theta, cum_similarity, and matrix_hash are
    None. stride = 1 is the all-Full policy.
    """
    if num_layers < 1:
        raise InvalidInputError(f"num_layers must be >= 1, got {num_layers}")
    if stride < 1:
        raise InvalidInputError(f"stride must be >= 1, got {stride}")
    actions = []
    sources = []
    for j in range(num_layers):
        if j % stride == 0:
            actions.append(Action.FULL)
            sources.append(j)
        else:
            actions.append(Action.REUSE)
            sources.append((j // stride) * stride)
    return LayerPolicy(
        actions=tuple(actions),
        sources=tuple(sources),
        theta=None,
        full_count=sum(1 for a in actions if a is Action.FULL),
        cum_similarity=None,
        matrix_hash=None,
    )
