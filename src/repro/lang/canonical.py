"""Alpha-renaming canonicalisation of path conditions.

The in-memory factor cache keys on the canonical text of a simplified factor,
which distinguishes ``x <= 0.5`` from ``y <= 0.5`` even though the two factors
have identical solution-space measure whenever ``x`` and ``y`` follow the same
input distribution.  Within one run that distinction is harmless, but a
*persistent* store shared across runs — and across subject programs whose
symbolic executors invent different input names — wants the stronger key:
factors that are equal up to a renaming of their variables should share one
entry.

This module computes that key.  :func:`alpha_canonical` rewrites a path
condition over canonical variable names ``$v0, $v1, ...`` (the ``$`` prefix
cannot be produced by the lexer, so canonical names never collide with real
ones) and returns the renamed canonical text together with the original
variables in canonical order.  The caller pairs position ``i`` of that order
with whatever per-variable context must survive the renaming — for the
persistent store, the input distribution of the variable mapped to ``$v{i}``.

Canonicity: for factors with at most :data:`MAX_EXACT_VARIABLES` variables
every renaming is tried and the lexicographically smallest canonical text
wins, so alpha-equivalent factors provably map to the same text.  Larger
factors fall back to a deterministic greedy order (first occurrence in the
shape-sorted conjunct list); the greedy order is still alpha-invariant except
when distinct conjuncts share one shape, in which case two alpha-equivalent
factors may receive different keys — a missed reuse, never an unsound one.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.lang import ast
from repro.lang.substitution import substitute_constraint

#: Prefix of canonical variable names; not a valid identifier start in the
#: constraint language, so renamed factors can never capture a real variable.
CANONICAL_PREFIX = "$v"

#: Up to this many variables, canonicalisation enumerates all renamings and
#: is exact; beyond it, a deterministic greedy order is used (8! = 40320
#: candidate orders is where enumeration stops being negligible).
MAX_EXACT_VARIABLES = 7

#: Placeholder standing in for every variable when computing a conjunct's
#: *shape* (its canonical text with names abstracted away).
_SHAPE_PLACEHOLDER = "$?"


@dataclass(frozen=True)
class AlphaCanonical:
    """A path condition canonicalised up to variable renaming.

    Attributes:
        text: Canonical text of the renamed path condition (sorted conjuncts
            over ``$v0, $v1, ...``).
        variables: The original variable names in canonical order —
            ``variables[i]`` is the variable that ``$v{i}`` stands for.
    """

    text: str
    variables: Tuple[str, ...]


def canonical_name(index: int) -> str:
    """The canonical name of the variable at canonical position ``index``."""
    return f"{CANONICAL_PREFIX}{index}"


def _shape(constraint: ast.Constraint) -> str:
    """Canonical text of a conjunct with every variable name abstracted away."""
    bindings = {name: ast.Variable(_SHAPE_PLACEHOLDER) for name in constraint.free_variables()}
    return substitute_constraint(constraint, bindings).canonical()


def _renamed_text(pc: ast.PathCondition, order: Tuple[str, ...]) -> str:
    """Canonical text of ``pc`` with ``order[i]`` renamed to ``$v{i}``."""
    bindings: Dict[str, ast.Expression] = {
        name: ast.Variable(canonical_name(index)) for index, name in enumerate(order)
    }
    renamed = [substitute_constraint(constraint, bindings) for constraint in pc.constraints]
    return ast.PathCondition.of(renamed, pc.label).canonical()


def _greedy_order(pc: ast.PathCondition) -> Tuple[str, ...]:
    """First-occurrence order over the shape-sorted conjunct list.

    Sorting conjuncts by shape (rather than by their original canonical text)
    keeps the scan order independent of the original variable names, so the
    greedy order is alpha-invariant whenever all conjunct shapes are distinct.
    """
    ordered: List[str] = []
    seen = set()
    for constraint in sorted(pc.constraints, key=lambda c: (_shape(c), c.canonical())):
        for side in (constraint.left, constraint.right):
            for node in ast.walk(side):
                if isinstance(node, ast.Variable) and node.name not in seen:
                    seen.add(node.name)
                    ordered.append(node.name)
    return tuple(ordered)


def alpha_orders(pc: ast.PathCondition) -> List[Tuple[Tuple[str, ...], str]]:
    """All canonical-order candidates achieving the minimal renamed text.

    For small factors this enumerates every permutation of the free variables
    and keeps the orders whose renamed text is lexicographically smallest —
    several orders can tie when the factor is symmetric in some variables
    (``x <= 0 && y <= 0``), and the tie matters to callers that attach
    per-variable context: the persistent store breaks it by fingerprint so
    symmetric factors over differently-distributed variables still key
    deterministically.  Large factors return the single greedy candidate.
    """
    names = sorted(pc.free_variables())
    if not names:
        return [((), pc.canonical())]
    if len(names) > MAX_EXACT_VARIABLES:
        order = _greedy_order(pc)
        return [(order, _renamed_text(pc, order))]

    best: List[Tuple[Tuple[str, ...], str]] = []
    best_text: str | None = None
    for permutation in itertools.permutations(names):
        text = _renamed_text(pc, permutation)
        if best_text is None or text < best_text:
            best = [(permutation, text)]
            best_text = text
        elif text == best_text:
            best.append((permutation, text))
    return best


def alpha_canonical(pc: ast.PathCondition) -> AlphaCanonical:
    """Canonicalise ``pc`` up to variable renaming.

    Among the minimal-text orders the one whose variable tuple is smallest is
    returned, so the result is a pure function of the path condition.  Callers
    that need a context-sensitive tie-break (the store's fingerprints) should
    use :func:`alpha_orders` directly.
    """
    candidates = alpha_orders(pc)
    order, text = min(candidates, key=lambda candidate: candidate[0])
    return AlphaCanonical(text, order)


def alpha_equivalent(first: ast.PathCondition, second: ast.PathCondition) -> bool:
    """True when the two path conditions are equal up to variable renaming."""
    return alpha_canonical(first).text == alpha_canonical(second).text


#: Placeholder standing in for every numeric literal in a skeleton.
_SKELETON_NUMBER = "#"

#: Numeric literals as the constraint language renders them in canonical
#: text: an optional sign inside an expression never survives canonicalisation
#: as part of the literal, so digits with an optional fraction/exponent are
#: enough.
_NUMBER_PATTERN = re.compile(r"\b\d+(?:\.\d+)?(?:[eE][-+]?\d+)?\b")


def skeleton(pc: ast.PathCondition) -> str:
    """The structural skeleton of a factor: alpha-canonical text with every
    numeric literal abstracted to ``#``.

    Two versions of an evolving program typically edit a factor by moving a
    threshold (``sin(c) <= 0.5`` → ``sin(c) <= 0.7``); the skeletons of the
    two revisions are equal while their canonical texts differ, which is how
    the incremental differ pairs an old factor with the edit that replaced
    it.  A skeleton is a *pairing heuristic* only — never a reuse key: reuse
    always goes through the exact store digests of :mod:`repro.store.keys`.
    """
    return _NUMBER_PATTERN.sub(_SKELETON_NUMBER, alpha_canonical(pc).text)
