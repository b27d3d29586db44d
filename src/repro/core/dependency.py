"""The dependency relation over input variables (paper Definition 1).

Two input variables depend on each other when they occur together in at least
one atomic constraint of any path condition; the relation is closed reflexively
and transitively, so it is an equivalence relation and induces a partition of
the variables.  Each block of the partition can be quantified independently of
the others, which is what makes the conjunction rule of Equations (7)–(8)
applicable.

The paper computes the partition as the weakly connected components of an
undirected graph (using the JUNG library); here a union-find structure gives
the same partition in near-linear time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.lang import ast


class UnionFind:
    """Disjoint-set forest with union by rank and path compression."""

    def __init__(self) -> None:
        self._parent: Dict[str, str] = {}
        self._rank: Dict[str, int] = {}

    def add(self, item: str) -> None:
        """Register ``item`` as a singleton set if it is new."""
        if item not in self._parent:
            self._parent[item] = item
            self._rank[item] = 0

    def find(self, item: str) -> str:
        """Representative of the set containing ``item`` (with path compression)."""
        self.add(item)
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, first: str, second: str) -> None:
        """Merge the sets containing the two items."""
        root_first = self.find(first)
        root_second = self.find(second)
        if root_first == root_second:
            return
        if self._rank[root_first] < self._rank[root_second]:
            root_first, root_second = root_second, root_first
        self._parent[root_second] = root_first
        if self._rank[root_first] == self._rank[root_second]:
            self._rank[root_first] += 1

    def groups(self) -> List[FrozenSet[str]]:
        """All sets, each as a frozenset, ordered by their smallest member."""
        members: Dict[str, Set[str]] = {}
        for item in self._parent:
            members.setdefault(self.find(item), set()).add(item)
        return sorted((frozenset(group) for group in members.values()), key=min)

    def __contains__(self, item: str) -> bool:
        return item in self._parent

    def __len__(self) -> int:
        return len(self._parent)


@dataclass(frozen=True)
class DependencyPartition:
    """The partition of the input variables induced by the Dep relation."""

    blocks: Tuple[FrozenSet[str], ...]

    def block_of(self, variable: str) -> FrozenSet[str]:
        """The block containing ``variable`` (a singleton if it never occurs)."""
        for block in self.blocks:
            if variable in block:
                return block
        return frozenset({variable})

    def depends(self, first: str, second: str) -> bool:
        """True when the two variables are in the same block (Dep holds)."""
        return second in self.block_of(first)

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)


def compute_dependency_partition(
    path_conditions: Iterable[ast.PathCondition],
    extra_variables: Iterable[str] = (),
) -> DependencyPartition:
    """Compute the variable partition for a set of path conditions.

    This is the paper's ``computeDependencyRelation``: every pair of variables
    occurring in the same atomic constraint (of *any* path condition) is merged
    into the same block.  ``extra_variables`` adds singleton blocks for
    variables that have a domain but never occur in a constraint.
    """
    union_find = UnionFind()
    for variable in extra_variables:
        union_find.add(variable)
    # Path conditions from symbolic execution share conjunct objects; merging
    # one object's variables a second time changes nothing.  Each object is
    # held here, so its id cannot pass to a new one mid-loop.
    merged: Dict[int, ast.Constraint] = {}
    for pc in path_conditions:
        for constraint in pc.constraints:
            if id(constraint) in merged:
                continue
            merged[id(constraint)] = constraint
            names = sorted(constraint.free_variables())
            for name in names:
                union_find.add(name)
            for first, second in zip(names, names[1:]):
                union_find.union(first, second)
    return DependencyPartition(tuple(union_find.groups()))


def partition_for_constraint_set(constraint_set: ast.ConstraintSet) -> DependencyPartition:
    """Dependency partition of all path conditions in a constraint set."""
    return compute_dependency_partition(constraint_set.path_conditions)
