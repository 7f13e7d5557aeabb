"""A generic BURS (bottom-up rewrite system) engine — the JBurg stand-in.

Two passes over each tree, per the paper: "an initial pass to find a
minimum-cost traversal, followed by a second pass that emits code based on
the instructions represented in each node", with dynamic-programming pattern
matching.

A :class:`Rule` rewrites a *pattern* to a *nonterminal*:

* pattern = ``("ADD_I", "reg", "imm")`` — an operator whose children must be
  reducible to the listed nonterminals (extra leaf children like COND/
  TARGET/MEMBER are bound automatically and passed to the emitter);
* pattern = ``"imm"`` (a bare string) — a **chain rule** nonterminal→
  nonterminal;
* pattern = ``("ICONST",)`` — a leaf operator.

The labeler computes, for every node, the cheapest rule deriving each
nonterminal (including chain-rule closure); the reducer walks the chosen
derivation and calls each rule's ``emit(ctx, node, kids)`` bottom-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import CodegenError
from repro.codegen.tree import TreeNode

#: leaf operators that are bound as auxiliary operands, not matched
AUX_LEAVES = frozenset({"COND", "TARGET", "MEMBER"})

Pattern = Union[str, Tuple]


@dataclass
class Rule:
    """nonterminal <- pattern, with a cost and an emitter.

    ``emit(ctx, node, kids)`` receives the reduction context, the matched
    node and the list of already-reduced child results; it returns the
    rule's result (e.g. a register name for ``reg`` rules).
    """

    nt: str
    pattern: Pattern
    cost: int
    emit: Callable
    name: str = ""

    def is_chain(self) -> bool:
        return isinstance(self.pattern, str)


class BURS:
    """The engine: label + reduce against a rule set."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        self.rules = list(rules)
        self.by_op: Dict[str, List[Rule]] = {}
        self.chains: List[Rule] = []
        for rule in self.rules:
            if rule.is_chain():
                self.chains.append(rule)
            else:
                self.by_op.setdefault(rule.pattern[0], []).append(rule)

    # ------------------------------------------------------------------ label
    def label(self, node: TreeNode) -> None:
        """Bottom-up DP: node.state[nt] = (cost, rule) minimal."""
        matchable = [k for k in node.kids if k.op not in AUX_LEAVES]
        for kid in matchable:
            self.label(kid)
        state: Dict[str, Tuple[int, Optional[Rule]]] = {}
        for rule in self.by_op.get(node.op, []):
            want = rule.pattern[1:]
            if len(want) != len(matchable):
                continue
            total = rule.cost
            feasible = True
            for nt, kid in zip(want, matchable):
                kid_state = kid.state or {}
                if nt not in kid_state:
                    feasible = False
                    break
                total += kid_state[nt][0]
            if feasible and (rule.nt not in state or total < state[rule.nt][0]):
                state[rule.nt] = (total, rule)
        # chain-rule closure to fixpoint
        changed = True
        while changed:
            changed = False
            for chain in self.chains:
                src = chain.pattern
                if src in state:
                    cost = state[src][0] + chain.cost
                    if chain.nt not in state or cost < state[chain.nt][0]:
                        state[chain.nt] = (cost, chain)
                        changed = True
        node.state = state

    # ----------------------------------------------------------------- reduce
    def reduce(self, node: TreeNode, goal: str, ctx) -> object:
        state = node.state or {}
        if goal not in state:
            raise CodegenError(
                f"no derivation of {goal!r} for node {node.op} "
                f"(have {sorted(state)})"
            )
        _, rule = state[goal]
        assert rule is not None
        if rule.is_chain():
            inner = self.reduce(node, rule.pattern, ctx)
            return rule.emit(ctx, node, [inner])
        matchable = [k for k in node.kids if k.op not in AUX_LEAVES]
        kids = [
            self.reduce(kid, nt, ctx)
            for nt, kid in zip(rule.pattern[1:], matchable)
        ]
        return rule.emit(ctx, node, kids)

    def generate(self, node: TreeNode, goal: str, ctx) -> object:
        """Label then reduce one statement tree."""
        self.label(node)
        return self.reduce(node, goal, ctx)


def aux(node: TreeNode, op: str):
    """Fetch the value of an auxiliary leaf (COND/TARGET/MEMBER) of ``node``."""
    for kid in node.kids:
        if kid.op == op:
            return kid.value
    raise CodegenError(f"node {node.op} has no {op} leaf")
