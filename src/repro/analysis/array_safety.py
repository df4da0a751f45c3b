"""The array-bounds verification client (Section 7.2, interval analysis).

The paper validates its interval-domain instantiation by verifying the
safety of the 85 array accesses in 23 array-manipulating programs from the
Buckets.JS test suite, under three context-sensitivity policies.  This
module is that client: it enumerates every array access in the analyzed
program, asks the (interprocedural, demanded) interval analysis for the
abstract state just before each access, and checks that the index provably
lies within ``[0, length)``.

An access in a procedure analyzed under several contexts counts as verified
only if it is verified in *every* context, mirroring how a batch analyzer
would report it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..domains.interval import IntervalDomain
from ..domains.nonrel import ValueEnvDomain
from ..interproc.context import ContextPolicy, policy_by_name
from ..interproc.engine import InterproceduralEngine
from ..lang import ast as A
from ..lang.cfg import Cfg, CfgEdge, Loc


@dataclass(frozen=True)
class ArrayAccess:
    """One array read or write occurring in a statement."""

    procedure: str
    location: Loc
    array: A.Expr
    index: A.Expr
    kind: str  # "read" | "write"

    def describe(self) -> str:
        return "%s:%d %s[%s] (%s)" % (
            self.procedure, self.location, self.array, self.index, self.kind)


@dataclass(frozen=True)
class AccessVerdict:
    """The outcome of checking one access."""

    access: ArrayAccess
    verified: bool


@dataclass
class SafetyReport:
    """Aggregated results for one program under one context policy."""

    program: str
    policy: str
    verdicts: List[AccessVerdict]

    @property
    def total(self) -> int:
        return len(self.verdicts)

    @property
    def verified(self) -> int:
        return sum(1 for verdict in self.verdicts if verdict.verified)

    def summary(self) -> str:
        return "%s [%s]: %d/%d accesses verified" % (
            self.program, self.policy, self.verified, self.total)


def collect_array_accesses(name: str, cfg: Cfg) -> List[ArrayAccess]:
    """Every array read/write syntactically present in a procedure."""
    accesses: List[ArrayAccess] = []
    for edge in cfg.edges:
        accesses.extend(_accesses_in_statement(name, edge))
    return accesses


def _accesses_in_statement(name: str, edge: CfgEdge) -> List[ArrayAccess]:
    out: List[ArrayAccess] = []
    stmt = edge.stmt
    expressions: List[A.Expr] = []
    if isinstance(stmt, A.AssignStmt):
        expressions.append(stmt.value)
    elif isinstance(stmt, A.AssumeStmt):
        expressions.append(stmt.cond)
    elif isinstance(stmt, A.ArrayWriteStmt):
        out.append(ArrayAccess(name, edge.src, A.Var(stmt.array), stmt.index, "write"))
        expressions.extend([stmt.index, stmt.value])
    elif isinstance(stmt, A.FieldWriteStmt):
        expressions.append(stmt.value)
    elif isinstance(stmt, A.PrintStmt):
        expressions.append(stmt.value)
    elif isinstance(stmt, A.CallStmt):
        expressions.extend(stmt.args)
    for expression in expressions:
        for sub in expression.walk():
            if isinstance(sub, A.ArrayRead):
                out.append(ArrayAccess(name, edge.src, sub.array, sub.index, "read"))
    return out


class ArraySafetyClient:
    """Verifies array-access safety with a demanded interval analysis."""

    def __init__(
        self,
        cfgs: Dict[str, Cfg],
        policy: ContextPolicy,
        domain: Optional[ValueEnvDomain] = None,
        entry: str = "main",
    ) -> None:
        self.cfgs = cfgs
        self.policy = policy
        self.domain = domain if domain is not None else IntervalDomain()
        self.entry = entry
        self.engine = InterproceduralEngine(
            {name: cfg.copy() for name, cfg in cfgs.items()},
            self.domain, policy, entry=entry)

    def check(self, program_name: str = "program") -> SafetyReport:
        """Analyze the program and check every reachable array access."""
        self.engine.analyze_everything()
        reachable = self.engine.callgraph.reachable_from(self.entry)
        verdicts: List[AccessVerdict] = []
        for procedure in sorted(reachable):
            cfg = self.cfgs[procedure]
            contexts = self.engine.contexts_of(procedure)
            if not contexts:
                continue
            for access in collect_array_accesses(procedure, cfg):
                verified = all(
                    self._verified_in(access, procedure, context)
                    for context in contexts)
                verdicts.append(AccessVerdict(access, verified))
        return SafetyReport(program_name, self.policy.name, verdicts)

    def _verified_in(self, access: ArrayAccess, procedure: str, context) -> bool:
        state = self.engine.query(procedure, access.location, context)
        if self.domain.is_bottom(state):
            return True  # unreachable in this context
        index_lo, index_hi = self.domain.numeric_bounds(access.index, state)
        length_lo, _length_hi = self.domain.array_length_bounds(access.array, state)
        if index_lo is None or index_hi is None or length_lo is None:
            return False
        return index_lo >= 0 and index_hi <= length_lo - 1


def verify_array_programs(
    programs: Dict[str, Dict[str, Cfg]],
    policy_name: str,
) -> List[SafetyReport]:
    """Run the client over a suite of programs under one context policy."""
    reports = []
    for name in sorted(programs):
        policy = policy_by_name(policy_name)
        client = ArraySafetyClient(programs[name], policy)
        reports.append(client.check(name))
    return reports
