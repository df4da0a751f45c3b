"""Classical (batch) abstract interpretation of a CFG.

This is the baseline the paper compares against (configuration (1) of
Section 7.3) and, more importantly, the *from-scratch consistency oracle*:
Theorem 6.1 states that a DAIG query for the abstract state at a location
returns exactly the global fixed-point invariant ``⟦ℓ⟧♯*`` of the underlying
abstract interpreter.  The property-based tests compare the DAIG engine's
answers against the invariants computed here.

The iteration strategy mirrors the structure the DAIG reifies (and the
structured chaotic-iteration strategy of Bourdoncle): locations are
processed in reverse postorder over forward edges; each loop head runs a
local fixed-point iteration ``x_{k} = x_{k-1} ∇ F_body(x_{k-1})`` until two
consecutive iterates are equal (the paper's footnote 4 strategy of widening
at every iteration), re-analyzing the loop body — including nested loops —
from each iterate.
"""

from __future__ import annotations

from typing import Dict, Generic, List, Optional, TypeVar

from ..domains.base import AbstractDomain
from ..lang.cfg import Cfg, Loc

StateT = TypeVar("StateT")

#: Safety bound on widening iterations; a correct widening converges long
#: before this, so hitting the bound indicates a broken domain.
MAX_WIDENING_ITERATIONS = 1000


class FixpointDivergenceError(Exception):
    """Raised when a loop's widening sequence fails to stabilize."""


class BatchAnalyzer(Generic[StateT]):
    """Whole-CFG abstract interpretation producing an invariant map."""

    def __init__(
        self,
        cfg: Cfg,
        domain: AbstractDomain[StateT],
        entry_state: Optional[StateT] = None,
    ) -> None:
        self.cfg = cfg
        self.domain = domain
        self.entry_state = (
            entry_state if entry_state is not None else domain.initial(cfg.params))
        #: Number of abstract transfer-function applications performed; the
        #: benchmarks report this as a machine-independent cost measure.
        self.transfer_count = 0

    # -- public API ---------------------------------------------------------------

    def analyze(self) -> Dict[Loc, StateT]:
        """Compute the invariant map ``⟦·⟧♯*`` for every reachable location."""
        self.cfg.check_reducible()
        values: Dict[Loc, StateT] = {self.cfg.entry: self.entry_state}
        for loc in self.cfg.reverse_postorder():
            if loc == self.cfg.entry:
                continue
            self._compute_location(loc, values)
        return values

    def invariant_at(self, loc: Loc) -> StateT:
        """The fixed-point abstract state at a single location."""
        return self.analyze()[loc]

    # -- internals ------------------------------------------------------------------

    def _transfer(self, stmt, state: StateT) -> StateT:
        self.transfer_count += 1
        return self.domain.transfer(stmt, state)

    def _incoming_value(self, loc: Loc, values: Dict[Loc, StateT]) -> StateT:
        """Join of transfers over the indexed incoming forward edges."""
        contributions: List[StateT] = []
        for _index, edge in self.cfg.fwd_edges_to(loc):
            if edge.src not in values:
                # The predecessor is unreachable (or not yet computed, which
                # only happens for unreachable code); treat it as ⊥.
                continue
            contributions.append(self._transfer(edge.stmt, values[edge.src]))
        if not contributions:
            return self.domain.bottom()
        result = contributions[0]
        for contribution in contributions[1:]:
            result = self.domain.join(result, contribution)
        return result

    def _compute_location(self, loc: Loc, values: Dict[Loc, StateT]) -> None:
        incoming = self._incoming_value(loc, values)
        if self.cfg.is_loop_head(loc):
            values[loc] = self._loop_fixpoint(loc, incoming, values)
        else:
            values[loc] = incoming

    def _loop_fixpoint(
        self, head: Loc, initial: StateT, values: Dict[Loc, StateT]
    ) -> StateT:
        """Iterate ``x ∇ F_body(x)`` to convergence for the loop at ``head``."""
        loop_locations = self.cfg.natural_loop(head)
        order = [loc for loc in self.cfg.reverse_postorder()
                 if loc in loop_locations and loc != head]
        back_edges = self.cfg.back_edges_to(head)
        current = initial
        for _iteration in range(MAX_WIDENING_ITERATIONS):
            body_values: Dict[Loc, StateT] = dict(values)
            body_values[head] = current
            for loc in order:
                self._compute_location(loc, body_values)
            pre_widen: Optional[StateT] = None
            for edge in back_edges:
                if edge.src not in body_values:
                    continue
                transferred = self._transfer(edge.stmt, body_values[edge.src])
                pre_widen = (transferred if pre_widen is None
                             else self.domain.join(pre_widen, transferred))
            if pre_widen is None:
                return current
            nxt = self.domain.widen(current, pre_widen)
            if self.domain.equal(nxt, current):
                return nxt
            current = nxt
        raise FixpointDivergenceError(
            "widening did not converge at loop head %d of %s"
            % (head, self.cfg.name))


def analyze_cfg(
    cfg: Cfg,
    domain: AbstractDomain[StateT],
    entry_state: Optional[StateT] = None,
) -> Dict[Loc, StateT]:
    """Convenience wrapper: batch-analyze ``cfg`` and return the invariant map."""
    return BatchAnalyzer(cfg, domain, entry_state).analyze()
