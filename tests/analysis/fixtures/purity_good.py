"""Known-good fixture: purity contracts honestly declared."""
from typing import ClassVar


class TracePolicy:
    tick_stateless: ClassVar[bool] = False

    def decide(self, ctx: object) -> object:
        return ctx

    def fast_decide(self, ctx: object) -> object:
        return self.decide(ctx)

    def on_warning(self, ctx: object) -> None:
        return None


class StatefulPolicy(TracePolicy):
    """Legitimately stateful: mutates, and says so."""

    tick_stateless = False

    def decide(self, ctx: object) -> object:
        self._last = ctx
        return ctx


class PureHelperPolicy(TracePolicy):
    """Stateless with helper calls: no effect anywhere on the path."""

    tick_stateless = True

    def decide(self, ctx: object) -> object:
        return self._scale(ctx, 2.0)

    def _scale(self, demand: object, factor: float) -> list:
        return [entry * factor for entry in demand]


class LocalMutationPolicy(TracePolicy):
    """Mutating a locally-allocated list is not an effect."""

    tick_stateless = True

    def decide(self, ctx: object) -> object:
        granted = []
        granted.append(ctx)
        return granted
