"""One memory budget: each large allocation's bytes, estimated from shapes
its module already knows, are checked here before it is made.  Caps that
bound only time stay counts in their own modules."""

MEMORY_BUDGET = 512 * 2**20


class BudgetError(ValueError):
    """Raised before an allocation whose estimate exceeds the budget."""


def check(what: str, nbytes: int) -> None:
    """Refuse `what` if its `nbytes` exceed MEMORY_BUDGET, read at call time."""
    if nbytes > MEMORY_BUDGET:
        raise BudgetError(
            f"{what} would take about {nbytes / 2**20:.0f} MiB, above the memory "
            f"budget of {MEMORY_BUDGET / 2**20:.0f} MiB"
        )
