"""benchmarks/e2e reads this; ROADMAP item 2 deletes it."""


class TransformNode:
    """Never instantiated: a traced harness run rebinds :meth:`step`."""

    def step(self) -> bool:
        return False


SuspicionNode = AnalysisNode = TransformNode
