import contextlib
import os

import pytest

SF_SMOKE = "/root/testdata/sf0.001"
SF_CORRECT = "/root/testdata/sf0.01"


@pytest.fixture(scope="session")
def ray_session():
    """Initialise Ray ONCE per pytest session (driver contract: library
    code never calls ray.init itself)."""
    import ray

    os.environ.setdefault("RAY_DEDUP_LOGS", "1")
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_smoke():
    return SF_SMOKE


@pytest.fixture(scope="session")
def sf_correct():
    return SF_CORRECT


def op_chain(op) -> str:
    """'Input -> Read... -> MapBatches(...)' for one executed DAG."""
    names = []

    def walk(o):
        for d in o.input_dependencies:
            walk(d)
        names.append(o.name)

    walk(op)
    return " -> ".join(names)


@pytest.fixture
def executions(monkeypatch):
    """Execution-budget recorder: ``with executions() as chains:`` lists
    the operator chain of every Ray Data execution launched inside the
    block (streaming-executor runs, counted by patching
    ``StreamingExecutor.execute`` as perfbench's tracer does). A budget
    test asserts ``len(chains) <= n, "\\n".join(chains)``, so its
    failure shows each execution's chain."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    execute = StreamingExecutor.execute

    @contextlib.contextmanager
    def record():
        chains: list[str] = []

        def counted(self, dag, *args, **kw):
            chains.append(op_chain(dag))
            return execute(self, dag, *args, **kw)

        monkeypatch.setattr(StreamingExecutor, "execute", counted)
        try:
            yield chains
        finally:
            monkeypatch.setattr(StreamingExecutor, "execute", execute)

    return record
