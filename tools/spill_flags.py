"""The ``--spill DIR [--phases N]`` flags shared by the dedup
benchmark tools: one disk landing policy (``stages.exchange.Spill``)
for every intermediate table, exchange and join of the run."""

from __future__ import annotations


def spill_from_argv(argv: list[str], default_dir: str | None = None):
    """Remove ``--spill DIR`` and ``--phases N`` from ``argv`` in place
    and return the ``Spill`` they describe. Without ``--spill`` the
    policy lands under ``default_dir``, or is None (in-plasma) when no
    default is given."""
    from sod_ray.stages.exchange import Spill

    def pop(flag: str) -> str | None:
        if flag not in argv:
            return None
        i = argv.index(flag)
        if i + 1 >= len(argv):
            raise SystemExit(f"{flag} needs a value")
        value = argv[i + 1]
        del argv[i : i + 2]
        return value

    path = pop("--spill") or default_dir
    phases = int(pop("--phases") or 1)
    if path is None:
        if phases != 1:
            raise SystemExit("--phases needs --spill")
        return None
    return Spill(path, phases)
