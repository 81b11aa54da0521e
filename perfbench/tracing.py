"""Per-layer spans and counts, recorded from outside the program.

`install` replaces the public functions of each gridask module with
wrappers that time every call and keep per-name totals in memory: calls,
span seconds, and the seconds covered by child spans (so self time is
span minus children).  Each name is patched where callers look it up:
`askzeta` binds `divisor_profile` and `image_size` at import and `cli`
binds `parse_grid`, so those are patched in both modules; `fastcount` is
imported lazily by its callers, so its module attribute is enough.
`rings` is not wrapped: it makes millions of calls per second, and its
cost shows inside the `modrep` and `linalg` spans.
"""
from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter

# (metric name, unit) in the order the traced run reports them.
PER_LAYER = [
    ("cli.run.calls", "count"),
    ("cli.check-admissible.s", "s"),
    ("cli.zeta-verify.s", "s"),
    ("cli.constant-rank.s", "s"),
    ("cli.orbital-check.s", "s"),
    ("cli.cc.s", "s"),
    ("cli.rank-dist.s", "s"),
    ("cli.ask.s", "s"),
    *[(f"askzeta.{fn}.{m}", unit)
      for fn in ("ask_orbit", "direct_profile_counts", "constant_rank_check",
                 "orbital_equivalence_check", "verify_prediction")
      for m, unit in (("calls", "count"), ("self_s", "s"))],
    ("askzeta.points_checked", "count"),
    ("modrep.orbit_matrix_at.calls", "count"),
    ("modrep.orbit_matrix_at.s", "s"),
    ("modrep.element.calls", "count"),
    ("modrep.element.s", "s"),
    ("linalg.divisor_profile.calls", "count"),
    ("linalg.divisor_profile.s", "s"),
    ("linalg.image_size.self_s", "s"),
    ("fastcount.profile_counts.calls", "count"),
    ("fastcount.profile_counts.self_s", "s"),
    ("fastcount.profile_counts.elements", "count"),
    ("fastcount.batched_profiles.calls", "count"),
    ("fastcount.batched_profiles.s", "s"),
    ("fastcount.batched_profiles.matrices", "count"),
    ("fastcount.batched_profiles.bytes_computed", "bytes"),
    ("fastcount.baer_orbit_count.s", "s"),
    ("nilpotent.conjugacy_count_bch.s", "s"),
    ("nilpotent.conjugacy_count_bch.group_order", "count"),
    ("nilpotent.baer_group_cc.self_s", "s"),
    ("nilpotent.baer_group_cc.group_order", "count"),
    ("predictions.series.calls", "count"),
    ("predictions.series.s", "s"),
    ("boardgame.is_admissible_game.self_s", "s"),
    ("boardgame.greedy_reduce.calls", "count"),
    ("boardgame.greedy_reduce.s", "s"),
    ("boardgame.certificate_ratio", "ratio"),
    ("colouring.parse_grid.s", "s"),
    ("stage.matrices_s", "s"),
    ("stage.kernel_s", "s"),
    ("stage.enumerate_aggregate_s", "s"),
    ("trace.overhead_s", "s"),
]

# Spans whose self time is stage 1 (points or coefficient tuples) plus
# stage 4 (aggregation into a Fraction or a Counter).
_ENUMERATE_AGGREGATE = (
    "askzeta.ask_orbit", "askzeta.direct_profile_counts",
    "askzeta.constant_rank_check", "askzeta.orbital_equivalence_check",
    "linalg.image_size", "fastcount.profile_counts",
)


class Tracer:
    """Per-name span totals: [calls, span seconds, child-span seconds]."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []

    def wrap(self, name, fn, count=None):
        """fn timed as a span; name is a string or a function of the args."""
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                rec = spans[name if isinstance(name, str) else name(args)]
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[0]
            if count is not None:
                count(self.counts, _arguments(fn, args, kwargs), result)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER value except trace.overhead_s."""
        out: dict[str, float] = {}
        for name, (calls, total, child) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = total - child
        out.update(self.counts)
        plays = out.get("boardgame.greedy_reduce.calls", 0)
        out["boardgame.certificate_ratio"] = (
            self.counts["boardgame.certificates"] / plays if plays else 0.0)

        def get(key: str) -> float:
            return out.get(key, 0)

        out["stage.matrices_s"] = get("modrep.orbit_matrix_at.s") + get("modrep.element.s")
        out["stage.kernel_s"] = (get("linalg.divisor_profile.s")
                                 + get("fastcount.batched_profiles.s"))
        out["stage.enumerate_aggregate_s"] = sum(get(f"{n}.self_s")
                                                 for n in _ENUMERATE_AGGREGATE)
        return {name: get(name) for name, _ in PER_LAYER if name != "trace.overhead_s"}


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _add(key: str, value):
    def count(counts, a, result):
        counts[key] += value(a, result)
    return count


def _batch_counts(counts, a, result) -> None:
    n, rows, cols = a["A"].shape
    counts["fastcount.batched_profiles.matrices"] += n
    counts["fastcount.batched_profiles.bytes_computed"] += n * rows * cols * 8


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer; call once per process."""
    from gridask import (askzeta, boardgame, cli, colouring, fastcount, linalg,
                         modrep, nilpotent, predictions)

    def patch(owners, attr, name, count=None):
        fn = getattr(owners[0], attr)
        for owner in owners[1:]:
            if getattr(owner, attr) is not fn:
                raise RuntimeError(f"{owner.__name__}.{attr} is not {name}")
        wrapped = tracer.wrap(name, fn, count)
        for owner in owners:
            setattr(owner, attr, wrapped)

    points = _add("askzeta.points_checked", lambda a, r: r.checked)
    patch([cli], "run", "cli.run")
    cli.run = tracer.wrap(lambda args: f"cli.{args[0][0]}", cli.run)
    patch([colouring, cli], "parse_grid", "colouring.parse_grid")
    patch([askzeta], "ask_orbit", "askzeta.ask_orbit")
    patch([askzeta], "direct_profile_counts", "askzeta.direct_profile_counts")
    patch([askzeta], "constant_rank_check", "askzeta.constant_rank_check", points)
    patch([askzeta], "orbital_equivalence_check", "askzeta.orbital_equivalence_check",
          points)
    patch([askzeta], "verify_prediction", "askzeta.verify_prediction")
    patch([modrep.ModuleRep], "orbit_matrix_at", "modrep.orbit_matrix_at")
    patch([modrep.ModuleRep], "element", "modrep.element")
    patch([linalg, askzeta], "divisor_profile", "linalg.divisor_profile")
    patch([linalg, askzeta], "image_size", "linalg.image_size")
    patch([fastcount], "profile_counts", "fastcount.profile_counts",
          _add("fastcount.profile_counts.elements",
               lambda a, r: (a["p"] ** a["n"]) ** len(a["gens"])))
    patch([fastcount], "batched_profiles", "fastcount.batched_profiles", _batch_counts)
    patch([fastcount], "baer_orbit_count", "fastcount.baer_orbit_count")
    patch([nilpotent], "conjugacy_count_bch", "nilpotent.conjugacy_count_bch",
          _add("nilpotent.conjugacy_count_bch.group_order",
               lambda a, r: (a["p"] ** a["n"]) ** a["alg"].dim))
    patch([nilpotent], "baer_group_cc", "nilpotent.baer_group_cc",
          _add("nilpotent.baer_group_cc.group_order",
               lambda a, r: a["p"] ** (len(a["rep"].I) + a["rep"].rank)))
    patch([predictions.Prediction], "series", "predictions.series")
    patch([boardgame], "is_admissible_game", "boardgame.is_admissible_game",
          _add("boardgame.certificates", lambda a, r: len(r.certificates)))
    patch([boardgame], "greedy_reduce", "boardgame.greedy_reduce")
