"""Persistent summary store: warm starts do near-zero transfers.

The workload is :func:`repro.lang.programs.wide_call_graph_source` again —
``main`` calling ``width`` independent nested-loop workers, so virtually
all analysis work is the workers' loop fixpoints.  For each persistent
backend (sqlite) and each context policy, the benchmark runs:

* ``cold``   — a fresh engine over a fresh, *empty* store: every worker
  summary is computed by demanded evaluation and written through;
* ``warm``   — a restarted engine (new process in spirit: a brand-new
  engine and a brand-new store handle reopened on the same path) over the
  same code: every summary lookup misses the in-memory memo table and hits
  the store, so no callee DAIG is ever evaluated;
* ``second`` — yet another engine on the same code and store, modelling a
  second analysis session (or machine) sharing the store.

Work counters are snapshotted immediately after the timed query and
*before* ``summary_digest()`` (the digest deliberately drives exhaustive
evaluation, which would bury the warm run's near-zero transfer count).
Digest equality — warm results == cold results, bit for bit, under every
policy — is the soundness certificate for serving summaries from disk.

A final ``mutated`` section warm-starts an engine, edits one worker
procedure, and re-queries: content-addressed invalidation must re-analyze
only the edited procedure (summary misses == O(dependent procedures), not
O(program)), and the result must equal a storeless engine that saw the
same edit.

Everything lands in ``BENCH_warm.json`` (override with
``REPRO_BENCH_WARM_JSON``); CI uploads it and asserts the warm-run
counters and digest equality on it.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.domains import IntervalDomain
from repro.interproc import InterproceduralEngine, policy_by_name
from repro.lang import ast as A
from repro.lang import build_program_cfgs, parse_program
from repro.lang.programs import wide_call_graph_source
from repro.store import open_store

POLICIES = ("context-insensitive", "1-call-site", "2-call-site")


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


def _scale():
    return (_env_int("REPRO_BENCH_WARM_WIDTH", 6),
            _env_int("REPRO_BENCH_WARM_LOOPS", 3),
            _env_int("REPRO_BENCH_WARM_BOUND", 40),
            _env_int("REPRO_BENCH_WARM_REPEATS", 2))


def _backends(tmp_root):
    """(backend name, fresh spec-string factory) for each persistent kind."""
    counters = {"n": 0}

    def fresh(kind):
        counters["n"] += 1
        base = os.path.join(tmp_root, "%s-%d" % (kind, counters["n"]))
        return "%s:%s.db" % (kind, base)

    names = os.environ.get("REPRO_BENCH_WARM_BACKENDS", "sqlite")
    return [(name.strip(), fresh) for name in names.split(",") if name.strip()]


def _build_cfgs(source):
    cfgs = build_program_cfgs(parse_program(source))
    for cfg in cfgs.values():
        cfg.ensure_structure()  # CFG lowering cost is not analysis
    return cfgs


def _timed_run(source, policy_name, store_spec):
    """Build an engine (a restart builds its engine too), answer the entry
    query, and snapshot counters *before* the digest's exhaustive drive."""
    policy = policy_by_name(policy_name)
    store = None if store_spec is None else open_store(store_spec)
    cfgs = _build_cfgs(source)
    started = time.perf_counter()
    engine = InterproceduralEngine(cfgs, IntervalDomain(), policy,
                                   store=store)
    engine.query_entry_exit()
    seconds = time.perf_counter() - started
    counters = dict(engine.counters)
    snapshot = {
        "seconds": seconds,
        "transfers": engine.total_stats()["transfers"],
        "summary_misses": counters["interproc_summary_misses"],
        "summary_hits": counters["interproc_summary_hits"],
        "store_hits": counters["interproc_store_hits"],
        "store_misses": counters["interproc_store_misses"],
        "store_writes": counters["interproc_store_writes"],
        "store_errors": counters["interproc_store_errors"],
        "callsite_scans": counters["interproc_callsite_scans"],
    }
    snapshot["digest"] = engine.summary_digest()
    return engine, snapshot


def _noise_edit(pe):
    pe.insert_statement_after(pe.cfg.entry, A.AssignStmt("noise", A.IntLit(1)))


def _mutated_section(source, spec, procedures):
    """Warm-start, edit one worker, re-query: invalidation must be local."""
    _timed_run(source, "context-insensitive", spec)  # populate the store
    engine, warm = _timed_run(source, "context-insensitive", spec)
    before = dict(engine.counters)
    engine.edit_procedure("work0", _noise_edit)
    engine.query_entry_exit()
    after = dict(engine.counters)
    digest = engine.summary_digest()

    # The oracle: a storeless engine that saw the same edit.
    oracle, _ = _timed_run(source, "context-insensitive", None)
    oracle.edit_procedure("work0", _noise_edit)
    oracle.query_entry_exit()

    return {
        "edited": "work0",
        "procedures": procedures,
        "warm_misses_before_edit": warm["summary_misses"],
        "misses_after_edit": (after["interproc_summary_misses"]
                              - before["interproc_summary_misses"]),
        "store_writes_after_edit": (after["interproc_store_writes"]
                                    - before["interproc_store_writes"]),
        "digest": digest,
        "digest_oracle": oracle.summary_digest(),
    }


@pytest.fixture(scope="module")
def warm_results(tmp_path_factory):
    """Measure every backend x policy and write BENCH_warm.json."""
    width, loops, bound, repeats = _scale()
    source = wide_call_graph_source(width, inner_loops=loops, bound=bound)
    tmp_root = str(tmp_path_factory.mktemp("warm-store"))

    backends = {}
    for backend, fresh in _backends(tmp_root):
        policies = {}
        for policy_name in POLICIES:
            section = None
            for _repeat in range(max(1, repeats)):
                spec = fresh(backend)  # cold means a fresh, empty store
                _, cold = _timed_run(source, policy_name, spec)
                _, warm = _timed_run(source, policy_name, spec)
                _, second = _timed_run(source, policy_name, spec)
                if section is None:
                    section = {"cold": cold, "warm": warm, "second": second}
                else:
                    # Counters and digests are identical across repeats;
                    # keep per-run best wall clock (noise on tiny scales).
                    for run, snapshot in (("cold", cold), ("warm", warm),
                                          ("second", second)):
                        if snapshot["seconds"] < section[run]["seconds"]:
                            section[run]["seconds"] = snapshot["seconds"]
            assert section is not None
            section["speedup_warm"] = (
                section["cold"]["seconds"] / section["warm"]["seconds"]
                if section["warm"]["seconds"] > 0 else 0.0)
            section["speedup_second"] = (
                section["cold"]["seconds"] / section["second"]["seconds"]
                if section["second"]["seconds"] > 0 else 0.0)
            policies[policy_name] = section
        backends[backend] = {
            "policies": policies,
            "mutated": _mutated_section(source, fresh(backend), width + 1),
        }

    artifact = {
        "workload": {"width": width, "inner_loops": loops, "bound": bound,
                     "repeats": repeats, "domain": "interval",
                     "procedures": width + 1},
        "backends": backends,
    }
    path = os.environ.get("REPRO_BENCH_WARM_JSON", "BENCH_warm.json")
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
    return artifact


def test_warm_runs_do_near_zero_transfers(warm_results):
    """A restarted engine — and a second engine on the same store — serves
    every summary from disk: zero summary misses, zero writes, and only
    the entry procedure's own body is ever evaluated."""
    for backend, data in warm_results["backends"].items():
        for policy, section in data["policies"].items():
            where = "%s/%s" % (backend, policy)
            assert section["cold"]["summary_misses"] > 0, where
            assert section["cold"]["store_writes"] > 0, where
            for run in ("warm", "second"):
                assert section[run]["summary_misses"] == 0, (where, run)
                assert section[run]["store_writes"] == 0, (where, run)
                assert section[run]["store_errors"] == 0, (where, run)
                assert section[run]["store_hits"] >= 1, (where, run)
                # "Near zero": the entry body's handful of transfers, an
                # order of magnitude under the cold run's loop fixpoints.
                assert (section[run]["transfers"] * 10
                        <= section["cold"]["transfers"]), (where, run)


def test_warm_results_equal_cold_results(warm_results):
    """Digest-certified: serving summaries from the persistent store yields
    bit-for-bit the results of demanded evaluation, under every policy."""
    for backend, data in warm_results["backends"].items():
        for policy, section in data["policies"].items():
            where = "%s/%s" % (backend, policy)
            assert section["warm"]["digest"] == section["cold"]["digest"], where
            assert section["second"]["digest"] == section["cold"]["digest"], where


def test_warm_query_speedup(warm_results):
    """The headline: restart-and-query is >= 5x faster than cold analysis
    (the warm run replaces every worker loop fixpoint with a store read)."""
    for backend, data in warm_results["backends"].items():
        for policy, section in data["policies"].items():
            where = "%s/%s" % (backend, policy)
            print("\n%s: cold %.4fs warm %.4fs second %.4fs "
                  "(warm %.1fx, second %.1fx)"
                  % (where, section["cold"]["seconds"],
                     section["warm"]["seconds"], section["second"]["seconds"],
                     section["speedup_warm"], section["speedup_second"]))
            assert section["speedup_warm"] >= 5.0, where
            assert section["speedup_second"] >= 5.0, where


def test_mutated_warm_start_invalidates_locally(warm_results):
    """Editing one worker after a warm start re-analyzes O(dependent
    procedures), not the program: exactly the edited worker's summary
    misses (its digest changed), everything else stays served."""
    for backend, data in warm_results["backends"].items():
        mutated = data["mutated"]
        assert mutated["warm_misses_before_edit"] == 0, backend
        assert 1 <= mutated["misses_after_edit"] <= 2, backend
        assert mutated["misses_after_edit"] < mutated["procedures"], backend
        assert mutated["digest"] == mutated["digest_oracle"], backend


def test_warm_locality_counters_unchanged(warm_results):
    """The store tier must not regress the locality invariant: no
    call-site scans on any run."""
    for backend, data in warm_results["backends"].items():
        for policy, section in data["policies"].items():
            for run in ("cold", "warm", "second"):
                assert section[run]["callsite_scans"] == 0, (backend, policy, run)
