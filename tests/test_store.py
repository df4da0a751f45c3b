"""Tests for the persistent content-addressed summary store.

Three layers:

* the store backends themselves (round trips, corruption tolerance, the
  wire format header);
* the content digests (restart/binding-order/no-op invariance, change
  exactly when the procedure or a transitive callee changes, stability
  across real child processes);
* the engine integration (warm starts equal cold runs under every policy,
  LRU eviction recovers through the store, garbage collection expires the
  store entries of orphaned contexts).
"""

import os
import pickle
import sqlite3
import subprocess
import sys
import threading

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro
from helpers import SHARED_CALLEE_EDITED_SOURCE, SHARED_CALLEE_SOURCE
from repro.domains import IntervalDomain
from repro.interproc import InterproceduralEngine, policy_by_name
from repro.lang import ast as A
from repro.lang import build_program_cfgs, parse_expression, parse_program
from repro.lang.cfg import Cfg
from repro.lang.programs import wide_call_graph_source
from repro.store import (
    STORE_FORMAT_VERSION,
    STORE_MAGIC,
    InMemorySummaryStore,
    SqliteSummaryStore,
    StoreDecodeError,
    canonical_bytes,
    canonical_digest,
    cfg_digest,
    decode_summary,
    encode_summary,
    open_store,
    summary_store_key,
)
from repro.workload import WorkloadGenerator
from repro.workload.edits import relabel_assignment

COMMON_SETTINGS = dict(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

POLICIES = ("insensitive", "1-call-site", "2-call-site")

CHAIN_PROGRAM = """
function leaf(x) {
  return x + 1;
}

function middle(y) {
  var m = leaf(y);
  return m;
}

function main() {
  var small = middle(1);
  var big = middle(100);
  return small + big;
}
"""

#: CHAIN_PROGRAM one call level deeper: main -> middle -> inner -> leaf.
DEEP_CHAIN_PROGRAM = """
function leaf(x) { return x + 1; }
function inner(z) { var i = leaf(z); return i; }
function middle(y) { var m = inner(y); return m; }
function main() { var small = middle(1); var big = middle(100); return small + big; }
"""

DIAMOND_PROGRAM = """
function leaf(x) { return x + 1; }
function left(y) { var l = leaf(y); return l; }
function right(z) { var r = leaf(z); return r + 10; }
function main() { var a = left(1); var b = right(2); return a + b; }
"""

EVEN_ODD_PROGRAM = """
function even(n) { var r = 1; if (n > 0) { var m = n - 1; r = odd(m); } return r; }
function odd(n) { var r = 0; if (n > 0) { var m = n - 1; r = even(m); } return r; }
function main() { var z = even(6); return z; }
"""


def cfgs_of(source):
    return build_program_cfgs(parse_program(source))


def _fresh_copy(cfgs):
    return {name: cfg.copy() for name, cfg in cfgs.items()}


def _generic_cfg_digest(cfg):
    """``cfg_digest`` through the generic encoder: the formula the
    per-edge fragments must reproduce byte for byte."""
    return canonical_digest((
        "cfg", cfg.name, tuple(cfg.params), cfg.entry, cfg.exit,
        tuple(sorted((e.src, e.dst, str(e.stmt)) for e in cfg.edges))))


def _noise(pe):
    pe.insert_statement_after(pe.cfg.entry, A.AssignStmt("noise", A.IntLit(1)))


class _BuildEveryDaig(InterproceduralEngine):
    """Builds each DAIG when its engine is created: the reference for
    engines that build on demand."""

    def _engine_for(self, name, context, entry_state):
        engine = super()._engine_for(name, context, entry_state)
        engine.materialize()
        return engine


def _make_store(kind, tmp_path, tag=""):
    if kind == "memory":
        return InMemorySummaryStore()
    return SqliteSummaryStore(str(tmp_path / ("s%s.db" % tag)))


def _run_child(script, *args):
    """Run ``script`` in a fresh interpreter on this checkout's ``repro``,
    with ``CHAIN_PROGRAM`` on its stdin; return its standard output."""
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src_dir, env.get("PYTHONPATH")) if part)
    completed = subprocess.run(
        [sys.executable, "-c", script, *args],
        input=CHAIN_PROGRAM.encode(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=env, check=False)
    assert completed.returncode == 0, completed.stderr.decode()
    return completed.stdout.decode()


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
class TestBackends:
    def test_round_trip_and_delete(self, kind, tmp_path):
        store = _make_store(kind, tmp_path)
        assert store.get("missing") is None
        store.put("k1", b"abc")
        store.put("k2", b"def")
        assert store.get("k1") == b"abc"
        assert len(store) == 2
        assert sorted(store.keys()) == ["k1", "k2"]
        store.put("k1", b"xyz")  # overwrite, not duplicate
        assert store.get("k1") == b"xyz"
        assert len(store) == 2
        assert store.delete("k1") is True
        assert store.delete("k1") is False
        assert store.get("k1") is None
        store.clear()
        assert len(store) == 0
        stats = store.stats()
        assert stats["kind"] == kind
        assert stats["hits"] == 2 and stats["puts"] == 3

    def test_persistence_across_handles(self, kind, tmp_path):
        store = _make_store(kind, tmp_path)
        store.put("key", b"payload")
        store.close()
        if kind == "memory":
            return  # a dict store has nothing to reopen
        reopened = open_store("sqlite:%s" % store.path)
        assert reopened.get("key") == b"payload"

    def test_one_handle_shared_between_threads(self, kind, tmp_path):
        """One lock in the base class (and, for sqlite, a connection opened
        with ``check_same_thread=False``) lets threads share a handle."""
        store = _make_store(kind, tmp_path)
        errors = []

        def worker(tid):
            try:
                for i in range(25):
                    key = "t%d-%d" % (tid, i)
                    store.put(key, key.encode())
                    assert store.get(key) == key.encode()
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(tid,))
                   for tid in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(store) == 100
        stats = store.stats()
        assert stats["errors"] == 0
        assert stats["puts"] == stats["gets"] == stats["hits"] == 100
        store.close()


class TestSqliteJournal:
    """The sqlite store journals through a write-ahead log and keeps
    sqlite's FULL synchronous level, so a put is durable when it returns."""

    @staticmethod
    def _journal(store):
        conn = store._conn
        return (conn.execute("PRAGMA journal_mode").fetchone()[0],
                conn.execute("PRAGMA synchronous").fetchone()[0])

    def test_puts_are_fsynced_log_appends_that_other_handles_see(
            self, tmp_path):
        path = str(tmp_path / "s.db")
        fresh = SqliteSummaryStore(path)
        assert self._journal(fresh) == ("wal", 2)
        fresh.put("k1", b"abc")
        fresh.close()
        reopened = SqliteSummaryStore(path)
        second = open_store("sqlite:%s" % path)
        for store in (reopened, second):
            assert self._journal(store) == ("wal", 2)
        reopened.put("k2", b"def")
        assert second.get("k2") == b"def"
        assert second.get("k1") == b"abc"
        reopened.close()
        second.close()
        assert os.listdir(tmp_path) == ["s.db"]

    def test_a_log_left_by_a_killed_process_serves_the_next_warm_start(
            self, tmp_path):
        """A child interpreter fills a store and exits without closing it,
        leaving its log unmerged; the next warm start reads every summary
        it committed."""
        path = str(tmp_path / "killed.db")
        child_script = (
            "import os, sys\n"
            "from repro.domains import IntervalDomain\n"
            "from repro.interproc import InterproceduralEngine\n"
            "from repro.lang import build_program_cfgs, parse_program\n"
            "engine = InterproceduralEngine(\n"
            "    build_program_cfgs(parse_program(sys.stdin.read())),\n"
            "    IntervalDomain(), store='sqlite:' + sys.argv[1])\n"
            "engine.query_entry_exit()\n"
            "os._exit(0)\n"
        )
        _run_child(child_script, path)
        assert os.path.exists(path + "-wal")

        # While this connection is open no close can merge the child's
        # log, so the warm start below reads through it.
        conn = sqlite3.connect(path)
        try:
            assert conn.execute("PRAGMA integrity_check").fetchall() == [
                ("ok",)]
            domain = IntervalDomain()
            warm = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain,
                                         store="sqlite:%s" % path)
            warm.query_entry_exit()
            assert warm.counters["interproc_summary_misses"] == 0
            oracle = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain)
            assert warm.summary_digest() == oracle.summary_digest()
            warm.store.close()
        finally:
            conn.close()
        assert os.listdir(tmp_path) == ["killed.db"]

    def test_a_new_store_is_complete_when_its_constructor_returns(
            self, tmp_path):
        path = str(tmp_path / "new.db")
        store = SqliteSummaryStore(path)
        conn = sqlite3.connect(path)
        try:
            assert conn.execute("PRAGMA journal_mode").fetchone() == ("wal",)
            assert conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            ).fetchall() == [("summaries",)]
        finally:
            conn.close()
        # No temp file and no rollback journal: only the open handle's
        # log and index sit beside the store.
        assert sorted(os.listdir(tmp_path)) == [
            "new.db", "new.db-shm", "new.db-wal"]
        assert self._journal(store) == ("wal", 2)
        store.close()

    def test_a_store_made_at_the_path_meanwhile_keeps_its_rows(
            self, tmp_path, monkeypatch):
        """Another creator makes the store between this one's existence
        check and its link: the link fails, and this creator opens that
        store, live log included, instead of replacing it."""
        path = str(tmp_path / "raced.db")
        # Rows on more pages than the live log holds, so a different
        # database file under that log would lose some of them.
        merged = {"m%02d" % index: bytes((index,)) * 1024
                  for index in range(20)}
        rival = SqliteSummaryStore(path)
        for key, blob in merged.items():
            rival.put(key, blob)
        rival.close()  # the last close merges the log into the file
        rival = SqliteSummaryStore(path)
        rival.put("logged", b"log")
        checked = []
        lexists = os.path.lexists

        def absent_at_the_check(name):
            if name == path:
                checked.append(name)
                return False
            return lexists(name)

        monkeypatch.setattr(os.path, "lexists", absent_at_the_check)
        late = SqliteSummaryStore(path)
        monkeypatch.undo()
        assert checked == [path]
        assert self._journal(late) == ("wal", 2)
        assert {key: late.get(key) for key in merged} == merged
        assert late.get("logged") == b"log"
        late.put("late", b"late")
        assert rival.get("late") == b"late"
        assert late.stats()["errors"] == rival.stats()["errors"] == 0
        late.close()
        rival.close()
        assert os.listdir(tmp_path) == ["raced.db"]

    def test_an_empty_file_opens_in_wal_at_full(self, tmp_path):
        path = tmp_path / "empty.db"
        path.write_bytes(b"")
        store = SqliteSummaryStore(str(path))
        assert self._journal(store) == ("wal", 2)
        store.put("k1", b"abc")
        assert store.get("k1") == b"abc"
        store.close()
        assert os.listdir(tmp_path) == ["empty.db"]


class TestUnopenableSqlitePath:
    """A path sqlite cannot open degrades to a store that always misses:
    the engine answers as without a store, and the path is left as it
    was."""

    @staticmethod
    def _answers_as_storeless(path):
        domain = IntervalDomain()
        engine = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain,
                                       store="sqlite:%s" % path)
        oracle = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain)
        assert domain.equal(engine.query_entry_exit(),
                            oracle.query_entry_exit())
        assert engine.summary_digest() == oracle.summary_digest()
        stats = engine.store.stats()
        assert stats["errors"] > 0
        assert stats["hits"] == stats["entries"] == 0
        engine.store.close()

    def test_a_file_that_is_not_a_database(self, tmp_path):
        path = tmp_path / "junk.db"
        junk = bytes(range(256)) * 16
        path.write_bytes(junk)
        self._answers_as_storeless(path)
        assert path.read_bytes() == junk
        assert os.listdir(tmp_path) == ["junk.db"]

    def test_a_directory(self, tmp_path):
        path = tmp_path / "dir.db"
        path.mkdir()
        self._answers_as_storeless(path)
        assert os.listdir(tmp_path) == ["dir.db"]
        assert os.listdir(path) == []


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


class TestWireFormat:
    def test_encode_decode_reinterns(self):
        domain = IntervalDomain()
        state = domain.initial(["x", "y"])
        blob = encode_summary(state)
        assert blob.startswith(STORE_MAGIC)
        assert blob[len(STORE_MAGIC)] == STORE_FORMAT_VERSION
        # Interned states re-intern on decode: identity, not just equality.
        assert decode_summary(blob) is state

    @pytest.mark.parametrize("blob", [
        b"",
        b"RP",
        b"XXXX" + bytes((STORE_FORMAT_VERSION,)) + b"junk",
        STORE_MAGIC + bytes((99,)) + b"future-version",
        STORE_MAGIC + bytes((STORE_FORMAT_VERSION,)) + b"not-a-pickle",
    ])
    def test_bad_blobs_raise_decode_error(self, blob):
        with pytest.raises(StoreDecodeError):
            decode_summary(blob)

    def test_open_store_specs(self, tmp_path):
        assert open_store("memory").kind == "memory"
        assert open_store("sqlite:%s" % (tmp_path / "a.db")).kind == "sqlite"
        for spec in ("carrier-pigeon:nowhere", "blob:%s" % (tmp_path / "b")):
            with pytest.raises(ValueError):
                open_store(spec)

    def test_engine_rejects_unknown_store_specs(self, tmp_path):
        # A store is always named explicitly; "env" is not a spec.
        for spec in ("env", "blob:%s" % (tmp_path / "b")):
            with pytest.raises(ValueError):
                InterproceduralEngine(cfgs_of(CHAIN_PROGRAM),
                                      IntervalDomain(), store=spec)


# ---------------------------------------------------------------------------
# Content digests
# ---------------------------------------------------------------------------


class TestDigests:
    def test_restart_invariance(self):
        one = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), IntervalDomain())
        two = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), IntervalDomain())
        for name in one.cfgs:
            assert one.code_digest(name) == two.code_digest(name)
            assert one.deep_digest(name) == two.deep_digest(name)

    def test_binding_order_invariance(self):
        cfgs = cfgs_of(CHAIN_PROGRAM)
        reversed_cfgs = dict(reversed(list(cfgs.items())))
        one = InterproceduralEngine(_fresh_copy(cfgs), IntervalDomain())
        two = InterproceduralEngine(_fresh_copy(reversed_cfgs),
                                    IntervalDomain())
        for name in cfgs:
            assert one.deep_digest(name) == two.deep_digest(name)

    def test_noop_edit_keeps_digests(self):
        engine = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM),
                                       IntervalDomain())
        before = {name: engine.deep_digest(name) for name in engine.cfgs}

        def replace_with_same(pe):
            edge = next(e for e in pe.find_edges()
                        if isinstance(e.stmt, A.AssignStmt))
            pe.replace_statement(edge, edge.stmt)

        engine.edit_procedure("leaf", replace_with_same)
        after = {name: engine.deep_digest(name) for name in engine.cfgs}
        assert before == after

    def test_digest_changes_iff_procedure_or_callee_changes(self):
        engine = InterproceduralEngine(cfgs_of(DIAMOND_PROGRAM),
                                       IntervalDomain())
        before_deep = {name: engine.deep_digest(name) for name in engine.cfgs}
        before_code = {name: engine.code_digest(name) for name in engine.cfgs}
        engine.edit_procedure("leaf", _noise)
        after_deep = {name: engine.deep_digest(name) for name in engine.cfgs}
        after_code = {name: engine.code_digest(name) for name in engine.cfgs}
        # The edited procedure's own code digest moved; nobody else's did.
        assert after_code["leaf"] != before_code["leaf"]
        for name in ("left", "right", "main"):
            assert after_code[name] == before_code[name], name
        # Deep digests moved for the procedure and every transitive caller.
        for name in ("leaf", "left", "right", "main"):
            assert after_deep[name] != before_deep[name], name

        # Editing a *caller* leaves the callee's deep digest alone.
        before_deep = after_deep
        engine.edit_procedure("left", _noise)
        assert engine.deep_digest("leaf") == before_deep["leaf"]
        assert engine.deep_digest("right") == before_deep["right"]
        assert engine.deep_digest("left") != before_deep["left"]
        assert engine.deep_digest("main") != before_deep["main"]

    def test_recursive_component_shares_one_digest(self):
        engine = InterproceduralEngine(cfgs_of(EVEN_ODD_PROGRAM),
                                       IntervalDomain())
        assert engine.deep_digest("even") == engine.deep_digest("odd")
        assert engine.deep_digest("even") != engine.deep_digest("main")
        before = engine.deep_digest("even")
        engine.edit_procedure("odd", _noise)
        assert engine.deep_digest("even") == engine.deep_digest("odd")
        assert engine.deep_digest("even") != before

    def test_digest_survives_a_real_child_process(self):
        """Content addressing only works if a different interpreter process
        computes the very same digests for the very same source."""
        child_script = (
            "import sys\n"
            "from repro.lang import build_program_cfgs, parse_program\n"
            "from repro.domains import IntervalDomain\n"
            "from repro.interproc import InterproceduralEngine\n"
            "source = sys.stdin.read()\n"
            "engine = InterproceduralEngine(\n"
            "    build_program_cfgs(parse_program(source)), IntervalDomain())\n"
            "for name in sorted(engine.cfgs):\n"
            "    print(name, engine.deep_digest(name))\n"
        )
        child = dict(line.split()
                     for line in _run_child(child_script).splitlines())
        engine = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM),
                                       IntervalDomain())
        assert child == {name: engine.deep_digest(name)
                         for name in engine.cfgs}

    def test_store_key_depends_on_every_component(self):
        domain = IntervalDomain()
        entry = domain.initial(["x"])
        base = summary_store_key("interval", "f", (), "d1", entry)
        assert base != summary_store_key("octagon", "f", (), "d1", entry)
        assert base != summary_store_key("interval", "g", (), "d1", entry)
        assert base != summary_store_key("interval", "f", ("s",), "d1", entry)
        assert base != summary_store_key("interval", "f", (), "d2", entry)
        other = domain.bottom()
        assert not domain.equal(entry, other)
        assert base != summary_store_key("interval", "f", (), "d1", other)
        # And is reproducible.
        assert base == summary_store_key("interval", "f", (), "d1", entry)

    def test_digests_and_store_keys_keep_their_bytes(self):
        """Stores written by earlier versions keep hitting only while
        every digest, and so every store key, keeps its exact bytes."""
        cfgs = cfgs_of(wide_call_graph_source(2, inner_loops=1))
        assert {name: cfg_digest(cfgs[name])
                for name in ("main", "work0", "work1")} == {
            "main": "7c2141861135de1beb4f663f07d432cc"
                    "2ec5f279445b454b6c0a76b45774fed8",
            "work0": "c8ae94a1ffb6b65b5d264041a8cd0d49"
                     "6efd7e2701a2f2d9dc37789331223a1e",
            "work1": "6c66043674b536a619f6c2a4e5c2aa28"
                     "96fee8ec61603060e28ec76d4966da0f",
        }
        engine = InterproceduralEngine(
            cfgs, IntervalDomain(), policy_by_name("context-insensitive"))
        deep = engine.deep_digest("main")
        assert deep == ("c3a006b434c61ace134c77a1b2a59e75"
                        "7ec92ee5afbdeb8b286b61141fb5ae3e")
        assert summary_store_key(
            "interval", "main", (), deep, IntervalDomain().initial([])) == (
            "a930a31415d4eeeafd1eeb1082b901c6"
            "7a1f813e2f3cbab6751a912938a3dc7e")

    @pytest.mark.parametrize("seed", [3, 185, 2045])
    def test_cached_fragments_equal_the_generic_encoding_after_every_edit(
            self, seed):
        """Each edge caches its own encoding; edits replace edges, so the
        digest of a graph edited in place must never go stale."""
        cfg = Cfg("main")
        cfg.add_edge(cfg.entry, A.SkipStmt(), cfg.exit)
        for step in WorkloadGenerator(seed).generate(60):
            step.edit.apply_to_cfg(cfg)
            assert cfg_digest(cfg) == _generic_cfg_digest(cfg)

    def test_cached_fragments_equal_the_generic_encoding_on_a_program(self):
        workload = WorkloadGenerator(seed=2045).generate_multiprocedure(
            edits=30, procedures=4)
        cfgs = workload.fresh_cfgs()
        for step in workload.steps:
            step.edit.apply_to_cfg(cfgs[step.procedure])
            for cfg in cfgs.values():
                assert cfg_digest(cfg) == _generic_cfg_digest(cfg)

    def test_cached_fragments_follow_raw_edge_surgery(self):
        """Parallel edges sort by statement text, not by the encoded bytes
        (which order a shorter text first): ``x = 10`` precedes ``y = 1``."""
        cfg = cfgs_of(CHAIN_PROGRAM)["main"]
        before = cfg_digest(cfg)
        loc = cfg.fresh_loc()
        edges = [cfg.add_edge(cfg.entry, A.AssignStmt(name, A.IntLit(value)),
                              loc)
                 for name, value in (("y", 1), ("x", 10))]
        assert cfg_digest(cfg) == _generic_cfg_digest(cfg) != before
        for edge in edges:
            cfg.remove_edge(edge)
        assert cfg_digest(cfg) == _generic_cfg_digest(cfg) == before

    def test_copies_pickles_and_reparses_digest_alike(self):
        """A copy shares the digested edges and their cached fragments; a
        pickle leaves the fragments out, so a graph pickles to the same
        bytes before and after it is digested."""
        source = wide_call_graph_source(2, inner_loops=1)
        cfg = cfgs_of(source)["work1"]
        pickled = pickle.dumps(cfg)
        digest = cfg_digest(cfg)
        assert digest == _generic_cfg_digest(cfg)
        assert pickle.dumps(cfg) == pickled
        for other in (cfg.copy(), pickle.loads(pickle.dumps(cfg)),
                      cfgs_of(source)["work1"]):
            assert cfg_digest(other) == _generic_cfg_digest(other) == digest

    def test_canonical_bytes_rejects_unknown_types(self):
        class Mystery:
            pass

        with pytest.raises(TypeError):
            canonical_bytes(Mystery())


# ---------------------------------------------------------------------------
# Engine integration: warm starts
# ---------------------------------------------------------------------------


class TestWarmStart:
    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_warm_engine_equals_cold_engine(self, policy_name, tmp_path):
        domain = IntervalDomain()
        store = _make_store("sqlite", tmp_path)
        cold = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain,
                                     policy_by_name(policy_name), store=store)
        cold_digest = cold.summary_digest()
        assert cold.counters["interproc_store_writes"] > 0

        warm = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain,
                                     policy_by_name(policy_name),
                                     store=open_store("sqlite:%s" % store.path))
        warm.query_entry_exit()
        assert warm.counters["interproc_summary_misses"] == 0
        assert warm.counters["interproc_store_hits"] > 0
        assert warm.counters["interproc_store_writes"] == 0
        assert warm.summary_digest() == cold_digest

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_restarts_serve_a_wide_call_graph_from_the_store(
            self, policy_name, tmp_path):
        """Two engines restarted on the cold run's store serve every
        summary from it, at a tenth of the cold run's transfers at most,
        and build only main's DAIG: a store-served worker gets neither a
        DAIG nor a structure analysis.  Editing one worker afterwards
        misses one or two summaries, not the program's six, and ends
        digest-equal to a storeless engine given the same edit."""
        source = wide_call_graph_source(5, inner_loops=2)
        domain = IntervalDomain()
        policy = policy_by_name(policy_name)
        spec = "sqlite:%s" % (tmp_path / "wide.db")

        def open_and_query(store, cfgs=None):
            engine = InterproceduralEngine(cfgs or cfgs_of(source), domain,
                                           policy, store=store)
            engine.query_entry_exit()
            return engine

        def worker_full_builds(cfgs):
            return {name: cfg.structure_stats()["structure_full_builds"]
                    for name, cfg in cfgs.items() if name.startswith("work")}

        cold_transfers = open_and_query(spec).total_stats()["transfers"]
        for _restart in range(2):
            cfgs = cfgs_of(source)
            builds_before = worker_full_builds(cfgs)
            warm = open_and_query(spec, cfgs)
            assert warm.counters["interproc_summary_misses"] == 0
            assert warm.counters["interproc_store_writes"] == 0
            assert warm.counters["interproc_store_errors"] == 0
            assert warm.counters["interproc_store_hits"] >= 1
            assert 10 * warm.total_stats()["transfers"] <= cold_transfers
            assert warm.total_stats()["daigs"] == 1
            assert worker_full_builds(cfgs) == builds_before

        warm.edit_procedure("work0", _noise)
        warm.query_entry_exit()
        assert 1 <= warm.counters["interproc_summary_misses"] <= 2
        oracle = open_and_query(None)
        oracle.edit_procedure("work0", _noise)
        oracle.query_entry_exit()
        assert warm.summary_digest() == oracle.summary_digest()

    def test_a_store_hit_computes_its_key_once(self, tmp_path, monkeypatch):
        """A warm open of the wide program serves its eight workers from
        the store and computes each one's store key once: the hit hands
        the key its lookup computed on to the install."""
        source = wide_call_graph_source(8, inner_loops=1)
        domain = IntervalDomain()
        policy = policy_by_name("context-insensitive")
        spec = "sqlite:%s" % (tmp_path / "wide.db")
        cold = InterproceduralEngine(cfgs_of(source), domain, policy,
                                     store=spec)
        cold.query_entry_exit()
        cold_digest = cold.summary_digest()
        cold.store.close()
        computed = []

        def counting_key(*args):
            computed.append(args)
            return summary_store_key(*args)

        monkeypatch.setattr("repro.interproc.engine.summary_store_key",
                            counting_key)
        warm = InterproceduralEngine(cfgs_of(source), domain, policy,
                                     store=spec)
        warm.query_entry_exit()
        assert warm.counters["interproc_store_hits"] == 8
        assert warm.counters["interproc_store_misses"] == 0
        assert len(computed) == 8
        assert warm.summary_digest() == cold_digest
        warm.store.close()

    def test_a_miss_then_write_computes_its_key_once(self, tmp_path,
                                                     monkeypatch):
        """A store miss hands the key it computed on to the write that
        follows: a coordinated cold open of the wide program on a fresh
        store misses and writes its eight leaves' seeded summaries with one
        key each, and one semantic edit of a worker misses and writes with
        one."""
        from repro.parallel import ParallelCoordinator, PersistentWorkerPool

        computed = []

        def counting_key(*args):
            computed.append(args)
            return summary_store_key(*args)

        monkeypatch.setattr("repro.interproc.engine.summary_store_key",
                            counting_key)
        engine = InterproceduralEngine(
            cfgs_of(wide_call_graph_source(8, inner_loops=1)),
            IntervalDomain(), policy_by_name("context-insensitive"),
            store="sqlite:%s" % (tmp_path / "wide.db"))
        with PersistentWorkerPool(workers=2, kind="serial") as pool:
            report = ParallelCoordinator(engine, pool).run()
        engine.query_entry_exit()
        assert report["certified"] == report["jobs"] == 8
        assert not report["errors"]
        assert engine.counters["interproc_store_misses"] == 8
        assert engine.counters["interproc_store_writes"] == 8
        assert len(computed) == 8
        del computed[:]
        engine.edit_procedure("work3", _noise)
        engine.query_entry_exit()
        assert engine.counters["interproc_store_misses"] == 9
        assert engine.counters["interproc_store_writes"] == 9
        assert len(computed) == 1
        engine.store.close()

    @pytest.mark.parametrize("policy_name", POLICIES)
    @pytest.mark.parametrize("source", [CHAIN_PROGRAM, DEEP_CHAIN_PROGRAM],
                             ids=["chain", "deep-chain"])
    def test_editing_below_a_store_served_callee_dirties_its_callers(
            self, source, policy_name):
        """A warm start serves ``middle`` from the store without building
        its DAIG, so ``middle`` has no call cell for ``leaf`` to dirty;
        editing ``leaf`` must still dirty ``main``'s calls to ``middle``.
        In the deep chain ``inner`` gets no engine at all, so the walk up
        from ``leaf`` must pass through a caller that has none."""
        domain = IntervalDomain()
        policy = policy_by_name(policy_name)
        store = InMemorySummaryStore()
        InterproceduralEngine(cfgs_of(source), domain, policy,
                              store=store).query_entry_exit()
        warm = InterproceduralEngine(cfgs_of(source), domain, policy,
                                     store=store)
        oracle = InterproceduralEngine(cfgs_of(source), domain, policy)
        for engine in (warm, oracle):
            engine.query_entry_exit()
            engine.edit_procedure("leaf", relabel_assignment(
                A.RETURN_VARIABLE, parse_expression("x + 5")))
        assert warm.counters["interproc_store_hits"] >= 1
        assert domain.equal(warm.query_entry_exit(), oracle.query_entry_exit())
        assert warm.summary_digest() == oracle.summary_digest()

    @settings(**COMMON_SETTINGS)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           policy_name=st.sampled_from(POLICIES))
    @example(seed=1906, policy_name="insensitive")
    @example(seed=2399, policy_name="insensitive")
    def test_edits_after_a_warm_start_answer_as_with_every_daig_built(
            self, seed, policy_name):
        """Property: a warm-started engine, whose store-served procedures
        have no DAIG, answers every query in a further edit stream exactly
        like one that builds each DAIG as soon as its engine exists, and
        every query of the entry procedure exactly like a storeless engine
        given the same stream.

        Retraction walks what each caller recorded, in key order, so when a
        DAIG is built cannot change an answer, not even for a procedure an
        edit left without callers, whose stale entry target depends on the
        order its call sites are retracted in (the two examples differed
        when retraction followed the order DAIGs were built in).  Against
        the storeless engine only the entry procedure is compared: a direct
        query of another procedure can differ from a stale target or from
        a root context's top entry (both open ROADMAP items)."""
        domain = IntervalDomain()
        policy = policy_by_name(policy_name)
        generator = WorkloadGenerator(seed=seed, queries_per_edit=2)
        # Calls twice as likely as the default: chains that put a
        # store-served procedure between a caller and an edited callee.
        workload = generator.generate_multiprocedure(
            edits=12, procedures=4, call_probability=0.4)
        half = len(workload.steps) // 2
        cfgs = workload.fresh_cfgs()
        for step in workload.steps[:half]:
            step.edit.apply_to_cfg(cfgs[step.procedure])
        engines = []
        for engine_class in (InterproceduralEngine, _BuildEveryDaig):
            store = InMemorySummaryStore()
            InterproceduralEngine(_fresh_copy(cfgs), domain, policy,
                                  store=store).summary_digest()
            engines.append(engine_class(_fresh_copy(cfgs), domain, policy,
                                        store=store))
        engines.append(InterproceduralEngine(_fresh_copy(cfgs), domain, policy))
        lazy, eager, storeless = engines
        for engine in engines:
            engine.query_entry_exit()
        for step in workload.steps[half:]:
            for engine in engines:
                engine.edit_procedure(step.procedure, step.edit.apply_to_engine)
            for procedure, loc in step.query_sites:
                answer, eager_answer, storeless_answer = (
                    engine.query(procedure, loc) for engine in engines)
                assert domain.equal(answer, eager_answer)
                if procedure == lazy.entry:
                    assert domain.equal(answer, storeless_answer)
        assert all(engine.built for engine in eager.engines.values())
        assert lazy.summary_digest() == eager.summary_digest()

    @pytest.mark.parametrize("policy_name", [
        pytest.param("insensitive", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="a summary is not keyed by the callee entries it consumed")),
        "1-call-site", "2-call-site"])
    def test_restart_after_a_shared_callee_lost_a_caller(self, policy_name):
        """A restart on edited code, whose ``p`` no longer calls ``c``,
        from a store the unedited code wrote, answers like a storeless
        engine.  Known gap under the insensitive policy: the store serves
        ``q`` the summary computed at ``c``'s joined entry [1, 100], whose
        key does not mention ``c``'s entry (ROADMAP item 3)."""
        domain = IntervalDomain()
        policy = policy_by_name(policy_name)
        store = InMemorySummaryStore()
        InterproceduralEngine(cfgs_of(SHARED_CALLEE_SOURCE), domain, policy,
                              store=store).summary_digest()
        warm = InterproceduralEngine(cfgs_of(SHARED_CALLEE_EDITED_SOURCE),
                                     domain, policy, store=store)
        oracle = InterproceduralEngine(cfgs_of(SHARED_CALLEE_EDITED_SOURCE),
                                       domain, policy)
        assert warm.summary_digest() == oracle.summary_digest()

    def test_recursive_program_warm_digest_equality(self, tmp_path):
        """Recursion re-runs its summary fixpoint on a warm start (cold
        runs only memoize the post-fixpoint entry), but the *results* must
        still be digest-equal — the warm win degrades, soundness does not."""
        domain = IntervalDomain()
        store = _make_store("sqlite", tmp_path)
        cold = InterproceduralEngine(cfgs_of(EVEN_ODD_PROGRAM), domain,
                                     store=store)
        cold_digest = cold.summary_digest()
        warm = InterproceduralEngine(cfgs_of(EVEN_ODD_PROGRAM), domain,
                                     store=store)
        assert warm.summary_digest() == cold_digest

    def test_corrupt_blob_degrades_to_recompute(self, tmp_path):
        domain = IntervalDomain()
        store = _make_store("sqlite", tmp_path)
        cold = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain,
                                     store=store)
        cold_digest = cold.summary_digest()
        for key in store.keys():
            store.put(key, b"garbage, not a summary")

        warm = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain,
                                     store=store)
        warm_digest = warm.summary_digest()
        assert warm_digest == cold_digest
        assert warm.counters["interproc_store_errors"] > 0
        assert warm.counters["interproc_summary_misses"] > 0
        # The corrupt blobs were dropped and rewritten with good ones.
        assert warm.counters["interproc_store_writes"] > 0
        third = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain,
                                      store=store)
        third.query_entry_exit()
        assert third.counters["interproc_summary_misses"] == 0
        assert third.counters["interproc_store_errors"] == 0

    def test_store_spec_string_accepted_by_engine(self, tmp_path):
        path = tmp_path / "spec.db"
        engine = InterproceduralEngine(
            cfgs_of(CHAIN_PROGRAM), IntervalDomain(),
            store="sqlite:%s" % path)
        engine.query_entry_exit()
        assert engine.counters["interproc_store_writes"] > 0
        assert path.exists()

    @settings(**COMMON_SETTINGS)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           policy_name=st.sampled_from(POLICIES))
    def test_warm_start_equals_cold_after_random_edit_streams(
            self, seed, policy_name):
        """Property: after any edit stream, a fresh engine warm-started
        from the edited session's store answers exactly like a storeless
        from-scratch engine on the final program."""
        domain = IntervalDomain()
        generator = WorkloadGenerator(seed=seed, queries_per_edit=2)
        workload = generator.generate_multiprocedure(edits=6, procedures=4)
        store = InMemorySummaryStore()
        session = InterproceduralEngine(workload.fresh_cfgs(), domain,
                                        policy_by_name(policy_name),
                                        store=store)
        for step in workload.steps:
            session.edit_procedure(step.procedure, step.edit.apply_to_engine)
            for procedure, loc in step.query_sites:
                session.query(procedure, loc)
        final_cfgs = _fresh_copy(session.cfgs)
        roots = session.queried_roots()
        session_digest = session.summary_digest()

        def replay(engine):
            for procedure in roots:
                engine.query(procedure, engine.cfgs[procedure].entry)
            return engine.summary_digest()

        warm = InterproceduralEngine(_fresh_copy(final_cfgs), domain,
                                     policy_by_name(policy_name), store=store)
        oracle = InterproceduralEngine(_fresh_copy(final_cfgs), domain,
                                       policy_by_name(policy_name))
        assert replay(warm) == replay(oracle) == session_digest
        assert warm.counters["interproc_store_errors"] == 0


# ---------------------------------------------------------------------------
# Memo-table eviction + store interplay
# ---------------------------------------------------------------------------


class TestMemoStoreInterplay:
    def test_memo_stats_counters(self):
        from repro.daig.memo import MemoTable
        table = MemoTable(capacity=2)
        table.store("f", (1,), "a")
        table.store("f", (2,), "b")
        table.lookup("f", (1,))
        table.lookup("f", (3,))
        table.store("f", (3,), "c")  # evicts (2,), the least recently used
        stats = table.stats()
        assert stats == {"entries": 2, "hits": 1, "misses": 1, "stores": 3,
                         "evictions": 1, "capacity": 2}
        assert table.lookup("f", (2,)) == (False, None)
        assert table.lookup("f", (1,)) == (True, "a")

    def test_evicted_summaries_recover_through_the_store(self):
        """Summaries dropped from the memo after the cold run are served
        from the write-through store when re-demanded — summary misses do
        not grow after the initial run."""
        domain = IntervalDomain()
        store = InMemorySummaryStore()
        engine = InterproceduralEngine(cfgs_of(DIAMOND_PROGRAM), domain,
                                       store=store)
        engine.query_entry_exit()
        misses_after_cold = engine.counters["interproc_summary_misses"]
        assert misses_after_cold > 0

        # Drop every memo entry, the summaries included, before the
        # re-demand below.
        engine.memo.clear()
        assert len(engine.memo) == 0

        # Edit main: every call cell re-evaluates, the callees' digests are
        # unchanged, and their (dropped) summaries must come back from the
        # store, not from re-running the callee DAIGs.
        engine.edit_procedure("main", _noise)
        hits_before = engine.counters["interproc_store_hits"]
        engine.query_entry_exit()
        assert engine.counters["interproc_summary_misses"] == misses_after_cold
        assert engine.counters["interproc_store_hits"] > hits_before

    def test_demand_takes_a_seed_only_where_the_memo_and_the_store_miss(self):
        """A seed is a third summary tier that only demand reads: it is
        taken where demand derives exactly its entry and both the memo and
        the store miss.  Taking it builds the callee's DAIG without
        evaluating it, and counts and writes what a sequential open does.
        A seed at an entry demand never derives, or under a key the memo or
        the store serves, is left for ``drop_seeds``."""
        domain = IntervalDomain()
        source = """
            function leaf(x) { return x + 1; }
            function main() { var a = leaf(1); return a; }
        """
        reference_store = InMemorySummaryStore()
        reference = InterproceduralEngine(cfgs_of(source), domain,
                                          store=reference_store)
        answer = reference.query_entry_exit()
        leaf = reference.engines[("leaf", ())]
        entry, exit_state = leaf.builder.entry_state, leaf.query_exit()
        other = domain.initial(("x",))

        store = InMemorySummaryStore()
        seeded = InterproceduralEngine(cfgs_of(source), domain, store=store)
        seeded.seed_summary("leaf", (), entry, exit_state)
        seeded.seed_summary("leaf", (), other, exit_state)
        assert domain.equal(seeded.query_entry_exit(), answer)
        taken = seeded.engines[("leaf", ())]
        assert taken.built and taken.stats.cells_computed == 0
        assert seeded.counters == reference.counters
        assert seeded.counters["interproc_summary_misses"] == 1
        assert sorted(store.keys()) == sorted(reference_store.keys())
        assert seeded.drop_seeds() == 1

        # The memo serves the key: an edit of main re-demands leaf's
        # summary, and the seed filed under it stays untaken.
        seeded.seed_summary("leaf", (), entry, exit_state)
        seeded.edit_procedure("main", _noise)
        reference.edit_procedure("main", _noise)
        hits = seeded.counters["interproc_summary_hits"]
        assert domain.equal(seeded.query_entry_exit(),
                            reference.query_entry_exit())
        assert seeded.counters["interproc_summary_hits"] == hits + 1
        assert seeded.drop_seeds() == 1

        # The store serves the key: a fresh engine on the filled store
        # never builds leaf's DAIG, writes nothing, and leaves the seed.
        puts = store.stats()["puts"]
        warm = InterproceduralEngine(cfgs_of(source), domain, store=store)
        warm.seed_summary("leaf", (), entry, exit_state)
        assert domain.equal(warm.query_entry_exit(), answer)
        assert warm.counters["interproc_store_hits"] == 1
        assert warm.counters["interproc_summary_misses"] == 0
        assert not warm.engines[("leaf", ())].built
        assert store.stats()["puts"] == puts
        assert warm.drop_seeds() == 1


# ---------------------------------------------------------------------------
# Garbage collection expires store entries
# ---------------------------------------------------------------------------


class TestStoreGarbageCollection:
    def test_collect_garbage_expires_orphaned_context_entries(self, tmp_path):
        """Under 1-call-site sensitivity each call site is its own context;
        deleting a call site orphans its context, and collect_garbage must
        expire that context's store entries while keeping live ones."""
        domain = IntervalDomain()
        store = _make_store("sqlite", tmp_path)
        engine = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain,
                                       policy_by_name("1-call-site"),
                                       store=store)
        engine.summary_digest()  # populate every live context's summary
        entries_before = len(store)
        assert entries_before > 0
        live_contexts = len(engine.contexts_of("middle"))
        assert live_contexts == 2  # two call sites in main

        def drop_second_call(pe):
            calls = [e for e in pe.find_edges()
                     if isinstance(e.stmt, A.CallStmt)
                     and e.stmt.function == "middle"]
            pe.replace_statement(
                calls[-1], A.AssignStmt(calls[-1].stmt.target, A.IntLit(0)))

        engine.edit_procedure("main", drop_second_call)
        collected = engine.collect_garbage()
        assert collected > 0
        assert engine.counters["interproc_store_expired"] > 0
        assert len(store) < entries_before
        # The surviving context's summaries answer without recomputation
        # after the engine is restarted on the edited program.
        warm = InterproceduralEngine(_fresh_copy(engine.cfgs), domain,
                                     policy_by_name("1-call-site"),
                                     store=store)
        warm.query_entry_exit()
        assert warm.counters["interproc_summary_misses"] == 0

    def test_collect_garbage_without_store_still_works(self):
        engine = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM),
                                       IntervalDomain(),
                                       policy_by_name("1-call-site"))
        engine.summary_digest()
        engine.edit_procedure("main", _noise)
        engine.collect_garbage()  # must not trip over the absent store
        assert engine.counters["interproc_store_expired"] == 0

