"""Unit and differential tests for the BCP engines."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bcp.counting import CountingPropagator
from repro.bcp.engine import FALSE, TRUE, UNDEF
from repro.bcp.watched import WatchedPropagator
from repro.core.literals import encode

ENGINES = [WatchedPropagator, CountingPropagator]


def enc_clause(lits):
    return [encode(lit) for lit in lits]


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestBasicPropagation:
    def test_unit_propagates_at_level0(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1]))
        assert engine.propagate() is None
        assert engine.value(encode(1)) == TRUE
        assert engine.value(encode(-1)) == FALSE

    def test_chain(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1]))
        engine.add_clause(enc_clause([-1, 2]))
        engine.add_clause(enc_clause([-2, 3]))
        assert engine.propagate() is None
        for var in (1, 2, 3):
            assert engine.value(encode(var)) == TRUE

    def test_conflict_detected(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1]))
        engine.add_clause(enc_clause([-1, 2]))
        cid = engine.add_clause(enc_clause([-1, -2]))
        assert engine.propagate() == cid

    def test_conflicting_units(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1]))
        cid = engine.add_clause(enc_clause([-1]))
        assert engine.propagate() == cid

    def test_empty_clause_conflicts(self, engine_cls):
        engine = engine_cls()
        cid = engine.add_clause([])
        assert engine.propagate() == cid

    def test_reason_and_level_recorded(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1]))
        cid = engine.add_clause(enc_clause([-1, 2]))
        engine.propagate()
        assert engine.reasons[2] == cid
        assert engine.levels[2] == 0

    def test_no_spurious_propagation(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1, 2]))
        assert engine.propagate() is None
        assert engine.value(encode(1)) == UNDEF
        assert engine.value(encode(2)) == UNDEF


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestAssumptionsAndBacktracking:
    def test_assume_and_propagate(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([-1, 2]))
        engine.assume(encode(1))
        assert engine.propagate() is None
        assert engine.value(encode(2)) == TRUE
        assert engine.levels[2] == 1

    def test_backtrack_restores(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([-1, 2]))
        engine.assume(encode(1))
        engine.propagate()
        engine.backtrack(0)
        assert engine.value(encode(1)) == UNDEF
        assert engine.value(encode(2)) == UNDEF
        assert engine.decision_level == 0
        assert not engine.trail

    def test_backtrack_keeps_lower_levels(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([3]))
        engine.propagate()
        engine.assume(encode(1))
        engine.propagate()
        engine.assume(encode(2))
        engine.propagate()
        engine.backtrack(1)
        assert engine.value(encode(3)) == TRUE
        assert engine.value(encode(1)) == TRUE
        assert engine.value(encode(2)) == UNDEF

    def test_backtrack_after_conflict_then_repropagate(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([-1, 2]))
        engine.add_clause(enc_clause([-1, -2]))
        engine.assume(encode(1))
        assert engine.propagate() is not None
        engine.backtrack(0)
        engine.assume(encode(-1))
        assert engine.propagate() is None

    def test_enqueue_opposite_fails(self, engine_cls):
        engine = engine_cls(2)
        engine.assume(encode(1))
        assert engine.enqueue(encode(-1), None) is False
        assert engine.enqueue(encode(1), None) is True  # no-op


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestCeiling:
    def test_ceiling_blocks_later_clause(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1, 2]), propagate_units=False)   # 0
        cid = engine.add_clause(enc_clause([-1]), propagate_units=False)
        engine.new_level()
        engine.enqueue(encode(-2), None)
        # Without the unit clause (-1) in scope, nothing conflicts.
        assert engine.propagate(ceiling=1) is None
        assert engine.value(encode(1)) == TRUE  # clause 0 propagated 1
        del cid

    def test_ceiling_zero_blocks_everything(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1, 2]), propagate_units=False)
        engine.new_level()
        engine.enqueue(encode(-1), None)
        engine.enqueue(encode(-2), None)
        assert engine.propagate(ceiling=0) is None

    def test_full_propagation_conflicts(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1, 2]), propagate_units=False)
        engine.new_level()
        engine.enqueue(encode(-1), None)
        engine.enqueue(encode(-2), None)
        assert engine.propagate(ceiling=1) == 0

    def test_ceiling_respects_empty_clause(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1]), propagate_units=False)
        cid = engine.add_clause([])
        assert engine.propagate(ceiling=1) is None
        assert engine.propagate(ceiling=2) == cid


class TestClauseRemoval:
    def test_removed_clause_inert(self):
        engine = WatchedPropagator()
        engine.add_clause(enc_clause([1]))
        cid = engine.add_clause(enc_clause([-1, 2]))
        engine.remove_clause(cid)
        assert engine.propagate() is None
        assert engine.value(encode(2)) == UNDEF

    def test_counting_rejects_removal(self):
        engine = CountingPropagator()
        cid = engine.add_clause(enc_clause([1, 2]))
        with pytest.raises(NotImplementedError):
            engine.remove_clause(cid)

    def test_tombstone_empty(self):
        engine = WatchedPropagator()
        cid = engine.add_clause(enc_clause([1, 2, 3]))
        engine.remove_clause(cid)
        assert engine.clauses[cid] == []


class TestDifferential:
    """Every engine must agree on every propagation outcome."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_engines_agree(self, data):
        num_vars = data.draw(st.integers(min_value=2, max_value=10))
        num_clauses = data.draw(st.integers(min_value=1, max_value=25))
        seed = data.draw(st.integers(min_value=0, max_value=10_000))
        rng = random.Random(seed)
        clauses = []
        for _ in range(num_clauses):
            size = rng.randint(1, 4)
            variables = rng.sample(range(1, num_vars + 1),
                                   min(size, num_vars))
            clauses.append([v if rng.random() < .5 else -v
                            for v in variables])
        decisions = [rng.choice([v, -v])
                     for v in rng.sample(range(1, num_vars + 1),
                                         num_vars)]

        def run(engine_cls):
            engine = engine_cls(num_vars)
            for cl in clauses:
                engine.add_clause(enc_clause(cl))
            conflicts = []
            confl = engine.propagate()
            if confl is not None:
                return set(), ["L0"]
            for lit in decisions:
                if engine.value(encode(lit)) != UNDEF:
                    continue
                engine.assume(encode(lit))
                confl = engine.propagate()
                if confl is not None:
                    conflicts.append(lit)
                    engine.backtrack(engine.decision_level - 1)
            assigned = {engine.trail[i] for i in range(len(engine.trail))}
            return assigned, conflicts

        trail_w, confl_w = run(WatchedPropagator)
        trail_c, confl_c = run(CountingPropagator)
        # Same assignments deduced and the same decisions conflicted.
        assert trail_w == trail_c
        assert confl_w == confl_c


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestCoreTier:
    """Core-first propagation reaches the fixpoint an untiered engine
    reaches, whatever is promoted between propagate() calls."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_tier_fixpoint(self, engine_cls, data):
        num_vars = data.draw(st.integers(min_value=2, max_value=10))
        seed = data.draw(st.integers(min_value=0, max_value=10_000))
        rng = random.Random(seed)
        clauses = []
        # Few enough clauses, and few enough units, that most examples
        # survive level 0.
        for _ in range(rng.randint(1, 3 * num_vars)):
            size = rng.choice((1, 2, 2, 3, 3, 3, 4))
            variables = rng.sample(range(1, num_vars + 1),
                                   min(size, num_vars))
            clauses.append(enc_clause(
                [v if rng.random() < .5 else -v for v in variables]))
        ceiling = rng.choice([None, rng.randint(0, len(clauses))])
        limit = len(clauses) if ceiling is None else ceiling

        def load():
            engine = engine_cls(num_vars)
            for lits in clauses:
                engine.add_clause(lits)
            return engine, engine.propagate(ceiling)

        def close(engine, assumptions):
            """Assume each literal and propagate; the conflict, if any."""
            confl = engine.propagate(ceiling)
            for lit in assumptions:
                if confl is not None:
                    break
                if engine.value(lit) == FALSE:
                    return "assumption"
                engine.enqueue(lit, None)
                confl = engine.propagate(ceiling)
            return confl

        tiered, root_confl = load()
        if root_confl is not None:
            return  # refuted at level 0: no level above it to test
        unpromoted = list(range(len(clauses)))
        for _ in range(rng.randint(1, 4)):
            assumptions = [rng.choice([v, -v]) for v in rng.sample(
                range(1, num_vars + 1), rng.randint(1, num_vars))]
            encs = enc_clause(assumptions)
            tiered.new_level()
            split = rng.randint(0, len(encs))
            confl = close(tiered, encs[:split])
            if confl is None:
                # Promote between propagate() calls at an open level.
                rng.shuffle(unpromoted)
                cut = rng.randint(0, len(unpromoted))
                tiered.promote(unpromoted[:cut])
                del unpromoted[:cut]
                confl = close(tiered, encs[split:])
            reference, _ = load()
            reference.new_level()
            expected = close(reference, encs)
            assert not reference.tiered
            assert (confl is None) == (expected is None)
            if confl is None:
                assert tiered.qhead == len(tiered.trail)
                assert set(tiered.trail) == set(reference.trail)
                values = tiered.values
                for lits in clauses[:limit]:
                    if any(values[lit] == TRUE for lit in lits):
                        continue
                    unassigned = sum(values[lit] == UNDEF for lit in lits)
                    # Neither falsified nor unit with an open literal.
                    assert unassigned >= 2
            tiered.backtrack(0)

    def test_promote_skips_retired_clause(self, engine_cls):
        engine = engine_cls(3)
        live = engine.add_clause(enc_clause([1, 2]), propagate_units=False)
        retired = engine.add_clause(enc_clause([1, 3]),
                                    propagate_units=False)
        engine.retire_above(retired)
        engine.new_level()
        engine.enqueue(encode(-1), None)
        assert engine.propagate() is None  # purges the retired entry
        engine.backtrack(0)
        engine.promote([live, retired])
        assert engine.tiered
        engine.new_level()
        engine.enqueue(encode(-1), None)
        assert engine.propagate() is None
        assert engine.value(encode(2)) == TRUE
        assert engine.value(encode(3)) == UNDEF


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestRetirement:
    def test_retired_clause_does_not_propagate(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1, 2]), propagate_units=False)
        engine.add_clause(enc_clause([-1, 3]), propagate_units=False)
        engine.retire_above(1)
        engine.new_level()
        engine.enqueue(encode(-2), None)
        assert engine.propagate() is None
        assert engine.value(encode(1)) == TRUE   # clause 0 is live
        assert engine.value(encode(3)) == UNDEF  # clause 1 is retired

    def test_retire_ceiling_only_lowers(self, engine_cls):
        engine = engine_cls(3)
        engine.retire_above(5)
        engine.retire_above(10)
        assert engine.retire_ceiling == 5
        engine.retire_above(2)
        assert engine.retire_ceiling == 2

    def test_retired_empty_clause_no_standing_conflict(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1]), propagate_units=False)
        cid = engine.add_clause([])
        engine.retire_above(cid)
        assert engine.propagate() is None

    def test_purge_counted(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1, 2]), propagate_units=False)
        engine.add_clause(enc_clause([1, 3]), propagate_units=False)
        engine.retire_above(1)
        engine.new_level()
        engine.enqueue(encode(-1), None)
        assert engine.propagate() is None
        assert engine.counters.purged >= 1
        assert engine.value(encode(2)) == TRUE
        assert engine.value(encode(3)) == UNDEF


class TestWatchedLazyPurge:
    def test_retired_entry_dropped_from_watch_list(self):
        engine = WatchedPropagator()
        engine.add_clause(enc_clause([1, 2]), propagate_units=False)
        cid = engine.add_clause(enc_clause([1, 3]),
                                propagate_units=False)
        assert cid in engine.watches[encode(1)]
        engine.retire_above(cid)
        engine.new_level()
        engine.enqueue(encode(-1), None)
        engine.propagate()
        assert cid not in engine.watches[encode(1)]

    def test_detach_after_purge_counts_miss(self):
        engine = WatchedPropagator()
        cid = engine.add_clause(enc_clause([1, 2]),
                                propagate_units=False)
        engine.retire_above(cid)
        engine.new_level()
        engine.enqueue(encode(-1), None)
        engine.propagate()  # purges the watches[1] entry
        engine.backtrack(0)
        engine.remove_clause(cid)
        assert engine.counters.detach_misses == 1


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestUnwindTo:
    def test_partial_unwind_and_rescan(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1]))
        engine.add_clause(enc_clause([-1, 2]))
        assert engine.propagate() is None
        assert engine.trail == [encode(1), encode(2)]
        engine.unwind_to(1)
        assert engine.value(encode(1)) == TRUE
        assert engine.value(encode(2)) == UNDEF
        assert engine.reasons[2] is None
        # The surviving prefix was already scanned; re-closing the
        # trail requires an explicit rescan from the start.
        engine.qhead = 0
        assert engine.propagate() is None
        assert engine.value(encode(2)) == TRUE

    def test_unwind_noop_past_end(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1]))
        engine.propagate()
        engine.unwind_to(5)
        assert engine.trail == [encode(1)]

    def test_unwind_below_open_level_rejected(self, engine_cls):
        engine = engine_cls(2)
        engine.add_clause(enc_clause([1]))
        engine.propagate()
        engine.assume(encode(2))
        with pytest.raises(ValueError):
            engine.unwind_to(0)


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestCounters:
    def test_assignments_counted(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1]))
        engine.add_clause(enc_clause([-1, 2]))
        engine.propagate()
        assert engine.counters.assignments == 2

    def test_counter_reset_and_dict(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1]))
        engine.propagate()
        snapshot = engine.counters.as_dict()
        assert snapshot["assignments"] == 1
        assert set(snapshot) == {"assignments", "watch_visits",
                                 "clause_visits", "purged",
                                 "detach_misses"}
        engine.counters.reset()
        assert engine.counters.assignments == 0


class TestWatchedScan:
    def test_conflict_keeps_unvisited_tail(self):
        engine = WatchedPropagator(4)
        c0 = engine.add_clause(enc_clause([1, 2]), propagate_units=False)
        c1 = engine.add_clause(enc_clause([1, 3]), propagate_units=False)
        c2 = engine.add_clause(enc_clause([1, 4]), propagate_units=False)
        c3 = engine.add_clause(enc_clause([1, 2, 3]),
                               propagate_units=False)
        engine.retire_above(c3)
        # Put the retired entry first, so it is purged before the
        # conflict and the tail must close the gap it leaves.
        engine.watches[encode(1)][:] = [c3, c0, c1, c2]
        engine.new_level()
        engine.enqueue(encode(-1), None)
        engine.enqueue(encode(-2), None)
        before = engine.counters.as_dict()
        assert engine.propagate() == c0
        assert engine.watches[encode(1)] == [c0, c1, c2]
        assert engine.clauses[c0] == enc_clause([2, 1])
        assert engine.qhead == 1
        after = engine.counters.as_dict()
        assert {key: after[key] - before[key] for key in after} == {
            "assignments": 0, "watch_visits": 2, "clause_visits": 1,
            "purged": 1, "detach_misses": 0}

    def test_ceiling_skip_is_a_visit_but_not_a_clause_visit(self):
        engine = WatchedPropagator(3)
        engine.add_clause(enc_clause([1, 2]), propagate_units=False)
        above = engine.add_clause(enc_clause([1, 3]),
                                  propagate_units=False)
        engine.new_level()
        engine.enqueue(encode(-1), None)
        assert engine.propagate(ceiling=above) is None
        assert engine.value(encode(2)) == TRUE
        assert engine.value(encode(3)) == UNDEF
        assert engine.watches[encode(1)] == [0, above]
        assert engine.counters.watch_visits == 2
        assert engine.counters.clause_visits == 1


class TestWatchedWorkPinned:
    """The exact BCP work of verifying two solver proofs.

    These counters are what ``--max-props`` budgets charge and what the
    e2e benchmark reports, so a kernel change must leave them alone: a
    different count means a different visit order or watch list, not
    only a different speed.  Rebuild mode covers the per-call ceiling
    (skipped entries are watch visits but not clause visits).  The
    verification2 rows run core-first propagation over the marked tier.
    """

    PINNED = {
        ("php6", "incremental"): (747, 133, dict(
            assignments=23236, watch_visits=100559, clause_visits=98990,
            purged=1569, detach_misses=0)),
        ("php6", "rebuild"): (747, 133, dict(
            assignments=23305, watch_visits=369021, clause_visits=99082,
            purged=0, detach_misses=0)),
        ("barrel5", "incremental"): (647, 650, dict(
            assignments=23342, watch_visits=71219, clause_visits=69292,
            purged=1927, detach_misses=0)),
        ("barrel5", "rebuild"): (647, 650, dict(
            assignments=33027, watch_visits=127044, clause_visits=77638,
            purged=0, detach_misses=0)),
    }

    @pytest.mark.parametrize("name,mode", sorted(PINNED))
    def test_verify_counters(self, name, mode):
        from repro.benchgen.registry import build_instance
        from repro.proofs.conflict_clause import ConflictClauseProof
        from repro.solver.cdcl import solve
        from repro.verify.verification import verify_proof

        checked, core, counters = self.PINNED[name, mode]
        formula = build_instance(name)
        proof = ConflictClauseProof.from_log(solve(formula).log)
        report = verify_proof(formula, proof, mode=mode)
        assert report.ok and report.engine == "watched"
        assert report.bcp_counters == counters
        assert report.num_checked == checked
        assert report.core.size == core

    # verification1 and the solver propagate with no marks, so their
    # visit order is the single-tier one.
    PINNED_V1 = {
        "php6": (790, dict(
            assignments=24141, watch_visits=202489, clause_visits=200917,
            purged=1572, detach_misses=0)),
        "barrel5": (1014, dict(
            assignments=41041, watch_visits=147042, clause_visits=145038,
            purged=2004, detach_misses=0)),
    }
    PINNED_SOLVER = {
        "php6": dict(conflicts=789, decisions=936, propagations=10763),
        "barrel5": dict(conflicts=1013, decisions=2438,
                        propagations=23753),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_V1))
    def test_verify1_counters(self, name):
        from repro.benchgen.registry import build_instance
        from repro.proofs.conflict_clause import ConflictClauseProof
        from repro.solver.cdcl import solve
        from repro.verify.verification import verify_proof

        checked, counters = self.PINNED_V1[name]
        formula = build_instance(name)
        proof = ConflictClauseProof.from_log(solve(formula).log)
        report = verify_proof(formula, proof, procedure="verification1")
        assert report.ok and report.engine == "watched"
        assert report.bcp_counters == counters
        assert report.num_checked == checked

    # The path e2e ``verify-default`` runs: ``repro solve --proof``
    # (adaptive learning), then ``repro verify`` with no flags
    # (verification2, incremental, watched, one process).  Rows are
    # checked, skipped, the ``c bcp:`` counters and the core size.
    PINNED_CLI_DEFAULT = {
        "php6": (870, 38, dict(
            assignments=28279, watch_visits=120431, clause_visits=118635,
            purged=1796, detach_misses=0), 133),
        "barrel5": (1548, 983, dict(
            assignments=82890, watch_visits=321413, clause_visits=316593,
            purged=4820, detach_misses=0), 659),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_CLI_DEFAULT))
    def test_cli_default_verify(self, name, tmp_path, capsys):
        from repro.benchgen.registry import build_instance
        from repro.cli import main
        from repro.core.dimacs import write_dimacs

        checked, skipped, counters, core = self.PINNED_CLI_DEFAULT[name]
        formula = build_instance(name)
        cnf, ccp = str(tmp_path / "f.cnf"), str(tmp_path / "f.ccp")
        write_dimacs(formula, cnf)
        assert main(["solve", cnf, "--proof", ccp]) == 20
        capsys.readouterr()
        assert main(["verify", cnf, ccp]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "s PROOF_IS_CORRECT"
        fields = dict(pair.split("=") for pair in lines[1].split()[1:])
        assert (int(fields["checked"]), int(fields["skipped"])) \
            == (checked, skipped)
        assert fields["engine"] == "watched" and fields["jobs"] == "1"
        assert "c bcp: " + " ".join(f"{key}={value}" for key, value
                                    in counters.items()) in lines
        assert f"c unsat core: {core}/{formula.num_clauses} clauses " \
            f"({core / formula.num_clauses:.1%})" in lines

    # ``repro verify`` of the DRUP trace from the same solve as barrel5's
    # PINNED_CLI_DEFAULT row: 993 deletions honoured, fewer watch visits.
    PINNED_CLI_DRUP = (1538, 993, dict(
        assignments=82549, watch_visits=308676, clause_visits=303828,
        purged=4848, detach_misses=0), 659)

    def test_cli_default_verify_drup(self, tmp_path, capsys):
        from repro.benchgen.registry import build_instance
        from repro.cli import main
        from repro.core.dimacs import write_dimacs

        checked, skipped, counters, core = self.PINNED_CLI_DRUP
        assert counters["watch_visits"] \
            < self.PINNED_CLI_DEFAULT["barrel5"][2]["watch_visits"]
        formula = build_instance("barrel5")
        cnf, drup = str(tmp_path / "f.cnf"), str(tmp_path / "f.drup")
        write_dimacs(formula, cnf)
        assert main(["solve", cnf, "--drup", drup]) == 20
        assert "2531 additions, 993 deletions" in capsys.readouterr().out
        assert main(["verify", cnf, drup]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "s PROOF_IS_CORRECT"
        assert lines[1].startswith(f"c checked={checked} "
                                   f"skipped={skipped} ")
        assert "c bcp: " + " ".join(f"{key}={value}" for key, value
                                    in counters.items()) in lines
        assert f"c unsat core: {core}/{formula.num_clauses} clauses " \
            f"({core / formula.num_clauses:.1%})" in lines

    @pytest.mark.parametrize("name", sorted(PINNED_SOLVER))
    def test_solver_stats(self, name):
        from repro.benchgen.registry import build_instance
        from repro.solver.cdcl import solve

        stats = solve(build_instance(name)).stats
        assert {key: getattr(stats, key)
                for key in self.PINNED_SOLVER[name]} \
            == self.PINNED_SOLVER[name]

    # The configuration `repro solve` runs (adaptive learning) and plain
    # VSIDS branching; the adaptive rows also pin the proof's length.
    PINNED_SOLVER_CONFIGS = {
        ("php6", "adaptive"): (dict(learning="adaptive"), dict(
            conflicts=907, decisions=1061, propagations=12557), 908),
        ("barrel5", "adaptive"): (dict(learning="adaptive"), dict(
            conflicts=2530, decisions=4899, propagations=80509), 2531),
        ("php6", "vsids"): (dict(heuristic="vsids"), dict(
            conflicts=805, decisions=977, propagations=11302), None),
        ("barrel5", "vsids"): (dict(heuristic="vsids"), dict(
            conflicts=849, decisions=1451, propagations=22725), None),
    }

    @pytest.mark.parametrize("name,config", sorted(PINNED_SOLVER_CONFIGS))
    def test_solver_stats_by_config(self, name, config):
        from repro.benchgen.registry import build_instance
        from repro.proofs.conflict_clause import ConflictClauseProof
        from repro.solver.cdcl import solve

        options, pinned, proof_len = \
            self.PINNED_SOLVER_CONFIGS[name, config]
        result = solve(build_instance(name), **options)
        assert {key: getattr(result.stats, key) for key in pinned} \
            == pinned
        if proof_len is not None:
            assert len(ConflictClauseProof.from_log(result.log)) \
                == proof_len


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestAssignmentView:
    def test_assignment_mapping(self, engine_cls):
        engine = engine_cls()
        engine.add_clause(enc_clause([1]))
        engine.add_clause(enc_clause([-2]))
        engine.propagate()
        assert engine.assignment() == {1: True, 2: False}

    def test_empty(self, engine_cls):
        assert engine_cls(3).assignment() == {}


class TestSelection:
    def test_registry(self):
        from repro.bcp import ENGINES as REGISTRY
        from repro.bcp import engine_name

        assert REGISTRY == {"watched": WatchedPropagator,
                            "counting": CountingPropagator}
        for name, cls in REGISTRY.items():
            assert engine_name(cls) == name

        class Unregistered(WatchedPropagator):
            pass

        assert engine_name(Unregistered) == "Unregistered"

    def test_resolve_engine(self):
        from repro.bcp import ENGINES as REGISTRY
        from repro.bcp import resolve_engine

        assert resolve_engine(None) is WatchedPropagator
        for name, cls in REGISTRY.items():
            assert resolve_engine(name) is cls
        assert resolve_engine(CountingPropagator) is CountingPropagator
        for name in ("vector", "vector-inc", "auto", "arena"):
            with pytest.raises(ValueError, match="unknown BCP engine"):
                resolve_engine(name)

    def test_kernel_selected_event(self):
        from repro.core.formula import CnfFormula
        from repro.obs.context import Obs
        from repro.obs.spans import Tracer
        from repro.proofs.conflict_clause import (
            ENDING_FINAL_PAIR,
            ConflictClauseProof,
        )
        from repro.verify.verification import verify_proof_v1

        formula = CnfFormula([[1, 2], [1, -2], [-1, 3], [-1, -3]])
        proof = ConflictClauseProof([(1,), (-1,)], ENDING_FINAL_PAIR)
        obs = Obs(tracer=Tracer())
        report = verify_proof_v1(formula, proof, "counting", obs=obs)
        assert report.ok and report.engine == "counting"
        events = [e for e in obs.tracer.events
                  if e["type"] == "event"
                  and e["name"] == "kernel_selected"]
        assert len(events) == 1
        assert events[0]["attrs"] == {
            "requested": "counting", "engine": "counting",
            "mode": "incremental", "reason": "explicit request"}
