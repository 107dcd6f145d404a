"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import time
from itertools import combinations
from math import comb

import pytest

from equimatch import boollattice, phimap, polyring
from equimatch.autgroup import automorphisms
from equimatch.cli import run
from equimatch.graph import edge_bits
from equimatch.graphtools import check_numeric_logconcavity, decompose, neighbor_set
from equimatch.matchings import matching_table
from equimatch.phimap import BudgetExceededError, build_phi
from equimatch.transfer import f_equivariance_counterexample
from oracles import (
    atlas_graphs,
    brute_force_matchings,
    enumerate_matchings,
    phi_matrix,
    rank_gauss_sparse,
    subset_inject,
    weighted_matching_poly,
)


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, detail


def _slots(t):
    return [(l, k) for k in range(1, t.r + 1) for l in range(1, k + 1)]


def test_criterion_1_c6_fixture(c6):
    started = time.monotonic()
    t = matching_table(c6)
    ok = t.counts == (1, 6, 9, 2)
    phi = build_phi(c6, 2, 2, table=t)
    ok &= len(phi.row_pairs) == 81 and len(phi.col_pairs) == 12
    inj = phimap.verify_injective(c6, 2, 2, table=t, phi=phi)
    ok &= inj.passed and inj.total_rank == 12
    grp = automorphisms(c6)
    ok &= grp.order == 12
    ok &= phimap.verify_equivariant(c6, 2, 2, table=t, group=grp, phi=phi).passed
    pair = (edge_bits(c6, [(0, 1)]), edge_bits(c6, [(0, 1), (2, 3), (4, 5)]))
    ok &= len(neighbor_set(c6, pair)) == 2
    ok &= f_equivariance_counterexample(c6, grp, 2, 2) is not None
    elapsed = time.monotonic() - started
    ok &= elapsed < 5.0
    _line(1, ok, f"C6 fixture checks (rank 12/12, |Aut|=12, 2 neighbors, f witness) in {elapsed:.2f}s")


@pytest.mark.slow
def test_criterion_2_small_graph_sweep():
    started = time.monotonic()
    graphs = checked_slots = checked_pairs = 0
    for g in atlas_graphs(7):
        graphs += 1
        t = matching_table(g)
        grp = automorphisms(g)
        for (ell, k) in _slots(t):
            checked_slots += 1
            if t.m(k + 1):
                for b in t.level(ell - 1):
                    for p in t.level(k + 1):
                        dec = decompose(g, (b, p))
                        assert dec.p - dec.b == k - ell + 2, (g, ell, k, b, p)
                        for (qb, qp) in neighbor_set(g, (b, p)):
                            assert qb | qp == b | p
                            assert qb & qp == b & p
                            assert (qb.bit_count(), qp.bit_count()) == (ell, k)
                        checked_pairs += 1
                phi = build_phi(g, ell, k, table=t)
            else:
                phi = None
            assert phimap.verify_injective(g, ell, k, table=t, phi=phi).passed
            assert phimap.verify_equivariant(g, ell, k, table=t, group=grp, phi=phi).passed
            assert polyring.verify_diagram(g, ell, k, table=t, phi=phi).passed
            assert polyring.verify_nonneg(g, ell, k, table=t).passed
    elapsed = time.monotonic() - started
    _line(
        2,
        graphs == 1252,
        f"sweep over {graphs} graphs on <= 7 vertices "
        f"({checked_slots} slots, {checked_pairs} pairs) in {elapsed:.1f}s",
    )


def test_criterion_3_petersen(petersen):
    started = time.monotonic()
    t = matching_table(petersen)
    # frozen from the brute-force oracle; see decisions ledger for the
    # transcription discrepancy at k = 4
    ok = t.counts == (1, 15, 75, 145, 90, 6)
    grp = automorphisms(petersen)
    passed_slots = []
    skipped_slots = []
    for (ell, k) in _slots(t):
        if t.m(k + 1) == 0:
            passed_slots.append((ell, k))
            continue
        try:
            phi = build_phi(petersen, ell, k, table=t, budget=10**6)
        except BudgetExceededError:
            skipped_slots.append((ell, k))
            continue
        inj = phimap.verify_injective(petersen, ell, k, table=t, phi=phi)
        equi = phimap.verify_equivariant(petersen, ell, k, table=t, group=grp, phi=phi)
        ok &= inj.passed and equi.passed
        passed_slots.append((ell, k))
    required = {(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)}
    ok &= required <= set(passed_slots)
    elapsed = time.monotonic() - started
    ok &= elapsed < 600
    _line(
        3,
        ok,
        f"petersen m={list(t.counts)}, {len(passed_slots)} slots verified, "
        f"skipped={skipped_slots} in {elapsed:.1f}s",
    )


def test_criterion_4_boolean_lattice():
    started = time.monotonic()
    ok = True
    for n in range(1, 13):
        for i in range(n // 2 + 1):
            fam = boollattice.symmetric_chains(n, i)
            ok &= boollattice.chains_are_valid(fam)
            ok &= len(fam.chains) == comb(n, i)
        for lv in boollattice.verify_lemma(n).levels:
            ok &= lv.rank == min(lv.dim_src, lv.dim_dst)
        # exhaustive injectivity of the subset injection
        for b in range((n - 1) // 2 + 1):
            images = set()
            for combo in combinations(range(1, n + 1), b):
                out = subset_inject(n, frozenset(combo))
                ok &= out not in images
                images.add(out)
    ok &= subset_inject(2, frozenset()) == {1}
    elapsed = time.monotonic() - started
    ok &= elapsed < 60
    _line(4, ok, f"boolean-lattice suite for n <= 12 in {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_5_oracle_equivalences(c6, path4, petersen):
    started = time.monotonic()
    ok = True
    # matching enumeration vs subset-filter brute force on <= 7 vertices
    for g in atlas_graphs(7):
        k = 0
        while True:
            ours = enumerate_matchings(g, k)
            oracle = brute_force_matchings(g, k)
            ok &= ours == oracle
            if not oracle:
                break
            k += 1
    # block-decomposed rank vs rational-elimination rank on every Phi
    # with <= 2000 columns over the acceptance corpora
    compared = 0
    corpora = list(atlas_graphs(6)) + [c6, path4, petersen]
    for g in corpora:
        t = matching_table(g)
        for (ell, k) in _slots(t):
            if t.m(k + 1) == 0:
                continue
            phi = build_phi(g, ell, k, table=t)
            if len(phi.col_pairs) > 2000:
                continue
            rep = phimap.verify_injective(g, ell, k, table=t, phi=phi)
            ok &= rep.total_rank == rank_gauss_sparse(phi_matrix(phi))
            compared += 1
    # evaluation at ones of the weighted difference equals the numeric slack
    for g in (c6, path4, petersen):
        t = matching_table(g)
        slacks = {(l, k): s for (l, k, s) in check_numeric_logconcavity(t)}
        polys = {
            k: weighted_matching_poly(g, k) for k in range(t.r + 2)
        }
        for (ell, k) in _slots(t):
            diff = polys[ell] * polys[k] - polys[ell - 1] * polys[k + 1]
            ok &= diff.evaluate_ones() == slacks[(ell, k)]
    elapsed = time.monotonic() - started
    _line(5, ok, f"oracle equivalences ({compared} rank comparisons) in {elapsed:.1f}s")


def test_criterion_6_deterministic_json(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    code_a = run(["verify", "--gen", "gnp:9:1:3:7", "--all", "--json", str(a)])
    code_b = run(["verify", "--gen", "gnp:9:1:3:7", "--all", "--json", str(b)])
    same = a.read_bytes() == b.read_bytes()
    ok = same and code_a == code_b and json.loads(a.read_text())["overall"] in ("pass",)
    _line(6, ok, "two verify runs on gnp:9:1:3:7 produced byte-identical JSON")
