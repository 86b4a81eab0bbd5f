"""The acceptance gate: nine end-to-end criteria, one line of output each.

Criteria 1, 2 and 9 concern the published reference table. Its rows are
kept verbatim in ``crossroads.reference`` and compared, not trusted: rows
0..9 must be reproduced exactly, and rows 10..14, which a brute-force
recount from the definition refutes, must show up as errata whose computed
side equals that recount. The recount is ``oracle_tally(10)`` (all set
partitions, quartic crossing filter, and ``classify_definitional``, which
merges each singleton pair and rechecks the result with the same quartic
test) and ``stream_tally(11..14)``; neither shares code with the counting
recurrence or the region scan, and it is computed once per session.

* Criterion 1: ``verify --max-n 12`` exits 2 within 60 s, reports rows
  0..9 ok and rows 10..12 as mismatches with the published values verbatim
  and the recount as the computed values.
* Criterion 2: ``tally`` at n = 14 takes under ten minutes and equals the
  recount; the published row is printed beside it.
* Criterion 9: the ratio report reproduces all 43 published two-digit
  cells from the published counts, and the 23 cells with n <= 9 from the
  computed counts; the cells with n >= 10 follow the recount, and those
  that differ from the published table are listed.

The other six criteria hold independently of the published table. Among
them, criterion 3 checks ``classify``, the one classifier, against the
merge-and-recheck ``crossroads.routes.classify_definitional``, which
rechecks each merge with the quartic test, on every noncrossing partition
with n <= 10.
"""
import functools
import time
from collections import Counter
from itertools import combinations, zip_longest

from crossroads import (
    CountJob,
    Tally,
    catalan,
    classify,
    enumerate_msl,
    is_absolute,
    lower_bound_lonely,
    lower_bound_marriageable,
    msl_to_partition,
    nc_count,
    noncrossing_partitions,
    partition_to_msl,
    published_row,
    ratio_report,
    tally,
    tally_range,
)
from crossroads.maps import (
    absorb_into_first,
    absorb_into_last,
    add_pair_block,
    add_singleton_pair,
    grow_lonely,
    grow_marriageable,
)
from crossroads.routes import classify_definitional, oracle_tally, stream_tally

# Ratio cells of the published table that are printed with exactly two
# fractional digits, keyed by column then n. Cells the table renders with
# fewer digits (such as 3.2 or 0.5) are not comparable at two digits and are
# omitted, matching the criterion's wording.
PUBLISHED_RATIO_CELLS = {
    "ratio_l": {
        4: "2.25", 5: "2.89", 6: "2.96", 7: "3.01", 8: "3.13", 9: "3.17",
        10: "3.22", 11: "2.99", 12: "3.29", 13: "3.23", 14: "3.25",
    },
    "ratio_m": {
        6: "3.44", 7: "3.58", 8: "3.58", 9: "3.64", 10: "3.67",
        11: "3.90", 12: "3.69", 13: "3.75", 14: "3.76",
    },
    "m_over_l": {
        3: "0.25", 4: "0.56", 5: "0.62", 6: "0.71", 7: "0.85", 8: "0.97",
        9: "1.11", 10: "1.27", 11: "1.66", 12: "1.86", 13: "2.16", 14: "2.50",
    },
    "m_over_c": {
        4: "0.36", 5: "0.38", 6: "0.42", 7: "0.46", 8: "0.49", 9: "0.53",
        10: "0.56", 11: "0.62", 12: "0.65", 13: "0.68", 14: "0.71",
    },
}


ERRATA_RANGE = range(10, 15)
"""The published rows that the recount refutes."""


@functools.cache
def recount():
    """Definition-faithful tallies for n = 10..14, keyed by n.

    n = 10 comes from the brute-force oracle over all 115,975 set partitions,
    n = 11..14 from the streaming classifier; neither uses the recurrence that
    ``tally`` runs. Cached so the criteria that need it share one run.
    """
    rows = {10: oracle_tally(10)}
    rows.update((n, stream_tally(n)) for n in range(11, 15))
    return rows


def report(number, title, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({title}): {status} - {detail}")
    assert ok, f"criterion {number} ({title}): {detail}"


def test_criterion_1_table_reproduction(invoke):
    expected = []
    for n in range(13):
        pl, pm, pc = published_row(n)
        if n in ERRATA_RANGE:
            r = recount()[n]
            expected.append(
                f"n={n}: MISMATCH computed lonely={r.lonely} "
                f"marriageable={r.marriageable} total={r.total}, published "
                f"lonely={pl} marriageable={pm} total={pc}"
            )
        else:
            expected.append(f"n={n}: ok lonely={pl} marriageable={pm} total={pc}")
    expected.append("13 rows compared, 3 mismatches")
    started = time.monotonic()
    result = invoke(["verify", "--max-n", "12"])
    elapsed = time.monotonic() - started
    lines = result.output.splitlines()
    wrong = [
        f"expected {want!r}, got {got!r}"
        for got, want in zip_longest(lines, expected)
        if got != want
    ]
    ok = result.exit_code == 2 and elapsed < 60 and not wrong
    if ok:
        detail = (
            f"rows 0..9 match, rows 10..12 reported as errata against the "
            f"recount, exit 2 in {elapsed:.1f}s"
        )
    else:
        detail = f"exit code {result.exit_code} in {elapsed:.1f}s; " + " | ".join(wrong)
    report(1, "published table reproduction", ok, detail)


def test_criterion_2_performance_bar():
    expected = recount()[14]
    started = time.monotonic()
    t = tally(CountJob(14, workers=1))
    elapsed = time.monotonic() - started
    pl, pm, pc = published_row(14)
    ok = t == expected and t.total == catalan(14) == pc and elapsed < 600
    detail = (
        f"computed lonely={t.lonely} marriageable={t.marriageable} "
        f"total={t.total} in {elapsed:.2f}s; recount lonely={expected.lonely} "
        f"marriageable={expected.marriageable}; published lonely={pl} "
        f"marriageable={pm} total={pc}"
    )
    report(2, "count at n=14 under ten minutes", ok, detail)


def test_criterion_3_oracle_equivalence():
    mismatch = None
    for n in range(0, 10):
        if oracle_tally(n) != tally(CountJob(n)):
            mismatch = f"tally disagrees with oracle at n={n}"
            break
    checked = 0
    if mismatch is None:
        for n in range(0, 11):
            for p in noncrossing_partitions(n):
                if classify(p) != classify_definitional(p):
                    mismatch = f"classify disagrees with merge-and-recheck on {p.to_text()!r}"
                    break
                checked += 1
            if mismatch:
                break
    ok = mismatch is None
    detail = mismatch or (
        f"oracle tallies match for n<=9; classify agrees with merge-and-recheck on {checked} partitions (n<=10)"
    )
    report(3, "oracle equivalence", ok, detail)


def test_criterion_4_closed_form_agreement():
    mismatch = None
    cells = 0
    for n in range(0, 11):
        enumerated = Counter((len(p.blocks), len(p.singletons)) for p in noncrossing_partitions(n))
        for m in range(0, n + 1):
            for k in range(0, n + 1):
                if nc_count(n, m, k) != enumerated[m, k]:
                    mismatch = f"cell (n={n}, m={m}, k={k}) disagrees"
                    break
                cells += 1
            if mismatch:
                break
        if mismatch:
            break
    ok = mismatch is None
    report(4, "closed forms match enumeration", ok, mismatch or f"{cells} cells agree")


def test_criterion_5_inequality_suite():
    tallies = tally_range(14)
    failures = []
    for n in range(2, 15):
        if not lower_bound_lonely(n) <= tallies[n].lonely:
            failures.append(f"lonely bound fails at n={n}")
    for n in range(3, 15):
        if not lower_bound_marriageable(n) <= tallies[n].marriageable:
            failures.append(f"marriageable bound fails at n={n}")
    for n in range(0, 13):
        if not catalan(n) + 3 * tallies[n].marriageable <= tallies[n + 2].marriageable:
            failures.append(f"two-step inequality fails at n={n}")
    for n in range(2, 14):
        if not tallies[n].lonely < tallies[n + 1].lonely:
            failures.append(f"lonely growth fails at n={n}")
    for n in range(3, 14):
        if not tallies[n].marriageable < tallies[n + 1].marriageable:
            failures.append(f"marriageable growth fails at n={n}")
    for n in range(9, 15):
        if not tallies[n].marriageable > tallies[n].lonely:
            failures.append(f"marriageable majority fails at n={n}")
    ok = not failures
    report(5, "inequality suite", ok, "; ".join(failures) or "all five families hold on computed values")


def test_criterion_6_bijection_suite():
    trips = 0
    problem = None
    for n in range(1, 9):
        for p in noncrossing_partitions(n):
            if msl_to_partition(partition_to_msl(p)) != p:
                problem = f"round trip broken for {p.to_text()!r}"
                break
            trips += 1
        if problem:
            break
    if problem is None:
        for n in range(1, 7):
            absolute = sum(1 for m in enumerate_msl(n) if is_absolute(m))
            expected = tally(CountJob(n)).lonely
            if absolute != expected:
                problem = f"absolute MSL count {absolute} != lonely count {expected} at n={n}"
                break
    ok = problem is None
    detail = problem or f"{trips} round trips; absolute MSL counts match lonely counts for n<=6"
    report(6, "intersection bijection suite", ok, detail)


def test_criterion_7_injection_maps():
    problem = None
    for n in range(0, 8):
        parts = list(noncrossing_partitions(n))
        lonely = [p for p in parts if classify(p) is None]
        marriageable = [p for p in parts if classify(p) is not None]
        f_img = {grow_lonely(p) for p in lonely}
        g_img = {grow_marriageable(p) for p in marriageable}
        h_img = {add_singleton_pair(p) for p in parts}
        i_img = {add_pair_block(p) for p in marriageable}
        j_img = {absorb_into_first(p) for p in marriageable}
        k_img = {absorb_into_last(p) for p in marriageable}
        if len(f_img) != len(lonely) or len(g_img) != len(marriageable):
            problem = f"one-element map not injective at n={n}"
            break
        if len(h_img) != len(parts) or any(
            len(img) != len(marriageable) for img in (i_img, j_img, k_img)
        ):
            problem = f"two-element map not injective at n={n}"
            break
        if any(classify(q) is not None for q in f_img):
            problem = f"grow_lonely image leaves the lonely class at n={n}"
            break
        wrong = [
            q
            for img in (g_img, h_img, i_img, j_img, k_img)
            for q in img
            if classify(q) is None
        ]
        if wrong:
            problem = f"a marriageable-image map produced {wrong[0].to_text()!r} at n={n}"
            break
        for a, b in combinations((h_img, i_img, j_img, k_img), 2):
            if a & b:
                problem = f"two-element map images overlap at n={n}"
                break
        if problem:
            break
    ok = problem is None
    report(7, "injection map suite", ok, problem or "all six maps injective, classified, disjoint for n<=7")


def test_criterion_8_extension_run():
    t = tally(CountJob(16))
    expected = 35357670
    ok = t.total == expected == catalan(16) and t.lonely + t.marriageable == t.total
    detail = (
        f"total={t.total} (Catalan(16)={expected}); "
        f"lonely={t.lonely} marriageable={t.marriageable} (asserted via the sum only)"
    )
    report(8, "extension run at n=16", ok, detail)


def test_criterion_9_conjecture_report():
    published = ratio_report([Tally(n, *published_row(n)) for n in range(15)])
    computed = ratio_report(tally_range(14))
    # The published rows where the recount confirms them, the recount where
    # it refutes them.
    corrected = ratio_report(
        [Tally(n, *published_row(n)) for n in range(10)]
        + [recount()[n] for n in ERRATA_RANGE],
    )
    failures = []
    errata = []
    compared = 0
    for column, cells in PUBLISHED_RATIO_CELLS.items():
        for n, cell in cells.items():
            compared += 1
            from_published = getattr(published[n], column)
            ours = getattr(computed[n], column)
            if from_published != cell:
                failures.append(
                    f"n={n} {column}: published counts give {from_published} "
                    f"vs published cell {cell}"
                )
            if n in ERRATA_RANGE:
                recounted = getattr(corrected[n], column)
                if ours != recounted:
                    failures.append(
                        f"n={n} {column}: computed {ours} vs recount {recounted}"
                    )
                elif ours != cell:
                    errata.append(f"n={n} {column}: computed {ours} vs published {cell}")
            elif ours != cell:
                failures.append(f"n={n} {column}: computed {ours} vs published {cell}")
    ok = not failures
    if ok:
        detail = (
            f"all {compared} two-digit ratio cells follow from the published "
            f"counts and those with n<=9 are reproduced; {len(errata)} cells "
            f"with n>=10 follow the recount instead: " + "; ".join(errata)
        )
    else:
        detail = f"{len(failures)} failed checks over {compared} cells: " + "; ".join(failures)
    report(9, "conjecture ratio report", ok, detail)
