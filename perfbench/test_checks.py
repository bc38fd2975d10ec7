"""Self-tests of the benchmark's output checks.

    python3 -m pytest perfbench

Each check must pass maghom's real output and reject a deliberately
corrupted copy: a changed coefficient, a rank off by one, a flipped
verdict, a wrong critical-cell count.
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from graphs import G1_CERTIFICATE, G1_EDGES, G3_EDGES, cycle, distances, edge_list, graph6  # noqa: E402

# README: magnitude of fixtures/G1 and its series through q^7
G1_MAGNITUDE = {"num": [-6, -10, 4, 2], "den": [-1, -5, -6, 0, 1, 1],
                "series": [6, -20, 60, -182, 556, -1702, 5214, -15980]}


def maghom(argv):
    from maghom import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_euler_coefficients_of_complete_graph():
    # #K_n = n / (1 + (n-1) q), so c_l = n (1-n)^l
    n = 5
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    assert checks.euler_coefficients(n, distances(n, edges), 6) == [n * (1 - n) ** l for l in range(7)]


def test_inverse_entry_sum_of_triangle():
    edges = [(1, 2), (1, 3), (2, 3)]
    q = Fraction(1, 3)
    assert checks.inverse_entry_sum(3, distances(3, edges), q) == 3 / (1 + 2 * q)


def test_magnitude_check_accepts_the_readme_value_and_rejects_corruption():
    good = json.dumps(G1_MAGNITUDE)
    assert checks.check_magnitude(6, G1_EDGES, False, 7, good) is None
    for key, i in (("num", 1), ("den", 0), ("series", 5)):
        bad = json.loads(good)
        bad[key][i] += 1
        assert checks.check_magnitude(6, G1_EDGES, False, 7, json.dumps(bad))


def test_magnitude_check_on_a_cycle(tmp_path):
    edges = cycle(9)
    rc, out = maghom(["magnitude", write(tmp_path, "c9", edge_list(edges)), "--series", "6", "--json"])
    assert rc == 0 and checks.check_magnitude(9, edges, True, 6, out) is None
    bad = json.loads(out)
    bad["num"][-1] += 1
    assert "sum(Z^-1)" in checks.check_magnitude(9, edges, True, 6, json.dumps(bad))


def _g3_output(lmax=6):
    entries = {f"{k},{l}": {"rank": r, "torsion": []} for (k, l), r in checks.G3_TABLE.items()}
    return {"lmax": lmax, "entries": entries}


def test_mh_table_check_accepts_the_readme_table_and_rejects_an_off_by_one_rank():
    good = _g3_output()
    assert checks.check_mh_table(6, G3_EDGES, 6, json.dumps(good), checks.G3_TABLE) is None
    bad = _g3_output()
    bad["entries"]["5,6"]["rank"] += 1
    assert "alternating rank sum" in checks.check_mh_table(6, G3_EDGES, 6, json.dumps(bad))
    # a compensated pair keeps the Euler characteristic; the table catches it
    bad["entries"]["4,6"]["rank"] += 1
    assert checks.check_mh_table(6, G3_EDGES, 6, json.dumps(bad)) is None
    assert "reference" in checks.check_mh_table(6, G3_EDGES, 6, json.dumps(bad), checks.G3_TABLE)
    bad = _g3_output()
    bad["entries"]["4,6"]["torsion"] = [2]
    assert checks.check_mh_table(6, G3_EDGES, 6, json.dumps(bad), checks.G3_TABLE)


def test_mh_table_check_on_real_output(tmp_path):
    rc, out = maghom(["mh-table", write(tmp_path, "g3", edge_list(G3_EDGES)), "--lmax", "6", "--json"])
    assert rc == 0 and checks.check_mh_table(6, G3_EDGES, 6, out, checks.G3_TABLE) is None


def _census(tmp_path):
    rng = random.Random(7)
    graphs = []
    for m in (6, 9, 12, 15, 18, 21):
        graphs.append((7, workloads._random_connected(rng, 7, m)))
    graphs.append((6, G1_EDGES))
    graphs.append((7, tuple((u, v) for u in range(1, 8) for v in range(u + 1, 8))))
    path = write(tmp_path, "s.g6", "".join(graph6(n, e) + "\n" for n, e in graphs))
    rc, out = maghom(["classify", path, "--lmax", "4"])
    assert rc == 0
    return graphs, out


def test_census_check_accepts_real_records_and_rejects_flipped_verdicts(tmp_path):
    graphs, out = _census(tmp_path)
    assert checks.check_census(graphs, 4, out) == [None] * len(graphs)
    records = [json.loads(line) for line in out.splitlines()]
    assert all(records[-1][k] is True for k in ("pawful", "star", "s_found", "diagonal"))
    for field in ("pawful", "diagonal", "s_found", "star"):
        flipped = [dict(r) for r in records]
        flipped[-1][field] = not flipped[-1][field]
        verdicts = checks.check_census(graphs, 4, "\n".join(json.dumps(r) for r in flipped))
        assert verdicts[-1] and verdicts[:-1] == [None] * (len(graphs) - 1), field


def test_census_check_wants_one_record_per_line(tmp_path):
    graphs, out = _census(tmp_path)
    short = "\n".join(out.splitlines()[:-1])
    assert all(checks.check_census(graphs, 4, short))


def test_morse_check_accepts_real_report_and_rejects_a_wrong_critical_count(tmp_path):
    g = write(tmp_path, "g1", edge_list(G1_EDGES))
    cert = write(tmp_path, "g1.sstruct", G1_CERTIFICATE)
    rc, out = maghom(["morse", g, "--a", "1", "--b", "3", "--ell", "6", "--matching", cert, "--report"])
    assert checks.check_morse(6, G1_EDGES, 1, 3, 6, rc, out) is None
    crit = int(out.split("critical cells: ")[1].split()[0])
    cells = int(out.split("subcomplex: ")[1].split()[0])
    bad = out.replace(f"critical cells: {crit}", f"critical cells: {crit + 2}")
    bad = bad.replace(f"subcomplex: {cells}", f"subcomplex: {cells + 2}")
    assert "Euler" in checks.check_morse(6, G1_EDGES, 1, 3, 6, rc, bad)
    assert checks.check_morse(6, G1_EDGES, 1, 3, 6, 1, out)
    assert checks.check_morse(6, G1_EDGES, 1, 3, 6, rc, out.replace("homology model: ok", "homology model: no"))


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_batches_are_seeded_and_hold_no_repeated_graph(workload):
    def batch(seed):
        return workloads.make_batch(workload, random.Random(seed), set())

    assert batch(3) == batch(3)
    calls = batch(3)
    graphs = [g for c in calls for g in c["graphs"]] if workload == "census" else [
        (c["n"], c["edges"]) for c in calls]
    assert len(set(graphs)) == len(graphs)
