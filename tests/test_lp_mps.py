import hashlib
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessmg.builder import ProblemData, build
from hessmg.data import Horizon, PvSpec, SourceSpec, load_catalog, make_demo_dataset
from hessmg.lp import EQ, GE, INF, LE, SENSES, ModelError, ModelInstance, Rows
from hessmg import mps
from hessmg.mps import MpsFormatError, read_mps, write_mps
from hessmg.scenario import build_scenario


def _tiny_model():
    m = ModelInstance()
    x = m.add_var("p", "x", lb=0.0, ub=4.0)
    y = m.add_var("p", "y", lb=-INF, ub=INF)
    m.add_row([(x, 1.0), (y, 1.0)], GE, 1.0, "cover", "demo")
    m.add_row([(x, 1.0), (y, -1.0)], EQ, 0.5, "link", "demo")
    m.add_objective(x, 2.0)
    m.add_objective(y, 3.0)
    m.objective_constant = 5.0
    return m


class TestModelInstance:
    def test_variable_registry(self):
        m = ModelInstance()
        m.add_vars([("E_soe", "battery", 0.0, 2.0)], 4)
        col = m.var("E_soe", "battery", 3)
        assert col == 3 and m.col_names[col] == "E_soe.battery.k3"
        for step in (4, -1):
            with pytest.raises(KeyError):
                m.var("E_soe", "battery", step)
        assert m.n_vars == 4
        # a design variable is one column, named without a step
        e_max = m.add_var("E_max", "battery", ub=5.0)
        assert e_max == 4 and m.var("E_max", "battery") == e_max
        assert m.col_names[e_max] == "E_max.battery"
        with pytest.raises(KeyError):
            m.var("E_max", "battery", 0)
        assert m.entities("E_soe") == ["battery"] and m.entities("E_max") == []
        with pytest.raises(KeyError):
            m.columns("E_max", "battery")
        with pytest.raises(KeyError):
            m.var("E_soe", "battery")

    def test_duplicate_variable_rejected(self):
        m = ModelInstance()
        m.add_var("a", "x")
        with pytest.raises(ModelError, match="duplicate"):
            m.add_var("a", "x")
        with pytest.raises(ModelError, match="duplicate"):
            m.add_vars([("a", "x", 0.0, 1.0)], 2)
        m.add_vars([("a", "y", 0.0, 1.0)], 2)
        with pytest.raises(ModelError, match="duplicate"):
            m.add_var("a", "y")

    def test_bad_bounds_rejected(self):
        m = ModelInstance()
        with pytest.raises(ModelError):
            m.add_var("a", "x", lb=2.0, ub=1.0)
        with pytest.raises(ModelError):
            m.add_var("a", "y", lb=math.nan)
        # no point takes a lower bound of +inf or an upper bound of -inf
        with pytest.raises(ModelError, match="bad bounds"):
            m.add_var("a", "z", lb=INF)
        with pytest.raises(ModelError, match="bad bounds"):
            m.add_var("a", "w", lb=-INF, ub=-INF)

    def test_set_bounds_checks_as_add_columns(self):
        m = ModelInstance()
        x = m.add_var("a", "x", ub=3.0)
        for lb, ub in ((INF, INF), (-INF, -INF), (2.0, 1.0), (math.nan, 1.0)):
            with pytest.raises(ModelError, match="bad bounds .* for a.x"):
                m.set_bounds(x, lb, ub)
        assert (m.lower, m.upper) == ([0.0], [3.0])
        m.set_bounds(x, -INF, INF)
        assert (m.lower, m.upper) == ([-INF], [INF])

    def test_row_merges_duplicate_columns(self):
        m = ModelInstance()
        x = m.add_var("a", "x")
        m.add_row([(x, 1.0), (x, 2.5)], LE, 1.0, "r", "t")
        assert m.rows[0].cols == [x]
        assert m.rows[0].coefs == [3.5]

    def test_zero_coefficients_dropped(self):
        m = ModelInstance()
        x = m.add_var("a", "x")
        y = m.add_var("a", "y")
        m.add_row([(x, 0.0), (y, 1.0)], LE, 1.0, "r", "t")
        assert m.rows[0].cols == [y]

    def test_empty_and_nonfinite_rows_rejected(self):
        m = ModelInstance()
        x = m.add_var("a", "x")
        with pytest.raises(ModelError, match="empty row"):
            m.add_row([(x, 0.0)], LE, 1.0, "r", "t")
        with pytest.raises(ModelError, match="empty row"):
            m.add_row([], LE, 1.0, "r", "t")
        with pytest.raises(ModelError, match="non-finite"):
            m.add_row([(x, math.inf)], LE, 1.0, "r", "t")
        with pytest.raises(ModelError, match="non-finite"):
            m.add_row([(x, 1.0)], LE, math.nan, "r", "t")
        # a sense is a code, LE, EQ or GE: its text is no sense
        for sense in ("<", "<="):
            with pytest.raises(ModelError, match="block t: unknown sense code"):
                m.add_row([(x, 1.0)], sense, 1.0, "r", "t")
        assert m.n_rows == 0

    def test_objective_terms_accumulate(self):
        m = _tiny_model()
        m.add_objective(m.var("p", "x"), 1.0)
        c = m.objective_vector()
        assert c[m.var("p", "x")] == 3.0
        with pytest.raises(ModelError, match="unknown objective column 2"):
            m.add_objective([0, 2], 1.0)

    def test_dense_views(self):
        m = _tiny_model()
        a = m.row_matrix().toarray()
        np.testing.assert_array_equal(a, [[1, 1], [1, -1]])
        assert m.sense_codes().tolist() == [GE, EQ]
        assert [r.sense for r in m.rows] == [SENSES[GE], SENSES[EQ]] == [">=", "=="]
        np.testing.assert_array_equal(m.rhs_vector(), [1.0, 0.5])
        np.testing.assert_array_equal(m.row_matrix() @ [1.0, 2.0], [3.0, -1.0])
        lo, hi = m.bounds_arrays()
        assert lo.tolist() == [0.0, -INF] and hi.tolist() == [4.0, INF]

    def test_row_bounds_by_sense(self):
        m = ModelInstance()
        x = m.add_var("a", "x")
        for i, sense in enumerate((LE, GE, EQ, LE)):
            m.add_row([(x, 1.0)], sense, i - 1.5, f"r{i}", "t")
        lower, upper = m.row_bounds()
        assert lower.tolist() == [-INF, -0.5, 0.5, -INF]
        assert upper.tolist() == [-1.5, INF, 0.5, 1.5]
        assert m.rhs_vector().tolist() == [-1.5, -0.5, 0.5, 1.5]    # left as it was
        assert ModelInstance().row_bounds()[0].shape == (0,)

    def test_rows_setter_takes_the_text_of_each_sense(self):
        m = _tiny_model()
        rows = list(m.rows)
        m.rows = rows
        assert m.signature() == _tiny_model().signature()
        rows[0].sense = "=<"
        with pytest.raises(ModelError, match="block demo: unknown sense code"):
            m.rows = rows

    def test_row_matrix_is_cached_until_a_row_is_added(self):
        m = _tiny_model()
        a = m.row_matrix()
        assert m.row_matrix() is a
        rows = m.rows
        m.add_row([(m.var("p", "x"), 2.0)], LE, 3.0, "cap", "demo")
        b = m.row_matrix()
        assert b is not a and b.shape == (3, 2)
        np.testing.assert_array_equal(b.toarray()[2], [2.0, 0.0])
        assert len(m.rows) == 3 and m.rows is not rows

    def test_block_matches_row_by_row(self):
        def model():
            m = ModelInstance()
            m.add_vars([("p", "a", 0.0, 1.0), ("p", "b", -1.0, INF)], 3)
            return m
        cols = np.array([[1, 0, 1], [3, 2, 3], [5, 4, 4]])
        coefs = np.array([[2.0, -0.0, 0.5], [1.0, 1.0, 1.0], [0.0, 4.0, 2.0]])
        block, rows = model(), model()
        block.add_rows([Rows("fam", ["r0", "r1", "r2"], [0, 3, 6, 9], cols.ravel(),
                             coefs.ravel(), np.array([0, 1, 2], dtype=np.int8),
                             [1.0, 2.0, 3.0])])
        for i, sense in enumerate((LE, EQ, GE)):
            rows.add_row(zip(cols[i], coefs[i]), sense, i + 1.0, f"r{i}", "fam")
        assert block.signature() == rows.signature()
        # -0.0 and 0.0 dropped, repeated columns summed, terms sorted
        assert [(r.cols, r.coefs) for r in block.rows] == [
            ([1], [2.5]), ([2, 3], [1.0, 2.0]), ([4], [6.0])]
        assert block.col_names[:3] == ["p.a.k0", "p.b.k0", "p.a.k1"]
        assert block.var("p", "b", 2) == 5

    def test_blocks_join_in_order(self):
        m = ModelInstance()
        m.add_vars([("p", "a", 0.0, 1.0)], 3)
        m.add_rows([Rows("f", ["a"], [0, 2], [2, 0], [1.0, 3.0], [0], [1.0]),
                    Rows("g", [], [0], [], [], [], []),
                    Rows("g", ["b", "c"], [0, 1, 3], [1, 2, 2], [1.0, 0.5, 0.25], [1, 2],
                         [2.0, 3.0]),
                    Rows("f", ["d"], [0, 1], [1], [4.0], [0], [0.0])])
        assert m.families == ["f", "g"]
        assert [(r.name, r.family, r.cols, r.coefs, r.sense, r.rhs) for r in m.rows] == [
            ("a", "f", [0, 2], [3.0, 1.0], "<=", 1.0), ("b", "g", [1], [1.0], "==", 2.0),
            ("c", "g", [2], [0.75], ">=", 3.0), ("d", "f", [1], [4.0], "<=", 0.0)]
        assert m.sense_codes().tolist() == [LE, EQ, GE, LE]
        m.add_rows([])
        assert m.n_rows == 4

    def test_block_checks_every_row(self):
        m = ModelInstance()
        m.add_vars([("p", "a", 0.0, 1.0)], 2)
        ok = dict(family="t", names=["a", "b"], indptr=[0, 1, 2], cols=[0, 1],
                  coefs=[1.0, 1.0], sense=[0, 0], rhs=[0.0, 0.0])
        for bad, match in ((dict(coefs=[1.0, math.nan]), "non-finite coefficient in row b"),
                           (dict(coefs=[1.0, -0.0]), "empty row b"),
                           (dict(indptr=[0, 1, 1], cols=[0], coefs=[1.0]), "empty row b"),
                           (dict(rhs=[0.0, math.inf]), "non-finite rhs in row b"),
                           (dict(rhs=[0.0]), "block t: 1 right-hand sides for 2 rows"),
                           (dict(cols=[0, 2]), "unknown column in row b"),
                           (dict(sense=np.array([0, 3])), "block t: unknown sense code"),
                           (dict(sense=np.array([0, 256])), "block t: unknown sense code"),
                           (dict(sense=[0]), "block t: unknown sense code"),
                           (dict(sense=[0, -1]), "block t: unknown sense code"),
                           (dict(sense=["<=", "<="]), "block t: unknown sense code"),
                           (dict(sense=np.array([0.0, 1.0])), "block t: unknown sense code"),
                           (dict(sense=np.array(["0", "1"])), "block t: unknown sense code"),
                           (dict(indptr=[0, 2, 1]), "block t: terms do not match 2 rows"),
                           (dict(indptr=[0, 3, 2]), "block t: terms do not match 2 rows"),
                           (dict(indptr=[0, 2]), "block t: terms do not match 2 rows"),
                           (dict(coefs=[1.0]), "block t: terms do not match 2 rows")):
            with pytest.raises(ModelError, match=match):
                m.add_rows([Rows(**{**ok, **bad})])
            # nothing of a faulty call is kept, not even its good blocks
            with pytest.raises(ModelError, match=match.replace("block t", "block u")):
                m.add_rows([Rows(**ok), Rows(**{**ok, **bad, "family": "u"})])
        assert m.n_rows == 0 and m.families == []

    def test_structure_is_hashable_and_discriminates(self):
        a, b = _tiny_model(), _tiny_model()
        assert a.signature() == b.signature()
        hash(a.signature())
        b.objective_constant = 6.0
        assert a.signature() != b.signature()


GOLDEN_MPS = """NAME TINY
ROWS
 N COST
 G cover
 E link
COLUMNS
 p.x COST 2
 p.x cover 1
 p.x link 1
 p.y COST 3
 p.y cover 1
 p.y link -1
RHS
 RHS COST -5
 RHS cover 1
 RHS link 0.5
BOUNDS
 UP BND p.x 4
 FR BND p.y
ENDATA
"""


RESOURCES = pathlib.Path(__file__).resolve().parents[1] / "src" / "hessmg" / "resources"


def _golden_instances():
    """Seeded models whose MPS bytes are pinned: one hourly day with all
    storage; three 15-min days, battery only, with zero-PV steps; two
    hourly days with fixed design values."""
    cat = load_catalog(RESOURCES / "catalog_case_study.ini")
    days = make_demo_dataset(seed=3, n_days=20)
    data = ProblemData.from_scenario(build_scenario(days, w=1, t_syn=1, seed=3),
                                     Horizon(t_syn=1), SourceSpec(), dict(cat))
    yield "day_bsf", build(data)

    days = make_demo_dataset(seed=5, n_days=10, steps_per_day=96)
    data = ProblemData.from_scenario(build_scenario(days, w=3, t_syn=3, seed=5),
                                     Horizon(tau_minutes=15, t_syn=3), SourceSpec(),
                                     {"battery": cat["battery"]})
    assert (data.pv_cf == 0).any()
    yield "15min_battery", build(data)

    days = make_demo_dataset(seed=8, n_days=15)
    data = ProblemData.from_scenario(
        build_scenario(days, w=2, t_syn=2, seed=8), Horizon(t_syn=2), SourceSpec(),
        {"battery": cat["battery"], "supercapacitor": cat["supercapacitor"]})
    yield "pinned", build(data, fixed={"E_max.battery": 1.25, "P_max_src.PV": 2.0})


# sha256 and size of write_mps output, recorded with the row-by-row writer
# that the array-based one replaced and moved by three model changes since:
# soe_periodic compares E[K] with E[0] (it read E[1]), wear is counted on
# the gross flow through each cell (no q_aux columns, no q_epi rows), and
# wear is charged on the storage powers (no Q_throughput, no throughput row).
# 15min_battery was re-recorded when the initial-SoE option went: its file
# is the earlier one without the soe_init.battery row and its two entries.
# All three were re-recorded when each converter's two net rows per step
# (grid_cap_hi/lo, ess_pow_hi/lo) became one gross row (grid_cap,
# ess_pow); with every line naming those rows left out, the old and new
# files are the same bytes.
GOLDEN_HASHES = {
    "day_bsf": ("4266856944115b9a8f2c929aa3d6a93350f385622d6e6c4b01372b3f6e099fc9", 95294),
    "15min_battery": ("fb6944b6c67060f3971f8b6338e502e245da96c1d7b07c60dfe6bc05c723a425",
                      504971),
    "pinned": ("2324dec9767ed0d5caed5b5c5edd5beddc74694b0c449d25ca7699141277aef2", 141514),
}


# Each golden instance's row families (MPS does not carry them) and the
# sha256 of its per-row family codes as little-endian int32, recorded before
# the builder added every row in one block.
GOLDEN_FAMILIES = {
    "day_bsf": "9fa5c69762bcaaba289c6900b60b824c87b6520c1ba8f36b9f480c7adb825141",
    "15min_battery": "9061807b96954761946b36509361a2dfc30c487d9138ec78c987dd1f53e59dfe",
    "pinned": "683f000279490f56aa178ed61c2b8701bd78ec7e6f6bdce9af7de5fc0450ea6b",
}


# the bytes of the pieces drawn for _fields_per_line: every ASCII control
# and whitespace code, a letter, and the UTF-8 of é, U+00A0 and U+2003 (the
# last two whitespace to str.split, but not ASCII)
_PIECE_BYTES = [bytes([c]) for c in (*range(33), 127)] + [
    b"a", *(c.encode() for c in "\u00e9\u00a0\u2003")]
# the ASCII whitespace of str.split, each code mapped to a blank
_ASCII_SPACE = bytes(c for c in range(128) if chr(c).isspace())
_ASCII_SPACE_TO_BLANK = bytes.maketrans(_ASCII_SPACE, b" " * len(_ASCII_SPACE))


class TestMps:
    def test_golden_row_families(self):
        for name, model in _golden_instances():
            assert model.families == ["bounds", "balance", "dynamics", "mccormick", "peak",
                                      "capex"], name
            codes = np.asarray(model.family_codes(), dtype="<i4").tobytes()
            assert hashlib.sha256(codes).hexdigest() == GOLDEN_FAMILIES[name], name

    def test_golden_model_hashes(self, tmp_path):
        for name, model in _golden_instances():
            path = tmp_path / f"{name}.mps"
            write_mps(model, path)
            data = path.read_bytes()
            assert (hashlib.sha256(data).hexdigest(), len(data)) == GOLDEN_HASHES[name]
            assert read_mps(path).signature() == model.signature()

    def test_term_order_within_a_row_does_not_matter(self, tmp_path, monkeypatch):
        add_rows = ModelInstance.add_rows
        reversed_terms = []

        def add_reversed(model, blocks):
            """The stage blocks with every row's terms in reverse order."""
            flipped = []
            for b in blocks:
                indptr = np.asarray(b.indptr)
                counts = np.diff(indptr)
                at = (np.repeat(indptr[:-1] + indptr[1:] - 1, counts)
                      - np.arange(indptr[-1]))
                flipped.append(b._replace(cols=np.asarray(b.cols)[at],
                                          coefs=np.asarray(b.coefs)[at]))
                reversed_terms.append(counts.max(initial=0) > 1)
            add_rows(model, flipped)

        built = {name: model for name, model in _golden_instances()}
        monkeypatch.setattr(ModelInstance, "add_rows", add_reversed)
        for name, model in _golden_instances():
            assert model.signature() == built[name].signature(), name
            write_mps(model, tmp_path / "reversed.mps")
            write_mps(built[name], tmp_path / "built.mps")
            assert ((tmp_path / "reversed.mps").read_bytes()
                    == (tmp_path / "built.mps").read_bytes()), name
        assert any(reversed_terms)

    def test_golden_file_byte_exact(self, tmp_path):
        path = tmp_path / "tiny.mps"
        write_mps(_tiny_model(), path, name="TINY")
        assert path.read_text() == GOLDEN_MPS

    def test_tiny_round_trip(self, tmp_path):
        path = tmp_path / "tiny.mps"
        model = _tiny_model()
        write_mps(model, path, name="TINY")
        again = read_mps(path)
        assert again.signature() == model.signature()

    def test_rewrite_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.mps"
        second = tmp_path / "b.mps"
        model = _tiny_model()
        write_mps(model, first, name="TINY")
        write_mps(read_mps(first), second, name="TINY")
        assert first.read_bytes() == second.read_bytes()

    def test_full_model_round_trip(self, tmp_path):
        days = make_demo_dataset(seed=0, n_days=20)
        horizon = Horizon(t_syn=2)
        scenario = build_scenario(days, w=2, t_syn=2, seed=0)
        ess = {"battery": _battery()}
        data = ProblemData.from_scenario(scenario, horizon, SourceSpec(), ess)
        model = build(data)
        path = tmp_path / "full.mps"
        write_mps(model, path)
        assert read_mps(path).signature() == model.signature()

    def test_seventeen_digit_values_survive(self, tmp_path):
        m = ModelInstance()
        x = m.add_var("v", "x", lb=0.0, ub=0.1 + 0.2)  # 0.30000000000000004
        m.add_row([(x, 1.0 / 3.0)], LE, math.pi, "r", "t")
        m.add_objective(x, 2.0 ** -40)
        path = tmp_path / "prec.mps"
        write_mps(m, path)
        again = read_mps(path)
        assert again.upper[0] == 0.1 + 0.2
        assert again.rows[0].coefs[0] == 1.0 / 3.0
        assert again.rows[0].rhs == math.pi

    def test_reader_rejects_integer_sections(self, tmp_path):
        path = tmp_path / "bad.mps"
        path.write_text(GOLDEN_MPS.replace(" UP BND p.x 4", " BV BND p.x"))
        with pytest.raises(MpsFormatError,
                           match=f"^{re.escape(str(path))}: BOUNDS: unknown bound type BV$"):
            read_mps(path)

    def test_reader_rejects_ranges(self, tmp_path):
        path = tmp_path / "bad.mps"
        path.write_text(GOLDEN_MPS.replace("BOUNDS\n", "RANGES\n RHS cover 1\nBOUNDS\n"))
        with pytest.raises(MpsFormatError, match=(
                f"^{re.escape(str(path))}: sections NAME ROWS COLUMNS RHS RANGES BOUNDS "
                "ENDATA; write_mps writes NAME ROWS COLUMNS RHS BOUNDS ENDATA$")):
            read_mps(path)

    def test_reading_in_small_pieces_matches(self, tmp_path, monkeypatch):
        # pieces cut sections mid-way, also inside a column's run of lines
        name, model = next(i for i in _golden_instances() if i[0] == "day_bsf")
        path = tmp_path / "model.mps"
        write_mps(model, path)
        monkeypatch.setattr(mps, "_PIECE", 1000)
        assert read_mps(path).signature() == model.signature()

    def test_mixed_bounds_in_small_pieces_match(self, tmp_path, monkeypatch):
        # BOUNDS mixes lines of 3 fields (FR, MI) and of 4 (UP, LO, FX), and
        # pieces cut it between lines of either kind
        kinds = [(0.0, 4.0), (-INF, INF), (-INF, 2.0), (1.5, INF), (3.0, 3.0),
                 (-2.0, 5.0), (-INF, -1.0)]
        lower, upper = zip(*kinds * 30)
        model = ModelInstance()
        model.add_columns([f"c{j}" for j in range(len(lower))], lower, upper)
        model.add_row([(j, 1.0) for j in range(len(lower))], LE, 1.0, "r", "t")
        path = tmp_path / "bounds.mps"
        write_mps(model, path)
        monkeypatch.setattr(mps, "_PIECE", 50)
        assert read_mps(path).signature() == model.signature()

    @pytest.mark.parametrize("old, new, where", [
        ("ROWS\n", "* a comment\nROWS\n", "sections NAME * a comment ROWS"),
        (" p.y cover 1\n", "   * indented comment\n p.y cover 1\n", "COLUMNS: "),
        ("COLUMNS\n", "COLUMNS\n\n", "COLUMNS: "),
        (" p.x COST 2\n p.x cover 1\n", " p.x COST 2 cover 1\n", "COLUMNS: "),
        ("ROWS\n", "OBJSENSE\n    MIN\nROWS\n", "sections NAME OBJSENSE ROWS"),
        ("ROWS\n", "OBJSENSE\n    MAX\nROWS\n", "sections NAME OBJSENSE ROWS"),
        ("COLUMNS\n", "COLUMNS\n    MARKER    'MARKER'    'INTORG'\n", "COLUMNS: "),
        (" FR BND p.y", " PL BND p.y", "BOUNDS: "),
        (" RHS cover 1", " RHS1 cover 1", "RHS: "),
    ], ids=["comment", "indented comment", "blank line", "two pairs per line",
            "OBJSENSE MIN", "OBJSENSE MAX", "MARKER", "PL bound", "RHS set name"])
    def test_reader_refuses_other_layouts(self, tmp_path, old, new, where):
        # only the layout write_mps writes is read; each other one names its section
        path = tmp_path / "other.mps"
        path.write_text(GOLDEN_MPS.replace(old, new))
        with pytest.raises(MpsFormatError, match=f"^{re.escape(f'{path}: {where}')}"):
            read_mps(path)

    def test_reader_refuses_an_impossible_bound(self, tmp_path):
        path = tmp_path / "bad.mps"
        path.write_text(GOLDEN_MPS.replace(" UP BND p.x 4", " LO BND p.x inf"))
        with pytest.raises(ModelError, match=r"bad bounds \[inf, inf\] for p.x"):
            read_mps(path)

    def test_reader_rejects_odd_columns_entry(self, tmp_path):
        path = tmp_path / "bad.mps"
        path.write_text(GOLDEN_MPS.replace(" p.y link -1", " p.y link -1 cover"))
        with pytest.raises(MpsFormatError,
                           match=f"^{re.escape(str(path))}: COLUMNS: a line of 4 fields"):
            read_mps(path)

    def test_reader_rejects_unknown_bound_column(self, tmp_path):
        path = tmp_path / "bad.mps"
        path.write_text(GOLDEN_MPS.replace(" FR BND p.y", " FR BND p.z"))
        with pytest.raises(MpsFormatError,
                           match=f"^{re.escape(str(path))}: BOUNDS: unknown column p.z$"):
            read_mps(path)

    def test_reader_rejects_unknown_row(self, tmp_path):
        path = tmp_path / "bad.mps"
        path.write_text(GOLDEN_MPS.replace(" p.x cover 1", " p.x nosuch 1"))
        with pytest.raises(MpsFormatError,
                           match=f"^{re.escape(str(path))}: COLUMNS: unknown row nosuch$"):
            read_mps(path)

    @pytest.mark.parametrize("old, new, section", [
        (" E link\n", " E\n", "ROWS"),
        (" UP BND p.x 4", " UP BND", "BOUNDS"),
        (" p.x cover 1", " p.x cover one", "COLUMNS"),
        (" RHS cover 1", " RHS cover one", "RHS"),
        (" UP BND p.x 4", " UP BND p.x four", "BOUNDS"),
        (" RHS cover 1", " RHS cover", "RHS"),
        (" UP BND p.x 4", " UP BND p.x", "BOUNDS"),
        (" UP BND p.x 4", " UP BND p.x 4 5", "BOUNDS"),
    ], ids=["row without name", "bound without column", "columns value",
            "rhs value", "bound value", "rhs without value", "bound without value",
            "bound with two values"])
    def test_reader_names_the_malformed_line(self, tmp_path, old, new, section):
        path = tmp_path / "bad.mps"
        path.write_text(GOLDEN_MPS.replace(old, new))
        with pytest.raises(MpsFormatError, match=f"^{re.escape(str(path))}: {section}: "):
            read_mps(path)

    @pytest.mark.parametrize("old, new, message", [
        (" G cover\n", " N FREE\n G cover\n", "a second N row FREE"),
        (" N COST\n G cover\n", " G cover\n N COST\n", "the first row is not the N row"),
    ], ids=["second", "not first"])
    def test_one_n_row_opens_rows(self, tmp_path, old, new, message):
        path = tmp_path / "objective.mps"
        path.write_text(GOLDEN_MPS.replace(old, new))
        with pytest.raises(MpsFormatError, match=f"^{re.escape(str(path))}: ROWS: {message}$"):
            read_mps(path)

    @pytest.mark.parametrize("piece", [None, 1, 20],
                             ids=["bulk", "in a later piece", "in a later piece of two lines"])
    @pytest.mark.parametrize("name", ["cover", "COST"])
    def test_repeated_row_name_names_its_line(self, tmp_path, monkeypatch, name, piece):
        text = GOLDEN_MPS.replace(" E link\n", f" E link\n G {name}\n L after\n")
        if piece is not None:
            monkeypatch.setattr(mps, "_PIECE", piece)
        path = tmp_path / "repeated.mps"
        path.write_text(text)
        with pytest.raises(MpsFormatError,
                           match=f"^{re.escape(str(path))}: ROWS: repeated row name {name}$"):
            read_mps(path)

    @pytest.mark.parametrize("old, new, message", [
        (" p.x COST 2", " p.x\u00a0COST cover 2", "COLUMNS: whitespace that is not ASCII"),
        (" p.x cover 1", "\u00a0p.x\u00a0cover 1", "COLUMNS: a line of 2 fields"),
    ], ids=["between fields", "opening a line"])
    def test_non_ascii_whitespace_is_no_separator(self, tmp_path, old, new, message):
        # U+00A0 is whitespace to str.split but not to the writer, which
        # separates fields by spaces; a line that opens with it is no header
        path = tmp_path / "nbsp.mps"
        path.write_bytes(GOLDEN_MPS.replace(old, new).encode())
        with pytest.raises(MpsFormatError, match=f"^{re.escape(f'{path}: {message}')}"):
            read_mps(path)

    @pytest.mark.parametrize("old, new, section", [
        (b" p.y cover 1", b" p.\xffy cover 1", "COLUMNS"),
        (b"NAME TINY", b"NAME T\xffNY", "NAME"),
        (b" FR BND p.y", b" FR BND p.\xe9", "BOUNDS"),
    ], ids=["column name", "model name", "cut character"])
    def test_text_that_is_not_utf8_names_its_section(self, tmp_path, old, new, section):
        data = GOLDEN_MPS.encode().replace(old, new)
        path = tmp_path / "latin1.mps"
        path.write_bytes(data)
        at = data.index(new) + next(i for i, c in enumerate(new) if c > 127)
        with pytest.raises(MpsFormatError, match=(
                f"^{re.escape(str(path))}: {section}: not UTF-8 text "
                f"\\(byte 0x{data[at]:02x} at offset {at}: ")):
            read_mps(path)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_PIECE_BYTES)).map(b"".join), st.booleans())
    def test_fields_per_line_counts_runs_between_ascii_whitespace(self, body, newline):
        piece = body + b"\n" if newline else body
        lines = piece.split(b"\n")
        if piece.endswith(b"\n"):
            lines.pop()
        spaced = [line.translate(_ASCII_SPACE_TO_BLANK).split(b" ") for line in lines]
        assert mps._fields_per_line(piece).tolist() == [
            sum(1 for field in line if field) for line in spaced]

    def test_isolated_columns_round_trip(self, tmp_path):
        # a column in no row and without cost is written with a zero cost
        model = _tiny_model()
        model.add_var("p", "boxed", lb=1.0, ub=3.0)
        model.add_var("p", "free_standing")
        path = tmp_path / "isolated.mps"
        write_mps(model, path)
        assert " p.free_standing COST 0\n" in path.read_text()
        assert read_mps(path).signature() == model.signature()

    def test_free_pv_without_sun_round_trips(self, tmp_path):
        # zero-cost PV with no availability leaves P_max_src.PV isolated
        horizon = Horizon(t_syn=1)
        k = horizon.n_steps
        data = ProblemData(
            horizon=horizon, sources=SourceSpec(pv=PvSpec(cost_per_mw=0.0, om_per_mw_yr=0.0)),
            ess={"battery": _battery()}, price=np.full(k, 50.0),
            demand_ch=np.ones(k), demand_wh=np.zeros(k), pv_cf=np.zeros(k))
        model = build(data)
        path = tmp_path / "free_pv.mps"
        write_mps(model, path)
        assert read_mps(path).signature() == model.signature()


def _battery():
    from hessmg.data import EssSpec
    return EssSpec(
        name="battery", eta_c=0.83, eta_d=0.88, cost_energy=900.0,
        cost_power=1590.0, om_energy=3.0, om_power=30.0, cycle_life=5000.0,
        e_cap_max=5.0, p_cap_max=10.0, crate_max=3.0, dod_min_frac=0.15,
        resale_factor=0.85)
