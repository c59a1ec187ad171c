"""Tests for the exact lattice accuracy analysis."""

from __future__ import annotations

import json
import math
import os
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rngaudit.generators import LcgParams, make_generator
from rngaudit.io import TEXT_BLOCK, save_sample
from rngaudit.spectral import (
    SVG_MAX_POINTS,
    _lll_reduce,
    _round_half_even,
    acceptance_threshold,
    acceptance_threshold_sq,
    dual_lattice_basis,
    export_cloud_csv,
    export_cloud_svg,
    plane_membership,
    point_cloud,
    shortest_vector,
    spectral_accept,
    spectral_accuracy_sq,
)
from rngaudit.stats import summary_verdict

from oracles import (SVG_HEAD, first_line_apart, fraction_lll_reduce, lagrange_shortest,
                     lattice_min_norm_sq, svg_circles)

REL = 1e-12

SMALL_MOD = LcgParams(modulus=262144, multiplier=4649, increment=819, seed=1)
GOOD = LcgParams(modulus=2**31 - 1, multiplier=742938285, increment=0, seed=1)

# Values whose text is easy to get wrong: both zeros, NaNs of either sign
# and another payload, the least subnormal, repr's switch to an exponent.
AWKWARD = [-0.0, 0.0, math.nan, -math.nan,
           float(np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]),
           5e-324, 1e-05, 9.999999999999999e-06, 0.0001, 0.1, 1.0, 1e16,
           math.inf, -math.inf]
CLOUD_VALUES = st.sampled_from(AWKWARD) | st.floats(allow_nan=True, allow_infinity=True)


def _svg_text(points) -> str:
    return "".join([SVG_HEAD, *(c + "\n" for c in svg_circles(points)), "</svg>\n"])


def _det_int(rows):
    """Exact integer determinant by cofactor expansion (small d only)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det_int(minor)
    return total


# ---------------------------------------------------------------------------
# dual lattice basis


class TestDualBasis:
    def test_row_structure(self):
        rows = dual_lattice_basis(LcgParams(10, 7, 7, 7), 3)
        assert rows == [[10, 0, 0], [-7, 1, 0], [-9, 0, 1]]  # 7**2 = 49 = 9 mod 10

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_rows_satisfy_dual_congruence(self, d):
        m, a = 262144, 4649
        rows = dual_lattice_basis(SMALL_MOD, d)
        for u in rows:
            assert sum(u[i] * pow(a, i, m) for i in range(d)) % m == 0

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_determinant_is_modulus(self, d):
        rows = dual_lattice_basis(LcgParams(97, 31, 0, 1), d)
        assert abs(_det_int(rows)) == 97

    @pytest.mark.parametrize("d", [1, 9])
    def test_rejects_dimension_outside_range(self, d):
        with pytest.raises(ValueError):
            dual_lattice_basis(SMALL_MOD, d)


# ---------------------------------------------------------------------------
# shortest vector


class TestShortestVector:
    def test_two_dimensional_hand_lattice(self):
        # lattice of (10, 0) and (-7, 1): minimum at (3, 1) or (-1, 3)
        vec = shortest_vector([[10, 0], [-7, 1]])
        assert sum(x * x for x in vec) == 10

    def test_three_dimensional_hand_lattice(self):
        # (4,0,0), (1,1,0), (0,1,1): no unit vector exists, norm 2 does
        vec = shortest_vector([[4, 0, 0], [1, 1, 0], [0, 1, 1]])
        assert sum(x * x for x in vec) == 2

    def test_identity_lattice(self):
        vec = shortest_vector([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert sum(x * x for x in vec) == 1

    def test_scaled_identity(self):
        vec = shortest_vector([[5, 0], [0, 5]])
        assert math.sqrt(sum(x * x for x in vec)) == 5.0

    @pytest.mark.parametrize("rows", [
        [[1, 2, 3], [2, 4, 6], [0, 0, 1]],   # second row dependent
        [[1, 0, 0], [0, 1, 0], [1, 1, 0]],   # last row dependent
        [[1, 2], [2, 4]],
        [[0, 0], [1, 1]],
        [[3, 0], [0, 0]],
    ])
    def test_singular_basis_raises(self, rows):
        with pytest.raises(ValueError, match="singular"):
            shortest_vector(rows)


# every golden and benchmark multiplier: d = 2 gives Lagrange's vector itself
NAMED_MULTIPLIERS = [
    (10, 7), (1024, 389), (40000, 4001), (262144, 4649), (4096, 1229),
    (16384, 4649), (1048576, 4649), (1048576, 4651), (2**31 - 1, 16807),
    (2**31 - 1, 742938285), (2**32, 69069), (4951760154835678088235319297, 3),
]


class TestTwoDimensionsAgainstLagrange:
    """d = 2 runs LLL plus enumeration; Lagrange reduction checks it at
    moduli far beyond the exhaustive oracle."""

    def test_same_length_up_to_2_62(self):
        rng = random.Random(2303)
        for _ in range(300):
            m = rng.randrange(2, 2 ** rng.randint(2, 62) + 1)
            basis = dual_lattice_basis(LcgParams(m, rng.randrange(1, m), 0, 1), 2)
            got, want = shortest_vector(basis), lagrange_shortest(*basis)
            assert sum(x * x for x in got) == sum(x * x for x in want), basis

    @pytest.mark.parametrize("m,a", NAMED_MULTIPLIERS)
    def test_same_vector_on_named_multipliers(self, m, a):
        basis = dual_lattice_basis(LcgParams(m, a, 0, 1), 2)
        assert shortest_vector(basis) == lagrange_shortest(*basis)


class TestIntegralLll:
    """The integer LLL takes the same steps as the rational textbook one."""

    @given(m=st.integers(2, 2**64), a=st.integers(1, 2**64), d=st.integers(3, 8))
    @settings(max_examples=20, deadline=None)
    def test_same_basis_as_rational_lll(self, m, a, d):
        basis = dual_lattice_basis(LcgParams(m, 1 + (a - 1) % (m - 1), 0, 1), d)
        reduced, lam, dets = _lll_reduce(basis)
        assert reduced == fraction_lll_reduce(basis)
        assert dets[0] == 1 and all(x > 0 for x in dets)

    def test_same_basis_on_benchmark_multipliers(self):
        for m, a in ((2**31 - 1, 16807), (2**31 - 1, 742938285), (2**32, 69069)):
            for d in (3, 4, 5, 6):
                basis = dual_lattice_basis(LcgParams(m, a, 0, 1), d)
                assert _lll_reduce(basis)[0] == fraction_lll_reduce(basis), (m, a, d)

    @pytest.mark.parametrize("num", [1, -1, 3, -3, 5, -5])
    @pytest.mark.parametrize("scale", [1, 3, 2**70])
    def test_ties_round_to_even(self, num, scale):
        p, q = num * scale, 2 * scale
        assert _round_half_even(p, q) == round(Fraction(p, q))

    @given(p=st.integers(-(2**80), 2**80), q=st.integers(1, 2**80))
    def test_rounding_matches_fraction(self, p, q):
        assert _round_half_even(p, q) == round(Fraction(p, q))


# ---------------------------------------------------------------------------
# accuracy values


class TestSpectralAccuracy:
    def test_small_textbook_pair(self):
        sq, vec = spectral_accuracy_sq(LcgParams(10, 7, 7, 7), 2)
        assert sq == 10
        assert sum(x * x for x in vec) == 10
        nu = math.sqrt(spectral_accuracy_sq(LcgParams(10, 7, 7, 7), 2)[0])
        assert nu == pytest.approx(math.sqrt(10), rel=REL)

    @pytest.mark.parametrize(
        "d,expected",
        [(2, 168328), (3, 1496), (4, 266), (5, 84), (6, 52)],
    )
    def test_frozen_values_poor_multiplier(self, d, expected):
        sq, vec = spectral_accuracy_sq(SMALL_MOD, d)
        assert sq == expected
        m, a = SMALL_MOD.modulus, SMALL_MOD.multiplier
        assert sum(vec[i] * pow(a, i, m) for i in range(d)) % m == 0
        assert sum(x * x for x in vec) == expected

    @pytest.mark.parametrize(
        "d,expected",
        [(2, 1865046914), (3, 1553522), (4, 48775), (5, 5670), (6, 1495)],
    )
    def test_frozen_values_good_multiplier(self, d, expected):
        sq, _ = spectral_accuracy_sq(GOOD, d)
        assert sq == expected

    def test_matches_exhaustive_oracle_on_random_parameters(self):
        rng = random.Random(20260822)
        for _ in range(15):
            m = rng.randrange(16, 4096)
            a = rng.randrange(2, m)
            params = LcgParams(modulus=m, multiplier=a, increment=0, seed=1)
            for d in (2, 3, 4):
                sq, vec = spectral_accuracy_sq(params, d)
                assert sq == lattice_min_norm_sq(m, a, d), (m, a, d)
                assert sum(vec[i] * pow(a, i, m) for i in range(d)) % m == 0

    def test_independent_of_increment_and_seed(self):
        base = spectral_accuracy_sq(SMALL_MOD, 3)[0]
        other = LcgParams(modulus=262144, multiplier=4649, increment=12345, seed=99)
        assert spectral_accuracy_sq(other, 3)[0] == base


# ---------------------------------------------------------------------------
# acceptance thresholds


class TestThresholds:
    @pytest.mark.parametrize(
        "d,value",
        [(2, 32768.0), (3, 1024.0), (4, 181.01933598375618), (5, 64.0), (6, 32.0)],
    )
    def test_required_accuracy(self, d, value):
        assert acceptance_threshold(d) == pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize(
        "d,value", [(2, 2**30), (3, 2**20), (4, 2**15), (5, 2**12), (6, 2**10)]
    )
    def test_squared_form_is_exact(self, d, value):
        sq = acceptance_threshold_sq(d)
        assert isinstance(sq, int)
        assert sq == value

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_squared_and_plain_forms_agree(self, d):
        assert acceptance_threshold(d) ** 2 == pytest.approx(
            acceptance_threshold_sq(d), rel=1e-14
        )

    @pytest.mark.parametrize("d", [1, 7, 8])
    def test_rule_has_no_threshold_outside_range(self, d):
        with pytest.raises(ValueError):
            acceptance_threshold(d)
        with pytest.raises(ValueError):
            acceptance_threshold_sq(d)


# ---------------------------------------------------------------------------
# accept/reject verdicts


def _accuracy_sq(records):
    return {int(r.name.removeprefix("spectral-d")): r.detail["accuracy_sq"] for r in records}


class TestSpectralAccept:
    def test_poor_multiplier_rejected_in_every_dimension(self):
        records = spectral_accept(SMALL_MOD, d_max=6)
        assert summary_verdict(records) == "reject"
        assert _accuracy_sq(records) == {2: 168328, 3: 1496, 4: 266, 5: 84, 6: 52}
        assert [r.verdict for r in records] == ["reject"] * 5

    def test_good_multiplier_accepted(self):
        records = spectral_accept(GOOD, d_max=6)
        assert summary_verdict(records) == "pass"
        assert _accuracy_sq(records) == {
            2: 1865046914, 3: 1553522, 4: 48775, 5: 5670, 6: 1495
        }
        assert [r.verdict for r in records] == ["pass"] * 5

    def test_records_name_each_dimension(self):
        records = spectral_accept(SMALL_MOD, d_max=3)
        assert [r.name for r in records] == ["spectral-d2", "spectral-d3"]
        assert [r.detail["shortest_vector"] for r in records] == [
            spectral_accuracy_sq(SMALL_MOD, d)[1] for d in (2, 3)
        ]

    def test_dimensions_beyond_rule_reported_without_verdict(self):
        records = spectral_accept(SMALL_MOD, d_max=8)
        assert list(_accuracy_sq(records)) == [2, 3, 4, 5, 6, 7, 8]
        assert [r.verdict for r in records[5:]] == ["info", "info"]
        assert summary_verdict(records) == "reject"  # unchanged by the unruled dimensions
        assert records[5].detail["accuracy_sq"] > 0 and records[6].detail["accuracy_sq"] > 0

    def test_partial_range_verdict_covers_only_computed_dims(self):
        # accuracy falls with dimension, so a low d_max can accept a pair
        # the full rule reaches a verdict on later
        records = spectral_accept(GOOD, d_max=2)
        assert summary_verdict(records) == "pass"
        assert [r.name for r in records] == ["spectral-d2"]

    @pytest.mark.parametrize("d_max", [1, 9])
    def test_rejects_bad_dimension_limit(self, d_max):
        with pytest.raises(ValueError):
            spectral_accept(SMALL_MOD, d_max=d_max)

    def test_statistic_is_sqrt_of_exact(self):
        for r in spectral_accept(SMALL_MOD, d_max=4):
            assert r.statistic == pytest.approx(math.sqrt(r.detail["accuracy_sq"]), rel=REL)

    def test_to_dict_round_trips_through_json(self):
        records = spectral_accept(SMALL_MOD, d_max=6)
        d = json.loads(json.dumps([r.to_dict() for r in records]))
        assert [r["name"] for r in d] == [f"spectral-d{k}" for k in range(2, 7)]
        assert d[0]["detail"]["accuracy_sq"] == 168328
        assert d[0]["detail"]["threshold_sq"] == 2**30
        assert d[0]["detail"]["threshold"] == 32768.0
        assert d[4]["verdict"] == "reject"
        assert d[0]["statistic"] == pytest.approx(math.sqrt(168328), rel=REL)
        assert d[0]["p_value"] is None and d[0]["alpha"] is None
        assert d[1]["detail"]["shortest_vector"] == spectral_accuracy_sq(SMALL_MOD, 3)[1]

    def test_to_dict_omits_thresholds_beyond_rule(self):
        d = [r.to_dict() for r in spectral_accept(SMALL_MOD, d_max=8)]
        assert d[5]["name"] == "spectral-d7"
        assert d[5]["detail"]["threshold"] is None
        assert d[5]["detail"]["threshold_sq"] is None
        assert d[5]["verdict"] == "info"
        assert d[5]["detail"]["accuracy_sq"] > 0


# ---------------------------------------------------------------------------
# point clouds


class TestPointCloud:
    def test_overlapping_tuple_count(self):
        v = np.linspace(0.0, 0.99, 100)
        assert len(point_cloud(v, 2)) == 99
        assert len(point_cloud(v, 3)) == 98

    def test_tuples_are_successive_values(self):
        v = np.array([0.1, 0.2, 0.3, 0.4])
        cloud = point_cloud(v, 3)
        assert cloud[0] == pytest.approx([0.1, 0.2, 0.3])
        assert cloud[1] == pytest.approx([0.2, 0.3, 0.4])

    def test_cap_thins_by_stride(self):
        v = np.linspace(0.0, 0.999, 1024)  # 1023 pairs
        cloud = point_cloud(v, 2, cap=100)
        # stride ceil(1023/100) = 11 keeps ceil(1023/11) = 93 tuples
        assert len(cloud) == 93
        assert cloud[1] == pytest.approx([v[11], v[12]])

    def test_accepts_sample_objects(self):
        s = make_generator("mt:seed=2").sample(50)
        assert len(point_cloud(s, 2)) == 49

    @pytest.mark.parametrize("d", [1, 4])
    def test_rejects_unsupported_dimension(self, d):
        with pytest.raises(ValueError):
            point_cloud(np.linspace(0, 1, 10), d)

    def test_rejects_sample_shorter_than_dimension(self):
        with pytest.raises(ValueError, match="shorter"):
            point_cloud(np.array([0.5, 0.6]), 3)

    @pytest.mark.parametrize("d", [2, 3])
    def test_points_are_a_read_only_view_of_the_sample(self, d):
        v = make_generator("mt:seed=3").generate(1000)
        for cap in (10**6, 100):  # a window and a thinned window
            cloud = point_cloud(v, d, cap=cap)
            assert np.shares_memory(cloud, v)
            assert not cloud.flags.writeable


@pytest.fixture(scope="module")
def full_period_values():
    return make_generator("lcg:m=262144,a=4649,c=819,seed=1").generate(262144)


class TestPlaneMembership:

    def test_full_period_orbit_lies_exactly_on_planes(self, full_period_values):
        cloud = point_cloud(full_period_values, 3)
        _, vec = spectral_accuracy_sq(SMALL_MOD, 3)
        pm = plane_membership(cloud, vec)
        assert pm["offset"] == 0.14310455322265625
        assert pm["max_deviation"] == 0.0
        assert pm["n_planes"] == 59
        assert pm["within_slack"] is True

    def test_two_dimensional_family(self, full_period_values):
        cloud = point_cloud(full_period_values, 2)
        _, vec = spectral_accuracy_sq(SMALL_MOD, 2)
        pm = plane_membership(cloud, vec)
        assert pm["offset"] == 0.11896514892578125
        assert pm["max_deviation"] == 0.0
        assert pm["n_planes"] == 579
        assert pm["within_slack"] is True

    def test_non_dual_vector_does_not_fit(self, full_period_values):
        cloud = point_cloud(full_period_values, 3)
        pm = plane_membership(cloud, [1, 1, 1])
        assert pm["within_slack"] is False
        assert pm["max_deviation"] > 0.1

    def test_dimension_mismatch_raises(self):
        cloud = point_cloud(np.linspace(0, 0.9, 10), 2)
        with pytest.raises(ValueError, match="mismatch"):
            plane_membership(cloud, [1, 2, 3])


# ---------------------------------------------------------------------------
# exports


class TestExports:
    def test_csv_round_trip(self, tmp_path):
        v = make_generator("mt:seed=4").generate(20)
        cloud = point_cloud(v, 2)
        path = tmp_path / "pairs.csv"
        n = export_cloud_csv(cloud, path)
        lines = path.read_text().splitlines()
        assert n == 19
        assert lines[0] == "x1,x2"
        assert len(lines) == 20
        first = [float(x) for x in lines[1].split(",")]
        assert first == [v[0], v[1]]  # repr round-trips exactly

    def test_csv_three_dimensional_header(self, tmp_path):
        cloud = point_cloud(np.linspace(0, 0.9, 10), 3)
        export_cloud_csv(cloud, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text().splitlines()[0] == "x1,x2,x3"

    def test_svg_contains_one_circle_per_point(self, tmp_path):
        cloud = point_cloud(np.linspace(0, 0.99, 50), 2)
        path = tmp_path / "pairs.svg"
        drawn = export_cloud_svg(cloud, path)
        text = path.read_text()
        assert drawn == 49
        assert text.startswith("<svg")
        assert text.count("<circle") == 49

    def test_svg_thins_large_clouds(self, tmp_path):
        pairs = SVG_MAX_POINTS + 10
        cloud = point_cloud(np.linspace(0, 0.99, pairs + 1), 2)
        drawn = export_cloud_svg(cloud, tmp_path / "s.svg")
        assert drawn == pairs // 2  # stride ceil(pairs / SVG_MAX_POINTS) = 2
        assert (tmp_path / "s.svg").read_text().count("<circle") == drawn

    @pytest.mark.parametrize("rows", [1, TEXT_BLOCK - 1, TEXT_BLOCK, TEXT_BLOCK + 1,
                                      2 * TEXT_BLOCK + 1, SVG_MAX_POINTS, SVG_MAX_POINTS + 10])
    def test_svg_equals_per_element_formatting(self, rows, tmp_path):
        # block edges, and the thinning of a cloud above SVG_MAX_POINTS to
        # every second point
        cloud = point_cloud(make_generator("mt:seed=6").generate(rows + 1), 2)
        drawn = export_cloud_svg(cloud, tmp_path / "c.svg")
        shown = cloud[::2] if rows > SVG_MAX_POINTS else cloud
        assert drawn == len(shown)
        assert first_line_apart((tmp_path / "c.svg").read_text(), _svg_text(shown)) is None

    def test_svg_cells_of_every_hundredth(self, tmp_path):
        # every coordinate the digit cells cover, 0.0 to 800.0 in both cx and
        # cy, written in pieces of at most SVG_MAX_POINTS so none is thinned
        x = np.arange(100 * 800 + 1) / (100 * 800)
        cloud = np.stack([x, x], axis=1)
        hundredths = np.rint(np.round(cloud * [800, -800] + [0, 800], 2) * 100)
        assert all(set(col) == set(range(100 * 800 + 1)) for col in hundredths.T.tolist())
        for start in range(0, len(cloud), SVG_MAX_POINTS):
            part = cloud[start:start + SVG_MAX_POINTS]
            export_cloud_svg(part, tmp_path / "k.svg")
            assert first_line_apart((tmp_path / "k.svg").read_text(), _svg_text(part)) is None

    def test_svg_rounds_as_numpy_does(self, tmp_path):
        # near a half hundredth numpy's rint of c * 100 and Python's correctly
        # rounded round(c, 2) part: x = 6.25e-06 gives cx 0.0, not 0.01
        x = (np.arange(100 * 800) + 0.5) / (100 * 800)
        apart = [v for v, c in zip(x.tolist(), np.round(x * 800, 2).tolist())
                 if round(v * 800, 2) != c]
        assert 6.25e-06 in apart and len(apart) > 1000
        cloud = np.array(apart[:SVG_MAX_POINTS])[:, None].repeat(2, axis=1)
        export_cloud_svg(cloud, tmp_path / "r.svg")
        assert first_line_apart((tmp_path / "r.svg").read_text(), _svg_text(cloud)) is None
        assert '<circle cx="0.0" cy="800.0" ' in (tmp_path / "r.svg").read_text()

    def test_svg_cells_outside_the_digits_keep_their_repr(self, tmp_path):
        # one block of every pair of these: the ends of [0, 1), both zeros,
        # NaNs, infinities, negatives and values >= 1 (cx = -0.0, nan, inf,
        # above 800 or negative, cy the same) beside digit cells
        edges = [0.0, 1 - 2**-53, -0.0, math.nan, -math.nan, math.inf, -math.inf, -0.5,
                 -1e-3, 1.0, 1.5, 1e300, 5e-324, 0.3, 0.999]
        cloud = np.array([(x, y) for x in edges for y in edges])
        with np.errstate(over="ignore"):
            export_cloud_svg(cloud, tmp_path / "e.svg")
            want = _svg_text(cloud)
        text = (tmp_path / "e.svg").read_text()
        assert first_line_apart(text, want) is None
        for cell in ('cx="-0.0"', 'cx="nan"', 'cx="inf"', 'cx="-400.0"', 'cx="800.0"',
                     'cy="0.0"', 'cy="-inf"', 'cy="1200.0"'):
            assert cell in text

    @given(pool=st.lists(CLOUD_VALUES | st.floats(0, 1, exclude_max=True), min_size=1,
                         max_size=12),
           rows=st.integers(1, TEXT_BLOCK + 2), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_svg_equals_per_element_formatting_on_any_values(self, pool, rows, seed,
                                                            tmp_path_factory):
        rng = np.random.default_rng(seed)
        cloud = np.array(pool)[rng.integers(len(pool), size=(rows, 2))]
        path = tmp_path_factory.mktemp("svg") / "a.svg"
        with np.errstate(over="ignore"):
            export_cloud_svg(cloud, path)
            want = _svg_text(cloud)
        assert first_line_apart(path.read_text(), want) is None

    def test_bytes_equal_per_element_formatting(self, tmp_path):
        # more rows than one text block, so block edges are covered
        values = make_generator("lcg:m=262144,a=4649,c=819,seed=1").sample(9000)
        pairs, triples = point_cloud(values, 2), point_cloud(values, 3)
        export_cloud_csv(pairs, tmp_path / "p.csv")
        export_cloud_csv(triples, tmp_path / "t.csv")
        export_cloud_svg(pairs, tmp_path / "p.svg")
        save_sample(values, tmp_path / "s.txt")
        for cloud, name in ((pairs, "p.csv"), (triples, "t.csv")):
            header = ",".join(f"x{i + 1}" for i in range(cloud.shape[1]))
            rows = [",".join(repr(float(v)) for v in row) for row in cloud]
            assert (tmp_path / name).read_text() == "\n".join([header, *rows]) + "\n"
        assert first_line_apart((tmp_path / "p.svg").read_text(), _svg_text(pairs)) is None
        lines = [f"# rngaudit-sample v1 {values.provenance}",
                 *(repr(float(v)) for v in values.values)]
        assert (tmp_path / "s.txt").read_text() == "\n".join(lines) + "\n"

    @given(pool=st.lists(CLOUD_VALUES, min_size=1, max_size=12),
           specs=st.lists(st.tuples(st.sampled_from(["window", "thinned", "strided", "free"]),
                                    st.sampled_from([2, 3]), st.integers(1, 4200),
                                    st.integers(0, 2)), min_size=1, max_size=3),
           seed=st.integers(0, 2**32 - 1))
    @example(pool=[0.0, -0.0], specs=[("window", 2, 4100, 0)], seed=1)
    @example(pool=[0.0, -0.0, 0.5], specs=[("window", 2, 4100, 0), ("window", 3, 4099, 0),
                                          ("free", 3, 7, 0)], seed=2)
    @example(pool=[0.25, math.nan, 1e-05], specs=[("strided", 2, 4100, 1), ("strided", 3, 4099, 1),
                                                 ("strided", 3, 4097, 2)], seed=3)
    @settings(max_examples=60, deadline=None)
    def test_csv_equals_per_element_repr(self, pool, specs, seed, tmp_path_factory):
        # one call writes up to three clouds of different kinds and lengths,
        # all drawn from a few values again and again, so cells repeat within
        # blocks, across clouds and across the 4096-row block edge; windows
        # of one array with one row stride are written from one text
        rng = np.random.default_rng(seed)
        draw = np.array(pool)[rng.integers(len(pool), size=3 * 4200)]
        clouds = []
        for kind, d, rows, stride in specs:
            if kind == "window":
                clouds.append(point_cloud(draw[:rows + d - 1], d))
            elif kind == "thinned":  # stride >= d: no value shared between rows
                clouds.append(point_cloud(draw[:rows + d - 1], d,
                                          cap=max(1, rows // (d + stride))))
            elif kind == "strided":  # every k-th window, k = 1..3: k = 2 < d = 3 shares
                k = stride + 1
                clouds.append(point_cloud(draw[:(rows - 1) * k + d], d)[::k])
            else:  # a hand-built contiguous cloud: a window with k = d
                clouds.append(draw[:rows * d].reshape(rows, d))
        out = tmp_path_factory.mktemp("csv")
        paths = [out / f"c{i}.csv" for i in range(len(clouds))]
        assert export_cloud_csv(clouds, paths) == sum(map(len, clouds))
        for cloud, path in zip(clouds, paths):
            header = ",".join(f"x{i + 1}" for i in range(cloud.shape[1]))
            want = [header, *(",".join(repr(float(v)) for v in row) for row in cloud),
                    ""]
            # the first differing line, not a diff of the whole text, which
            # pytest would rebuild for every example hypothesis shrinks
            assert first_line_apart(path.read_text(), "\n".join(want)) is None

    def test_csv_cells_outside_the_fast_range_keep_their_repr(self, tmp_path):
        # one block holding every kind of value the exact formatter leaves
        # to repr: both zeros, NaNs, negatives, values >= 1 and below 1e-4
        cells = [-0.0, 0.0, math.nan, -math.nan, -0.5, -3.0, 1.0, 2.5, 1e16, 1e22,
                 5e-324, 1e-05, 9.999999999999999e-05, 0.0001, 0.5, 0.3]
        values = np.array(cells * 3)
        clouds = [values.reshape(-1, 2), point_cloud(values, 3), point_cloud(values, 3)[::2],
                  point_cloud(values, 2)[::5], values.reshape(2, -1).T]
        paths = [tmp_path / f"c{i}.csv" for i in range(len(clouds))]
        export_cloud_csv(clouds, paths)
        for cloud, path in zip(clouds, paths):
            lines = path.read_text().splitlines()[1:]
            assert lines == [",".join(map(repr, row)) for row in cloud.tolist()]
        assert "-0.0,0.0" in paths[0].read_text() and "nan,nan" in paths[0].read_text()

    def test_csv_takes_one_path_per_cloud(self, tmp_path):
        cloud = point_cloud(np.linspace(0, 0.9, 10), 2)
        with pytest.raises(ValueError, match="one path per cloud"):
            export_cloud_csv([cloud, cloud], [tmp_path / "a.csv"])
        assert os.listdir(tmp_path) == []

    def test_csv_error_leaves_no_file(self, tmp_path):
        values = make_generator("mt:seed=3").sample(3 * 4096)
        clouds = [point_cloud(values, 2), point_cloud(values, 3)]
        with pytest.raises(FileNotFoundError):
            export_cloud_csv(clouds, [tmp_path / "p.csv", tmp_path / "no" / "t.csv"])
        assert os.listdir(tmp_path) == []

    def test_csv_memory_stays_per_block(self, tmp_path):
        # formatting whole clouds at once would hold megabytes of text rows
        # and strings; the figures call writes the pairs and triples of one
        # 2**18-value sample together
        values = make_generator("lcg:m=262144,a=4649,c=819,seed=1").sample(2**18 + 2)
        pairs, triples = point_cloud(values, 2), point_cloud(values, 3)
        assert (len(pairs), len(triples)) == (2**18 + 1, 2**18)
        tracemalloc.start()
        try:
            rows = export_cloud_csv([pairs, triples], [tmp_path / "p.csv", tmp_path / "t.csv"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == 2**19 + 1
        assert peak < 2 * 2**20

    def test_svg_memory_stays_per_block(self, tmp_path):
        # the pairs of the figures sample, thinned to 32768 circles: the rows
        # of all of them at once would take 3 MB
        values = make_generator("lcg:m=262144,a=4649,c=819,seed=1").sample(2**18)
        pairs = point_cloud(values, 2)
        tracemalloc.start()
        try:
            drawn = export_cloud_svg(pairs, tmp_path / "p.svg")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert drawn == SVG_MAX_POINTS
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("cloud", [np.zeros(4), np.zeros((4, 2), dtype=np.float32),
                                       [[0.1, 0.2]]])
    def test_csv_takes_two_dimensional_float64_arrays(self, cloud, tmp_path):
        with pytest.raises(ValueError, match="2-D float64 array"):
            export_cloud_csv([cloud], [tmp_path / "c.csv"])
        assert os.listdir(tmp_path) == []

    def test_svg_is_two_dimensional_only(self, tmp_path):
        cloud = point_cloud(np.linspace(0, 0.9, 10), 3)
        with pytest.raises(ValueError, match="2-D"):
            export_cloud_svg(cloud, tmp_path / "no.svg")
