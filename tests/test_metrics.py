import hashlib
import json

import numpy as np
import pytest

from _metric_oracle import (
    bf_average_jaccard,
    bf_delta_avg_vis,
    bf_feature_age,
    bf_occlusion_accuracy,
    random_pair,
)
from tapfuse import metrics
from tapfuse.errors import GridMismatch, ZeroTotalSpeed
from tapfuse.metrics import (
    EvalPair,
    average_jaccard,
    delta_avg_vis,
    evaluate,
    feature_age,
    occlusion_accuracy,
    speed_weighted_success,
    track_ages,
)
from tapfuse.tracker import TrackSet

THRESHOLDS = (1.0, 2.0, 4.0, 8.0, 16.0)


def perfect_pair(q=3, t=20, image_height=64):
    rng = np.random.default_rng(0)
    times = np.arange(t, dtype=np.int64) * 1000
    pos = rng.uniform(0, image_height, size=(q, t, 2))
    vis = np.ones((q, t), dtype=np.int64)
    ref = TrackSet(times=times, positions=pos.copy(), visibility=vis.copy())
    pred = TrackSet(times=times, positions=pos.copy(), visibility=vis.copy())
    return EvalPair(predicted=pred, reference=ref, image_height=image_height)


class TestPositionMetrics:
    def test_perfect_prediction_scores_one(self):
        pair = perfect_pair()
        assert delta_avg_vis(pair, THRESHOLDS) == 1.0
        assert occlusion_accuracy(pair) == 1.0
        assert average_jaccard(pair, THRESHOLDS) == 1.0
        fa, efa = feature_age(pair)
        assert fa == 1.0 and efa == 1.0

    def test_inverted_visibility_gives_zero_oa(self):
        pair = perfect_pair()
        flipped = TrackSet(times=pair.predicted.times,
                           positions=pair.predicted.positions,
                           visibility=1 - pair.predicted.visibility)
        pair2 = EvalPair(predicted=flipped, reference=pair.reference,
                         image_height=pair.image_height)
        assert occlusion_accuracy(pair2) == 0.0

    def test_normalization_rescales_pixel_errors(self):
        # a 1 px error on a 64 px image is 4 units in 256-normalized space
        times = np.array([0, 1000])
        ref = TrackSet(times=times, positions=np.zeros((1, 2, 2)),
                       visibility=np.ones((1, 2), dtype=np.int64))
        pred_pos = np.zeros((1, 2, 2))
        pred_pos[0, :, 0] = 1.0
        pred = TrackSet(times=times, positions=pred_pos,
                        visibility=np.ones((1, 2), dtype=np.int64))
        pair = EvalPair(predicted=pred, reference=ref, image_height=64)
        assert delta_avg_vis(pair, (4.0,)) == 0.0
        assert delta_avg_vis(pair, (4.1,)) == 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed):
        pair = random_pair(seed)
        assert delta_avg_vis(pair, THRESHOLDS) == pytest.approx(
            bf_delta_avg_vis(pair, THRESHOLDS), abs=1e-9)
        assert occlusion_accuracy(pair) == pytest.approx(
            bf_occlusion_accuracy(pair), abs=1e-9)
        assert average_jaccard(pair, THRESHOLDS) == pytest.approx(
            bf_average_jaccard(pair, THRESHOLDS), abs=1e-9)
        fa, efa = feature_age(pair, 8.0)
        bfa, befa = bf_feature_age(pair, 8.0)
        assert fa == pytest.approx(bfa, abs=1e-9)
        assert efa == pytest.approx(befa, abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_jaccard_never_exceeds_delta(self, seed):
        pair = random_pair(seed + 100)
        assert average_jaccard(pair, THRESHOLDS) \
            <= delta_avg_vis(pair, THRESHOLDS) + 1e-12

    def test_query_permutation_invariance(self):
        pair = random_pair(7)
        perm = np.random.default_rng(1).permutation(10)
        shuffled = EvalPair(
            predicted=TrackSet(times=pair.predicted.times,
                               positions=pair.predicted.positions[perm],
                               visibility=pair.predicted.visibility[perm]),
            reference=TrackSet(times=pair.reference.times,
                               positions=pair.reference.positions[perm],
                               visibility=pair.reference.visibility[perm]),
            image_height=pair.image_height)
        for fn in (delta_avg_vis, average_jaccard):
            assert fn(pair, THRESHOLDS) == pytest.approx(
                fn(shuffled, THRESHOLDS), abs=1e-12)
        assert occlusion_accuracy(pair) == occlusion_accuracy(shuffled)

    def test_delta_monotone_in_threshold(self):
        pair = random_pair(8)
        vals = [delta_avg_vis(pair, (th,)) for th in THRESHOLDS]
        assert vals == sorted(vals)

    def test_mismatched_grids_rejected(self):
        a, b = perfect_pair(t=20), perfect_pair(t=10)
        with pytest.raises(GridMismatch):
            EvalPair(predicted=a.predicted, reference=b.reference,
                     image_height=64)


class TestAges:
    def drifting_pair(self, t=21, drift_px=1.0):
        times = np.arange(t, dtype=np.int64) * 1000
        ref = TrackSet(times=times, positions=np.zeros((1, t, 2)),
                       visibility=np.ones((1, t), dtype=np.int64))
        pos = np.zeros((1, t, 2))
        pos[0, :, 0] = drift_px * np.arange(t)
        pred = TrackSet(times=times, positions=pos,
                        visibility=np.ones((1, t), dtype=np.int64))
        return EvalPair(predicted=pred, reference=ref, image_height=64)

    def test_linear_drift_age_is_analytic(self):
        # error = step index in px; threshold 8 first exceeded at step 9,
        # so the track survives through step 8 of 20 -> age 0.4
        pair = self.drifting_pair()
        ages = track_ages(pair, err_threshold=8.0)
        assert ages[0] == pytest.approx(8 / 20)

    def test_immediate_failure_counts_zero_and_skews_fa(self):
        t = 5
        times = np.arange(t, dtype=np.int64) * 1000
        ref = TrackSet(times=times, positions=np.zeros((2, t, 2)),
                       visibility=np.ones((2, t), dtype=np.int64))
        pos = np.zeros((2, t, 2))
        pos[1, :, 0] = 100.0  # fails at step 0
        pred = TrackSet(times=times, positions=pos,
                        visibility=np.ones((2, t), dtype=np.int64))
        pair = EvalPair(predicted=pred, reference=ref, image_height=64)
        fa, efa = feature_age(pair, 8.0)
        assert fa == 1.0          # only the surviving track
        assert efa == 0.5         # immediate failure averaged in at 0


class TestSpeedWeightedSuccess:
    def test_hand_case(self):
        rve = np.array([0.1, 0.5])
        speed = np.array([1.0, 3.0])
        grid = np.linspace(0.0, 1.0, 101)
        curve, auc = speed_weighted_success(rve, speed)
        assert curve[0] == 0.0                       # xi = 0
        assert curve[20] == pytest.approx(0.25)      # xi = 0.2: only rve=0.1
        assert curve[-1] == 1.0                      # xi = 1
        want_curve = np.array([(1.0 * (0.1 < xi) + 3.0 * (0.5 < xi)) / 4.0
                               for xi in grid])
        np.testing.assert_allclose(curve, want_curve)
        assert auc == pytest.approx(np.trapezoid(want_curve, grid))

    def test_default_grid_and_monotonicity(self):
        rng = np.random.default_rng(2)
        rve = rng.uniform(0, 1, 50)
        speed = rng.uniform(0.1, 2.0, 50)
        curve, auc = speed_weighted_success(rve, speed)
        assert len(curve) == 101
        assert np.all(np.diff(curve) >= 0)
        assert 0.0 <= auc <= 1.0

    def test_zero_speed_rejected(self):
        with pytest.raises(ZeroTotalSpeed):
            speed_weighted_success(np.array([0.5]), np.array([0.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(GridMismatch):
            speed_weighted_success(np.zeros(3), np.ones(4))

    def test_nan_speed_rejected(self):
        """A NaN speed gave a NaN curve and AUC with a RuntimeWarning."""
        with pytest.raises(GridMismatch, match="speeds must be finite"):
            speed_weighted_success(np.array([0.1, 0.5]),
                                   np.array([np.nan, 3.0]))

    def test_infinite_speed_rejected(self):
        with pytest.raises(GridMismatch, match="speeds must be finite"):
            speed_weighted_success(np.array([0.1, 0.5]),
                                   np.array([np.inf, 3.0]))

    def test_negative_speed_rejected(self):
        """Speeds [-1, 3] gave a curve whose minimum was -0.5."""
        with pytest.raises(GridMismatch, match=">= 0"):
            speed_weighted_success(np.array([0.1, 0.5]), np.array([-1.0, 3.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rve_rejected(self, bad):
        with pytest.raises(GridMismatch, match="rve must be finite"):
            speed_weighted_success(np.array([bad, 0.5]), np.array([1.0, 3.0]))


class TestReport:
    def test_evaluate_schema(self):
        report = evaluate(random_pair(9), THRESHOLDS, 8.0)
        data = json.loads(report.to_json())
        assert set(data) == {"aj", "delta_avg_vis", "oa", "fa", "efa",
                             "thresholds", "per_threshold", "per_track"}
        assert data["thresholds"] == list(THRESHOLDS)
        assert set(data["per_threshold"]) == {"1", "2", "4", "8", "16"}
        assert len(data["per_track"]) == 10
        csv_lines = report.to_csv().strip().split("\r\n" if "\r" in
                                                  report.to_csv() else "\n")
        assert csv_lines[0] == "aj,delta_avg_vis,oa,fa,efa"
        assert len(csv_lines) == 2

    def test_evaluate_perfect_pair_all_ones(self):
        report = evaluate(perfect_pair(), THRESHOLDS, 8.0)
        assert report.aj == 1.0
        assert report.delta_avg_vis == 1.0
        assert report.oa == 1.0
        assert report.fa == 1.0 and report.efa == 1.0

    @pytest.mark.parametrize("thresholds, key", [
        ((1.0, 1.0000001, 4.0), "1"), ((2.0, 4.0, 2.0), "2"),
        ((1e-7, 1.00000001e-7), "1e-07")])
    def test_thresholds_that_print_alike_are_refused(self, thresholds, key):
        """(1.0, 1.0000001, 4.0) gave per_threshold keys ['1', '4'], with the
        second threshold's scores under '1', while aj averaged all three."""
        with pytest.raises(GridMismatch, match=f"per-threshold key '{key}'$"):
            evaluate(random_pair(9), thresholds, 8.0)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -1.0, 0.0])
    def test_a_threshold_outside_its_domain_is_refused(self, threshold):
        """NaN and inf thresholds built a report whose to_json raised a
        builtin ValueError; -1 and 0 scored without an error."""
        with pytest.raises(GridMismatch, match="^threshold = .* outside"):
            evaluate(random_pair(9), (1.0, threshold), 8.0)

    def test_no_thresholds_is_refused_without_tracks(self):
        empty = TrackSet(times=np.arange(3), positions=np.zeros((0, 3, 2)),
                         visibility=np.zeros((0, 3)))
        pair = EvalPair(predicted=empty, reference=empty, image_height=64)
        with pytest.raises(GridMismatch, match="non-empty"):
            evaluate(pair, (), 8.0)

    @pytest.mark.parametrize("err_threshold", [np.nan, np.inf, -1.0])
    def test_an_age_threshold_outside_its_domain_is_refused(self,
                                                             err_threshold):
        """err_threshold = nan gave FA 0.0 and EFA 1.0."""
        with pytest.raises(GridMismatch, match="^err_threshold = "):
            evaluate(random_pair(9), THRESHOLDS, err_threshold)
        with pytest.raises(GridMismatch, match="^err_threshold = "):
            feature_age(random_pair(9), err_threshold)

    def test_json_refuses_nan(self):
        report = evaluate(perfect_pair(), THRESHOLDS, 8.0)
        report.fa = float("nan")
        with pytest.raises(ValueError):
            report.to_json()

    @pytest.mark.parametrize("seed, thresholds, err_threshold, digest", [
        (9, THRESHOLDS, 8.0, "82b30438757f6c99"),
        (3, (0.5, 3.0), 2.0, "912f60e95b1ecc51"),
    ])
    def test_report_json_is_pinned(self, seed, thresholds, err_threshold,
                                   digest):
        """The digests pin the report as it was with an always-null auc_v
        key after efa: with that line put back, every byte must match."""
        text = evaluate(random_pair(seed), thresholds, err_threshold).to_json()
        assert "auc_v" not in text
        text = text.replace('\n  "thresholds": ',
                            '\n  "auc_v": null,\n  "thresholds": ', 1)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_evaluate_computes_errors_and_ages_once(self, monkeypatch):
        calls = {"norm": 0, "track_ages": 0}
        norm, ages = np.linalg.norm, metrics.track_ages

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "norm", counted("norm", norm))
        monkeypatch.setattr(metrics, "track_ages",
                            counted("track_ages", ages))
        evaluate(random_pair(9), THRESHOLDS, 8.0)
        assert calls == {"norm": 1, "track_ages": 1}
