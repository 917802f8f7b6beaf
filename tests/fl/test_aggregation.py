"""FedAvg and robust aggregation algebra."""

import numpy as np
import pytest

from repro.core.config import AGGREGATORS
from repro.fl.aggregation import (
    apply_delta,
    coordinate_median,
    fedavg,
    flatten_state,
    krum,
    make_aggregator,
    state_delta,
    trimmed_mean,
)


def make_states():
    a = {"w": np.array([1.0, 2.0]), "b": np.array([0.0])}
    b = {"w": np.array([3.0, 4.0]), "b": np.array([2.0])}
    return a, b


def random_states(n, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return [
        {
            "w": rng.normal(size=(3, 2)).astype(dtype),
            "b": rng.normal(size=(2,)).astype(dtype),
        }
        for _ in range(n)
    ]


class TestFedAvg:
    def test_uniform_average(self):
        a, b = make_states()
        merged = fedavg([a, b])
        np.testing.assert_allclose(merged["w"], [2.0, 3.0])
        np.testing.assert_allclose(merged["b"], [1.0])

    def test_weighted_average_normalizes(self):
        a, b = make_states()
        merged = fedavg([a, b], weights=[30, 10])  # raw sample counts
        np.testing.assert_allclose(merged["w"], 0.75 * a["w"] + 0.25 * b["w"])

    def test_single_state_identity(self):
        a, _ = make_states()
        merged = fedavg([a])
        np.testing.assert_allclose(merged["w"], a["w"])

    def test_linearity(self):
        """FedAvg of k copies of the same state is that state."""
        a, _ = make_states()
        merged = fedavg([a, a, a])
        np.testing.assert_allclose(flatten_state(merged), flatten_state(a))

    def test_validation(self):
        a, b = make_states()
        with pytest.raises(ValueError):
            fedavg([])
        with pytest.raises(ValueError):
            fedavg([a, b], weights=[1.0])
        with pytest.raises(ValueError):
            fedavg([a, b], weights=[-1.0, 2.0])
        with pytest.raises(ValueError):
            fedavg([a, {"w": np.zeros(2)}])  # key mismatch

    def test_preserves_float32_dtype(self):
        """Regression: fedavg must not silently upcast float32 to float64."""
        states = random_states(3, dtype=np.float32)
        merged = fedavg(states, weights=[1, 2, 3])
        assert all(value.dtype == np.float32 for value in merged.values())
        # Accumulation still happens in float64 before the final cast:
        # the result matches the float64 average to float32 precision.
        exact = fedavg(
            [{k: v.astype(np.float64) for k, v in s.items()} for s in states],
            weights=[1, 2, 3],
        )
        for key in merged:
            np.testing.assert_allclose(merged[key], exact[key], rtol=1e-6)

    def test_shape_mismatch_names_offending_key(self):
        a, b = make_states()
        bad = {"w": np.zeros((3,)), "b": np.zeros(1)}
        with pytest.raises(ValueError, match="'w'"):
            fedavg([a, bad])


class TestRobustAggregators:
    def test_median_of_identical_states_is_identity(self):
        a, _ = make_states()
        merged = coordinate_median([a, a, a])
        np.testing.assert_allclose(flatten_state(merged), flatten_state(a))

    def test_median_of_two_equals_mean(self):
        a, b = make_states()
        np.testing.assert_allclose(
            flatten_state(coordinate_median([a, b])),
            flatten_state(fedavg([a, b])),
        )

    def test_median_ignores_one_poisoned_update(self):
        states = random_states(5)
        clean = coordinate_median(states)
        poisoned = dict(states[0])
        poisoned["w"] = np.full_like(states[0]["w"], 1e9)
        # One corrupted update out of five cannot move any coordinate past
        # the honest majority.
        merged = coordinate_median([poisoned] + states[1:])
        honest_max = np.max([np.abs(s["w"]) for s in states[1:]])
        assert np.all(np.abs(merged["w"]) <= honest_max)
        assert np.isfinite(flatten_state(merged)).all()
        del clean

    def test_trimmed_mean_zero_trim_is_unweighted_fedavg(self):
        states = random_states(4)
        np.testing.assert_allclose(
            flatten_state(trimmed_mean(states, trim_fraction=0.0)),
            flatten_state(fedavg(states)),
        )

    def test_trimmed_mean_discards_extremes(self):
        states = random_states(5)
        poisoned = {k: np.full_like(v, 1e9) for k, v in states[0].items()}
        merged = trimmed_mean([poisoned] + states[1:], trim_fraction=0.2)
        honest_max = np.max(np.abs(np.stack([flatten_state(s) for s in states[1:]])))
        assert np.all(np.abs(flatten_state(merged)) <= honest_max)

    def test_trimmed_mean_rejects_total_trim(self):
        states = random_states(2)
        with pytest.raises(ValueError, match="trim"):
            trimmed_mean(states, trim_fraction=0.5)

    def test_krum_picks_an_input_state(self):
        states = random_states(6)
        merged = krum(states)
        assert any(
            np.array_equal(flatten_state(merged), flatten_state(s)) for s in states
        )

    def test_krum_rejects_outlier(self):
        states = random_states(6, seed=3)
        poisoned = {k: np.full_like(v, 50.0) for k, v in states[0].items()}
        merged = krum([poisoned] + states[1:], num_byzantine=1)
        assert not np.array_equal(flatten_state(merged), flatten_state(poisoned))

    def test_krum_needs_enough_updates(self):
        states = random_states(4)
        with pytest.raises(ValueError, match="at most"):
            krum(states, num_byzantine=2)  # needs n >= f + 3 = 5

    def test_robust_rules_preserve_float32(self):
        states = random_states(5, dtype=np.float32)
        for merged in (
            coordinate_median(states),
            trimmed_mean(states, trim_fraction=0.2),
            krum(states),
        ):
            assert all(value.dtype == np.float32 for value in merged.values())


class TestHonestDegeneration:
    """In the honest case every robust rule stays close to plain FedAvg."""

    def test_identical_states_fixed_point(self):
        a, _ = make_states()
        reference = {k: np.zeros_like(v) for k, v in a.items()}
        for name in AGGREGATORS:
            aggregator = make_aggregator(name)
            merged = aggregator([a, a, a], reference=reference)
            np.testing.assert_allclose(
                flatten_state(merged), flatten_state(a), err_msg=name
            )

    def test_permutation_invariance(self):
        states = random_states(6, seed=9)
        reference = {k: np.zeros_like(v) for k, v in states[0].items()}
        rng = np.random.default_rng(4)
        for name in AGGREGATORS:
            aggregator = make_aggregator(name)
            # Uniform weights: robust rules ignore weights anyway, and
            # fedavg's permuted weights must follow the states.
            baseline = aggregator(states, reference=reference)
            for _ in range(3):
                order = rng.permutation(len(states))
                shuffled = [states[i] for i in order]
                merged = aggregator(shuffled, reference=reference)
                np.testing.assert_allclose(
                    flatten_state(merged),
                    flatten_state(baseline),
                    err_msg=name,
                    atol=1e-12,
                )

    def test_make_aggregator_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown aggregator"):
            make_aggregator("geometric_median")


class TestDeltas:
    def test_delta_and_apply_round_trip(self):
        a, b = make_states()
        delta = state_delta(b, a)
        restored = apply_delta(a, delta)
        np.testing.assert_allclose(flatten_state(restored), flatten_state(b))

    def test_apply_delta_scaled(self):
        a, b = make_states()
        delta = state_delta(b, a)
        half = apply_delta(a, delta, scale=0.5)
        np.testing.assert_allclose(half["w"], [2.0, 3.0])

    def test_key_mismatch(self):
        a, _ = make_states()
        with pytest.raises(ValueError):
            state_delta(a, {"x": np.zeros(1)})
        with pytest.raises(ValueError):
            apply_delta(a, {"x": np.zeros(1)})

    def test_shape_mismatch_names_offending_key(self):
        a, _ = make_states()
        bad = {"w": np.zeros((5, 5)), "b": np.zeros(1)}
        with pytest.raises(ValueError, match="'w'"):
            state_delta(a, bad)
        with pytest.raises(ValueError, match="'w'"):
            apply_delta(a, bad)
        # Shapes: both operand shapes appear in the message.
        with pytest.raises(ValueError, match=r"\(2,\) vs \(5, 5\)"):
            state_delta(a, bad)

    def test_flatten_is_sorted_and_stable(self):
        a, _ = make_states()
        flat = flatten_state(a)
        np.testing.assert_allclose(flat, [0.0, 1.0, 2.0])  # 'b' before 'w'
