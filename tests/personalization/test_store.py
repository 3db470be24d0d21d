"""Tests for the profile store."""

import numpy as np
import pytest

from repro.personalization import ProfileStore, UserProfile


def _profile(user_id, interests):
    return UserProfile(user_id=user_id, interests=np.asarray(interests, float))


@pytest.fixture
def store():
    store = ProfileStore()
    store.save(_profile("jewelry-fan", [0.8, 0.1, 0.05, 0.05]))
    store.save(_profile("dance-fan", [0.05, 0.8, 0.1, 0.05]))
    store.save(_profile("mixed", [0.45, 0.45, 0.05, 0.05]))
    return store


class TestStore:
    def test_save_load(self, store):
        assert store.load("jewelry-fan").user_id == "jewelry-fan"

    def test_load_missing(self, store):
        with pytest.raises(KeyError):
            store.load("nobody")

    def test_len_contains(self, store):
        assert len(store) == 3
        assert "mixed" in store
        assert "nobody" not in store
