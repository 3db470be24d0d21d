"""A tiny package for the reach measurement's tests."""
