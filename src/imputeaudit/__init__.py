"""Membership-inference privacy audit for time-series imputation models.

Given query access to a target imputer and a skill-matched reference imputer,
the toolkit masks small pieces of candidate series, compares the two models'
completions by dynamic-time-warping loss, and flags candidates whose
target/reference loss ratio is suspiciously low as memorized training data.
"""
