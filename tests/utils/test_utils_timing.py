"""The interval clock behind the paper's Training/Validation Time metrics.

Tables III and IV report the wall-clock cost of building and validating
each model. ``evaluate_model`` times each phase with that phase's
:class:`repro.obs.trace.Span`; with tracing off, ``span()`` returns the
falsy ``NULL_SPAN`` and a detached ``Span`` times the phase instead. These
tests pin that detached clock as a bare timer. The class keeps the name of
the ``Timer`` wrapper the detached span replaced.
"""

import time

import pytest

from repro.obs.trace import Span


class TestTimer:
    def test_measures_elapsed(self):
        with Span("train") as t:
            time.sleep(0.01)
        assert t.duration >= 0.01

    def test_elapsed_frozen_after_exit(self):
        with Span("train") as t:
            pass
        first = t.duration
        time.sleep(0.005)
        assert t.duration == first

    def test_elapsed_live_while_running(self):
        t = Span("train")
        with t:
            first = t.duration
            time.sleep(0.005)
            second = t.duration
        assert second > first

    def test_running_flag(self):
        t = Span("train")
        with t:
            assert t.running
        assert not t.running

    def test_unstarted_raises(self):
        with pytest.raises(RuntimeError):
            Span("train").duration

    def test_reusable(self):
        t = Span("train")
        with t:
            pass
        e1 = t.duration
        with t:
            time.sleep(0.005)
        assert t.duration >= 0.005
        assert t.duration != e1

    def test_exception_still_records(self):
        t = Span("train")
        with pytest.raises(ValueError):
            with t:
                raise ValueError("boom")
        assert t.duration >= 0.0
        assert not t.running
