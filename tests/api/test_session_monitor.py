"""The online monitor attached to a session: plan consumption, no double counting."""

import pytest

from repro.api import connect
from repro.core import OnlineAdvisorMonitor
from repro.engine import Store
from repro.query import aggregate, eq, select


@pytest.fixture
def session(database_factory):
    return connect(database=database_factory(Store.ROW))


class TestSessionMonitor:
    def test_for_session_records_each_query_once(self, session):
        monitor = OnlineAdvisorMonitor.for_session(session)
        with monitor:  # __enter__ must not add a second (database) listener
            for i in range(5):
                session.execute(select("sales").where(eq("id", i)).build())
        assert monitor.state.total_queries == 5
        assert len(monitor.recorded) == 5

    def test_estimation_drift_tracked_from_plans(self, session):
        monitor = OnlineAdvisorMonitor.for_session(session)
        query = aggregate("sales").sum("revenue").group_by("region").build()
        for _ in range(3):
            session.execute(query)
        assert monitor.state.actual_ms_total > 0
        assert monitor.state.estimated_ms_total > 0
        # The analytic estimate tracks the engine's charges closely.
        assert 0.5 < monitor.state.estimation_drift < 2.0

    def test_view_serves_do_not_count_as_estimate_drift(self, database_factory):
        """Regression: a view serve did not run the plan that was estimated.

        Its ``view_scan`` bill against the base plan's estimate read as a
        ~9x drift; recurrence counting must not change.
        """
        query = aggregate("sales").sum("revenue").group_by("region").build()

        def drift_over_recurrences(with_view):
            session = connect(database=database_factory(Store.COLUMN))
            monitor = OnlineAdvisorMonitor.for_session(session)
            session.execute(query)  # one base execution either way
            if with_view:
                session.create_view("mv_sales", query)
            for _ in range(20):
                assert bool(session.execute(query).view_hits) == with_view
            assert monitor.state.total_queries == 21
            assert list(monitor.recurring_aggregates().values()) == [21]
            return monitor.state.estimation_drift

        plain = drift_over_recurrences(with_view=False)
        served = drift_over_recurrences(with_view=True)
        assert 0.5 < plain < 2.0
        assert served == pytest.approx(plain, rel=0.05)

    def test_detach_session_stops_recording(self, session):
        monitor = OnlineAdvisorMonitor.for_session(session)
        session.execute(select("sales").where(eq("id", 1)).build())
        monitor.detach_session()
        session.execute(select("sales").where(eq("id", 2)).build())
        assert monitor.state.total_queries == 1

    def test_attach_session_supersedes_database_attach(self, session):
        monitor = OnlineAdvisorMonitor(session.advisor(), session.database)
        monitor.attach()
        monitor.attach_session(session)
        session.execute(select("sales").where(eq("id", 1)).build())
        assert monitor.state.total_queries == 1
