"""Quickstart: connect a session, run SQL, and ask the advisor for a layout.

This example walks through the complete offline workflow of the paper using
the session API (``parse → bind → plan → execute``):

1. ``connect()`` a session and load a table,
2. run SQL — including a prepared statement and ``EXPLAIN``,
3. describe the (expected) workload,
4. calibrate the cost model against the running system,
5. ask the advisor for a recommendation, apply it, and verify that the
   workload indeed got faster (the plan cache invalidates automatically on
   the store move).

Run with::

    python examples/quickstart.py
"""

from repro import DataType, Store, TableSchema, connect
from repro.core import CostModelCalibrator
from repro.query import Workload, aggregate, eq, insert, select, update


def build_session():
    """A small sales table, initially kept in the row store."""
    schema = TableSchema.build(
        "sales",
        [
            ("id", DataType.INTEGER),
            ("region", DataType.VARCHAR),
            ("product", DataType.INTEGER),
            ("revenue", DataType.DOUBLE),
            ("quantity", DataType.INTEGER),
            ("status", DataType.VARCHAR),
        ],
        primary_key=["id"],
    )
    session = connect()
    session.create_table(schema, Store.ROW)
    rows = [
        {
            "id": i,
            "region": f"region_{i % 8}",
            "product": i % 200,
            "revenue": (i * 37 % 1000) / 10.0,
            "quantity": 1 + i % 10,
            "status": "open" if i % 3 else "shipped",
        }
        for i in range(30_000)
    ]
    session.load_rows("sales", rows)
    return session


def build_workload() -> Workload:
    """A mixed workload: mostly analytics with a few transactional queries."""
    queries = []
    for region_filter in range(20):
        queries.append(
            aggregate("sales")
            .sum("revenue")
            .avg("quantity")
            .group_by("region")
            .build()
        )
    for i in range(30):
        queries.append(select("sales").where(eq("id", i * 7)).build())
        queries.append(update("sales", {"status": "shipped"}, eq("id", i * 11)))
    queries.append(
        insert("sales", [{"id": 100_000, "region": "region_0", "product": 1,
                          "revenue": 10.0, "quantity": 2, "status": "open"}])
    )
    return Workload(queries, name="quickstart")


def main() -> None:
    session = build_session()

    # Plain SQL through the session pipeline.
    top = session.sql(
        "SELECT sum(revenue) AS total, count(*) FROM sales GROUP BY region"
    )
    print(f"{len(top.rows)} regions, first: {top.rows[0]}")

    # Prepared statement: parsed, bound and planned once.
    lookup = session.prepare("SELECT status FROM sales WHERE id = ?")
    print("status of #42:", lookup.execute([42]).rows[0]["status"])

    # EXPLAIN shows the physical plan with the cost model's estimate.
    print("\n" + session.explain("SELECT sum(revenue) FROM sales GROUP BY region"))

    workload = build_workload()
    print("\nCurrent layout:")
    print(session.describe())
    before = session.run_workload(workload)
    print(f"Workload runtime before: {before.total_runtime_ms:.1f} ms (simulated)")
    # The workload inserts row 100000.  Keys are unique across every part of
    # a table, so remove it: the second run then starts from the same data.
    session.sql("DELETE FROM sales WHERE id = 100000")

    advisor = session.advisor()
    print("\nCalibrating the cost model (offline initialisation)...")
    report = advisor.initialize_cost_model(CostModelCalibrator(sizes=(1_000, 3_000)))
    print(f"  fitted from {report.num_samples} calibration samples")

    recommendation = session.recommend(workload)
    print("\n" + recommendation.describe())

    session.apply(recommendation)
    print("\nLayout after applying the recommendation:")
    print(session.describe())

    after = session.run_workload(workload)
    print(f"\nWorkload runtime after: {after.total_runtime_ms:.1f} ms (simulated)")
    improvement = 1.0 - after.total_runtime_ms / before.total_runtime_ms
    print(f"Improvement: {improvement:.1%}")

    stats = session.stats()
    print(
        f"\nSession stats: {stats.queries_executed} queries, plan cache "
        f"{stats.plan_cache_hits} hits / {stats.plan_cache_misses} misses "
        f"({stats.plan_cache_hit_rate:.0%}), estimate memo "
        f"{stats.estimate_memo_hits} hits"
    )


if __name__ == "__main__":
    main()
