//! View metrics in the Prometheus exposition. `idf_views_registered` is a
//! process-global gauge, so this test has a binary of its own: any other
//! test creating a view in parallel would move the exact values it
//! asserts.

#![cfg(feature = "obs")]

use idf_core::prelude::*;
use idf_engine::chunk::Chunk;
use idf_engine::session::Session;
use idf_views::{install, ViewsConfig};

fn setup() -> (Session, std::sync::Arc<idf_views::ViewsSystem>) {
    let session = Session::new();
    install_indexed_ddl(&session, IndexConfig::default());
    let views = install(&session, ViewsConfig::default());
    (session, views)
}

fn sql(session: &Session, query: &str) -> Chunk {
    session
        .sql(query)
        .unwrap_or_else(|e| panic!("{query}: {e}"))
        .collect()
        .unwrap_or_else(|e| panic!("{query}: {e}"))
}

#[test]
fn view_metrics_reach_the_prometheus_exposition() {
    let (session, _views) = setup();
    idf_obs::global().reset();
    sql(&session, "CREATE TABLE o (k BIGINT, v BIGINT)");
    sql(
        &session,
        "CREATE MATERIALIZED VIEW ov AS SELECT k, sum(v) FROM o GROUP BY k",
    );
    sql(&session, "INSERT INTO o VALUES (1, 1), (2, 2)");
    sql(&session, "INSERT INTO o VALUES (1, 3)");
    sql(&session, "REFRESH MATERIALIZED VIEW ov");
    let text = session.metrics_text();
    assert!(
        text.contains("idf_views_registered 1"),
        "gauge missing: {text}"
    );
    assert!(text.contains("# TYPE idf_views_deltas_applied_total counter"));
    assert!(text.contains("# TYPE idf_views_maintenance_lag_ns histogram"));
    assert!(text.contains("# TYPE idf_views_refresh_duration_ns histogram"));
    assert!(idf_obs::global().view_deltas_applied.get() >= 2);
    assert!(idf_obs::global().view_refresh_ns.count() >= 1);
    sql(&session, "DROP MATERIALIZED VIEW ov");
    assert!(
        session.metrics_text().contains("idf_views_registered 0"),
        "gauge must drop back to zero"
    );
}
