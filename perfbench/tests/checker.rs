//! The correctness checks must catch seeded wrong answers: a spanner
//! missing an edge, an oracle answer below the true distance, a batch
//! answer that differs from the single query, and an artifact served for
//! a graph version it was not built from.

use std::sync::Arc;

use perfbench::check;
use perfbench::report::Report;
use perfbench::workloads::theorem_1_1;
use spanner_core::pipeline::{
    Algorithm, DistanceRequest, QueryEngine, ShardedService, SpannerRequest,
};
use spanner_core::TradeoffParams;
use spanner_graph::generators::{Family, WeightModel};
use spanner_graph::shortest_paths::dijkstra;
use spanner_graph::Graph;

fn small_graph() -> Graph {
    Family::ErdosRenyi {
        n: 200,
        avg_deg: 8.0,
    }
    .generate(WeightModel::Uniform(1, 16), 7)
}

#[test]
fn a_spanner_missing_one_edge_fails_the_edge_check() {
    let g = small_graph();
    let reference = SpannerRequest::new(&g, theorem_1_1())
        .seed(3)
        .run()
        .expect("builds");
    let edges = &reference.result.edges;
    assert!(check::same_edges("intact", edges, edges).is_ok());
    let mut missing = edges.clone();
    missing.remove(missing.len() / 2);
    let err = check::same_edges("seeded", &missing, edges).expect_err("missing edge detected");
    assert!(err.contains("first missing"), "{err}");
}

#[test]
fn an_oracle_answer_below_the_true_distance_fails() {
    let g = small_graph();
    let oracle = DistanceRequest::new(&g, Algorithm::General(TradeoffParams::new(4, 2)))
        .engine(QueryEngine::Sketches { levels: 2 })
        .seed(5)
        .build()
        .expect("builds");
    let exact = dijkstra(&g, 0).dist;
    let mut approx = oracle.distances_from(0);
    let worst = check::answers_within("intact", 0, &exact, &approx, oracle.stretch_bound())
        .expect("a correct oracle passes");
    assert!(worst >= 1.0 && worst <= oracle.stretch_bound());

    let v = (1..approx.len())
        .find(|&v| exact[v] > 1)
        .expect("a vertex at distance > 1");
    approx[v] = exact[v] - 1;
    let err = check::answers_within("seeded", 0, &exact, &approx, oracle.stretch_bound())
        .expect_err("an answer below d_G is detected");
    assert!(err.contains("below the true distance"), "{err}");

    approx[v] = ((exact[v] as f64) * oracle.stretch_bound()).ceil() as u64 + 1;
    assert!(check::answers_within("seeded", 0, &exact, &approx, oracle.stretch_bound()).is_err());
}

#[test]
fn a_batch_answer_that_differs_from_the_single_query_fails() {
    let pairs = [(0, 1), (2, 3), (4, 5)];
    let single = [3, 7, 9];
    assert!(check::batch_matches_single("intact", &pairs, &single, &single).is_ok());
    let wrong = [3, 8, 9];
    assert!(check::batch_matches_single("seeded", &pairs, &wrong, &single).is_err());
}

#[test]
fn an_artifact_served_after_a_re_registration_fails_the_stale_check() {
    let service = ShardedService::new(2);
    let g = Arc::new(small_graph());
    let mutated = Arc::new(perfbench::probes::mutated(&g));
    let key = 42;
    let alg = Algorithm::General(TradeoffParams::new(4, 2));
    let v1 = service.register_keyed(key, Arc::clone(&g));
    let old = service.spanner(&v1, alg).seed(1).run().expect("builds");
    let v2 = service.register_keyed(key, mutated);
    assert_ne!(v1.version(), v2.version());
    let new = service.spanner(&v2, alg).seed(1).run().expect("builds");
    assert!(
        !Arc::ptr_eq(&old, &new),
        "re-registration purged the old artifact"
    );

    let id = |r: &Arc<_>| Arc::as_ptr(r) as usize;
    let honest = [
        (id(&old), (0, v1.version())),
        (id(&new), (0, v2.version())),
        (id(&new), (0, v2.version())),
    ];
    assert!(check::no_stale_artifacts(&honest).is_ok());
    // The version-1 artifact resolving a job submitted with the
    // version-2 handle.
    let stale = [(id(&old), (0, v1.version())), (id(&old), (0, v2.version()))];
    let err = check::no_stale_artifacts(&stale).expect_err("stale artifact detected");
    assert!(err.contains("version"), "{err}");
}

#[test]
fn any_failed_check_fails_the_run() {
    let mut report = Report::default();
    report.check(Ok(()));
    assert!(report.to_json().render().starts_with(r#"{"correct":true"#));
    report.check(check::same_edges("seeded", &[1, 2], &[1, 2, 3]));
    assert!(report.to_json().render().starts_with(r#"{"correct":false"#));
}
