//! `apsp_oracle`: a closed loop (one client) on the Sequential backend
//! over two n = 4096 Erdős–Rényi graphs with the APSP schedule
//! (Corollary 1.2(4): `k = ⌈log₂ n⌉`, `t = ⌈log₂ log₂ n⌉`). Each pass
//! builds six λ = 3 sketch oracles and two exact-Dijkstra oracles (a
//! fixed list of graph × seed). After the loop, the first pass's oracles
//! answer many-source exact batches and large sketch batches.

use std::sync::Arc;
use std::time::Instant;

use spanner_core::pipeline::{
    Algorithm, Backend, DistanceOracle, DistanceRequest, MpcDeployment, QueryEngine,
};
use spanner_core::presets::CorollarySetting;
use spanner_graph::generators::{Family, WeightModel};
use spanner_graph::shortest_paths::dijkstra;

use super::{
    derive, graph, query_pairs, report_build_times, report_stretch, timed_setup, MpcWork, RunArgs,
    Subject,
};
use crate::report::{Json, Report};
use crate::{check, probes, trace};

const EXACT_SOURCES: usize = 256;

fn apsp() -> Algorithm {
    Algorithm::Corollary {
        setting: CorollarySetting::ApspRegime,
        k: 0,
    }
}

/// Runs the workload.
pub fn run(args: &RunArgs, report: &mut Report) {
    let gen = || {
        [21u64, 22].map(|tag| {
            graph(
                Family::ErdosRenyi {
                    n: 4096,
                    avg_deg: 12.0,
                },
                WeightModel::PowersOfTwo(10),
                derive(args.seed, tag),
            )
        })
    };
    let graphs = timed_setup(report, 21, gen);
    if args.trace {
        let t = Instant::now();
        drop(gen());
        report.metric("graph.generate_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
    }
    let n = graphs[0].n();
    // The fixed build list of one pass: (graph, engine, seed). Entries 0
    // and 1 are the sketch oracles, 2 and 3 the exact oracles whose query
    // throughput is measured. Sketch builds are three quarters of the list, so the
    // median build is a sketch build, averaged over six instances.
    let sketch = QueryEngine::Sketches { levels: 3 };
    let list: Vec<(usize, QueryEngine, u64)> = vec![
        (0, sketch, derive(args.seed, 31)),
        (1, sketch, derive(args.seed, 32)),
        (0, QueryEngine::Dijkstra, derive(args.seed, 33)),
        (1, QueryEngine::Dijkstra, derive(args.seed, 34)),
        (0, sketch, derive(args.seed, 35)),
        (1, sketch, derive(args.seed, 36)),
        (0, sketch, derive(args.seed, 37)),
        (1, sketch, derive(args.seed, 38)),
    ];
    let request = |(g, engine, seed): (usize, QueryEngine, u64)| {
        DistanceRequest::new(&graphs[g], apsp())
            .engine(engine)
            .seed(seed)
    };
    for &item in &list {
        let _s = trace::span("engine", "plan", 0);
        request(item).plan().expect("the APSP request plans");
    }

    let mut build_s = Vec::new();
    let mut first: Option<Vec<DistanceOracle>> = None;
    let mut pass = 0u64;
    let started = Instant::now();
    loop {
        let pass_start = Instant::now();
        let mut oracles = Vec::with_capacity(list.len());
        for (i, &item) in list.iter().enumerate() {
            let req_id = pass * 100 + i as u64 + 1;
            let t = Instant::now();
            let built = {
                let _s = trace::span("distance", "build", req_id);
                request(item).build()
            };
            if pass == 0 {
                report.attempt(built.is_ok());
            }
            match built {
                Ok(o) => {
                    build_s.push(t.elapsed().as_secs_f64());
                    oracles.push(o);
                }
                Err(e) => {
                    report.check(Err(format!("oracle build {item:?} failed: {e}")));
                    return;
                }
            }
        }
        if first.is_none() {
            first = Some(oracles);
        }
        pass += 1;
        if started.elapsed().as_secs_f64() + pass_start.elapsed().as_secs_f64() > args.seconds {
            break;
        }
    }

    // The loop's requests are the builds: one client asking for oracle
    // after oracle.
    let p50 = report_build_times(report, &build_s);
    report.note("passes", pass);
    report.note("unit_ms", p50 * 1e3);
    report.note("parallel_unit_ms", p50 * 1e3);

    let oracles = first.expect("at least one pass ran");
    report.metric(
        "spanner_edges",
        oracles.iter().map(|o| o.size()).sum::<usize>() as f64,
        "edges",
    );

    // Correctness, outside the timed region: d ≤ d̂ ≤ bound·d against
    // exact Dijkstra on G from sampled sources, and batches equal
    // one-at-a-time answers.
    let mut worst_by_oracle = vec![Vec::new(); oracles.len()];
    for (gi, g) in graphs.iter().enumerate() {
        let sources: Vec<u32> = query_pairs(n, 8, 8, derive(args.seed, 50 + gi as u64))
            .iter()
            .map(|p| p.0)
            .collect();
        for &s in &sources {
            let exact = dijkstra(g, s).dist;
            for (oi, (o, (_, engine, seed))) in oracles
                .iter()
                .zip(&list)
                .enumerate()
                .filter(|(_, (_, it))| it.0 == gi)
            {
                let approx = o.distances_from(s);
                match check::answers_within(
                    &format!("{engine:?} oracle (graph {gi}, seed {seed})"),
                    s,
                    &exact,
                    &approx,
                    o.stretch_bound(),
                ) {
                    Ok(worst) => worst_by_oracle[oi].push(worst),
                    Err(e) => report.check(Err(e)),
                }
            }
        }
    }
    report_stretch(report, &worst_by_oracle);
    for (o, (_, engine, _)) in oracles.iter().zip(&list) {
        let pairs = query_pairs(n, 200, 20, derive(args.seed, 31));
        let single: Vec<u64> = pairs.iter().map(|&(u, v)| o.query(u, v)).collect();
        report.check(check::batch_matches_single(
            &format!("{engine:?} query_batch"),
            &pairs,
            &o.query_batch(&pairs),
            &single,
        ));
    }

    // Query throughput: each graph's first sketch oracle and its exact
    // oracle (list entries 0, 1 and 2, 3).
    probes::query_throughput(
        report,
        &[&oracles[2], &oracles[3]],
        &[&oracles[0], &oracles[1]],
        EXACT_SOURCES,
        args.seed,
    );

    // Model cost of the same preprocessing in Corollary 1.4's regime:
    // each graph's spanner built on near-linear MPC, then gathered onto
    // one machine; its edges must equal the sequential exact oracle's.
    let mut work = MpcWork::default();
    let mut mpc_config = None;
    let mut mpc_ms = Vec::new();
    for (gi, g) in graphs.iter().enumerate() {
        let exact_item = list[2 + gi];
        let t = Instant::now();
        let mpc = {
            let _s = trace::span("mpc_driver", "build", 0);
            DistanceRequest::new(g, apsp())
                .on(Backend::mpc_deployment(MpcDeployment::NearLinear))
                .seed(exact_item.2)
                .build()
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        report.attempt(mpc.is_ok());
        match mpc {
            Ok(o) => {
                report.check(check::same_edges(
                    &format!("near-linear MPC oracle vs sequential (graph {gi})"),
                    o.spanner_edges(),
                    oracles[2 + gi].spanner_edges(),
                ));
                let stats = o
                    .stats()
                    .execution
                    .mpc()
                    .expect("MPC backend reports MPC stats");
                work.add(&stats.metrics, ms);
                mpc_ms.push(ms);
                mpc_config = Some(stats.config);
                report.note(
                    format!("model_graph{gi}"),
                    Json::Obj(vec![
                        ("rounds".into(), stats.metrics.rounds.into()),
                        (
                            "gather_rounds".into(),
                            o.stats().gather_rounds.unwrap_or(0).into(),
                        ),
                        ("machine_words".into(), stats.config.machine_words.into()),
                        ("machines".into(), stats.config.num_machines.into()),
                    ]),
                );
            }
            Err(e) => report.check(Err(format!("near-linear MPC oracle failed: {e}"))),
        }
    }
    report.metric("model_rounds", work.metrics.rounds as f64, "rounds");
    report.metric("model_words", work.metrics.total_comm_words as f64, "words");

    if args.trace {
        let subject = Subject {
            graph: Arc::clone(&graphs[0]),
            algorithm: apsp(),
            seed: list[2].2,
            mpc: mpc_config.unwrap_or_else(|| super::deployment(&graphs[0], 4096)),
            sketch_levels: 3,
        };
        let mpc_build_ms = mpc_ms.first().copied();
        probes::layers(report, &subject, &work, mpc_build_ms);
    }
}
