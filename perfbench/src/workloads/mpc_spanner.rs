//! `mpc_spanner`: a closed loop (one client) of Theorem 1.1 builds on
//! the MPC backend with the loop executor, over a fixed list of
//! (graph, deployment, seed) builds.

use std::sync::Arc;
use std::time::Instant;

use mpc_runtime::MpcConfig;
use spanner_core::pipeline::{
    Backend, DistanceOracle, DistanceRequest, Plan, QueryEngine, RunReport, SpannerRequest,
};
use spanner_graph::generators::{Family, WeightModel};
use spanner_graph::shortest_paths::dijkstra;
use spanner_graph::verify::{sampled_pairwise_stretch, verify_spanner};
use spanner_graph::Graph;

use super::{
    deployment, derive, graph, query_pairs, theorem_1_1, timed_setup, MpcWork, RunArgs, Subject,
};
use crate::report::{Json, Report};
use crate::{check, probes, stats, trace};

struct Build {
    label: String,
    graph: Arc<Graph>,
    config: MpcConfig,
    seed: u64,
}

fn inputs(seed: u64) -> Vec<Build> {
    let er = |tag| {
        graph(
            Family::ErdosRenyi {
                n: 2048,
                avg_deg: 12.0,
            },
            WeightModel::PowersOfTwo(10),
            derive(seed, tag),
        )
    };
    let (er_a, er_b, er_c) = (er(1), er(2), er(3));
    let plaw = graph(
        Family::PowerLaw {
            n: 2048,
            avg_deg: 10.0,
        },
        WeightModel::Uniform(1, 64),
        derive(seed, 4),
    );
    let torus = graph(
        Family::Torus { side: 64 },
        WeightModel::Uniform(1, 64),
        derive(seed, 5),
    );
    // Power-law graphs overflow a machine at S = 2048 for some seeds
    // (the known MPC defect, pinned in the feasibility sweep), so every
    // timed build uses a deployment that succeeds at every seed. Three
    // Erdős–Rényi instances at S = 4096 put the median on one build size
    // averaged over three graphs.
    let list = [
        ("er2048-a", &er_a, 2048),
        ("er2048-a", &er_a, 4096),
        ("er2048-b", &er_b, 4096),
        ("er2048-c", &er_c, 4096),
        ("plaw2048", &plaw, 4096),
        ("torus64x64", &torus, 2048),
        ("torus64x64", &torus, 4096),
    ];
    list.iter()
        .enumerate()
        .map(|(i, (name, g, s))| Build {
            label: format!("{name}/S={s}"),
            graph: Arc::clone(g),
            config: deployment(g, *s),
            seed: derive(seed, 100 + i as u64),
        })
        .collect()
}

/// The Erdős–Rényi builds at S = 4096: `stretch_max` is measured on
/// them, and one of them gets the full edge-stretch certificate.
const CERTIFIED: [usize; 3] = [1, 2, 3];

fn request(b: &Build) -> SpannerRequest<'_> {
    SpannerRequest::new(&b.graph, theorem_1_1())
        .on(Backend::mpc_deployment(b.config))
        .seed(b.seed)
}

/// Runs the workload.
pub fn run(args: &RunArgs, report: &mut Report) {
    let builds = timed_setup(report, 21, || inputs(args.seed));
    if args.trace {
        let t = Instant::now();
        drop(inputs(args.seed));
        report.metric("graph.generate_ms", ms(t), "ms");
    }
    let plans: Vec<Plan> = builds
        .iter()
        .map(|b| {
            let _s = trace::span("engine", "plan", 0);
            request(b).plan().expect("the fixed build list plans")
        })
        .collect();

    // Timed region: whole passes over the fixed list.
    let mut times_s = Vec::new();
    let mut item_s: Vec<Vec<f64>> = vec![Vec::new(); builds.len()];
    let mut first_pass: Vec<Option<RunReport>> = vec![None; builds.len()];
    let mut mismatched_passes = Vec::new();
    let started = Instant::now();
    let mut pass = 0u64;
    loop {
        let pass_start = Instant::now();
        for (i, b) in builds.iter().enumerate() {
            let req_id = pass * builds.len() as u64 + i as u64 + 1;
            let t = Instant::now();
            let out = {
                let _s = trace::span("mpc_driver", "run", req_id);
                request(b).run()
            };
            let secs = t.elapsed().as_secs_f64();
            if pass == 0 {
                report.attempt(out.is_ok());
            }
            match out {
                Ok(r) => {
                    times_s.push(secs);
                    item_s[i].push(secs);
                    match &first_pass[i] {
                        None => first_pass[i] = Some(r),
                        Some(f) if f.result.edges != r.result.edges => {
                            mismatched_passes.push(format!("{} pass {pass}", b.label))
                        }
                        Some(_) => {}
                    }
                }
                Err(e) => report.check(Err(format!("{}: timed build failed: {e}", b.label))),
            }
        }
        pass += 1;
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + pass_start.elapsed().as_secs_f64() > args.seconds {
            break;
        }
    }
    for m in mismatched_passes {
        report.check(Err(format!("{m}: spanner differs from the first pass")));
    }

    let p50 = super::report_build_times(report, &times_s);
    report.note("passes", pass);
    report.note("unit_ms", p50 * 1e3);
    report.note("parallel_unit_ms", p50 * 1e3);

    // Model cost and size over one pass of the fixed list.
    let mut work = MpcWork::default();
    let mut edges = 0usize;
    let mut per_build = Vec::new();
    for (b, r) in builds.iter().zip(&first_pass) {
        let Some(r) = r else { continue };
        let m = &r
            .stats
            .mpc()
            .expect("MPC backend reports MPC stats")
            .metrics;
        work.add(m, r.elapsed.as_secs_f64() * 1e3);
        edges += r.size();
        per_build.push(Json::Obj(vec![
            ("build".into(), b.label.clone().into()),
            ("rounds".into(), m.rounds.into()),
            ("words".into(), m.total_comm_words.into()),
            ("edges".into(), r.size().into()),
        ]));
    }
    report.metric("model_rounds", work.metrics.rounds as f64, "rounds");
    report.metric("model_words", work.metrics.total_comm_words as f64, "words");
    report.metric("spanner_edges", edges as f64, "edges");
    report.note("builds", Json::Arr(per_build));

    // Correctness, outside the timed region: every build equals the
    // sequential reference at its seed, and sampled pairwise stretch stays
    // within the plan's bound.
    for ((b, r), plan) in builds.iter().zip(&first_pass).zip(&plans) {
        let Some(r) = r else { continue };
        let reference = SpannerRequest::new(&b.graph, theorem_1_1())
            .seed(b.seed)
            .run()
            .expect("the sequential reference builds");
        report.check(check::same_edges(
            &format!("{} MPC vs sequential", b.label),
            &r.result.edges,
            &reference.result.edges,
        ));
        let pair = sampled_pairwise_stretch(&b.graph, &r.result.edges, 6, b.seed);
        report.check(check::stretch_within(
            &b.label,
            pair.max,
            plan.stretch_bound,
        ));
    }
    // The exact edge-stretch certificate (every host edge) of one seeded
    // choice among the Erdős–Rényi builds.
    let certified = CERTIFIED[(args.seed % CERTIFIED.len() as u64) as usize];
    if let Some(r) = &first_pass[certified] {
        let b = &builds[certified];
        let v = verify_spanner(&b.graph, &r.result.edges);
        report.check(check::all_edges_spanned(&b.label, v.all_edges_spanned));
        report.check(check::stretch_within(
            &format!("{} edge stretch", b.label),
            v.max_edge_stretch,
            plans[certified].stretch_bound,
        ));
    }
    // Section 7 on the Erdős–Rényi builds: gather each MPC-built spanner
    // onto one machine and serve queries from it. `stretch_max` is the
    // largest d̂/d those answers give over sampled pairs.
    let mut served: Vec<(usize, DistanceOracle)> = Vec::new();
    for i in CERTIFIED {
        let b = &builds[i];
        for engine in [QueryEngine::Dijkstra, QueryEngine::Sketches { levels: 3 }] {
            let oracle = {
                let _s = trace::span("distance", "build", 0);
                DistanceRequest::new(&b.graph, theorem_1_1())
                    .on(Backend::mpc_deployment(b.config))
                    .seed(b.seed)
                    .engine(engine)
                    .build()
            };
            report.attempt(oracle.is_ok());
            match oracle {
                Ok(o) => served.push((i, o)),
                Err(e) => report.check(Err(format!("{}: Section 7 oracle failed: {e}", b.label))),
            }
        }
    }
    let mut worst_by_oracle = vec![Vec::new(); served.len()];
    for (j, (i, o)) in served.iter().enumerate() {
        let host = &builds[*i].graph;
        for (s, _) in query_pairs(host.n(), 16, 16, derive(args.seed, 60 + j as u64)) {
            let exact = dijkstra(host, s).dist;
            let approx = o.distances_from(s);
            match check::answers_within("Section 7 oracle", s, &exact, &approx, o.stretch_bound()) {
                Ok(w) => worst_by_oracle[j].push(w),
                Err(e) => report.check(Err(e)),
            }
        }
    }
    super::report_stretch(report, &worst_by_oracle);
    let by_engine = |exact: bool| -> Vec<&DistanceOracle> {
        served
            .iter()
            .map(|(_, o)| o)
            .filter(|o| (o.engine() == QueryEngine::Dijkstra) == exact)
            .collect()
    };
    probes::query_throughput(report, &by_engine(true), &by_engine(false), 512, args.seed);

    if args.trace {
        let subject_build = &builds[1];
        let subject = Subject {
            graph: Arc::clone(&subject_build.graph),
            algorithm: theorem_1_1(),
            seed: subject_build.seed,
            mpc: subject_build.config,
            sketch_levels: 3,
        };
        let mpc_ms = stats::median(&item_s[1]) * 1e3;
        probes::layers(report, &subject, &work, Some(mpc_ms));
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
