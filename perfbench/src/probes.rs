//! Timed probes around single calls into one layer: the query-batch
//! throughput every workload reports, and the per-layer probes of the
//! traced run.

use std::sync::Arc;
use std::time::Instant;

use mpc_runtime::{comm, primitives, Dist, MpcSystem};
use rayon::prelude::*;
use spanner_core::pipeline::{
    Backend, DistanceOracle, DistanceSketches, GraphHandle, JobOutput, JobQueue, JobSpec,
    QueueConfig, RunReport, ServiceConfig, ShardedService, SpannerRequest,
};
use spanner_graph::edge::{EdgeId, Weight};
use spanner_graph::shortest_paths::dijkstra;
use spanner_graph::Graph;

use crate::report::{Json, Report};
use crate::workloads::{query_pairs, MpcWork, Subject};
use crate::{check, stats, trace};

/// Every `rounds_by_op` label the workloads' MPC builds produce; each
/// becomes a `mpc.rounds.<op>` per-layer metric (0 when a run has none).
pub const MPC_OPS: [&str; 15] = [
    "apsp.collect",
    "contract",
    "contract.labels",
    "finish.dedup",
    "iter.b6",
    "iter.best",
    "iter.bestjoin",
    "iter.join_o",
    "iter.join_v",
    "iter.kill",
    "iter.labels",
    "iter.minpair",
    "iter.rebuild",
    "p2.join",
    "p2.min",
];

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Pairs per sketch-engine batch (about 0.1 s of work on two cores).
pub const SKETCH_BATCH: usize = 1_000_000;

/// Times `f` `reps` times; returns the per-call milliseconds.
fn repeat(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            ms_since(t)
        })
        .collect()
}

/// How long the throughput measurement runs, at least: every oracle's
/// batch, exact and sketch, runs round robin until this much has passed,
/// so each oracle's samples span the whole window.
const QUERY_WINDOW_MS: f64 = 5000.0;

/// `query_batch` throughput of exact and sketch oracles. Each oracle
/// answers one batch — `exact_sources` distinct sources for an exact
/// oracle, [`SKETCH_BATCH`] pairs for a sketch oracle — at least 5 times,
/// round robin over all oracles for [`QUERY_WINDOW_MS`]; an engine's rate
/// is its batches' pairs over the sum of each oracle's median batch time,
/// so it weighs every instance equally and no single slow batch. Checks a
/// prefix of each batch against one-at-a-time queries.
pub fn query_throughput(
    report: &mut Report,
    exact: &[&DistanceOracle],
    sketch: &[&DistanceOracle],
    exact_sources: usize,
    seed: u64,
) {
    let engines = [("dijkstra", exact), ("sketch", sketch)];
    // (engine index, oracle, batch) for every oracle measured.
    let mut jobs = Vec::new();
    for (e, (name, oracles)) in engines.iter().enumerate() {
        for (i, oracle) in oracles.iter().enumerate() {
            let n = oracle.spanner().n();
            let pairs = if *name == "dijkstra" {
                query_pairs(n, exact_sources, exact_sources, seed ^ 0xe7ac ^ i as u64)
            } else {
                query_pairs(n, SKETCH_BATCH, n, seed ^ 0x5e7c ^ i as u64)
            };
            jobs.push((e, *oracle, pairs));
        }
    }
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    // The first answers of each oracle's last batch, for the check.
    let mut answers: Vec<Vec<u64>> = vec![Vec::new(); jobs.len()];
    let started = Instant::now();
    while times.iter().any(|t| t.len() < 5) || ms_since(started) < QUERY_WINDOW_MS {
        for (j, (_, oracle, pairs)) in jobs.iter().enumerate() {
            let t = Instant::now();
            let batch = {
                let _s = trace::span("distance", "query_batch", 0);
                oracle.query_batch(pairs)
            };
            times[j].push(ms_since(t));
            answers[j] = batch[..batch.len().min(64)].to_vec();
        }
    }
    for (j, (e, oracle, pairs)) in jobs.iter().enumerate() {
        let prefix = &pairs[..pairs.len().min(64)];
        let single: Vec<u64> = prefix.iter().map(|&(u, v)| oracle.query(u, v)).collect();
        report.check(check::batch_matches_single(
            &format!("{} query_batch", engines[*e].0),
            prefix,
            &answers[j],
            &single,
        ));
    }
    for (e, (name, oracles)) in engines.iter().enumerate() {
        let mine = || jobs.iter().zip(&times).filter(|((je, _, _), _)| *je == e);
        let median_ms_total: f64 = mine().map(|(_, t)| stats::median(t)).sum();
        let pairs_total: usize = mine().map(|((_, _, p), _)| p.len()).sum();
        report.metric(
            format!("query_qps_{name}"),
            pairs_total as f64 / (median_ms_total / 1e3),
            "queries/s",
        );
        report.metric(
            format!("distance.query_batch_ms.{name}"),
            median_ms_total / oracles.len().max(1) as f64,
            "ms",
        );
    }
    report.metric(
        "distance.sources_per_batch",
        exact_sources as f64,
        "sources",
    );
}

/// The per-layer probes of the traced run, on the workload's
/// representative request. `work` is the MPC cost of the workload's own
/// MPC builds; `mpc_build_ms` the wall-clock of an MPC build of
/// `subject` when the workload already timed one.
pub fn layers(report: &mut Report, subject: &Subject, work: &MpcWork, mpc_build_ms: Option<f64>) {
    let g: &Graph = &subject.graph;

    // engine: the sequential reference build of the subject.
    let seq = SpannerRequest::new(g, subject.algorithm).seed(subject.seed);
    let mut elapsed = Vec::new();
    let mut edges: Vec<EdgeId> = Vec::new();
    let mut iterations = 0u32;
    for _ in 0..5 {
        let r = {
            let _s = trace::span("engine", "run", 0);
            seq.run().expect("the subject's sequential build succeeds")
        };
        elapsed.push(r.elapsed.as_secs_f64() * 1e3);
        iterations = r.result.iterations;
        edges = r.result.edges;
    }
    let engine_ms = stats::median(&elapsed);
    report.metric("engine.build_ms_p50", engine_ms, "ms");
    report.metric("engine.iterations", iterations as f64, "iterations");
    report.metric(
        "engine.ms_per_iteration",
        engine_ms / iterations.max(1) as f64,
        "ms",
    );

    // mpc_driver: simulated MPC build over the sequential one.
    let mpc_ms = mpc_build_ms.unwrap_or_else(|| {
        let req = SpannerRequest::new(g, subject.algorithm)
            .on(Backend::mpc_deployment(subject.mpc))
            .seed(subject.seed);
        let times: Vec<f64> = (0..2)
            .map(|_| {
                let _s = trace::span("mpc_driver", "run", 0);
                req.run()
                    .expect("the subject builds on its MPC deployment")
                    .elapsed
                    .as_secs_f64()
                    * 1e3
            })
            .collect();
        stats::median(&times)
    });
    report.metric(
        "mpc_driver.sim_overhead_x",
        mpc_ms / engine_ms.max(1e-9),
        "x",
    );

    // graph: subgraph extraction and one Dijkstra on the spanner.
    let sub_ms = repeat(10, || {
        let _s = trace::span("graph", "edge_subgraph", 0);
        std::hint::black_box(g.edge_subgraph(&edges));
    });
    report.metric("graph.edge_subgraph_ms", stats::median(&sub_ms), "ms");
    let h = g.edge_subgraph(&edges);
    let n = h.n() as u32;
    let mut source = 0u32;
    let dj_us: Vec<f64> = repeat(200, || {
        let _s = trace::span("graph", "dijkstra", 0);
        std::hint::black_box(dijkstra(&h, source));
        source = (source + 97) % n.max(1);
    })
    .into_iter()
    .map(|ms| ms * 1e3)
    .collect();
    report.metric("graph.dijkstra_us_p50", stats::median(&dj_us), "us");
    report.metric(
        "graph.dijkstra_bytes_computed",
        (2 * h.m() * std::mem::size_of::<(u32, Weight, EdgeId)>()) as f64,
        "bytes",
    );

    // distance: sketch preprocessing on the spanner.
    let mut entries = 0usize;
    let pre_ms = repeat(3, || {
        let _s = trace::span("distance", "preprocess_sketches", 0);
        let sk = DistanceSketches::preprocess_with_substrate(
            &h,
            subject.sketch_levels,
            subject.seed,
            1.0,
        );
        entries = sk.total_entries();
    });
    report.metric(
        "distance.sketch_preprocess_ms",
        stats::median(&pre_ms),
        "ms",
    );
    report.metric("distance.sketch_entries", entries as f64, "entries");

    rayon_probe(report);
    mpc_probes(report, subject, work);
    service_probes(report, subject);
}

fn rayon_probe(report: &mut Report) {
    const ITEMS: u64 = 1024;
    const REPS: usize = 500;
    let threads = rayon::current_num_threads();
    let serial = repeat(REPS, || {
        let v: Vec<u64> = (0..ITEMS).map(|x| x.wrapping_mul(3)).collect();
        std::hint::black_box(v);
    });
    let parallel = repeat(REPS, || {
        let _s = trace::span("rayon", "par_iter", 0);
        let v: Vec<u64> = (0..ITEMS)
            .into_par_iter()
            .map(|x| x.wrapping_mul(3))
            .collect();
        std::hint::black_box(v);
    });
    let tasks = if threads <= 1 {
        1
    } else {
        (threads * 4).min(ITEMS as usize)
    };
    let per_call_us = (stats::median(&parallel) - stats::median(&serial)) * 1e3;
    report.metric("rayon.task_us", per_call_us / tasks as f64, "us");
    report.metric("rayon.threads", threads as f64, "threads");
}

fn mpc_probes(report: &mut Report, subject: &Subject, work: &MpcWork) {
    let m = &work.metrics;
    for op in MPC_OPS {
        let rounds = m.rounds_by_op.get(op).copied().unwrap_or(0);
        report.metric(format!("mpc.rounds.{op}"), rounds as f64, "rounds");
    }
    report.metric("mpc.comm_words", m.total_comm_words as f64, "words");
    report.metric(
        "mpc.critical_link_words",
        m.critical_link_words as f64,
        "words",
    );
    report.metric(
        "mpc.peak_machine_words",
        m.peak_machine_words as f64,
        "words",
    );
    report.metric(
        "mpc.ms_per_round",
        work.build_ms / m.rounds.max(1) as f64,
        "ms",
    );

    // Primitive probes on a Dist sized like the subject's edge stream.
    let cfg = subject.mpc;
    let records: Vec<(u64, u64)> = subject
        .graph
        .edges()
        .iter()
        .map(|e| {
            (
                primitives::splitmix64(((e.u as u64) << 32) | e.v as u64),
                e.w,
            )
        })
        .collect();
    let fresh = |sys: &mut MpcSystem| {
        let d = Dist::distribute(sys, records.clone()).expect("edge stream fits the deployment");
        sys.reset_metrics();
        d
    };
    let mut sort = Vec::new();
    let mut aggregate = Vec::new();
    let mut route = Vec::new();
    let mut scan = Vec::new();
    for _ in 0..5 {
        let mut sys = MpcSystem::new(cfg);
        let d = fresh(&mut sys);
        let t = Instant::now();
        {
            let _s = trace::span("mpc-runtime", "sort_by_key", 0);
            primitives::sort_by_key(&mut sys, d, "probe.sort", |r: &(u64, u64)| r.0)
                .expect("probe sort fits");
        }
        sort.push(ms_since(t));

        let d = fresh(&mut sys);
        let t = Instant::now();
        {
            let _s = trace::span("mpc-runtime", "aggregate_by_key", 0);
            primitives::aggregate_by_key(
                &mut sys,
                d,
                "probe.aggregate",
                |r: &(u64, u64)| r.0 % 1024,
                |r: &(u64, u64)| r.1,
                |a: &u64, b: &u64| *a.min(b),
            )
            .expect("probe aggregate fits");
        }
        aggregate.push(ms_since(t));

        let d = fresh(&mut sys);
        let p = sys.machines() as u64;
        let t = Instant::now();
        {
            let _s = trace::span("mpc-runtime", "route", 0);
            comm::route(&mut sys, d, "probe.route", move |r: &(u64, u64), _| {
                (primitives::splitmix64(r.0) % p) as usize
            })
            .expect("probe route fits");
        }
        route.push(ms_since(t));

        let per: Vec<u64> = vec![1; sys.machines()];
        let t = Instant::now();
        {
            let _s = trace::span("mpc-runtime", "machine_scan", 0);
            comm::machine_scan(&mut sys, per, 0u64, "probe.scan", |a, b| a + b)
                .expect("probe scan fits");
        }
        scan.push(ms_since(t));
    }
    report.metric("mpc.sort_ms", stats::median(&sort), "ms");
    report.metric("mpc.aggregate_ms", stats::median(&aggregate), "ms");
    report.metric("mpc.route_ms", stats::median(&route), "ms");
    report.metric("mpc.scan_ms", stats::median(&scan), "ms");
}

/// A graph with different content under the same registry key: the
/// last edge made heavier. The edge count is unchanged, so telling the
/// versions apart takes the registry's full O(V + E) content compare.
pub fn mutated(g: &Graph) -> Graph {
    let mut edges = g.edges().to_vec();
    if let Some(last) = edges.last_mut() {
        last.w = last.w.saturating_mul(2).saturating_add(1);
    }
    Graph::from_edges(g.n(), edges)
}

/// Registry keys the service probe spreads its jobs over. Routing is by
/// key, so the hash ring decides how they divide between the shards.
const PROBE_KEYS: u64 = 8;
/// Store hits the queue probe sends at once, one per key …
const BURST: u64 = PROBE_KEYS;
/// … this many times …
const BURSTS: u64 = 60;
/// … one burst every this many milliseconds.
const BURST_EVERY_MS: u64 = 4;

/// An artifact the probe was served, kept alive so its address stays a
/// unique identity; the (key index, graph version) it was served for; and
/// which content that version holds (0 the subject graph, 1 mutated).
type Served = (Arc<RunReport>, (usize, u64), usize);

/// The service, shard, queue and load-generator probes: a 2-shard
/// service holding the subject graph under [`PROBE_KEYS`] keys, and a
/// second one whose per-shard store holds about one artifact, so filling
/// it evicts. Checks every served artifact against a one-shot build at
/// the same seed on the graph version its handle pinned, and that no
/// artifact is served for two versions.
fn service_probes(report: &mut Report, subject: &Subject) {
    let alg = subject.algorithm;
    let seed = subject.seed;
    let base = subject.graph.fingerprint();
    let keys: Vec<u64> = (0..PROBE_KEYS).map(|i| base.wrapping_add(i)).collect();
    let service = Arc::new(ShardedService::new(2));
    let owners: Vec<Json> = keys
        .iter()
        .map(|&k| {
            let _s = trace::span("shard", "shard_for", 0);
            service.shard_for(k).into()
        })
        .collect();
    report.note("probe_key_shards", Json::Arr(owners));
    let register = |svc: &ShardedService, key: u64, g: &Arc<Graph>| {
        let _s = trace::span("service", "register_keyed", 0);
        svc.register_keyed(key, Arc::clone(g))
    };
    // Creating a job routes it to its key's shard; running it looks up,
    // or fills, that shard's store.
    let run = |svc: &ShardedService, h: &GraphHandle| {
        let job = {
            let _s = trace::span("shard", "route", 0);
            svc.spanner(h, alg).seed(seed)
        };
        let _s = trace::span("service", "run", 0);
        job.run()
    };
    let handles: Vec<GraphHandle> = keys
        .iter()
        .map(|&k| register(&service, k, &subject.graph))
        .collect();
    let mut served: Vec<Served> = Vec::new();
    let mut miss_ms = Vec::new();

    // Misses: one build per key.
    for (i, h) in handles.iter().enumerate() {
        match run(&service, h) {
            Ok(r) => {
                miss_ms.push(r.elapsed.as_secs_f64() * 1e3);
                served.push((r, (i, h.version()), 0));
            }
            Err(e) => report.check(Err(format!("probe miss on key {i} failed: {e}"))),
        }
    }
    let artifact_bytes = service.store_used_bytes() / keys.len();

    // Hits: direct, unqueued store hits, round robin over the keys.
    let mut next = 0usize;
    let hit_us: Vec<f64> = repeat(1000, || {
        let i = next % handles.len();
        next += 1;
        match run(&service, &handles[i]) {
            Ok(r) => served.push((r, (i, handles[i].version()), 0)),
            Err(e) => report.check(Err(format!("probe store hit on key {i} failed: {e}"))),
        }
    })
    .into_iter()
    .map(|ms| ms * 1e3)
    .collect();
    report.metric("service.hit_us_p50", stats::median(&hit_us), "us");

    // Queue and load generator: bursts of store hits, one per key, sent
    // on a fixed schedule. Each job is timed from its burst's scheduled
    // send; hits resolve within microseconds of each other, so waiting in
    // submission order stamps each one as it resolves.
    let queue = JobQueue::start(Arc::clone(&service), QueueConfig::default());
    let mut submit_us = Vec::new();
    let mut overhead_ms = Vec::new();
    let mut lag_ms = Vec::new();
    let start = Instant::now();
    for b in 0..BURSTS {
        let due = start + std::time::Duration::from_millis(b * BURST_EVERY_MS);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        lag_ms.push(ms_since(due));
        let sent: Vec<_> = {
            let _g = trace::span("loadgen", "burst", 0);
            (0..BURST as usize)
                .map(|i| {
                    let req = b * BURST + i as u64 + 1;
                    let spec = JobSpec::spanner(&handles[i], alg).seed(seed);
                    let t = Instant::now();
                    let id = {
                        let _s = trace::span("queue", "submit", req);
                        queue.submit(spec)
                    };
                    submit_us.push(t.elapsed().as_secs_f64() * 1e6);
                    (req, i, id)
                })
                .collect()
        };
        for (req, i, id) in sent {
            match queue.wait(id) {
                Ok(JobOutput::Spanner(r)) => {
                    trace::record("request", "resolve", req, due, Instant::now());
                    overhead_ms.push(ms_since(due));
                    served.push((r, (i, handles[i].version()), 0));
                }
                Ok(_) => report.check(Err(format!("queued job {req} resolved to an oracle"))),
                Err(e) => report.check(Err(format!("queued job {req} failed: {e}"))),
            }
        }
    }
    queue.drain();
    let peak = queue.stats().peak_queued;
    drop(queue);
    let s = stats::sorted(&submit_us);
    let o = stats::sorted(&overhead_ms);
    report.metric("queue.submit_us_p50", stats::percentile(&s, 50.0), "us");
    report.metric("queue.submit_us_p99", stats::percentile(&s, 99.0), "us");
    report.metric("queue.overhead_ms_p50", stats::percentile(&o, 50.0), "ms");
    report.metric("queue.overhead_ms_p99", stats::percentile(&o, 99.0), "ms");
    report.metric("queue.peak_queued", peak as f64, "jobs");
    let lag = stats::sorted(&lag_ms);
    report.metric("loadgen.lag_ms_p99", stats::percentile(&lag, 99.0), "ms");
    report.metric(
        "loadgen.lag_ms_max",
        lag.last().copied().unwrap_or(0.0),
        "ms",
    );

    // Write path: re-register alternating content under the first key,
    // then serve the last two versions (each a miss after the purge).
    let variants = [
        Arc::clone(&subject.graph),
        Arc::new(mutated(&subject.graph)),
    ];
    let mut register_ms = Vec::new();
    for i in 0..10 {
        let t = Instant::now();
        let content = (i + 1) % 2;
        let current = register(&service, keys[0], &variants[content]);
        register_ms.push(ms_since(t));
        if i >= 8 {
            match run(&service, &current) {
                Ok(r) => {
                    miss_ms.push(r.elapsed.as_secs_f64() * 1e3);
                    served.push((r, (0, current.version()), content));
                }
                Err(e) => report.check(Err(format!(
                    "probe build after re-registration failed: {e}"
                ))),
            }
        }
    }
    report.metric("service.register_ms_p50", stats::median(&register_ms), "ms");

    // Eviction: every key once into stores that hold about one artifact
    // per shard.
    let evicting = ShardedService::with_config(
        2,
        ServiceConfig {
            store_budget_bytes: artifact_bytes * 3 / 2,
            ..ServiceConfig::default()
        },
    );
    for (i, &k) in keys.iter().enumerate() {
        let h = register(&evicting, k, &subject.graph);
        match run(&evicting, &h) {
            Ok(r) => {
                miss_ms.push(r.elapsed.as_secs_f64() * 1e3);
                served.push((r, (PROBE_KEYS as usize + i, h.version()), 0));
            }
            Err(e) => report.check(Err(format!(
                "probe miss on the evicting service failed: {e}"
            ))),
        }
    }
    report.metric("service.miss_exec_ms_p50", stats::median(&miss_ms), "ms");
    service_counters(report, &[&service, &evicting]);

    // Correctness: one-shot references at the probe seed on each graph
    // content, and no artifact served for two versions.
    let references: Vec<Result<RunReport, String>> = variants
        .iter()
        .map(|g| {
            SpannerRequest::new(g, alg)
                .seed(seed)
                .run()
                .map_err(|e| format!("one-shot reference build failed: {e}"))
        })
        .collect();
    let mut checked = std::collections::HashSet::new();
    for (r, (i, version), content) in &served {
        if !checked.insert(Arc::as_ptr(r) as usize) {
            continue;
        }
        match &references[*content] {
            Ok(want) => report.check(check::same_artifact(
                &format!("probe artifact (key {i}, version {version})"),
                &JobOutput::Spanner(Arc::clone(r)),
                &JobOutput::Spanner(Arc::new(want.clone())),
                &[],
            )),
            Err(e) => report.check(Err(e.clone())),
        }
    }
    let identities: Vec<(usize, (usize, u64))> = served
        .iter()
        .map(|(r, at, _)| (Arc::as_ptr(r) as usize, *at))
        .collect();
    report.check(check::no_stale_artifacts(&identities));
}

/// The `service.*` counters and `shard.imbalance` summed over
/// `services`, which share one shard count and so one key → shard map.
fn service_counters(report: &mut Report, services: &[&ShardedService]) {
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut evictions = 0u64;
    let mut invalidations = 0u64;
    let mut bytes = 0usize;
    let mut per_shard: Vec<f64> = Vec::new();
    for service in services {
        for (i, s) in service.per_shard_stats().iter().enumerate() {
            hits += s.hits;
            misses += s.misses;
            evictions += s.evictions;
            invalidations += s.invalidations;
            bytes += s.store_used_bytes;
            if per_shard.len() <= i {
                per_shard.resize(i + 1, 0.0);
            }
            per_shard[i] += (s.hits + s.misses) as f64;
        }
    }
    report.metric("service.hits", hits as f64, "jobs");
    report.metric("service.misses", misses as f64, "jobs");
    report.metric(
        "service.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    report.metric("service.evictions", evictions as f64, "artifacts");
    report.metric("service.invalidations", invalidations as f64, "artifacts");
    report.metric("service.store_bytes", bytes as f64, "bytes");
    let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
    let max = per_shard.iter().copied().fold(0.0, f64::max);
    report.metric(
        "shard.imbalance",
        if mean > 0.0 { max / mean } else { 0.0 },
        "x",
    );
}
