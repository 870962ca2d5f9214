//! Network pricing of MPC runs. A `NetworkModel` prices a finished run
//! from its `Metrics` alone (`model.report(&metrics)`): per-machine wire
//! bytes, simulated seconds per round, and the predicted cluster
//! wall-clock.
//!
//! The `*_is_executor_invariant` tests hold that read-side pricing to a
//! physical execution: the pinned `NetReport`s below were clocked by a
//! thread-per-machine executor that moved every round's messages between
//! OS threads, and the property tests check the wire counters against
//! what each primitive moves and the simulated clock against the
//! closed-form `NetworkModel::predict`.

use proptest::prelude::*;

use mpc_spanners::core::TradeoffParams;
use mpc_spanners::graph::generators::{connected_erdos_renyi, WeightModel};
use mpc_spanners::mpc::comm::{machine_scan, reduce_tree, route};
use mpc_spanners::mpc::primitives::{aggregate_by_key, broadcast_value, forward_fill, sort_by_key};
use mpc_spanners::mpc::{Dist, Metrics, MpcConfig, MpcSystem, NetReport, NetworkModel, WORD_BYTES};
use mpc_spanners::pipeline::{
    Algorithm, Backend, DistanceRequest, MpcDeployment, QueryEngine, SpannerRequest,
};

/// Runs `f` with the shim's parallel splitting capped at `threads`.
fn at_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

/// A fixed skewed mesh so per-round costs are nontrivial.
const MESH: NetworkModel = NetworkModel::FullMesh {
    latency_s: 250e-6,
    bytes_per_sec: 2e9,
};

/// A generous deployment (constraint-violation paths are covered
/// elsewhere; here every run must stay in budget).
fn roomy(len: usize, machines: usize) -> MpcSystem {
    let words = (8 * len.div_ceil(machines) + 64).max(64);
    MpcSystem::new(MpcConfig::explicit(words, machines, 8))
}

/// Checks the laws every priced run obeys and returns the report:
/// one priced round per charged round, wire bytes conserved and never
/// above the charged traffic, a clock that is the in-order sum of the
/// round times, and agreement with the closed-form prediction.
fn priced(m: &Metrics) -> NetReport {
    let report = MESH.report(m);
    assert_eq!(report.rounds, m.rounds, "every charged round is priced");
    let sent: u64 = report.sent_bytes.iter().sum();
    let recv: u64 = report.recv_bytes.iter().sum();
    assert_eq!(sent, recv, "every byte sent is received");
    assert!(sent <= m.total_comm_words * WORD_BYTES);
    let mut clock = 0.0;
    for &t in &report.round_times {
        clock += t;
    }
    assert_eq!(report.total_seconds, clock);
    let predicted = MESH.predict(
        m.rounds,
        m.critical_link_words * WORD_BYTES,
        m.total_comm_words * WORD_BYTES,
    );
    assert!(
        (report.total_seconds - predicted).abs() <= 1e-9 * predicted.max(1.0),
        "simulated clock {} must match closed-form prediction {}",
        report.total_seconds,
        predicted
    );
    report
}

/// Wire bytes of a run made only of routing rounds: the charged
/// traffic is exactly what crossed the wire.
fn assert_wire_is_charged_traffic(m: &Metrics, report: &NetReport) {
    let sent: u64 = report.sent_bytes.iter().sum();
    assert_eq!(sent, m.total_comm_words * WORD_BYTES);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn route_is_executor_invariant(
        data in proptest::collection::vec(0u64..1000, 0..300),
        machines in 2usize..10,
    ) {
        let mut sys = roomy(data.len(), machines);
        let d = Dist::distribute(&mut sys, data.clone()).unwrap();
        // Per machine: records that leave it, and records it receives
        // from elsewhere (self-delivery is free on the wire).
        let mut sent = vec![0u64; machines];
        let mut recv = vec![0u64; machines];
        for (src, shard) in d.shards().iter().enumerate() {
            for &x in shard {
                let dst = (x % machines as u64) as usize;
                if dst != src {
                    sent[src] += WORD_BYTES;
                    recv[dst] += WORD_BYTES;
                }
            }
        }
        route(&mut sys, d, "route", |&x, _| (x % machines as u64) as usize).unwrap();
        let report = priced(sys.metrics());
        prop_assert_eq!(&report.sent_bytes, &sent);
        prop_assert_eq!(&report.recv_bytes, &recv);
    }

    #[test]
    fn sort_by_key_is_executor_invariant(
        data in proptest::collection::vec(0u64..1000, 0..300),
        machines in 2usize..10,
    ) {
        let mut sys = roomy(data.len(), machines);
        let d = Dist::distribute(&mut sys, data.clone()).unwrap();
        sort_by_key(&mut sys, d, "sort", |&x| x).unwrap();
        priced(sys.metrics());
    }

    #[test]
    fn aggregate_by_key_is_executor_invariant(
        data in proptest::collection::vec((0u64..50, 0u64..1_000_000), 0..250),
        machines in 2usize..10,
    ) {
        let mut sys = roomy(data.len(), machines);
        let d = Dist::distribute(&mut sys, data.clone()).unwrap();
        aggregate_by_key(&mut sys, d, "agg", |r| r.0, |r| r.1, |x, y| *x.min(y)).unwrap();
        let report = priced(sys.metrics());
        assert_wire_is_charged_traffic(sys.metrics(), &report);
    }

    #[test]
    fn forward_fill_is_executor_invariant(
        spec in proptest::collection::vec((0u64..100, 0u64..2), 1..250),
        machines in 2usize..10,
    ) {
        let recs: Vec<(u64, u64)> = spec
            .iter()
            .map(|&(v, leader)| if leader == 1 { (v, u64::MAX) } else { (0, 0) })
            .collect();
        let mut sys = roomy(recs.len(), machines);
        let mut d = Dist::distribute(&mut sys, recs.clone()).unwrap();
        let lead = |r: &(u64, u64)| if r.1 == u64::MAX { Some(r.0) } else { None };
        forward_fill(&mut sys, &mut d, "fill", lead, |r, u| r.1 = *u).unwrap();
        priced(sys.metrics());
    }

    #[test]
    fn reduce_tree_is_executor_invariant(
        per in proptest::collection::vec(0u64..1_000_000, 2..10),
    ) {
        let machines = per.len();
        let mut sys = roomy(machines, machines);
        let min = reduce_tree(&mut sys, per.clone(), "min", |x, y| *x.min(y)).unwrap();
        prop_assert_eq!(min, per.iter().copied().min().unwrap());
        let report = priced(sys.metrics());
        assert_wire_is_charged_traffic(sys.metrics(), &report);
        // Everything converges on the root, which sends nothing.
        prop_assert_eq!(report.sent_bytes[0], 0);
    }

    #[test]
    fn machine_scan_is_executor_invariant(
        per in proptest::collection::vec(0u64..1_000, 2..10),
    ) {
        let machines = per.len();
        let mut sys = roomy(machines, machines);
        let prefixes = machine_scan(&mut sys, per.clone(), 0u64, "scan", |x, y| x + y).unwrap();
        let mut acc = 0u64;
        for (i, &v) in per.iter().enumerate() {
            prop_assert_eq!(prefixes[i], acc);
            acc += v;
        }
        priced(sys.metrics());
    }

    #[test]
    fn broadcast_value_is_executor_invariant(
        v in 0u64..1_000_000,
        machines in 2usize..10,
    ) {
        let mut sys = roomy(machines, machines);
        prop_assert_eq!(broadcast_value(&mut sys, v, "bcast").unwrap(), v);
        let report = priced(sys.metrics());
        assert_wire_is_charged_traffic(sys.metrics(), &report);
        // Every machine but the source takes exactly one copy off the wire.
        prop_assert_eq!(report.recv_bytes[0], 0);
        prop_assert!(report.recv_bytes[1..].iter().all(|&b| b == WORD_BYTES));
    }

    #[test]
    fn net_report_is_thread_count_invariant(
        data in proptest::collection::vec(0u64..1000, 0..200),
        machines in 2usize..8,
    ) {
        // The rayon thread count (machine-local work) must not leak into
        // the outputs, the accounting, or the priced report.
        let run = || {
            let mut sys = roomy(data.len(), machines);
            let d = Dist::distribute(&mut sys, data.clone()).unwrap();
            let sorted = sort_by_key(&mut sys, d, "sort", |&x| x).unwrap();
            (sorted.collect_out_of_model(), sys.metrics().clone(), priced(sys.metrics()))
        };
        let one = at_threads(1, run);
        let eight = at_threads(8, run);
        prop_assert_eq!(&one.0, &eight.0);
        prop_assert_eq!(&one.1, &eight.1);
        prop_assert_eq!(&one.2, &eight.2);
    }
}

/// A system of `machines` machines with `words` words each (slack
/// `slack`), for the pinned cases.
fn sys(words: usize, machines: usize, slack: usize) -> MpcSystem {
    MpcSystem::new(MpcConfig::explicit(words, machines, slack))
}

/// FNV-1a over the bit patterns of a run's round times: pins every
/// round's simulated cost exactly without spelling out hundreds of
/// literals.
fn round_times_digest(report: &NetReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in &report.round_times {
        for b in t.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Fixed small cases of each communication shape, pinned field for
/// field to the reports the thread-per-machine executor clocked.
#[test]
fn primitive_reports_are_pinned() {
    let mut s = sys(64, 4, 2);
    let d = Dist::distribute(&mut s, (0u64..20).collect()).unwrap();
    route(&mut s, d, "route", |&x, _| (x % 4) as usize).unwrap();
    let r = priced(s.metrics());
    assert_eq!(r.sent_bytes, vec![24, 24, 24, 24]);
    assert_eq!(r.recv_bytes, vec![24, 24, 24, 24]);
    assert_eq!(r.round_times, vec![0.00025001200000000003]);
    assert_eq!(r.total_seconds, 0.00025001200000000003);

    // Fan-out 3 over 9 machines: two gather levels.
    let mut s = sys(3, 9, 4);
    let per = (0..9u64).map(|i| (i * 7) % 5).collect();
    reduce_tree(&mut s, per, "min", |a, b| *a.min(b)).unwrap();
    let r = priced(s.metrics());
    assert_eq!(r.sent_bytes, vec![0, 8, 8, 8, 8, 8, 8, 8, 8]);
    assert_eq!(r.recv_bytes, vec![32, 0, 0, 16, 0, 0, 16, 0, 0]);
    assert_eq!(r.round_times, vec![0.000250008, 0.000250008]);
    assert_eq!(r.total_seconds, 0.000500016);

    // Up-sweep and down-sweep; the leader hops are free on the wire.
    let mut s = sys(3, 9, 4);
    machine_scan(&mut s, (1..=9u64).collect(), 0, "scan", |a, b| a + b).unwrap();
    let r = priced(s.metrics());
    assert_eq!(r.sent_bytes, vec![32, 8, 8, 24, 8, 8, 24, 8, 8]);
    assert_eq!(r.recv_bytes, vec![32, 8, 8, 24, 8, 8, 24, 8, 8]);
    assert_eq!(
        r.round_times,
        vec![
            0.000250008,
            0.000250008,
            0.00025001200000000003,
            0.00025001200000000003
        ]
    );
    assert_eq!(r.total_seconds, 0.00100004);

    // Fan-out 4 over 10 machines: waves 1 → 4 → 10.
    let mut s = sys(4, 10, 1);
    broadcast_value(&mut s, 42u64, "bcast").unwrap();
    let r = priced(s.metrics());
    assert_eq!(r.sent_bytes, vec![40, 16, 8, 8, 0, 0, 0, 0, 0, 0]);
    assert_eq!(r.recv_bytes, vec![0, 8, 8, 8, 8, 8, 8, 8, 8, 8]);
    assert_eq!(r.round_times, vec![0.000250016, 0.000250016]);
    assert_eq!(r.total_seconds, 0.000500032);
}

/// An end-to-end `Backend::Mpc` spanner build prices to the pinned
/// report, field for field.
#[test]
fn pipeline_spanner_is_executor_invariant() {
    let g = connected_erdos_renyi(600, 0.02, WeightModel::Uniform(1, 64), 5);
    let run = SpannerRequest::new(&g, Algorithm::General(TradeoffParams::new(6, 2)))
        .seed(0xBEEF)
        .on(Backend::mpc())
        .run()
        .unwrap();
    let r = priced(&run.stats.mpc().unwrap().metrics);
    assert_eq!(r.machines, 36);
    assert_eq!(r.rounds, 344);
    assert_eq!(
        r.sent_bytes,
        vec![
            362952, 379344, 422928, 452568, 481680, 481936, 489432, 492056, 484000, 491064, 491312,
            490120, 539408, 544920, 555376, 550384, 542256, 549168, 557648, 558472, 570464, 544536,
            561128, 545760, 513504, 524208, 526096, 526424, 519920, 514200, 487256, 477568, 466528,
            428592, 397888, 352760,
        ]
    );
    assert_eq!(
        r.recv_bytes,
        vec![
            367816, 390984, 419200, 461808, 496832, 479744, 490880, 482016, 477880, 491240, 491024,
            487496, 543056, 547008, 557440, 542136, 537264, 538128, 553464, 560400, 580848, 543904,
            562368, 541832, 511696, 519608, 531832, 531664, 503480, 509480, 478664, 476344, 479360,
            432368, 392864, 361728,
        ]
    );
    assert_eq!(round_times_digest(&r), 0x6826_1a00_5e66_8b9b);
    assert_eq!(r.total_seconds, 0.08751377999999994);
    assert_eq!(r.critical_round(), Some((320, 0.00026408)));
}

/// The distance-oracle stage (spanner + the Section 7 "+1" gather):
/// the gather's round and wire traffic are merged into the build's and
/// priced with it.
#[test]
fn pipeline_oracle_is_executor_invariant() {
    let g = connected_erdos_renyi(400, 0.025, WeightModel::Uniform(1, 32), 9);
    let oracle = DistanceRequest::from_spanner_request(
        SpannerRequest::new(&g, Algorithm::General(TradeoffParams::new(5, 2)))
            .seed(0xACE)
            .on(Backend::mpc_deployment(MpcDeployment::NearLinear)),
    )
    .engine(QueryEngine::Dijkstra)
    .build()
    .unwrap();
    let stats = oracle.stats().execution.mpc().unwrap();
    assert_eq!(stats.metrics.rounds_by_op["apsp.collect"], 1);
    let r = priced(&stats.metrics);
    assert_eq!(r.machines, 3);
    assert_eq!(r.rounds, 225, "the +1 gather is priced too");
    assert_eq!(r.sent_bytes, vec![912952, 994528, 936976]);
    assert_eq!(r.recv_bytes, vec![937240, 982696, 924520]);
    assert_eq!(round_times_digest(&r), 0x48f1_52f7_25d9_9d31);
    assert_eq!(r.total_seconds, 0.059774936000000084);
    assert_eq!(r.critical_round(), Some((200, 0.00036136)));
}

/// Integration pin of the model laws on a real run: FullMesh predicted
/// wall-clock grows with latency and shrinks with bandwidth.
#[test]
fn full_mesh_prediction_is_monotone_on_a_real_run() {
    let g = connected_erdos_renyi(300, 0.03, WeightModel::Uniform(1, 16), 2);
    let run = SpannerRequest::new(&g, Algorithm::General(TradeoffParams::new(4, 2)))
        .seed(7)
        .on(Backend::mpc())
        .run()
        .unwrap();
    let metrics = &run.stats.mpc().unwrap().metrics;
    let predict = |latency_s: f64, bytes_per_sec: f64| {
        NetworkModel::FullMesh {
            latency_s,
            bytes_per_sec,
        }
        .report(metrics)
        .total_seconds
    };
    let base = predict(1e-4, 1e9);
    assert!(
        predict(1e-3, 1e9) > base,
        "higher latency must predict a slower cluster"
    );
    assert!(
        predict(1e-4, 1e10) < base,
        "higher bandwidth must predict a faster cluster"
    );
}
