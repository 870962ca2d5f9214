//! Scenario: running the spanner construction on the *simulated MPC
//! cluster* — what a MapReduce/Spark job of the paper's algorithm would
//! cost, in the model's own currency (rounds, per-machine memory,
//! traffic) and in predicted wall-clock on a concrete network.
//!
//! Shows the Theorem 1.1 accounting live through the pipeline: **one**
//! `SpannerRequest`, re-targeted at deployments with shrinking machine
//! memory by swapping only the `Backend`. Each run is priced under a
//! `FullMesh` network model from its own per-round accounting
//! (`model.report(&stats.metrics)`), giving a `NetReport` of predicted
//! cluster seconds.
//!
//! ```sh
//! cargo run --release --example mpc_cluster_run
//! ```

use mpc_spanners::core::TradeoffParams;
use mpc_spanners::graph::generators::{connected_erdos_renyi, WeightModel};
use mpc_spanners::mpc::MpcConfig;
use mpc_spanners::pipeline::{Algorithm, Backend, NetworkModel, SpannerRequest};

fn main() {
    let g = connected_erdos_renyi(4000, 0.003, WeightModel::Uniform(1, 100), 3);
    let params = TradeoffParams::new(8, 3);
    let request = SpannerRequest::new(&g, Algorithm::General(params)).seed(11);
    let plan = request.plan().expect("valid request");
    println!(
        "input: n = {}, m = {}; algorithm: {}, {} grow iterations planned\n",
        g.n(),
        g.m(),
        plan.algorithm,
        plan.iterations,
    );

    // The sequential reference — the answer every deployment must match.
    let reference = request.run().expect("sequential run").result;
    println!("reference spanner: {} edges\n", reference.size());

    // A 100 us / 10 GB/s full mesh — a decent-switch cluster shape.
    let model = NetworkModel::FullMesh {
        latency_s: 100e-6,
        bytes_per_sec: 10e9,
    };
    let input_words = 4 * g.m() + 2 * g.n() + 64;
    println!(
        "{:>8} {:>6} {:>8} {:>12} {:>14} {:>12} {:>7}",
        "S(words)", "P", "rounds", "rounds/iter", "peak mem", "predicted", "match"
    );
    let mut final_report = None;
    for s in [2048usize, 4096, 8192, 16384] {
        let cfg = MpcConfig::explicit(s, input_words.div_ceil(s).max(2), 8);
        // The same request, unmodified, on each deployment.
        let run = request
            .clone()
            .on(Backend::mpc_deployment(cfg))
            .run()
            .expect("constraints hold on this deployment");
        let stats = run.stats.mpc().expect("mpc backend reports mpc stats");
        let (metrics, config) = (&stats.metrics, &stats.config);
        let net = model.report(metrics);
        println!(
            "{:>8} {:>6} {:>8} {:>12.1} {:>9}/{:<6} {:>10.4}s {:>7}",
            s,
            config.num_machines,
            metrics.rounds,
            metrics.rounds as f64 / run.result.iterations.max(1) as f64,
            metrics.peak_machine_words,
            config.capacity(),
            net.total_seconds,
            run.result.edges == reference.edges,
        );
        if s == 4096 {
            final_report = Some(net);
        }
    }
    let net = final_report.expect("the S=4096 deployment ran");
    println!(
        "\nS=4096 NetReport under {}: {}",
        model.label(),
        net.summary()
    );
    if let Some((round, cost)) = net.critical_round() {
        println!("most expensive round: #{round} at {cost:.6}s");
    }
    println!("\nSmaller machines => more machines, deeper aggregation trees, more rounds");
    println!("(the O(1/gamma) factor of Theorem 1.1) — same spanner, bit for bit;");
    println!("predictions are the model's simulated seconds.");
}
