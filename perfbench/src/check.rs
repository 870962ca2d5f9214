//! Correctness checks. Each returns `Err` with a description of the
//! first mismatch; the workloads run them outside the timed region and
//! any `Err` fails the run. The benchmark's own tests feed them seeded
//! wrong answers.

use spanner_core::pipeline::{DistanceOracle, JobOutput, RunReport};
use spanner_graph::edge::{Distance, EdgeId, INFINITY};

/// A spanner's edge ids equal the reference's.
pub fn same_edges(what: &str, got: &[EdgeId], want: &[EdgeId]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let missing = want.iter().find(|id| got.binary_search(id).is_err());
    let extra = got.iter().find(|id| want.binary_search(id).is_err());
    Err(format!(
        "{what}: spanner has {} edges, reference {} (first missing {missing:?}, first extra {extra:?})",
        got.len(),
        want.len()
    ))
}

/// A measured stretch respects the planned bound.
pub fn stretch_within(what: &str, measured: f64, bound: f64) -> Result<(), String> {
    if measured.is_finite() && measured <= bound * (1.0 + 1e-9) {
        Ok(())
    } else {
        Err(format!(
            "{what}: measured stretch {measured} exceeds bound {bound}"
        ))
    }
}

/// Every host edge must stay connected in the spanner.
pub fn all_edges_spanned(what: &str, spanned: bool) -> Result<(), String> {
    if spanned {
        Ok(())
    } else {
        Err(format!("{what}: some host edge has no path in the spanner"))
    }
}

/// Oracle answers from one source against exact distances on the host
/// graph: `d ≤ d̂ ≤ bound·d` for every reachable target, `d̂ = ∞` exactly
/// for unreachable ones. Returns the largest `d̂/d` seen.
pub fn answers_within(
    what: &str,
    source: u32,
    exact: &[Distance],
    approx: &[Distance],
    bound: f64,
) -> Result<f64, String> {
    if exact.len() != approx.len() {
        return Err(format!(
            "{what}: {} answers for {} vertices",
            approx.len(),
            exact.len()
        ));
    }
    let mut worst = 1.0f64;
    for (v, (&d, &dh)) in exact.iter().zip(approx).enumerate() {
        if d == INFINITY || dh == INFINITY {
            if d != dh {
                return Err(format!(
                    "{what}: d({source},{v}) exact {d} but oracle {dh} (reachability differs)"
                ));
            }
            continue;
        }
        if dh < d {
            return Err(format!(
                "{what}: d̂({source},{v}) = {dh} is below the true distance {d}"
            ));
        }
        if d > 0 {
            let r = dh as f64 / d as f64;
            if r > bound * (1.0 + 1e-9) {
                return Err(format!(
                    "{what}: d̂({source},{v}) / d = {dh}/{d} = {r} exceeds the bound {bound}"
                ));
            }
            worst = worst.max(r);
        } else if dh != 0 {
            return Err(format!(
                "{what}: d̂({source},{v}) = {dh} for a zero distance"
            ));
        }
    }
    Ok(worst)
}

/// A batch's answers equal the same pairs answered one at a time.
pub fn batch_matches_single(
    what: &str,
    pairs: &[(u32, u32)],
    batch: &[Distance],
    single: &[Distance],
) -> Result<(), String> {
    if batch.len() != single.len() || batch.len() != pairs.len() {
        return Err(format!(
            "{what}: {} pairs, {} batch answers, {} single answers",
            pairs.len(),
            batch.len(),
            single.len()
        ));
    }
    match (0..pairs.len()).find(|&i| batch[i] != single[i]) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: pair {:?} answered {} in the batch but {} alone",
            pairs[i], batch[i], single[i]
        )),
    }
}

/// Two oracles serve the same spanner and the same answers on `pairs`.
pub fn same_oracle(
    what: &str,
    got: &DistanceOracle,
    want: &DistanceOracle,
    pairs: &[(u32, u32)],
) -> Result<(), String> {
    same_edges(what, got.spanner_edges(), want.spanner_edges())?;
    for &(u, v) in pairs {
        let (a, b) = (got.query(u, v), want.query(u, v));
        if a != b {
            return Err(format!("{what}: d̂({u},{v}) served {a}, reference {b}"));
        }
    }
    Ok(())
}

/// A served job output equals the reference artifact built one-shot at
/// the same seed on the graph version the job's handle pinned.
pub fn same_artifact(
    what: &str,
    served: &JobOutput,
    reference: &JobOutput,
    pairs: &[(u32, u32)],
) -> Result<(), String> {
    match (served, reference) {
        (JobOutput::Spanner(a), JobOutput::Spanner(b)) => same_report(what, a, b),
        (JobOutput::Oracle(a), JobOutput::Oracle(b)) => same_oracle(what, a, b, pairs),
        _ => Err(format!("{what}: served a different artifact kind")),
    }
}

fn same_report(what: &str, got: &RunReport, want: &RunReport) -> Result<(), String> {
    same_edges(what, &got.result.edges, &want.result.edges)?;
    if got.stats.model_rounds() != want.stats.model_rounds() {
        return Err(format!(
            "{what}: model rounds {:?}, reference {:?}",
            got.stats.model_rounds(),
            want.stats.model_rounds()
        ));
    }
    Ok(())
}

/// No artifact was served for two different graph versions: every
/// `(artifact identity, (graph, version))` pair must agree on the version
/// per identity. An artifact built before a re-registration and served
/// after it would break this.
pub fn no_stale_artifacts<I: Copy + Eq + std::hash::Hash + std::fmt::Debug>(
    served: &[(I, (usize, u64))],
) -> Result<(), String> {
    let mut first: std::collections::HashMap<I, (usize, u64)> = std::collections::HashMap::new();
    for &(ident, at) in served {
        let seen = *first.entry(ident).or_insert(at);
        if seen != at {
            return Err(format!(
                "artifact {ident:?} served for graph {} version {} and again for graph {} version {}",
                seen.0, seen.1, at.0, at.1
            ));
        }
    }
    Ok(())
}
