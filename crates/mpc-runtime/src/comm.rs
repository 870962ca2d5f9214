//! The raw communication layer: one-round all-to-all routing and the
//! `n^γ`-ary aggregation trees of Section 6.
//!
//! Every function here executes real data movement between the simulated
//! machines, charges the rounds it actually uses, and validates the
//! per-round bandwidth and per-machine storage constraints. Records a
//! machine keeps for itself are free (no self-traffic), matching the
//! model.
//!
//! Parallel-safety: per-machine work (outbox assembly, local folds) runs
//! on the rayon pool. Correctness relies on the shim's order-preserving
//! `collect` — e.g. [`route`] delivers records in (source machine, source
//! position) order, which [`crate::primitives::sort_by_key`]'s rebalance
//! step depends on — so results are identical at every thread count.
//!
//! Wire traffic: besides the per-round charge, every primitive records
//! the words each machine puts on and takes off the wire
//! ([`crate::Metrics::sent_words`] / [`crate::Metrics::recv_words`]) —
//! the per-record hops of a route, the member-to-leader and
//! parent-to-child hops of the trees (a leader's own hop is free), and
//! the unpipelined waves of a broadcast. Synthetic pipelined rounds are
//! charged from the round formulas alone, so a network model prices them
//! even where the wire moves differently.

use rayon::prelude::*;

use crate::dist::Dist;
use crate::record::Record;
use crate::system::MpcSystem;
use crate::{MpcError, Result};

/// One-round all-to-all: moves every record of `d` to the machine chosen
/// by `dest` (which receives the record and its current machine index).
///
/// Bandwidth accounting: a machine's send volume is the words of its
/// records with `dest != self`; its receive volume is the words arriving
/// from other machines.
pub fn route<T: Record>(
    sys: &mut MpcSystem,
    d: Dist<T>,
    op: &'static str,
    dest: impl Fn(&T, usize) -> usize + Send + Sync,
) -> Result<Dist<T>> {
    let p = sys.machines();
    let shards = d.into_shards();
    check_shard_count(p, shards.len(), op)?;

    // Each source machine assembles its outboxes in parallel.
    let outboxes: Vec<Vec<(usize, T)>> = shards
        .into_par_iter()
        .enumerate()
        .map(|(src, shard)| {
            shard
                .into_iter()
                .map(|rec| {
                    let dst = dest(&rec, src);
                    (dst, rec)
                })
                .collect()
        })
        .collect();

    // Validate destinations and tally traffic.
    let mut sent = vec![0usize; p];
    let mut received = vec![0usize; p];
    for (src, outbox) in outboxes.iter().enumerate() {
        for (dst, _) in outbox {
            if *dst >= p {
                return Err(MpcError::BadDestination {
                    dest: *dst,
                    num_machines: p,
                });
            }
            if *dst != src {
                sent[src] += T::WORDS;
                received[*dst] += T::WORDS;
            }
        }
    }
    let max_sent = sent.iter().copied().max().unwrap_or(0);
    let max_recv = received.iter().copied().max().unwrap_or(0);
    let total: u64 = sent.iter().map(|&x| x as u64).sum();
    sys.charge_round(op, max_sent, max_recv, total)?;
    sys.observe_wire(&sent, &received);

    // Deliver deterministically: destination shards ordered by source
    // machine, then by position within the source shard.
    let new_shards = deliver(p, outboxes);
    sys.check_all_storage(&new_shards, op)?;
    Ok(Dist::from_shards(new_shards))
}

/// Rejects a collection sharded for a deployment of a different size.
fn check_shard_count(machines: usize, shards: usize, op: &'static str) -> Result<()> {
    if shards != machines {
        return Err(MpcError::ShapeMismatch {
            what: "shards (one per machine)",
            expected: machines,
            got: shards,
            op,
        });
    }
    Ok(())
}

/// The delivery step shared by [`route`] / [`route_with`]: moves every
/// `(destination, record)` pair into its destination shard, preserving
/// (source machine, source position) order within each shard.
///
/// Runs in two parallel passes — per-source bucketing, then
/// per-destination concatenation over the (sequentially) transposed
/// buckets — so the actual record movement parallelises while the
/// output stays bit-identical at every thread count (both passes use
/// the shim's order-preserving collect; the transpose only moves `Vec`
/// headers).
fn deliver<T: Record>(p: usize, outboxes: Vec<Vec<(usize, T)>>) -> Vec<Vec<T>> {
    let buckets: Vec<Vec<Vec<T>>> = outboxes
        .into_par_iter()
        .map(|outbox| {
            let mut per_dst: Vec<Vec<T>> = vec![Vec::new(); p];
            for (dst, rec) in outbox {
                per_dst[dst].push(rec);
            }
            per_dst
        })
        .collect();
    let mut transposed: Vec<Vec<Vec<T>>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
    for per_dst in buckets {
        for (dst, bucket) in per_dst.into_iter().enumerate() {
            transposed[dst].push(bucket);
        }
    }
    transposed
        .into_par_iter()
        .map(|parts| {
            let mut shard = Vec::with_capacity(parts.iter().map(Vec::len).sum());
            for part in parts {
                shard.extend(part);
            }
            shard
        })
        .collect()
}

/// One-round all-to-all with *precomputed* destinations: `dests[m][i]` is
/// the destination of record `i` of machine `m`. Used when destinations
/// depend on a record's position (e.g. sample sort, where the tiebreak is
/// the record's current machine/index) rather than only its contents.
pub fn route_with<T: Record>(
    sys: &mut MpcSystem,
    d: Dist<T>,
    op: &'static str,
    dests: &[Vec<usize>],
) -> Result<Dist<T>> {
    let p = sys.machines();
    let shards = d.into_shards();
    check_shard_count(p, shards.len(), op)?;
    if shards.len() != dests.len() {
        return Err(MpcError::ShapeMismatch {
            what: "destination vectors (one per machine)",
            expected: shards.len(),
            got: dests.len(),
            op,
        });
    }

    let mut sent = vec![0usize; p];
    let mut received = vec![0usize; p];
    for (src, ds) in dests.iter().enumerate() {
        if ds.len() != shards[src].len() {
            return Err(MpcError::ShapeMismatch {
                what: "destinations (one per record)",
                expected: shards[src].len(),
                got: ds.len(),
                op,
            });
        }
        for &dst in ds {
            if dst >= p {
                return Err(MpcError::BadDestination {
                    dest: dst,
                    num_machines: p,
                });
            }
            if dst != src {
                sent[src] += T::WORDS;
                received[dst] += T::WORDS;
            }
        }
    }
    let max_sent = sent.iter().copied().max().unwrap_or(0);
    let max_recv = received.iter().copied().max().unwrap_or(0);
    let total: u64 = sent.iter().map(|&x| x as u64).sum();
    sys.charge_round(op, max_sent, max_recv, total)?;
    sys.observe_wire(&sent, &received);

    let outboxes: Vec<Vec<(usize, T)>> = shards
        .into_par_iter()
        .enumerate()
        .map(|(src, shard)| {
            shard
                .into_iter()
                .enumerate()
                .map(|(i, rec)| (dests[src][i], rec))
                .collect()
        })
        .collect();
    let new_shards = deliver(p, outboxes);
    sys.check_all_storage(&new_shards, op)?;
    Ok(Dist::from_shards(new_shards))
}

/// Direct gather: every machine sends its shard to `root` in one round.
/// Legal whenever the whole collection fits the root machine — e.g. the
/// paper's Section 7 "send the spanner to one machine" step in the
/// near-linear regime.
pub fn gather_to_machine<T: Record>(
    sys: &mut MpcSystem,
    d: Dist<T>,
    root: usize,
    op: &'static str,
) -> Result<Vec<T>> {
    let routed = route(sys, d, op, |_, _| root)?;
    let mut shards = routed.into_shards();
    Ok(std::mem::take(&mut shards[root]))
}

/// Tree reduction of one summary per machine (the paper's **Find
/// Minimum** shape): combines all summaries with `combine` using an
/// f-ary aggregation tree of fan-out `cfg.fanout(T::WORDS)`.
/// Rounds charged: tree depth. Returns the root's combined value.
pub fn reduce_tree<T: Record>(
    sys: &mut MpcSystem,
    per_machine: Vec<T>,
    op: &'static str,
    combine: impl Fn(&T, &T) -> T,
) -> Result<T> {
    if per_machine.is_empty() || per_machine.len() != sys.machines() {
        return Err(MpcError::ShapeMismatch {
            what: "summaries (one per machine)",
            expected: sys.machines(),
            got: per_machine.len(),
            op,
        });
    }
    let f = sys.cfg().fanout(T::WORDS);
    let mut level: Vec<T> = per_machine;
    // Which physical machine holds each summary of the current level
    // (group leaders keep their machine as levels shrink).
    let mut machine_of: Vec<usize> = (0..level.len()).collect();
    while level.len() > 1 {
        // Each group of f consecutive nodes sends to its leader.
        charge_gather_level::<T>(sys, &machine_of, f, op)?;
        level = combine_groups(&level, f, &combine);
        machine_of = machine_of.into_iter().step_by(f).collect();
    }
    Ok(level
        .into_iter()
        .next()
        .expect("reduction of >=1 summaries is non-empty"))
}

/// Folds each group of `f` consecutive summaries into one, left to right.
fn combine_groups<T: Record>(level: &[T], f: usize, combine: impl Fn(&T, &T) -> T) -> Vec<T> {
    level
        .chunks(f)
        .map(|group| {
            let mut acc = group[0].clone();
            for item in &group[1..] {
                acc = combine(&acc, item);
            }
            acc
        })
        .collect()
}

/// Charges one up-sweep level of an f-ary aggregation tree: each group
/// of `f` consecutive summaries (summary `i` held on machine
/// `machine_of[i]`) sends to its leader, the group's first machine. The
/// leader's own summary stays put, so it is free on the wire.
fn charge_gather_level<T: Record>(
    sys: &mut MpcSystem,
    machine_of: &[usize],
    f: usize,
    op: &'static str,
) -> Result<()> {
    let p = sys.machines();
    let mut sent = vec![0usize; p];
    let mut received = vec![0usize; p];
    let mut max_recv = 0usize;
    let mut total = 0u64;
    for group in machine_of.chunks(f) {
        let incoming = (group.len() - 1) * T::WORDS;
        max_recv = max_recv.max(incoming);
        total += incoming as u64;
        received[group[0]] += incoming;
        for &member in &group[1..] {
            sent[member] += T::WORDS;
        }
    }
    sys.charge_round(op, T::WORDS, max_recv, total)?;
    sys.observe_wire(&sent, &received);
    Ok(())
}

/// Tree broadcast (the paper's **Broadcast** subroutine): replicates a
/// small payload from `src` to every machine along an f-ary tree.
/// Rounds charged: tree depth. Returns one copy per machine (they are all
/// identical; the vector form keeps the "every machine now knows it"
/// reading explicit).
pub fn broadcast_all<T: Record>(
    sys: &mut MpcSystem,
    payload: Vec<T>,
    op: &'static str,
) -> Result<Vec<Vec<T>>> {
    let p = sys.machines();
    let cap = sys.cfg().capacity();
    let payload_words = payload.len() * T::WORDS;
    if payload_words > cap {
        return Err(MpcError::MemoryExceeded {
            machine: 0,
            words: payload_words,
            capacity: cap,
            op,
        });
    }
    if p <= 1 || payload.is_empty() {
        return Ok(vec![payload; p]);
    }
    // Pipelined chunked tree broadcast: each chunk is at most half the
    // per-round budget so the tree fan-out stays ≥ 2, and chunks stream
    // down the tree back-to-back (depth + chunks − 1 rounds).
    let recs_per_chunk = ((cap / 2) / T::WORDS.max(1)).max(1);
    let chunks = payload.len().div_ceil(recs_per_chunk);
    let chunk_words = recs_per_chunk.min(payload.len()) * T::WORDS;
    let f = (cap / chunk_words.max(1)).max(2);
    let mut depth = 0usize;
    let mut cover = 1usize;
    while cover < p {
        cover = cover.saturating_mul(f);
        depth += 1;
    }
    let rounds = depth + chunks - 1;
    let total_traffic = ((p - 1) * payload_words) as u64;
    let per_round_total = total_traffic / rounds as u64;
    for r in 0..rounds {
        let leftover = if r == 0 {
            total_traffic % rounds as u64
        } else {
            0
        };
        sys.charge_round(
            op,
            (f * chunk_words).min(cap),
            chunk_words,
            per_round_total + leftover,
        )?;
    }
    // On the wire the payload travels the unpipelined tree: in wave
    // `cover → cover·f`, machine `j` fetches it from `j % cover`. That
    // moves the same (p-1)·payload total the loop above priced into the
    // pipelined round schedule.
    let mut sent = vec![0usize; p];
    let mut received = vec![0usize; p];
    let mut cover = 1usize;
    while cover < p {
        let next_cover = cover.saturating_mul(f).min(p);
        for j in cover..next_cover {
            sent[j % cover] += payload_words;
            received[j] += payload_words;
        }
        cover = next_cover;
    }
    sys.observe_wire(&sent, &received);
    Ok(vec![payload; p])
}

/// Exclusive prefix scan over one summary per machine (up-sweep +
/// down-sweep on the f-ary tree). `out[i]` is the combination of the
/// summaries of machines `0..i` (identity for machine 0).
///
/// This is the workhorse behind segmented broadcasts / forward-fills over
/// sorted collections, which is how the paper's "leader of M(v) informs
/// the group" steps are realised when a vertex's edges span machines.
pub fn machine_scan<T: Record>(
    sys: &mut MpcSystem,
    per_machine: Vec<T>,
    identity: T,
    op: &'static str,
    combine: impl Fn(&T, &T) -> T + Copy,
) -> Result<Vec<T>> {
    let p = per_machine.len();
    if p != sys.machines() {
        return Err(MpcError::ShapeMismatch {
            what: "summaries (one per machine)",
            expected: sys.machines(),
            got: p,
            op,
        });
    }
    if p == 0 {
        return Ok(vec![]);
    }
    let f = sys.cfg().fanout(T::WORDS);

    // Up-sweep: build the levels of group totals. `maps[l][i]` is the
    // physical machine holding summary `i` of level `l` (group leaders).
    let mut levels: Vec<Vec<T>> = vec![per_machine];
    let mut maps: Vec<Vec<usize>> = vec![(0..p).collect()];
    loop {
        let cur_len = levels.last().expect("non-empty").len();
        if cur_len <= 1 {
            break;
        }
        let cur_map = maps.last().expect("non-empty");
        charge_gather_level::<T>(sys, cur_map, f, op)?;
        let next = combine_groups(levels.last().expect("non-empty"), f, combine);
        let next_map: Vec<usize> = cur_map.iter().copied().step_by(f).collect();
        levels.push(next);
        maps.push(next_map);
    }

    // Down-sweep: push exclusive prefixes back down.
    let depth = levels.len();
    let mut prefixes: Vec<T> = vec![identity.clone()];
    for lvl in (0..depth - 1).rev() {
        let cur = &levels[lvl];
        let mut next_prefixes = Vec::with_capacity(cur.len());
        let mut max_sent = 0usize;
        let mut total = 0u64;
        for (g, parent_prefix) in prefixes.iter().enumerate() {
            let lo = g * f;
            let hi = (lo + f).min(cur.len());
            let mut acc = parent_prefix.clone();
            let sent = (hi - lo) * T::WORDS;
            max_sent = max_sent.max(sent);
            total += sent as u64;
            for item in &cur[lo..hi] {
                next_prefixes.push(acc.clone());
                acc = combine(&acc, item);
            }
        }
        sys.charge_round(op, max_sent, T::WORDS, total)?;
        // Each parent sends every child its prefix; the leader child is
        // the parent's own machine, so that hop is free on the wire (the
        // charge above keeps the model's "leader informs its group"
        // formula).
        let mut sent = vec![0usize; p];
        let mut received = vec![0usize; p];
        for (i, &child) in maps[lvl].iter().enumerate() {
            let parent = maps[lvl + 1][i / f];
            if parent != child {
                sent[parent] += T::WORDS;
                received[child] += T::WORDS;
            }
        }
        sys.observe_wire(&sent, &received);
        prefixes = next_prefixes;
    }
    debug_assert_eq!(prefixes.len(), p);
    Ok(prefixes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpcConfig;
    use crate::Metrics;

    fn sys(words: usize, machines: usize, slack: usize) -> MpcSystem {
        MpcSystem::new(MpcConfig::explicit(words, machines, slack))
    }

    #[test]
    fn route_moves_records() {
        let mut s = sys(16, 4, 1);
        let d = Dist::distribute(&mut s, (0u64..8).collect()).unwrap();
        let routed = route(&mut s, d, "t", |&x, _| (x % 4) as usize).unwrap();
        assert_eq!(s.rounds(), 1);
        for (m, shard) in routed.shards().iter().enumerate() {
            assert!(shard.iter().all(|&x| (x % 4) as usize == m));
        }
        assert_eq!(routed.len(), 8);
    }

    #[test]
    fn route_detects_bandwidth_violation() {
        // 1-word capacity, everything routed to machine 0.
        let mut s = sys(2, 4, 1);
        let d = Dist::distribute(&mut s, (0u64..8).collect()).unwrap();
        let err = route(&mut s, d, "t", |_, _| 0).unwrap_err();
        assert!(matches!(
            err,
            MpcError::BandwidthExceeded { .. } | MpcError::MemoryExceeded { .. }
        ));
    }

    #[test]
    fn route_with_rejects_mis_shaped_destinations() {
        // Wrong number of destination vectors.
        let mut s = sys(16, 2, 1);
        let d = Dist::distribute(&mut s, vec![1u64, 2]).unwrap();
        let err = route_with(&mut s, d, "t", &[vec![0]]).unwrap_err();
        assert!(matches!(err, MpcError::ShapeMismatch { .. }));
        // Wrong number of destinations for one machine's records.
        let mut s = sys(16, 2, 1);
        let d = Dist::distribute(&mut s, vec![1u64, 2]).unwrap();
        let err = route_with(&mut s, d, "t", &[vec![0, 0, 0], vec![1]]).unwrap_err();
        assert!(matches!(err, MpcError::ShapeMismatch { .. }));
    }

    #[test]
    fn routing_rejects_a_dist_from_a_larger_deployment() {
        let mut big = sys(16, 8, 1);
        let mut small = sys(16, 4, 1);
        let d = Dist::distribute(&mut big, (0u64..16).collect()).unwrap();
        let err = route(&mut small, d.clone(), "t", |_, _| 0).unwrap_err();
        assert!(matches!(
            err,
            MpcError::ShapeMismatch {
                expected: 4,
                got: 8,
                ..
            }
        ));
        let dests: Vec<Vec<usize>> = d.shards().iter().map(|s| vec![0; s.len()]).collect();
        let err = route_with(&mut small, d, "t", &dests).unwrap_err();
        assert!(matches!(
            err,
            MpcError::ShapeMismatch {
                expected: 4,
                got: 8,
                ..
            }
        ));
        assert_eq!(small.metrics(), &Metrics::new(4), "nothing was charged");
    }

    #[test]
    fn tree_primitives_reject_wrong_summary_count() {
        let mut s = sys(16, 4, 1);
        let err = reduce_tree(&mut s, vec![1u64, 2], "min", |a, b| *a.min(b)).unwrap_err();
        assert!(matches!(err, MpcError::ShapeMismatch { .. }));
        let err = machine_scan(&mut s, vec![1u64], 0, "scan", |a, b| a + b).unwrap_err();
        assert!(matches!(err, MpcError::ShapeMismatch { .. }));
    }

    #[test]
    fn route_rejects_bad_destination() {
        let mut s = sys(16, 2, 1);
        let d = Dist::distribute(&mut s, vec![1u64]).unwrap();
        let err = route(&mut s, d, "t", |_, _| 7).unwrap_err();
        assert!(matches!(err, MpcError::BadDestination { dest: 7, .. }));
    }

    #[test]
    fn self_delivery_is_free() {
        let mut s = sys(4, 2, 1);
        let d = Dist::distribute(&mut s, vec![0u64, 1, 2, 3]).unwrap();
        // Keep everything where it is: zero traffic.
        let _ = route(&mut s, d, "t", |_, src| src).unwrap();
        assert_eq!(s.metrics().total_comm_words, 0);
        assert_eq!(s.rounds(), 1);
    }

    #[test]
    fn gather_collects_everything() {
        let mut s = sys(64, 4, 1);
        let d = Dist::distribute(&mut s, (0u64..12).collect()).unwrap();
        let all = gather_to_machine(&mut s, d, 2, "g").unwrap();
        assert_eq!(all.len(), 12);
    }

    #[test]
    fn reduce_tree_computes_min_and_charges_depth() {
        let machines = 27;
        // fanout(1 word) = 3 → depth 3 over 27 machines.
        let mut s = sys(3, machines, 4);
        let vals: Vec<u64> = (0..machines as u64).map(|i| (i * 7) % 31).collect();
        let expected = *vals.iter().min().unwrap();
        let got = reduce_tree(&mut s, vals, "min", |a, b| *a.min(b)).unwrap();
        assert_eq!(got, expected);
        assert_eq!(s.rounds(), 3);
    }

    #[test]
    fn broadcast_reaches_everyone_in_log_rounds() {
        let mut s = sys(4, 16, 1);
        let copies = broadcast_all(&mut s, vec![42u64], "b").unwrap();
        assert_eq!(copies.len(), 16);
        assert!(copies.iter().all(|c| c == &vec![42u64]));
        // fanout = capacity/1 = 4 → coverage 1,4,16 → 2 rounds.
        assert_eq!(s.rounds(), 2);
    }

    #[test]
    fn broadcast_rejects_oversized_payload() {
        let mut s = sys(2, 4, 1);
        let err = broadcast_all(&mut s, vec![0u64; 10], "b").unwrap_err();
        assert!(matches!(err, MpcError::MemoryExceeded { .. }));
    }

    #[test]
    fn machine_scan_is_exclusive_prefix() {
        let machines = 9;
        let mut s = sys(3, machines, 4);
        let vals: Vec<u64> = (1..=machines as u64).collect();
        let prefixes = machine_scan(&mut s, vals, 0u64, "scan", |a, b| a + b).unwrap();
        // Exclusive prefix sums of 1..=9.
        let expected: Vec<u64> = (0..machines as u64).map(|i| i * (i + 1) / 2).collect();
        assert_eq!(prefixes, expected);
        // depth = ceil(log_3 9) = 2 → up-sweep 2 + down-sweep 2.
        assert_eq!(s.rounds(), 4);
    }

    #[test]
    fn machine_scan_with_option_semantics() {
        // The forward-fill combine: "rightmost Some wins".
        let mut s = sys(8, 4, 2);
        let vals: Vec<Option<u64>> = vec![None, Some(7), None, Some(9)];
        let prefixes = machine_scan(&mut s, vals, None, "fill", |a, b| b.or(*a)).unwrap();
        assert_eq!(prefixes, vec![None, None, Some(7), Some(7)]);
    }

    #[test]
    fn single_machine_scan_is_trivial() {
        let mut s = sys(8, 1, 1);
        let prefixes = machine_scan(&mut s, vec![5u64], 0, "scan", |a, b| a + b).unwrap();
        assert_eq!(prefixes, vec![0]);
        assert_eq!(s.rounds(), 0);
    }
}
