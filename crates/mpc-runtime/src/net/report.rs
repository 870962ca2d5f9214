//! The simulated-clock report a [`crate::NetworkModel`] prices from a
//! run's metrics.

/// Per-run network accounting under a [`crate::NetworkModel`]: wire
/// traffic per machine, simulated time per round, and the total
/// predicted wall-clock. Built by [`crate::NetworkModel::report`].
///
/// Per-machine byte counts are the wire words the primitives recorded
/// (self-delivery is free, matching the model); round times are charged
/// from the runtime's per-round accounting, so synthetic rounds (e.g.
/// the sample-sort splitter trees) are priced even though they move
/// nothing on the wire.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetReport {
    /// Number of simulated machines.
    pub machines: usize,
    /// Rounds priced so far.
    pub rounds: u64,
    /// Bytes each machine put on the wire (self-delivery excluded).
    pub sent_bytes: Vec<u64>,
    /// Bytes each machine received off the wire.
    pub recv_bytes: Vec<u64>,
    /// Simulated seconds charged to each round, in execution order.
    pub round_times: Vec<f64>,
    /// Total predicted wall-clock (the sum of `round_times`).
    pub total_seconds: f64,
}

impl NetReport {
    /// The busiest sender's total bytes.
    pub fn max_sent_bytes(&self) -> u64 {
        self.sent_bytes.iter().copied().max().unwrap_or(0)
    }

    /// The busiest receiver's total bytes.
    pub fn max_recv_bytes(&self) -> u64 {
        self.recv_bytes.iter().copied().max().unwrap_or(0)
    }

    /// Index and simulated cost of the most expensive round, if any.
    pub fn critical_round(&self) -> Option<(usize, f64)> {
        self.round_times
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// One-line summary for experiment tables.
    pub fn summary(&self) -> String {
        format!(
            "predicted={:.4}s over {} rounds | wire: max_sent={}B max_recv={}B",
            self.total_seconds,
            self.rounds,
            self.max_sent_bytes(),
            self.max_recv_bytes(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extremes_and_summary() {
        let r = NetReport {
            machines: 2,
            rounds: 2,
            sent_bytes: vec![32, 8],
            recv_bytes: vec![8, 40],
            round_times: vec![0.5, 1.25],
            total_seconds: 1.75,
        };
        assert_eq!(r.max_sent_bytes(), 32);
        assert_eq!(r.max_recv_bytes(), 40);
        assert_eq!(r.critical_round(), Some((1, 1.25)));
        assert_eq!(
            r.summary(),
            "predicted=1.7500s over 2 rounds | wire: max_sent=32B max_recv=40B"
        );
        assert_eq!(NetReport::default().critical_round(), None);
    }
}
