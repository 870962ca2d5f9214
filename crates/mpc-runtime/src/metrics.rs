//! Round / memory / traffic accounting.

use std::collections::BTreeMap;

/// Execution statistics accumulated by an [`crate::MpcSystem`].
///
/// `rounds` is the headline number every experiment reports; the rest
/// exists to sanity-check the model constraints and to break rounds down
/// by primitive (the per-`op` map feeds experiment E9). The per-machine
/// wire counters and the per-round traffic log are what a
/// [`crate::NetworkModel`] prices ([`crate::NetworkModel::report`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Synchronous communication rounds executed so far.
    pub rounds: u64,
    /// Total words ever communicated.
    pub total_comm_words: u64,
    /// Largest number of words any machine sent in a single round.
    pub max_send_words: usize,
    /// Largest number of words any machine received in a single round.
    pub max_recv_words: usize,
    /// Sum over rounds of the busiest sender's words — the send side of
    /// the critical path a latency/bandwidth network model charges.
    pub critical_send_words: u64,
    /// Sum over rounds of the busiest receiver's words.
    pub critical_recv_words: u64,
    /// Sum over rounds of `max(busiest send, busiest receive)` — the
    /// exact critical-link total, so a `FullMesh` prediction from these
    /// aggregates equals the per-round sum (maxima don't distribute
    /// over sums, so totals alone would under-charge skewed rounds).
    pub critical_link_words: u64,
    /// Largest number of words any machine ever held.
    pub peak_machine_words: usize,
    /// Rounds attributed to each primitive label.
    pub rounds_by_op: BTreeMap<&'static str, u64>,
    /// Words each machine put on the wire (self-delivery is free).
    pub sent_words: Vec<u64>,
    /// Words each machine took off the wire.
    pub recv_words: Vec<u64>,
    /// Per executed round, in order: `(busiest sender's words, busiest
    /// receiver's words, total words)`.
    pub round_traffic: Vec<(u64, u64, u64)>,
}

impl Metrics {
    /// Zeroed metrics for a deployment of `machines` machines.
    pub fn new(machines: usize) -> Self {
        Metrics {
            sent_words: vec![0; machines],
            recv_words: vec![0; machines],
            ..Metrics::default()
        }
    }

    /// Records one communication round attributed to `op`.
    pub fn add_round(&mut self, op: &'static str) {
        self.rounds += 1;
        *self.rounds_by_op.entry(op).or_insert(0) += 1;
    }

    /// Folds per-round traffic extremes into the running maxima and the
    /// critical-path accumulators.
    pub fn observe_traffic(&mut self, sent: usize, received: usize, total: u64) {
        self.max_send_words = self.max_send_words.max(sent);
        self.max_recv_words = self.max_recv_words.max(received);
        self.critical_send_words += sent as u64;
        self.critical_recv_words += received as u64;
        self.critical_link_words += sent.max(received) as u64;
        self.total_comm_words += total;
        self.round_traffic
            .push((sent as u64, received as u64, total));
    }

    /// Adds one exchange's per-machine wire words (`sent[m]`, `recv[m]`
    /// for machine `m`) into the wire counters.
    pub fn observe_wire(&mut self, sent: &[usize], recv: &[usize]) {
        add_words(&mut self.sent_words, sent.iter().map(|&w| w as u64));
        add_words(&mut self.recv_words, recv.iter().map(|&w| w as u64));
    }

    /// Folds a storage observation into the peak.
    pub fn observe_storage(&mut self, words: usize) {
        self.peak_machine_words = self.peak_machine_words.max(words);
    }

    /// Folds the metrics of a later phase (e.g. the APSP gather) into
    /// these: rounds and their traffic log append, totals and wire
    /// counters add, maxima and the storage peak take the larger value.
    pub fn absorb(&mut self, other: &Metrics) {
        self.rounds += other.rounds;
        self.total_comm_words += other.total_comm_words;
        self.max_send_words = self.max_send_words.max(other.max_send_words);
        self.max_recv_words = self.max_recv_words.max(other.max_recv_words);
        self.critical_send_words += other.critical_send_words;
        self.critical_recv_words += other.critical_recv_words;
        self.critical_link_words += other.critical_link_words;
        self.peak_machine_words = self.peak_machine_words.max(other.peak_machine_words);
        for (&op, &rounds) in &other.rounds_by_op {
            *self.rounds_by_op.entry(op).or_insert(0) += rounds;
        }
        add_words(&mut self.sent_words, other.sent_words.iter().copied());
        add_words(&mut self.recv_words, other.recv_words.iter().copied());
        self.round_traffic.extend_from_slice(&other.round_traffic);
    }

    /// Pretty one-line summary for experiment tables.
    pub fn summary(&self) -> String {
        format!(
            "rounds={} peak_mem={}w max_send={}w max_recv={}w total_comm={}w crit_link={}w",
            self.rounds,
            self.peak_machine_words,
            self.max_send_words,
            self.max_recv_words,
            self.total_comm_words,
            self.critical_link_words
        )
    }
}

/// `acc[m] += words[m]`, growing `acc` to cover every machine.
fn add_words(acc: &mut Vec<u64>, words: impl ExactSizeIterator<Item = u64>) {
    if acc.len() < words.len() {
        acc.resize(words.len(), 0);
    }
    for (a, w) in acc.iter_mut().zip(words) {
        *a += w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_accumulate_per_op() {
        let mut m = Metrics::default();
        m.add_round("sort");
        m.add_round("sort");
        m.add_round("route");
        assert_eq!(m.rounds, 3);
        assert_eq!(m.rounds_by_op["sort"], 2);
        assert_eq!(m.rounds_by_op["route"], 1);
    }

    #[test]
    fn traffic_and_storage_track_maxima() {
        let mut m = Metrics::default();
        m.observe_traffic(10, 20, 30);
        m.observe_traffic(5, 40, 45);
        m.observe_storage(100);
        m.observe_storage(50);
        assert_eq!(m.max_send_words, 10);
        assert_eq!(m.max_recv_words, 40);
        assert_eq!(m.total_comm_words, 75);
        assert_eq!(m.peak_machine_words, 100);
        assert!(m.summary().contains("rounds=0"));
        // Critical-path accumulators sum per-round skew, not just maxima:
        // rounds were (10,20) and (5,40), so the critical link carried
        // 20 + 40 words even though no single direction's max exceeds 40.
        assert_eq!(m.critical_send_words, 15);
        assert_eq!(m.critical_recv_words, 60);
        assert_eq!(m.critical_link_words, 60);
        assert!(m.summary().contains("crit_link=60w"));
        assert_eq!(m.round_traffic, vec![(10, 20, 30), (5, 40, 45)]);
    }

    #[test]
    fn wire_counters_add_per_machine() {
        let mut m = Metrics::new(2);
        m.observe_wire(&[3, 0], &[0, 3]);
        m.observe_wire(&[1, 1], &[1, 1]);
        assert_eq!(m.sent_words, vec![4, 1]);
        assert_eq!(m.recv_words, vec![1, 4]);
    }

    #[test]
    fn absorb_merges_everything() {
        let mut a = Metrics::new(2);
        a.add_round("build");
        a.observe_traffic(4, 2, 6);
        a.observe_wire(&[4, 2], &[2, 4]);
        a.observe_storage(10);
        let mut b = Metrics::new(3);
        b.add_round("gather");
        b.observe_traffic(1, 8, 9);
        b.observe_wire(&[1, 0, 0], &[0, 8, 0]);
        b.observe_storage(30);
        a.absorb(&b);
        assert_eq!(a.rounds, 2);
        assert_eq!(a.rounds_by_op["build"], 1);
        assert_eq!(a.rounds_by_op["gather"], 1);
        assert_eq!(a.total_comm_words, 15);
        assert_eq!((a.max_send_words, a.max_recv_words), (4, 8));
        assert_eq!(a.critical_link_words, 4 + 8);
        assert_eq!(a.peak_machine_words, 30);
        assert_eq!(a.sent_words, vec![5, 2, 0]);
        assert_eq!(a.recv_words, vec![2, 12, 0]);
        assert_eq!(a.round_traffic, vec![(4, 2, 6), (1, 8, 9)]);
    }
}
