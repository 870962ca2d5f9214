//! The [`MpcSystem`]: configuration + accounting context through which all
//! primitives execute.

use crate::config::MpcConfig;
use crate::error::MpcError;
use crate::metrics::Metrics;
use crate::record::Record;
use crate::Result;

/// One simulated MPC deployment.
///
/// All primitives take `&mut MpcSystem` so that round counting, traffic
/// accounting, and constraint checking flow through a single place.
#[derive(Debug, Clone)]
pub struct MpcSystem {
    cfg: MpcConfig,
    metrics: Metrics,
}

impl MpcSystem {
    /// A fresh deployment with zeroed metrics.
    pub fn new(cfg: MpcConfig) -> Self {
        MpcSystem {
            cfg,
            metrics: Metrics::new(cfg.num_machines),
        }
    }

    /// The deployment configuration.
    #[inline]
    pub fn cfg(&self) -> &MpcConfig {
        &self.cfg
    }

    /// Number of machines.
    #[inline]
    pub fn machines(&self) -> usize {
        self.cfg.num_machines
    }

    /// Accumulated execution statistics.
    #[inline]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Rounds executed so far (shorthand).
    #[inline]
    pub fn rounds(&self) -> u64 {
        self.metrics.rounds
    }

    /// Resets metrics (e.g. to time a phase in isolation).
    pub fn reset_metrics(&mut self) {
        self.metrics = Metrics::new(self.cfg.num_machines);
    }

    /// Records one executed communication round attributed to `op`, with
    /// the observed per-machine traffic extremes.
    pub(crate) fn charge_round(
        &mut self,
        op: &'static str,
        max_sent: usize,
        max_received: usize,
        total: u64,
    ) -> Result<()> {
        self.metrics.add_round(op);
        self.metrics.observe_traffic(max_sent, max_received, total);
        let cap = self.cfg.capacity();
        if max_sent > cap {
            return Err(MpcError::BandwidthExceeded {
                machine: usize::MAX,
                words: max_sent,
                capacity: cap,
                direction: "send",
                op,
            });
        }
        if max_received > cap {
            return Err(MpcError::BandwidthExceeded {
                machine: usize::MAX,
                words: max_received,
                capacity: cap,
                direction: "recv",
                op,
            });
        }
        Ok(())
    }

    /// Records one exchange's per-machine wire words (self-delivery
    /// excluded by the caller) into the metrics.
    pub(crate) fn observe_wire(&mut self, sent: &[usize], recv: &[usize]) {
        self.metrics.observe_wire(sent, recv);
    }

    /// Validates the storage of every shard of a collection, then
    /// records the largest into the peak-storage metric. A failed check
    /// records nothing.
    pub(crate) fn check_all_storage<T: Record>(
        &mut self,
        shards: &[Vec<T>],
        op: &'static str,
    ) -> Result<()> {
        let cap = self.cfg.capacity();
        let mut largest = 0;
        for (machine, shard) in shards.iter().enumerate() {
            let words = shard.len() * T::WORDS;
            if words > cap {
                return Err(MpcError::MemoryExceeded {
                    machine,
                    words,
                    capacity: cap,
                    op,
                });
            }
            largest = largest.max(words);
        }
        self.metrics.observe_storage(largest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_round_counts_and_checks() {
        let mut sys = MpcSystem::new(MpcConfig::explicit(8, 4, 1));
        sys.charge_round("test", 8, 8, 16).unwrap();
        assert_eq!(sys.rounds(), 1);
        let err = sys.charge_round("test", 9, 0, 9).unwrap_err();
        assert!(matches!(err, MpcError::BandwidthExceeded { .. }));
        // The round is still counted (the violation happened *in* a round).
        assert_eq!(sys.rounds(), 2);
    }

    #[test]
    fn storage_check_enforces_capacity() {
        // Capacity 16 words per machine.
        let mut sys = MpcSystem::new(MpcConfig::explicit(8, 2, 2));
        sys.check_all_storage(&[vec![0u64; 16], vec![0u64; 3]], "x")
            .unwrap();
        assert_eq!(sys.metrics().peak_machine_words, 16);
        let err = sys
            .check_all_storage(&[vec![0u64; 2], vec![0u64; 17]], "x")
            .unwrap_err();
        assert!(matches!(
            err,
            MpcError::MemoryExceeded {
                machine: 1,
                words: 17,
                ..
            }
        ));
        // Every shard is validated before anything is recorded.
        assert_eq!(sys.metrics().peak_machine_words, 16);
    }

    #[test]
    fn reset_clears_metrics() {
        let mut sys = MpcSystem::new(MpcConfig::explicit(8, 2, 2));
        sys.charge_round("a", 1, 1, 2).unwrap();
        sys.reset_metrics();
        assert_eq!(sys.rounds(), 0);
    }
}
