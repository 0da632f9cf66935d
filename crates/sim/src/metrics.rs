//! Measurement results of a simulation run.

use ebda_obs::ChannelCoord;
use std::fmt;

/// Why a simulation run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The configured horizon was reached (warm-up + measurement + drain).
    Completed,
    /// No flit moved for the configured threshold while traffic was in
    /// flight: a deadlock (or a routing fault masquerading as one).
    Deadlocked {
        /// Cycle at which the watchdog fired.
        at_cycle: u64,
        /// Packets stuck inside the network when it fired.
        blocked_packets: usize,
        /// A wait-for cycle among blocked packets, each entry a
        /// human-readable description of one packet's wait — the proof
        /// that this is a genuine circular wait, not a stall.
        wait_cycle: Vec<String>,
    },
}

impl Outcome {
    /// Returns `true` for a deadlock-free run.
    pub fn is_deadlock_free(&self) -> bool {
        matches!(self, Outcome::Completed)
    }
}

/// One structured edge of a (suspected or confirmed) circular wait:
/// packet `waiter` cannot advance until `waits_on` does. `held`/`wanted`
/// carry the channel coordinates behind the textual `label` when the
/// wait is channel-shaped (credit starvation, VC ownership); both are
/// `None` for queued-behind edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuspectedEdge {
    /// The blocked packet.
    pub waiter: u64,
    /// The packet it waits on.
    pub waits_on: u64,
    /// Human-readable wait description (matches the recorder's
    /// `WaitFor` labels and `Outcome::Deadlocked::wait_cycle`).
    pub label: String,
    /// The channel `waiter` holds while waiting, when known.
    pub held: Option<ChannelCoord>,
    /// The channel `waiter` needs, when known.
    pub wanted: Option<ChannelCoord>,
}

impl SuspectedEdge {
    /// The channel coordinates this edge mentions, held first.
    pub fn channels(&self) -> impl Iterator<Item = ChannelCoord> + '_ {
        self.held.into_iter().chain(self.wanted)
    }
}

/// Aggregated results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Why the run ended.
    pub outcome: Outcome,
    /// Cycles simulated.
    pub cycles: u64,
    /// Packets injected into source queues during the whole run.
    pub injected_packets: u64,
    /// Packets fully delivered during the whole run.
    pub delivered_packets: u64,
    /// Packets injected in the measurement window.
    pub measured_injected: u64,
    /// Measurement-window packets fully delivered by the end of the run.
    pub measured_delivered: u64,
    /// Mean packet latency (injection to tail ejection) over measured,
    /// delivered packets, in cycles.
    pub avg_latency: f64,
    /// Maximum packet latency over measured, delivered packets.
    pub max_latency: u64,
    /// Sorted latencies of measured, delivered packets (for exact
    /// percentiles). Empty when [`crate::SimConfig::collect_latencies`]
    /// is off — quantiles then come from `latency_hist`.
    pub latencies: Vec<u64>,
    /// Log-bucketed latency histogram over the same packets — always
    /// collected, feeds the live metrics registry and the quantile
    /// fallback when the raw vector is disabled (≤6.25% relative error).
    pub latency_hist: ebda_obs::Histogram,
    /// Mean network hops per measured, delivered packet.
    pub avg_hops: f64,
    /// Flits ejected during the measurement window, per node per cycle —
    /// the accepted throughput.
    pub throughput: f64,
    /// Absolute flit-ejection count in the measurement window.
    pub window_ejected: u64,
    /// Per-channel flit counts over the measurement window, for channel
    /// load-balance analysis (indexed by internal channel slot).
    pub channel_flits: Vec<u64>,
    /// Routing faults (relation returned no candidates) — must be zero for
    /// correct relations.
    pub routing_faults: u64,
    /// Packets delivered out of injection order relative to an earlier
    /// packet of the same (source, destination) pair — the reordering that
    /// adaptive routing buys its performance with (deterministic
    /// single-path relations always report 0).
    pub reordered_packets: u64,
    /// Packets torn down because a scheduled link failure severed their
    /// wormhole mid-flight.
    pub dropped_packets: u64,
    /// Online stall-watchdog firings during the run (0 unless
    /// [`crate::SimConfig::watchdog_window`] is set).
    pub watchdog_trips: u64,
    /// The wait cycle diagnosed by the *last* online watchdog trip that
    /// found one — the live suspicion, captured while the run was still
    /// going. Empty when the watchdog never tripped on a cycle.
    pub suspected_cycle: Vec<SuspectedEdge>,
    /// Cycle of the trip that produced [`SimResult::suspected_cycle`].
    pub suspected_at_cycle: u64,
    /// Structured form of `Outcome::Deadlocked::wait_cycle`: the edges of
    /// the post-mortem diagnosis with their channel coordinates. Empty
    /// for completed runs.
    pub final_wait_edges: Vec<SuspectedEdge>,
}

impl SimResult {
    /// Latency at the given percentile (0–100) over measured, delivered
    /// packets, using nearest-rank; `None` when nothing was delivered.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=100.0`.
    pub fn latency_percentile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.latencies.is_empty() {
            // Raw vector disabled (or nothing delivered): fall back to the
            // histogram, which is empty exactly when no packet was measured.
            return self.latency_hist.quantile(p / 100.0);
        }
        let n = self.latencies.len();
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        Some(self.latencies[rank - 1])
    }

    /// Coefficient of variation (stddev / mean) of per-channel flit counts
    /// over **all** channel slots of the configuration, idle ones included
    /// — the paper's "better distribution of packets among channels" claim
    /// made measurable. Counting idle slots is deliberate: a design that
    /// funnels traffic through few channels while leaving the rest unused
    /// should score as imbalanced. Lower is more balanced. Returns `None`
    /// when there are no channel slots or no flits moved.
    pub fn channel_balance_cv(&self) -> Option<f64> {
        let used: Vec<f64> = self.channel_flits.iter().map(|&c| c as f64).collect();
        let n = used.len() as f64;
        if n == 0.0 {
            return None;
        }
        let mean = used.iter().sum::<f64>() / n;
        if mean == 0.0 {
            return None;
        }
        let var = used.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        Some(var.sqrt() / mean)
    }
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.outcome {
            Outcome::Completed => {
                write!(
                    f,
                    "completed: {} cycles, {}/{} measured packets delivered, \
                     avg latency {:.1}",
                    self.cycles, self.measured_delivered, self.measured_injected, self.avg_latency,
                )?;
                if let Some(p99) = self.latency_percentile(99.0) {
                    write!(f, " (p99 {p99})")?;
                }
                write!(f, ", throughput {:.4} flits/node/cycle", self.throughput)
            }
            Outcome::Deadlocked {
                at_cycle,
                blocked_packets,
                wait_cycle,
            } => {
                write!(
                    f,
                    "DEADLOCK at cycle {at_cycle}: {blocked_packets} packets blocked"
                )?;
                if !wait_cycle.is_empty() {
                    write!(f, "; circular wait: ")?;
                    for (i, w) in wait_cycle.iter().enumerate() {
                        if i > 0 {
                            write!(f, " -> ")?;
                        }
                        write!(f, "{w}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SimResult {
        let latencies = vec![8, 10, 12, 14, 16];
        let mut latency_hist = ebda_obs::Histogram::new();
        for &l in &latencies {
            latency_hist.observe(l);
        }
        SimResult {
            outcome: Outcome::Completed,
            cycles: 100,
            injected_packets: 10,
            delivered_packets: 10,
            measured_injected: 5,
            measured_delivered: 5,
            avg_latency: 12.0,
            max_latency: 20,
            latencies,
            latency_hist,
            avg_hops: 3.0,
            throughput: 0.1,
            window_ejected: 40,
            channel_flits: vec![10, 10, 10, 10],
            routing_faults: 0,
            reordered_packets: 0,
            dropped_packets: 0,
            watchdog_trips: 0,
            suspected_cycle: Vec::new(),
            suspected_at_cycle: 0,
            final_wait_edges: Vec::new(),
        }
    }

    #[test]
    fn balance_cv_zero_for_uniform_loads() {
        assert!(base().channel_balance_cv().unwrap() < 1e-9);
    }

    #[test]
    fn balance_cv_grows_with_imbalance() {
        let mut r = base();
        r.channel_flits = vec![40, 0, 0, 0];
        assert!(r.channel_balance_cv().unwrap() > 1.0);
    }

    #[test]
    fn balance_cv_none_when_idle() {
        let mut r = base();
        r.channel_flits = vec![0, 0];
        assert_eq!(r.channel_balance_cv(), None);
        r.channel_flits = vec![];
        assert_eq!(r.channel_balance_cv(), None);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let r = base();
        assert_eq!(r.latency_percentile(0.0), Some(8));
        assert_eq!(r.latency_percentile(50.0), Some(12));
        assert_eq!(r.latency_percentile(90.0), Some(16));
        assert_eq!(r.latency_percentile(100.0), Some(16));
        let mut empty = base();
        empty.latencies.clear();
        empty.latency_hist = ebda_obs::Histogram::new();
        assert_eq!(empty.latency_percentile(50.0), None);
    }

    #[test]
    fn percentiles_fall_back_to_the_histogram() {
        // collect_latencies = false leaves the raw vector empty; quantiles
        // must still come out of the histogram (exact below 16).
        let mut r = base();
        r.latencies.clear();
        assert_eq!(r.latency_percentile(50.0), Some(12));
        assert_eq!(r.latency_percentile(100.0), Some(16));
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_range_checked() {
        let _ = base().latency_percentile(101.0);
    }

    #[test]
    fn outcome_display() {
        let text = base().to_string();
        assert!(text.contains("completed"));
        assert!(text.contains("(p99 16)"), "missing p99 in: {text}");
        // No delivered packets => no p99 clause, but still well-formed.
        let mut idle = base();
        idle.latencies.clear();
        idle.latency_hist = ebda_obs::Histogram::new();
        assert!(!idle.to_string().contains("p99"));
        let d = SimResult {
            outcome: Outcome::Deadlocked {
                at_cycle: 55,
                blocked_packets: 3,
                wait_cycle: vec![
                    "p1 waits on X1+@n3 held by p2".into(),
                    "p2 waits on Y1-@n4 held by p1".into(),
                ],
            },
            ..base()
        };
        let text = d.to_string();
        assert!(text.contains("DEADLOCK at cycle 55"));
        assert!(text.contains("circular wait"));
        assert!(!d.outcome.is_deadlock_free());
    }
}
