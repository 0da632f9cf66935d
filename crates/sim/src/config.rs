//! Simulation configuration.

use crate::traffic::TrafficPattern;

/// How many packets an input virtual-channel buffer may hold.
///
/// The distinction is the crux of the paper's comparison with Duato's
/// theory: Duato's Assumption 3 requires a queue to hold flits of only one
/// packet (the header always at the head), which restricts wormhole
/// switching; EbDa designs need no such restriction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BufferPolicy {
    /// Unrestricted wormhole: a buffer may hold flits of several packets
    /// back to back (EbDa's assumption).
    #[default]
    MultiPacket,
    /// Duato's Assumption 3: a new packet's head may enter an input VC only
    /// when the buffer is completely empty.
    SinglePacket,
}

/// The packet-switching technique (paper Section 1): EbDa's theorems are
/// stated for wormhole switching, with store-and-forward and virtual
/// cut-through as special cases — a claim the simulator can test directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Switching {
    /// Wormhole: flits proceed in a pipeline; no per-packet buffer
    /// requirements.
    #[default]
    Wormhole,
    /// Virtual cut-through: a packet advances only into a buffer with room
    /// for the whole packet (needs `buffer_depth >= packet_length`).
    VirtualCutThrough,
    /// Store-and-forward: in addition to the VCT space condition, a packet
    /// is forwarded only after it is fully buffered at the node.
    StoreAndForward,
}

/// How the VC allocator picks among a head flit's routing candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Selection {
    /// Rotating first-fit: round-robin over candidates by cycle/node, so
    /// adaptive relations spread load deterministically.
    #[default]
    RotatingFirstFit,
    /// Congestion-aware: pick the candidate whose downstream buffer has
    /// the most free credits (the DyXY selection policy), ties broken by
    /// candidate order.
    MostCredits,
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Flit slots per input virtual-channel buffer.
    pub buffer_depth: usize,
    /// Cycles a flit spends crossing a link (1 = arrive next cycle).
    pub link_latency: u64,
    /// Flits per packet (head and tail included).
    pub packet_length: usize,
    /// Packet injection probability per node per cycle.
    pub injection_rate: f64,
    /// Traffic pattern mapping sources to destinations.
    pub traffic: TrafficPattern,
    /// Buffer occupancy policy (EbDa vs Duato assumptions).
    pub buffer_policy: BufferPolicy,
    /// Packet-switching technique (wormhole / VCT / SAF).
    pub switching: Switching,
    /// Candidate-selection policy of the VC allocator.
    pub selection: Selection,
    /// Warm-up cycles excluded from measurement.
    pub warmup: u64,
    /// Measurement window in cycles.
    pub measurement: u64,
    /// Extra cycles allowed for in-flight packets to drain.
    pub drain: u64,
    /// Cycles without any flit movement (while flits are in flight) after
    /// which the run is declared deadlocked.
    pub deadlock_threshold: u64,
    /// Online stall-watchdog window `W` in cycles; 0 (the default)
    /// disables it. When armed, the watchdog fires as soon as either no
    /// flit has moved for `W` cycles or a credit-stall streak (every
    /// non-ejecting cycle stalling on zero credits while traffic is in
    /// flight) reaches `W`. A firing is *diagnostic only*: it walks the
    /// live hold/want graph, records a suspected wait cycle and
    /// `ebda_watchdog_*` metrics, and lets the run continue — the run is
    /// aborted only by the separate `deadlock_threshold`. The watchdog
    /// re-arms after the next flit ejection. Useful values sit well
    /// below `deadlock_threshold` so the suspicion precedes the verdict.
    pub watchdog_window: u64,
    /// RNG seed for reproducibility.
    pub seed: u64,
    /// Whether to keep the raw per-packet latency vector in
    /// [`crate::SimResult::latencies`]. The log-bucketed
    /// [`crate::SimResult::latency_hist`] is always collected; sweeps
    /// that only need quantiles turn this off and skip both the
    /// per-packet storage and the final O(n log n) sort.
    pub collect_latencies: bool,
    /// Links that fail mid-run: `(cycle, node, dimension, direction)`,
    /// cut in both traversal directions when the cycle starts. Packets
    /// whose wormhole is severed by a failure are torn down (counted in
    /// [`crate::SimResult::dropped_packets`]); heads that had merely
    /// reserved the link re-route.
    pub fault_schedule: Vec<(u64, usize, ebda_core::Dimension, ebda_core::Direction)>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            buffer_depth: 4,
            link_latency: 1,
            packet_length: 5,
            injection_rate: 0.05,
            traffic: TrafficPattern::Uniform,
            buffer_policy: BufferPolicy::MultiPacket,
            switching: Switching::Wormhole,
            selection: Selection::RotatingFirstFit,
            warmup: 1_000,
            measurement: 4_000,
            drain: 3_000,
            deadlock_threshold: 1_000,
            watchdog_window: 0,
            seed: 0xEBDA,
            collect_latencies: true,
            fault_schedule: Vec::new(),
        }
    }
}

/// A rejected [`SimConfig`]. The [`std::fmt::Display`] text doubles as
/// the panic message of `SimConfig::validate`, so callers matching on
/// either form see the same words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `buffer_depth` is zero.
    ZeroBuffers,
    /// `packet_length` is zero.
    ZeroPacketLength,
    /// `injection_rate` is outside `[0, 1]`.
    BadInjectionRate,
    /// `deadlock_threshold` is zero.
    ZeroDeadlockThreshold,
    /// `link_latency` is zero.
    ZeroLinkLatency,
    /// VCT/SAF switching with `buffer_depth < packet_length`.
    ShallowBuffers,
    /// A hotspot pattern with an empty `nodes` list — it could never pick
    /// a destination and used to panic mid-run instead of at setup.
    EmptyHotspot,
    /// A hotspot `fraction` outside `[0, 1]`.
    BadHotspotFraction,
    /// A bursty `p_on`/`p_off` outside `[0, 1]`.
    BadBurstProbability,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            ConfigError::ZeroBuffers => "buffers need at least one slot",
            ConfigError::ZeroPacketLength => "packets need at least one flit",
            ConfigError::BadInjectionRate => "injection rate must be a probability",
            ConfigError::ZeroDeadlockThreshold => "deadlock threshold too small",
            ConfigError::ZeroLinkLatency => "links need at least one cycle",
            ConfigError::ShallowBuffers => "VCT and SAF need buffers that hold a whole packet",
            ConfigError::EmptyHotspot => "hotspot pattern needs target nodes",
            ConfigError::BadHotspotFraction => "hotspot fraction must be a probability",
            ConfigError::BadBurstProbability => "bursty p_on and p_off must be probabilities",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ConfigError {}

impl SimConfig {
    /// Checks parameter sanity, returning the first violation.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.buffer_depth < 1 {
            return Err(ConfigError::ZeroBuffers);
        }
        if self.packet_length < 1 {
            return Err(ConfigError::ZeroPacketLength);
        }
        if !(0.0..=1.0).contains(&self.injection_rate) {
            return Err(ConfigError::BadInjectionRate);
        }
        if self.deadlock_threshold < 1 {
            return Err(ConfigError::ZeroDeadlockThreshold);
        }
        if self.link_latency < 1 {
            return Err(ConfigError::ZeroLinkLatency);
        }
        if self.switching != Switching::Wormhole && self.buffer_depth < self.packet_length {
            return Err(ConfigError::ShallowBuffers);
        }
        match &self.traffic {
            TrafficPattern::Hotspot { nodes, fraction } => {
                if nodes.is_empty() {
                    return Err(ConfigError::EmptyHotspot);
                }
                if !(0.0..=1.0).contains(fraction) {
                    return Err(ConfigError::BadHotspotFraction);
                }
            }
            TrafficPattern::Bursty { p_on, p_off, .. }
                if !(0.0..=1.0).contains(p_on) || !(0.0..=1.0).contains(p_off) =>
            {
                return Err(ConfigError::BadBurstProbability);
            }
            _ => {}
        }
        Ok(())
    }

    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message on any violation — zero
    /// buffers/packets, an injection rate outside `[0, 1]`, shallow VCT/SAF
    /// buffers, or an unsatisfiable traffic pattern.
    pub(crate) fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        SimConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_rate() {
        let cfg = SimConfig {
            injection_rate: 1.5,
            ..SimConfig::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "one slot")]
    fn rejects_zero_buffers() {
        let cfg = SimConfig {
            buffer_depth: 0,
            ..SimConfig::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "whole packet")]
    fn vct_needs_deep_buffers() {
        let cfg = SimConfig {
            switching: Switching::VirtualCutThrough,
            buffer_depth: 2,
            packet_length: 5,
            ..SimConfig::default()
        };
        cfg.validate();
    }

    #[test]
    fn saf_with_deep_buffers_is_valid() {
        let cfg = SimConfig {
            switching: Switching::StoreAndForward,
            buffer_depth: 8,
            packet_length: 5,
            ..SimConfig::default()
        };
        cfg.validate();
    }

    #[test]
    fn empty_hotspot_is_a_config_error_not_a_mid_run_panic() {
        // Regression: this used to pass validation and then panic inside
        // TrafficPattern::destination on the first injection attempt.
        let cfg = SimConfig {
            traffic: TrafficPattern::Hotspot {
                nodes: vec![],
                fraction: 0.5,
            },
            ..SimConfig::default()
        };
        assert_eq!(cfg.check(), Err(ConfigError::EmptyHotspot));
        assert_eq!(
            ConfigError::EmptyHotspot.to_string(),
            "hotspot pattern needs target nodes"
        );
    }

    #[test]
    fn bad_traffic_probabilities_are_config_errors() {
        let hotspot = SimConfig {
            traffic: TrafficPattern::Hotspot {
                nodes: vec![3],
                fraction: 1.5,
            },
            ..SimConfig::default()
        };
        assert_eq!(hotspot.check(), Err(ConfigError::BadHotspotFraction));
        let bursty = SimConfig {
            traffic: TrafficPattern::Bursty {
                p_on: -0.1,
                p_off: 0.5,
                burst_scale: 2.0,
            },
            ..SimConfig::default()
        };
        assert_eq!(bursty.check(), Err(ConfigError::BadBurstProbability));
    }

    #[test]
    fn check_and_validate_agree_on_messages() {
        let cfg = SimConfig {
            injection_rate: 2.0,
            ..SimConfig::default()
        };
        let err = cfg.check().unwrap_err();
        assert_eq!(err.to_string(), "injection rate must be a probability");
        let panic = std::panic::catch_unwind(|| cfg.validate()).unwrap_err();
        let msg = panic.downcast_ref::<String>().unwrap();
        assert_eq!(msg, &err.to_string());
    }
}
