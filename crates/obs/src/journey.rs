//! Per-packet journey tracing: the causal span tree of a sampled packet.
//!
//! A *journey* is everything one packet did between injection and
//! ejection/drop — which output VCs it won, which channels it held and
//! for how long, where it stalled for credits, and (when a watchdog
//! fires) whether it sat on a suspected wait cycle. Journeys are the
//! per-packet complement to the aggregate flight-recorder totals: they
//! make the hold/want structure behind the Dally CDG check visible as a
//! timeline instead of a verdict.
//!
//! The tracer consumes the same [`Event`] stream the recorder already
//! stores, so the simulator needs no new emission sites; sampling is a
//! stateless splitmix64 hash of the packet id, which makes the sampled
//! set a deterministic function of `(seed, pid)` regardless of event
//! order or ring evictions.

use std::collections::HashMap;
use std::fmt;

use crate::event::Event;
use crate::rng::Rng64;

/// Hard cap on retained wait-for notes (a pathological watchdog loop
/// must not grow the tracer without bound).
const MAX_WAIT_NOTES: usize = 1024;
/// Hard cap on retained watchdog trip notes.
const MAX_TRIPS: usize = 256;

/// Journey-tracer configuration.
#[derive(Debug, Clone)]
pub struct JourneyConfig {
    /// Fraction of packets to trace, in `[0, 1]`. `1.0` traces every
    /// packet; `0.0` traces none (but keeps watchdog notes).
    pub sample_rate: f64,
    /// Sampler seed. The sampled pid set is a pure function of
    /// `(seed, sample_rate)`, independent of traffic seed or event order.
    pub seed: u64,
    /// Maximum journeys retained; packets sampled past the cap are
    /// counted in [`JourneyTracer::skipped`] instead of traced.
    pub max_journeys: usize,
}

impl Default for JourneyConfig {
    fn default() -> Self {
        JourneyConfig {
            sample_rate: 1.0,
            seed: 0x1057,
            max_journeys: 4096,
        }
    }
}

/// A physical channel coordinate: output VC `(dim, dir, vc)` at `node`,
/// with `vc` 0-based. A journey hop's channel, and the structured form
/// of the channel names inside the simulator's wait-cycle labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelCoord {
    /// Node owning the output channel.
    pub node: usize,
    /// Dimension index.
    pub dim: u8,
    /// Direction, `+` or `-`.
    pub dir: char,
    /// Virtual-channel index, 0-based.
    pub vc: u8,
}

impl fmt::Display for ChannelCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{} d{}{} vc{}", self.node, self.dim, self.dir, self.vc)
    }
}

/// One hop of a journey: the span from winning an output VC to the last
/// flit leaving on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// The output channel this hop allocated and held.
    pub channel: ChannelCoord,
    /// Downstream node, known once the first flit traverses the link.
    pub to: Option<usize>,
    /// Cycle the VC was won.
    pub alloc_cycle: u64,
    /// Cycle the first flit crossed the link, if any did.
    pub first_flit: Option<u64>,
    /// Cycle the last observed flit crossed the link.
    pub last_flit: Option<u64>,
    /// Credit stalls charged to this hop while it held the channel.
    pub stalls: u64,
}

/// How (or whether) a journey ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JourneyEnd {
    /// Delivered in full.
    Ejected {
        /// Ejection cycle.
        cycle: u64,
        /// End-to-end latency in cycles.
        latency: u64,
    },
    /// Torn down mid-flight (e.g. by a link fault).
    Dropped {
        /// Drop cycle.
        cycle: u64,
    },
    /// Still in the network when the trace ended — the interesting case
    /// for deadlock forensics.
    InFlight,
}

/// The recorded journey of one sampled packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Journey {
    /// Packet id.
    pub pid: u64,
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Packet length in flits.
    pub len: usize,
    /// Injection cycle.
    pub inject_cycle: u64,
    /// Terminal state.
    pub end: JourneyEnd,
    /// Hops in allocation order.
    pub hops: Vec<Hop>,
    /// True when a watchdog wait-for edge named this packet (either
    /// side) while it was in flight.
    pub suspect: bool,
}

impl Journey {
    /// The cycle this journey's timeline closes at: ejection/drop cycle,
    /// or `horizon` while still in flight.
    pub(crate) fn end_cycle(&self, horizon: u64) -> u64 {
        match self.end {
            JourneyEnd::Ejected { cycle, .. } | JourneyEnd::Dropped { cycle } => cycle,
            JourneyEnd::InFlight => horizon.max(self.inject_cycle),
        }
    }
}

/// One wait-for edge observed from a watchdog (online trip or
/// post-mortem), kept alongside journeys for timeline annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitNote {
    /// Cycle the edge was diagnosed.
    pub cycle: u64,
    /// The blocked packet.
    pub waiter: u64,
    /// The packet it waits on.
    pub waits_on: u64,
    /// Human-readable wait description.
    pub label: String,
}

/// One watchdog firing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TripNote {
    /// Cycle the watchdog fired.
    pub cycle: u64,
    /// Packets still in flight at that point.
    pub blocked: usize,
}

/// Builds [`Journey`]s from the recorder's event stream.
#[derive(Debug, Clone)]
pub struct JourneyTracer {
    cfg: JourneyConfig,
    /// pid → index into `journeys`, for packets still in flight.
    open: HashMap<u64, usize>,
    journeys: Vec<Journey>,
    skipped: u64,
    wait_notes: Vec<WaitNote>,
    trips: Vec<TripNote>,
    last_cycle: u64,
}

impl JourneyTracer {
    /// Creates a tracer with the given configuration.
    pub(crate) fn new(cfg: JourneyConfig) -> Self {
        JourneyTracer {
            cfg,
            open: HashMap::new(),
            journeys: Vec::new(),
            skipped: 0,
            wait_notes: Vec::new(),
            trips: Vec::new(),
            last_cycle: 0,
        }
    }

    /// Whether packet `pid` is in the sampled set. Stateless: one
    /// splitmix64 draw keyed on `seed ^ hash(pid)`, so the answer never
    /// depends on how many packets were seen before.
    pub(crate) fn sampled(&self, pid: u64) -> bool {
        if self.cfg.sample_rate >= 1.0 {
            return true;
        }
        if self.cfg.sample_rate <= 0.0 {
            return false;
        }
        let key = self.cfg.seed ^ pid.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Rng64::new(key).gen_f64() < self.cfg.sample_rate
    }

    /// Folds one event into the journey set.
    pub(crate) fn observe(&mut self, event: &Event) {
        self.last_cycle = self.last_cycle.max(event.cycle());
        match event {
            Event::Inject {
                cycle,
                pid,
                src,
                dst,
                len,
            } => {
                if !self.sampled(*pid) {
                    return;
                }
                if self.journeys.len() >= self.cfg.max_journeys {
                    self.skipped += 1;
                    return;
                }
                self.open.insert(*pid, self.journeys.len());
                self.journeys.push(Journey {
                    pid: *pid,
                    src: *src,
                    dst: *dst,
                    len: *len,
                    inject_cycle: *cycle,
                    end: JourneyEnd::InFlight,
                    hops: Vec::new(),
                    suspect: false,
                });
            }
            Event::VcAlloc {
                cycle,
                pid,
                node,
                dim,
                dir,
                vc,
            } => {
                if let Some(j) = self.open_mut(*pid) {
                    j.hops.push(Hop {
                        channel: ChannelCoord {
                            node: *node,
                            dim: *dim,
                            dir: *dir,
                            vc: *vc,
                        },
                        to: None,
                        alloc_cycle: *cycle,
                        first_flit: None,
                        last_flit: None,
                        stalls: 0,
                    });
                }
            }
            Event::SwitchStall {
                pid,
                node,
                dim,
                dir,
                vc,
                ..
            } => {
                let ch = ChannelCoord {
                    node: *node,
                    dim: *dim,
                    dir: *dir,
                    vc: *vc,
                };
                if let Some(j) = self.open_mut(*pid) {
                    if let Some(h) = j.hops.iter_mut().rev().find(|h| h.channel == ch) {
                        h.stalls += 1;
                    }
                }
            }
            Event::LinkTraverse {
                cycle,
                pid,
                from,
                to,
                dim,
                dir,
                vc,
                ..
            } => {
                let ch = ChannelCoord {
                    node: *from,
                    dim: *dim,
                    dir: *dir,
                    vc: *vc,
                };
                if let Some(j) = self.open_mut(*pid) {
                    if let Some(h) = j.hops.iter_mut().rev().find(|h| h.channel == ch) {
                        h.to = Some(*to);
                        h.first_flit.get_or_insert(*cycle);
                        h.last_flit = Some(*cycle);
                    }
                }
            }
            Event::Eject {
                cycle,
                pid,
                latency,
                ..
            } => {
                if let Some(idx) = self.open.remove(pid) {
                    self.journeys[idx].end = JourneyEnd::Ejected {
                        cycle: *cycle,
                        latency: *latency,
                    };
                }
            }
            Event::Drop { cycle, pid } => {
                if let Some(idx) = self.open.remove(pid) {
                    self.journeys[idx].end = JourneyEnd::Dropped { cycle: *cycle };
                }
            }
            Event::Watchdog { cycle, blocked } => {
                if self.trips.len() < MAX_TRIPS {
                    self.trips.push(TripNote {
                        cycle: *cycle,
                        blocked: *blocked,
                    });
                }
            }
            Event::WaitFor {
                cycle,
                waiter,
                waits_on,
                label,
            } => {
                for pid in [*waiter, *waits_on] {
                    if let Some(j) = self.open_mut(pid) {
                        j.suspect = true;
                    }
                }
                if self.wait_notes.len() < MAX_WAIT_NOTES {
                    self.wait_notes.push(WaitNote {
                        cycle: *cycle,
                        waiter: *waiter,
                        waits_on: *waits_on,
                        label: label.clone(),
                    });
                }
            }
        }
    }

    fn open_mut(&mut self, pid: u64) -> Option<&mut Journey> {
        let idx = *self.open.get(&pid)?;
        Some(&mut self.journeys[idx])
    }

    /// All recorded journeys, in injection order.
    pub fn journeys(&self) -> &[Journey] {
        &self.journeys
    }

    /// Sampled packets that were not traced because the cap was hit.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Wait-for edges observed from watchdog diagnoses.
    pub fn wait_notes(&self) -> &[WaitNote] {
        &self.wait_notes
    }

    /// Watchdog firings, in order.
    pub(crate) fn trips(&self) -> &[TripNote] {
        &self.trips
    }

    /// The largest cycle seen in any event — the timeline horizon used to
    /// close spans of packets still in flight.
    pub(crate) fn last_cycle(&self) -> u64 {
        self.last_cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer(rate: f64) -> JourneyTracer {
        JourneyTracer::new(JourneyConfig {
            sample_rate: rate,
            ..JourneyConfig::default()
        })
    }

    #[test]
    fn sampler_is_deterministic_and_roughly_calibrated() {
        let a = tracer(0.5);
        let b = tracer(0.5);
        let hits = (0..1000u64).filter(|&p| a.sampled(p)).count();
        assert!((300..700).contains(&hits), "rate 0.5 sampled {hits}/1000");
        for pid in 0..1000 {
            assert_eq!(a.sampled(pid), b.sampled(pid));
        }
        assert!((0..100).all(|p| tracer(1.0).sampled(p)));
        assert!(!(0..100).any(|p| tracer(0.0).sampled(p)));
    }

    #[test]
    fn different_seeds_sample_different_sets() {
        let a = tracer(0.5);
        let mut b = tracer(0.5);
        b.cfg.seed = 0xDEAD;
        let same = (0..1000u64)
            .filter(|&p| a.sampled(p) == b.sampled(p))
            .count();
        assert!(same < 1000, "seed change must reshuffle the sampled set");
    }

    #[test]
    fn a_full_journey_is_reconstructed() {
        let mut t = tracer(1.0);
        let events = [
            Event::Inject {
                cycle: 5,
                pid: 7,
                src: 0,
                dst: 2,
                len: 3,
            },
            Event::VcAlloc {
                cycle: 6,
                pid: 7,
                node: 0,
                dim: 0,
                dir: '+',
                vc: 1,
            },
            Event::SwitchStall {
                cycle: 7,
                pid: 7,
                node: 0,
                dim: 0,
                dir: '+',
                vc: 1,
            },
            Event::LinkTraverse {
                cycle: 8,
                pid: 7,
                flit: 0,
                from: 0,
                to: 1,
                dim: 0,
                dir: '+',
                vc: 1,
            },
            Event::VcAlloc {
                cycle: 9,
                pid: 7,
                node: 1,
                dim: 0,
                dir: '+',
                vc: 0,
            },
            Event::LinkTraverse {
                cycle: 10,
                pid: 7,
                flit: 0,
                from: 1,
                to: 2,
                dim: 0,
                dir: '+',
                vc: 0,
            },
            Event::LinkTraverse {
                cycle: 12,
                pid: 7,
                flit: 2,
                from: 1,
                to: 2,
                dim: 0,
                dir: '+',
                vc: 0,
            },
            Event::Eject {
                cycle: 13,
                pid: 7,
                node: 2,
                latency: 8,
            },
        ];
        for e in &events {
            t.observe(e);
        }
        assert_eq!(t.journeys().len(), 1);
        let j = &t.journeys()[0];
        assert_eq!(
            (j.pid, j.src, j.dst, j.len, j.inject_cycle),
            (7, 0, 2, 3, 5)
        );
        assert_eq!(
            j.end,
            JourneyEnd::Ejected {
                cycle: 13,
                latency: 8
            }
        );
        assert_eq!(j.hops.len(), 2);
        assert_eq!(j.hops[0].stalls, 1);
        assert_eq!(j.hops[0].to, Some(1));
        assert_eq!(j.hops[0].first_flit, Some(8));
        assert_eq!(j.hops[1].alloc_cycle, 9);
        assert_eq!(j.hops[1].last_flit, Some(12));
        assert_eq!(j.end_cycle(999), 13);
        assert_eq!(t.last_cycle(), 13);
    }

    #[test]
    fn cap_skips_but_counts() {
        let mut t = JourneyTracer::new(JourneyConfig {
            sample_rate: 1.0,
            max_journeys: 2,
            ..JourneyConfig::default()
        });
        for pid in 0..5 {
            t.observe(&Event::Inject {
                cycle: pid,
                pid,
                src: 0,
                dst: 1,
                len: 1,
            });
        }
        assert_eq!(t.journeys().len(), 2);
        assert_eq!(t.skipped(), 3);
    }

    #[test]
    fn wait_for_marks_in_flight_packets_suspect() {
        let mut t = tracer(1.0);
        for pid in [1u64, 2] {
            t.observe(&Event::Inject {
                cycle: 0,
                pid,
                src: 0,
                dst: 3,
                len: 2,
            });
        }
        t.observe(&Event::Watchdog {
            cycle: 50,
            blocked: 2,
        });
        t.observe(&Event::WaitFor {
            cycle: 50,
            waiter: 1,
            waits_on: 2,
            label: "p1 wants X+ held by p2".into(),
        });
        assert!(t.journeys().iter().all(|j| j.suspect));
        assert_eq!(t.trips().len(), 1);
        assert_eq!(t.wait_notes().len(), 1);
        assert_eq!(t.journeys()[0].end, JourneyEnd::InFlight);
        assert_eq!(t.journeys()[0].end_cycle(50), 50);
    }

    #[test]
    fn unsampled_packets_leave_no_trace() {
        let mut t = tracer(0.0);
        t.observe(&Event::Inject {
            cycle: 0,
            pid: 1,
            src: 0,
            dst: 1,
            len: 1,
        });
        t.observe(&Event::VcAlloc {
            cycle: 1,
            pid: 1,
            node: 0,
            dim: 0,
            dir: '+',
            vc: 0,
        });
        assert!(t.journeys().is_empty());
        assert_eq!(t.skipped(), 0);
    }
}
