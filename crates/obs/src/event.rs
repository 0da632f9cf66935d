//! Flight-recorder events.
//!
//! One variant per micro-event the simulator can emit. Fields are plain
//! integers/chars (dimension index and `+`/`-` direction) so this crate
//! stays dependency-free and sits *below* `ebda-core` in the workspace
//! graph; the simulator converts its richer types at the emission site.

use crate::csv;
use crate::json;

/// The discriminant of an [`Event`], used for per-kind totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A packet entered the network at its source.
    Inject,
    /// A head flit won a downstream virtual channel.
    VcAlloc,
    /// A head-of-line flit wanted to move but had no credits.
    SwitchStall,
    /// A flit crossed a link.
    LinkTraverse,
    /// A packet's last flit left the network at its destination.
    Eject,
    /// A packet was torn down (e.g. severed by a link fault).
    Drop,
    /// The deadlock watchdog fired.
    Watchdog,
    /// One edge of the diagnosed circular wait.
    WaitFor,
}

impl EventKind {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Inject => "inject",
            EventKind::VcAlloc => "vc_alloc",
            EventKind::SwitchStall => "switch_stall",
            EventKind::LinkTraverse => "link_traverse",
            EventKind::Eject => "eject",
            EventKind::Drop => "drop",
            EventKind::Watchdog => "watchdog",
            EventKind::WaitFor => "wait_for",
        }
    }

    /// All kinds, in export order.
    pub const ALL: [EventKind; 8] = [
        EventKind::Inject,
        EventKind::VcAlloc,
        EventKind::SwitchStall,
        EventKind::LinkTraverse,
        EventKind::Eject,
        EventKind::Drop,
        EventKind::Watchdog,
        EventKind::WaitFor,
    ];
}

/// One recorded micro-event. All variants carry the cycle they occurred
/// in; topology positions are node ids, channel coordinates are
/// `(dim, dir, vc)` with `dir` one of `+`/`-`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A packet of `len` flits entered at `src` heading for `dst`.
    Inject {
        /// Simulation cycle.
        cycle: u64,
        /// Packet id.
        pid: u64,
        /// Source node.
        src: usize,
        /// Destination node.
        dst: usize,
        /// Packet length in flits.
        len: usize,
    },
    /// The head of packet `pid` at `node` won output VC `(dim, dir, vc)`.
    VcAlloc {
        /// Simulation cycle.
        cycle: u64,
        /// Packet id.
        pid: u64,
        /// Node where allocation happened.
        node: usize,
        /// Dimension index of the output channel.
        dim: u8,
        /// Direction of the output channel (`+` or `-`).
        dir: char,
        /// Virtual-channel index.
        vc: u8,
    },
    /// Packet `pid` stalled at `node` waiting for credits on
    /// `(dim, dir, vc)`.
    SwitchStall {
        /// Simulation cycle.
        cycle: u64,
        /// Packet id.
        pid: u64,
        /// Node where the stall happened.
        node: usize,
        /// Dimension index of the starved output channel.
        dim: u8,
        /// Direction of the starved output channel.
        dir: char,
        /// Virtual-channel index.
        vc: u8,
    },
    /// Flit `flit` of packet `pid` left `from` towards `to`.
    LinkTraverse {
        /// Simulation cycle.
        cycle: u64,
        /// Packet id.
        pid: u64,
        /// Flit index within the packet.
        flit: usize,
        /// Upstream node.
        from: usize,
        /// Downstream node.
        to: usize,
        /// Dimension index of the link.
        dim: u8,
        /// Direction of the link.
        dir: char,
        /// Virtual-channel index.
        vc: u8,
    },
    /// Packet `pid` fully left the network at `node`.
    Eject {
        /// Simulation cycle.
        cycle: u64,
        /// Packet id.
        pid: u64,
        /// Destination node.
        node: usize,
        /// End-to-end latency in cycles.
        latency: u64,
    },
    /// Packet `pid` was torn down mid-flight.
    Drop {
        /// Simulation cycle.
        cycle: u64,
        /// Packet id.
        pid: u64,
    },
    /// The watchdog declared the run deadlocked with `blocked` packets
    /// still in flight.
    Watchdog {
        /// Simulation cycle.
        cycle: u64,
        /// Packets still in flight.
        blocked: usize,
    },
    /// Packet `waiter` waits on packet `waits_on`; `label` is the
    /// human-readable reason (matches `Outcome::Deadlocked::wait_cycle`).
    WaitFor {
        /// Simulation cycle.
        cycle: u64,
        /// The blocked packet.
        waiter: u64,
        /// The packet it waits on.
        waits_on: u64,
        /// Human-readable wait description.
        label: String,
    },
}

impl Event {
    /// The cycle this event occurred in.
    pub fn cycle(&self) -> u64 {
        match self {
            Event::Inject { cycle, .. }
            | Event::VcAlloc { cycle, .. }
            | Event::SwitchStall { cycle, .. }
            | Event::LinkTraverse { cycle, .. }
            | Event::Eject { cycle, .. }
            | Event::Drop { cycle, .. }
            | Event::Watchdog { cycle, .. }
            | Event::WaitFor { cycle, .. } => *cycle,
        }
    }

    /// This event's kind.
    pub fn kind(&self) -> EventKind {
        match self {
            Event::Inject { .. } => EventKind::Inject,
            Event::VcAlloc { .. } => EventKind::VcAlloc,
            Event::SwitchStall { .. } => EventKind::SwitchStall,
            Event::LinkTraverse { .. } => EventKind::LinkTraverse,
            Event::Eject { .. } => EventKind::Eject,
            Event::Drop { .. } => EventKind::Drop,
            Event::Watchdog { .. } => EventKind::Watchdog,
            Event::WaitFor { .. } => EventKind::WaitFor,
        }
    }

    /// Serializes the event as one JSON object.
    pub(crate) fn to_json(&self) -> String {
        let kind = json::escape(self.kind().name());
        match self {
            Event::Inject {
                cycle,
                pid,
                src,
                dst,
                len,
            } => format!(
                "{{\"kind\":{kind},\"cycle\":{cycle},\"pid\":{pid},\"src\":{src},\"dst\":{dst},\"len\":{len}}}"
            ),
            Event::VcAlloc {
                cycle,
                pid,
                node,
                dim,
                dir,
                vc,
            } => format!(
                "{{\"kind\":{kind},\"cycle\":{cycle},\"pid\":{pid},\"node\":{node},\"dim\":{dim},\"dir\":{},\"vc\":{vc}}}",
                json::escape(&dir.to_string())
            ),
            Event::SwitchStall {
                cycle,
                pid,
                node,
                dim,
                dir,
                vc,
            } => format!(
                "{{\"kind\":{kind},\"cycle\":{cycle},\"pid\":{pid},\"node\":{node},\"dim\":{dim},\"dir\":{},\"vc\":{vc}}}",
                json::escape(&dir.to_string())
            ),
            Event::LinkTraverse {
                cycle,
                pid,
                flit,
                from,
                to,
                dim,
                dir,
                vc,
            } => format!(
                "{{\"kind\":{kind},\"cycle\":{cycle},\"pid\":{pid},\"flit\":{flit},\"from\":{from},\"to\":{to},\"dim\":{dim},\"dir\":{},\"vc\":{vc}}}",
                json::escape(&dir.to_string())
            ),
            Event::Eject {
                cycle,
                pid,
                node,
                latency,
            } => format!(
                "{{\"kind\":{kind},\"cycle\":{cycle},\"pid\":{pid},\"node\":{node},\"latency\":{latency}}}"
            ),
            Event::Drop { cycle, pid } => {
                format!("{{\"kind\":{kind},\"cycle\":{cycle},\"pid\":{pid}}}")
            }
            Event::Watchdog { cycle, blocked } => {
                format!("{{\"kind\":{kind},\"cycle\":{cycle},\"blocked\":{blocked}}}")
            }
            Event::WaitFor {
                cycle,
                waiter,
                waits_on,
                label,
            } => format!(
                "{{\"kind\":{kind},\"cycle\":{cycle},\"waiter\":{waiter},\"waits_on\":{waits_on},\"label\":{}}}",
                json::escape(label)
            ),
        }
    }

    /// Header for [`Event::csv_row`] exports.
    pub(crate) const CSV_HEADER: &'static str =
        "kind,cycle,pid,src,dst,len,node,dim,dir,vc,flit,from,to,latency,blocked,waiter,waits_on,label";

    /// Serializes the event as one CSV row matching [`Event::CSV_HEADER`];
    /// fields that do not apply to this kind are left empty.
    pub(crate) fn csv_row(&self) -> String {
        let mut cols: Vec<String> = vec![String::new(); 18];
        cols[0] = self.kind().name().to_string();
        cols[1] = self.cycle().to_string();
        match self {
            Event::Inject {
                pid, src, dst, len, ..
            } => {
                cols[2] = pid.to_string();
                cols[3] = src.to_string();
                cols[4] = dst.to_string();
                cols[5] = len.to_string();
            }
            Event::VcAlloc {
                pid,
                node,
                dim,
                dir,
                vc,
                ..
            }
            | Event::SwitchStall {
                pid,
                node,
                dim,
                dir,
                vc,
                ..
            } => {
                cols[2] = pid.to_string();
                cols[6] = node.to_string();
                cols[7] = dim.to_string();
                cols[8] = dir.to_string();
                cols[9] = vc.to_string();
            }
            Event::LinkTraverse {
                pid,
                flit,
                from,
                to,
                dim,
                dir,
                vc,
                ..
            } => {
                cols[2] = pid.to_string();
                cols[7] = dim.to_string();
                cols[8] = dir.to_string();
                cols[9] = vc.to_string();
                cols[10] = flit.to_string();
                cols[11] = from.to_string();
                cols[12] = to.to_string();
            }
            Event::Eject {
                pid, node, latency, ..
            } => {
                cols[2] = pid.to_string();
                cols[6] = node.to_string();
                cols[13] = latency.to_string();
            }
            Event::Drop { pid, .. } => {
                cols[2] = pid.to_string();
            }
            Event::Watchdog { blocked, .. } => {
                cols[14] = blocked.to_string();
            }
            Event::WaitFor {
                waiter,
                waits_on,
                label,
                ..
            } => {
                cols[15] = waiter.to_string();
                cols[16] = waits_on.to_string();
                cols[17] = label.clone();
            }
        }
        csv::row(&cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn json_is_parseable_for_every_kind() {
        let events = [
            Event::Inject {
                cycle: 1,
                pid: 2,
                src: 3,
                dst: 4,
                len: 5,
            },
            Event::VcAlloc {
                cycle: 1,
                pid: 2,
                node: 3,
                dim: 0,
                dir: '+',
                vc: 1,
            },
            Event::SwitchStall {
                cycle: 1,
                pid: 2,
                node: 3,
                dim: 1,
                dir: '-',
                vc: 0,
            },
            Event::LinkTraverse {
                cycle: 1,
                pid: 2,
                flit: 0,
                from: 3,
                to: 4,
                dim: 0,
                dir: '+',
                vc: 1,
            },
            Event::Eject {
                cycle: 9,
                pid: 2,
                node: 4,
                latency: 8,
            },
            Event::Drop { cycle: 9, pid: 2 },
            Event::Watchdog {
                cycle: 100,
                blocked: 7,
            },
            Event::WaitFor {
                cycle: 100,
                waiter: 1,
                waits_on: 2,
                label: "p1 \"credit\" wait, stage\n2".into(),
            },
        ];
        for e in &events {
            let v = Value::parse(&e.to_json()).unwrap();
            assert_eq!(v.get("kind").unwrap().as_str().unwrap(), e.kind().name());
            assert_eq!(v.get("cycle").unwrap().as_u64().unwrap(), e.cycle());
            // Same number of CSV columns for every kind.
            let parsed = crate::csv_reader::parse_line(&e.csv_row()).unwrap();
            assert_eq!(parsed.len(), Event::CSV_HEADER.split(',').count());
            assert_eq!(parsed[0], e.kind().name());
        }
    }

    #[test]
    fn wait_for_label_survives_csv_quoting() {
        let e = Event::WaitFor {
            cycle: 5,
            waiter: 10,
            waits_on: 11,
            label: "credits on X+, vc 1 \"owned\"".into(),
        };
        let parsed = crate::csv_reader::parse_line(&e.csv_row()).unwrap();
        assert_eq!(parsed[17], "credits on X+, vc 1 \"owned\"");
    }
}
