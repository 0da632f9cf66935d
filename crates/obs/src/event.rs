//! Flight-recorder events.
//!
//! One variant per micro-event the simulator can emit. Fields are plain
//! integers/chars (dimension index and `+`/`-` direction) so this crate
//! stays dependency-free and sits *below* `ebda-core` in the workspace
//! graph; the simulator converts its richer types at the emission site.

use std::fmt;

use crate::csv;
use crate::json::{self, Field};

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

    /// The event's fields in the order its JSON object lists them, `kind`
    /// and `cycle` first: each kind's layout, stated once. The JSON
    /// object and the CSV row both render from this listing.
    #[rustfmt::skip]
    fn fields(&self) -> Vec<(&'static str, Field<'_>)> {
        use Field::{Char, Str, U64};
        let n = |x: usize| U64(x as u64);
        let mut fields = vec![("kind", Str(self.kind().name())), ("cycle", U64(self.cycle()))];
        match *self {
            Event::Inject { pid, src, dst, len, .. } => fields.extend([
                ("pid", U64(pid)), ("src", n(src)), ("dst", n(dst)), ("len", n(len)),
            ]),
            Event::VcAlloc { pid, node, dim, dir, vc, .. }
            | Event::SwitchStall { pid, node, dim, dir, vc, .. } => fields.extend([
                ("pid", U64(pid)), ("node", n(node)),
                ("dim", U64(dim.into())), ("dir", Char(dir)), ("vc", U64(vc.into())),
            ]),
            Event::LinkTraverse { pid, flit, from, to, dim, dir, vc, .. } => fields.extend([
                ("pid", U64(pid)), ("flit", n(flit)), ("from", n(from)), ("to", n(to)),
                ("dim", U64(dim.into())), ("dir", Char(dir)), ("vc", U64(vc.into())),
            ]),
            Event::Eject { pid, node, latency, .. } => fields.extend([
                ("pid", U64(pid)), ("node", n(node)), ("latency", U64(latency)),
            ]),
            Event::Drop { pid, .. } => fields.push(("pid", U64(pid))),
            Event::Watchdog { blocked, .. } => fields.push(("blocked", n(blocked))),
            Event::WaitFor { waiter, waits_on, ref label, .. } => fields.extend([
                ("waiter", U64(waiter)), ("waits_on", U64(waits_on)), ("label", Str(label)),
            ]),
        }
        fields
    }

    /// Writes the event as one JSON object.
    pub(crate) fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        json::write_object(out, ",", self.fields())
    }

    /// The columns of [`Event::write_csv`]: every field of every kind.
    pub(crate) const CSV_HEADER: &'static str =
        "kind,cycle,pid,src,dst,len,node,dim,dir,vc,flit,from,to,latency,blocked,waiter,waits_on,label";

    /// Writes the event as one CSV row (no newline), each field in its
    /// column of [`Event::CSV_HEADER`]; columns this kind lacks are empty.
    pub(crate) fn write_csv(&self, out: &mut String) {
        let fields = self.fields();
        for (i, column) in Self::CSV_HEADER.split(',').enumerate() {
            if i > 0 {
                out.push(',');
            }
            if let Some((_, value)) = fields.iter().find(|(name, _)| *name == column) {
                out.push_str(&csv::field(&value.to_string()));
            }
        }
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
        let columns: Vec<&str> = Event::CSV_HEADER.split(',').collect();
        for e in &events {
            let (mut text, mut row) = (String::new(), String::new());
            e.write_json(&mut text).unwrap();
            e.write_csv(&mut row);
            let Ok(Value::Obj(fields)) = Value::parse(&text) else {
                panic!("{text} is not a JSON object")
            };
            assert_eq!(fields["kind"].as_str(), Some(e.kind().name()));
            assert_eq!(fields["cycle"].as_u64(), Some(e.cycle()));
            // Every JSON field fills the CSV column of its name with the
            // same value (the label's quotes, comma and newline survive
            // CSV quoting), and no other column is filled.
            let cells = crate::csv_reader::parse_line(&row).unwrap();
            assert_eq!(cells.len(), columns.len(), "{row}");
            let filled: Vec<_> = columns
                .iter()
                .zip(&cells)
                .filter(|(_, c)| !c.is_empty())
                .collect();
            assert_eq!(filled.len(), fields.len(), "{row} against {text}");
            for (column, cell) in filled {
                let field = match &fields[*column] {
                    Value::Str(s) => s.clone(),
                    number => number.as_u64().expect("an integer").to_string(),
                };
                assert_eq!(&field, cell, "column {column}");
            }
        }
    }
}
