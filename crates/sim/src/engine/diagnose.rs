//! The online stall watchdog and the wait-for post-mortem.

use super::*;
use ebda_cdg::csr::Csr;

/// One edge of a diagnosed circular wait: `waiter` cannot advance until
/// `waits_on` does, for the reason in `label`. `held`/`wanted` are the
/// channel coordinates behind channel-shaped waits (credit starvation,
/// VC ownership); queued-behind edges carry neither.
#[derive(Debug, Clone)]
pub(super) struct WaitEdge {
    pub(super) waiter: Pid,
    pub(super) waits_on: Pid,
    pub(super) label: String,
    pub(super) held: Option<ChannelCoord>,
    pub(super) wanted: Option<ChannelCoord>,
}

impl WaitEdge {
    pub(super) fn to_suspected(&self) -> SuspectedEdge {
        SuspectedEdge {
            waiter: u64::from(self.waiter),
            waits_on: u64::from(self.waits_on),
            label: self.label.clone(),
            held: self.held,
            wanted: self.wanted,
        }
    }
}

impl<'a> Simulator<'a> {
    /// One step of the online stall watchdog (called only when
    /// `cfg.watchdog_window > 0`). Two independent triggers, both scaled
    /// by the window `W`: a movement freeze (`cycle - last_progress >=
    /// W` with traffic in flight) and a credit-stall streak (`W`
    /// consecutive cycles that stalled on zero credits without ejecting
    /// a single flit). Ejection is the progress signal that clears the
    /// streak and re-arms a tripped watchdog: internal shuffling can
    /// keep `moved` true forever in a half-wedged network, but flits
    /// leaving the network cannot.
    pub(super) fn watchdog_tick(
        &mut self,
        cycle: u64,
        last_progress: u64,
        in_flight: bool,
        stalled: bool,
        ejected: bool,
    ) {
        if ejected {
            self.stall_streak = 0;
            self.watchdog_armed = true;
            return;
        }
        if in_flight && stalled {
            self.stall_streak += 1;
        } else if !in_flight {
            self.stall_streak = 0;
        }
        if !self.watchdog_armed {
            return;
        }
        let w = self.cfg.watchdog_window;
        let frozen = in_flight && cycle.saturating_sub(last_progress) >= w;
        if frozen || self.stall_streak >= w {
            self.trip_watchdog(cycle);
        }
    }

    /// The watchdog fired: walk the live hold/want graph, record the
    /// suspected wait cycle through the recorder (so journeys pick it
    /// up), and emit the `ebda_watchdog_*` metrics family. Diagnostic
    /// only — the run continues, and the watchdog disarms until the
    /// next ejection proves the suspicion wrong (or the hard
    /// `deadlock_threshold` proves it right).
    fn trip_watchdog(&mut self, cycle: u64) {
        self.watchdog_armed = false;
        self.watchdog_trips += 1;
        let blocked = self.blocked_packet_count();
        let edges = self.diagnose_deadlock();
        self.prof.suspected_cycles += u64::from(!edges.is_empty());
        if self.metrics_on {
            use ebda_obs::metrics as m;
            m::global().observe("ebda_watchdog_stall_streak_cycles", &[], self.stall_streak);
            if !edges.is_empty() {
                m::gauge_set("ebda_watchdog_suspected_cycle_len", &[], edges.len() as f64);
            }
        }
        if let Some(rec) = self.rec.as_deref_mut() {
            rec.record(Event::Watchdog { cycle, blocked });
            for e in &edges {
                rec.record(Event::WaitFor {
                    cycle,
                    waiter: u64::from(e.waiter),
                    waits_on: u64::from(e.waits_on),
                    label: e.label.clone(),
                });
            }
        }
        if !edges.is_empty() {
            self.watchdog_suspected = edges;
            self.watchdog_suspected_at = cycle;
        }
    }

    /// Builds the wait-for graph among blocked packets and extracts one
    /// circular wait as structured edges (waiter, waited-on, reason),
    /// described hop by hop. Empty when no cycle is found (e.g. a stall
    /// caused by a routing fault rather than a deadlock).
    pub(super) fn diagnose_deadlock(&self) -> Vec<WaitEdge> {
        // Wait edges with a description of the waiting side. Pids are
        // sequential, so interning uses a direct-indexed table (sentinel
        // `u32::MAX` = not yet seen) rather than a hash map.
        let mut pids: Vec<Pid> = Vec::new();
        let mut index: Vec<u32> = vec![u32::MAX; self.packets.len()];
        let intern = |pids: &mut Vec<Pid>, index: &mut Vec<u32>, p: Pid| {
            let e = &mut index[p as usize];
            if *e == u32::MAX {
                pids.push(p);
                *e = (pids.len() - 1) as u32;
            }
            *e as usize
        };
        // Per-waiter annotation: the label plus the (held, wanted)
        // channel coordinates it describes, first reason wins.
        type Reason = (String, Option<ChannelCoord>, Option<ChannelCoord>);
        let mut edges: Vec<Vec<u32>> = Vec::new();
        let mut labels: Vec<Reason> = Vec::new();
        let add_edge = |edges: &mut Vec<Vec<u32>>,
                        labels: &mut Vec<Reason>,
                        a: usize,
                        b: usize,
                        why: Reason| {
            while edges.len() <= a.max(b) {
                edges.push(Vec::new());
                labels.push((String::new(), None, None));
            }
            if !edges[a].contains(&(b as u32)) {
                edges[a].push(b as u32);
            }
            if labels[a].0.is_empty() {
                labels[a] = why;
            }
        };

        let mut unrouted: Vec<RouteChoice> = Vec::new();
        for (slot, vc) in self.in_vcs.iter().enumerate() {
            let Some(&front) = vc.buf.front() else {
                continue;
            };
            let (node, _, _) = self.layout.in_slot_parts(slot);
            let fi = intern(&mut pids, &mut index, front.pid);
            // Packets queued behind the front wait on it.
            for f in vc.buf.iter().skip(1) {
                if f.pid != front.pid {
                    let qi = intern(&mut pids, &mut index, f.pid);
                    add_edge(
                        &mut edges,
                        &mut labels,
                        qi,
                        fi,
                        (
                            format!("p{} queued behind p{} at node {node}", f.pid, front.pid),
                            None,
                            None,
                        ),
                    );
                }
            }
            match vc.alloc {
                Alloc::Out(oslot) if self.out_vcs[oslot].credits == 0 => {
                    // Waiting on space freed by packets downstream.
                    let (onode, oport, ovc) = self.layout.out_slot_parts(oslot);
                    let dim = ebda_core::Dimension::new(Layout::port_dim(oport) as u8);
                    let dir = Layout::port_dir(oport);
                    if let Some(nbr) = self.topo.neighbor(onode, dim, dir) {
                        let held = ChannelCoord {
                            node: onode,
                            dim: dim.index() as u8,
                            dir: dir_char(dir),
                            vc: ovc as u8,
                        };
                        let wanted = ChannelCoord { node: nbr, ..held };
                        let dslot = self.layout.in_slot(nbr, oport, ovc);
                        for f in self.in_vcs[dslot].buf.iter() {
                            if f.pid != front.pid {
                                let qi = intern(&mut pids, &mut index, f.pid);
                                add_edge(
                                        &mut edges,
                                        &mut labels,
                                        fi,
                                        qi,
                                        (
                                            format!(
                                                "p{} holds {dim}{}{dir} at node {node}, needs buffer space at node {nbr}",
                                                front.pid, ovc + 1
                                            ),
                                            Some(held),
                                            Some(wanted),
                                        ),
                                    );
                            }
                        }
                    }
                }
                Alloc::None if front.idx == 0 => {
                    // A head that could not allocate: waits on the owners
                    // of every candidate output VC — the list the engine
                    // kept for it (and its sleep is registered on), or the
                    // bound relation's answer when it has none yet.
                    let p = &self.packets[front.pid as usize];
                    if p.dst != node {
                        let route = &self.head_routes[slot];
                        if !route.routed {
                            self.bound
                                .route_into(node, p.route_state, p.src, p.dst, &mut unrouted);
                        }
                        let cands = if route.routed {
                            &route.cands
                        } else {
                            &unrouted
                        };
                        for &ch in cands {
                            let oslot = self.cand_out_slot(node, ch);
                            if let Some(owner) = self.out_vcs[oslot].owner {
                                if owner != front.pid {
                                    let qi = intern(&mut pids, &mut index, owner);
                                    add_edge(
                                        &mut edges,
                                        &mut labels,
                                        fi,
                                        qi,
                                        (
                                            format!(
                                                "p{} at node {node} wants {} held by p{owner}",
                                                front.pid, ch.port
                                            ),
                                            None,
                                            Some(ChannelCoord {
                                                node,
                                                dim: ch.port.dim.index() as u8,
                                                dir: dir_char(ch.port.dir),
                                                vc: ch.port.vc - 1,
                                            }),
                                        ),
                                    );
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        // The workspace's one cycle search over the rows as they were
        // filled: insertion order decides which wait cycle is reported.
        let mut row_start = vec![0u32];
        for row in &edges {
            row_start.push(row_start[row_start.len() - 1] + row.len() as u32);
        }
        match ebda_cdg::csr::find_cycle(&Csr::new(edges.len(), row_start, edges.concat())) {
            Some(cycle) => (0..cycle.len())
                .map(|k| {
                    let i = cycle[k] as usize;
                    let j = cycle[(k + 1) % cycle.len()] as usize;
                    let (label, held, wanted) = labels[i].clone();
                    WaitEdge {
                        waiter: pids[i],
                        waits_on: pids[j],
                        label,
                        held,
                        wanted,
                    }
                })
                .collect(),
            None => Vec::new(),
        }
    }

    pub(super) fn blocked_packet_count(&self) -> usize {
        let mut pids: Vec<Pid> = self
            .in_vcs
            .iter()
            .flat_map(|v| v.buf.iter().map(|f| f.pid))
            .collect();
        pids.sort_unstable();
        pids.dedup();
        pids.len()
    }
}
