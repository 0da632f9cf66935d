//! Mid-run link failures: cut, tear down, rebuild what was resolved
//! against the old topology.

use super::*;

impl<'a> Simulator<'a> {
    /// Applies fault-schedule entries due at `cycle`: cut the links, tear
    /// down severed wormholes, release reservations over dead links.
    pub(super) fn apply_due_faults(&mut self, cycle: u64) {
        let mut applied = false;
        while let Some(&(due, node, dim, dir)) = self.faults_sorted.get(self.fault_cursor) {
            if due > cycle {
                break;
            }
            self.fault_cursor += 1;
            self.topo = self.topo.clone().with_failed_link(node, dim, dir);
            applied = true;
        }
        if !applied {
            return;
        }
        // Everything resolved against the old topology is stale: the
        // bound relation, the link maps, and the route of every waiting
        // head (its candidates may cross a link that is gone).
        self.bound = ebda_routing::bind(self.relation, &self.topo);
        self.links = Links::new(&self.topo, &self.layout);
        for route in &mut self.head_routes {
            route.routed = false;
        }
        // Release or tear down traffic over links that no longer exist.
        let out_slots = self.out_vcs.len();
        for oslot in 0..out_slots {
            let Some(pid) = self.out_vcs[oslot].owner else {
                continue;
            };
            if self.links.down_in[oslot] != NO_SLOT {
                continue; // link survived
            }
            let islot = self.out_vcs[oslot].src_in;
            let head_still_here = self.in_vcs[islot]
                .buf
                .front()
                .is_some_and(|f| f.pid == pid && f.idx == 0);
            if head_still_here {
                // Only a reservation: release it; the head re-routes.
                self.out_vcs[oslot].owner = None;
                self.out_vcs[oslot].src_in = usize::MAX;
                self.in_vcs[islot].alloc = Alloc::None;
            } else {
                // The wormhole is severed mid-packet: tear the packet down.
                self.teardown_packet(pid, cycle);
            }
        }
        // Flits in transit toward now-dead links cannot exist (they were
        // sent while the link was alive and arrive at the buffer), but a
        // packet already dropped may still have flits in transit: purge.
        let dropped: std::collections::HashSet<Pid> = self
            .packets
            .iter()
            .enumerate()
            .filter(|(_, p)| p.delivered == Some(u64::MAX))
            .map(|(i, _)| i as Pid)
            .collect();
        if !dropped.is_empty() {
            self.in_transit
                .retain(|&(_, _, f)| !dropped.contains(&f.pid));
        }
        self.recompute_credits();
        self.assign_masks(|on| on);
        self.wake_all();
    }

    /// Removes every trace of a packet from the network and counts it as
    /// dropped. The sentinel `delivered == Some(u64::MAX)` marks drops.
    fn teardown_packet(&mut self, pid: Pid, cycle: u64) {
        if self.packets[pid as usize].delivered.is_some() {
            return;
        }
        self.packets[pid as usize].delivered = Some(u64::MAX);
        self.dropped += 1;
        if let Some(rec) = self.rec.as_deref_mut() {
            rec.record(Event::Drop {
                cycle,
                pid: u64::from(pid),
            });
        }
        for slot in 0..self.in_vcs.len() {
            let had_front = self.in_vcs[slot].buf.front().is_some_and(|f| f.pid == pid);
            let before = self.in_vcs[slot].buf.len();
            self.in_vcs[slot].buf.retain(|f| f.pid != pid);
            self.buffered_flits -= before - self.in_vcs[slot].buf.len();
            if had_front {
                self.in_vcs[slot].alloc = Alloc::None;
                self.head_routes[slot].routed = false;
            }
        }
        for oslot in 0..self.out_vcs.len() {
            if self.out_vcs[oslot].owner == Some(pid) {
                // Release the input-side allocation too: the packet may
                // have drained this buffer (tail still upstream) leaving
                // the alloc dangling.
                let src_in = self.out_vcs[oslot].src_in;
                if src_in != usize::MAX && self.in_vcs[src_in].alloc == Alloc::Out(oslot) {
                    self.in_vcs[src_in].alloc = Alloc::None;
                }
                self.out_vcs[oslot].owner = None;
                self.out_vcs[oslot].src_in = usize::MAX;
            }
        }
        for i in 0..self.eject_owner.len() {
            if let Some((p, slot)) = self.eject_owner[i] {
                if p == pid {
                    if self.in_vcs[slot].alloc == Alloc::Eject {
                        self.in_vcs[slot].alloc = Alloc::None;
                    }
                    self.eject_owner[i] = None;
                }
            }
        }
    }

    /// Rebuilds every credit counter from actual buffer occupancy — used
    /// after teardown, where piecewise accounting is error-prone.
    fn recompute_credits(&mut self) {
        for oslot in 0..self.out_vcs.len() {
            let dslot = self.links.down_in[oslot];
            if dslot == NO_SLOT {
                self.out_vcs[oslot].credits = self.cfg.buffer_depth;
                continue;
            }
            let occupied = self.in_vcs[dslot].buf.len()
                + self
                    .in_transit
                    .iter()
                    .filter(|&&(_, s, _)| s == dslot)
                    .count();
            self.out_vcs[oslot].credits = self.cfg.buffer_depth.saturating_sub(occupied);
        }
    }
}
