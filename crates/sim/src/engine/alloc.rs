//! Route computation and VC allocation (`sim/run/route`,
//! `sim/run/vc_alloc`).

use super::*;

/// `turn % n`, without the division in the common `n == 1`.
pub(super) fn rotation_start(turn: usize, n: usize) -> usize {
    if n == 1 {
        0
    } else {
        turn % n
    }
}

impl<'a> Simulator<'a> {
    /// VC allocation: heads at buffer fronts claim output VCs or the
    /// ejection port. Visits the in-slots whose `heads` bit is set and
    /// whose `asleep` bit is not, in ascending (node, local slot) order.
    pub(super) fn allocate(&mut self, cycle: u64) {
        let mut from = 0;
        while let Some(slot) = next_set_bit_except(&self.heads, &self.asleep, from) {
            from = slot + 1;
            let node = self.in_node[slot] as usize;
            if self.in_vcs[slot].alloc != Alloc::None {
                continue;
            }
            let Some(&front) = self.in_vcs[slot].buf.front() else {
                continue;
            };
            if self.prof_on {
                self.prof.head_visits += 1;
            }
            debug_assert_eq!(front.idx, 0, "unallocated buffer front must be a head");
            let pid = front.pid;
            let (src, dst, state) = {
                let p = &self.packets[pid as usize];
                (p.src, p.dst, p.route_state)
            };
            if dst == node {
                if self.eject_owner[node].is_none() {
                    self.eject_owner[node] = Some((pid, slot));
                    self.in_vcs[slot].alloc = Alloc::Eject;
                    clear_bit(&mut self.heads, slot);
                    let bit = self.owned_bit(node, self.layout.out_per_node);
                    set_bit(&mut self.owned, bit);
                    if self.prof_on {
                        self.prof.vc_allocs += 1;
                    }
                } else {
                    self.wait_on(self.eject_row(node), node, slot);
                    self.sleep(slot);
                }
                continue;
            }
            // Store-and-forward: the whole packet must be buffered at
            // this node before its head may be routed onward.
            if self.cfg.switching == Switching::StoreAndForward {
                let len = self.packets[pid as usize].len as usize;
                let buffered = self.in_vcs[slot]
                    .buf
                    .iter()
                    .take_while(|f| f.pid == pid)
                    .count();
                if buffered < len {
                    continue;
                }
            }
            // Route computation: once per head per hop. A head that
            // finds no free output VC keeps its candidates and repeats
            // the selection below when one of them is released.
            if !self.head_routes[slot].routed {
                let cands = &mut self.head_routes[slot].cands;
                if self.prof_on {
                    let t0 = Instant::now();
                    self.bound.route_into(node, state, src, dst, cands);
                    self.prof.route_ns += t0.elapsed().as_nanos() as u64;
                    self.prof.routes += 1;
                } else {
                    self.bound.route_into(node, state, src, dst, cands);
                }
                self.head_routes[slot].routed = true;
            }
            if self.head_routes[slot].cands.is_empty() {
                self.routing_faults += 1;
                continue;
            }
            let Some((oslot, ch)) = self.select(cycle, node, &self.head_routes[slot].cands) else {
                for k in 0..self.head_routes[slot].cands.len() {
                    let row = self.cand_out_slot(node, self.head_routes[slot].cands[k]);
                    self.wait_on(row, node, slot);
                }
                self.sleep(slot);
                continue;
            };
            self.head_routes[slot].routed = false;
            self.out_vcs[oslot].owner = Some(pid);
            self.out_vcs[oslot].src_in = slot;
            self.in_vcs[slot].alloc = Alloc::Out(oslot);
            clear_bit(&mut self.heads, slot);
            let bit = self.owned_bit(node, oslot - node * self.layout.out_per_node);
            set_bit(&mut self.owned, bit);
            self.packets[pid as usize].route_state = ch.state;
            if self.prof_on {
                self.prof.vc_allocs += 1;
            }
            if let Some(rec) = self.rec.as_deref_mut() {
                rec.record(Event::VcAlloc {
                    cycle,
                    pid: u64::from(pid),
                    node,
                    dim: ch.port.dim.index() as u8,
                    dir: dir_char(ch.port.dir),
                    vc: ch.port.vc - 1,
                });
            }
        }
    }

    /// The head at the front of `slot` has registered on every resource
    /// it could claim and is not looked at again until one is released.
    fn sleep(&mut self, slot: usize) {
        set_bit(&mut self.asleep, slot);
        if self.prof_on {
            self.prof.head_sleeps += 1;
        }
    }

    /// The out-slot behind route candidate `ch` of a head at `node`.
    pub(super) fn cand_out_slot(&self, node: NodeId, ch: RouteChoice) -> usize {
        let vc0 = ch.port.vc as usize - 1;
        debug_assert!(
            vc0 < self.layout.vcs[ch.port.dim.index()] as usize,
            "relation requested VC beyond its declared budget"
        );
        let port = Layout::port(ch.port.dim.index(), ch.port.dir);
        self.layout.out_slot(node, port, vc0)
    }

    /// Picks the output VC a head at `node` claims this cycle among its
    /// route candidates: the out-slot and the candidate behind it, or
    /// `None` when no candidate is free. Which one depends on the cycle;
    /// whether there is one depends only on owners and, iff
    /// `claim_credits > 0`, on credits.
    pub(super) fn select(
        &self,
        cycle: u64,
        node: NodeId,
        cands: &[RouteChoice],
    ) -> Option<(usize, RouteChoice)> {
        let feasible = |oslot: usize| {
            let out = &self.out_vcs[oslot];
            out.owner.is_none() && out.credits >= self.claim_credits
        };
        let oslot_of = |k: usize| self.cand_out_slot(node, cands[k]);
        let chosen = match self.cfg.selection {
            Selection::RotatingFirstFit => {
                let mut next = rotation_start(cycle as usize + node, cands.len());
                (0..cands.len())
                    .map(|_| {
                        let k = next;
                        next = if k + 1 == cands.len() { 0 } else { k + 1 };
                        k
                    })
                    .find(|&k| feasible(oslot_of(k)))
            }
            Selection::MostCredits => (0..cands.len())
                .filter(|&k| feasible(oslot_of(k)))
                .max_by_key(|&k| (self.out_vcs[oslot_of(k)].credits, cands.len() - k)),
        };
        chosen.map(|k| (oslot_of(k), cands[k]))
    }
}
