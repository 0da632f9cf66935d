//! Switch allocation and traversal, credit return and ejection
//! (`sim/run/switch`, `sim/run/credit`, `sim/run/eject`).

use super::*;

impl<'a> Simulator<'a> {
    /// Switch allocation + traversal. Returns `true` if any flit moved.
    pub(super) fn arbitrate_and_move(&mut self, cycle: u64) -> bool {
        let in_window = cycle >= self.cfg.warmup && cycle < self.cfg.warmup + self.cfg.measurement;
        // (from in-slot, Option<out-slot>): None = ejection. Both scratch
        // vectors live on the Simulator and are reused every cycle — this
        // loop runs once per cycle and must not allocate.
        let mut moves = std::mem::take(&mut self.moves_buf);
        moves.clear();
        let ports = 2 * self.layout.dims;
        let input_bit = |local_port: usize| 1u64 << local_port;

        // Only routers with an owned output VC or a claimed ejection port
        // can move a flit or count a credit stall.
        let mut from = 0;
        while let Some(bit) = next_set_bit(&self.owned, from) {
            let node = bit >> self.owned_shift;
            let row = node << self.owned_shift;
            from = row + (1 << self.owned_shift);
            if self.prof_on {
                self.prof.router_visits += 1;
            }
            let mut used_inputs = 0u64;
            // Ejection first: it frees buffers and models the sink.
            if let Some((pid, slot)) = self.eject_owner[node] {
                if let Some(&front) = self.in_vcs[slot].buf.front() {
                    if front.pid == pid {
                        used_inputs |= input_bit(usize::from(self.in_port[slot]));
                        moves.push((slot, None));
                    }
                }
            }
            // One winner per output physical port.
            for port in 0..ports {
                let nvc = self.layout.vcs[Layout::port_dim(port)] as usize;
                let base = self.layout.out_base[port];
                if !(base..base + nvc).any(|local| test_bit(&self.owned, row + local)) {
                    continue;
                }
                let mut next = rotation_start(cycle as usize + node + port, nvc);
                for _ in 0..nvc {
                    let vc0 = next;
                    next = if vc0 + 1 == nvc { 0 } else { vc0 + 1 };
                    let oslot = node * self.layout.out_per_node + base + vc0;
                    // An owned VC without credits counts as a stall even
                    // when no flit is waiting behind it, which is why the
                    // mask is "owned" and not "has a flit to send".
                    let Some(pid) = self.out_vcs[oslot].owner else {
                        continue;
                    };
                    if self.out_vcs[oslot].credits == 0 {
                        self.credit_stalls += 1;
                        if let Some(rec) = self.rec.as_deref_mut() {
                            rec.record(Event::SwitchStall {
                                cycle,
                                pid: u64::from(pid),
                                node,
                                dim: Layout::port_dim(port) as u8,
                                dir: dir_char(Layout::port_dir(port)),
                                vc: vc0 as u8,
                            });
                        }
                        continue;
                    }
                    let islot = self.out_vcs[oslot].src_in;
                    let Some(&front) = self.in_vcs[islot].buf.front() else {
                        continue;
                    };
                    if front.pid != pid {
                        continue;
                    }
                    debug_assert_eq!(self.in_node[islot] as usize, node);
                    let iport = usize::from(self.in_port[islot]);
                    if used_inputs & input_bit(iport) != 0 {
                        continue;
                    }
                    used_inputs |= input_bit(iport);
                    moves.push((islot, Some(oslot)));
                    break;
                }
            }
        }

        let moved = !moves.is_empty();
        // Credit return for every flit about to leave its buffer, in one
        // pass (one timer pair per cycle, not per flit). Credits were
        // last read by the selection loop above, which checked `> 0` on
        // every out-slot the loop below decrements, so returning them
        // all first leaves every counter where the interleaved order did.
        let t0 = self.prof_on.then(Instant::now);
        for &(islot, _) in &moves {
            self.return_credit(islot);
        }
        if let Some(t0) = t0 {
            self.prof.credit_ns += t0.elapsed().as_nanos() as u64;
            self.prof.credits += moves.len() as u64;
        }
        let mut arrivals = std::mem::take(&mut self.arrivals_buf);
        arrivals.clear();
        for &(islot, target) in &moves {
            let flit = self.in_vcs[islot]
                .buf
                .pop_front()
                .expect("scheduled move from empty buffer");
            self.buffered_flits -= 1;
            let last = flit.idx + 1 == self.packets[flit.pid as usize].len;
            let node = self.in_node[islot] as usize;
            if last {
                // The tail leaves: the in-slot is unallocated again, and
                // whatever is queued behind it starts with a head.
                self.in_vcs[islot].alloc = Alloc::None;
                if !self.in_vcs[islot].buf.is_empty() {
                    set_bit(&mut self.heads, islot);
                }
            }
            match target {
                Some(oslot) => {
                    self.out_vcs[oslot].credits -= 1;
                    if flit.idx == 0 {
                        self.packets[flit.pid as usize].hops += 1;
                        // Head leaving its source-side injection queue:
                        // record the queueing delay before network entry.
                        if self.metrics_on && usize::from(self.in_port[islot]) == ports {
                            let waited = cycle - self.packets[flit.pid as usize].inject_cycle;
                            self.inject_queue_hist.observe(waited);
                        }
                    }
                    if in_window {
                        self.channel_flits[oslot] += 1;
                    }
                    if last {
                        self.out_vcs[oslot].owner = None;
                        let bit = self.owned_bit(node, oslot - node * self.layout.out_per_node);
                        clear_bit(&mut self.owned, bit);
                        self.wake(oslot, node);
                    }
                    let dslot = self.links.down_in[oslot];
                    assert_ne!(dslot, NO_SLOT, "allocated output must have a link");
                    if let Some(rec) = self.rec.as_deref_mut() {
                        let (_, port, vc0) = self.layout.out_slot_parts(oslot);
                        rec.record(Event::LinkTraverse {
                            cycle,
                            pid: u64::from(flit.pid),
                            flit: flit.idx as usize,
                            from: node,
                            to: self.in_node[dslot] as usize,
                            dim: Layout::port_dim(port) as u8,
                            dir: dir_char(Layout::port_dir(port)),
                            vc: vc0 as u8,
                        });
                    }
                    arrivals.push((dslot, flit));
                    if self.prof_on {
                        self.prof.link_flits += 1;
                    }
                }
                None => {
                    let t0 = self.prof_on.then(Instant::now);
                    self.flits_ejected_total += 1;
                    if in_window {
                        self.window_flits_ejected += 1;
                    }
                    if last {
                        self.eject_owner[node] = None;
                        let bit = self.owned_bit(node, self.layout.out_per_node);
                        clear_bit(&mut self.owned, bit);
                        self.wake(self.eject_row(node), node);
                        self.complete_packet(flit.pid, cycle, node);
                    }
                    if let Some(t0) = t0 {
                        self.prof.eject_ns += t0.elapsed().as_nanos() as u64;
                        self.prof.eject_flits += 1;
                    }
                }
            }
        }
        for &(slot, flit) in &arrivals {
            // Arrival after the link latency (1 = next cycle, since the
            // in-transit queue drains at the start of each cycle).
            self.in_transit
                .push_back((cycle + self.cfg.link_latency, slot, flit));
        }
        self.moves_buf = moves;
        self.arrivals_buf = arrivals;
        moved
    }

    /// Returns a credit to the upstream output VC feeding `islot`.
    /// Injection queues are source-side and creditless; and the upstream
    /// link may have failed after this flit arrived, in which case its
    /// out-slot credits were already reset by the fault handler.
    fn return_credit(&mut self, islot: usize) {
        let oslot = self.links.up_out[islot];
        if oslot == NO_SLOT {
            return;
        }
        self.out_vcs[oslot].credits += 1;
        debug_assert!(self.out_vcs[oslot].credits <= self.cfg.buffer_depth);
        if self.claim_credits > 0 {
            self.wake(oslot, oslot / self.layout.out_per_node);
        }
    }

    fn complete_packet(&mut self, pid: Pid, cycle: u64, node: NodeId) {
        let latency;
        let (src, dst, injected);
        {
            let p = &mut self.packets[pid as usize];
            debug_assert!(p.delivered.is_none());
            p.delivered = Some(cycle);
            latency = cycle + 1 - p.inject_cycle;
            (src, dst, injected) = (p.src, p.dst, p.inject_cycle);
        }
        if let Some(rec) = self.rec.as_deref_mut() {
            rec.record(Event::Eject {
                cycle,
                pid: u64::from(pid),
                node,
                latency,
            });
        }
        if self.last_delivered.note(src, dst, injected) {
            self.reordered += 1;
        }
        self.delivered += 1;
        if self.packets[pid as usize].measured {
            self.measured_delivered += 1;
            self.latency_sum += latency;
            self.latency_max = self.latency_max.max(latency);
            self.latency_hist.observe(latency);
            if self.cfg.collect_latencies {
                self.latencies.push(latency);
            }
            self.hop_sum += u64::from(self.packets[pid as usize].hops);
        }
    }
}
