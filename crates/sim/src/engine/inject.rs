//! Traffic sources: the per-cycle injection stage.

use super::*;

impl<'a> Simulator<'a> {
    pub(super) fn inject(&mut self, cycle: u64) {
        use crate::traffic::TrafficPattern;
        let cfg = self.cfg;
        match cfg.traffic {
            TrafficPattern::Trace { ref events } => {
                while let Some(&(c, src, dst)) = events.get(self.trace_cursor) {
                    if c > cycle {
                        break;
                    }
                    self.trace_cursor += 1;
                    self.spawn_packet(cycle, src, dst);
                }
            }
            TrafficPattern::Bursty {
                p_on,
                p_off,
                burst_scale,
            } => {
                let on_rate = (cfg.injection_rate * burst_scale).min(1.0);
                for node in self.topo.nodes() {
                    // Advance the two-state Markov chain, then gate.
                    let on = self.burst_on[node];
                    let flip = self.rng.gen_bool(if on { p_off } else { p_on });
                    let on = on != flip;
                    self.burst_on[node] = on;
                    if on && on_rate != 0.0 && self.rng.gen_bool(on_rate) {
                        self.inject_at(cycle, node);
                    }
                }
            }
            // One Bernoulli draw per node against a fixed rate: compare
            // the raw draw with the rate's integer threshold.
            _ if cfg.injection_rate == 0.0 => {}
            _ => {
                let threshold = Rng64::bool_threshold(cfg.injection_rate);
                for node in self.topo.nodes() {
                    if self.rng.gen_below(threshold) {
                        self.inject_at(cycle, node);
                    }
                }
            }
        }
    }

    /// `node` won its injection draw: pick a destination (patterns that
    /// map the node to itself inject nothing) and queue the packet.
    fn inject_at(&mut self, cycle: u64, node: NodeId) {
        if let Some(dst) = self
            .cfg
            .traffic
            .destination(&self.topo, node, &mut self.rng)
        {
            self.spawn_packet(cycle, node, dst);
        }
    }

    fn spawn_packet(&mut self, cycle: u64, node: NodeId, dst: NodeId) {
        {
            let pid = self.packets.len() as Pid;
            let measured =
                cycle >= self.cfg.warmup && cycle < self.cfg.warmup + self.cfg.measurement;
            self.packets.push(Packet {
                src: node,
                dst,
                len: self.cfg.packet_length as u32,
                route_state: INJECT,
                inject_cycle: cycle,
                measured,
                delivered: None,
                hops: 0,
            });
            self.injected += 1;
            if measured {
                self.measured_injected += 1;
            }
            let slot = self.layout.injection_slot(node);
            for idx in 0..self.cfg.packet_length as u32 {
                self.in_vcs[slot].buf.push_back(FlitTag { pid, idx });
            }
            self.buffered_flits += self.cfg.packet_length;
            self.note_arrival(slot);
            if let Some(rec) = self.rec.as_deref_mut() {
                rec.record(Event::Inject {
                    cycle,
                    pid: u64::from(pid),
                    src: node,
                    dst,
                    len: self.cfg.packet_length,
                });
            }
        }
    }
}
