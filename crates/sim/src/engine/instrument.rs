//! What a run reports about itself: recorder samples, the metrics
//! registry, the self-profiler.

use super::*;

impl<'a> Simulator<'a> {
    /// Takes one periodic telemetry sample if a recorder is attached and
    /// its cadence says a sample is due this cycle.
    pub(super) fn take_sample(&mut self, cycle: u64) {
        let Some(rec) = self.rec.as_deref_mut() else {
            return;
        };
        if !rec.sample_due(cycle) {
            return;
        }
        let depth = self.cfg.buffer_depth;
        let occupancy: Vec<u32> = self
            .out_vcs
            .iter()
            .map(|o| (depth - o.credits.min(depth)) as u32)
            .collect();
        let credit_stalls = self
            .out_vcs
            .iter()
            .filter(|o| o.owner.is_some() && o.credits == 0)
            .count() as u64;
        let buffered_flits = self.in_vcs.iter().map(|v| v.buf.len() as u64).sum::<u64>()
            + self.in_transit.len() as u64;
        rec.push_sample(Sample {
            cycle,
            in_flight: self.injected - self.delivered - self.dropped,
            buffered_flits,
            credit_stalls,
            occupancy,
        });
    }

    /// Samples every output VC's current buffer occupancy into the
    /// live-metrics occupancy histogram (a distribution over channels and
    /// time, the raw material of congestion heatmaps).
    pub(super) fn sample_occupancy(&mut self) {
        let depth = self.cfg.buffer_depth;
        for o in &self.out_vcs {
            self.occupancy_hist
                .observe((depth - o.credits.min(depth)) as u64);
        }
    }

    /// Flushes the run's histograms, gauges and per-channel flit counts
    /// into the global metrics registry — one lock acquisition per
    /// family, after the hot loop is done. The run totals are profiler
    /// work units ([`Self::flush_prof`]).
    pub(super) fn flush_metrics(&self) {
        use ebda_obs::metrics as m;
        for (name, h) in [
            ("ebda_sim_packet_latency_cycles", &self.latency_hist),
            ("ebda_sim_injection_queue_cycles", &self.inject_queue_hist),
            ("ebda_sim_channel_occupancy_flits", &self.occupancy_hist),
        ] {
            m::global().merge_histogram(name, &[], h);
        }
        // Per-channel load: a flit counter (accumulates across runs) and a
        // utilization gauge (flits per measurement cycle, last run wins).
        let window = self.cfg.measurement.max(1) as f64;
        for (oslot, &flits) in self.channel_flits.iter().enumerate() {
            let (node, port, vc0) = self.layout.out_slot_parts(oslot);
            let labels = [
                ("node", node.to_string()),
                ("dim", Layout::port_dim(port).to_string()),
                ("dir", dir_char(Layout::port_dir(port)).to_string()),
                ("vc", vc0.to_string()),
            ];
            m::global().counter_add("ebda_sim_channel_flits_total", &labels, flits);
            m::gauge_set(
                "ebda_sim_channel_utilization",
                &labels,
                flits as f64 / window,
            );
        }
    }

    /// Flushes the run's phase accumulator and totals into the global
    /// self-profiler after the hot loop is done. The `calls` and work
    /// units of every phase are deterministic functions of the seeded
    /// run; only the wall-ns totals vary between hosts. Phase wall times
    /// are accounted so the five cycle-loop phases are disjoint children
    /// of `sim/run`: VC allocation is `allocate()` minus routing, switch
    /// traversal is `arbitrate_and_move()` minus credit return and
    /// ejection.
    pub(super) fn flush_prof(&self, outcome: &Outcome, cycles: u64) {
        use ebda_obs::prof;
        let p = &self.prof;
        let run_ns = self
            .prof_run_t0
            .map_or(0, |t| t.elapsed().as_nanos() as u64);
        prof::record("sim/run", 1, run_ns);
        let vc_alloc_ns = p.alloc_ns.saturating_sub(p.route_ns);
        let switch_ns = p.arb_ns.saturating_sub(p.credit_ns + p.eject_ns);
        for (path, calls, ns) in [
            ("sim/run/route", p.routes, p.route_ns),
            ("sim/run/vc_alloc", p.vc_allocs, vc_alloc_ns),
            ("sim/run/switch", p.link_flits, switch_ns),
            ("sim/run/credit", p.credits, p.credit_ns),
            ("sim/run/eject", p.eject_flits, p.eject_ns),
        ] {
            prof::record(path, calls, ns);
        }
        let deadlocked = !matches!(outcome, Outcome::Completed);
        for (path, unit, n) in [
            ("sim/run", "cycles", cycles),
            ("sim/run", "packets_injected", self.injected),
            ("sim/run", "packets_delivered", self.delivered),
            ("sim/run", "packets_dropped", self.dropped),
            ("sim/run", "packets_reordered", self.reordered),
            ("sim/run", "routing_faults", self.routing_faults),
            ("sim/run", "credit_stalls", self.credit_stalls),
            ("sim/run", "deadlocks", u64::from(deadlocked)),
            ("sim/run", "watchdog_trips", self.watchdog_trips),
            ("sim/run/route", "route_queries", p.routes),
            ("sim/run/vc_alloc", "vc_grants", p.vc_allocs),
            ("sim/run/vc_alloc", "head_visits", p.head_visits),
            ("sim/run/vc_alloc", "head_sleeps", p.head_sleeps),
            ("sim/run/vc_alloc", "head_wakes", p.head_wakes),
            ("sim/run/switch", "link_flits", p.link_flits),
            ("sim/run/switch", "router_visits", p.router_visits),
            ("sim/run/credit", "credits_returned", p.credits),
            ("sim/run/eject", "flits_ejected", p.eject_flits),
        ] {
            prof::work(path, unit, n);
        }
    }
}
