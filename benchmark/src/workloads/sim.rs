//! `sim-lowload` and `sim-saturation`: the wormhole simulator on a
//! west-first mesh at two opposite loads.
//!
//! Both run `noc_sim::simulate` with `TurnRouting::from_design`. At
//! 0.002 packets/node/cycle on 16x16 almost every router is idle every
//! cycle, so host time is the cost of visiting idle routers (it shows
//! inside the switch and vc_alloc phases) and routing hardly runs; at 0.07 on 8x8 the network is past its saturation knee
//! (throughput 0.24 flits/node/cycle with latency 104 at 0.05, 0.20
//! with latency above 1400 at 0.07) and route / vc_alloc / switch do
//! the work. An optimisation for one regime must leave the other within
//! its bound.
//!
//! Operation: one router-cycle (`nodes x SimResult::cycles`). A faster
//! simulator must leave every simulated statistic identical, so the
//! digest covers them all.

use crate::harness::{best_of, Checks, Digest, Outcome, Workload};
use crate::trace::{Metrics, Trace, Tracer};
use ebda_core::catalog;
use ebda_obs::prof;
use ebda_routing::{RouteChoice, RoutingRelation, Topology, TurnRouting, INJECT};
use noc_sim::{simulate, simulate_traced, Outcome as SimOutcome, SimConfig, SimResult};
use std::hint::black_box;

pub struct Sim {
    name: &'static str,
    radix: usize,
    rate: f64,
    /// Warm-up, measurement and drain cycles.
    phases: (u64, u64, u64),
    seed: u64,
    pinned: u64,
}

impl Sim {
    pub fn lowload(seed: u64) -> Sim {
        Sim {
            name: "sim-lowload",
            radix: 16,
            rate: 0.002,
            phases: (300, 1500, 1000),
            seed,
            pinned: 0xfdf9_23df_04e0_5ed9,
        }
    }

    pub fn saturation(seed: u64) -> Sim {
        Sim {
            name: "sim-saturation",
            radix: 8,
            rate: 0.07,
            phases: (500, 1500, 500),
            seed,
            pinned: 0x10d2_9a13_3828_6446,
        }
    }

    fn config(&self) -> SimConfig {
        SimConfig {
            injection_rate: self.rate,
            warmup: self.phases.0,
            measurement: self.phases.1,
            drain: self.phases.2,
            seed: self.seed,
            collect_latencies: false,
            ..SimConfig::default()
        }
    }

    fn outcome(&self, topo: &Topology, r: &SimResult, checks: &mut Checks) -> Outcome {
        let ops = topo.node_count() as u64 * r.cycles;
        let ok = r.outcome == SimOutcome::Completed && r.routing_faults == 0;
        if !ok {
            // A run that did not complete simulated none of its cycles
            // correctly.
            checks.failed += ops;
            checks.messages.push(format!(
                "{}: outcome {:?}, {} routing faults",
                self.name, r.outcome, r.routing_faults
            ));
        }
        let mut d = Digest::new();
        for x in [
            r.cycles,
            r.injected_packets,
            r.delivered_packets,
            r.measured_injected,
            r.measured_delivered,
            r.avg_latency.to_bits(),
            r.max_latency,
            r.window_ejected,
            r.channel_flits.iter().sum(),
        ] {
            d.u64(x);
        }
        Outcome {
            digest: d.finish(),
            ops,
        }
    }
}

pub struct SimInputs {
    topo: Topology,
    relation: TurnRouting,
    cfg: SimConfig,
}

/// Forces every lazily built per-destination distance table.
fn build_tables(topo: &Topology, relation: &TurnRouting) -> u64 {
    for dst in topo.nodes() {
        black_box(relation.legal_distance(topo, 0, INJECT, dst));
    }
    topo.node_count() as u64
}

impl Workload for Sim {
    type Inputs = SimInputs;

    fn name(&self) -> &'static str {
        self.name
    }

    fn construct(&self, t: &mut Tracer) -> SimInputs {
        let topo = Topology::mesh(&[self.radix, self.radix]);
        let relation = t.call("routing.construct", || {
            TurnRouting::from_design("west-first", &catalog::p3_west_first())
                .expect("catalog design is valid")
        });
        let tables = t.call("routing.dist_table_build", || {
            build_tables(&topo, &relation)
        });
        t.count("routing.tables", tables);
        SimInputs {
            topo,
            relation,
            cfg: self.config(),
        }
    }

    fn body(&self, inp: &SimInputs, checks: &mut Checks) -> Outcome {
        let r = simulate(&inp.topo, &inp.relation, &inp.cfg);
        self.outcome(&inp.topo, &r, checks)
    }

    /// The same call with the program's own profiler on: its phase
    /// totals become children of the `sim.simulate` span, its work
    /// counters the layer's counts.
    fn traced_body(&self, inp: &SimInputs, t: &mut Tracer, checks: &mut Checks) -> Outcome {
        prof::reset();
        prof::set_enabled(true);
        let r = t.call("sim.simulate", || {
            simulate(&inp.topo, &inp.relation, &inp.cfg)
        });
        prof::set_enabled(false);
        let snap = prof::snapshot();
        let phase = |path: &str| snap.phases.get(path).cloned().unwrap_or_default();
        t.split_last(&[
            ("sim.route", phase("sim/run/route").wall_ns),
            ("sim.vc_alloc", phase("sim/run/vc_alloc").wall_ns),
            ("sim.switch", phase("sim/run/switch").wall_ns),
            ("sim.credit", phase("sim/run/credit").wall_ns),
            ("sim.eject", phase("sim/run/eject").wall_ns),
        ]);
        for (metric, path, unit) in [
            ("sim.cycles", "sim/run", "cycles"),
            ("sim.route_queries", "sim/run/route", "route_queries"),
            ("sim.vc_grants", "sim/run/vc_alloc", "vc_grants"),
            ("sim.link_flits", "sim/run/switch", "link_flits"),
            ("sim.credits_returned", "sim/run/credit", "credits_returned"),
            ("sim.flits_ejected", "sim/run/eject", "flits_ejected"),
        ] {
            t.count(metric, phase(path).work.get(unit).copied().unwrap_or(0));
        }
        self.outcome(&inp.topo, &r, checks)
    }

    fn pinned_digest(&self) -> u64 {
        self.pinned
    }

    fn derive(&self, trace: &Trace, m: &mut Metrics) {
        // What the simulator spends outside its five profiled phases
        // (injection, watchdog, bookkeeping).
        m.set("sim.other_ns", trace.self_ns()["sim.simulate"] as f64);
    }

    fn probes(&self, m: &mut Metrics) {
        let inp = self.construct(&mut Tracer::off());
        let ops = (inp.topo.node_count() as u64
            * simulate(&inp.topo, &inp.relation, &inp.cfg).cycles) as f64;
        let plain = best_of(PROBE_REPS, || {
            black_box(simulate(&inp.topo, &inp.relation, &inp.cfg));
        });
        m.set("sim.ns_per_router_cycle", plain / ops);
        if self.name != "sim-saturation" {
            return;
        }

        // What each observability facility costs when on, as a ratio to
        // the plain run (ROADMAP 1e budget rows).
        prof::set_enabled(true);
        let profiled = best_of(PROBE_REPS, || {
            black_box(simulate(&inp.topo, &inp.relation, &inp.cfg));
        });
        prof::set_enabled(false);
        prof::reset();
        m.set("obs.prof_overhead_ratio", profiled / plain);
        let recorded = best_of(PROBE_REPS, || {
            let mut rec = ebda_obs::Recorder::with_defaults();
            black_box(simulate_traced(
                &inp.topo,
                &inp.relation,
                &inp.cfg,
                Some(&mut rec),
            ));
        });
        m.set("obs.recorder_overhead_ratio", recorded / plain);

        // Warm all-pairs routing queries at the injection state: the
        // cost of one `route_into` with every distance table built.
        let mut out: Vec<RouteChoice> = Vec::new();
        let n = inp.topo.node_count();
        let ns = best_of(PROBE_REPS, || {
            for src in 0..n {
                for dst in 0..n {
                    inp.relation
                        .route_into(&inp.topo, src, INJECT, src, dst, &mut out);
                    black_box(&out);
                }
            }
        });
        m.set("routing.route_queries", (n * n) as f64);
        m.set("routing.route_query_ns", ns / (n * n) as f64);
    }
}

const PROBE_REPS: usize = 10;
