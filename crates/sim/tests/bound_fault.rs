//! The engine asks the routing relation through a topology-bound view,
//! once per head per hop, and keeps a waiting head's candidates until it
//! is granted an output VC. A link failure invalidates all of that at
//! once: the view must be taken again for the cut topology and no head
//! may keep candidates computed before the cut.
//!
//! The same `TurnRouting` is run directly (the engine gets its resolved
//! tables) and behind a newtype that offers no bound view (the engine
//! gets the forwarding wrapper, which asks the topology-taking
//! `route_into` with the engine's current topology). Links are cut in
//! the middle of a saturated mesh, where heads are waiting for exactly
//! those links when they go. A head that kept its candidates across the
//! cut is granted a dead link and the engine's "allocated output must
//! have a link" check fires; a resolved view that outlived the cut
//! routes differently from the forwarded one.

use ebda_core::{catalog, Channel, Dimension, Direction};
use ebda_routing::{NodeId, RouteChoice, RouteState, RoutingRelation, Topology, TurnRouting};
use noc_sim::{simulate, SimConfig};

/// `TurnRouting` with the `bind` hook hidden.
struct Unbound(TurnRouting);

impl RoutingRelation for Unbound {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn universe(&self) -> &[Channel] {
        self.0.universe()
    }
    fn route(
        &self,
        topo: &Topology,
        node: NodeId,
        state: RouteState,
        src: NodeId,
        dst: NodeId,
    ) -> Vec<RouteChoice> {
        self.0.route(topo, node, state, src, dst)
    }
    fn route_into(
        &self,
        topo: &Topology,
        node: NodeId,
        state: RouteState,
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<RouteChoice>,
    ) {
        self.0.route_into(topo, node, state, src, dst, out);
    }
}

fn north_last() -> TurnRouting {
    TurnRouting::from_design("north-last", &catalog::north_last()).unwrap()
}

#[test]
fn mid_run_faults_give_equal_results_bound_and_forwarded() {
    let topo = Topology::mesh(&[6, 6]);
    assert!(north_last().bind(&topo).is_some());
    assert!(Unbound(north_last()).bind(&topo).is_none());
    for seed in [1, 2, 3] {
        let cfg = SimConfig {
            injection_rate: 0.12, // 0.6 flits/node/cycle: far past saturation
            warmup: 100,
            measurement: 900,
            drain: 4_000,
            deadlock_threshold: 2_000,
            seed,
            fault_schedule: vec![
                (300, topo.node_at(&[2, 3]), Dimension::X, Direction::Plus),
                (450, topo.node_at(&[3, 2]), Dimension::Y, Direction::Plus),
                (600, topo.node_at(&[1, 1]), Dimension::X, Direction::Plus),
            ],
            ..SimConfig::default()
        };
        let direct = simulate(&topo, &north_last(), &cfg);
        let forwarded = simulate(&topo, &Unbound(north_last()), &cfg);
        assert_eq!(
            format!("{direct:?}"),
            format!("{forwarded:?}"),
            "seed {seed}"
        );
        // The scenario is the intended one: saturated, and the cuts
        // severed wormholes in flight.
        assert!(direct.dropped_packets > 0, "seed {seed}: {direct}");
        assert!(
            direct.delivered_packets + direct.dropped_packets <= direct.injected_packets,
            "seed {seed}: {direct}"
        );
    }
}
