//! The five workloads. Each module's header says why the workload
//! exists and which layers it loads or bypasses.

pub mod campaign;
pub mod enumerate;
pub mod pipeline;
pub mod sim;
pub mod verify_scale;

#[cfg(test)]
mod tests {
    use crate::harness::{Workload, DEFAULT_SEED};
    use crate::spec::PER_LAYER;
    use crate::trace::traced_run;

    /// One traced run of a workload: every answer right, the traced body
    /// agreeing with the untraced one and with the pinned digest, layers
    /// summing to the end-to-end span (ROADMAP 1b), and the workload's
    /// own layers showing up in the metrics.
    fn check<W: Workload>(w: W, entered: &[&str], bypassed: &[&str]) {
        let r = traced_run(&w, DEFAULT_SEED, 1);
        assert_eq!(r.failed, 0, "{}: {:?}", w.name(), r.messages);
        assert!(r.attempted > 0);
        let share = r.metrics.get("trace.unattributed_share");
        assert!(
            share <= 0.10,
            "{}: {share} of the repetition is in no layer",
            w.name()
        );
        assert!(r.metrics.get("alloc.count") > 0.0);
        for name in entered {
            assert!(r.metrics.get(name) > 0.0, "{}: {name} is zero", w.name());
        }
        for name in bypassed {
            assert_eq!(r.metrics.get(name), 0.0, "{}: {name}", w.name());
        }
        for name in PER_LAYER {
            assert!(r.metrics.get(name).is_finite(), "{name}");
        }
        let json = r.trace.to_chrome_json(w.name());
        let doc = ebda_obs::json::Value::parse(&json).expect("trace file parses");
        let events = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(events.len(), r.trace.spans.len() + 1);
    }

    /// One test, because the workloads share the process-wide profiler,
    /// allocation counter and thread-count override.
    #[test]
    fn every_workload_traces_cleanly_and_loads_the_layers_it_claims() {
        ebda_par::set_threads(1);
        check(
            super::verify_scale::VerifyScale,
            &[
                "core.extract_ns",
                "core.algorithm1_ns",
                "cdg.build_ns",
                "cdg.build_ns_per_edge.r32",
                "cdg.duato_ns_per_node.r8",
                "oracle.cert_check_ns",
                "obs.ledger_append_ns",
            ],
            &["sim.route_ns", "oracle.generate_ns", "corpus.load_ns"],
        );
        check(
            super::campaign::Campaign::new(DEFAULT_SEED),
            &[
                "oracle.generate_ns",
                "oracle.duato_ns",
                "oracle.brute_ns",
                "oracle.cert_obligations",
                "corpus.load_ns",
                "obs.coverage_write_ns",
            ],
            &["sim.route_ns", "cdg.enum_models", "routing.tables"],
        );
        check(
            super::sim::Sim::lowload(DEFAULT_SEED),
            &["routing.dist_table_build_ns", "sim.other_ns", "sim.cycles"],
            &["cdg.build_ns", "oracle.brute_ns"],
        );
        check(
            super::sim::Sim::saturation(DEFAULT_SEED),
            &[
                "sim.route_ns",
                "sim.vc_alloc_ns",
                "sim.switch_ns",
                "sim.route_queries",
            ],
            &["cdg.build_ns", "oracle.brute_ns"],
        );
        check(
            super::enumerate::Enumerate::new(DEFAULT_SEED),
            &["cdg.enum_ns_per_model", "cdg.enum_models"],
            &["sim.route_ns", "obs.ledger_bytes", "oracle.brute_ns"],
        );
    }
}
