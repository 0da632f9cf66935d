//! Router, packet and run state of one simulation, and the three event
//! structures that summarise it for the per-cycle passes.

use super::*;

pub(super) type Pid = u32;

#[derive(Debug, Clone, Copy)]
pub(super) struct FlitTag {
    pub(super) pid: Pid,
    pub(super) idx: u32,
}

#[derive(Debug)]
pub(super) struct Packet {
    pub(super) src: NodeId,
    pub(super) dst: NodeId,
    pub(super) len: u32,
    pub(super) route_state: RouteState,
    pub(super) inject_cycle: u64,
    pub(super) measured: bool,
    pub(super) delivered: Option<u64>,
    pub(super) hops: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Alloc {
    None,
    Out(usize),
    Eject,
}

/// One run's work counts and cycle-loop phase clocks, flushed once to
/// `ebda_obs::prof` in `finish()` so the hot loop never takes the
/// registry lock. The counts are run state, kept on every run and
/// deterministic (pure functions of the seeded run); only the `_ns`
/// sums wait for `prof_on`, which guards every clock read.
#[derive(Debug, Default)]
pub(super) struct ProfAcc {
    /// Wall ns inside the bound relation's `route_into` and number of
    /// route queries (one per head per hop).
    pub(super) route_ns: u64,
    pub(super) routes: u64,
    /// Wall ns of whole `allocate()` calls; VC allocation time is this
    /// minus `route_ns`.
    pub(super) alloc_ns: u64,
    /// Output-VC grants (plus ejection-port claims).
    pub(super) vc_allocs: u64,
    /// Waiting heads `allocate()` looked at (one per head each time it
    /// arrives or is woken), and routers `arbitrate_and_move()` entered:
    /// the work the event masks leave, against `nodes x cycles` for a
    /// full scan.
    pub(super) head_visits: u64,
    pub(super) router_visits: u64,
    /// `asleep` bits set, and `asleep` bits a release actually cleared.
    pub(super) head_sleeps: u64,
    pub(super) head_wakes: u64,
    /// Wall ns of whole `arbitrate_and_move()` calls; switch-traversal
    /// time is this minus credit-return and ejection time.
    pub(super) arb_ns: u64,
    /// Wall ns inside `return_credit` (one credit per flit moved: the
    /// link flits plus `flits_ejected_total`).
    pub(super) credit_ns: u64,
    /// Wall ns spent in the ejection branch (its flits are
    /// `flits_ejected_total`).
    pub(super) eject_ns: u64,
    /// Flits that crossed a link (the switch-traversal work unit).
    pub(super) link_flits: u64,
    /// Watchdog trips whose diagnosis found a wait cycle.
    pub(super) suspected_cycles: u64,
}

#[derive(Debug)]
pub(super) struct InVc {
    pub(super) buf: VecDeque<FlitTag>,
    pub(super) alloc: Alloc,
}

#[derive(Debug)]
pub(super) struct OutVc {
    pub(super) owner: Option<Pid>,
    pub(super) src_in: usize,
    pub(super) credits: usize,
}

/// The route computed for the head at the front of an in-slot: asked
/// once when the head arrives (a router's RC stage), kept while the head
/// waits for an output VC, dropped when it is granted one. `cands` keeps
/// its capacity across heads.
#[derive(Debug, Default)]
pub(super) struct HeadRoute {
    pub(super) routed: bool,
    pub(super) cands: Vec<RouteChoice>,
}

pub(super) fn set_bit(bits: &mut [u64], i: usize) {
    bits[i >> 6] |= 1 << (i & 63);
}

pub(super) fn clear_bit(bits: &mut [u64], i: usize) {
    bits[i >> 6] &= !(1 << (i & 63));
}

pub(super) fn test_bit(bits: &[u64], i: usize) -> bool {
    bits[i >> 6] >> (i & 63) & 1 != 0
}

/// The lowest set bit at or above `from` in the words `word_at` yields.
fn next_bit(from: usize, word_at: impl Fn(usize) -> Option<u64>) -> Option<usize> {
    let mut word = from >> 6;
    let mut rest = word_at(word)? & (!0 << (from & 63));
    while rest == 0 {
        word += 1;
        rest = word_at(word)?;
    }
    Some(word * 64 + rest.trailing_zeros() as usize)
}

/// The lowest set bit at or above `from`.
pub(super) fn next_set_bit(bits: &[u64], from: usize) -> Option<usize> {
    next_bit(from, |word| bits.get(word).copied())
}

/// The lowest bit at or above `from` set in `bits` and clear in `except`
/// (which is as long as `bits`).
pub(super) fn next_set_bit_except(bits: &[u64], except: &[u64], from: usize) -> Option<usize> {
    next_bit(from, |word| Some(*bits.get(word)? & !except[word]))
}

/// Reorder detector: the highest injection cycle delivered so far per
/// (src, dst) pair. Dense `n*n` table for the meshes we simulate (zero-
/// initialised, matching a map's `or_insert(0)`); falls back to hashing
/// above [`DeliveredLog::DENSE_LIMIT`] pairs so giant topologies don't
/// pay O(n²) memory; `flush_prof` counts a run that chose the fallback.
pub(super) enum DeliveredLog {
    Dense { n: usize, last: Vec<u64> },
    Sparse(std::collections::HashMap<(NodeId, NodeId), u64>),
}

impl DeliveredLog {
    /// Pair count above which the dense table (8 bytes/pair) is not worth
    /// its memory. 1<<22 pairs = 32 MiB, i.e. meshes past ~2048 nodes.
    const DENSE_LIMIT: usize = 1 << 22;

    pub(super) fn new(n: usize) -> Self {
        if n.saturating_mul(n) <= Self::DENSE_LIMIT {
            DeliveredLog::Dense {
                n,
                last: vec![0; n * n],
            }
        } else {
            DeliveredLog::Sparse(std::collections::HashMap::new())
        }
    }

    /// Records a delivery; returns `true` when it arrived out of order
    /// (injected earlier than an already-delivered packet of the pair).
    pub(super) fn note(&mut self, src: NodeId, dst: NodeId, injected: u64) -> bool {
        let last = match self {
            DeliveredLog::Dense { n, last } => &mut last[src * *n + dst],
            DeliveredLog::Sparse(map) => map.entry((src, dst)).or_insert(0),
        };
        if injected < *last {
            true
        } else {
            *last = injected;
            false
        }
    }
}

pub(super) struct Simulator<'a> {
    pub(super) topo: Topology,
    pub(super) relation: &'a dyn RoutingRelation,
    /// `relation` bound to the current `topo`: taken once per run and
    /// again after each applied fault.
    pub(super) bound: Arc<dyn BoundRelation + 'a>,
    pub(super) cfg: &'a SimConfig,
    /// Optional flight recorder; `None` keeps every emission site on a
    /// single-branch fast path.
    pub(super) rec: Option<&'a mut Recorder>,
    pub(super) layout: Layout,
    pub(super) links: Links,
    /// Local input port of each in-slot (`2 * dims` for injection slots)
    /// and the router it belongs to.
    pub(super) in_port: Vec<u8>,
    pub(super) in_node: Vec<u32>,
    pub(super) in_vcs: Vec<InVc>,
    /// Per in-slot, the route of the unallocated head at its front.
    pub(super) head_routes: Vec<HeadRoute>,
    pub(super) out_vcs: Vec<OutVc>,
    pub(super) eject_owner: Vec<Option<(Pid, usize)>>,
    /// The event masks: what the two per-cycle passes visit instead of
    /// scanning every slot. `heads` has a bit per in-slot, set iff the
    /// buffer is non-empty and `alloc` is `None` (an unallocated head
    /// waits at its front). `owned` has a row of `1 << owned_shift` bits
    /// per router: a bit per out-slot that has an owner, then one for a
    /// claimed ejection port. Both are updated where those conditions
    /// change, rebuilt from the state after a fault, and checked against
    /// it every cycle in debug builds.
    pub(super) heads: Vec<u64>,
    pub(super) owned: Vec<u64>,
    pub(super) owned_shift: u32,
    /// The third event structure: the waiting heads VC allocation need
    /// not look at. `asleep` has a bit per in-slot; `allocate` walks
    /// `heads & !asleep`. `waiters` has a row of `waiter_words` words per
    /// output resource — out-slot `o` is row `o`, the ejection port of
    /// router `n` is row `out_vcs.len() + n` — with a bit per local
    /// in-slot of the resource's router. Set in `allocate`: a head whose
    /// routed, non-empty candidate list has no feasible member registers
    /// on every candidate's row and sleeps; a head at its destination
    /// whose ejection port is taken registers on that row and sleeps.
    /// Cleared by `wake`, which takes a row and clears `asleep` for every
    /// slot on it: when a tail releases the output VC or the ejection
    /// port, and on a credit return iff feasibility reads credits
    /// (`claim_credits > 0`); a fault wakes everyone, the routes being
    /// dropped with it. Waking is conservative — a bit a since-granted
    /// head left on another row costs one failed selection — and sleeping
    /// is exact: nothing else can make a failed selection succeed, which
    /// `sleepers_are_blocked` checks every cycle in debug builds. Heads
    /// with an empty candidate list (a routing fault is counted on every
    /// cycle one is seen) and store-and-forward heads still waiting for
    /// their whole packet never sleep.
    pub(super) asleep: Vec<u64>,
    pub(super) waiters: Vec<u64>,
    pub(super) waiter_words: usize,
    /// The credits an unowned output VC must hold before a head may claim
    /// it: the whole buffer under `SinglePacket`, room for the packet
    /// under VCT/SAF, 0 when feasibility does not read credits.
    pub(super) claim_credits: usize,
    /// Test-only reference mode: every mask bit is forced on and every
    /// sleeper woken before the two passes, which then visit every slot
    /// as the full scan did.
    #[cfg(test)]
    pub(super) full_visit: bool,
    pub(super) packets: Vec<Packet>,
    /// Flits in flight on links: (arrival cycle, destination in-slot, flit).
    pub(super) in_transit: VecDeque<(u64, usize, FlitTag)>,
    /// Next unconsumed event index for trace-driven traffic.
    pub(super) trace_cursor: usize,
    pub(super) rng: Rng64,
    // statistics
    pub(super) injected: u64,
    pub(super) delivered: u64,
    pub(super) measured_injected: u64,
    pub(super) measured_delivered: u64,
    pub(super) latency_sum: u64,
    pub(super) latency_max: u64,
    pub(super) latencies: Vec<u64>,
    /// Log-bucketed latency histogram (always on; feeds `SimResult` and,
    /// when live metrics are enabled, the global registry).
    pub(super) latency_hist: ebda_obs::Histogram,
    /// Whether the live metrics registry was enabled when the run started
    /// — snapshotted once so a mid-run toggle cannot skew a run.
    pub(super) metrics_on: bool,
    /// Whether the self-profiler was enabled at run start (same
    /// snapshot-once rule as `metrics_on`); `false` keeps every timing
    /// site a single branch with no clock reads and no allocations.
    pub(super) prof_on: bool,
    /// Work counts and phase clocks, flushed once in `finish()`.
    pub(super) prof: ProfAcc,
    /// Run start time, set at the top of `run()` when `prof_on`.
    pub(super) prof_run_t0: Option<Instant>,
    /// Head-of-packet injection-queue residency, live-metrics only.
    pub(super) inject_queue_hist: ebda_obs::Histogram,
    /// Per-channel buffer occupancy sampled every 64 cycles, live-metrics
    /// only.
    pub(super) occupancy_hist: ebda_obs::Histogram,
    /// Switch-allocation attempts lost to exhausted credits.
    pub(super) credit_stalls: u64,
    /// Flits ejected over the whole run (not just the measurement
    /// window) — the watchdog's notion of end-to-end progress.
    pub(super) flits_ejected_total: u64,
    /// Online watchdog state: trips so far this run.
    pub(super) watchdog_trips: u64,
    /// The wait cycle found by the last trip that found one.
    pub(super) watchdog_suspected: Vec<WaitEdge>,
    pub(super) watchdog_suspected_at: u64,
    /// Consecutive non-ejecting cycles with a credit stall while traffic
    /// was in flight.
    pub(super) stall_streak: u64,
    /// A trip disarms the watchdog until the next ejection, so one
    /// freeze episode produces one trip instead of one per cycle.
    pub(super) watchdog_armed: bool,
    /// Structured edges of the hard-deadlock post-mortem, set just
    /// before the run aborts.
    pub(super) final_wait_edges: Vec<SuspectedEdge>,
    pub(super) hop_sum: u64,
    pub(super) window_flits_ejected: u64,
    pub(super) channel_flits: Vec<u64>,
    pub(super) routing_faults: u64,
    /// Highest injection cycle delivered so far per (src, dst) pair.
    pub(super) last_delivered: DeliveredLog,
    pub(super) reordered: u64,
    /// Total flits currently sitting in input buffers, maintained
    /// incrementally so the per-cycle in-flight check is O(1) instead of
    /// a scan over every VC buffer.
    pub(super) buffered_flits: usize,
    /// Scratch reused across cycles by `arbitrate_and_move`. With the
    /// per-slot candidate lists of `head_routes` these are why the cycle
    /// loop stops allocating once buffers have reached their working
    /// size (pinned by `tests/prof_overhead.rs`).
    pub(super) moves_buf: Vec<(usize, Option<usize>)>,
    pub(super) arrivals_buf: Vec<(usize, FlitTag)>,
    /// Per-node ON/OFF state for bursty traffic (all OFF and unread for
    /// every other pattern).
    pub(super) burst_on: Vec<bool>,
    /// Next unapplied fault-schedule index (the schedule is sorted once).
    pub(super) fault_cursor: usize,
    pub(super) faults_sorted: Vec<(u64, usize, ebda_core::Dimension, ebda_core::Direction)>,
    pub(super) dropped: u64,
}

impl<'a> Simulator<'a> {
    pub(super) fn new(
        topo: &'a Topology,
        relation: &'a dyn RoutingRelation,
        cfg: &'a SimConfig,
        rec: Option<&'a mut Recorder>,
    ) -> Self {
        let vcs = relation.vcs(topo);
        let layout = Layout::new(topo, &vcs);
        let n = topo.node_count();
        let in_port = (0..n * layout.in_per_node)
            .map(|slot| layout.in_slot_parts(slot).1 as u8)
            .collect();
        let in_node = (0..n * layout.in_per_node)
            .map(|slot| (slot / layout.in_per_node) as u32)
            .collect();
        let heads = vec![0; (n * layout.in_per_node).div_ceil(64)];
        let owned_shift = (layout.out_per_node + 1)
            .next_power_of_two()
            .trailing_zeros();
        let in_vcs = (0..n * layout.in_per_node)
            .map(|_| InVc {
                buf: VecDeque::new(),
                alloc: Alloc::None,
            })
            .collect();
        let head_routes = (0..n * layout.in_per_node)
            .map(|_| HeadRoute::default())
            .collect();
        let out_vcs = (0..n * layout.out_per_node)
            .map(|_| OutVc {
                owner: None,
                src_in: usize::MAX,
                credits: cfg.buffer_depth,
            })
            .collect();
        let channel_flits = vec![0u64; n * layout.out_per_node];
        let waiter_words = layout.in_per_node.div_ceil(64);
        let waiters = vec![0; n * (layout.out_per_node + 1) * waiter_words];
        let mut claim_credits = 0;
        if cfg.buffer_policy == BufferPolicy::SinglePacket {
            claim_credits = cfg.buffer_depth; // downstream buffer empty: Duato mode
        }
        if cfg.switching != Switching::Wormhole {
            claim_credits = claim_credits.max(cfg.packet_length); // VCT/SAF: the whole packet fits
        }
        let mut faults_sorted = cfg.fault_schedule.clone();
        faults_sorted.sort_by_key(|&(c, ..)| c);
        Simulator {
            topo: topo.clone(),
            relation,
            bound: ebda_routing::bind(relation, topo),
            cfg,
            rec,
            links: Links::new(topo, &layout),
            layout,
            in_port,
            in_node,
            in_vcs,
            head_routes,
            out_vcs,
            eject_owner: vec![None; n],
            asleep: vec![0; heads.len()],
            waiters,
            waiter_words,
            claim_credits,
            heads,
            owned: vec![0; (n << owned_shift).div_ceil(64)],
            owned_shift,
            #[cfg(test)]
            full_visit: false,
            packets: Vec::new(),
            in_transit: VecDeque::new(),
            trace_cursor: 0,
            rng: Rng64::new(cfg.seed),
            injected: 0,
            delivered: 0,
            measured_injected: 0,
            measured_delivered: 0,
            latency_sum: 0,
            latency_max: 0,
            latencies: Vec::new(),
            latency_hist: ebda_obs::Histogram::new(),
            metrics_on: ebda_obs::metrics::enabled(),
            prof_on: ebda_obs::prof::enabled(),
            prof: ProfAcc::default(),
            prof_run_t0: None,
            inject_queue_hist: ebda_obs::Histogram::new(),
            occupancy_hist: ebda_obs::Histogram::new(),
            credit_stalls: 0,
            flits_ejected_total: 0,
            watchdog_trips: 0,
            watchdog_suspected: Vec::new(),
            watchdog_suspected_at: 0,
            stall_streak: 0,
            watchdog_armed: true,
            final_wait_edges: Vec::new(),
            hop_sum: 0,
            window_flits_ejected: 0,
            channel_flits,
            routing_faults: 0,
            last_delivered: DeliveredLog::new(n),
            reordered: 0,
            buffered_flits: 0,
            moves_buf: Vec::new(),
            arrivals_buf: Vec::new(),
            burst_on: vec![false; n],
            fault_cursor: 0,
            faults_sorted,
            dropped: 0,
        }
    }

    /// A flit was queued on `slot`: if nothing is allocated there, an
    /// unallocated head is (already or now) at its front.
    pub(super) fn note_arrival(&mut self, slot: usize) {
        if self.in_vcs[slot].alloc == Alloc::None {
            set_bit(&mut self.heads, slot);
        }
    }

    /// Index in `owned` of local out-slot `local` of `node`; the
    /// ejection port is local slot `out_per_node`.
    pub(super) fn owned_bit(&self, node: NodeId, local: usize) -> usize {
        (node << self.owned_shift) + local
    }

    /// The `waiters` row of `node`'s ejection port (an out-slot's row is
    /// the out-slot).
    pub(super) fn eject_row(&self, node: NodeId) -> usize {
        self.out_vcs.len() + node
    }

    /// The head at the front of `slot` (an in-slot of `node`) cannot
    /// advance until the resource of `row` is released.
    pub(super) fn wait_on(&mut self, row: usize, node: NodeId, slot: usize) {
        let local = slot - node * self.layout.in_per_node;
        set_bit(&mut self.waiters[row * self.waiter_words..], local);
    }

    /// The resource of `row`, at `node`, was released (or gained a credit
    /// that feasibility reads): whoever waited on it looks again. One
    /// load and one branch per row word when nobody did.
    pub(super) fn wake(&mut self, row: usize, node: NodeId) {
        for word in 0..self.waiter_words {
            let at = row * self.waiter_words + word;
            let mut bits = self.waiters[at];
            if bits == 0 {
                continue;
            }
            self.waiters[at] = 0;
            let base = node * self.layout.in_per_node + word * 64;
            while bits != 0 {
                let slot = base + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if test_bit(&self.asleep, slot) {
                    clear_bit(&mut self.asleep, slot);
                    self.prof.head_wakes += 1;
                }
            }
        }
    }

    /// Nobody sleeps and nobody is registered: after a fault, which drops
    /// the routes the registrations were made on, and before each pass of
    /// the tests' full scan.
    pub(super) fn wake_all(&mut self) {
        let sleepers = self.asleep.iter().map(|w| u64::from(w.count_ones()));
        self.prof.head_wakes += sleepers.sum::<u64>();
        self.asleep.fill(0);
        self.waiters.fill(0);
    }

    /// Calls `f(is_head, bit, on)` for every bit of `heads`, then of
    /// `owned`, with the value the state implies for it.
    fn expected_mask_bits(&self, mut f: impl FnMut(bool, usize, bool)) {
        for (slot, vc) in self.in_vcs.iter().enumerate() {
            f(true, slot, vc.alloc == Alloc::None && !vc.buf.is_empty());
        }
        let per_node = self.layout.out_per_node;
        for (node, eject) in self.eject_owner.iter().enumerate() {
            for (local, out) in self.out_vcs[node * per_node..][..per_node]
                .iter()
                .enumerate()
            {
                f(false, self.owned_bit(node, local), out.owner.is_some());
            }
            f(false, self.owned_bit(node, per_node), eject.is_some());
        }
    }

    /// Sets every mask bit to `value(what the state implies)`: the
    /// identity rebuilds both masks from the state — used after teardown,
    /// like `recompute_credits` — and `|_| true` is the tests' full scan.
    pub(super) fn assign_masks(&mut self, value: impl Fn(bool) -> bool) {
        let mut heads = std::mem::take(&mut self.heads);
        let mut owned = std::mem::take(&mut self.owned);
        heads.fill(0);
        owned.fill(0);
        self.expected_mask_bits(|is_head, bit, on| {
            if value(on) {
                set_bit(if is_head { &mut heads } else { &mut owned }, bit);
            }
        });
        self.heads = heads;
        self.owned = owned;
    }

    /// Whether both masks say exactly what the state implies. Runs every
    /// cycle in debug builds, so it must not allocate.
    pub(super) fn masks_match_state(&self) -> bool {
        let mut ok = true;
        self.expected_mask_bits(|is_head, bit, on| {
            ok &= test_bit(if is_head { &self.heads } else { &self.owned }, bit) == on;
        });
        ok
    }

    /// Whether every sleeper is an unallocated head that would fail again
    /// right now and is registered wherever a release could change that —
    /// a sleeper that is not would be a lost wake-up, which freezes a worm
    /// as a routing deadlock does. Runs every cycle in debug builds, so
    /// it must not allocate.
    pub(super) fn sleepers_are_blocked(&self, cycle: u64) -> bool {
        let mut ok = true;
        let mut from = 0;
        while let Some(slot) = next_set_bit(&self.asleep, from) {
            from = slot + 1;
            let node = self.in_node[slot] as usize;
            let vc = &self.in_vcs[slot];
            let Some(front) = vc.buf.front().filter(|f| f.idx == 0) else {
                return false;
            };
            ok &= test_bit(&self.heads, slot) && vc.alloc == Alloc::None;
            let local = slot - node * self.layout.in_per_node;
            let registered = |row: usize| test_bit(&self.waiters[row * self.waiter_words..], local);
            if self.packets[front.pid as usize].dst == node {
                ok &= self.eject_owner[node].is_some() && registered(self.eject_row(node));
            } else {
                let route = &self.head_routes[slot];
                ok &= route.routed
                    && !route.cands.is_empty()
                    && self.select(cycle, node, &route.cands).is_none()
                    && (route.cands.iter()).all(|&ch| registered(self.cand_out_slot(node, ch)));
            }
        }
        ok
    }
}
