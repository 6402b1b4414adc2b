//! Property tests for the discrete-event engine and the topology.

use proptest::prelude::*;

use ppm_simnet::engine::{Engine, TimerWheel};
use ppm_simnet::time::{SimDuration, SimTime};
use ppm_simnet::topology::{CpuClass, HostId, HostSpec, Topology};

// ---- engine ---------------------------------------------------------------

proptest! {
    /// Events pop in nondecreasing time order regardless of insertion
    /// order, and ties preserve insertion order.
    #[test]
    fn engine_pops_sorted_and_stable(delays in prop::collection::vec(0u64..1000, 1..200)) {
        let mut engine: Engine<usize> = Engine::new();
        for (i, &d) in delays.iter().enumerate() {
            engine.schedule(SimDuration::from_micros(d), i);
        }
        let mut popped = Vec::new();
        while let Some((t, idx)) = engine.pop() {
            popped.push((t, idx));
        }
        prop_assert_eq!(popped.len(), delays.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "stable tie-break by insertion order");
            }
        }
        // Every event popped at exactly its scheduled time.
        for (t, idx) in popped {
            prop_assert_eq!(t, SimTime::from_micros(delays[idx]));
        }
    }

    /// Cancellation removes exactly the cancelled events.
    #[test]
    fn engine_cancellation_is_exact(
        delays in prop::collection::vec(0u64..1000, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut engine: Engine<usize> = Engine::new();
        let ids: Vec<_> = delays
            .iter()
            .enumerate()
            .map(|(i, &d)| engine.schedule(SimDuration::from_micros(d), i))
            .collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                prop_assert!(engine.cancel(*id));
            } else {
                expected.push(i);
            }
        }
        let mut got: Vec<usize> = Vec::new();
        while let Some((_, idx)) = engine.pop() {
            got.push(idx);
        }
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Interleaved scheduling never lets the clock move backwards.
    #[test]
    fn engine_clock_is_monotone(ops in prop::collection::vec((0u64..500, any::<bool>()), 1..200)) {
        let mut engine: Engine<u64> = Engine::new();
        let mut last = SimTime::ZERO;
        for (d, pop_now) in ops {
            engine.schedule(SimDuration::from_micros(d), d);
            if pop_now {
                if let Some((t, _)) = engine.pop() {
                    prop_assert!(t >= last);
                    last = t;
                }
            }
        }
        while let Some((t, _)) = engine.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }
}

// ---- engine vs reference model --------------------------------------------

/// A deliberately naive event queue: a flat vector scanned linearly for
/// the minimum `(time, seq)` pair. Trivially correct, O(n) everywhere.
struct ModelQueue {
    now: u64,
    next_seq: u64,
    pending: Vec<(u64, u64, u64)>, // (at_us, seq, payload)
}

impl ModelQueue {
    fn new() -> Self {
        ModelQueue {
            now: 0,
            next_seq: 0,
            pending: Vec::new(),
        }
    }

    fn schedule(&mut self, delay_us: u64, payload: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push((self.now + delay_us, seq, payload));
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        match self.pending.iter().position(|&(_, s, _)| s == seq) {
            Some(i) => {
                self.pending.swap_remove(i);
                true
            }
            None => false,
        }
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        let best = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(at, seq, _))| (at, seq))?
            .0;
        let (at, _, payload) = self.pending.swap_remove(best);
        self.now = at;
        Some((at, payload))
    }
}

proptest! {
    /// The indexed heap is observationally equivalent to the naive model
    /// under arbitrary interleavings of schedule / cancel / pop —
    /// including cancels aimed at already-fired and already-cancelled
    /// events.
    #[test]
    fn engine_matches_reference_model(
        ops in prop::collection::vec((0u8..8, 0u64..2_000, any::<u16>()), 1..300)
    ) {
        let mut engine: Engine<u64> = Engine::new();
        let mut model = ModelQueue::new();
        // Every id ever issued, fired or not: cancels draw from here so
        // they regularly target dead ids.
        let mut engine_ids = Vec::new();
        let mut model_ids = Vec::new();

        for (kind, delay, pick) in ops {
            match kind {
                // Schedule (weight 3/8).
                0..=2 => {
                    let payload = delay ^ u64::from(pick);
                    engine_ids.push(engine.schedule(SimDuration::from_micros(delay), payload));
                    model_ids.push(model.schedule(delay, payload));
                }
                // Cancel a previously issued id (weight 3/8).
                3..=5 => {
                    if !engine_ids.is_empty() {
                        let k = usize::from(pick) % engine_ids.len();
                        prop_assert_eq!(
                            engine.cancel(engine_ids[k]),
                            model.cancel(model_ids[k]),
                            "cancel verdicts diverge"
                        );
                    }
                }
                // Pop (weight 2/8).
                _ => {
                    let got = engine.pop().map(|(t, v)| (t.as_micros(), v));
                    prop_assert_eq!(got, model.pop(), "pop streams diverge");
                }
            }
            prop_assert_eq!(engine.pending(), model.pending.len());
            prop_assert_eq!(engine.now().as_micros(), model.now);
        }

        // Drain both to the end.
        loop {
            let got = engine.pop().map(|(t, v)| (t.as_micros(), v));
            let want = model.pop();
            prop_assert_eq!(got, want, "drain diverges");
            if want.is_none() {
                break;
            }
        }
        prop_assert_eq!(engine.pending(), 0);
    }
}

// ---- topology ---------------------------------------------------------------

/// Reference all-pairs shortest paths (Floyd–Warshall).
fn reference_hops(n: usize, edges: &[(usize, usize)], up: &[bool]) -> Vec<Vec<Option<u32>>> {
    const INF: u32 = u32::MAX / 4;
    let mut d = vec![vec![INF; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        if up[i] {
            row[i] = 0;
        }
    }
    for &(a, b) in edges {
        if up[a] && up[b] {
            d[a][b] = d[a][b].min(1);
            d[b][a] = d[b][a].min(1);
        }
    }
    for k in 0..n {
        if !up[k] {
            continue;
        }
        for i in 0..n {
            for j in 0..n {
                let via = d[i][k].saturating_add(d[k][j]);
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d.into_iter()
        .map(|row| row.into_iter().map(|v| (v < INF).then_some(v)).collect())
        .collect()
}

proptest! {
    /// BFS hop counts agree with Floyd–Warshall on random graphs with
    /// random host outages.
    #[test]
    fn hops_match_reference(
        n in 2usize..10,
        edge_bits in prop::collection::vec(any::<bool>(), 45),
        up_bits in prop::collection::vec(any::<bool>(), 10),
    ) {
        let mut topo = Topology::new();
        let ids: Vec<_> = (0..n)
            .map(|i| topo.add_host(HostSpec::new(format!("h{i}"), CpuClass::Vax780)))
            .collect();
        let mut edges = Vec::new();
        let mut k = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                if *edge_bits.get(k).unwrap_or(&false) {
                    topo.add_link(ids[i], ids[j]);
                    edges.push((i, j));
                }
                k += 1;
            }
        }
        let up: Vec<bool> = (0..n).map(|i| *up_bits.get(i).unwrap_or(&true)).collect();
        for (i, &u) in up.iter().enumerate() {
            topo.set_host_up(ids[i], u);
        }
        let expect = reference_hops(n, &edges, &up);
        for i in 0..n {
            for j in 0..n {
                let got = topo.hops(ids[i], ids[j]);
                prop_assert_eq!(got, expect[i][j], "hops({},{})", i, j);
            }
        }
    }

    /// `reachable_from` is exactly the set of hosts with a finite hop count.
    #[test]
    fn reachability_matches_hops(
        n in 2usize..9,
        edge_bits in prop::collection::vec(any::<bool>(), 36),
    ) {
        let mut topo = Topology::new();
        let ids: Vec<_> = (0..n)
            .map(|i| topo.add_host(HostSpec::new(format!("h{i}"), CpuClass::Sun2)))
            .collect();
        let mut k = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                if *edge_bits.get(k).unwrap_or(&false) {
                    topo.add_link(ids[i], ids[j]);
                }
                k += 1;
            }
        }
        for &src in &ids {
            let reach = topo.reachable_from(src);
            for &dst in &ids {
                let reachable = topo.hops(src, dst).is_some();
                prop_assert_eq!(reach.contains(&dst), reachable);
            }
        }
    }
}

/// The mutable model a hop-cache run is checked against: links with
/// their up flags and host up flags.
#[derive(Clone)]
struct NetModelRef {
    links: Vec<(usize, usize, bool)>,
    up: Vec<bool>,
}

impl NetModelRef {
    /// Uncached BFS over live hosts and live links.
    fn hops(&self, a: usize, b: usize) -> Option<u32> {
        if !self.up[a] || !self.up[b] {
            return None;
        }
        let mut dist = vec![None; self.up.len()];
        dist[a] = Some(0);
        let mut queue = std::collections::VecDeque::from([a]);
        while let Some(u) = queue.pop_front() {
            let du = dist[u].expect("queued hosts have a distance");
            for &(x, y, live) in &self.links {
                let v = if x == u {
                    y
                } else if y == u {
                    x
                } else {
                    continue;
                };
                if live && self.up[v] && dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist[b]
    }

    fn assert_matches(&self, topo: &Topology, ids: &[HostId]) {
        for (i, &a) in ids.iter().enumerate() {
            for (j, &b) in ids.iter().enumerate() {
                assert_eq!(topo.hops(a, b), self.hops(i, j), "hops({i},{j})");
            }
        }
    }
}

proptest! {
    /// The memoized hop distances track every mutation: after each random
    /// `add_host`, `add_link`, `set_link_up` or `set_host_up`, `hops`
    /// equals an uncached BFS for every pair (each check fills the whole
    /// cache, so a missed invalidation is caught). A clone taken before a
    /// mutation keeps answering for its own topology.
    #[test]
    fn hop_cache_matches_uncached_bfs_under_mutation(
        n in 2usize..10,
        ops in prop::collection::vec((0u8..4, 0usize..12, 0usize..12, any::<bool>()), 1..40),
    ) {
        let mut topo = Topology::new();
        let mut ids: Vec<HostId> = (0..n)
            .map(|i| topo.add_host(HostSpec::new(format!("h{i}"), CpuClass::Vax780)))
            .collect();
        let mut model = NetModelRef { links: Vec::new(), up: vec![true; n] };
        model.assert_matches(&topo, &ids);
        for (kind, x, y, flag) in ops {
            let before = (topo.clone(), model.clone());
            let (a, b) = (x % ids.len(), y % ids.len());
            match kind {
                0 if a != b => {
                    topo.add_link(ids[a], ids[b]);
                    if !model.links.iter().any(|&(p, q, _)| (p, q) == (a, b) || (p, q) == (b, a)) {
                        model.links.push((a, b, true));
                    }
                }
                1 => {
                    let found = topo.set_link_up(ids[a], ids[b], flag);
                    let mut known = false;
                    for l in &mut model.links {
                        if (l.0, l.1) == (a, b) || (l.0, l.1) == (b, a) {
                            l.2 = flag;
                            known = true;
                        }
                    }
                    prop_assert_eq!(found, known);
                }
                2 => {
                    topo.set_host_up(ids[a], flag);
                    model.up[a] = flag;
                }
                3 if ids.len() < 12 => {
                    let name = format!("h{}", ids.len());
                    ids.push(topo.add_host(HostSpec::new(name, CpuClass::Sun2)));
                    model.up.push(true);
                }
                _ => {}
            }
            model.assert_matches(&topo, &ids);
            let (old_topo, old_model) = before;
            old_model.assert_matches(&old_topo, &ids[..old_model.up.len()]);
        }
    }
}

// ---- timer wheel vs indexed heap ------------------------------------------

proptest! {
    /// The hierarchical timer wheel and the indexed heap are
    /// interchangeable: driven with the identical random
    /// schedule/cancel/advance workload they fire the same events in the
    /// same order (including ties) at the same times, agree on every
    /// cancellation verdict, and report identical `pending()` counts
    /// throughout. Delays span all wheel levels and the far-future
    /// overflow heap.
    #[test]
    fn timer_wheel_matches_indexed_heap(
        ops in prop::collection::vec((0u64..20_000_000, 0u8..10), 1..300),
    ) {
        let mut heap: Engine<usize> = Engine::new();
        let mut wheel: TimerWheel<usize> = TimerWheel::new();
        let mut ids = Vec::new();
        for (i, &(arg, kind)) in ops.iter().enumerate() {
            match kind {
                0..=5 => {
                    let d = SimDuration::from_micros(arg);
                    ids.push((heap.schedule(d, i), wheel.schedule(d, i)));
                }
                6 | 7 => {
                    if !ids.is_empty() {
                        // Pseudo-random pick; may hit an already-fired or
                        // already-cancelled id — the verdicts must agree.
                        let (hid, wid) = ids[(arg as usize) % ids.len()];
                        prop_assert_eq!(heap.cancel(hid), wheel.cancel(wid));
                    }
                }
                _ => {
                    prop_assert_eq!(heap.pop(), wheel.pop());
                    prop_assert_eq!(heap.now(), wheel.now());
                }
            }
            prop_assert_eq!(heap.pending(), wheel.pending());
        }
        // Drain both: the full remaining fire order must match.
        loop {
            let h = heap.pop();
            let w = wheel.pop();
            prop_assert_eq!(h.clone(), w);
            prop_assert_eq!(heap.pending(), wheel.pending());
            prop_assert_eq!(heap.now(), wheel.now());
            if h.is_none() {
                break;
            }
        }
    }
}

// ---- fault plans ------------------------------------------------------------

use ppm_simnet::fault::{FaultEvent, FaultKind, FaultPlan, WireFaultKind, WireFaults, WireRule};

fn arb_host() -> impl Strategy<Value = String> {
    (0u8..5).prop_map(|i| ["calder", "kim", "ucbarpa", "ernie", "vangogh"][i as usize].to_string())
}

fn arb_link_name() -> impl Strategy<Value = String> {
    (0u8..4).prop_map(|i| {
        ["core:tor0-spine1", "edge:calder", "wan:kim", "mile:h7"][i as usize].to_string()
    })
}

fn arb_fault_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        arb_host().prop_map(|host| FaultKind::Crash { host }),
        arb_host().prop_map(|host| FaultKind::Restart { host }),
        (arb_host(), arb_host()).prop_map(|(a, b)| FaultKind::LinkDown { a, b }),
        (arb_host(), arb_host()).prop_map(|(a, b)| FaultKind::LinkUp { a, b }),
        arb_link_name().prop_map(|link| FaultKind::NetLinkDown { link }),
        arb_link_name().prop_map(|link| FaultKind::NetLinkUp { link }),
        (arb_host(), 0u8..3).prop_map(|(host, c)| FaultKind::Kill {
            host,
            command: ["lpm", "pmd", "worker"][c as usize].to_string(),
        }),
    ]
}

fn arb_wire_rule() -> impl Strategy<Value = WireRule> {
    let kind = prop_oneof![
        Just(WireFaultKind::Drop),
        Just(WireFaultKind::Dup),
        (1u64..10_000).prop_map(|us| WireFaultKind::Reorder {
            skew: SimDuration::from_micros(us),
        }),
        (1u64..100_000).prop_map(|us| WireFaultKind::Delay {
            extra: SimDuration::from_micros(us),
        }),
    ];
    (
        kind,
        0u32..=1000,
        prop::option::of(arb_host()),
        prop::option::of(arb_host()),
        prop::option::of(0u64..20_000_000),
        prop::option::of(0u64..20_000_000),
    )
        .prop_map(|(kind, permille, from, to, after, until)| {
            let mut rule = WireRule::new(kind, f64::from(permille) / 1000.0);
            rule.from = from;
            rule.to = to;
            rule.after = after.map(SimTime::from_micros);
            rule.until = until.map(SimTime::from_micros);
            rule
        })
}

fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        prop::collection::vec((0u64..60_000_000, arb_fault_kind()), 0..12),
        prop::collection::vec(arb_wire_rule(), 0..6),
    )
        .prop_map(|(seed, events, wire)| FaultPlan {
            seed,
            events: events
                .into_iter()
                .map(|(at, kind)| FaultEvent {
                    at: SimTime::from_micros(at),
                    kind,
                })
                .collect(),
            wire,
        })
}

proptest! {
    /// Satellite invariant: a plan survives an encode → parse roundtrip
    /// exactly — every event, rule, scope and the seed.
    #[test]
    fn fault_plan_roundtrips(plan in arb_fault_plan()) {
        let text = plan.encode();
        let again = FaultPlan::parse(&text);
        prop_assert_eq!(Ok(plan), again, "canonical text:\n{}", text);
    }

    /// Satellite invariant: the seeded drop/dup/reorder schedule is a
    /// pure function of (seed, message sequence) — two generators built
    /// from the same plan make byte-identical decisions over any traffic.
    #[test]
    fn wire_fault_schedule_is_deterministic(
        plan in arb_fault_plan(),
        traffic in prop::collection::vec((0u8..5, 0u8..5, 0u64..20_000_000), 0..300),
    ) {
        const HOSTS: [&str; 5] = ["calder", "kim", "ucbarpa", "ernie", "vangogh"];
        let mut a = WireFaults::new(&plan);
        let mut b = WireFaults::new(&plan);
        for (f, t, at) in traffic {
            let (from, to) = (HOSTS[f as usize], HOSTS[t as usize]);
            let now = SimTime::from_micros(at);
            prop_assert_eq!(a.decide(from, to, now), b.decide(from, to, now));
        }
    }
}

// ---------------------------------------------------------------------------
// Netmodel routing: determinism and symmetry (PR 10 satellites).
// ---------------------------------------------------------------------------

use ppm_simnet::routing::RoutingTable;
use ppm_simnet::topology::{NetGraph, NetLinkSpec, NetSpec};

/// An arbitrary physical topology: `hosts` leaf hosts, `switches`
/// internal nodes, and a random undirected edge set (plus a host chain so
/// most pairs are reachable — unreachable pairs are also a valid case and
/// still occur through the link up/down mask).
fn arb_net() -> impl Strategy<Value = (NetSpec, Vec<String>, Vec<bool>)> {
    (2usize..10, 0usize..4).prop_flat_map(|(hosts, switches)| {
        let n = hosts + switches;
        let max_edges = n * (n - 1) / 2;
        (
            Just(hosts),
            Just(switches),
            prop::collection::vec((0usize..n, 0usize..n), 0..max_edges.max(1)),
            prop::collection::vec(any::<bool>(), n + max_edges),
        )
            .prop_map(|(hosts, switches, edges, mask)| {
                let name_of = |i: usize| {
                    if i < hosts {
                        format!("h{i}")
                    } else {
                        format!("s{}", i - hosts)
                    }
                };
                let host_names: Vec<String> = (0..hosts).map(|i| format!("h{i}")).collect();
                let mut spec = NetSpec {
                    name: "prop".into(),
                    switches: (0..switches).map(|i| format!("s{i}")).collect(),
                    links: Vec::new(),
                };
                let mut seen = std::collections::HashSet::new();
                let mut push = |spec: &mut NetSpec, a: usize, b: usize| {
                    let (a, b) = (a.min(b), a.max(b));
                    if a == b || !seen.insert((a, b)) {
                        return;
                    }
                    spec.links.push(NetLinkSpec {
                        name: format!("l{a}-{b}"),
                        a: name_of(a),
                        b: name_of(b),
                        cap_bps: 250_000,
                        lat_us: 5_000,
                        loss: 0.0,
                        core: false,
                    });
                };
                for w in 1..hosts {
                    push(&mut spec, w - 1, w);
                }
                for (a, b) in edges {
                    push(&mut spec, a, b);
                }
                (spec, host_names, mask)
            })
    })
}

/// Applies the up/down mask to hosts and links so the properties also
/// cover degraded graphs.
fn masked_graph(spec: &NetSpec, host_names: &[String], mask: &[bool]) -> NetGraph {
    let mut g = NetGraph::build(spec, host_names).expect("spec is well-formed");
    for (i, &up) in mask.iter().take(host_names.len()).enumerate() {
        g.set_host_up(i as u32, up);
    }
    for (i, &up) in mask.iter().skip(host_names.len()).enumerate() {
        if i < g.links.len() {
            g.set_link_up(i as u32, up);
        }
    }
    g
}

proptest! {
    /// Satellite invariant: the route table is a pure function of the
    /// graph — two builds over the same (masked) topology serialize to
    /// byte-identical tables.
    #[test]
    fn routing_table_is_deterministic(net in arb_net()) {
        let (spec, hosts, mask) = net;
        let g = masked_graph(&spec, &hosts, &mask);
        let a = RoutingTable::build(&g).table_bytes();
        let b = RoutingTable::build(&g).table_bytes();
        prop_assert_eq!(a, b);
    }

    /// Satellite invariant: on undirected links the route from b to a is
    /// the exact reverse of the route from a to b (canonical unordered-
    /// pair construction), and routes are consistent with reachability.
    #[test]
    fn routes_are_symmetric(net in arb_net()) {
        let (spec, hosts, mask) = net;
        let g = masked_graph(&spec, &hosts, &mask);
        let t = RoutingTable::build(&g);
        for a in 0..hosts.len() as u32 {
            for b in 0..hosts.len() as u32 {
                match (t.route(a, b), t.route(b, a)) {
                    (Some((mut fn_, mut fl)), Some((rn, rl))) => {
                        fn_.reverse();
                        fl.reverse();
                        prop_assert_eq!(&fn_, &rn, "{}->{} nodes", a, b);
                        prop_assert_eq!(&fl, &rl, "{}->{} links", a, b);
                        prop_assert!(t.reachable(a, b));
                        // Every consecutive pair is really joined by the
                        // named link, and the link is live.
                        for (w, l) in rn.windows(2).zip(&rl) {
                            let link = &g.links[*l as usize];
                            prop_assert!(link.up);
                            let (x, y) = (w[0].min(w[1]), w[0].max(w[1]));
                            prop_assert_eq!((link.a.min(link.b), link.a.max(link.b)), (x, y));
                        }
                    }
                    (None, None) => prop_assert!(!t.reachable(a, b)),
                    (x, y) => prop_assert!(false, "asymmetric reachability: {:?} vs {:?}", x, y),
                }
            }
        }
    }
}
