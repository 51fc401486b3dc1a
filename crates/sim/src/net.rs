//! The network plane: the flattened route tables, the mesh data NoC
//! (flits booked to enter it, flits in flight, per-link arbitration,
//! link waiters, flits parked at a full destination queue, flaky-link
//! stretching) and the CS-Benes control network's per-route transfer
//! slots (Fig 6). Dead links are screened here, at construction, before
//! any cycle runs.
//!
//! A flit's life: [`Net::book`] files it in the spawn ring under the
//! cycle it enters the mesh; [`Net::spawn_due`] puts that cycle's bucket
//! on the mesh in launch order, giving each flit its serial;
//! [`Net::step`] moves it link by link, parking it in its destination
//! queue's FIFO list if the queue is full.

use crate::ctrl::Ctrl;
use crate::data::Data;
use crate::fault::FaultSet;
use crate::machine::SimError;
use crate::stats::Observer;
use crate::timing::{CtrlTransport, TimingModel};
use marionette_cdfg::value::Value;
use marionette_isa::{MachineProgram, RouteClass};
use std::collections::VecDeque;

/// A token crossing the mesh: in flight, waiting in its link's
/// serial-sorted queue after losing arbitration (one grant per link per
/// cycle), or parked at a full destination queue. Waiting and parked
/// flits leave the per-cycle scan; their stall cycles are charged in
/// bulk (`grant or delivery cycle - at`).
#[derive(Clone, Copy, Debug)]
struct Flit {
    route: u32,
    hop: u32,
    value: Value,
    /// Spawn order: (entry cycle, launch order). Ties between flits are
    /// always broken by serial, which reproduces the old single-vector
    /// iteration order.
    serial: u64,
    /// In flight: the earliest cycle the flit may take its next link.
    /// Waiting or parked: the first cycle it contended.
    at: u64,
}

/// A route's flattened hot metadata and transport state (the flit and
/// emit paths never touch `prog.routes`: `Route.path` is heap-indirected
/// and cold).
#[derive(Clone, Debug)]
struct RouteState {
    dst: u32,
    /// Destination input-queue index.
    dst_qi: u32,
    /// Mesh path length (tile count).
    hops: u32,
    /// Base of this route's hop link ids in `Net::hop_link`.
    hop_base: u32,
    /// Activation/dynamic-bound latency surcharge.
    extra: u64,
    /// Carries control tokens.
    ctrl: bool,
    inflight: usize,
    /// Next free control-network transfer slot.
    next_free: u64,
}

/// Dense directed-link id (`from * 4 + dir`, east/west/south/north =
/// 0/1/2/3) — the encoding shared with `marionette_net::Mesh` and
/// [`FaultSet::link_dead`].
fn link_id_for(cols: usize, from: usize, to: usize) -> usize {
    let dir = if to == from + 1 {
        0 // east
    } else if to + 1 == from {
        1 // west
    } else if to == from + cols {
        2 // south
    } else {
        3 // north
    };
    from * 4 + dir
}

pub(crate) struct Net {
    routes: Vec<RouteState>,
    /// Directed-link id of every hop of every route.
    hop_link: Vec<u32>,
    /// The control network's traversal latency, when control tokens ride
    /// it rather than the mesh.
    ctrl_net: Option<u64>,
    /// `tm.route_inflight_cap`.
    route_cap: usize,
    /// `tm.link_latency`.
    link_latency: u64,
    /// Producers waiting for a route's in-flight count to drop.
    pub(crate) blocked_on_route: Vec<Vec<u32>>,
    link_used: Vec<u64>,
    /// Per-directed-link flaky multiplier (1 = nominal), indexed like
    /// `link_used`; empty unless `has_flaky`.
    flaky_mult: Vec<u64>,
    /// Fast-path gate: the healthy flit loop never reads `flaky_mult`.
    has_flaky: bool,
    /// Booked flits `(route, value)`, one bucket per entry cycle
    /// (`cycle & spawn_mask`), each in launch order. A flit is booked at
    /// most the program's largest result latency plus its largest route
    /// surcharge ahead, and the ring is longer than that, so the live
    /// buckets never alias. A slot is one `Vec` header, so the ring's
    /// memory follows the timing model's largest latencies.
    spawn_ring: Vec<Vec<(u32, Value)>>,
    spawn_mask: u64,
    /// The last cycle whose bucket went on the mesh (a firing in that
    /// cycle may still book into it); every booking lies at or after it.
    spawn_base: u64,
    /// Flits booked across all buckets.
    booked: usize,
    /// In-transit flits only, always serial-sorted (spawn appends in
    /// serial order; waiters re-enter by sorted insert); at-destination
    /// flits move to `parked` until their input queue has space, and
    /// flits that lost link arbitration move to `link_waiters`.
    flits: Vec<Flit>,
    flit_serial: u64,
    /// Per-directed-link waiter queue (serial-sorted), indexed like
    /// `link_used`. The head is the arbitration winner once the link is
    /// free: among all flits wanting a link, the smallest serial wins —
    /// identical to the old serial-ordered full-vector scan. Losers
    /// mostly arrive in serial order, so an insert is usually an append.
    link_waiters: Vec<VecDeque<Flit>>,
    /// Links with a non-empty waiter queue.
    waiting_links: Vec<u32>,
    /// Total waiters across all links.
    link_wait_count: usize,
    /// Parked flits per input queue, each a FIFO in serial order: one
    /// route feeds a queue, and that route's flits keep spawn order along
    /// their shared path, so they park in serial order.
    parked: Vec<VecDeque<Flit>>,
    /// Whether a queue has a non-empty parked list.
    queue_parked: Vec<bool>,
    pub(crate) parked_count: usize,
    /// Scratch for serial-ordered candidate wakeups after deliveries.
    deliver_buf: Vec<(u64, u32)>,
    /// Parked queues that regained space since the last delivery scan
    /// (set by [`Net::queue_freed`]): only these can accept a parked
    /// flit, so the delivery pass never rescans queues that stayed full.
    waked_queues: Vec<u32>,
    queue_waked: Vec<bool>,
}

impl Net {
    /// Flattens the route tables and screens them against `faults`: a
    /// dead link on any route that puts flits on the mesh is a
    /// [`SimError::Fault`].
    pub(crate) fn new(
        prog: &MachineProgram,
        tm: &TimingModel,
        faults: &FaultSet,
        data: &Data,
    ) -> Result<Self, SimError> {
        let cols = prog.cols as usize;
        let nlinks = 4 * prog.pe_count();
        let nqueues = data.queue_count();
        let mut hop_link: Vec<u32> = Vec::new();
        let routes = prog.routes.iter().map(|r| {
            let hop_base = hop_link.len() as u32;
            let links = r
                .path
                .windows(2)
                .map(|w| link_id_for(cols, w[0] as usize, w[1] as usize));
            hop_link.extend(links.map(|l| l as u32));
            let mut extra = 0u64;
            if r.activation {
                extra += u64::from(tm.activation_extra);
                if r.dynamic {
                    extra += u64::from(tm.dyn_bound_extra);
                }
            }
            RouteState {
                dst: r.dst,
                dst_qi: data.qidx(r.dst, r.dst_port) as u32,
                hops: r.path.len() as u32,
                hop_base,
                extra,
                ctrl: r.class == RouteClass::Ctrl,
                inflight: 0,
                next_free: 0,
            }
        });
        let has_flaky = faults.has_flaky();
        let routes: Vec<RouteState> = routes.collect();
        // The farthest booking: a result emitted `max_latency` after its
        // firing, launched onto the route with the largest surcharge.
        let reach = data.max_latency() + routes.iter().map(|r| r.extra).max().unwrap_or(0);
        let ring = (reach as usize + 1).next_power_of_two();
        let net = Net {
            routes,
            hop_link,
            ctrl_net: match tm.ctrl_transport {
                CtrlTransport::CtrlNetwork { latency } => Some(u64::from(latency)),
                _ => None,
            },
            route_cap: tm.route_inflight_cap,
            link_latency: u64::from(tm.link_latency),
            blocked_on_route: vec![Vec::new(); prog.routes.len()],
            link_used: vec![u64::MAX; nlinks],
            flaky_mult: if has_flaky {
                (0..nlinks)
                    .map(|l| u64::from(faults.link_mult(l)))
                    .collect()
            } else {
                Vec::new()
            },
            has_flaky,
            spawn_ring: vec![Vec::new(); ring],
            spawn_mask: ring as u64 - 1,
            spawn_base: 0,
            booked: 0,
            flits: Vec::new(),
            flit_serial: 0,
            link_waiters: vec![VecDeque::new(); nlinks],
            waiting_links: Vec::new(),
            link_wait_count: 0,
            parked: vec![VecDeque::new(); nqueues],
            queue_parked: vec![false; nqueues],
            parked_count: 0,
            deliver_buf: Vec::new(),
            waked_queues: Vec::new(),
            queue_waked: vec![false; nqueues],
        };
        // Fault exactly the routes that put flits on the mesh:
        // control-network transfers and combinational loop-unit
        // internals never touch mesh links.
        for (ri, r) in prog.routes.iter().enumerate() {
            if r.path.len() <= 1 || net.ctrl_net_latency(ri).is_some() || data.route_internal[ri] {
                continue;
            }
            for w in r.path.windows(2) {
                let (from, to) = (w[0] as usize, w[1] as usize);
                if faults.link_dead(link_id_for(cols, from, to)) {
                    return Err(SimError::Fault {
                        what: format!(
                            "link:{},{}-{},{}",
                            from / cols,
                            from % cols,
                            to / cols,
                            to % cols
                        ),
                        detail: format!(
                            "route {ri} ({} -> {}) crosses the dead link",
                            r.src, r.dst
                        ),
                    });
                }
            }
        }
        Ok(net)
    }

    /// The control network's latency when route `ri` rides it (a control
    /// route on a model with a dedicated control network), else `None`:
    /// the route's tokens cross the mesh as flits.
    pub(crate) fn ctrl_net_latency(&self, ri: usize) -> Option<u64> {
        self.ctrl_net.filter(|_| self.routes[ri].ctrl)
    }

    /// Whether route `ri` is at its in-flight cap.
    pub(crate) fn route_full(&self, ri: usize) -> bool {
        self.routes[ri].inflight >= self.route_cap
    }

    /// Launches a token onto route `ri` at `at`: returns the cycle it
    /// moves on and whether it rides the control network (then that is
    /// its delivery cycle and the caller reserves the destination slot;
    /// else the cycle it enters the mesh as a flit).
    pub(crate) fn launch(&mut self, ri: usize, at: u64, obs: &mut Observer) -> (u64, bool) {
        let latency = self.ctrl_net_latency(ri);
        let r = &mut self.routes[ri];
        r.inflight += 1;
        obs.token(r.ctrl);
        let at = at + r.extra;
        match latency {
            Some(latency) => {
                let slot = at.max(r.next_free);
                r.next_free = slot + 1;
                (slot + latency, true)
            }
            None => (at, false),
        }
    }

    /// A token of `route` reached its destination queue: the route has a
    /// free in-flight slot again, so wake the producers blocked on it.
    pub(crate) fn route_arrived(&mut self, route: u32, data: &mut Data, ctrl: &mut Ctrl) {
        let r = route as usize;
        self.routes[r].inflight -= 1;
        data.wake(&mut self.blocked_on_route[r], ctrl);
    }

    /// Input queue `qi` lost a token: flits parked on it may deliver.
    pub(crate) fn queue_freed(&mut self, qi: usize) {
        if self.queue_parked[qi] && !self.queue_waked[qi] {
            self.queue_waked[qi] = true;
            self.waked_queues.push(qi as u32);
        }
    }

    /// Books a flit of `route` to enter the mesh at cycle `at`, after the
    /// flits already booked for that cycle.
    pub(crate) fn book(&mut self, at: u64, route: u32, value: Value) {
        debug_assert!(
            at >= self.spawn_base && at - self.spawn_base <= self.spawn_mask,
            "flit booked for cycle {at} outside the spawn ring [{}, {}]",
            self.spawn_base,
            self.spawn_base + self.spawn_mask
        );
        self.spawn_ring[(at & self.spawn_mask) as usize].push((route, value));
        self.booked += 1;
    }

    /// Puts every flit booked for a cycle up to `cycle` on the mesh, in
    /// (entry cycle, launch order), each with the next serial. Returns
    /// whether any flit entered.
    pub(crate) fn spawn_due(&mut self, cycle: u64) -> bool {
        let mut spawned = false;
        if self.booked > 0 {
            for c in self.spawn_base..=cycle {
                let bucket = &mut self.spawn_ring[(c & self.spawn_mask) as usize];
                spawned |= !bucket.is_empty();
                self.booked -= bucket.len();
                for (route, value) in bucket.drain(..) {
                    self.flits.push(Flit {
                        route,
                        hop: 0,
                        value,
                        serial: self.flit_serial,
                        at: cycle,
                    });
                    self.flit_serial += 1;
                }
            }
        }
        self.spawn_base = cycle;
        spawned
    }

    /// Flits booked but not yet on the mesh.
    pub(crate) fn booked(&self) -> usize {
        self.booked
    }

    /// The earliest cycle a booked flit enters the mesh, if any.
    pub(crate) fn next_spawn(&self) -> Option<u64> {
        if self.booked == 0 {
            return None;
        }
        (self.spawn_base..).find(|&c| !self.spawn_ring[(c & self.spawn_mask) as usize].is_empty())
    }

    /// Flits traversing or arbitrating for a link (they act every cycle).
    pub(crate) fn moving(&self) -> bool {
        !self.flits.is_empty() || self.link_wait_count > 0
    }

    /// Every flit in flight: traversing, arbitrating or parked.
    pub(crate) fn in_flight(&self) -> usize {
        self.flits.len() + self.link_wait_count + self.parked_count
    }

    /// Attempts delivery of parked (at-destination) flits. Per queue the
    /// serial-smallest flits deliver while space lasts; candidate wakeups
    /// are then applied in global serial order, which is exactly the old
    /// one-vector iteration order.
    fn deliver_parked(
        &mut self,
        cycle: u64,
        data: &mut Data,
        ctrl: &mut Ctrl,
        obs: &mut Observer,
    ) -> bool {
        // A parked flit can only deliver after its queue regained space,
        // i.e. after a pop on that queue (flit-fed queues receive no
        // other traffic), so only waked queues need a look.
        if self.waked_queues.is_empty() {
            return false;
        }
        self.deliver_buf.clear();
        let mut waked = std::mem::take(&mut self.waked_queues);
        for &q in &waked {
            let qi = q as usize;
            self.queue_waked[qi] = false;
            if !self.queue_parked[qi] {
                continue;
            }
            let space = data.queues.space(qi);
            if space == 0 {
                continue; // refilled before the scan; await the next pop
            }
            let take_n = self.parked[qi].len().min(space);
            for _ in 0..take_n {
                let pf = self.parked[qi].pop_front().expect("take_n <= len");
                ctrl.token_arrived(self.routes[pf.route as usize].dst);
                data.queues.push_back(qi, pf.value);
                // All cycles spent waiting, one stall per blocked cycle.
                let lid = || self.final_link(pf.route as usize);
                obs.park(pf.route, pf.at, cycle - pf.at, lid);
                self.parked_count -= 1;
                self.deliver_buf.push((pf.serial, pf.route));
            }
            if self.parked[qi].is_empty() {
                self.queue_parked[qi] = false;
            }
        }
        waked.clear();
        self.waked_queues = waked;
        self.deliver_buf.sort_unstable_by_key(|&(s, _)| s);
        let buf = std::mem::take(&mut self.deliver_buf);
        for &(_, route) in &buf {
            self.route_arrived(route, data, ctrl);
            data.mark_candidate(self.routes[route as usize].dst, ctrl);
        }
        let delivered = !buf.is_empty();
        self.deliver_buf = buf;
        delivered
    }

    /// A route's final link, which backpressure at its destination is
    /// charged to.
    fn final_link(&self, route: usize) -> u32 {
        let r = &self.routes[route];
        if r.hops >= 2 {
            self.hop_link[(r.hop_base + r.hops - 2) as usize]
        } else {
            0
        }
    }

    /// Parks a flit that completed its last hop: it re-enters delivery
    /// arbitration (serial order per queue) starting next cycle.
    fn park(&mut self, f: Flit, cycle: u64, data: &Data) {
        let qi = self.routes[f.route as usize].dst_qi as usize;
        debug_assert!(
            self.parked[qi].back().is_none_or(|p| p.serial < f.serial),
            "flit {} parks out of serial order on queue {qi}",
            f.serial
        );
        self.parked[qi].push_back(Flit { at: cycle + 1, ..f });
        self.parked_count += 1;
        self.queue_parked[qi] = true;
        // If the queue already has space the first attempt (next cycle)
        // must run; otherwise the enabling pop will set the wake flag.
        if data.queues.space(qi) > 0 {
            self.queue_freed(qi);
        }
    }

    /// Grants link `lid` to a flit of `route` taking hop `hop`: nominal
    /// link latency, stretched by a flaky multiplier whose extra cycles
    /// are charged as link stalls (the value is untouched). Returns the
    /// flit's next ready cycle and whether it delivers now: a nominal
    /// final hop delivers at grant time, a stretched one once ready.
    // Runs once per mesh hop; left out of line it costs ~2% more
    // executed instructions on mesh-heavy presets.
    #[inline(always)]
    fn grant(
        &mut self,
        cycle: u64,
        lid: usize,
        route: usize,
        hop: usize,
        obs: &mut Observer,
    ) -> (u64, bool) {
        self.link_used[lid] = cycle;
        let base = self.link_latency;
        let mut lat = base;
        if self.has_flaky {
            let mult = self.flaky_mult[lid];
            if mult > 1 {
                let extra = base.max(1) * (mult - 1);
                obs.link_stall(route, extra);
                lat += extra;
            }
        }
        obs.grant(cycle, lid, route, lat);
        let last = hop + 1 >= self.routes[route].hops as usize;
        (cycle + lat, last && lat == base)
    }

    /// The network's per-cycle step: deliver parked flits, then advance
    /// the mesh by one cycle. Returns whether anything moved.
    ///
    /// Arbitration invariant: among all flits wanting a link this cycle,
    /// the smallest serial wins — exactly the old serial-ordered
    /// full-vector scan. Losers leave the scan for their link's waiter
    /// queue, so a congested link costs one grant per
    /// cycle instead of one scan per blocked flit per cycle.
    pub(crate) fn step(
        &mut self,
        cycle: u64,
        data: &mut Data,
        ctrl: &mut Ctrl,
        obs: &mut Observer,
    ) -> bool {
        let mut progressed = self.deliver_parked(cycle, data, ctrl, obs);
        if !self.moving() {
            return progressed;
        }
        // In-flight flits, in serial order (the vec is kept sorted).
        // Flits that leave the scan (to a link's waiters or a parked
        // list) drop out as it goes: `kept` trails `fi`, compacting the
        // survivors in place.
        let mut kept = 0;
        for fi in 0..self.flits.len() {
            let mut f = self.flits[fi];
            if f.at > cycle {
                // Still traversing the previous link.
                self.flits[kept] = f;
                kept += 1;
                continue;
            }
            let (route, hop, serial) = (f.route as usize, f.hop as usize, f.serial);
            if hop + 1 >= self.routes[route].hops as usize {
                // The final hop finished a stretched (flaky-link)
                // traversal: deliver now that its ready cycle arrived.
                self.park(f, cycle, data);
                progressed = true;
                continue;
            }
            let lid = self.hop_link[self.routes[route].hop_base as usize + hop] as usize;
            // The link is taken if a smaller-serial flit already grabbed
            // it this cycle, or an earlier-arrived smaller-serial waiter
            // is owed it (granted in the waiter sweep below).
            let lost = self.link_used[lid] == cycle
                || self.link_waiters[lid]
                    .front()
                    .is_some_and(|w| w.serial < serial);
            if lost {
                let q = &mut self.link_waiters[lid];
                if q.is_empty() {
                    self.waiting_links.push(lid as u32);
                }
                let w = Flit { at: cycle, ..f };
                if q.back().is_none_or(|b| b.serial < serial) {
                    q.push_back(w);
                } else {
                    let pos = match q.binary_search_by_key(&serial, |p| p.serial) {
                        Ok(_) => unreachable!("flit serials are unique"),
                        Err(p) => p,
                    };
                    q.insert(pos, w);
                }
                self.link_wait_count += 1;
            } else {
                let (ready_at, deliver) = self.grant(cycle, lid, route, hop + 1, obs);
                progressed = true;
                f.hop += 1;
                f.at = ready_at;
                if deliver {
                    self.park(f, cycle, data);
                } else {
                    self.flits[kept] = f;
                    kept += 1;
                }
            }
        }
        self.flits.truncate(kept);
        // One grant per contended link: the head waiter (smallest
        // serial) takes any link no in-flight flit claimed this cycle.
        // Links are independent, so sweep order is immaterial.
        if self.link_wait_count > 0 {
            let mut wl = std::mem::take(&mut self.waiting_links);
            wl.retain(|&l| {
                let lid = l as usize;
                if self.link_used[lid] == cycle {
                    return true; // lost to a smaller-serial in-flight flit
                }
                let w = self.link_waiters[lid]
                    .pop_front()
                    .expect("waiting_links tracks non-empty queues");
                self.link_wait_count -= 1;
                let route = w.route as usize;
                // All cycles spent waiting, one stall per blocked cycle.
                obs.stall(lid, route, w.at, cycle - w.at);
                let (ready_at, deliver) = self.grant(cycle, lid, route, w.hop as usize + 1, obs);
                progressed = true;
                if deliver {
                    self.park(w, cycle, data);
                } else {
                    // Re-enters the in-flight scan (a stretched final hop
                    // parks there once its ready cycle arrives).
                    let f = Flit {
                        hop: w.hop + 1,
                        at: ready_at,
                        ..w
                    };
                    let pos = self.flits.partition_point(|x| x.serial < f.serial);
                    self.flits.insert(pos, f);
                }
                !self.link_waiters[lid].is_empty()
            });
            self.waiting_links = wl;
        }
        progressed
    }
}
