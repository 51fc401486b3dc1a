//! Run statistics: PE utilization, group activity, firing profiles, and
//! the machine's one `Observer` that fills them in.

use crate::trace::{RecKind, Tracer, TrackKey};
use marionette_isa::Placement;

/// Per-execution-unit counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UnitStats {
    /// Cycles the unit was occupied.
    pub busy: u64,
    /// Firings that produced useful (non-poison) results.
    pub useful_fires: u64,
    /// Firings wasted on predicated-off work.
    pub poison_fires: u64,
}

/// Per-mapping-group activity.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// First cycle any operator of the group fired.
    pub first_fire: Option<u64>,
    /// Last cycle any operator of the group fired.
    pub last_fire: u64,
    /// Total firings.
    pub fires: u64,
    /// Total busy-cycles accumulated by the group's operators.
    pub busy: u64,
}

/// Statistics of one simulation run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total cycles.
    pub cycles: u64,
    /// Per-PE data-plane stats.
    pub pe_data: Vec<UnitStats>,
    /// Per-PE control-plane stats.
    pub pe_ctrl: Vec<UnitStats>,
    /// Per-group activity.
    pub groups: Vec<GroupStats>,
    /// Total node firings.
    pub fires: u64,
    /// Cycles the array spent stalled on group configuration switches.
    pub switch_stall_cycles: u64,
    /// Number of group switches.
    pub group_switches: u64,
    /// Tokens transported over the control path.
    pub ctrl_tokens: u64,
    /// Tokens transported over the data mesh.
    pub data_tokens: u64,
    /// Total flit-hops on the mesh.
    pub mesh_hops: u64,
    /// Cycles flits spent blocked on busy links (contention measure).
    pub link_stall_cycles: u64,
    /// Per-route share of [`RunStats::link_stall_cycles`], indexed by the
    /// program's route table. This is the attribution signal the mapping
    /// explorer's cost model is calibrated against: a route with a large
    /// share rode an over-subscribed link or fed a saturated input queue,
    /// exactly what the quadratic congestion term penalizes at
    /// placement time (see `marionette-compiler::cost`).
    pub link_stall_by_route: Vec<u64>,
}

impl RunStats {
    /// Mean data-plane PE utilization (busy / total cycles).
    pub fn mean_pe_utilization(&self) -> f64 {
        if self.cycles == 0 || self.pe_data.is_empty() {
            return 0.0;
        }
        let busy: u64 = self.pe_data.iter().map(|u| u.busy).sum();
        busy as f64 / (self.cycles as f64 * self.pe_data.len() as f64)
    }

    /// The `k` routes with the largest link-stall attribution, as
    /// `(route id, stall cycles)` pairs sorted descending (stable by
    /// route id on ties). Routes with zero stalls are omitted.
    pub fn top_stalled_routes(&self, k: usize) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self
            .link_stall_by_route
            .iter()
            .enumerate()
            .filter(|(_, &s)| s > 0)
            .map(|(i, &s)| (i as u32, s))
            .collect();
        v.sort_by_key(|&(i, s)| (std::cmp::Reverse(s), i));
        v.truncate(k);
        v
    }

    /// Fraction of firings wasted on predicated-off (poison) work.
    pub fn poison_fraction(&self) -> f64 {
        let poison: u64 = self
            .pe_data
            .iter()
            .chain(self.pe_ctrl.iter())
            .map(|u| u.poison_fires)
            .sum();
        let useful: u64 = self
            .pe_data
            .iter()
            .chain(self.pe_ctrl.iter())
            .map(|u| u.useful_fires)
            .sum();
        if poison + useful == 0 {
            0.0
        } else {
            poison as f64 / (poison + useful) as f64
        }
    }
}

/// The machine's measurement plane: every architectural event the planes
/// report lands in one method here, which updates [`RunStats`] and, when
/// a tracer is installed, records the matching trace event. The traced
/// run is bit-identical to the untraced one.
#[derive(Debug)]
pub(crate) struct Observer {
    pub(crate) stats: RunStats,
    pub(crate) trace: Option<Box<Tracer>>,
}

impl Observer {
    pub(crate) fn new(npes: usize, nroutes: usize) -> Self {
        let stats = RunStats {
            pe_data: vec![UnitStats::default(); npes],
            pe_ctrl: vec![UnitStats::default(); npes],
            link_stall_by_route: vec![0; nroutes],
            ..Default::default()
        };
        Observer { stats, trace: None }
    }

    #[inline]
    fn record(&mut self, key: TrackKey, ts: u64, dur: u64, kind: RecKind) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.record(key, ts, dur, kind);
        }
    }

    /// `node` of `group` fired on `place`, busy for `occ` cycles.
    #[inline]
    pub(crate) fn fire(
        &mut self,
        cycle: u64,
        occ: u64,
        node: u32,
        place: Placement,
        group: u16,
        poisoned: bool,
    ) {
        let s = &mut self.stats;
        s.fires += 1;
        let grp = group as usize;
        if s.groups.len() <= grp {
            s.groups.resize(grp + 1, GroupStats::default());
        }
        let gs = &mut s.groups[grp];
        gs.fires += 1;
        gs.busy += 1;
        gs.first_fire.get_or_insert(cycle);
        gs.last_fire = cycle;
        let npes = s.pe_ctrl.len();
        let unit = match place {
            Placement::Pe { pe } => Some(&mut s.pe_data[pe as usize]),
            Placement::CtrlPlane { pe } | Placement::NetSwitch { sw: pe } => {
                Some(&mut s.pe_ctrl[pe as usize % npes])
            }
            Placement::MemUnit { .. } => None,
        };
        if let Some(u) = unit {
            u.busy += occ;
            *if poisoned {
                &mut u.poison_fires
            } else {
                &mut u.useful_fires
            } += 1;
        }
        if let Some(t) = self.trace.as_deref_mut() {
            let key = match place {
                Placement::Pe { pe } => TrackKey::PeData(pe.into()),
                Placement::CtrlPlane { pe } => TrackKey::PeCtrl(pe.into()),
                Placement::NetSwitch { sw } => TrackKey::Switch(sw.into()),
                Placement::MemUnit { unit } => TrackKey::Mem(unit.into()),
            };
            t.record(key, cycle, occ, RecKind::Fire { node, poisoned });
        }
    }

    /// A flit of `route` took directed link `lid` for `lat` cycles.
    #[inline]
    pub(crate) fn grant(&mut self, cycle: u64, lid: usize, route: usize, lat: u64) {
        self.stats.mesh_hops += 1;
        let kind = RecKind::Grant {
            route: route as u32,
        };
        self.record(TrackKey::Link(lid as u32), cycle, lat, kind);
    }

    /// A flit of `route` waited `stall` cycles from `first_attempt` for
    /// link `lid` after losing arbitration.
    #[inline]
    pub(crate) fn stall(&mut self, lid: usize, route: usize, first_attempt: u64, stall: u64) {
        self.link_stall(route, stall);
        if stall > 0 {
            let kind = RecKind::Stall {
                route: route as u32,
            };
            self.record(TrackKey::Link(lid as u32), first_attempt, stall, kind);
        }
    }

    /// A flit of `route` waited `stall` cycles from `first_attempt` at a
    /// full destination queue, charged to its final link (`lid`, looked
    /// up only when tracing).
    #[inline]
    pub(crate) fn park(
        &mut self,
        route: u32,
        first_attempt: u64,
        stall: u64,
        lid: impl FnOnce() -> u32,
    ) {
        self.link_stall(route as usize, stall);
        if let (Some(t), true) = (self.trace.as_deref_mut(), stall > 0) {
            let kind = RecKind::Park { route };
            t.record(TrackKey::Link(lid()), first_attempt, stall, kind);
        }
    }

    /// Charges `cycles` of link stall to `route`; a flaky link's
    /// stretched traversal is charged here directly.
    #[inline]
    pub(crate) fn link_stall(&mut self, route: usize, cycles: u64) {
        self.stats.link_stall_cycles += cycles;
        self.stats.link_stall_by_route[route] += cycles;
    }

    /// The CCU switched to `group`, stalling the array for `cost` cycles.
    #[inline]
    pub(crate) fn switch(&mut self, cycle: u64, cost: u64, group: u16) {
        self.stats.group_switches += 1;
        self.record(TrackKey::Ccu, cycle, cost, RecKind::Switch { group });
    }

    #[inline]
    pub(crate) fn switch_stall(&mut self) {
        self.stats.switch_stall_cycles += 1;
    }

    /// A token left on a control (`ctrl`) or data route.
    #[inline]
    pub(crate) fn token(&mut self, ctrl: bool) {
        *if ctrl {
            &mut self.stats.ctrl_tokens
        } else {
            &mut self.stats.data_tokens
        } += 1;
    }

    #[inline]
    pub(crate) fn mem(&mut self, cycle: u64, store: bool, array: u32) {
        self.record(TrackKey::Mem(0), cycle, 0, RecKind::Mem { store, array });
    }

    /// The end-of-cycle counter sample; `sample` (event-queue depth,
    /// flits in flight) runs only when tracing.
    #[inline]
    pub(crate) fn counters(&mut self, cycle: u64, sample: impl FnOnce() -> (u64, u64)) {
        if let Some(t) = self.trace.as_deref_mut() {
            let (queue_depth, flits) = sample();
            t.counters(cycle, queue_depth, flits);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_math() {
        let mut s = RunStats {
            cycles: 100,
            pe_data: vec![UnitStats::default(); 4],
            ..Default::default()
        };
        s.pe_data[0].busy = 100;
        s.pe_data[1].busy = 50;
        assert!((s.mean_pe_utilization() - 0.375).abs() < 1e-12);
    }

    #[test]
    fn top_stalled_routes_sorted() {
        let s = RunStats {
            link_stall_by_route: vec![0, 7, 3, 7, 0, 1],
            ..Default::default()
        };
        assert_eq!(s.top_stalled_routes(3), vec![(1, 7), (3, 7), (2, 3)]);
        assert_eq!(s.top_stalled_routes(10).len(), 4);
    }

    #[test]
    fn zero_cycle_run_yields_finite_zero_ratios() {
        // A run that terminated before its first cycle (empty program,
        // immediate quiescence) must report 0.0 everywhere, never NaN.
        let s = RunStats {
            cycles: 0,
            pe_data: vec![UnitStats::default(); 4],
            ..Default::default()
        };
        assert_eq!(s.mean_pe_utilization(), 0.0);
        assert!(s.mean_pe_utilization().is_finite());
        assert_eq!(s.poison_fraction(), 0.0);
        assert!(s.top_stalled_routes(8).is_empty());
        // No PEs recorded at all is equally defined.
        let empty = RunStats::default();
        assert_eq!(empty.mean_pe_utilization(), 0.0);
    }

    #[test]
    fn all_stalled_route_attribution_is_complete() {
        // Every route stalled: nothing is omitted, the total is
        // preserved, and k truncates from the top.
        let s = RunStats {
            cycles: 10,
            link_stall_cycles: 6,
            link_stall_by_route: vec![2, 2, 2],
            ..Default::default()
        };
        let top = s.top_stalled_routes(usize::MAX);
        assert_eq!(top.len(), 3);
        assert_eq!(
            top.iter().map(|&(_, c)| c).sum::<u64>(),
            s.link_stall_cycles
        );
        assert_eq!(s.top_stalled_routes(0), vec![]);
        assert_eq!(s.top_stalled_routes(1), vec![(0, 2)]);
    }

    #[test]
    fn top_stalled_routes_ties_break_by_route_id() {
        // All-equal stalls: descending-by-count is a total tie, so the
        // order must be ascending route id — deterministically.
        let s = RunStats {
            link_stall_by_route: vec![5; 6],
            ..Default::default()
        };
        assert_eq!(
            s.top_stalled_routes(6),
            vec![(0, 5), (1, 5), (2, 5), (3, 5), (4, 5), (5, 5)]
        );
        // A tie at the truncation boundary keeps the lower route id.
        let s2 = RunStats {
            link_stall_by_route: vec![1, 9, 9, 9],
            ..Default::default()
        };
        assert_eq!(s2.top_stalled_routes(2), vec![(1, 9), (2, 9)]);
    }
}
