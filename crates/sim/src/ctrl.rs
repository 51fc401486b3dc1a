//! The control plane's configuration side: the active mapping group, the
//! CCU switch timer (a CCU round trip on von Neumann machines, a cheap
//! proactive switch on non-agile Marionette), per-group in-flight token
//! counts and group-candidate counters. Inert unless the timing model
//! runs groups exclusively.

use crate::data::Data;
use crate::stats::Observer;
use crate::timing::TimingModel;
use marionette_isa::MachineProgram;

pub(crate) struct Ctrl {
    /// `tm.exclusive_groups`: only the active group may issue.
    exclusive: bool,
    /// `tm.idle_switch_threshold`.
    idle_threshold: u64,
    /// `tm.group_switch_cost`.
    switch_cost: u64,
    /// Mapping group per node.
    node_group: Vec<u16>,
    pub(crate) active_group: u16,
    switch_until: u64,
    last_active_fire: u64,
    /// Tokens emitted but not yet delivered, per destination group:
    /// a group with in-flight traffic is not drained, so exclusive
    /// execution must not switch away from it yet.
    group_inflight: Vec<u64>,
    /// Per-unit count of candidates whose group is the active group, plus
    /// the global total — maintained only on exclusive models and
    /// recomputed on the rare group switch. Lets the issue pass skip
    /// units whose whole backlog is parked (a full wrong-group pass
    /// rotates the deque back to its start: a state no-op) and makes the
    /// fast-forward "any waiter outside the active group?" test O(1)
    /// (`cand_count > grp_cand_total`).
    unit_grp_cands: Vec<u32>,
    grp_cand_total: usize,
    /// Units holding at least one candidate of *any* group, with a
    /// membership flag. Unlike the issue bitmaps this keeps
    /// parked-backlog units reachable: the issue pass deregisters a unit
    /// whose whole backlog belongs to a parked group (so idle cycles stop
    /// re-walking it), and the group switch re-registers the new group's
    /// units from this list. Entries whose deque drained are compacted
    /// lazily on the rare switch scan, keeping mark/pop O(1).
    cand_units: Vec<u32>,
    in_cand_units: Vec<bool>,
}

impl Ctrl {
    pub(crate) fn new(prog: &MachineProgram, tm: &TimingModel, nunits: usize) -> Self {
        let node_group: Vec<u16> = prog.nodes.iter().map(|n| n.group).collect();
        let ngroups = node_group
            .iter()
            .map(|&g| g as usize + 1)
            .max()
            .unwrap_or(1);
        Ctrl {
            node_group,
            exclusive: tm.exclusive_groups,
            idle_threshold: u64::from(tm.idle_switch_threshold),
            switch_cost: u64::from(tm.group_switch_cost),
            active_group: 0,
            switch_until: 0,
            last_active_fire: 0,
            group_inflight: vec![0; ngroups],
            unit_grp_cands: vec![0; nunits],
            grp_cand_total: 0,
            cand_units: Vec::new(),
            in_cand_units: vec![false; nunits],
        }
    }

    pub(crate) fn group(&self, node: u32) -> u16 {
        self.node_group[node as usize]
    }

    /// Whether candidate `node` must wait for its group's turn.
    pub(crate) fn parks(&self, node: u32) -> bool {
        self.exclusive && self.group(node) != self.active_group
    }

    /// Whether unit `u`'s whole backlog belongs to parked groups.
    pub(crate) fn parks_unit(&self, u: usize) -> bool {
        self.exclusive && self.unit_grp_cands[u] == 0
    }

    /// Whether the array is stalled on a configuration switch.
    pub(crate) fn switching(&self, cycle: u64) -> bool {
        self.exclusive && cycle < self.switch_until
    }

    pub(crate) fn candidate_added(&mut self, u: usize, node: u32) {
        if self.exclusive {
            if self.group(node) == self.active_group {
                self.unit_grp_cands[u] += 1;
                self.grp_cand_total += 1;
            }
            if !self.in_cand_units[u] {
                self.in_cand_units[u] = true;
                self.cand_units.push(u as u32);
            }
        }
    }

    pub(crate) fn candidate_removed(&mut self, u: usize, node: u32) {
        if self.exclusive && self.group(node) == self.active_group {
            self.unit_grp_cands[u] -= 1;
            self.grp_cand_total -= 1;
        }
    }

    // The group bookkeeping below feeds only the exclusive switch logic
    // (`step`, `next_wake`), so other models skip it.

    pub(crate) fn note_fire(&mut self, group: u16, cycle: u64) {
        if self.exclusive && group == self.active_group {
            self.last_active_fire = cycle;
        }
    }

    pub(crate) fn token_sent(&mut self, dst: u32) {
        if self.exclusive {
            self.group_inflight[self.node_group[dst as usize] as usize] += 1;
        }
    }

    pub(crate) fn token_arrived(&mut self, dst: u32) {
        if self.exclusive {
            let g = &mut self.group_inflight[self.node_group[dst as usize] as usize];
            *g = g.saturating_sub(1);
        }
    }

    /// Rebuilds the group-candidate counters after the active group
    /// changed. Outside the issue pass every unit holding a candidate is
    /// registered for issue, so the scan covers all candidates; switches
    /// are rare, so the O(candidates) cost is cold.
    pub(crate) fn recompute(&mut self, data: &mut Data) {
        if !self.exclusive {
            return;
        }
        self.unit_grp_cands.fill(0);
        self.grp_cand_total = 0;
        let g = self.active_group;
        let mut cand_units = std::mem::take(&mut self.cand_units);
        cand_units.retain(|&uu| {
            let u = uu as usize;
            if data.unit_candidates[u].is_empty() {
                self.in_cand_units[u] = false;
                return false; // drained since registration: compact
            }
            let c = data.unit_candidates[u]
                .iter()
                .filter(|&&n| self.node_group[n as usize] == g)
                .count() as u32;
            self.unit_grp_cands[u] = c;
            self.grp_cand_total += c as usize;
            // Units parked until now hold backlog for the incoming group:
            // put them back on the walk.
            if c > 0 {
                data.register_unit(u);
            }
            true
        });
        self.cand_units = cand_units;
    }

    /// The CCU's per-cycle step: count a switch-stall cycle, or switch to
    /// another group once the active one has idled past the threshold.
    pub(crate) fn step(&mut self, cycle: u64, data: &mut Data, obs: &mut Observer) {
        if !self.exclusive {
            return;
        }
        if cycle < self.switch_until {
            obs.switch_stall();
            return;
        }
        let idle = cycle.saturating_sub(self.last_active_fire);
        if idle <= self.idle_threshold {
            return;
        }
        // Only switch once the active group is truly drained: no tokens in
        // flight toward it (a transient memory/route stall is not a phase
        // boundary). A long stall overrides the drain check — the pending
        // tokens may themselves depend on another group's output.
        let drained = self.group_inflight[self.active_group as usize] == 0;
        if !drained && idle <= self.idle_threshold + 4 {
            return;
        }
        // A candidate outside the active group exists iff the total
        // exceeds the active group's share.
        if data.cand_count <= self.grp_cand_total {
            return;
        }
        // The first such candidate in ascending unit order (issue
        // priority) names the next group.
        let mut units = self.cand_units.clone();
        units.sort_unstable();
        let target = units.iter().find_map(|&ui| {
            data.unit_candidates[ui as usize]
                .iter()
                .map(|&n| self.node_group[n as usize])
                .find(|&g| g != self.active_group)
        });
        if let Some(g) = target {
            self.active_group = g;
            self.switch_until = cycle + self.switch_cost;
            self.last_active_fire = self.switch_until;
            obs.switch(cycle, self.switch_cost, g);
            self.recompute(data);
        }
    }

    /// The next cycle the control plane changes state on its own, for the
    /// idle fast-forward: the end of a switch stall, or the cycle the
    /// idle threshold lapses while another group's candidates wait.
    pub(crate) fn next_wake(&self, cycle: u64, cand_count: usize) -> Option<u64> {
        if !self.exclusive {
            None
        } else if self.switch_until > cycle {
            Some(self.switch_until)
        } else if cand_count > self.grp_cand_total {
            Some((self.last_active_fire + self.idle_threshold + 1).max(cycle + 1))
        } else {
            None
        }
    }
}
