//! The memory plane: the optimistic multi-ported scratchpad arrays, the
//! out-of-bounds count, and the sink collections.

use crate::machine::{RunResult, SimError};
use crate::stats::RunStats;
use marionette_cdfg::op::Op;
use marionette_cdfg::value::Value;
use marionette_isa::MachineProgram;

pub(crate) struct Mem {
    arrays: Vec<Vec<Value>>,
    oob: u64,
    /// Interned sink storage: `sink_slot[node]` indexes `sink_data` /
    /// `sink_labels` (nodes sharing a label share a slot), so a sink
    /// firing is a dense `Vec` push, never a by-label map probe.
    sink_slot: Vec<u32>,
    sink_labels: Vec<String>,
    sink_data: Vec<Vec<Value>>,
}

impl Mem {
    pub(crate) fn new(prog: &MachineProgram) -> Self {
        let mut sink_slot = vec![u32::MAX; prog.nodes.len()];
        let mut sink_labels: Vec<String> = Vec::new();
        for (i, n) in prog.nodes.iter().enumerate() {
            if matches!(n.op, Op::Sink) {
                let label = n.label.clone().unwrap_or_default();
                let slot = match sink_labels.iter().position(|l| *l == label) {
                    Some(s) => s,
                    None => {
                        sink_labels.push(label);
                        sink_labels.len() - 1
                    }
                };
                sink_slot[i] = slot as u32;
            }
        }
        Mem {
            arrays: prog
                .arrays
                .iter()
                .map(|a| vec![a.elem.zero(); a.len as usize])
                .collect(),
            oob: 0,
            sink_slot,
            sink_data: vec![Vec::new(); sink_labels.len()],
            sink_labels,
        }
    }

    /// Overwrites array contents by name with a workload's inputs.
    pub(crate) fn apply(
        &mut self,
        prog: &MachineProgram,
        inputs: &[(String, Vec<Value>)],
    ) -> Result<(), SimError> {
        for (name, data) in inputs {
            let idx = prog
                .arrays
                .iter()
                .position(|a| &a.name == name)
                .ok_or_else(|| SimError::UnknownArray(name.clone()))?;
            let arr = &mut self.arrays[idx];
            for (i, v) in data.iter().enumerate().take(arr.len()) {
                arr[i] = *v;
            }
        }
        Ok(())
    }

    pub(crate) fn load(&mut self, arr: usize, idx: i32) -> Value {
        let a = &self.arrays[arr];
        if idx < 0 || idx as usize >= a.len() {
            self.oob += 1;
            return Value::I32(0);
        }
        a[idx as usize]
    }

    pub(crate) fn store(&mut self, arr: usize, idx: i32, v: Value) {
        let a = &mut self.arrays[arr];
        if idx < 0 || idx as usize >= a.len() {
            self.oob += 1;
            return;
        }
        a[idx as usize] = v;
    }

    /// Collects `v` fired into sink `node`.
    pub(crate) fn sink(&mut self, node: u32, v: Value) {
        let slot = self.sink_slot[node as usize] as usize;
        self.sink_data[slot].push(v);
    }

    /// The run's outputs, with `stats` attached.
    pub(crate) fn finish(self, stats: RunStats) -> RunResult {
        RunResult {
            stats,
            memory: self.arrays,
            sinks: self.sink_labels.into_iter().zip(self.sink_data).collect(),
            oob_events: self.oob,
        }
    }
}
