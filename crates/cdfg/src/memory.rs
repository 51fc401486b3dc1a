//! Scratchpad memory state shared by the interpreter and the simulator.

use crate::graph::Cdfg;
use crate::op::ArrayId;
use crate::value::Value;

/// The data scratchpad: one dense region per declared array.
///
/// Out-of-bounds accesses do not abort execution (hardware would silently
/// wrap); they are counted in [`Memory::oob_events`] and tests assert the
/// count stays zero.
#[derive(Clone, Debug, Default)]
pub struct Memory {
    arrays: Vec<Vec<Value>>,
    oob: u64,
}

impl Memory {
    /// Allocates and initializes memory from a program's declarations.
    pub fn from_cdfg(g: &Cdfg) -> Self {
        let arrays = g
            .arrays
            .iter()
            .map(|a| {
                let mut v = vec![a.elem.zero(); a.len];
                for (i, x) in a.init.iter().enumerate() {
                    v[i] = *x;
                }
                v
            })
            .collect();
        Memory { arrays, oob: 0 }
    }

    /// Reads `arr[idx]`; out of bounds yields zero and bumps the OOB count.
    pub fn load(&mut self, arr: ArrayId, idx: i32) -> Value {
        let a = &self.arrays[arr.0 as usize];
        if idx < 0 || idx as usize >= a.len() {
            self.oob += 1;
            return Value::I32(0);
        }
        a[idx as usize]
    }

    /// Writes `arr[idx]`; out of bounds is dropped and counted.
    pub fn store(&mut self, arr: ArrayId, idx: i32, v: Value) {
        let a = &mut self.arrays[arr.0 as usize];
        if idx < 0 || idx as usize >= a.len() {
            self.oob += 1;
            return;
        }
        a[idx as usize] = v;
    }

    /// Borrow an array's contents.
    pub fn array(&self, arr: ArrayId) -> &[Value] {
        &self.arrays[arr.0 as usize]
    }

    /// Number of out-of-bounds accesses observed.
    pub fn oob_events(&self) -> u64 {
        self.oob
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CdfgBuilder;

    #[test]
    fn init_load_store_oob() {
        let mut b = CdfgBuilder::new("m");
        let a = b.array_i32("a", 4, &[7, 8]);
        let x = b.imm(0);
        b.sink("unused", x);
        let g = b.finish();
        let mut m = Memory::from_cdfg(&g);
        assert_eq!(m.load(a, 0), Value::I32(7));
        assert_eq!(m.load(a, 1), Value::I32(8));
        assert_eq!(m.load(a, 2), Value::I32(0)); // zero-filled
        m.store(a, 3, Value::I32(5));
        assert_eq!(m.load(a, 3), Value::I32(5));
        assert_eq!(m.oob_events(), 0);
        assert_eq!(m.load(a, 4), Value::I32(0));
        m.store(a, -1, Value::I32(1));
        assert_eq!(m.oob_events(), 2);
    }
}
