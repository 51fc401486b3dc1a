//! A calendar-queue **event wheel**: the simulator's event queue.
//!
//! Discrete-event simulators spend a surprising share of their time in the
//! event queue; a comparison-based heap pays `O(log n)` per operation and a
//! cache miss per sift step. The machine's schedule is overwhelmingly
//! *near-term* — a token delivery lands a handful of cycles out (operator
//! latency plus small activation extras) — so a **wheel** of
//! [`WHEEL_SLOTS`] slots indexed by `cycle & (WHEEL_SLOTS - 1)` turns both
//! push and pop into `O(1)` list splices over a dense horizon:
//!
//! - **slots**: each slot holds the events of exactly one cycle in the
//!   window `[base, base + WHEEL_SLOTS)` as an intrusive singly-linked
//!   list (head/tail, appended in insertion order). Because the window is
//!   never wider than the slot count, two different pending cycles can
//!   never share a slot.
//! - **arena**: event payloads live in one slab of nodes with a freelist,
//!   so steady-state operation performs no allocation at all.
//! - **overflow bucket**: the rare far-future event (a serialized
//!   control-network route booked many transfers ahead, a stretched flaky
//!   delivery) that lands at or beyond `base + WHEEL_SLOTS` goes to a
//!   small binary heap ordered by `(cycle, sequence)`. When `base`
//!   advances and a new cycle enters the window, due overflow entries
//!   migrate into their slot *before* any direct push can target that
//!   cycle, so slot lists always stay sorted by insertion sequence.
//!
//! ## Ordering contract
//!
//! [`EventWheel::pop_due`] yields events in exactly the total order a
//! `BinaryHeap` keyed by `(at, insertion_seq)` would: earliest cycle
//! first, FIFO within a cycle. The property tests in
//! `crates/sim/tests/wheel_props.rs` pin this against a reference heap,
//! including horizon wrap-around and overflow migration.
//!
//! Pushes must not target the past: an `at` below the wheel's current
//! base (the earliest still-poppable cycle) is clamped **up** to the
//! base. The machine schedules strictly into the future (every latency
//! is ≥ 1), so the clamp never fires there.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of wheel slots — the dense scheduling horizon, in cycles.
///
/// Power of two so slot lookup is a mask. 128 covers every near-term
/// latency in the timing models (operator results, memory, activation
/// and switch extras) with headroom; anything further out is rare and
/// takes the overflow path.
pub const WHEEL_SLOTS: usize = 128;

const SLOT_MASK: u64 = (WHEEL_SLOTS as u64) - 1;
const NIL: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Node<T> {
    at: u64,
    /// `None` once popped (the arena slot is then on the freelist).
    item: Option<T>,
    next: u32,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    head: u32,
    tail: u32,
}

const EMPTY_SLOT: Slot = Slot {
    head: NIL,
    tail: NIL,
};

/// A monotone-time event queue ordered by `(cycle, insertion order)`.
///
/// See the [module docs](self) for the design; see [`EventWheel::push`]
/// and [`EventWheel::pop_due`] for the operational contract.
#[derive(Clone, Debug)]
pub struct EventWheel<T> {
    /// Earliest cycle that may still hold events; slots cover
    /// `[base, base + WHEEL_SLOTS)`.
    base: u64,
    slots: Vec<Slot>,
    /// Occupancy bitmap over `slots` (bit `s` set iff slot `s` is
    /// non-empty): `next_at` finds the earliest resident cycle with one
    /// 128-bit rotate + count-trailing-zeros instead of a slot scan.
    occ: [u64; 2],
    nodes: Vec<Node<T>>,
    free: Vec<u32>,
    /// Far-future events as `(at, seq, arena index)`, min-ordered.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Events currently resident in slots (excludes overflow).
    wheel_len: usize,
    /// Total pending events (slots + overflow).
    len: usize,
    /// Monotone insertion sequence, breaking same-cycle ties FIFO.
    seq: u64,
}

impl<T> Default for EventWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventWheel<T> {
    /// Creates an empty wheel with its base at cycle 0.
    pub fn new() -> Self {
        EventWheel {
            base: 0,
            slots: vec![EMPTY_SLOT; WHEEL_SLOTS],
            occ: [0; 2],
            nodes: Vec::new(),
            free: Vec::new(),
            overflow: BinaryHeap::new(),
            wheel_len: 0,
            len: 0,
            seq: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `item` at cycle `at` (clamped up to the current base if
    /// it lies in the past). Ties at the same cycle pop in push order.
    pub fn push(&mut self, at: u64, item: T) {
        let at = at.max(self.base);
        let seq = self.seq;
        self.seq += 1;
        let idx = self.alloc(at, item);
        if at - self.base < WHEEL_SLOTS as u64 {
            self.slot_append((at & SLOT_MASK) as usize, idx);
            self.wheel_len += 1;
        } else {
            self.overflow.push(Reverse((at, seq, idx)));
        }
        self.len += 1;
    }

    /// Earliest pending cycle, if any.
    pub fn next_at(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if self.wheel_len > 0 {
            // Nearest resident event is < WHEEL_SLOTS away, and any
            // overflow entry lies at or beyond base + WHEEL_SLOTS, so the
            // first occupied slot wins outright. Rotating the occupancy
            // bitmap so `base`'s slot becomes bit 0 turns "first non-empty
            // slot at or after base (with wrap)" into trailing_zeros.
            let bits = (u128::from(self.occ[1]) << 64) | u128::from(self.occ[0]);
            let start = (self.base & SLOT_MASK) as u32;
            let d = bits.rotate_right(start).trailing_zeros();
            debug_assert!(
                (d as usize) < WHEEL_SLOTS,
                "wheel_len > 0 implies a non-empty slot in the window"
            );
            return Some(self.base + u64::from(d));
        }
        self.overflow.peek().map(|&Reverse((at, _, _))| at)
    }

    /// Pops the earliest event if its cycle is `<= now`; otherwise
    /// returns `None` (and advances the base toward `now + 1` so later
    /// slot scans start near the horizon).
    pub fn pop_due(&mut self, now: u64) -> Option<T> {
        let next = self.next_at()?;
        if next > now {
            self.advance_to(next.min(now + 1));
            return None;
        }
        self.advance_to(next);
        let s = (next & SLOT_MASK) as usize;
        let idx = self.slots[s].head;
        debug_assert_ne!(idx, NIL, "next_at found this slot non-empty");
        let node = &mut self.nodes[idx as usize];
        debug_assert_eq!(node.at, next);
        let item = node.item.take().expect("arena node is occupied");
        self.slots[s].head = node.next;
        if self.slots[s].head == NIL {
            self.slots[s].tail = NIL;
            self.occ[s >> 6] &= !(1u64 << (s & 63));
        }
        self.free.push(idx);
        self.wheel_len -= 1;
        self.len -= 1;
        Some(item)
    }

    fn alloc(&mut self, at: u64, item: T) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = Node {
                at,
                item: Some(item),
                next: NIL,
            };
            idx
        } else {
            self.nodes.push(Node {
                at,
                item: Some(item),
                next: NIL,
            });
            (self.nodes.len() - 1) as u32
        }
    }

    fn slot_append(&mut self, s: usize, idx: u32) {
        self.nodes[idx as usize].next = NIL;
        let tail = self.slots[s].tail;
        if tail == NIL {
            self.slots[s].head = idx;
            self.occ[s >> 6] |= 1u64 << (s & 63);
        } else {
            self.nodes[tail as usize].next = idx;
        }
        self.slots[s].tail = idx;
    }

    /// Advances the base to `target`. Caller guarantees no pending event
    /// lies below `target`, so the jump cannot strand slot residents:
    /// every resident sits at a cycle in `[target, base + WHEEL_SLOTS)`,
    /// which stays inside the new window. Overflow entries whose cycle
    /// just entered the window migrate immediately — *before* any direct
    /// push can target those cycles — keeping slot lists seq-sorted.
    fn advance_to(&mut self, target: u64) {
        if target <= self.base {
            return;
        }
        self.base = target;
        let bound = self.base + WHEEL_SLOTS as u64;
        while let Some(&Reverse((at, _, _))) = self.overflow.peek() {
            if at >= bound {
                break;
            }
            let Reverse((at, _, idx)) = self.overflow.pop().expect("peeked entry");
            self.slot_append((at & SLOT_MASK) as usize, idx);
            self.wheel_len += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(w: &mut EventWheel<u32>) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        let mut now = 0u64;
        while !w.is_empty() {
            match w.pop_due(now) {
                Some(v) => out.push((now.max(w.next_at().unwrap_or(now)), v)),
                None => now = w.next_at().expect("non-empty wheel has a next cycle"),
            }
        }
        out
    }

    #[test]
    fn fifo_within_cycle() {
        let mut w = EventWheel::new();
        w.push(3, 10u32);
        w.push(3, 11);
        w.push(1, 12);
        assert_eq!(w.len(), 3);
        assert_eq!(w.next_at(), Some(1));
        assert_eq!(w.pop_due(0), None);
        assert_eq!(w.pop_due(1), Some(12));
        assert_eq!(w.pop_due(2), None);
        assert_eq!(w.pop_due(3), Some(10));
        assert_eq!(w.pop_due(3), Some(11));
        assert_eq!(w.pop_due(3), None);
        assert!(w.is_empty());
    }

    #[test]
    fn wraps_around_the_horizon() {
        let mut w = EventWheel::new();
        // Fill several windows' worth of cycles, popping as we go so the
        // base keeps wrapping the slot array.
        let mut expect = Vec::new();
        for round in 0u64..5 {
            let at = round * (WHEEL_SLOTS as u64 - 1) + 1;
            w.push(at, round as u32);
            expect.push(round as u32);
        }
        let mut got = Vec::new();
        let mut now = 0;
        while let Some(at) = w.next_at() {
            now = now.max(at);
            got.push(w.pop_due(now).expect("due event"));
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn overflow_migrates_in_order() {
        let mut w = EventWheel::new();
        let far = WHEEL_SLOTS as u64 + 7;
        w.push(far, 1u32); // overflow
        w.push(far, 2); // overflow, same cycle: FIFO after migration
        w.push(2, 0); // direct
        assert_eq!(w.pop_due(2), Some(0));
        // Base advance exposes `far`; both entries migrate, FIFO intact.
        assert_eq!(w.next_at(), Some(far));
        assert_eq!(w.pop_due(far), Some(1));
        assert_eq!(w.pop_due(far), Some(2));
        assert!(w.is_empty());
    }

    #[test]
    fn direct_push_after_migration_keeps_order() {
        let mut w = EventWheel::new();
        let far = 3 * WHEEL_SLOTS as u64;
        w.push(far, 7u32); // overflow
        w.push(1, 0);
        assert_eq!(w.pop_due(1), Some(0));
        // Idle ticks advance the base until `far` enters the window.
        for now in 2..far {
            assert_eq!(w.pop_due(now), None);
        }
        // Now a direct push at the same far cycle must land *after* the
        // migrated entry (it has a later insertion sequence).
        w.push(far, 8);
        assert_eq!(w.pop_due(far), Some(7));
        assert_eq!(w.pop_due(far), Some(8));
    }

    #[test]
    fn drain_helper_smoke() {
        let mut w = EventWheel::new();
        w.push(5, 1u32);
        w.push(2, 2);
        let vals: Vec<u32> = drain_all(&mut w).into_iter().map(|(_, v)| v).collect();
        assert_eq!(vals, vec![2, 1]);
    }
}
