//! Property tests pinning the calendar-wheel event queue to its
//! reference semantics: a `BinaryHeap` keyed by `(cycle, insertion
//! sequence)`. Arbitrary interleavings of pushes and due-pops — with
//! deltas short enough to stay on the wheel, long enough to take the
//! overflow path, and runs long enough to wrap the 128-slot horizon
//! many times — must pop in exactly the heap's order.

use marionette_sim::wheel::{EventWheel, WHEEL_SLOTS};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The ordering reference: earliest cycle first, FIFO within a cycle.
#[derive(Default)]
struct RefQueue {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    seq: u64,
}

impl RefQueue {
    fn push(&mut self, at: u64, val: u32) {
        self.heap.push(Reverse((at, self.seq, val)));
        self.seq += 1;
    }

    fn next_at(&self) -> Option<u64> {
        self.heap.peek().map(|&Reverse((at, _, _))| at)
    }

    fn pop_due(&mut self, now: u64) -> Option<u32> {
        match self.heap.peek() {
            Some(&Reverse((at, _, _))) if at <= now => self.heap.pop().map(|Reverse((_, _, v))| v),
            _ => None,
        }
    }
}

/// Replays one sampled op stream against both queues, checking every
/// observable (`next_at`, pop results, lengths) in lock step, then
/// drains both to empty. `span` bounds the push deltas: `< WHEEL_SLOTS`
/// keeps everything on the wheel, larger spans force overflow entries
/// and their migration back into slots.
fn replay(ops: &[u64], span: u64) {
    let mut wheel: EventWheel<u32> = EventWheel::new();
    let mut reference = RefQueue::default();
    let mut now = 0u64;
    let mut tag = 0u32;
    for &w in ops {
        match w % 4 {
            // Push strictly into the future, like the machine does
            // (every modeled latency is >= 1 cycle).
            0..=2 => {
                let at = now + 1 + (w >> 8) % span;
                wheel.push(at, tag);
                reference.push(at, tag);
                tag += 1;
            }
            // Advance time to the next pending cycle and drain it.
            _ => {
                assert_eq!(wheel.next_at(), reference.next_at(), "next_at diverges");
                if let Some(at) = reference.next_at() {
                    now = now.max(at);
                    loop {
                        let (a, b) = (wheel.pop_due(now), reference.pop_due(now));
                        assert_eq!(a, b, "pop at cycle {now} diverges");
                        if a.is_none() {
                            break;
                        }
                    }
                }
            }
        }
        assert_eq!(wheel.len(), reference.heap.len(), "lengths diverge");
        assert_eq!(wheel.is_empty(), reference.heap.is_empty());
    }
    // Final drain: everything still pending must come out in heap order.
    while let Some(at) = reference.next_at() {
        assert_eq!(wheel.next_at(), Some(at), "drain next_at diverges");
        now = now.max(at);
        let (a, b) = (wheel.pop_due(now), reference.pop_due(now));
        assert!(b.is_some());
        assert_eq!(a, b, "drain pop at cycle {now} diverges");
    }
    assert!(wheel.is_empty());
    assert_eq!(wheel.next_at(), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Near-term schedules (the machine's common case): every delta fits
    /// the dense window, runs long enough to lap the slot array.
    #[test]
    fn on_wheel_schedules_pop_in_heap_order(
        ops in proptest::collection::vec(any::<u64>(), 96),
    ) {
        replay(&ops, WHEEL_SLOTS as u64 - 1);
    }

    /// Deltas straddling the horizon: a mix of direct slot pushes and
    /// overflow entries that must migrate back in sequence order as the
    /// base advances past them.
    #[test]
    fn overflow_migration_preserves_heap_order(
        ops in proptest::collection::vec(any::<u64>(), 96),
    ) {
        replay(&ops, 4 * WHEEL_SLOTS as u64);
    }

    /// Far-future-heavy schedules: most pushes overflow, popping is
    /// dominated by base jumps over long empty stretches.
    #[test]
    fn far_future_schedules_pop_in_heap_order(
        ops in proptest::collection::vec(any::<u64>(), 64),
    ) {
        replay(&ops, 50 * WHEEL_SLOTS as u64);
    }

    /// Same-cycle bursts tie-break FIFO exactly like the heap's
    /// insertion sequence, across wrap-around and overflow alike.
    #[test]
    fn same_cycle_bursts_stay_fifo(
        deltas in proptest::collection::vec(0u64..3, 64),
        burst in 2usize..6,
    ) {
        let mut wheel: EventWheel<u32> = EventWheel::new();
        let mut reference = RefQueue::default();
        let mut now = 0u64;
        let mut tag = 0u32;
        for &d in &deltas {
            // Several pushes landing on one cycle, some directly on the
            // wheel, some via overflow (the +WHEEL_SLOTS hop).
            for b in 0..burst {
                let far = if b % 2 == 0 { 0 } else { WHEEL_SLOTS as u64 };
                let at = now + 1 + d + far;
                wheel.push(at, tag);
                reference.push(at, tag);
                tag += 1;
            }
            if let Some(at) = reference.next_at() {
                now = now.max(at);
                loop {
                    let (a, b) = (wheel.pop_due(now), reference.pop_due(now));
                    prop_assert_eq!(a, b, "pop at cycle {} diverges", now);
                    if a.is_none() {
                        break;
                    }
                }
            }
        }
        while let Some(at) = reference.next_at() {
            now = now.max(at);
            prop_assert_eq!(wheel.pop_due(now), reference.pop_due(now));
        }
        prop_assert!(wheel.is_empty());
    }
}
