//! Property test: the lane queue against the heap-only queue it replaced.
//!
//! [`HeapQueue`] below is [`EventQueue`] as it was before it kept FIFO
//! lanes beside its heap — one `BinaryHeap` of `(at, seq)`-ordered
//! entries — kept verbatim as the reference model. Random operation
//! sequences schedule at delays drawn three ways: from a small set with
//! zero in it (heavy time ties, delays that recur and so earn lanes),
//! from a wide range (one-off delays that stay in the heap) and at an
//! absolute time before the last pop (which no lane may take). Both
//! queues must pop alike, and after every operation agree on `len`,
//! `is_empty` and `peek_time`.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use proptest::prelude::*;

use verme_sim::{EventQueue, SimTime};

/// The event queue this crate had before it kept lanes.
#[derive(Debug)]
struct HeapQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<E> HeapQueue<E> {
    /// Creates an empty queue.
    fn new() -> Self {
        HeapQueue { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedules `event` to fire at absolute time `at`.
    fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, event }));
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty. Simultaneous events come out in scheduling order.
    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.event))
    }

    /// The time of the earliest pending event, if any.
    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Number of pending events.
    fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all pending events.
    fn clear(&mut self) {
        self.heap.clear();
    }
}

/// The recurring delays, in nanoseconds: zero, small ones whose sums tie
/// often, and round intervals. There are more of them than the queue has
/// lanes, so some find every lane taken.
const RECURRING: [u64; 20] = [
    0,
    1,
    2,
    3,
    5,
    8,
    13,
    21,
    34,
    55,
    89,
    144,
    233,
    377,
    610,
    987,
    1_000,
    50_000_000,
    1_000_000_000,
    16_000_000_000,
];

/// When a scheduled event is due.
#[derive(Clone, Copy, Debug)]
enum When {
    /// The last pop plus `RECURRING[i]`.
    Recurring(usize),
    /// The last pop plus a delay from a wide range.
    Wide(u64),
    /// This many nanoseconds before the last pop (zero when nothing that
    /// early exists).
    Past(u64),
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Schedule(When),
    Pop,
    Clear,
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..100, 0..RECURRING.len(), 0u64..20_000_000_000, 1u64..2_000).prop_map(
        |(kind, i, wide, back)| match kind {
            0..=39 => Op::Schedule(When::Recurring(i)),
            40..=59 => Op::Schedule(When::Wide(wide)),
            60..=69 => Op::Schedule(When::Past(back)),
            70..=98 => Op::Pop,
            _ => Op::Clear,
        },
    )
}

proptest! {
    #[test]
    fn lane_queue_pops_like_the_heap_queue(ops in prop::collection::vec(op(), 1..600)) {
        let mut queue = EventQueue::new();
        let mut model = HeapQueue::new();
        let mut last_pop = 0u64;
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Schedule(when) => {
                    let at = SimTime::from_nanos(match when {
                        When::Recurring(i) => last_pop + RECURRING[i],
                        When::Wide(d) => last_pop + d,
                        When::Past(back) => last_pop.saturating_sub(back),
                    });
                    queue.schedule(at, step);
                    model.schedule(at, step);
                }
                Op::Pop => {
                    let popped = queue.pop();
                    prop_assert_eq!(popped, model.pop(), "step {}: pop", step);
                    if let Some((at, _)) = popped {
                        last_pop = at.as_nanos();
                    }
                }
                Op::Clear => {
                    queue.clear();
                    model.clear();
                }
            }
            // Every query, after every operation.
            prop_assert_eq!(queue.len(), model.len(), "step {}: len", step);
            prop_assert_eq!(queue.is_empty(), model.is_empty(), "step {}: is_empty", step);
            prop_assert_eq!(queue.peek_time(), model.peek_time(), "step {}: peek_time", step);
        }
        // And the rest drains in the same order.
        while let Some(popped) = model.pop() {
            prop_assert_eq!(queue.pop(), Some(popped), "drain");
        }
        prop_assert_eq!(queue.pop(), None, "drain");
    }
}
