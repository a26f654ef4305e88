//! The ordered event queue at the heart of the simulator.
//!
//! Events are ordered by their scheduled time; ties are broken by insertion
//! order (FIFO among simultaneous events), which keeps simulations
//! deterministic regardless of how the queue stores them.
//!
//! Most events a simulation schedules are "a fixed delay from now": a
//! stabilize interval, a garbage-collection timeout, a constant hop
//! latency. While the clock only moves forward, events scheduled at
//! `now + d` for one `d` come due in the order they were scheduled, so
//! they need no heap: a FIFO per delay keeps them sorted for free (the
//! per-interval list timing wheels are built on). [`EventQueue`] keeps a
//! few such lanes beside a binary heap and pops the smaller of the heap
//! top and the earliest lane head, so the order is exactly `(time, seq)`
//! wherever an event was stored.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// How many delays can hold a lane at once: one bit each of a `u16`.
const LANES: usize = 16;

/// Slots in the direct-mapped filter of delays that missed a lane.
const SEEN: usize = 64;

/// The delay of a free lane and of an empty filter slot. An event this
/// far past the last pop always goes to the heap.
const FREE: u64 = u64::MAX;

/// The key of an empty lane: above every entry's `(at, seq)` key, since
/// `seq` never reaches `u64::MAX`.
const NO_HEAD: u128 = u128::MAX;

/// A time-ordered queue of events of type `E`.
///
/// `EventQueue` is the minimal core every simulation loop is built on:
/// [`schedule`](EventQueue::schedule) inserts an event at an absolute time and
/// [`pop`](EventQueue::pop) removes the earliest one. Two events scheduled
/// for the same instant are popped in the order they were scheduled.
///
/// Inside, an event goes either to a binary heap or to one of 16 FIFO
/// lanes, each tagged with a delay:
///
/// * **The delay** of an event is `at − t`, where `t` is the time of the
///   last [`pop`](EventQueue::pop) (zero before the first). It is measured
///   from the last pop, not passed in, because a simulation loop schedules
///   from inside the handler of the event it just popped: `t` is then its
///   clock, and a timer re-armed every interval has the same delay each
///   time.
/// * **Sortedness.** A lane takes an entry only if its time is at or after
///   the time of the lane's last entry; since insertion numbers only grow,
///   every lane is sorted by `(at, seq)` whatever the caller does. An
///   entry that fails the check (a schedule before the last pop, or after
///   the caller moved its own clock past it) goes to the heap.
/// * **Admission.** A delay with a live lane appends to it. A delay with
///   none claims a free lane if it missed a lane once before — its slot in
///   a 64-entry direct-mapped filter already holds it — and otherwise goes
///   to the heap and writes itself into that slot. A lane is freed when it
///   empties; none is ever evicted. So a burst of one-off delays (random
///   start phases, per-pair latencies) fills the filter but no lane, and a
///   delay that recurs claims one on its second sight.
/// * **Pop.** The earliest lane head is cached as one `(at << 64) | seq`
///   key and compared with the heap top. When a lane pops, the heads are
///   rescanned up to the highest busy lane only: a claim takes the lowest
///   free lane, so the busy lanes sit low.
///
/// Where an event is stored decides only how much it costs, never when it
/// pops, and the count of pending events is kept, not summed.
///
/// # Example
///
/// ```
/// use verme_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(10), 'b');
/// q.schedule(SimTime::from_nanos(10), 'c');
/// q.schedule(SimTime::from_nanos(5), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Each lane sorted by `(at, seq)`; a free lane is empty.
    lanes: [VecDeque<Entry<E>>; LANES],
    /// The delay each lane holds, [`FREE`] for a free lane.
    delays: [u64; LANES],
    /// The key of each lane's head, [`NO_HEAD`] for an empty lane.
    heads: [u128; LANES],
    /// The lane whose head key is the least (lane 0 when all are empty).
    min_lane: usize,
    /// Bit `i` set while lane `i` is busy, i.e. holds a delay.
    busy: u16,
    /// Delays that went to the heap, each in the slot [`seen_slot`] names.
    seen: [u64; SEEN],
    last_pop: SimTime,
    seq: u64,
    len: usize,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// `(at, seq)` as one integer, ordered the same way.
    fn key(&self) -> u128 {
        (u128::from(self.at.as_nanos()) << 64) | u128::from(self.seq)
    }
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

/// The filter slot of `delay`: Fibonacci hashing, so that round delays
/// (whole seconds in nanoseconds) spread over the slots.
fn seen_slot(delay: u64) -> usize {
    (delay.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SEEN.trailing_zeros())) as usize
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::with_capacity(0)
    }

    /// Creates an empty queue with capacity for `cap` pending events in its
    /// heap.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            lanes: std::array::from_fn(|_| VecDeque::new()),
            delays: [FREE; LANES],
            heads: [NO_HEAD; LANES],
            min_lane: 0,
            busy: 0,
            seen: [FREE; SEEN],
            last_pop: SimTime::ZERO,
            seq: 0,
            len: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let entry = Entry { at, seq: self.seq, event };
        self.seq += 1;
        self.len += 1;
        let delay = at.as_nanos().checked_sub(self.last_pop.as_nanos()).unwrap_or(FREE);
        if delay != FREE {
            if let Some(lane) = self.delays.iter().position(|&d| d == delay) {
                if self.lanes[lane].back().is_some_and(|tail| tail.at <= at) {
                    self.lanes[lane].push_back(entry);
                    return;
                }
            } else if self.seen[seen_slot(delay)] == delay {
                if self.busy != u16::MAX {
                    self.claim(self.busy.trailing_ones() as usize, delay, entry);
                    return;
                }
            } else {
                self.seen[seen_slot(delay)] = delay;
            }
        }
        self.heap.push(Reverse(entry));
    }

    /// Gives free `lane` to `delay`, with `entry` its first.
    fn claim(&mut self, lane: usize, delay: u64, entry: Entry<E>) {
        let key = entry.key();
        self.busy |= 1 << lane;
        self.delays[lane] = delay;
        self.heads[lane] = key;
        self.lanes[lane].push_back(entry);
        if key < self.heads[self.min_lane] {
            self.min_lane = lane;
        }
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty. Simultaneous events come out in scheduling order.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let lane_head = self.heads[self.min_lane];
        let entry = match self.heap.peek() {
            Some(Reverse(top)) if top.key() < lane_head => self.heap.pop().expect("peeked").0,
            _ if lane_head != NO_HEAD => self.pop_lane(),
            _ => return None,
        };
        self.len -= 1;
        self.last_pop = entry.at;
        Some((entry.at, entry.event))
    }

    /// Pops the head of the earliest lane, freeing the lane if that empties
    /// it, and finds the new earliest lane among the lanes up to the highest
    /// busy one (the lanes above it are free, their heads [`NO_HEAD`]).
    fn pop_lane(&mut self) -> Entry<E> {
        let lane = self.min_lane;
        let entry = self.lanes[lane].pop_front().expect("a lane with a head key holds an entry");
        match self.lanes[lane].front() {
            Some(next) => self.heads[lane] = next.key(),
            None => {
                self.heads[lane] = NO_HEAD;
                self.delays[lane] = FREE;
                self.busy &= !(1 << lane);
            }
        }
        let busy_end = (u16::BITS - self.busy.leading_zeros()) as usize;
        self.min_lane = (0..busy_end).min_by_key(|&i| self.heads[i]).unwrap_or(0);
        entry
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let lane_head = self.heads[self.min_lane];
        match self.heap.peek() {
            Some(Reverse(top)) if top.key() < lane_head => Some(top.at),
            _ if lane_head != NO_HEAD => Some(SimTime::from_nanos((lane_head >> 64) as u64)),
            _ => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.lanes.iter_mut().for_each(VecDeque::clear);
        self.delays = [FREE; LANES];
        self.heads = [NO_HEAD; LANES];
        self.min_lane = 0;
        self.busy = 0;
        self.len = 0;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        for &n in &[30u64, 10, 20] {
            q.schedule(SimTime::from_nanos(n), n);
        }
        assert_eq!(q.pop().unwrap().1, 10);
        assert_eq!(q.pop().unwrap().1, 20);
        assert_eq!(q.pop().unwrap().1, 30);
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_among_simultaneous() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(42);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            let (at, e) = q.pop().unwrap();
            assert_eq!(at, t);
            assert_eq!(e, i);
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(1)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        let t0 = SimTime::ZERO;
        q.schedule(t0 + SimDuration::from_secs(2), "late");
        q.schedule(t0 + SimDuration::from_secs(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.schedule(t0 + SimDuration::from_millis(1500), "middle");
        assert_eq!(q.pop().unwrap().1, "middle");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    /// A queue holding one event at each of `times`, numbered in order.
    fn queue_of(times: &[SimTime]) -> EventQueue<u64> {
        let mut q = EventQueue::new();
        for (i, &at) in times.iter().enumerate() {
            q.schedule(at, i as u64);
        }
        q
    }

    /// Drains `q`, asserting the events of [`queue_of`]`(times)` come out
    /// in `(at, seq)` order.
    fn assert_drains_in_order(mut q: EventQueue<u64>, times: &[SimTime]) {
        let mut order: Vec<u64> = (0..times.len() as u64).collect();
        order.sort_by_key(|&i| (times[i as usize], i));
        for i in order {
            assert_eq!(q.pop(), Some((times[i as usize], i)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn a_recurring_delay_earns_a_lane_after_a_flood_of_one_offs() {
        // Start phases: 20 000 distinct delays, none of which recurs; then
        // 1 000 events at one fixed delay.
        let one_offs = (0..20_000).map(|i| SimTime::from_nanos(1_000_000 + 7 * i));
        let fixed = std::iter::repeat_n(SimTime::ZERO + SimDuration::from_secs(16), 1_000);
        let times: Vec<SimTime> = one_offs.chain(fixed).collect();
        let q = queue_of(&times);
        assert_eq!(q.len(), 21_000);
        // The fixed delay missed a lane once, then claimed one.
        assert!(q.heap.len() <= 20_001, "{} entries in the heap", q.heap.len());
        assert_drains_in_order(q, &times);
    }

    #[test]
    fn two_recurring_delays_among_one_offs_each_earn_a_lane() {
        let one_off = |i: u64| SimTime::from_nanos(5_000 + 13 * i);
        let (a, b) = (SimTime::from_nanos(50_000), SimTime::from_nanos(7_000));
        // 100 one-offs first, then each recurring delay between two more.
        let mut times: Vec<SimTime> = (0..100).map(one_off).collect();
        for i in 0..1_000 {
            times.extend([a, one_off(100 + 2 * i), b, one_off(101 + 2 * i)]);
        }
        let q = queue_of(&times);
        // Every one-off is in the heap; each recurring delay put only its
        // first entry there.
        assert!(q.heap.len() <= 2_100 + 2, "{} entries in the heap", q.heap.len());
        assert_drains_in_order(q, &times);
    }

    /// Schedules the next event at `at` in `q` and notes it in `pending`.
    fn push(q: &mut EventQueue<u64>, pending: &mut Vec<(SimTime, u64)>, at: SimTime) {
        pending.push((at, q.seq));
        q.schedule(at, q.seq);
    }

    /// Pops `q` until the earliest of `pending` (the events scheduled and
    /// not yet popped, numbered by `seq`) is past `until`, checking that
    /// every pop is the earliest by `(at, seq)` and that `min_lane` then
    /// names the busy lane with the least head, unless every lane is empty.
    fn pop_checked(q: &mut EventQueue<u64>, pending: &mut Vec<(SimTime, u64)>, until: SimTime) {
        pending.sort_unstable();
        while pending.first().is_some_and(|&(at, _)| at <= until) {
            assert_eq!(q.pop(), Some(pending.remove(0)));
            let least = q.heads.iter().min().copied().unwrap_or(NO_HEAD);
            assert_eq!(q.heads[q.min_lane], least, "min_lane {} busy {:016b}", q.min_lane, q.busy);
            assert!(q.busy == 0 || q.busy >> q.min_lane & 1 == 1, "min_lane names a free lane");
            for lane in 0..LANES {
                assert_eq!(q.busy >> lane & 1 == 1, q.delays[lane] != FREE, "lane {lane}");
            }
        }
    }

    #[test]
    fn pops_scan_the_busy_lanes_and_a_cleared_queue_starts_over() {
        let (mut q, mut pending) = (EventQueue::new(), Vec::new());
        // Five recurring delays claim lanes 0..5 in turn, each sighted
        // once in the heap first; one-off delays go to the heap between.
        let lane_time = |k: u64| SimTime::from_nanos(1_000 * (k + 1));
        for k in 0..5 {
            for r in 0..4 {
                push(&mut q, &mut pending, lane_time(k));
                push(&mut q, &mut pending, SimTime::from_nanos(1_000 * k + 100 * r + 7));
            }
        }
        assert_eq!(q.busy, 0b1_1111);
        // Draining through lane 3's time frees lanes 0..4: only the high
        // lane stays busy, and the scan still finds it.
        pop_checked(&mut q, &mut pending, lane_time(3));
        assert_eq!((q.busy, q.min_lane), (0b1_0000, 4));
        // A new recurring delay claims the lowest free lane, below it.
        let at = q.last_pop + SimDuration::from_nanos(50);
        (0..3).for_each(|_| push(&mut q, &mut pending, at));
        assert_eq!(q.busy, 0b1_0001);
        pop_checked(&mut q, &mut pending, lane_time(4));
        assert!(q.is_empty() && pending.is_empty());
        assert_eq!((q.busy, q.min_lane), (0, 0));
        // Cleared with lanes busy, the queue claims from lane 0 again.
        for k in 0..3 {
            push(&mut q, &mut pending, lane_time(9 + k));
            push(&mut q, &mut pending, lane_time(9 + k));
        }
        assert_eq!(q.busy, 0b111);
        q.clear();
        pending.clear();
        assert!(q.is_empty());
        assert_eq!((q.busy, q.min_lane), (0, 0));
        let base = q.last_pop;
        for k in 0..3 {
            for r in 0..3 {
                push(&mut q, &mut pending, base + SimDuration::from_nanos(500 * (3 - k)));
                push(&mut q, &mut pending, base + SimDuration::from_nanos(40 * r + k));
            }
        }
        assert_eq!(q.busy, 0b111);
        pop_checked(&mut q, &mut pending, SimTime::from_nanos(u64::MAX));
        assert!(q.is_empty() && pending.is_empty());
        assert_eq!((q.busy, q.min_lane), (0, 0));
    }
}
