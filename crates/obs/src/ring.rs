//! A bounded ring buffer that keeps the most recent items.
//!
//! The flight recorder must run for millions of cycles without growing,
//! so the event log is a fixed-capacity ring: pushes past capacity evict
//! the oldest entry and bump a `dropped` counter, exactly like a hardware
//! trace buffer. Iteration is always oldest-to-newest.

use std::collections::VecDeque;

/// Fixed-capacity FIFO that evicts its oldest element when full.
#[derive(Debug, Clone)]
pub(crate) struct RingBuffer<T> {
    buf: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> RingBuffer<T> {
    /// Creates a ring holding at most `capacity` items (min 1).
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingBuffer {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an item, evicting the oldest if the ring is full.
    pub(crate) fn push(&mut self, item: T) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(item);
    }

    /// Items currently retained.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// The configured capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many items have been evicted to make room.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates oldest-to-newest over the retained items.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_everything_under_capacity() {
        let mut r = RingBuffer::new(4);
        for i in 0..4 {
            r.push(i);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn wraparound_keeps_newest_and_counts_drops() {
        let mut r = RingBuffer::new(3);
        for i in 0..10 {
            r.push(i);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 7);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![7, 8, 9]);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = RingBuffer::new(0);
        r.push(1);
        r.push(2);
        assert_eq!(r.capacity(), 1);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![2]);
    }
}
