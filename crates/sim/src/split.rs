//! How many threads one build splits its work over.
//!
//! A few construction steps fill a large table whose entries do not
//! depend on one another's order (the King matrix's pairs, the worm
//! population's finger walk). Each cuts its items into contiguous ranges,
//! walks the first on the calling thread and each other one on a scoped
//! thread, and produces exactly what one range would. This module holds
//! the one decision they share: how many ranges.

/// The most ranges a build is split into, whatever the core count.
const MAX_PARTS: usize = 8;

/// The number of contiguous ranges to split `items` into: one below the
/// caller's `floor` (where a thread start costs more than it saves), else
/// `min(available_parallelism, 8)`, one when the core count is unknown.
///
/// # Example
///
/// ```
/// use verme_sim::split_parts;
///
/// assert_eq!(split_parts(100, 4_096), 1);
/// assert!((1..=8).contains(&split_parts(1 << 20, 4_096)));
/// ```
pub fn split_parts(items: usize, floor: usize) -> usize {
    if items < floor {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |cores| cores.get().min(MAX_PARTS))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_part_below_the_floor_and_at_most_eight_above() {
        assert_eq!(split_parts(0, 1), 1);
        assert_eq!(split_parts(4_095, 4_096), 1);
        let above = split_parts(4_096, 4_096);
        assert!((1..=MAX_PARTS).contains(&above), "{above}");
        assert_eq!(split_parts(usize::MAX, 0), above);
    }
}
