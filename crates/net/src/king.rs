//! A King-style pairwise latency matrix.
//!
//! The paper's §7.1 experiments use the 1740×1740 King matrix distributed
//! with p2psim (inter-DNS-server RTTs measured with the King technique),
//! whose average RTT is 198 ms. That measured matrix is not bundled here;
//! instead [`KingMatrix::synthetic`] samples a symmetric matrix from a
//! log-normal distribution calibrated to the same mean. Log-normal RTTs are
//! the standard stand-in for measured Internet delay distributions: they
//! reproduce the long right tail that dominates multi-hop lookup latency.

use std::fmt::Display;
use std::str::{FromStr, SplitWhitespace};

use rand::{Rng, RngCore};

use verme_sim::{split_parts, HostId, LatencyModel, SeedSource, SimDuration};

/// Default average round-trip time of the King data set, in milliseconds.
pub const KING_MEAN_RTT_MS: f64 = 198.0;

/// Matrices with fewer pairs than this are drawn on the calling thread
/// alone; larger ones split the draw as [`split_parts`] says. 64 Ki pairs
/// take about 1.6 ms, a thread start tens of microseconds.
const PARALLEL_FLOOR: usize = 1 << 16;

/// Distinct pairs among `n` hosts: the packed upper triangle's length.
fn pairs(n: usize) -> usize {
    n * (n - 1) / 2
}

/// A symmetric pairwise-RTT latency model.
///
/// One-way message delay between two distinct hosts is half the stored RTT.
/// Delay from a host to itself is a fixed 0.1 ms (loopback). The `bytes`
/// argument of [`LatencyModel::delay`] is ignored: the King experiments
/// measure control-message latency, not bulk transfer.
///
/// # Example
///
/// ```
/// use verme_net::KingMatrix;
/// use verme_sim::{HostId, LatencyModel};
///
/// let mut m = KingMatrix::synthetic(16, 198.0, 42);
/// let d = m.delay(HostId(0), HostId(1), 100);
/// assert!(d.as_millis_f64() > 0.0);
/// // Symmetric:
/// assert_eq!(d, m.delay(HostId(1), HostId(0), 100));
/// ```
#[derive(Clone, Debug)]
pub struct KingMatrix {
    n: usize,
    /// Upper-triangular RTTs in milliseconds, row-major: entry for (i, j)
    /// with i < j lives at `tri_index(i, j)`.
    rtt_ms: Vec<f32>,
}

impl KingMatrix {
    /// Synthesizes an `n`-host matrix whose RTTs are log-normal with the
    /// given mean (milliseconds).
    ///
    /// The log-normal shape parameter is fixed at σ = 0.6, which yields a
    /// median/mean ratio (~0.84) and a p90/mean ratio (~1.8) consistent
    /// with published King-measurement statistics.
    ///
    /// From 64 Ki pairs on, the pairs are drawn in [`split_parts`]
    /// contiguous ranges on as many threads; the matrix is the same on any
    /// core count.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `mean_rtt_ms` is not positive and finite.
    pub fn synthetic(n: usize, mean_rtt_ms: f64, seed: u64) -> Self {
        assert!(n > 0, "need at least one host");
        assert!(mean_rtt_ms.is_finite() && mean_rtt_ms > 0.0, "mean RTT must be positive");
        KingMatrix::synthetic_in(n, mean_rtt_ms, seed, split_parts(pairs(n), PARALLEL_FLOOR))
    }

    /// [`synthetic`](KingMatrix::synthetic), drawing the packed upper
    /// triangle in at most `parts` contiguous ranges: the first on the
    /// calling thread, each other one on a scoped thread of its own, into
    /// its own slice of the one table. The pairs are the one
    /// `"king-matrix"` stream's, two draws each in pair order, so a range's
    /// generator is that stream stepped past the two draws of every pair
    /// before it (a step costs about a nanosecond, a pair's draw about 25).
    /// A worker allocates nothing: glibc would give an allocating thread an
    /// arena of its own, which stays resident.
    fn synthetic_in(n: usize, mean_rtt_ms: f64, seed: u64, parts: usize) -> Self {
        const SIGMA: f64 = 0.6;
        // For LogNormal(mu, sigma), mean = exp(mu + sigma^2/2).
        let mu = mean_rtt_ms.ln() - SIGMA * SIGMA / 2.0;
        let stream = SeedSource::new(seed).stream("king-matrix");
        let fill = |first_pair: usize, out: &mut [f32]| {
            let mut rng = stream.clone();
            for _ in 0..2 * first_pair {
                rng.next_u64();
            }
            for rtt_ms in out {
                // Box-Muller standard normal.
                let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let rtt = (mu + SIGMA * z).exp();
                // Clamp to a sane range: 1 ms .. 2 s.
                *rtt_ms = rtt.clamp(1.0, 2000.0) as f32;
            }
        };
        let fill = &fill;
        let mut rtt_ms = vec![0.0; pairs(n)];
        let range_len = rtt_ms.len().div_ceil(parts).max(1);
        std::thread::scope(|s| {
            let mut ranges = rtt_ms.chunks_mut(range_len).enumerate();
            let first = ranges.next();
            for (k, range) in ranges {
                s.spawn(move || fill(k * range_len, range));
            }
            if let Some((_, range)) = first {
                fill(0, range);
            }
        });
        KingMatrix { n, rtt_ms }
    }

    /// Builds a matrix from measured RTTs (milliseconds).
    ///
    /// `rtts` must be square; only the upper triangle is used, so an
    /// asymmetric measured matrix is symmetrized by taking the `(i, j)`
    /// entry with `i < j`.
    ///
    /// # Panics
    ///
    /// Panics if `rtts` is empty, not square, or has an entry in its upper
    /// triangle that is not positive once stored as an `f32` or whose
    /// one-way delay no [`SimDuration`] represents.
    #[allow(clippy::needless_range_loop)] // (i, j) pairs read clearest as indices
    pub fn from_rtt_millis(rtts: &[Vec<f64>]) -> Self {
        let n = rtts.len();
        assert!(n > 0, "empty matrix");
        assert!(rtts.iter().all(|row| row.len() == n), "matrix must be square");
        let mut rtt_ms = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                let v = rtts[i][j];
                assert!(storable_rtt(v), "invalid RTT at ({i},{j}): {v}");
                rtt_ms.push(v as f32);
            }
        }
        KingMatrix { n, rtt_ms }
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the matrix has no hosts (never true for a constructed one).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The RTT between two hosts in milliseconds (0.2 ms for `a == b`).
    ///
    /// # Panics
    ///
    /// Panics if either host is out of range.
    pub fn rtt_ms(&self, a: HostId, b: HostId) -> f64 {
        assert!(a.0 < self.n && b.0 < self.n, "host out of range");
        if a == b {
            return 0.2;
        }
        let (i, j) = if a.0 < b.0 { (a.0, b.0) } else { (b.0, a.0) };
        self.rtt_ms[self.tri_index(i, j)] as f64
    }

    /// Mean RTT over all distinct pairs, in milliseconds.
    pub fn mean_rtt_ms(&self) -> f64 {
        if self.rtt_ms.is_empty() {
            return 0.0;
        }
        self.rtt_ms.iter().map(|&v| v as f64).sum::<f64>() / self.rtt_ms.len() as f64
    }

    /// Parses a pairwise-latency file in the p2psim style: one
    /// whitespace-separated `i j rtt_ms` triple per line (0-based host
    /// indices), `#`-prefixed comments and blank lines ignored. A pair given
    /// twice keeps its last value. Missing pairs are filled with the mean of
    /// the stored ones, so a sparse measurement file still yields a usable
    /// matrix.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed line (an index that
    /// is not a non-negative integer, an rtt that is not a number), an
    /// rtt [`from_rtt_millis`](KingMatrix::from_rtt_millis) would reject,
    /// an out-of-range index, a host paired with itself, or an empty
    /// input.
    #[allow(clippy::needless_range_loop)] // (i, j) pairs read clearest as indices
    pub fn parse_pairs(text: &str, hosts: usize) -> Result<Self, String> {
        if hosts == 0 {
            return Err("need at least one host".into());
        }
        let mut rtts = vec![vec![f64::NAN; hosts]; hosts];
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let lineno = lineno + 1;
            let mut parts = line.split_whitespace();
            let i: usize = parse_field(&mut parts, lineno, "source index")?;
            let j: usize = parse_field(&mut parts, lineno, "destination index")?;
            let rtt: f64 = parse_field(&mut parts, lineno, "rtt")?;
            if i >= hosts || j >= hosts {
                return Err(format!("line {lineno}: index out of range ({i}, {j})"));
            }
            if i == j {
                return Err(format!("line {lineno}: host {i} paired with itself"));
            }
            if !storable_rtt(rtt) {
                return Err(format!("line {lineno}: invalid rtt {rtt}"));
            }
            rtts[i][j] = rtt;
            rtts[j][i] = rtt;
        }
        let stored: Vec<f64> = rtts
            .iter()
            .enumerate()
            .flat_map(|(i, row)| row[i + 1..].iter().copied())
            .filter(|v| !v.is_nan())
            .collect();
        if stored.is_empty() {
            return Err("no latency pairs in input".into());
        }
        let mean = stored.iter().sum::<f64>() / stored.len() as f64;
        for i in 0..hosts {
            for j in 0..hosts {
                if rtts[i][j].is_nan() {
                    rtts[i][j] = mean;
                }
            }
        }
        Ok(KingMatrix::from_rtt_millis(&rtts))
    }

    fn tri_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        // Offset of row i in the packed upper triangle.
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }
}

/// The next whitespace-separated field of line `lineno`, parsed as a `T`.
fn parse_field<T: FromStr>(
    parts: &mut SplitWhitespace<'_>,
    lineno: usize,
    what: &str,
) -> Result<T, String>
where
    T::Err: Display,
{
    let p = parts.next().ok_or_else(|| format!("line {lineno}: missing {what}"))?;
    p.parse().map_err(|e| format!("line {lineno}: bad {what} {p:?}: {e}"))
}

/// The one-way delay, in seconds, of a round trip of `rtt_ms`.
fn one_way_secs(rtt_ms: f64) -> f64 {
    rtt_ms / 2.0 / 1e3
}

/// Whether the table can hold `rtt_ms`: positive once stored as an `f32`
/// (`1e-50` is not) and with a one-way delay a [`SimDuration`] can
/// represent (neither `1e30` nor `1e39`, an `f32` infinity, has one).
fn storable_rtt(rtt_ms: f64) -> bool {
    let stored = f64::from(rtt_ms as f32);
    stored > 0.0 && SimDuration::checked_from_secs_f64(one_way_secs(stored)).is_some()
}

impl LatencyModel for KingMatrix {
    fn delay(&mut self, from: HostId, to: HostId, _bytes: usize) -> SimDuration {
        SimDuration::from_secs_f64(one_way_secs(self.rtt_ms(from, to)))
    }

    fn num_hosts(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn synthetic_mean_matches_target() {
        let m = KingMatrix::synthetic(200, 198.0, 7);
        let mean = m.mean_rtt_ms();
        assert!((mean - 198.0).abs() < 15.0, "synthetic mean RTT {mean} too far from 198");
    }

    #[test]
    fn symmetric_and_self_loopback() {
        let mut m = KingMatrix::synthetic(10, 100.0, 1);
        for i in 0..10 {
            for j in 0..10 {
                assert_eq!(m.rtt_ms(HostId(i), HostId(j)), m.rtt_ms(HostId(j), HostId(i)));
            }
        }
        assert!(m.rtt_ms(HostId(3), HostId(3)) < 1.0);
        let d = m.delay(HostId(2), HostId(5), 0);
        assert!((d.as_millis_f64() - m.rtt_ms(HostId(2), HostId(5)) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn deterministic_by_seed() {
        let a = KingMatrix::synthetic(50, 198.0, 9);
        let b = KingMatrix::synthetic(50, 198.0, 9);
        let c = KingMatrix::synthetic(50, 198.0, 10);
        assert_eq!(a.rtt_ms, b.rtt_ms);
        assert_ne!(a.rtt_ms, c.rtt_ms);
    }

    #[test]
    fn from_measured_matrix() {
        let rtts = vec![vec![0.0, 10.0, 20.0], vec![10.0, 0.0, 30.0], vec![20.0, 30.0, 0.0]];
        let m = KingMatrix::from_rtt_millis(&rtts);
        assert_eq!(m.len(), 3);
        assert_eq!(m.rtt_ms(HostId(0), HostId(1)), 10.0);
        assert_eq!(m.rtt_ms(HostId(0), HostId(2)), 20.0);
        assert_eq!(m.rtt_ms(HostId(1), HostId(2)), 30.0);
    }

    #[test]
    fn rtts_have_a_long_tail() {
        let m = KingMatrix::synthetic(300, 198.0, 3);
        let mut rtts: Vec<f64> = m.rtt_ms.iter().map(|&v| v as f64).collect();
        rtts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = rtts[rtts.len() / 2];
        let p95 = rtts[rtts.len() * 95 / 100];
        assert!(median < m.mean_rtt_ms(), "log-normal median below mean");
        assert!(p95 > 1.5 * median, "tail should be heavy");
    }

    #[test]
    fn parse_pairs_round_trips() {
        let text = "# comment\n0 1 10.5\n0 2 20.0\n1 2 30.25\n\n";
        let m = KingMatrix::parse_pairs(text, 3).unwrap();
        assert_eq!(m.rtt_ms(HostId(0), HostId(1)), 10.5);
        assert_eq!(m.rtt_ms(HostId(2), HostId(1)), 30.25);
    }

    #[test]
    fn parse_pairs_fills_missing_with_mean() {
        let text = "0 1 10\n0 2 30\n";
        let m = KingMatrix::parse_pairs(text, 4).unwrap();
        // Pair (1,2) and all pairs touching host 3 were missing: mean=20.
        assert_eq!(m.rtt_ms(HostId(1), HostId(2)), 20.0);
        assert_eq!(m.rtt_ms(HostId(3), HostId(0)), 20.0);
    }

    #[test]
    fn parse_pairs_rejects_garbage() {
        assert!(KingMatrix::parse_pairs("0 1 ten", 2).unwrap_err().contains("bad rtt"));
        assert!(KingMatrix::parse_pairs("0 9 1.0", 2).unwrap_err().contains("out of range"));
        assert!(KingMatrix::parse_pairs("0 1 -3", 2).unwrap_err().contains("invalid rtt"));
        assert!(KingMatrix::parse_pairs("", 2).unwrap_err().contains("no latency pairs"));
        assert!(KingMatrix::parse_pairs("0 1 1", 0).unwrap_err().contains("at least one host"));
        // Host indices are non-negative integers, not anything a float
        // parse would truncate into range.
        for bad in ["-1 1 10", "nan 1 10", "2.9 1 10", "1 inf 10", "1e0 2 10"] {
            let err = KingMatrix::parse_pairs(bad, 3).unwrap_err();
            assert!(err.starts_with("line 1: bad") && err.contains("index"), "{bad:?}: {err}");
        }
        let err = KingMatrix::parse_pairs("0 1 10\n# self\n0 0 1000\n", 3).unwrap_err();
        assert_eq!(err, "line 3: host 0 paired with itself");
        assert!(KingMatrix::parse_pairs("0 1", 2).unwrap_err().contains("line 1: missing rtt"));
        // An rtt that parses but that the table cannot hold: an f32
        // infinity, a one-way delay past any SimDuration, an f32 zero.
        let err = KingMatrix::parse_pairs("0 1 10\n0 2 1e39\n", 3).unwrap_err();
        assert_eq!(err, "line 2: invalid rtt 1000000000000000000000000000000000000000");
        let err = KingMatrix::parse_pairs("0 1 1e30", 2).unwrap_err();
        assert_eq!(err, "line 1: invalid rtt 1000000000000000000000000000000");
        let err = KingMatrix::parse_pairs("0 1 1e-50", 2).unwrap_err();
        assert!(err.starts_with("line 1: invalid rtt 0.000"), "{err}");
    }

    #[test]
    fn parse_pairs_fill_in_mean_counts_each_stored_pair_once() {
        // A repeated pair keeps its last value and enters the mean once,
        // at that value: missing pairs get 30, not (10 + 30) / 2.
        let m = KingMatrix::parse_pairs("0 1 10\n0 1 30\n", 3).unwrap();
        assert_eq!(m.rtt_ms(HostId(0), HostId(1)), 30.0);
        assert_eq!(m.rtt_ms(HostId(0), HostId(2)), 30.0);
        assert_eq!(m.rtt_ms(HostId(1), HostId(2)), 30.0);
        // Two stored pairs, one overwritten in reverse: mean (20 + 40) / 2.
        let m = KingMatrix::parse_pairs("0 1 10\n0 2 40\n1 0 20\n", 4).unwrap();
        assert_eq!(m.rtt_ms(HostId(0), HostId(1)), 20.0);
        assert_eq!(m.rtt_ms(HostId(3), HostId(1)), 30.0);
    }

    /// FNV-1a over the little-endian bytes of every stored RTT's bits.
    fn digest(m: &KingMatrix) -> u64 {
        let bytes: Vec<u8> = m.rtt_ms.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
        verme_sim::rng::fnv1a(&bytes)
    }

    /// Every stored RTT's bits, in table order.
    fn bits(m: &KingMatrix) -> Vec<u32> {
        m.rtt_ms.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #[test]
        fn split_draw_equals_the_one_range_draw(
            n in 1usize..=700,
            seed in prop::sample::select(vec![0u64, 1, 42, 913, u64::MAX]),
            parts in 1usize..=8,
        ) {
            let whole = bits(&KingMatrix::synthetic_in(n, KING_MEAN_RTT_MS, seed, 1));
            let split = KingMatrix::synthetic_in(n, KING_MEAN_RTT_MS, seed, parts);
            prop_assert_eq!(&bits(&split), &whole, "{} parts", parts);
            // From 363 hosts on the triangle passes the parallel floor and
            // `synthetic` splits it over this machine's cores.
            let public = KingMatrix::synthetic(n, KING_MEAN_RTT_MS, seed);
            prop_assert_eq!(&bits(&public), &whole, "split_parts");
        }
    }

    #[test]
    fn fig5_matrix_digest_is_pinned() {
        let m = KingMatrix::synthetic(1740, KING_MEAN_RTT_MS, 42);
        assert_eq!(digest(&m), 0x849C_FCFB_81B1_B081);
    }

    #[test]
    #[should_panic(expected = "invalid RTT at (0,1)")]
    fn rejects_an_rtt_past_any_delay() {
        let _ = KingMatrix::from_rtt_millis(&[vec![0.0, 1e30], vec![1e30, 0.0]]);
    }

    #[test]
    fn rtts_up_to_the_longest_delay_are_stored() {
        // u64::MAX ns is about 1.8e10 s one way: a 3.69e13 ms round trip.
        let mut m = KingMatrix::from_rtt_millis(&[vec![0.0, 3.6e13], vec![0.0, 0.0]]);
        assert!(m.delay(HostId(0), HostId(1), 0) > SimDuration::from_hours(24 * 365 * 500));
        assert!(!storable_rtt(3.7e13));
    }

    #[test]
    #[should_panic(expected = "matrix must be square")]
    fn rejects_ragged_matrix() {
        let _ = KingMatrix::from_rtt_millis(&[vec![0.0, 1.0], vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "host out of range")]
    fn rejects_out_of_range_host() {
        let m = KingMatrix::synthetic(4, 100.0, 0);
        let _ = m.rtt_ms(HostId(4), HostId(0));
    }
}
