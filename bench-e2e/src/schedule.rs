//! Seeded inputs: a small deterministic generator and Poisson arrival
//! schedules. Every input the benchmark feeds the program derives from
//! the workload seed through here, so the same seed gives the same run.

/// SplitMix64: tiny, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` of the workload seed `seed`; distinct
    /// streams are independent sequences.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut mixer = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        Rng(mixer.next_u64())
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// Due times, in seconds from the start of the window, of a Poisson
/// arrival process at `rate` per second over `[0, seconds)`, conditioned
/// on its expected count: exactly `round(rate * seconds)` arrivals at
/// independent uniform times, sorted. (Given its count, a Poisson
/// process's arrival times are exactly that; fixing the count keeps the
/// offered load the same on every seed.)
#[must_use]
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed, 0x5C4E_D01E);
    let count = (rate * seconds).round() as usize;
    let mut due: Vec<f64> = (0..count).map(|_| rng.unit() * seconds).collect();
    due.sort_by(f64::total_cmp);
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(
            poisson_schedule(7, 120.0, 5.0),
            poisson_schedule(7, 120.0, 5.0)
        );
    }

    #[test]
    fn different_seed_different_schedule() {
        let a = poisson_schedule(7, 120.0, 5.0);
        let b = poisson_schedule(8, 120.0, 5.0);
        assert_ne!(a, b);
        assert!(a.iter().zip(&b).filter(|(x, y)| x == y).count() < 5);
    }

    #[test]
    fn schedule_is_sorted_inside_the_window_at_the_rate() {
        let due = poisson_schedule(3, 200.0, 50.0);
        assert_eq!(due.len(), 10_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.iter().all(|&t| (0.0..50.0).contains(&t)));
        // Gaps are exponential with mean 1/rate: about 1/e of them exceed
        // the mean (+-3 % is beyond five standard deviations here).
        let long = due.windows(2).filter(|w| w[1] - w[0] > 1.0 / 200.0).count();
        assert!((long as f64 / 9_999.0 - (-1.0f64).exp()).abs() < 0.03);
    }

    #[test]
    fn streams_are_independent_and_draws_in_range() {
        let mut a = Rng::new(1, 1);
        let mut b = Rng::new(1, 2);
        assert_ne!(a.next_u64(), b.next_u64());
        for _ in 0..1000 {
            assert!(a.below(17) < 17);
            assert!((0.0..1.0).contains(&a.unit()));
        }
        assert_eq!(a.bytes(13).len(), 13);
    }
}
