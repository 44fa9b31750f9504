//! Small helpers: the seeded generator, order statistics, memory readout.

/// SplitMix64: the benchmark's own seeded generator, so its inputs do not
/// depend on the program's random-number shim.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005e_ed0f_be7c_4a11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `0..n` (`n > 0`), by widening multiply.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Log-uniform magnitude in `lo..2^max_bits`: every bit length from
    /// that of `lo` up to `max_bits` is equally likely.
    pub fn log_uniform(&mut self, lo: u64, max_bits: u32) -> u64 {
        let lo_bits = 64 - lo.leading_zeros();
        loop {
            let bits = lo_bits + self.below(u64::from(max_bits - lo_bits + 1)) as u32;
            let high = 1u64 << (bits - 1);
            let v = high | self.below(high);
            if v >= lo {
                return v;
            }
        }
    }

    /// A random sign applied to `v`.
    pub fn signed(&mut self, v: i64) -> i64 {
        if self.next_u64() & 1 == 0 {
            v
        } else {
            -v
        }
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The `q`-quantile (0..=1) of `values`, linearly interpolated between
/// order statistics. `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Order-sensitive FNV-1a over 32-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum(pub u64);

impl Default for Checksum {
    fn default() -> Checksum {
        Checksum(0xcbf2_9ce4_8422_2325)
    }
}

impl Checksum {
    pub fn add(&mut self, word: u32) {
        self.0 ^= u64::from(word);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Whether to start another round of a timed phase that began at `start`
/// and has run `rounds` rounds: always a first, then another only while the
/// phase would end nearer `seconds` with it than without it.
pub fn another_round(start: std::time::Instant, rounds: u64, seconds: u64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    rounds == 0 || elapsed + elapsed / rounds as f64 / 2.0 < seconds as f64
}
