//! Small numeric helpers: medians, exact nearest-rank percentiles, the
//! process's peak resident set, and the FNV-1a digest the fleet runner
//! uses for its device digests.

use evanesco_ssd::OpResult;

/// Median of `v` (mean of the two middle values for an even count), the
/// same definition as Python's `statistics.median`. Zero when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Exact nearest-rank percentile of an ascending slice, `p` in `(0, 100]`.
/// Zero when empty.
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Exact nearest-rank percentile of unsorted `f64` samples.
pub fn percentile_f64(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    nearest_rank(&s, p)
}

/// Exact nearest-rank percentile of unsorted nanosecond samples, in
/// microseconds.
pub fn percentile_us(v: &mut [u64], p: f64) -> f64 {
    v.sort_unstable();
    nearest_rank(v, p) as f64 / 1e3
}

/// Exact mean of nanosecond samples, in microseconds (0 when empty).
pub fn mean_us(v: &[u64]) -> f64 {
    ratio(v.iter().map(|&x| x as f64).sum::<f64>(), v.len() as f64) / 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Incremental FNV-1a over little-endian `u64`s, with the framing the
/// fleet runner uses for its per-device digests (so a digest computed
/// here can be compared with `DeviceResult::digest`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one `u64`.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one host-visible result with a tag/length framing.
    pub fn result(&mut self, r: &OpResult) {
        match r {
            OpResult::Write(tags, ack) => {
                self.u64(1);
                self.u64(tags.len() as u64);
                tags.iter().for_each(|&t| self.u64(t));
                self.u64(*ack as u64);
            }
            OpResult::Read(vals) => {
                self.u64(2);
                self.u64(vals.len() as u64);
                for v in vals {
                    match v {
                        Some(t) => {
                            self.u64(1);
                            self.u64(*t);
                        }
                        None => self.u64(0),
                    }
                }
            }
            OpResult::Trim(ack) => {
                self.u64(3);
                self.u64(*ack as u64);
            }
            OpResult::TimedOut => self.u64(4),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_matches_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_is_exact() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50);
        assert_eq!(nearest_rank(&v, 99.0), 99);
        assert_eq!(nearest_rank(&v, 100.0), 100);
        assert_eq!(nearest_rank(&v[..1], 99.0), 1);
    }
}
