//! Small statistics helpers: quantiles, the machine-speed reference and the
//! process's peak resident set.

use std::hint::black_box;
use std::time::Instant;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by the nearest-rank rule;
/// `0.0` for no values. Sorts `values` in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The median of `values` (nearest rank); `0.0` for none.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The kernel time every reported timing is scaled to, in nanoseconds:
/// about the median of [`Reference::sample`] on the 2-vCPU Xeon virtual
/// machine the bounds in `BENCHMARK.json` were set on.
pub const NOMINAL_REFERENCE_NS: f64 = 100_000.0;

/// A fixed compute kernel timed between requests on the benchmark's CPU.
///
/// On a shared virtual machine a vCPU's speed can drift by tens of percent
/// in spells of a second or more, so one run can be 15% slower than the
/// next with identical code. The kernel's time, taken on the same CPU at
/// the same moments, measures that drift; dividing a run's timings by
/// [`Reference::speed`] removes most of it. The kernel works on its own
/// small array, warmed just before it is timed, so the caches the program
/// under test leaves behind do not move it.
pub struct Reference {
    data: Vec<u64>,
    samples: Vec<f64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            data: (0..2048).collect(),
            samples: Vec::new(),
        }
    }
}

impl Reference {
    fn kernel(&mut self) {
        for round in 0..4u64 {
            for x in &mut self.data {
                *x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (*x >> 29) ^ round;
            }
            self.data.sort_unstable();
        }
        black_box(&self.data);
    }

    /// Times one run of the kernel, in nanoseconds, and keeps the sample.
    pub fn sample(&mut self) -> f64 {
        self.kernel();
        let start = Instant::now();
        self.kernel();
        let ns = start.elapsed().as_nanos() as f64;
        self.samples.push(ns);
        ns
    }

    /// How much slower than nominal the machine ran over the samples taken
    /// so far (the median sample ÷ [`NOMINAL_REFERENCE_NS`]; 1.0 before
    /// any sample).
    pub fn speed(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        median(&mut self.samples.clone()) / NOMINAL_REFERENCE_NS
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
