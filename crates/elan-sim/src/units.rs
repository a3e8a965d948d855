//! Byte and bandwidth quantities.
//!
//! Transfer-time math appears throughout the replication planner and the
//! baselines; typed quantities keep GB vs GiB vs Gb confusions out of the
//! code. [`Bytes`] is an exact integer count; [`Bandwidth`] is bytes per
//! second stored as `f64` (bandwidths are modelling inputs, not counters).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::time::SimDuration;

/// An exact count of bytes.
///
/// # Examples
///
/// ```
/// use elan_sim::Bytes;
///
/// let params = Bytes::from_mib(98); // ~ResNet-50 fp32 parameters
/// assert_eq!(params.as_u64(), 98 * 1024 * 1024);
/// assert_eq!(format!("{params}"), "98.00 MiB");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a byte count.
    pub const fn new(n: u64) -> Self {
        Bytes(n)
    }

    /// `n` kibibytes.
    pub const fn from_kib(n: u64) -> Self {
        Bytes(n * 1024)
    }

    /// `n` mebibytes.
    pub const fn from_mib(n: u64) -> Self {
        Bytes(n * 1024 * 1024)
    }

    /// `n` gibibytes.
    pub const fn from_gib(n: u64) -> Self {
        Bytes(n * 1024 * 1024 * 1024)
    }

    /// The raw count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The count as a float, for rate math.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Scales by a float factor, rounding; negative factors clamp to zero.
    pub fn mul_f64(self, factor: f64) -> Bytes {
        if !factor.is_finite() || factor <= 0.0 {
            return Bytes::ZERO;
        }
        Bytes((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.checked_add(rhs.0).expect("Bytes overflow"))
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        *self = *self + rhs;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.checked_sub(rhs.0).expect("Bytes underflow"))
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0.checked_mul(rhs).expect("Bytes overflow"))
    }
}

impl Div<u64> for Bytes {
    type Output = Bytes;
    fn div(self, rhs: u64) -> Bytes {
        Bytes(self.0 / rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, Add::add)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.0 as f64;
        const KIB: f64 = 1024.0;
        const MIB: f64 = 1024.0 * 1024.0;
        const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
        if n < KIB {
            write!(f, "{} B", self.0)
        } else if n < MIB {
            write!(f, "{:.2} KiB", n / KIB)
        } else if n < GIB {
            write!(f, "{:.2} MiB", n / MIB)
        } else {
            write!(f, "{:.2} GiB", n / GIB)
        }
    }
}

/// A transfer rate in bytes per second.
///
/// # Examples
///
/// ```
/// use elan_sim::{Bandwidth, Bytes};
///
/// let ib = Bandwidth::from_gbytes_per_sec(7.0); // 56 Gb/s InfiniBand
/// let t = ib.transfer_time(Bytes::from_gib(1));
/// assert!((t.as_secs_f64() - 0.1534).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Creates a rate from bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is negative or not finite.
    pub(crate) fn from_bytes_per_sec(bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec >= 0.0,
            "bandwidth must be finite and non-negative, got {bytes_per_sec}"
        );
        Bandwidth(bytes_per_sec)
    }

    /// Creates a rate from gigabytes (10^9 bytes) per second.
    pub fn from_gbytes_per_sec(gb_per_sec: f64) -> Self {
        Bandwidth::from_bytes_per_sec(gb_per_sec * 1e9)
    }

    /// Creates a rate from megabytes (10^6 bytes) per second.
    pub fn from_mbytes_per_sec(mb_per_sec: f64) -> Self {
        Bandwidth::from_bytes_per_sec(mb_per_sec * 1e6)
    }

    /// Bytes per second.
    pub fn as_bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Gigabytes (10^9 bytes) per second — the unit used by Fig. 8.
    pub fn as_gbytes_per_sec(self) -> f64 {
        self.0 / 1e9
    }

    /// Time to move `bytes` at this rate. Zero bandwidth yields an
    /// effectively infinite (u64::MAX nanosecond) duration.
    pub fn transfer_time(self, bytes: Bytes) -> SimDuration {
        if self.0 <= 0.0 {
            return SimDuration::from_nanos(u64::MAX);
        }
        SimDuration::from_secs_f64(bytes.as_f64() / self.0)
    }

    /// Scales the rate by a factor (e.g. efficiency), clamping at zero.
    pub fn scale(self, factor: f64) -> Bandwidth {
        Bandwidth::from_bytes_per_sec((self.0 * factor).max(0.0))
    }

    /// The smaller of two rates — the bottleneck.
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} GB/s", self.as_gbytes_per_sec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_constructors_scale() {
        assert_eq!(Bytes::from_kib(1).as_u64(), 1024);
        assert_eq!(Bytes::from_mib(1), Bytes::from_kib(1024));
        assert_eq!(Bytes::from_gib(1), Bytes::from_mib(1024));
    }

    #[test]
    fn byte_arithmetic() {
        let a = Bytes::new(100);
        let b = Bytes::new(28);
        assert_eq!(a + b, Bytes::new(128));
        assert_eq!(a - b, Bytes::new(72));
        assert_eq!(a * 2, Bytes::new(200));
        assert_eq!(a / 4, Bytes::new(25));
        let total: Bytes = vec![a, b].into_iter().sum();
        assert_eq!(total, Bytes::new(128));
    }

    #[test]
    fn transfer_time_is_linear() {
        let bw = Bandwidth::from_gbytes_per_sec(10.0);
        let t1 = bw.transfer_time(Bytes::from_gib(1));
        let t2 = bw.transfer_time(Bytes::from_gib(2));
        // Rounding to whole nanoseconds may introduce ±1ns slack.
        assert!(t2.as_nanos().abs_diff(t1.as_nanos() * 2) <= 1);
    }

    #[test]
    fn zero_bandwidth_is_infinite() {
        let bw = Bandwidth::from_bytes_per_sec(0.0);
        assert_eq!(
            bw.transfer_time(Bytes::new(1)),
            SimDuration::from_nanos(u64::MAX)
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Bytes::new(512).to_string(), "512 B");
        assert_eq!(Bytes::from_kib(2).to_string(), "2.00 KiB");
        assert_eq!(
            Bandwidth::from_gbytes_per_sec(12.5).to_string(),
            "12.50 GB/s"
        );
    }

    #[test]
    fn mul_f64_clamps() {
        assert_eq!(Bytes::new(100).mul_f64(0.5), Bytes::new(50));
        assert_eq!(Bytes::new(100).mul_f64(-1.0), Bytes::ZERO);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be finite")]
    fn negative_bandwidth_panics() {
        let _ = Bandwidth::from_bytes_per_sec(-1.0);
    }
}
