//! Per-node resource usage accounting.
//!
//! The paper's Figure 6 monitors CPU load (`uptime`), I/O device
//! utilization (`iostat`), and network throughput (`ifstat`) on the Hadoop
//! master, the Hi-WAY AM node, and a worker during the weak-scaling
//! experiment. The engine integrates the same quantities exactly (they are
//! piecewise constant between events), and callers drain them with
//! [`crate::Engine::take_usage`].
//!
//! Like the paper, the engine monitors only the nodes it is asked to:
//! [`crate::Engine::watch_usage`] opens a node's accounting, and steps and
//! rate refreshes skip every other node. That is exact: a node's
//! instantaneous totals take terms only from the activities on that node,
//! summed in id order whichever other rows are kept, and every watched
//! node folds the same `dt` sequence. The naive reference engine accounts
//! every node, and the lockstep proptest holds each watched node's
//! windows to it bit for bit.

use crate::spec::NodeSpec;

/// Time-integrated resource usage of one node over a sampling window.
#[derive(Clone, Debug, Default)]
pub struct NodeUsage {
    /// Window length in (virtual) seconds.
    pub elapsed: f64,
    /// Integral of allocated cores over time — divide by `elapsed` to get
    /// the average CPU load in the `uptime` sense (peaks at `cores`).
    pub core_seconds: f64,
    /// Bytes read from the local disk.
    pub disk_read_bytes: f64,
    /// Bytes written to the local disk.
    pub disk_write_bytes: f64,
    /// Bytes received from the network.
    pub net_in_bytes: f64,
    /// Bytes sent to the network.
    pub net_out_bytes: f64,
    /// Integral of instantaneous I/O utilization (0..=1, the `iostat`
    /// device-saturation sense) over time.
    pub io_util_seconds: f64,
}

impl NodeUsage {
    /// Folds `dt` seconds at the instantaneous per-node totals
    /// `[alloc_cores, disk_read_bps, disk_write_bps, net_in_bps,
    /// net_out_bps]` into the accumulator.
    pub(crate) fn accumulate(&mut self, dt: f64, inst: &[f64; 5], spec: &NodeSpec) {
        self.elapsed += dt;
        self.core_seconds += inst[0] * dt;
        self.disk_read_bytes += inst[1] * dt;
        self.disk_write_bytes += inst[2] * dt;
        self.net_in_bytes += inst[3] * dt;
        self.net_out_bytes += inst[4] * dt;
        let util_r = if spec.disk_read_bps > 0.0 {
            inst[1] / spec.disk_read_bps
        } else {
            0.0
        };
        let util_w = if spec.disk_write_bps > 0.0 {
            inst[2] / spec.disk_write_bps
        } else {
            0.0
        };
        self.io_util_seconds += util_r.max(util_w).min(1.0) * dt;
    }

    /// Averages the accumulated usage into a [`UsageSample`].
    pub fn sample(&self) -> UsageSample {
        let dt = self.elapsed;
        if dt <= 0.0 {
            return UsageSample::default();
        }
        UsageSample {
            cpu_load: self.core_seconds / dt,
            io_util: self.io_util_seconds / dt,
            net_in_bps: self.net_in_bytes / dt,
            net_out_bps: self.net_out_bytes / dt,
            disk_read_bps: self.disk_read_bytes / dt,
            disk_write_bps: self.disk_write_bytes / dt,
        }
    }
}

/// Averaged usage over a window — what the paper's monitoring tools print.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct UsageSample {
    /// Average CPU load (allocated cores), `uptime`-style.
    pub cpu_load: f64,
    /// Average I/O utilization in `[0, 1]`, `iostat`-style.
    pub io_util: f64,
    pub net_in_bps: f64,
    pub net_out_bps: f64,
    pub disk_read_bps: f64,
    pub disk_write_bps: f64,
}

impl UsageSample {
    /// Total network throughput, both directions, in bytes/second.
    pub fn net_bps(&self) -> f64 {
        self.net_in_bps + self.net_out_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NodeSpec;

    #[test]
    fn accumulate_and_sample() {
        let spec = NodeSpec::m3_large("n");
        let mut u = NodeUsage::default();
        u.accumulate(2.0, &[1.5, 110.0e6, 0.0, 10.0e6, 0.0], &spec);
        let s = u.sample();
        assert!((s.cpu_load - 1.5).abs() < 1e-9);
        assert!((s.io_util - 0.5).abs() < 1e-9); // 110 of 220 MB/s read
        assert!((s.net_in_bps - 10.0e6).abs() < 1.0);
        assert!((s.net_bps() - 10.0e6).abs() < 1.0);
    }

    #[test]
    fn empty_window_samples_zero() {
        assert_eq!(NodeUsage::default().sample(), UsageSample::default());
    }

    #[test]
    fn io_util_saturates_at_one() {
        let spec = NodeSpec::m3_large("n");
        let mut u = NodeUsage::default();
        // Read + write at full tilt: util clamps to 1.
        u.accumulate(1.0, &[0.0, 400.0e6, 400.0e6, 0.0, 0.0], &spec);
        assert!((u.sample().io_util - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_elapsed_accumulation_samples_zero() {
        // A zero-length window (two events at the same instant) must not
        // divide by zero — sample() returns all-zero, not NaN.
        let spec = NodeSpec::m3_large("n");
        let mut u = NodeUsage::default();
        u.accumulate(0.0, &[4.0, 100.0e6, 100.0e6, 1.0e6, 1.0e6], &spec);
        assert_eq!(u.elapsed, 0.0);
        let s = u.sample();
        assert_eq!(s, UsageSample::default());
        assert!(!s.cpu_load.is_nan() && !s.io_util.is_nan());
    }

    #[test]
    fn io_util_clamps_even_when_rates_exceed_spec() {
        // Instantaneous totals can transiently exceed the device spec
        // (e.g. several flows sharing a disk mid-refresh); utilization
        // must still integrate as saturated, never above 1 per second.
        let spec = NodeSpec::m3_large("n");
        let mut u = NodeUsage::default();
        u.accumulate(2.0, &[0.0, 10.0 * spec.disk_read_bps, 0.0, 0.0, 0.0], &spec);
        assert!((u.io_util_seconds - 2.0).abs() < 1e-9);
        assert!((u.sample().io_util - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_bandwidth_disk_spec_reports_zero_util() {
        // A node with no disk bandwidth (e.g. a diskless master profile)
        // must not produce inf/NaN utilization from the 0/0 division.
        let mut spec = NodeSpec::m3_large("n");
        spec.disk_read_bps = 0.0;
        spec.disk_write_bps = 0.0;
        let mut u = NodeUsage::default();
        u.accumulate(3.0, &[1.0, 5.0e6, 5.0e6, 0.0, 0.0], &spec);
        let s = u.sample();
        assert_eq!(s.io_util, 0.0);
        assert!(!s.io_util.is_nan());
        // Byte integrals still accumulate — only utilization is undefined.
        assert!((u.disk_read_bytes - 15.0e6).abs() < 1.0);
    }

    #[test]
    fn one_sided_zero_bandwidth_uses_the_other_side() {
        // Write bandwidth zero, read side active: utilization comes from
        // the read ratio alone.
        let mut spec = NodeSpec::m3_large("n");
        spec.disk_write_bps = 0.0;
        let mut u = NodeUsage::default();
        u.accumulate(
            1.0,
            &[0.0, spec.disk_read_bps / 2.0, 123.0, 0.0, 0.0],
            &spec,
        );
        assert!((u.sample().io_util - 0.5).abs() < 1e-9);
    }
}
