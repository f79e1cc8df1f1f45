//! Small summary-statistics helpers for the experiment harness.

/// Mean / standard deviation / median / extremes of a sample.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub std_dev: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample (empty input gives all-zero output).
    pub fn of(values: &[f64]) -> Summary {
        let n = values.len();
        if n == 0 {
            return Summary::default();
        }
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            median,
            min: sorted[0],
            max: sorted[n - 1],
        }
    }
}

/// Two-sample Welch t-statistic — the paper reports two-sample t-tests on
/// the Figure 9 transitions ("with a single prior workflow run, HEFT
/// already outperforms FCFS scheduling significantly").
pub fn welch_t(a: &[f64], b: &[f64]) -> f64 {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let (na, nb) = (sa.n as f64, sb.n as f64);
    if na < 2.0 || nb < 2.0 {
        return 0.0;
    }
    let va = sa.std_dev.powi(2) * na / (na - 1.0); // sample variance
    let vb = sb.std_dev.powi(2) * nb / (nb - 1.0);
    let se = (va / na + vb / nb).sqrt();
    if se == 0.0 {
        0.0
    } else {
        (sa.mean - sb.mean) / se
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
        let odd = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(odd.median, 2.0);
        assert_eq!(Summary::of(&[]), Summary::default());
    }

    #[test]
    fn welch_t_detects_separation() {
        let fast = [10.0, 11.0, 9.5, 10.5];
        let slow = [20.0, 21.0, 19.5, 20.5];
        assert!(welch_t(&slow, &fast) > 10.0);
        assert!(welch_t(&fast, &slow) < -10.0);
        assert_eq!(welch_t(&[1.0], &[2.0, 3.0]), 0.0, "degenerate inputs");
    }
}
