//! Order statistics for repeated host timings.

/// Median and quartiles of a sample, by linear interpolation between
/// order statistics (quartile `k` sits at position `k * (n - 1) / 4`).
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (v.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        };
        Some(Summary {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
            n: v.len(),
        })
    }
}
