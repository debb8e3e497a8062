//! An exact-sum reference for Status-Query aggregates, independent of the
//! fixed-point accumulator the view uses.

/// The correctly rounded sum of `xs` (round to nearest, ties to even):
/// Shewchuk's non-overlapping partials with the half-even fix-up of
/// Python's `math.fsum`. A sum that is exactly zero is `+0`, as a fold
/// that starts from `+0` gives.
pub fn fsum(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut partials: Vec<f64> = Vec::new();
    for mut x in xs {
        let mut i = 0;
        for j in 0..partials.len() {
            let mut y = partials[j];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                partials[i] = lo;
                i += 1;
            }
            x = hi;
        }
        partials.truncate(i);
        partials.push(x);
    }
    let Some(mut hi) = partials.pop() else {
        return 0.0;
    };
    let mut lo = 0.0;
    while let Some(y) = partials.pop() {
        let x = hi;
        hi = x + y;
        lo = y - (hi - x);
        if lo != 0.0 {
            break;
        }
    }
    // Half-even across partials: a remainder of exactly half an ulp
    // rounds away when the next partial leans the same way.
    if let Some(&next) = partials.last() {
        if (lo < 0.0 && next < 0.0) || (lo > 0.0 && next > 0.0) {
            let y = lo * 2.0;
            let x = hi + y;
            if x - hi == y {
                hi = x;
            }
        }
    }
    hi + 0.0
}

#[cfg(test)]
mod tests {
    use super::fsum;

    #[test]
    fn fsum_rounds_correctly() {
        assert_eq!(fsum([]), 0.0);
        assert_eq!(fsum([-0.0]).to_bits(), 0.0f64.to_bits());
        assert_eq!(fsum([0.1; 10]), 1.0);
        assert_eq!(fsum([1e16, 1.0, 1e-16]), 10000000000000002.0);
        assert_eq!(fsum([1e100, 1.0, -1e100, 1e-100, 1e50, -1.0, -1e50]), 1e-100);
        let tiny = 1.0 / (1u64 << 62) as f64;
        assert_eq!(fsum([2f64.powi(53), 1.0, tiny]), 2f64.powi(53) + 2.0);
        assert_eq!(fsum([2f64.powi(53), 1.0]), 2f64.powi(53));
    }
}
