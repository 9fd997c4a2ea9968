//! Standard normal draws for the metric synthesizers and the engine's
//! background interference, two per Box–Muller pair.
//!
//! A pair takes two words of the stream, `(u1, u2)`, and yields two
//! independent standard normals, `r·cos θ` and `r·sin θ`, with
//! `r = √(−2 ln u1)` and `θ = 2π·u2`. [`GaussPairs`] hands out the cosine
//! half and keeps the sine half for the next draw, so `g` draws cost
//! ⌈g/2⌉ logarithms instead of `g`.
//!
//! A [`GaussPairs`] lives for one synthesized row and is dropped with it,
//! spare and all: the row stays a pure function of where the stream stood
//! and the synthesizer's own state, and `g` draws always take 2⌈g/2⌉
//! words — what [`skip`] steps past for a row nobody reads.
//! The engine draws each tier's background innovation as a row of one on
//! its own background stream: this is the workspace's only Box–Muller.

use rand::{Rng, RngCore};

/// The normals of one row, drawn from `rng` a pair at a time.
pub struct GaussPairs<'r, R: ?Sized> {
    rng: &'r mut R,
    /// The sine half of the last pair, not yet handed out.
    spare: Option<f64>,
}

impl<'r, R: Rng + ?Sized> GaussPairs<'r, R> {
    /// Start a row on `rng`, with no spare.
    pub fn new(rng: &'r mut R) -> GaussPairs<'r, R> {
        GaussPairs { rng, spare: None }
    }

    /// The next standard normal: the spare if there is one, otherwise the
    /// cosine half of a fresh pair.
    pub fn draw(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        let u1: f64 = self.rng.random::<f64>().max(1e-12);
        let u2: f64 = self.rng.random();
        let r = (-2.0 * u1.ln()).sqrt();
        let (sin, cos) = (std::f64::consts::TAU * u2).sin_cos();
        self.spare = Some(r * sin);
        r * cos
    }
}

/// Words of the stream that `draws` draws from one [`GaussPairs`] take:
/// two per pair, and an odd last draw still takes a whole pair.
const fn words(draws: usize) -> usize {
    2 * draws.div_ceil(2)
}

/// Advance `rng` exactly as far as `draws` draws from one [`GaussPairs`]
/// would, without computing any of them.
pub fn skip<R: RngCore + ?Sized>(rng: &mut R, draws: usize) {
    for _ in 0..words(draws) {
        rng.next_u64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pairs_are_independent_standard_normals() {
        // 2^17 pairs on one seeded stream. Each check allows four
        // standard errors of its statistic under N(0, 1) halves that are
        // independent of each other.
        const PAIRS: usize = 1 << 17;
        let n = PAIRS as f64;
        let mut rng = StdRng::seed_from_u64(2833);
        let mut g = GaussPairs::new(&mut rng);
        let (mut sum, mut sum_sq, mut beyond_3) = ([0.0f64; 2], [0.0f64; 2], [0usize; 2]);
        let mut cross = 0.0;
        for _ in 0..PAIRS {
            let halves = [g.draw(), g.draw()];
            for (h, z) in halves.into_iter().enumerate() {
                sum[h] += z;
                sum_sq[h] += z * z;
                beyond_3[h] += usize::from(z.abs() > 3.0);
            }
            cross += halves[0] * halves[1];
        }
        let mean = sum.map(|s| s / n);
        let var = [0, 1].map(|h| sum_sq[h] / n - mean[h] * mean[h]);
        let tail = 0.002_699_796; // P(|Z| > 3)
        for (h, half) in ["cosine", "sine"].into_iter().enumerate() {
            let share = beyond_3[h] as f64 / n;
            assert!(mean[h].abs() < 4.0 / n.sqrt(), "{half} mean {}", mean[h]);
            assert!(
                (var[h] - 1.0).abs() < 4.0 * (2.0 / n).sqrt(),
                "{half} variance {}",
                var[h]
            );
            assert!(
                (share - tail).abs() < 4.0 * (tail * (1.0 - tail) / n).sqrt(),
                "{half} share beyond ±3: {share}"
            );
        }
        let corr = (cross / n - mean[0] * mean[1]) / (var[0] * var[1]).sqrt();
        assert!(
            corr.abs() < 4.0 / n.sqrt(),
            "cosine–sine correlation {corr}"
        );
    }

    #[test]
    fn skip_takes_the_words_of_its_draws() {
        // An odd draw count drops the last pair's spare with the row, so
        // after any `g` draws the stream sits `words(g)` words on.
        for (draws, want) in [0, 2, 2, 4, 4, 6].into_iter().enumerate() {
            assert_eq!(words(draws), want, "{draws} draws");
            let mut drawn = StdRng::seed_from_u64(7);
            let mut g = GaussPairs::new(&mut drawn);
            for _ in 0..draws {
                g.draw();
            }
            let mut skipped = StdRng::seed_from_u64(7);
            skip(&mut skipped, draws);
            assert_eq!(drawn.next_u64(), skipped.next_u64(), "{draws} draws");
        }
    }
}
