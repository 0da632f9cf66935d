//! `Rng64::gen_below(Rng64::bool_threshold(p))` is `Rng64::gen_bool(p)`:
//! the same draw consumed, the same answer, for every `p` — the
//! simulator's injection loop relies on it to keep seeded runs
//! bit-identical while comparing integers instead of floats.

use ebda_obs::Rng64;

#[test]
fn threshold_draws_equal_float_draws() {
    // Probabilities at and around every edge of the derivation: 0, 1,
    // out of range, NaN, exact multiples of 2^-53 and their
    // neighbours, and seeded ordinary ones.
    let ulp = 1.0 / (1u64 << 53) as f64;
    let mut ps = vec![
        0.0,
        1.0,
        -0.5,
        1.5,
        f64::NAN,
        f64::MIN_POSITIVE,
        ulp,
        ulp * 0.5,
        ulp * 1.5,
        1.0 - ulp,
        0.5,
        0.5 + ulp,
        0.5 - ulp / 2.0,
        0.002,
        0.07,
    ];
    let mut seed = Rng64::new(9);
    ps.extend((0..200).map(|_| seed.gen_f64()));
    ps.extend((0..200).map(|_| seed.gen_f64() * 1e-3));
    for &p in &ps {
        let t = Rng64::bool_threshold(p);
        // Draws that land next to the threshold, where a rounding
        // slip would show, then a seeded stream.
        for k in [t.wrapping_sub(2), t.wrapping_sub(1), t, t + 1] {
            let k = k & ((1 << 53) - 1);
            let as_float = k as f64 * ulp;
            assert_eq!(k < t, as_float < p, "p = {p:e}, k = {k}");
        }
        let mut a = Rng64::new(p.to_bits());
        let mut b = a.clone();
        for _ in 0..500 {
            assert_eq!(a.gen_bool(p), b.gen_below(t), "p = {p:e}");
        }
        assert_eq!(a.next_u64(), b.next_u64(), "streams stay in step");
    }
}
