//! Branch-free `tanh` and `exp` for `f32` that return the same bits as
//! glibc 2.36's `tanhf` and `expf` on every input (DESIGN §16).
//!
//! Each function is a straight-line port of the library routine: the same
//! IEEE operations on the same constants in the same order. Where the
//! library branches on a range of `x`, every arm is evaluated and the
//! result picked by compare-and-select, so the functions contain no calls
//! and no branches and a `Matrix::map` over them autovectorizes. rustc
//! never contracts `a * b + c` into an FMA, and `f64::mul_add` is written
//! exactly where glibc's object code fuses, so the lane arithmetic is the
//! library's own. `mul_add` is one instruction on CPUs with FMA; elsewhere
//! it is a correctly rounded libm call, still exact but not vectorized.
//!
//! `tanh` is fdlibm's `tanhf` over fdlibm's `expm1f`; `exp` is the
//! optimized-routines `expf` in the FMA variant glibc selects on x86-64
//! CPUs with FMA and AVX2. A unit-test golden table pins the bits of both
//! on every branch boundary, and an `#[ignore]`d test compares them with
//! the host libm on all 2³² inputs.

/// `ln 2` split so that `k · LN2_HI` is exact for `|k| < 2⁷`.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// `expm1f`'s scaled rational coefficients.
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);
/// `1.5 · 2²³`: adding it to an integral `|k| < 2²²` leaves `k` in the low
/// mantissa bits, a float-to-int conversion with no saturation fix-ups.
const TOINT: f32 = 12_582_912.0;

/// fdlibm `expm1f`, exact on the arguments [`tanh`] passes it:
/// `x ∈ (−2, 0)` and `x ∈ [2, 44)`.
///
/// Left out are the `k = 1` arm (positive `x` from 0.5·ln2 to about
/// 1.5·ln2) and fdlibm's filters for `x ≤ −27·ln2`, overflow and
/// non-finite `x`: no such argument reaches this function.
#[inline(always)]
fn expm1(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    // Argument reduction x = k·ln2 + r. Below 0.5·ln2 fdlibm keeps k = 0,
    // below 1.5·ln2 it takes k = ±1, and above it rounds x/ln2 by adding
    // ±0.5 and truncating; k = 0 and k = ±1 run the same reduction as the
    // general case, so one formula serves every band.
    let half = if x < 0.0 { -0.5 } else { 0.5 };
    let kf = (INV_LN2 * x + half).trunc();
    let kf = if hx < 0x3f85_1592 { half + half } else { kf };
    let kf = if hx > 0x3eb1_7218 { kf } else { 0.0 };
    let k = (kf + TOINT).to_bits().wrapping_sub(TOINT.to_bits()) as i32;
    let hi = x - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;

    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));

    // k = 0: no correction term.
    let y0 = r - (r * e - hxs);
    let e = (r * (e - c) - c) - hxs;
    // k = −1.
    let ym1 = 0.5 * (r - e) - 0.5;
    // Every other k: build y, then add k to its exponent. For 2 ≤ k ≤ 22
    // fdlibm's `1 − 2^−k` is exact.
    let two_neg_k = f32::from_bits(0x7f_i32.wrapping_sub(k).wrapping_shl(23) as u32);
    let far = !(2..=56).contains(&k);
    let y = if k > 22 {
        (r - (e + two_neg_k)) + 1.0
    } else {
        (1.0 - two_neg_k) - (e - r)
    };
    let y = if far { 1.0 - (e - r) } else { y };
    let y = f32::from_bits(y.to_bits().wrapping_add(k.wrapping_shl(23) as u32));
    let y = if far { y - 1.0 } else { y };

    let y = if k == -1 { ym1 } else { y };
    let y = if k == 0 { y0 } else { y };
    // |x| < 2⁻²⁵: expm1(x) rounds to x.
    if hx < 0x3300_0000 {
        x
    } else {
        y
    }
}

/// `tanh(x)`, bit-identical to glibc 2.36 `tanhf` (fdlibm).
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    let ax = f32::from_bits(ix);
    // |x| < 1: z = −t / (t + 2) with t = expm1(−2|x|);
    // |x| ≥ 1: z = 1 − 2 / (t + 2) with t = expm1(2|x|). One division.
    let below_one = ix < 0x3f80_0000;
    // Sign the argument with a bit OR: a select between ±2|x| makes LLVM
    // evaluate all of `expm1` for both.
    let sign = u32::from(below_one) << 31;
    let t = expm1(f32::from_bits((ax + ax).to_bits() | sign));
    let q = (if below_one { -t } else { 2.0 }) / (t + 2.0);
    let z = if below_one { q } else { 1.0 - q };
    // |x| ≥ 22, infinities included: fdlibm's `1 − 10⁻³⁰` rounds to 1.
    let z = if ix >= 0x41b0_0000 { 1.0 } else { z };
    let z = f32::from_bits(z.to_bits() ^ (x.to_bits() & 0x8000_0000));
    // ±0 and |x| < 2⁻⁵⁵.
    let z = if ix < 0x2400_0000 { x * (1.0 + x) } else { z };
    if ix > 0x7f80_0000 {
        x + x
    } else {
        z
    }
}

/// `__exp2f_data.tab`: `2^(i/32)` with `i << 47` subtracted from its bits,
/// so adding `k << 47` rebuilds `2^(k/32)`.
const EXP2F_TAB: [u64; 32] = [
    0x3ff0_0000_0000_0000,
    0x3fef_d9b0_d315_8574,
    0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b,
    0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238,
    0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb,
    0x3fee_dea6_4c12_3422,
    0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27,
    0x3fee_b42b_569d_4f82,
    0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd,
    0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187,
    0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5,
    0x3fee_c491_82a3_f090,
    0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad,
    0x3fee_ff76_f2fb_5e47,
    0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487,
    0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da,
    0x3fef_d076_5b6e_4540,
];
/// `32 / ln 2`.
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `1.5 · 2⁵²`: rounds `x·32/ln2` to an integer held in the low mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
const C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
const C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
const C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);
/// Above `log(2¹²⁸)`: overflow to +inf.
const EXP_OFLOW: f32 = f32::from_bits(0x42b1_7217);
/// Below `log(2⁻¹⁵⁰)`: underflow to +0.
const EXP_UFLOW: f32 = f32::from_bits(0xc2cf_f1b4);
/// Below `log(2⁻¹⁴⁹)`: glibc returns `(1.25 · 2⁻⁷⁵)²`, which rounds to 2⁻¹⁴⁹.
const EXP_MAY_UFLOW: f32 = f32::from_bits(0xc2ce_8ecf);

/// `eˣ`, bit-identical to glibc 2.36 `expf` in its FMA variant.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    // x·32/ln2 = k + r, r ∈ [−1/2, 1/2]; eˣ = 2^(k/32) · 2^(r/32).
    let xd = f64::from(x);
    let kd = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(EXP2F_TAB[(ki & 31) as usize].wrapping_add(ki << 47));
    let z = C0.mul_add(r, C1);
    let r2 = r * r;
    let y = C2.mul_add(r, 1.0);
    let y = z.mul_add(r2, y);
    let y = (y * s) as f32;

    let y = if x < EXP_MAY_UFLOW {
        f32::from_bits(1)
    } else {
        y
    };
    // −inf lands here too.
    let y = if x < EXP_UFLOW { 0.0 } else { y };
    // +inf lands here too.
    let y = if x > EXP_OFLOW { f32::INFINITY } else { y };
    if x.is_nan() {
        x + x
    } else {
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `tanhf` input → output bits, recorded from glibc 2.36 on x86-64.
    /// "k" is the exponent `expm1` reduces its argument `±2|x|` by.
    const TANH_GOLDEN: &[(u32, u32)] = &[
        (0x0000_0000, 0x0000_0000), // +0
        (0x8000_0000, 0x8000_0000), // −0
        (0x0000_0001, 0x0000_0001), // smallest subnormal
        (0x807f_ffff, 0x807f_ffff), // largest negative subnormal
        (0x0080_0000, 0x0080_0000), // FLT_MIN
        (0x23ff_ffff, 0x23ff_ffff), // 2⁻⁵⁵ − 1 ulp: x·(1 + x)
        (0x2400_0000, 0x2400_0000), // 2⁻⁵⁵: first expm1 lane
        (0x2400_0001, 0x2400_0001), // 2⁻⁵⁵ + 1 ulp
        (0xa400_0000, 0xa400_0000), // −2⁻⁵⁵
        (0x327f_ffff, 0x327f_ffff), // 2|x| < 2⁻²⁵: expm1 passes x through
        (0x3280_0000, 0x3280_0000), // 2|x| = 2⁻²⁵: k = 0
        (0x3280_0001, 0x3280_0001), // 2⁻²⁶ + 1 ulp
        (0xb280_0000, 0xb280_0000), // −2⁻²⁶
        (0x3e31_7217, 0x3e2f_b0cc), // 2|x| = 0.5·ln2 − 1 ulp: k = 0
        (0x3e31_7218, 0x3e2f_b0cd), // 2|x| = 0.5·ln2: k = 0
        (0x3e31_7219, 0x3e2f_b0cd), // 2|x| = 0.5·ln2 + 1 ulp: k = −1
        (0xbe31_7219, 0xbe2f_b0cd), // negative, k = −1
        (0x3f05_1591, 0x3ef4_86f8), // 2|x| = 1.5·ln2 − 1 ulp: k = −1
        (0x3f05_1592, 0x3ef4_86f8), // 2|x| = 1.5·ln2: rounded k = −2
        (0x3f05_1593, 0x3ef4_86fb), // 2|x| = 1.5·ln2 + 1 ulp: k = −2
        (0xbf05_1592, 0xbef4_86f8), // negative, k = −2
        (0x3d1c_9770, 0x3d1c_83ec), // 0.0382: k = 0; flips with Q1's last bit
        (0x3e80_0000, 0x3e7a_cbf5), // 0.25: k = 0
        (0x3ef7_9bc2, 0x3ee5_f468), // 0.4836: k = −1; flips with Q1's last bit
        (0xbf40_0000, 0xbf22_991f), // −0.75: k = −2
        (0x3f31_7a9b, 0x3f19_9f0b), // 0.6933: truncated k = −2, rounded −3
        (0x3f66_6666, 0x3f37_5f4c), // 0.9: k = −3
        (0x3f7f_ffff, 0x3f42_f7d5), // 1 − 1 ulp: last expm1(−2|x|) lane
        (0x3f80_0000, 0x3f42_f7d6), // 1: first expm1(2|x|) lane, k = 3
        (0x3f80_0001, 0x3f42_f7d6), // 1 + 1 ulp
        (0xbf80_0000, 0xbf42_f7d6), // −1
        (0x3f85_1b4d, 0x3f47_20f8), // 1.0399: truncated k = 3, rounded 4
        (0x3fc0_0000, 0x3f67_b7cc), // 1.5: k = 4
        (0xc040_0000, 0xbf7e_bbe9), // −3: k = 9
        (0x40a0_0000, 0x3f7f_fa0d), // 5: k = 14
        (0x40f9_8871, 0x3f7f_fffa), // k = 22
        (0x40f9_8872, 0x3f7f_fffa), // k = 23
        (0x40f9_8873, 0x3f7f_fffa), // k = 23
        (0xc0f9_8872, 0xbf7f_fffa), // negative, k = 23
        (0x4120_0000, 0x3f80_0000), // 10: k = 29
        (0xc170_0000, 0xbf80_0000), // −15: k = 43
        (0x419c_a6b8, 0x3f80_0000), // k = 56
        (0x419c_a6b9, 0x3f80_0000), // k = 57
        (0x419c_a6ba, 0x3f80_0000), // k = 57
        (0xc19c_a6b9, 0xbf80_0000), // negative, k = 57
        (0x41a8_0000, 0x3f80_0000), // 21: k = 61
        (0x41af_ffff, 0x3f80_0000), // 22 − 1 ulp: k = 63
        (0xc1af_ffff, 0xbf80_0000), // −(22 − 1 ulp)
        (0x41b0_0000, 0x3f80_0000), // 22: saturates to 1
        (0x41b0_0001, 0x3f80_0000), // 22 + 1 ulp
        (0xc1b0_0000, 0xbf80_0000), // −22
        (0x7f7f_ffff, 0x3f80_0000), // FLT_MAX
        (0x7f80_0000, 0x3f80_0000), // +inf
        (0xff80_0000, 0xbf80_0000), // −inf
        (0x7fc0_0000, 0x7fc0_0000), // NaN
        (0xffc0_0000, 0xffc0_0000), // −NaN
        (0x7f80_0001, 0x7fc0_0001), // signalling NaN
    ];

    /// `expf` input → output bits, recorded from glibc 2.36 (FMA variant)
    /// on x86-64.
    const EXP_GOLDEN: &[(u32, u32)] = &[
        (0x0000_0000, 0x3f80_0000), // +0
        (0x8000_0000, 0x3f80_0000), // −0
        (0x0000_0001, 0x3f80_0000), // smallest subnormal
        (0x807f_ffff, 0x3f80_0000), // largest negative subnormal
        (0x3300_0000, 0x3f80_0000), // 2⁻²⁵
        (0xb300_0000, 0x3f80_0000), // −2⁻²⁵
        (0x3f00_0000, 0x3fd3_094c), // 0.5
        (0xbf00_0000, 0x3f1b_4598), // −0.5
        (0x3f31_7218, 0x4000_0000), // ln 2
        (0x3f80_0000, 0x402d_f854), // 1
        (0xbf80_0000, 0x3ebc_5ab2), // −1
        (0x4120_0000, 0x46ac_14ee), // 10
        (0xc120_0000, 0x383e_6bce), // −10
        (0x4202_422f, 0x56fc_9f1c), // 32.56: flips if r = x·32/ln2 − k is not fused
        (0x4248_0000, 0x638c_881f), // 50
        (0xc27c_65d9, 0x11fa_2993), // −63.10: flips if r is not fused
        (0xc248_0000, 0x1b69_2beb), // −50
        (0x42af_ffff, 0x7ef8_823b), // 88 − 1 ulp
        (0x42b0_0000, 0x7ef8_82b7), // 88: glibc's special-case filter, still computed
        (0x42b0_0001, 0x7ef8_8333), // 88 + 1 ulp
        (0xc2b0_0000, 0x0041_edc4), // −88: subnormal result
        (0x42b1_7216, 0x7f7f_ff04), // 88.72 − 1 ulp
        (0x42b1_7217, 0x7f7f_ff84), // 88.72: largest finite result
        (0x42b1_7218, 0x7f80_0000), // 88.72 + 1 ulp: overflows to +inf
        (0xc2ae_ac4f, 0x0080_0026), // ln(FLT_MIN) + 1 ulp: normal result
        (0xc2ae_ac50, 0x007f_ffe6), // ln(FLT_MIN): subnormal result
        (0xc2ae_ac51, 0x007f_ffa6), // ln(FLT_MIN) − 1 ulp
        (0xc2c8_0000, 0x0000_001b), // −100: subnormal result
        (0xc2ce_8ece, 0x0000_0001), // −103.28 + 1 ulp: computed
        (0xc2ce_8ecf, 0x0000_0001), // −103.28: last computed lane
        (0xc2ce_8ed0, 0x0000_0001), // −103.28 − 1 ulp: first 2⁻¹⁴⁹ lane
        (0xc2cf_f1b3, 0x0000_0001), // −103.97 + 1 ulp: 2⁻¹⁴⁹
        (0xc2cf_f1b4, 0x0000_0001), // −103.97: last 2⁻¹⁴⁹ lane
        (0xc2cf_f1b5, 0x0000_0000), // −103.97 − 1 ulp: underflows to +0
        (0x7f7f_ffff, 0x7f80_0000), // FLT_MAX
        (0xff7f_ffff, 0x0000_0000), // −FLT_MAX
        (0x7f80_0000, 0x7f80_0000), // +inf
        (0xff80_0000, 0x0000_0000), // −inf
        (0x7fc0_0000, 0x7fc0_0000), // NaN
        (0xffc0_0000, 0xffc0_0000), // −NaN
        (0x7f80_0001, 0x7fc0_0001), // signalling NaN
    ];

    /// Bit equality, except that any NaN matches any NaN.
    fn same_bits(got: f32, want: f32) -> bool {
        if want.is_nan() {
            got.is_nan()
        } else {
            got.to_bits() == want.to_bits()
        }
    }

    fn check_golden(name: &str, f: impl Fn(f32) -> f32, table: &[(u32, u32)]) {
        for &(x, want) in table {
            let got = f(f32::from_bits(x));
            assert!(
                same_bits(got, f32::from_bits(want)),
                "{name}({x:#010x}) = {:#010x}, glibc gives {want:#010x}",
                got.to_bits()
            );
        }
    }

    #[test]
    fn tanh_matches_the_golden_table() {
        check_golden("tanh", tanh, TANH_GOLDEN);
    }

    #[test]
    fn exp_matches_the_golden_table() {
        check_golden("exp", exp, EXP_GOLDEN);
    }

    /// Every `f32` bit pattern through `mathf` and through the host libm
    /// (`f32::tanh`, `f32::exp`), split over two threads. Run it in
    /// release: `cargo test --release -p em-nn --lib mathf -- --ignored`.
    #[test]
    #[ignore = "all 2³² inputs; about a minute in release on two cores"]
    fn tanh_and_exp_match_the_host_libm_on_every_input() {
        for (name, table, lib) in [
            ("tanhf", TANH_GOLDEN, f32::tanh as fn(f32) -> f32),
            ("expf", EXP_GOLDEN, f32::exp),
        ] {
            for &(x, want) in table {
                let got = lib(std::hint::black_box(f32::from_bits(x)));
                assert!(
                    same_bits(got, f32::from_bits(want)),
                    "the host libm is not the glibc 2.36 algorithm: its {name}({x:#010x}) \
                     = {:#010x}, the golden table says {want:#010x}",
                    got.to_bits()
                );
            }
        }
        let (t, e) = (mismatches(tanh, f32::tanh), mismatches(exp, f32::exp));
        println!("mathf vs host libm on all 2³² inputs: tanh {t} mismatches, exp {e} mismatches");
        assert_eq!((t, e), (0, 0), "mathf differs from the host libm");
    }

    /// Inputs on which `ours` and `lib` disagree, over all 2³² patterns.
    fn mismatches(ours: impl Fn(f32) -> f32 + Sync, lib: impl Fn(f32) -> f32 + Sync) -> u64 {
        const BLOCK: u32 = 1 << 12;
        let half = |lo: u64, hi: u64| {
            let mut xs = vec![0.0f32; BLOCK as usize];
            let mut bad = 0;
            for start in (lo..hi).step_by(BLOCK as usize) {
                for (i, x) in xs.iter_mut().enumerate() {
                    *x = f32::from_bits(start as u32 + i as u32);
                }
                let ys: Vec<f32> = xs.iter().map(|&x| ours(x)).collect();
                for (&x, &y) in xs.iter().zip(&ys) {
                    if !same_bits(y, lib(x)) {
                        if bad < 8 {
                            eprintln!("mismatch at {:#010x}", x.to_bits());
                        }
                        bad += 1;
                    }
                }
            }
            bad
        };
        std::thread::scope(|s| {
            let low = s.spawn(|| half(0, 1 << 31));
            let high = half(1 << 31, 1 << 32);
            low.join().expect("sweep thread panicked") + high
        })
    }
}
