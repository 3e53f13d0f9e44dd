//! Exact decimal-to-`f64` conversion for the CSV reader's fast path.
//!
//! [`scan`] reads one canonical number, `-?digits[.digits][(e|E)[+-]digits]`
//! with at most 19 significant digits and an exponent below 65,536, into a
//! `u64` mantissa `w` and a decimal exponent `q`, so that the number is
//! `w × 10^q`.
//! [`Decimal::to_f64`] rounds that to the nearest `f64` with the
//! Eisel–Lemire algorithm, the one behind the standard library's
//! `dec2flt` (Lemire, "Number Parsing at a Gigabyte per Second",
//! arXiv:2101.11408). Rounding is correct, so the bits are the ones
//! `str::parse::<f64>` returns for the same text.
//!
//! Only `q` in `[Q_MIN, Q_MAX]` is converted here. In that window the
//! 128-bit product below always decides the rounding (Lemire §8–9 shows
//! it does for every `q` in `[-27, 55]`), and every value lies between
//! `1e-27` and `1e46`, inside `f64`'s normal range, so the algorithm's
//! subnormal, underflow and overflow branches are not needed. Outside the
//! window the reader asks `str::parse` instead.

/// Lowest decimal exponent converted here: the lower end of the range in
/// which one 128-bit product always decides the rounding.
const Q_MIN: i64 = -27;
/// Highest decimal exponent converted here.
const Q_MAX: i64 = 27;
const _: () = assert!(
    Q_MIN >= -27 && Q_MAX <= 55,
    "rounding decided only in [-27, 55]"
);

/// Most significant digits a `u64` mantissa takes without overflow.
const MAX_DIGITS: u32 = 19;

/// A written exponent this large or larger is declined. `q` also counts a
/// fraction's leading zeros, which have no bound, so no exponent is too
/// large to land `q` back in the window; and `str::parse` stops reading
/// exponent digits once it has reached this value (it reads `e700000` as
/// 70,000), so only a smaller exponent means the same to both.
const EXP_CAP: i64 = 1 << 16;

/// One canonical number: `(-1)^neg × w × 10^q`.
#[derive(Debug, Clone, Copy)]
pub(super) struct Decimal {
    neg: bool,
    w: u64,
    q: i64,
    /// Digits only: no sign, point or exponent (a label's form).
    plain: bool,
}

/// Reads a canonical number starting at `data[*pos]`, leaving `*pos` on
/// the first byte after it. `None`, with `*pos` unmoved, when the bytes
/// there are not a canonical number or carry more than 19 significant
/// digits or an exponent of [`EXP_CAP`] or more. Leading zeros are not
/// significant.
pub(super) fn scan(data: &[u8], pos: &mut usize) -> Option<Decimal> {
    let mut i = *pos;
    let neg = data.get(i) == Some(&b'-');
    i += usize::from(neg);
    let (mut w, mut sig) = (0, 0);
    let int = digits(data, &mut i, &mut w, &mut sig)?;
    if int == 0 {
        return None;
    }
    let mut q = 0;
    let mut plain = !neg;
    if data.get(i) == Some(&b'.') {
        i += 1;
        let frac = digits(data, &mut i, &mut w, &mut sig)?;
        if frac == 0 {
            return None;
        }
        q = -i64::try_from(frac).ok()?;
        plain = false;
    }
    if let Some(b'e' | b'E') = data.get(i) {
        i += 1;
        let exp_neg = data.get(i) == Some(&b'-');
        i += usize::from(matches!(data.get(i), Some(b'-' | b'+')));
        let start = i;
        let mut exp = 0;
        while let Some(d) = digit(data, i) {
            exp = (exp * 10 + i64::from(d)).min(EXP_CAP);
            i += 1;
        }
        if i == start || exp == EXP_CAP {
            return None;
        }
        q += if exp_neg { -exp } else { exp };
        plain = false;
    }
    *pos = i;
    Some(Decimal { neg, w, q, plain })
}

/// The decimal digit at `data[i]`, if there is one.
fn digit(data: &[u8], i: usize) -> Option<u8> {
    let d = data.get(i)?.wrapping_sub(b'0');
    (d <= 9).then_some(d)
}

/// Appends the run of digits at `data[*i]` to `w`, returning how many
/// there were; `None` past the 19th significant digit. Zeros before the
/// first nonzero digit of `w` are skipped.
fn digits(data: &[u8], i: &mut usize, w: &mut u64, sig: &mut u32) -> Option<usize> {
    let start = *i;
    if *w == 0 {
        while digit(data, *i) == Some(0) {
            *i += 1;
        }
    }
    while let Some(d) = digit(data, *i) {
        if *sig == MAX_DIGITS {
            return None;
        }
        *sig += 1;
        *w = *w * 10 + u64::from(d);
        *i += 1;
    }
    Some(*i - start)
}

impl Decimal {
    /// The nearest `f64`, or `None` when the exponent is outside the
    /// window (a zero mantissa is a signed zero at any exponent).
    pub(super) fn to_f64(self) -> Option<f64> {
        let v = if self.w == 0 {
            0.0
        } else if (Q_MIN..=Q_MAX).contains(&self.q) {
            eisel_lemire(self.w, self.q)
        } else {
            return None;
        };
        Some(if self.neg { -v } else { v })
    }

    /// The value as a label: plain digits that fit a `usize`.
    pub(super) fn label(self) -> Option<usize> {
        if self.plain {
            usize::try_from(self.w).ok()
        } else {
            None
        }
    }
}

/// `f64` bits below the hidden one.
const MANTISSA_BITS: i64 = 52;

/// `w × 10^q` rounded to nearest, ties to even, for `w > 0` and `q` in
/// the window: Lemire's Algorithm 1 without the branches the window
/// rules out.
fn eisel_lemire(w: u64, q: i64) -> f64 {
    let lz = w.leading_zeros();
    let w = w << lz;
    let (lo, hi) = product(w, q);
    let upper = i64::from(hi >> 63 == 1);
    let shift = upper + 64 - MANTISSA_BITS - 3;
    let mut m = hi >> shift;
    // floor(q × log2(10)) + 63, plus the binary exponent's bias.
    let mut e = (((q * (152_170 + 65_536)) >> 16) + 63) + upper - i64::from(lz) + 1023;
    // An exact product halfway between two floats rounds to even; only a
    // product of 5^q that fits in 64 bits can be exact.
    if lo <= 1 && (-4..=23).contains(&q) && m & 3 == 1 && m << shift == hi {
        m &= !1;
    }
    m += m & 1;
    m >>= 1;
    if m >= 2 << MANTISSA_BITS {
        m = 1 << MANTISSA_BITS;
        e += 1;
    }
    m &= !(1 << MANTISSA_BITS);
    f64::from_bits(m | (e as u64) << MANTISSA_BITS)
}

/// The high 128 bits of `w × 5^q` (as `(lo, hi)` words), computed from
/// the high table word alone unless the bits that decide the rounding
/// are all ones.
fn product(w: u64, q: i64) -> (u64, u64) {
    let (hi5, lo5) = POW5[(q - Q_MIN) as usize];
    let (mut lo, mut hi) = mul(w, hi5);
    let mask = u64::MAX >> (MANTISSA_BITS + 3);
    if hi & mask == mask {
        let (_, carry) = mul(w, lo5);
        lo = lo.wrapping_add(carry);
        if carry > lo {
            hi += 1;
        }
    }
    (lo, hi)
}

/// The full product `a × b` as `(lo, hi)` words.
fn mul(a: u64, b: u64) -> (u64, u64) {
    let r = u128::from(a) * u128::from(b);
    (r as u64, (r >> 64) as u64)
}

/// `5^q` for every `q` in the window, as 128 bits with the top bit set
/// (`(hi, lo)` words): exact for `q >= 0`, rounded up for `q < 0`.
static POW5: [(u64, u64); (Q_MAX - Q_MIN + 1) as usize] = pow5_table();

const fn pow5_table() -> [(u64, u64); (Q_MAX - Q_MIN + 1) as usize] {
    let mut table = [(0, 0); (Q_MAX - Q_MIN + 1) as usize];
    let mut q = Q_MIN;
    while q <= Q_MAX {
        let p = 5u128.pow(q.unsigned_abs() as u32);
        let v = if q >= 0 {
            p << p.leading_zeros()
        } else {
            // ceil(2^(127 + z) / 5^-q), where 2^(z - 1) < 5^-q < 2^z,
            // which lies in [2^127, 2^128).
            pow2_div(127 + (128 - p.leading_zeros()), p) + 1
        };
        table[(q - Q_MIN) as usize] = ((v >> 64) as u64, v as u64);
        q += 1;
    }
    table
}

/// `floor(2^b / p)` for an odd `p > 1` below `2^64` whose quotient fits
/// in 128 bits, by long division one bit at a time.
const fn pow2_div(b: u32, p: u128) -> u128 {
    let (mut rem, mut quo) = (1u128, 0u128);
    let mut i = 0;
    while i < b {
        rem <<= 1;
        quo <<= 1;
        if rem >= p {
            rem -= p;
            quo |= 1;
        }
        i += 1;
    }
    quo
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Cases per input kind: the full count in an optimized build, where
    /// integer overflow wraps instead of panicking, fewer in debug.
    const CASES: usize = if cfg!(debug_assertions) {
        50_000
    } else {
        1_000_000
    };

    /// Runs the fast path over the whole of `s`. `Some(None)` means it
    /// read the text but left the conversion to `str::parse`; `None`
    /// means it declined the text.
    fn fast(s: &str) -> Option<Option<f64>> {
        let mut i = 0;
        let d = scan(s.as_bytes(), &mut i)?;
        (i == s.len()).then(|| d.to_f64())
    }

    /// Checks one string; returns whether the exact conversion took it.
    fn check(s: &str) -> bool {
        let Some(exact) = fast(s) else {
            return false;
        };
        let parsed: f64 = s
            .parse()
            .unwrap_or_else(|e| panic!("fast path read {s:?}, which str::parse rejects: {e}"));
        let Some(v) = exact else {
            return false;
        };
        assert_eq!(
            v.to_bits(),
            parsed.to_bits(),
            "{s:?}: fast path {v:e}, str::parse {parsed:e}"
        );
        true
    }

    #[test]
    fn table_matches_known_powers() {
        // 5^0, 5^1 and 5^-1 as written in the standard library's table.
        assert_eq!(POW5[27], (0x8000_0000_0000_0000, 0));
        assert_eq!(POW5[28], (0xa000_0000_0000_0000, 0));
        assert_eq!(POW5[26], (0xcccc_cccc_cccc_cccc, 0xcccc_cccc_cccc_cccd));
    }

    #[test]
    fn grammar_edges() {
        for (s, read) in [
            ("1", true),
            ("-0", true),
            ("0.5", true),
            ("1e5", true),
            ("1E+05", true),
            ("1.25e-3", true),
            ("007", true),
            ("9999999999999999999", true),
            ("0.00000000000000000000000000000001234", true),
            ("10000000000000000000", false),
            (".5", false),
            ("5.", false),
            ("+1", false),
            ("1e", false),
            ("1e+", false),
            ("-", false),
            ("", false),
            ("inf", false),
            ("nan", false),
            (" 1", false),
        ] {
            assert_eq!(fast(s).is_some(), read, "{s:?}");
            check(s);
        }
        assert_eq!(fast("-0"), Some(Some(-0.0)));
        assert!(fast("-0").unwrap().unwrap().is_sign_negative());
        assert_eq!(fast("1e400"), Some(None));
        assert_eq!(fast("0e400"), Some(Some(0.0)));
        // A fraction's leading zeros count against the exponent, so a
        // large exponent can bring `q` back into the window. Below 65,536
        // the exponent is read exactly; from there on the text is
        // declined, whatever `str::parse` makes of it (it reads the first
        // of these as 0, not 10, and the last as 1).
        let zeros = |n: usize| "0".repeat(n);
        for s in [
            format!("0.{}1e1048577", zeros((1 << 20) - 1)),
            format!("0.{}1e700000", zeros(699_999)),
            format!("0.{}1e65536", zeros(65_535)),
        ] {
            assert_eq!(fast(&s), None, "…{}", &s[s.len() - 12..]);
        }
        assert!(check(&format!("0.{}1e65535", zeros(65_534))));
    }

    /// Finite `f64`s from random bit patterns, and from random mantissas
    /// with exponents near the window, written with `{}`, `{:e}` and
    /// `{:.k}`: the fast path declines or returns `str::parse`'s bits.
    #[test]
    fn formatted_floats_match_str_parse() {
        let mut rng = StdRng::seed_from_u64(0xf10a7);
        let mut exact = 0;
        for n in 0..CASES {
            let bits = if n % 2 == 0 {
                rng.gen::<u64>()
            } else {
                // Biased exponents 933..1176: about 1e-28 to 1e50.
                (rng.gen::<u64>() & 0x800f_ffff_ffff_ffff) | rng.gen_range(933u64..1177) << 52
            };
            let x = f64::from_bits(bits);
            if !x.is_finite() {
                continue;
            }
            let k = rng.gen_range(0usize..21);
            for s in [format!("{x}"), format!("{x:e}"), format!("{x:.k$}")] {
                exact += usize::from(check(&s));
            }
        }
        assert!(
            exact > CASES / 2,
            "only {exact} strings took the exact path"
        );
    }

    /// Random digit strings of 1–25 digits with a random point, an
    /// optional sign and an optional exponent in [-40, 40].
    #[test]
    fn digit_strings_match_str_parse() {
        let mut rng = StdRng::seed_from_u64(0xd161);
        let mut exact = 0;
        let mut s = String::new();
        for _ in 0..CASES {
            s.clear();
            if rng.gen_bool(0.5) {
                s.push('-');
            }
            let len = rng.gen_range(1usize..26);
            let point = rng.gen_range(0usize..len + 1);
            for i in 0..len {
                if i == point && i > 0 {
                    s.push('.');
                }
                s.push(char::from(b'0' + rng.gen_range(0u32..10) as u8));
            }
            if rng.gen_bool(0.5) {
                let e = rng.gen_range(-40i32..41);
                s.push_str(&format!("e{e}"));
            }
            exact += usize::from(check(&s));
        }
        assert!(
            exact > CASES / 4,
            "only {exact} strings took the exact path"
        );
    }
}
