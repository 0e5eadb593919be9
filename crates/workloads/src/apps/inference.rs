//! Inference serving (P1).
//!
//! Serves the aggregated model: scores a batch of synthetic inputs with a
//! linear probe over the (reduced) aggregate weights. Deterministic under
//! the request seed so repeated requests are reproducible.
//!
//! The inputs are standard normals from a Ziggurat sampler (Marsaglia &
//! Tsang, "The Ziggurat Method for Generating Random Variables", J. Stat.
//! Softw. 5(8), 2000) with 128 strips: about 98.5 % of draws cost one
//! `u64`, one multiply and one compare, and only wedge and tail draws call
//! `exp` or `ln`. A batch of 32 × 4096 inputs is then mostly scoring, not
//! input generation, as it is for a real inference server.

use flstore_fl::aggregate::AggregateModel;
use flstore_sim::rng::DetRng;

use crate::outputs::InferenceOutput;

/// Default batch size served per request.
pub const DEFAULT_BATCH: usize = 32;

/// Scores `batch` synthetic inputs against the aggregate.
///
/// Returns `None` when the aggregate has no weights.
pub fn run(aggregate: &AggregateModel, batch: usize, seed: u64) -> Option<InferenceOutput> {
    if aggregate.weights.is_empty() || batch == 0 {
        return None;
    }
    let dim = aggregate.weights.dim();
    let mut rng = DetRng::stream(seed, "inference-batch");
    let scale = (dim as f64).sqrt();
    let mut total = 0.0;
    for _ in 0..batch {
        // Each input component is an f32 standard normal, folded straight
        // into the dot product's chain.
        let mut dot = -0.0f64;
        for w in aggregate.weights.as_slice() {
            let x = standard_normal(&mut rng, |_| ()) as f32;
            dot += (*w as f64) * (x as f64);
        }
        let logit = dot / scale;
        total += 1.0 / (1.0 + (-logit).exp()); // sigmoid score
    }
    Some(InferenceOutput {
        batch,
        mean_score: total / batch as f64,
    })
}

/// Right edge of the base strip's rectangle: draws beyond it come from
/// the tail.
const ZIG_R: f64 = 3.442619855899;

/// Right edge of each strip, widest first, where every strip has the
/// same area `V`. `ZIG_X[0]` is the base strip's virtual width
/// `V / f(R)` (its rectangle and the tail beyond `R` as one rectangle of
/// area `V`), `ZIG_X[1]` is `R`, each next edge solves
/// `f(x[i + 1]) = f(x[i]) + V / x[i]`, and `ZIG_X[128]` is the peak at 0.
const ZIG_X: [f64; 129] = [
    3.7130862467425505,
    3.442619855899,
    3.2230849845811416,
    3.0832288582168683,
    2.9786962526477803,
    2.894344007021529,
    2.8231253505489105,
    2.761169372387177,
    2.7061135731218195,
    2.6564064112613597,
    2.6109722484318474,
    2.569033625924938,
    2.5300096723888275,
    2.493454522095372,
    2.4590181774118305,
    2.42642064553375,
    2.3954342780110625,
    2.3658713701176386,
    2.3375752413392368,
    2.310413683698763,
    2.2842740596774718,
    2.2590595738691985,
    2.2346863955909795,
    2.2110814088787034,
    2.188180432076049,
    2.165926793748922,
    2.1442701823603953,
    2.1231657086739766,
    2.1025731351892385,
    2.082456237992017,
    2.0627822745083084,
    2.0435215366550676,
    2.0246469733773855,
    2.006133869963472,
    1.98795957412762,
    1.9701032608543265,
    1.9525457295535567,
    1.9352692282966228,
    1.9182573008645099,
    1.901494653105151,
    1.884967035707759,
    1.8686611409944887,
    1.8525645117280911,
    1.836665460258446,
    1.8209529965961255,
    1.8054167642192285,
    1.7900469825998586,
    1.7748343955860695,
    1.7597702248995934,
    1.7448461281138004,
    1.7300541605637305,
    1.7153867407136676,
    1.7008366185699169,
    1.6863968467791681,
    1.672060754097601,
    1.6578219209540241,
    1.6436741568628686,
    1.6296114794706347,
    1.615628095043161,
    1.6017183802213781,
    1.5878768648905761,
    1.5740982160230008,
    1.560377222366169,
    1.5467087798599104,
    1.5330878776740433,
    1.5195095847659401,
    1.5059690368632033,
    1.492461423781354,
    1.4789819769899242,
    1.4655259573427108,
    1.4520886428892246,
    1.4386653166845635,
    1.42525125451406,
    1.4118417124470577,
    1.3984319141310053,
    1.3850170377326518,
    1.3715922024273426,
    1.3581524543301435,
    1.344692751753547,
    1.3312079496656273,
    1.317692783209414,
    1.3041418501286168,
    1.2905495919261964,
    1.2769102735601556,
    1.263217961454621,
    1.2494664995730682,
    1.2356494832633627,
    1.2217602305399964,
    1.2077917504159497,
    1.1937367078331287,
    1.1795873846639882,
    1.1653356361647524,
    1.1509728421488674,
    1.1364898520131608,
    1.1218769225825422,
    1.107123647534036,
    1.0922188769072774,
    1.0771506248928957,
    1.0619059636948243,
    1.0464709007640454,
    1.0308302360681956,
    1.0149673952513305,
    0.9988642334929836,
    0.982500803515429,
    0.9658550794011499,
    0.9489026255113064,
    0.9316161966151508,
    0.9139652510230323,
    0.8959153525809377,
    0.8774274291129234,
    0.8584568431938132,
    0.8389522142975774,
    0.8188539067003573,
    0.7980920606440569,
    0.7765839878947599,
    0.7542306644540556,
    0.7309119106424888,
    0.7064796113354365,
    0.6807479186691546,
    0.6534786387399752,
    0.6243585973360507,
    0.5929629424714483,
    0.5586921784081852,
    0.5206560387620606,
    0.4774378372966898,
    0.4265479863554235,
    0.36287143109703196,
    0.27232086481396467,
    0.0,
];

/// `f(x) = exp(-x²/2)` at each edge of [`ZIG_X`]: strip `i ≥ 1` spans
/// heights `ZIG_F[i]..ZIG_F[i + 1]`, and `ZIG_F[128]` is the peak, 1.
const ZIG_F: [f64; 129] = [
    0.0010143525641203774,
    0.002669629083880923,
    0.005548995220771345,
    0.008624484412859885,
    0.011839478657884862,
    0.015167298010546568,
    0.018592102737011288,
    0.022103304615927098,
    0.02569329193593427,
    0.02935631744000685,
    0.03308788614622575,
    0.0368843887866562,
    0.040742868074444175,
    0.044660862200491425,
    0.048636295859867805,
    0.05266740190305101,
    0.05675266348104985,
    0.060890770348040406,
    0.06508058521306807,
    0.06932111739357791,
    0.0736115018841134,
    0.0779509825139734,
    0.08233889824223566,
    0.08677467189478018,
    0.09125780082683026,
    0.09578784912173144,
    0.10036444102865587,
    0.10498725540942132,
    0.10965602101484027,
    0.11437051244886601,
    0.11913054670765083,
    0.12393598020286782,
    0.1287867061959432,
    0.13368265258343937,
    0.1386237799845946,
    0.14361008009062776,
    0.14864157424234226,
    0.15371831220818166,
    0.1588403711394793,
    0.16400785468342038,
    0.169220892237365,
    0.1744796383307895,
    0.17978427212329545,
    0.1851349970089922,
    0.19053204031913715,
    0.19597565311627774,
    0.20146611007431367,
    0.20700370943992652,
    0.2125887730717303,
    0.2182216465543054,
    0.22390269938500842,
    0.22963232523211613,
    0.23541094226347908,
    0.24123899354543982,
    0.2471169475123214,
    0.25304529850732577,
    0.25902456739620483,
    0.2650553022555892,
    0.2711380791383846,
    0.2772735029191881,
    0.283462208223233,
    0.28970486044295984,
    0.296002156846933,
    0.30235482778648354,
    0.3087636380061811,
    0.3152293880650109,
    0.3217529158759849,
    0.3283350983728503,
    0.3349768533135892,
    0.3416791412315504,
    0.3484429675463266,
    0.3552693848479171,
    0.3621594953693176,
    0.3691144536644722,
    0.3761354695105626,
    0.3832238110559012,
    0.3903808082373146,
    0.3976078564938733,
    0.40490642080722294,
    0.412278040102661,
    0.4197243320495744,
    0.4272469983049961,
    0.4348478302499909,
    0.44252871527546844,
    0.4502916436820392,
    0.45813871626787206,
    0.4660721526894561,
    0.47409430069301695,
    0.4822076463294852,
    0.4904148252838441,
    0.4987186354709795,
    0.507122051075569,
    0.5156282382440018,
    0.5242405726729841,
    0.5329626593838361,
    0.5417983550254255,
    0.5507517931146045,
    0.5598274127040869,
    0.5690299910679509,
    0.5783646811197631,
    0.5878370544347066,
    0.5974531509445167,
    0.6072195366251203,
    0.6171433708188809,
    0.6272324852499273,
    0.6374954773350423,
    0.6479418211102225,
    0.658582000050088,
    0.6694276673488904,
    0.6804918409973341,
    0.6917891434366751,
    0.7033360990161581,
    0.7151515074104986,
    0.7272569183441848,
    0.7396772436726473,
    0.7524415591746114,
    0.7655841738977045,
    0.7791460859296877,
    0.7931770117713051,
    0.8077382946829605,
    0.822907211381409,
    0.8387836052959896,
    0.8555006078694506,
    0.8732430489100695,
    0.8922816507840261,
    0.9130436479717402,
    0.9362826816850596,
    0.9635996931270862,
    1.0,
];

/// Which branch of the sampler returned a draw.
enum Path {
    /// Inside a strip's core, wholly under the curve: no `exp`, no `ln`.
    Core,
    /// Between a strip's core and its right edge, accepted under the
    /// curve after one `exp`.
    Wedge,
    /// Beyond `R`, from Marsaglia's tail method.
    Tail,
}

/// One standard normal draw. `seen` learns which [`Path`] returned it;
/// the kernel passes a no-op and the tests count.
#[inline]
fn standard_normal(rng: &mut DetRng, mut seen: impl FnMut(Path)) -> f64 {
    loop {
        let bits = rng.next_u64();
        // The low 7 bits pick the strip; the top 53 are a uniform on
        // [-1, 1) that also carries the sign. They share no bit.
        let strip = (bits & 0x7f) as usize;
        let u = (bits >> 11) as f64 * f64::EPSILON - 1.0;
        let x = u * ZIG_X[strip];
        if x.abs() < ZIG_X[strip + 1] {
            seen(Path::Core);
            return x;
        }
        if strip == 0 {
            seen(Path::Tail);
            return tail(rng, u < 0.0);
        }
        let y = ZIG_F[strip] + (ZIG_F[strip + 1] - ZIG_F[strip]) * rng.u01();
        if y < (-0.5 * x * x).exp() {
            seen(Path::Wedge);
            return x;
        }
    }
}

/// A draw from the normal tail beyond [`ZIG_R`] (Marsaglia, 1964).
fn tail(rng: &mut DetRng, negative: bool) -> f64 {
    loop {
        // 1 - u01 is in (0, 1], so both logs are finite.
        let x = -(1.0 - rng.u01()).ln() / ZIG_R;
        let y = -(1.0 - rng.u01()).ln();
        if 2.0 * y >= x * x {
            return if negative { -(ZIG_R + x) } else { ZIG_R + x };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::sample_rounds;

    #[test]
    fn scores_are_probabilities() {
        let rounds = sample_rounds(3, 0.0);
        let out = run(&rounds[2].aggregate, DEFAULT_BATCH, 9).expect("non-empty");
        assert_eq!(out.batch, DEFAULT_BATCH);
        assert!((0.0..=1.0).contains(&out.mean_score));
    }

    #[test]
    fn deterministic_under_seed() {
        let rounds = sample_rounds(2, 0.0);
        let a = run(&rounds[1].aggregate, 16, 5).expect("ok");
        let b = run(&rounds[1].aggregate, 16, 5).expect("ok");
        assert_eq!(a, b);
        let c = run(&rounds[1].aggregate, 16, 6).expect("ok");
        assert_ne!(a.mean_score, c.mean_score);
    }

    #[test]
    fn zero_batch_is_none() {
        let rounds = sample_rounds(1, 0.0);
        assert!(run(&rounds[0].aggregate, 0, 1).is_none());
    }

    /// The area of every strip under `f(x) = exp(-x²/2)`, the base
    /// strip's tail included: with [`ZIG_R`], it fixes every table entry.
    const ZIG_V: f64 = 9.91256303526217e-3;

    const DRAWS: usize = 1_000_000;

    fn f(x: f64) -> f64 {
        (-0.5 * x * x).exp()
    }

    /// `erfc` with fractional error below 1.2e-7 (Numerical Recipes'
    /// Chebyshev fit), far inside any KS bound used here.
    fn erfc(x: f64) -> f64 {
        let z = x.abs();
        let t = 1.0 / (1.0 + 0.5 * z);
        let poly = [
            -1.265_512_23,
            1.000_023_68,
            0.374_091_96,
            0.096_784_18,
            -0.186_288_06,
            0.278_868_07,
            -1.135_203_98,
            1.488_515_87,
            -0.822_152_23,
            0.170_872_77,
        ]
        .iter()
        .rev()
        .fold(0.0, |acc, c| c + t * acc);
        let r = t * (-z * z + poly).exp();
        if x >= 0.0 {
            r
        } else {
            2.0 - r
        }
    }

    fn phi(x: f64) -> f64 {
        0.5 * erfc(-x / std::f64::consts::SQRT_2)
    }

    /// `DRAWS` sorted Ziggurat draws and how many each path returned.
    fn ziggurat_draws(seed: u64) -> (Vec<f64>, [usize; 3]) {
        let mut rng = DetRng::stream(seed, "ziggurat-test");
        let mut paths = [0usize; 3];
        let mut draws: Vec<f64> = (0..DRAWS)
            .map(|_| {
                standard_normal(&mut rng, |path| {
                    paths[match path {
                        Path::Core => 0,
                        Path::Wedge => 1,
                        Path::Tail => 2,
                    }] += 1;
                })
            })
            .collect();
        draws.sort_by(f64::total_cmp);
        (draws, paths)
    }

    #[test]
    fn layer_tables_match_the_recurrence() {
        let mut x = [0.0f64; 129];
        x[0] = ZIG_V / f(ZIG_R);
        x[1] = ZIG_R;
        for i in 1..127 {
            x[i + 1] = (-2.0 * (ZIG_V / x[i] + f(x[i])).ln()).sqrt();
        }
        // The top strip closes at the peak: its ceiling is f(0) = 1.
        assert!((ZIG_V / x[127] + f(x[127]) - 1.0).abs() < 1e-9);
        for i in 0..129 {
            let fx = if i == 128 { 1.0 } else { f(x[i]) };
            assert!(
                (x[i] - ZIG_X[i]).abs() <= 1e-12 * x[i],
                "ZIG_X[{i}]: {} vs {}",
                ZIG_X[i],
                x[i]
            );
            assert!(
                (fx - ZIG_F[i]).abs() <= 1e-12 * fx,
                "ZIG_F[{i}]: {} vs {fx}",
                ZIG_F[i]
            );
        }
        for i in 1..128 {
            // Every strip has area V.
            let area = ZIG_X[i] * (ZIG_F[i + 1] - ZIG_F[i]);
            assert!((area - ZIG_V).abs() < 1e-9, "strip {i}: {area}");
        }
    }

    #[test]
    fn ziggurat_draws_are_standard_normal() {
        let (draws, paths) = ziggurat_draws(1);
        let n = DRAWS as f64;
        let mean = draws.iter().sum::<f64>() / n;
        let moment = |k: i32| draws.iter().map(|x| (x - mean).powi(k)).sum::<f64>() / n;
        let var = moment(2);
        let kurtosis = moment(4) / (var * var);
        // Five standard errors each: sqrt(1/n), sqrt(2/n), sqrt(24/n).
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!((var - 1.0).abs() < 0.0071, "variance {var}");
        assert!((kurtosis - 3.0).abs() < 0.0245, "kurtosis {kurtosis}");
        // One-sample KS against Phi, under the 1 % critical value.
        let ks = draws
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let p = phi(x);
                ((i + 1) as f64 / n - p).max(p - i as f64 / n)
            })
            .fold(0.0, f64::max);
        assert!(ks < 1.628 / n.sqrt(), "KS {ks}");
        // Every path is taken; the tail, P(|Z| > R) ≈ 5.76e-4 per draw,
        // within five standard deviations of its count.
        assert_eq!(paths.iter().sum::<usize>(), DRAWS);
        let tails = draws.iter().filter(|x| x.abs() > ZIG_R).count();
        assert_eq!(tails, paths[2], "only the tail path returns |x| > R");
        let expected = n * erfc(ZIG_R / std::f64::consts::SQRT_2);
        assert!(
            (tails as f64 - expected).abs() < 5.0 * expected.sqrt(),
            "{tails} tail draws, {expected:.0} expected"
        );
        assert!(paths[1] > DRAWS / 200, "{} wedge draws", paths[1]);
        assert!(paths[0] > DRAWS * 97 / 100, "{} core draws", paths[0]);
    }

    #[test]
    fn ziggurat_matches_box_muller() {
        let (zig, _) = ziggurat_draws(2);
        let mut rng = DetRng::stream(2, "box-muller-test");
        let mut bm: Vec<f64> = (0..DRAWS).map(|_| rng.normal(0.0, 1.0)).collect();
        bm.sort_by(f64::total_cmp);
        // Two-sample KS: the largest gap between the empirical CDFs,
        // under the 1 % critical value for two samples of DRAWS.
        let (mut i, mut j, mut ks) = (0, 0, 0.0f64);
        while i < DRAWS && j < DRAWS {
            if zig[i] <= bm[j] {
                i += 1;
            } else {
                j += 1;
            }
            ks = ks.max((i as f64 - j as f64).abs() / DRAWS as f64);
        }
        let critical = 1.628 * (2.0 / DRAWS as f64).sqrt();
        assert!(ks < critical, "two-sample KS {ks} ≥ {critical}");
    }
}
