//! Synthetic dataset generators matching the shapes of the paper's four
//! evaluation datasets, plus the worked flight-delay example (Table 1.1).
//!
//! The real datasets (IPUMS Income, GDELT events, UCI SUSY, NYC TLC trips)
//! are not redistributable here, so each generator reproduces the properties
//! SIRUM's behaviour depends on:
//!
//! * row count and dimension count (scaled down for a single machine),
//! * per-attribute cardinalities with Zipf-skewed value frequencies,
//! * a binary or numeric measure attribute, and
//! * *planted* correlations between a few dimension-value combinations and
//!   the measure, so that genuinely informative rules exist to be mined.
//!
//! All generators are deterministic in their seed.

use crate::error::TableError;
use crate::frame::Compression;
use crate::schema::Schema;
use crate::table::{Table, TableBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Zipf sampler over `0..cardinality` with exponent `s` (1.0 ≈ natural
/// categorical skew; 0.0 = uniform). Precomputes the CDF once.
pub(crate) struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler for `cardinality` values with exponent `s`.
    pub(crate) fn new(cardinality: usize, s: f64) -> Self {
        // lint:allow(SL001) — generator-internal contract; all call sites pass literal cardinalities
        assert!(cardinality > 0);
        let mut cdf = Vec::with_capacity(cardinality);
        let mut total = 0.0;
        for k in 1..=cardinality {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draw one value in `0..cardinality`.
    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> u32 {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u) as u32
    }
}

/// Build a generated table under `compression`: the schema names `dims`
/// and `measure`, and `fill` pushes the rows.
#[expect(
    clippy::expect_used,
    reason = "generator schemas, domains and codes are literals no door can refuse"
)]
fn generate<S: Into<String>>(
    dims: Vec<S>,
    measure: &str,
    compression: Compression,
    fill: impl FnOnce(&mut TableBuilder) -> Result<(), TableError>,
) -> Table {
    let schema = Schema::try_new(dims, measure).expect("generator schema is well formed");
    let mut b = Table::builder(schema);
    fill(&mut b).expect("generator rows fit their schema and interned domains");
    b.build_with(compression)
}

/// Pre-intern generic value names `"<col>:v<code>"` for every column so that
/// generated codes are dense and stable.
fn pre_intern(builder: &mut TableBuilder, cards: &[usize]) -> Result<(), TableError> {
    for (col, &card) in cards.iter().enumerate() {
        for v in 0..card {
            builder.try_intern(col, &format!("c{col}:v{v}"))?;
        }
    }
    Ok(())
}

/// The exact 14-row flight-delay table of the thesis (Table 1.1).
///
/// The informative rules the paper derives from it — `(*,*,London)`,
/// `(Fri,*,*)`, `(Sat,*,*)` — are reproduced in the quickstart example and
/// asserted in the integration tests.
pub fn flights() -> Table {
    let rows: [(&str, &str, &str, f64); 14] = [
        ("Fri", "SF", "London", 20.0),
        ("Fri", "London", "LA", 16.0),
        ("Sun", "Tokyo", "Frankfurt", 10.0),
        ("Sun", "Chicago", "London", 15.0),
        ("Sat", "Beijing", "Frankfurt", 13.0),
        ("Sat", "Frankfurt", "London", 19.0),
        ("Tue", "Chicago", "LA", 5.0),
        ("Wed", "London", "Chicago", 6.0),
        ("Thu", "SF", "Frankfurt", 15.0),
        ("Mon", "Beijing", "SF", 4.0),
        ("Mon", "SF", "London", 7.0),
        ("Mon", "SF", "Frankfurt", 5.0),
        ("Mon", "Tokyo", "Beijing", 6.0),
        ("Mon", "Frankfurt", "Tokyo", 4.0),
    ];
    let dims = vec!["Day", "Origin", "Destination"];
    generate(dims, "Delay", Compression::Auto, |b| {
        for (day, origin, dest, delay) in rows {
            b.try_push_row(&[day, origin, dest], delay)?;
        }
        Ok(())
    })
}

/// Income-like dataset: census household demographics with a binary measure
/// ("income exceeds $100k"). Paper shape: 1.5M rows × 9 dims, 78M possible
/// rules; default reproduction scale is `n` rows with the same cardinalities.
pub fn income_like(n: usize, seed: u64) -> Table {
    let cards = [9usize, 2, 5, 7, 12, 6, 2, 10, 4];
    let names = vec![
        "AgeBracket",
        "Sex",
        "MaritalStatus",
        "Education",
        "Occupation",
        "Race",
        "Veteran",
        "Region",
        "Children",
    ];
    generate(names, "IncomeOver100k", Compression::Auto, |b| {
        pre_intern(b, &cards)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let zipfs: Vec<Zipf> = cards.iter().map(|&c| Zipf::new(c, 0.8)).collect();
        let mut codes = vec![0u32; cards.len()];
        for _ in 0..n {
            for (col, z) in zipfs.iter().enumerate() {
                codes[col] = z.sample(&mut rng);
            }
            // Planted signal: education and occupation dominate; age interacts.
            let mut p: f64 = 0.06;
            if codes[3] >= 5 {
                p += 0.28; // advanced education
            }
            if codes[4] <= 1 {
                p += 0.22; // top occupations
            }
            if codes[0] >= 4 && codes[0] <= 6 {
                p += 0.08; // prime earning age
            }
            if codes[2] == 1 {
                p += 0.05; // married
            }
            let m = f64::from(rng.gen::<f64>() < p.min(0.95));
            b.try_push_coded_row(&codes, m)?;
        }
        Ok(())
    })
}

/// GDELT-like dataset: global event records with a numeric measure (number
/// of mentions). Paper shape: 3.8M rows × 9 dims, 12B possible rules.
pub fn gdelt_like(n: usize, seed: u64) -> Table {
    let cards = [40usize, 15, 2, 30, 4, 6, 6, 6, 12];
    let names = vec![
        "Actor1Country",
        "Actor1Type",
        "IsRootEvent",
        "EventBaseCode",
        "EventClass",
        "Actor1GeoType",
        "Actor2GeoType",
        "ActionGeoType",
        "Month",
    ];
    generate(names, "NumMentions", Compression::Auto, |b| {
        pre_intern(b, &cards)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let zipfs: Vec<Zipf> = cards.iter().map(|&c| Zipf::new(c, 1.1)).collect();
        let mut codes = vec![0u32; cards.len()];
        for _ in 0..n {
            for (col, z) in zipfs.iter().enumerate() {
                codes[col] = z.sample(&mut rng);
            }
            // Mentions follow a heavy tail; conflict events from big actors and
            // root events get systematically more coverage.
            let mut scale: f64 = 2.0;
            if codes[4] == 3 {
                scale *= 4.0; // material conflict
            }
            if codes[2] == 1 {
                scale *= 2.0; // root event
            }
            if codes[0] == 0 {
                scale *= 1.8; // dominant country
            }
            if codes[1] == 0 && codes[4] >= 2 {
                scale *= 2.5; // media-reported conflict
            }
            // Pareto-ish tail: scale / U^0.5, capped.
            let u: f64 = rng.gen::<f64>().max(1e-6);
            let m = (scale / u.powf(0.35)).min(10_000.0).round();
            b.try_push_coded_row(&codes, m)?;
        }
        Ok(())
    })
}

/// GDELT data-quality variant for the data-cleansing application (§1,
/// Table 1.5): 8 dims with semantic names, binary measure = "Actor2 type is
/// missing" correlated with media-reported US conflict events.
pub fn gdelt_dirty(n: usize, seed: u64) -> Table {
    let names = vec![
        "Actor1Country",
        "Actor1Type",
        "IsRootEvent",
        "EventBaseCode",
        "EventClass",
        "Actor1GeoType",
        "Actor2GeoType",
        "ActionGeoType",
    ];
    let countries = ["US", "CN", "RU", "GB", "FR", "DE", "IN", "BR"];
    let actor_types = [
        "Media",
        "Government",
        "Police",
        "Rebels",
        "NGO",
        "PoliticalOpposition",
    ];
    let root = ["0", "1"];
    let base_codes = ["010", "020", "036", "051", "112", "114", "173", "190"];
    let classes = [
        "VerbalCooperation",
        "MaterialCooperation",
        "VerbalConflict",
        "MaterialConflict",
    ];
    let geo = ["USCITY", "USSTATE", "WORLDCITY", "WORLDSTATE", "COUNTRY"];
    generate(names, "IsActor2TypeMissing", Compression::Auto, |b| {
        let mut rng = StdRng::seed_from_u64(seed);
        let z_country = Zipf::new(countries.len(), 1.2);
        let z_actor = Zipf::new(actor_types.len(), 1.0);
        let z_code = Zipf::new(base_codes.len(), 0.9);
        let z_class = Zipf::new(classes.len(), 0.5);
        let z_geo = Zipf::new(geo.len(), 1.0);
        for _ in 0..n {
            let country = countries[z_country.sample(&mut rng) as usize];
            let actor = actor_types[z_actor.sample(&mut rng) as usize];
            let is_root = root[usize::from(rng.gen::<f64>() < 0.4)];
            let code = base_codes[z_code.sample(&mut rng) as usize];
            let class = classes[z_class.sample(&mut rng) as usize];
            let g1 = geo[z_geo.sample(&mut rng) as usize];
            let g2 = geo[z_geo.sample(&mut rng) as usize];
            let g3 = geo[z_geo.sample(&mut rng) as usize];
            // Planted data-quality defect: media-reported US material-conflict
            // events very often lack the second actor's type (cf. Table 1.5).
            let mut p: f64 = 0.12;
            if country == "US" && actor == "Media" && class == "MaterialConflict" {
                p = 0.92;
            } else if code == "173" {
                p = 0.75;
            } else if class == "MaterialConflict" {
                p = 0.35;
            }
            let m = f64::from(rng.gen::<f64>() < p);
            b.try_push_row(&[country, actor, is_root, code, class, g1, g2, g3], m)?;
        }
        Ok(())
    })
}

/// SUSY-like dataset: Monte-Carlo particle-collision features bucketed into
/// 3 values per attribute, binary measure = "signal process". Paper shape:
/// 5M rows × 18 dims, 68B possible rules.
pub fn susy_like(n: usize, seed: u64) -> Table {
    const D: usize = 18;
    let cards = [3usize; D];
    let names: Vec<String> = (0..D).map(|i| format!("Feature{i:02}")).collect();
    generate(names, "IsSignal", Compression::Auto, |b| {
        pre_intern(b, &cards)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut codes = [0u32; D];
        for _ in 0..n {
            // Latent class decides both the bucket biases and the label,
            // mirroring how SUSY features separate signal from background.
            let signal = rng.gen::<f64>() < 0.45;
            for (col, c) in codes.iter_mut().enumerate() {
                // The first few features are informative; the rest are noise.
                let bias = if col < 6 {
                    if signal {
                        0.55
                    } else {
                        0.2
                    }
                } else {
                    1.0 / 3.0
                };
                let u: f64 = rng.gen();
                *c = if u < bias {
                    2
                } else if u < bias + (1.0 - bias) / 2.0 {
                    1
                } else {
                    0
                };
            }
            // Label noise keeps the mining problem non-trivial.
            let label = if rng.gen::<f64>() < 0.9 {
                signal
            } else {
                !signal
            };
            b.try_push_coded_row(&codes, f64::from(label))?;
        }
        Ok(())
    })
}

/// TLC-like dataset: NYC yellow-taxi trips with a numeric measure (total
/// payment). Paper shape: 1.08B rows × 9 dims; `TLC_160m`…`TLC_2m` samples.
pub fn tlc_like(n: usize, seed: u64) -> Table {
    tlc_like_with(n, seed, Compression::Auto)
}

/// [`tlc_like`] built under an explicit [`Compression`] policy: a raw
/// reference table at a size [`Compression::Auto`] compresses, whose codes
/// never passed through a segment encoder.
pub fn tlc_like_with(n: usize, seed: u64, compression: Compression) -> Table {
    let cards = [12usize, 6, 4, 16, 16, 16, 16, 5, 3];
    let names = vec![
        "Month",
        "Passengers",
        "Payment",
        "PickupLon",
        "PickupLat",
        "DropoffLon",
        "DropoffLat",
        "RateCode",
        "Vendor",
    ];
    generate(names, "TotalPayment", compression, |b| {
        pre_intern(b, &cards)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let zipfs: Vec<Zipf> = cards.iter().map(|&c| Zipf::new(c, 0.6)).collect();
        let mut codes = vec![0u32; cards.len()];
        for _ in 0..n {
            for (col, z) in zipfs.iter().enumerate() {
                codes[col] = z.sample(&mut rng);
            }
            // Fares grow with implied trip distance (grid distance between
            // pickup and dropoff buckets); airport rate codes pay a premium.
            let dist = (f64::from(codes[3]) - f64::from(codes[5])).abs()
                + (f64::from(codes[4]) - f64::from(codes[6])).abs();
            let mut fare = 3.5 + 2.2 * dist + rng.gen::<f64>() * 4.0;
            if codes[7] >= 3 {
                fare += 35.0; // airport flat rates
            }
            if codes[2] == 1 {
                fare *= 1.18; // card payments include tips
            }
            b.try_push_coded_row(&codes, (fare * 100.0).round() / 100.0)?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[9] * 3, "head should dominate tail");
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn zipf_zero_exponent_is_uniformish() {
        let z = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 4];
        for _ in 0..8000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((1600..2400).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn flights_matches_paper_table() {
        let t = flights();
        assert_eq!(t.num_rows(), 14);
        assert_eq!(t.num_dims(), 3);
        assert!((t.avg_measure() - 145.0 / 14.0).abs() < 1e-9); // paper: 10.4
                                                                // London-bound flights: rows 1,4,6,11 avg 15.25 (paper: 15.3).
        let london = t.dict(2).code("London").unwrap();
        let (sum, cnt) = (0..14)
            .filter(|&i| t.row(i)[2] == london)
            .fold((0.0, 0), |(s, c), i| (s + t.measure(i), c + 1));
        assert_eq!(cnt, 4);
        assert!((sum / f64::from(cnt) - 15.25).abs() < 1e-9);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = income_like(500, 7);
        let b = income_like(500, 7);
        assert_eq!(a.measures(), b.measures());
        assert_eq!(a.row(123), b.row(123));
        let c = income_like(500, 8);
        assert_ne!(a.measures(), c.measures());
    }

    #[test]
    fn income_shape_and_signal() {
        let t = income_like(20_000, 42);
        assert_eq!(t.num_dims(), 9);
        assert_eq!(t.num_rows(), 20_000);
        let base = t.avg_measure();
        assert!(base > 0.05 && base < 0.5, "base rate {base}");
        // Planted rule: Education >= 5 must have a visibly higher rate.
        let (mut hi_sum, mut hi_n) = (0.0, 0usize);
        for i in 0..t.num_rows() {
            if t.row(i)[3] >= 5 {
                hi_sum += t.measure(i);
                hi_n += 1;
            }
        }
        assert!(hi_n > 100);
        assert!(hi_sum / hi_n as f64 > base + 0.1);
    }

    #[test]
    fn gdelt_measure_is_heavy_tailed() {
        let t = gdelt_like(20_000, 42);
        assert_eq!(t.num_dims(), 9);
        let avg = t.avg_measure();
        let max = t.measures().iter().cloned().fold(0.0, f64::max);
        assert!(max > avg * 20.0, "max {max} avg {avg}");
        assert!(t.measures().iter().all(|&m| m >= 1.0));
    }

    #[test]
    fn gdelt_dirty_plants_the_table_1_5_rule() {
        let t = gdelt_dirty(30_000, 42);
        let us = t.dict(0).code("US").unwrap();
        let media = t.dict(1).code("Media").unwrap();
        let conflict = t.dict(4).code("MaterialConflict").unwrap();
        let (mut sum, mut n) = (0.0, 0usize);
        for i in 0..t.num_rows() {
            let r = t.row(i);
            if r[0] == us && r[1] == media && r[4] == conflict {
                sum += t.measure(i);
                n += 1;
            }
        }
        assert!(n > 50, "planted combination must be frequent, got {n}");
        assert!(sum / n as f64 > 0.8, "avg {}", sum / n as f64);
        assert!(t.avg_measure() < 0.5);
    }

    #[test]
    fn susy_shape_and_projections() {
        let t = susy_like(5_000, 42);
        assert_eq!(t.num_dims(), 18);
        assert!(t.cardinalities().iter().all(|&c| c == 3));
        let p = t.project(10);
        assert_eq!(p.num_dims(), 10);
        assert_eq!(p.num_rows(), 5_000);
        // Possible-rule count grows exponentially with d: 4^18 vs 4^10.
        assert!(t.possible_rule_count() > p.possible_rule_count() * 1e4);
    }

    #[test]
    fn tlc_fares_are_positive_and_distance_correlated() {
        let t = tlc_like(20_000, 42);
        assert!(t.measures().iter().all(|&m| m > 0.0));
        // Long implied distances must cost more on average.
        let (mut near, mut near_n, mut far, mut far_n) = (0.0, 0, 0.0, 0);
        for i in 0..t.num_rows() {
            let r = t.row(i);
            let dist = (f64::from(r[3]) - f64::from(r[5])).abs()
                + (f64::from(r[4]) - f64::from(r[6])).abs();
            if dist < 2.0 {
                near += t.measure(i);
                near_n += 1;
            } else if dist > 8.0 {
                far += t.measure(i);
                far_n += 1;
            }
        }
        assert!(near_n > 100 && far_n > 100);
        assert!(far / f64::from(far_n) > near / f64::from(near_n) + 5.0);
    }
}
