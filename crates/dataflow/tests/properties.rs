//! Property-based tests for the dataflow engine: encoding round-trips and
//! operator equivalence with sequential reference computations.

use proptest::prelude::*;
use sirum_dataflow::hash::{fx_hash_one, FxHashMap};
use sirum_dataflow::{
    decode_records, encode_records, sample_row_indices, Dataset, Encode, Engine, EngineConfig,
    Record,
};

fn engine(workers: usize, partitions: usize) -> Engine {
    Engine::try_new(
        EngineConfig::in_memory()
            .with_workers(workers)
            .with_partitions(partitions),
    )
    .unwrap()
}

/// `data` in order over `partitions` contiguous partitions of
/// `⌈n / partitions⌉` records (trailing ones possibly empty), placed as
/// one chunk per partition and flattened by one stage.
fn distribute<T: Record>(e: &Engine, data: &[T], partitions: usize) -> Dataset<T> {
    let chunk = data.len().div_ceil(partitions).max(1);
    let chunks: Vec<Vec<T>> = (0..partitions)
        .map(|p| data.iter().skip(p * chunk).take(chunk).cloned().collect())
        .collect();
    Dataset::from_partitioned(e, chunks).map_partitions("flatten", |_, chunks| chunks.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn encode_round_trips_nested(
        records in prop::collection::vec(
            (prop::collection::vec(any::<u32>(), 0..8), any::<f64>(), any::<u64>()),
            0..50,
        )
    ) {
        let boxed: Vec<(Box<[u32]>, f64, u64)> = records
            .into_iter()
            .map(|(v, f, u)| (v.into_boxed_slice(), f, u))
            .collect();
        let buf = encode_records(&boxed);
        let back: Vec<(Box<[u32]>, f64, u64)> = decode_records(&buf);
        // NaN-safe comparison via re-encoding.
        prop_assert_eq!(encode_records(&back), buf);
    }

    #[test]
    fn encode_values_stream_back_to_back(
        values in prop::collection::vec(any::<(u32, bool, i64)>(), 0..30)
    ) {
        let mut buf = Vec::new();
        for v in &values {
            v.encode(&mut buf);
        }
        let mut slice = buf.as_slice();
        for v in &values {
            let back = <(u32, bool, i64)>::decode(&mut slice);
            prop_assert_eq!(&back, v);
        }
        prop_assert!(slice.is_empty());
    }

    #[test]
    fn map_filter_equal_sequential(
        data in prop::collection::vec(any::<u32>(), 0..200),
        partitions in 1usize..8,
        workers in 1usize..4,
    ) {
        let e = engine(workers, partitions);
        let ds = distribute(&e, &data, partitions);
        let out = ds
            .map("m", |&x| x.wrapping_mul(3))
            .map_partitions("f", |_, xs| xs.iter().copied().filter(|x| x % 2 == 0).collect())
            .collect();
        let expect: Vec<u32> = data
            .iter()
            .map(|&x| x.wrapping_mul(3))
            .filter(|&x| x % 2 == 0)
            .collect();
        prop_assert_eq!(out, expect);
    }

    #[test]
    fn reduce_by_key_equals_hashmap(
        pairs in prop::collection::vec((0u32..20, 1u64..100), 0..300),
        partitions in 1usize..6,
    ) {
        let e = engine(2, partitions);
        let ds = distribute(&e, &pairs, partitions);
        let mut out = ds.reduce_by_key("sum", partitions, fx_hash_one, |a, b| *a += b).collect();
        out.sort_unstable();
        let mut expect_map: FxHashMap<u32, u64> = FxHashMap::default();
        for (k, v) in pairs {
            *expect_map.entry(k).or_insert(0) += v;
        }
        let mut expect: Vec<(u32, u64)> = expect_map.into_iter().collect();
        expect.sort_unstable();
        prop_assert_eq!(out, expect);
    }

    #[test]
    fn repartition_preserves_multiset(
        data in prop::collection::vec(any::<u64>(), 0..200),
        from in 1usize..6,
        to in 1usize..6,
    ) {
        let e = engine(2, from);
        let mut out = distribute(&e, &data, from).repartition(to).collect();
        let mut expect = data;
        out.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(out, expect);
    }

    #[test]
    fn cache_is_transparent(
        data in prop::collection::vec(any::<u32>(), 1..200),
        budget in 64usize..4096,
    ) {
        let e = Engine::try_new(
            EngineConfig::in_memory()
                .with_workers(2)
                .with_partitions(4)
                .with_memory_budget(budget),
        ).unwrap();
        let cached = distribute(&e, &data, 4).cache();
        prop_assert_eq!(cached.collect(), data.clone());
        // Second read (possibly from spill) still matches.
        prop_assert_eq!(cached.collect(), data);
    }

    #[test]
    fn sample_row_indices_is_uniformly_without_replacement(
        n in 1usize..300,
        k in 0usize..50,
        seed in any::<u64>(),
    ) {
        let sample = sample_row_indices(n, k, seed);
        prop_assert_eq!(sample.len(), k.min(n));
        let mut dedup = sample.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), sample.len());
        prop_assert!(sample.iter().all(|&x| x < n));
    }
}
