//! Property tests of the Outcome artifact kind: the `DiskCodec` of
//! `Arc<EvalOutcome>` round-trips bit-exactly, hostile bytes decode to
//! `None` without panicking or over-allocating, and damaged outcome files
//! are refused (counted in `disk_rejected`) and recomputed, never served.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use tg_zoo::{DatasetId, Modality, ModelId, ModelZoo, ZooConfig};
use transfergraph::store::DiskCodec;
use transfergraph::{
    ArtifactStore, EvalOptions, EvalOutcome, OutcomeKey, StoreOptions, Strategy, Workbench,
};

fn outcome(
    label: String,
    predictions: Vec<f64>,
    ground_truth: Vec<f64>,
    models: Vec<ModelId>,
    pearson: Option<f64>,
    spearman: Option<f64>,
    top5: f64,
) -> Arc<EvalOutcome> {
    Arc::new(EvalOutcome {
        dataset: DatasetId(3),
        strategy: label,
        predictions,
        ground_truth,
        models,
        pearson,
        spearman,
        top5_accuracy: top5,
    })
}

fn encode(o: &Arc<EvalOutcome>) -> Vec<u8> {
    let mut buf = Vec::new();
    o.encode(&mut buf);
    buf
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn opt_bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

/// Bit-level equality of two outcomes (`==` on `f64` would fail on NaN).
fn same_bits(a: &EvalOutcome, b: &EvalOutcome) -> bool {
    a.dataset == b.dataset
        && a.strategy == b.strategy
        && bits(&a.predictions) == bits(&b.predictions)
        && bits(&a.ground_truth) == bits(&b.ground_truth)
        && a.models == b.models
        && opt_bits(a.pearson) == opt_bits(b.pearson)
        && opt_bits(a.spearman) == opt_bits(b.spearman)
        && a.top5_accuracy.to_bits() == b.top5_accuracy.to_bits()
}

/// Byte offsets of the four length words in an outcome's encoding:
/// label, predictions, ground truth, models.
fn length_words(o: &EvalOutcome) -> [usize; 4] {
    let label = 8;
    let predictions = label + 8 + o.strategy.len().div_ceil(8) * 8;
    let ground_truth = predictions + 8 + o.predictions.len() * 8;
    let models = ground_truth + 8 + o.ground_truth.len() * 8;
    [label, predictions, ground_truth, models]
}

fn decode(buf: &[u8]) -> Option<(Arc<EvalOutcome>, usize)> {
    let mut pos = 0;
    let v = <Arc<EvalOutcome>>::decode(buf, &mut pos)?;
    Some((v, pos))
}

#[test]
fn edge_values_round_trip_bit_exactly() {
    let nan = f64::from_bits(0x7ff8_dead_beef_0001);
    for o in [
        outcome(String::new(), vec![], vec![], vec![], None, None, 0.0),
        outcome(
            "TG:XGB,N2V+,all".into(),
            vec![nan, -0.0, f64::INFINITY],
            vec![f64::MIN_POSITIVE, 1.0, -2.5],
            vec![ModelId(0), ModelId(7), ModelId(usize::MAX)],
            Some(nan),
            None,
            f64::NAN,
        ),
        outcome(
            "é→✓".into(),
            vec![1.0],
            vec![],
            vec![],
            None,
            Some(-0.0),
            -1.0,
        ),
    ] {
        let buf = encode(&o);
        assert_eq!(buf.len() % 8, 0, "encodings are whole words");
        let (back, pos) = decode(&buf).expect("round trip");
        assert_eq!(pos, buf.len(), "decode consumes exactly the encoding");
        assert!(same_bits(&o, &back), "{o:?} came back as {back:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every field survives encode → decode bit for bit, whatever the
    /// float bits (NaN payloads included), label and vector lengths.
    #[test]
    fn outcome_codec_round_trips_bit_exactly(
        label in prop::collection::vec(32u8..127, 0..24),
        predictions in prop::collection::vec(any::<u64>(), 0..12),
        truth in prop::collection::vec(any::<u64>(), 0..12),
        models in prop::collection::vec(0usize..10_000, 0..12),
        pearson in (any::<bool>(), any::<u64>()),
        spearman in (any::<bool>(), any::<u64>()),
        top5 in any::<u64>(),
    ) {
        let floats = |v: &[u64]| v.iter().map(|&b| f64::from_bits(b)).collect::<Vec<_>>();
        let corr = |(some, b): (bool, u64)| some.then(|| f64::from_bits(b));
        let o = outcome(
            String::from_utf8(label).unwrap(),
            floats(&predictions),
            floats(&truth),
            models.into_iter().map(ModelId).collect(),
            corr(pearson),
            corr(spearman),
            f64::from_bits(top5),
        );
        let buf = encode(&o);
        prop_assert_eq!(buf.len() % 8, 0);
        let decoded = decode(&buf);
        prop_assert!(decoded.is_some(), "valid encoding refused");
        let (back, pos) = decoded.unwrap();
        prop_assert_eq!(pos, buf.len());
        prop_assert!(same_bits(&o, &back), "round trip changed bits");
    }

    /// Arbitrary bytes never panic. Whatever does decode is canonical:
    /// re-encoding it reproduces exactly the bytes consumed.
    #[test]
    fn arbitrary_bytes_decode_canonically_or_not_at_all(
        words in prop::collection::vec(any::<u64>(), 0..48),
        small_words in prop::collection::vec(0u64..6, 0..48),
        cut in 0usize..8,
    ) {
        // Small words make length and tag words plausible, so decoding
        // gets past the first field often enough to be interesting.
        let mut buf: Vec<u8> = words
            .iter()
            .zip(small_words.iter().chain(std::iter::repeat(&0)))
            .flat_map(|(&w, &s)| (if w % 3 == 0 { w } else { s }).to_le_bytes())
            .collect();
        buf.truncate(buf.len().saturating_sub(cut));
        if let Some((v, pos)) = decode(&buf) {
            prop_assert_eq!(encode(&v), buf[..pos].to_vec());
        }
    }

    /// Truncating a valid encoding anywhere, or pointing any of its
    /// length words past the end, decodes to `None`.
    #[test]
    fn truncations_and_overlong_lengths_decode_to_none(
        n in 0usize..10,
        label_len in 0usize..20,
        cut in 1usize..400,
        which in 0usize..4,
        excess in any::<u64>(),
    ) {
        let o = outcome(
            "x".repeat(label_len),
            vec![0.5; n],
            vec![0.25; n],
            vec![ModelId(1); n],
            Some(0.1),
            None,
            0.9,
        );
        let buf = encode(&o);
        let cut = cut.min(buf.len());
        prop_assert!(decode(&buf[..buf.len() - cut]).is_none(), "truncation decoded");

        let mut long = buf.clone();
        let at = length_words(&o)[which];
        // Any length whose payload runs past the end of the buffer,
        // up to u64::MAX (a would-be multi-exabyte allocation).
        let past = (buf.len() as u64 / 8 + 1).saturating_add(excess % (u64::MAX / 2));
        long[at..at + 8].copy_from_slice(&past.to_le_bytes());
        prop_assert!(decode(&long).is_none(), "length past the end decoded");
    }
}

// ---------------------------------------------------------------------------
// Damaged files on disk
// ---------------------------------------------------------------------------

/// One shared small zoo: the file tests only need its fingerprint and a
/// workbench to drive `Workbench::outcome`.
fn zoo() -> Arc<ModelZoo> {
    static ZOO: OnceLock<Arc<ModelZoo>> = OnceLock::new();
    Arc::clone(ZOO.get_or_init(|| Arc::new(ModelZoo::build(&ZooConfig::small(61)))))
}

fn sample_outcome() -> Arc<EvalOutcome> {
    outcome(
        "TG:XGB,N2V+,all".into(),
        vec![0.5, f64::NAN, -1.25],
        vec![0.75, 0.5, 0.25],
        vec![ModelId(0), ModelId(1), ModelId(2)],
        None,
        Some(0.5),
        0.6,
    )
}

fn outcome_file(dir: &Path, fingerprint: u64) -> PathBuf {
    dir.join(format!("{fingerprint:016x}.outcome.bin"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tg-outcome-codec-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A persisted outcome file holding [`sample_outcome`], plus the byte
/// offset of its value within the file.
fn persisted_file() -> (Vec<u8>, usize) {
    static FILE: OnceLock<(Vec<u8>, usize)> = OnceLock::new();
    FILE.get_or_init(|| {
        let zoo = zoo();
        let fp = zoo.config.fingerprint();
        let dir = temp_dir("source");
        let store = Arc::new(ArtifactStore::open(fp, StoreOptions::in_dir(&dir)));
        let wb = Workbench::from_parts(Arc::clone(&zoo), store);
        let (strategy, target, opts) = key_parts();
        wb.outcome(&strategy, target, &opts, sample_outcome);
        wb.persist().unwrap();
        let bytes = std::fs::read(outcome_file(&dir, fp)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let mut key = Vec::new();
        OutcomeKey::new(target, &strategy, &opts).encode(&mut key);
        // One record: 40-byte header, one 24-byte index triple, the key.
        (bytes, 40 + 24 + key.len())
    })
    .clone()
}

fn key_parts() -> (Strategy, DatasetId, EvalOptions) {
    let target = zoo().targets_of(Modality::Image)[0];
    // A graph-learning strategy: only those are memoized.
    (
        Strategy::transfer_graph_default(),
        target,
        EvalOptions::default(),
    )
}

/// Installs `bytes` as the outcome file of a fresh directory, opens a
/// store over it and looks the sample key up. Returns whether the lookup
/// had to compute, the value it returned, and the store's rejected count.
fn serve_from(bytes: &[u8], mmap: bool, tag: &str) -> (bool, Arc<EvalOutcome>, u64) {
    let zoo = zoo();
    let fp = zoo.config.fingerprint();
    let dir = temp_dir(tag);
    std::fs::write(outcome_file(&dir, fp), bytes).unwrap();
    let store = Arc::new(ArtifactStore::open(
        fp,
        StoreOptions::in_dir(&dir).mmap(mmap),
    ));
    let wb = Workbench::from_parts(zoo, Arc::clone(&store));
    let (strategy, target, opts) = key_parts();
    let mut computed = false;
    let v = wb.outcome(&strategy, target, &opts, || {
        computed = true;
        sample_outcome()
    });
    let rejected = store.disk_stats().rejected;
    drop(wb);
    let _ = std::fs::remove_dir_all(&dir);
    (computed, v, rejected)
}

#[test]
fn healthy_outcome_file_is_served_from_disk() {
    let (file, _) = persisted_file();
    for mmap in [true, false] {
        let (computed, v, rejected) = serve_from(&file, mmap, "healthy");
        assert!(!computed, "a healthy file must be served, mmap={mmap}");
        assert!(same_bits(&v, &sample_outcome()));
        assert_eq!(rejected, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A truncated outcome file is refused at warm start; a file whose
    /// record carries a length word past the end is accepted but its
    /// record is refused at lookup. Both are counted in `disk_rejected`
    /// and recomputed — on the mapped and the owned backing alike.
    #[test]
    fn damaged_outcome_files_are_rejected_and_recomputed(
        cut in 1usize..200,
        which in 0usize..4,
        excess in any::<u64>(),
        mmap in any::<bool>(),
    ) {
        let (file, value_at) = persisted_file();
        let truncated = &file[..file.len() - cut.min(file.len())];
        let (computed, v, rejected) = serve_from(truncated, mmap, "truncated");
        prop_assert!(computed && rejected >= 1, "truncated file served");
        prop_assert!(same_bits(&v, &sample_outcome()));

        let mut overlong = file.clone();
        let at = value_at + length_words(&sample_outcome())[which];
        let past = (file.len() as u64 / 8 + 1).saturating_add(excess % (u64::MAX / 2));
        overlong[at..at + 8].copy_from_slice(&past.to_le_bytes());
        let (computed, v, rejected) = serve_from(&overlong, mmap, "overlong");
        prop_assert!(computed, "record with a length past the end served");
        prop_assert_eq!(rejected, 1);
        prop_assert!(same_bits(&v, &sample_outcome()));
    }

    /// Arbitrary bytes under the outcome file name are refused and
    /// counted; the lookup recomputes.
    #[test]
    fn arbitrary_outcome_files_are_rejected(
        words in prop::collection::vec(any::<u64>(), 0..32),
        keep_magic in any::<bool>(),
    ) {
        let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        if keep_magic && bytes.len() >= 8 {
            bytes[..8].copy_from_slice(b"TGARTv2\0");
        }
        let (computed, v, rejected) = serve_from(&bytes, true, "arbitrary");
        prop_assert!(computed && rejected >= 1, "arbitrary bytes served");
        prop_assert!(same_bits(&v, &sample_outcome()));
    }
}
