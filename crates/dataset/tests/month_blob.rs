//! Month blobs and shared record runs: the `dataset/1` bytes of
//! synthesized months are pinned, synthesis and decode share exactly the
//! minutes whose records are equal, an edit through `Arc::make_mut`
//! changes one minute only, and days of random record runs round-trip
//! through the codec.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use shatter_dataset::{
    synthesize, Dataset, DayTrace, HouseSpec, MinuteRecord, OccupantState, SynthConfig,
};
use shatter_smarthome::{Activity, ZoneId, MINUTES_PER_DAY};
use shatter_store::{fnv1a_bytes, Blob};

/// The pinned months: name, spec, seed.
fn months() -> [(&'static str, HouseSpec, u64); 4] {
    [
        ("ARAS A", HouseSpec::aras_a(), 11),
        ("ARAS B", HouseSpec::aras_b(), 22),
        ("scaled(10, 4)", HouseSpec::scaled(10, 4), 4),
        ("scaled(6, 5)", HouseSpec::scaled(6, 5), 3),
    ]
}

/// Record runs per day, summed over the month.
fn runs(ds: &Dataset) -> usize {
    ds.days
        .iter()
        .map(|d| 1 + d.minutes.windows(2).filter(|w| w[0] != w[1]).count())
        .sum()
}

/// Asserts the sharing rule: a minute points at the previous minute's
/// record exactly when the two records are equal, and the month holds
/// one allocation per record run.
fn assert_shared_per_run(ds: &Dataset, what: &str) {
    for d in &ds.days {
        for t in 1..d.minutes.len() {
            let (prev, cur) = (&d.minutes[t - 1], &d.minutes[t]);
            assert_eq!(
                Arc::ptr_eq(prev, cur),
                **prev == **cur,
                "{what}: day {} minute {t}",
                d.day
            );
        }
    }
    let allocations: HashSet<*const MinuteRecord> = ds
        .days
        .iter()
        .flat_map(|d| d.minutes.iter().map(Arc::as_ptr))
        .collect();
    assert_eq!(
        allocations.len(),
        runs(ds),
        "{what}: one allocation per run"
    );
}

/// FNV-1a and size of each month's `to_blob()`. The pin guards both
/// halves of a stored month: synthesis must keep producing the same
/// records, and the encoder the same bytes, or stores already on disk
/// would stop matching what a run computes.
#[test]
fn month_blob_bytes_are_pinned() {
    let pins = [
        (0x2963_e006_612a_4b67_u64, 518_821_usize),
        (0x509c_e321_8549_0c37, 518_821),
        (0x45b7_787f_e714_149b, 950_831),
        (0x1339_2556_8c0e_be90, 1_166_830),
    ];
    for ((name, spec, seed), (fnv, size)) in months().into_iter().zip(pins) {
        let blob = synthesize(&SynthConfig::month(spec, seed)).to_blob();
        assert_eq!(blob.len(), size, "{name} size");
        assert_eq!(fnv1a_bytes(&blob), fnv, "{name} FNV-1a");
    }
}

#[test]
fn synthesis_and_decode_share_exactly_the_record_runs() {
    let expected_runs = [1_200, 1_002, 2_309, 2_829];
    for ((name, spec, seed), n_runs) in months().into_iter().zip(expected_runs) {
        let ds = synthesize(&SynthConfig::month(spec, seed));
        assert_eq!(runs(&ds), n_runs, "{name} runs");
        assert_shared_per_run(&ds, name);
        let back = Dataset::from_blob(&ds.to_blob()).expect("decode");
        assert_eq!(back, ds);
        assert_shared_per_run(&back, name);
    }
}

/// Editing one minute inside a run copies that minute's record: the rest
/// of the run keeps the old record, and re-encoding changes that minute's
/// bytes only.
#[test]
fn editing_one_minute_of_a_run_copies_it() {
    let ds = synthesize(&SynthConfig::month(HouseSpec::aras_a(), 11));
    let blob = ds.to_blob();
    let d = 3;
    let m = &ds.days[d].minutes;
    let t = (1..MINUTES_PER_DAY - 1)
        .find(|&t| Arc::ptr_eq(&m[t - 1], &m[t]) && Arc::ptr_eq(&m[t], &m[t + 1]))
        .expect("a run of three minutes");

    let mut edited = ds.clone();
    let rec = Arc::make_mut(&mut edited.days[d].minutes[t]);
    rec.occupants[0].activity = if rec.occupants[0].activity == Activity::Cleaning {
        Activity::Laundry
    } else {
        Activity::Cleaning
    };
    rec.appliances[0] = !rec.appliances[0];

    let e = &edited.days[d].minutes;
    assert_ne!(e[t], m[t]);
    assert!(Arc::ptr_eq(&e[t - 1], &m[t]) && Arc::ptr_eq(&e[t + 1], &m[t]));
    assert!(
        Arc::ptr_eq(&m[t - 1], &m[t]),
        "the original run is untouched"
    );

    let re = edited.to_blob();
    assert_eq!(re.len(), blob.len());
    // Envelope: tag, house, three counts; each day: u32 index, u64
    // minute count, then 1,440 records of 5 · 2 + ⌈13 / 8⌉ bytes.
    let rec_len = 5 * ds.n_occupants + ds.n_appliances.div_ceil(8);
    let head = 8 + "dataset/1".len() + 8 + ds.house.len() + 3 * 8;
    let start = head + (d + 1) * 12 + (d * MINUTES_PER_DAY + t) * rec_len;
    let changed: Vec<usize> = (0..re.len()).filter(|&i| re[i] != blob[i]).collect();
    assert!(!changed.is_empty());
    assert!(
        changed.iter().all(|i| (start..start + rec_len).contains(i)),
        "bytes outside minute {t} changed: {changed:?}"
    );
    assert_eq!(Dataset::from_blob(&re), Some(edited));
}

fn arb_record() -> impl Strategy<Value = MinuteRecord> {
    let occ = (0usize..5, 0usize..27).prop_map(|(z, a)| OccupantState {
        zone: ZoneId(z),
        activity: Activity::ALL[a],
    });
    (
        prop::collection::vec(occ, 2..=2),
        prop::collection::vec(any::<bool>(), 13..=13),
    )
        .prop_map(|(occupants, appliances)| MinuteRecord {
            occupants,
            appliances,
        })
}

/// How one run's record relates to the previous run's.
#[derive(Debug, Clone)]
enum Change {
    /// An unrelated random record.
    Fresh(MinuteRecord),
    /// An equal record in a new allocation.
    Copy,
    /// The previous record with one occupant's activity replaced.
    Activity(usize, Activity),
    /// The previous record with one appliance toggled.
    Toggle(usize),
}

/// A day built from random runs in order, cut or padded to 1,440
/// minutes; each run's minutes share one allocation.
fn arb_day() -> impl Strategy<Value = Vec<Arc<MinuteRecord>>> {
    let run = (
        0u8..4,
        arb_record(),
        (0usize..2, 0usize..27, 0usize..13),
        1usize..=90,
    )
        .prop_map(|(kind, rec, (o, a, i), len)| {
            let change = match kind {
                0 => Change::Fresh(rec),
                1 => Change::Copy,
                2 => Change::Activity(o, Activity::ALL[a]),
                _ => Change::Toggle(i),
            };
            (change, len)
        });
    (arb_record(), prop::collection::vec(run, 10..=60)).prop_map(|(first, runs)| {
        let mut rec = first;
        let mut minutes = Vec::with_capacity(MINUTES_PER_DAY);
        for (change, len) in runs {
            match change {
                Change::Fresh(r) => rec = r,
                Change::Copy => {}
                Change::Activity(o, a) => rec.occupants[o].activity = a,
                Change::Toggle(i) => rec.appliances[i] = !rec.appliances[i],
            }
            minutes.extend(std::iter::repeat_n(Arc::new(rec.clone()), len));
        }
        minutes.resize(MINUTES_PER_DAY, Arc::new(rec));
        minutes
    })
}

proptest! {
    /// Days of random record runs, including equal records in separate
    /// allocations, decode equal, re-encode byte for byte, and decode
    /// with one allocation per run.
    #[test]
    fn random_run_days_round_trip(days in prop::collection::vec(arb_day(), 1..=3)) {
        let ds = Dataset {
            house: "random runs".into(),
            n_occupants: 2,
            n_appliances: 13,
            days: days
                .into_iter()
                .zip(0u32..)
                .map(|(minutes, day)| DayTrace { day, minutes })
                .collect(),
        };
        let blob = ds.to_blob();
        let back = Dataset::from_blob(&blob).expect("decode");
        prop_assert_eq!(&back, &ds);
        prop_assert_eq!(back.to_blob(), blob);
        assert_shared_per_run(&back, "decoded random days");
    }
}
