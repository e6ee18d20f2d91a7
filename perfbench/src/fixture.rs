//! House fixtures built from the layers' public functions, each call in
//! its layer span: the same fixture `shatter-engine`'s cache would build
//! for `(spec, days, seed)`, without the cache.

use shatter_adm::{AdmKind, HullAdm};
use shatter_core::RewardTable;
use shatter_dataset::{synthesize, Dataset, HouseSpec, SynthConfig};
use shatter_hvac::{DchvacController, EnergyModel};
use shatter_smarthome::{Home, OccupantId, ZoneId};

use crate::layers;
use crate::trace::Tracer;

pub struct Fixture {
    pub month: Dataset,
    pub model: EnergyModel,
    pub adm: HullAdm,
    pub table: RewardTable,
}

/// Synthesizes a month, trains `kind` on its first `train_days` days,
/// warms every stay profile, and builds the reward table.
pub fn build(
    spec: &HouseSpec,
    days: usize,
    seed: u64,
    kind: AdmKind,
    train_days: usize,
    tr: &Tracer,
) -> Fixture {
    let month = tr.span(layers::SYNTHESIZE, || {
        synthesize(&SynthConfig::new(spec.clone(), days, seed))
    });
    let model = EnergyModel::standard(spec.home.build());
    let adm = tr.span(layers::ADM_TRAIN, || {
        if train_days == days {
            HullAdm::train(&month, kind)
        } else {
            HullAdm::train(&month.prefix_days(train_days), kind)
        }
    });
    warm_profiles(&adm, model.home(), tr);
    let table = tr.span(layers::REWARD_BUILD, || RewardTable::build(&model));
    Fixture {
        month,
        model,
        adm,
        table,
    }
}

/// Builds every `(occupant, zone)` stay profile the schedulers query.
fn warm_profiles(adm: &HullAdm, home: &Home, tr: &Tracer) {
    for o in 0..home.occupants().len() {
        for z in 0..home.zones().len() {
            tr.span(layers::STAY_PROFILE, || {
                adm.stay_profile(OccupantId(o), ZoneId(z))
            });
        }
    }
}

/// Benign DCHVAC control cost ($) of each day.
pub fn benign_costs(
    model: &EnergyModel,
    days: &[shatter_dataset::DayTrace],
    tr: &Tracer,
) -> Vec<f64> {
    tr.span(layers::DATASET_COSTS, || {
        model.dataset_costs(&DchvacController, days)
    })
    .iter()
    .map(|c| c.total_usd())
    .collect()
}
