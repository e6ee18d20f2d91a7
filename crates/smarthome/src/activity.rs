use std::fmt;

/// Number of distinct ARAS activities.
pub const ACTIVITY_COUNT: usize = 27;

/// The 27 occupant activities of the ARAS dataset (Alemdar et al. 2013),
/// which the paper uses for activity-driven demand control (§III-A).
///
/// Each activity carries a metabolic intensity (MET) used to derive per-person
/// CO₂ emission (`P^CE`) and heat radiation (`P^HR`), following Persily &
/// de Jonge's generation-rate study cited by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Activity {
    GoingOut,
    PreparingBreakfast,
    HavingBreakfast,
    PreparingLunch,
    HavingLunch,
    PreparingDinner,
    HavingDinner,
    WashingDishes,
    HavingSnack,
    Sleeping,
    WatchingTv,
    Studying,
    HavingShower,
    Toileting,
    Napping,
    UsingInternet,
    ReadingBook,
    Laundry,
    Shaving,
    BrushingTeeth,
    TalkingOnPhone,
    ListeningToMusic,
    Cleaning,
    HavingConversation,
    HavingGuest,
    ChangingClothes,
    Other,
}

impl Activity {
    /// All activities in ARAS label order.
    pub const ALL: [Activity; ACTIVITY_COUNT] = [
        Activity::GoingOut,
        Activity::PreparingBreakfast,
        Activity::HavingBreakfast,
        Activity::PreparingLunch,
        Activity::HavingLunch,
        Activity::PreparingDinner,
        Activity::HavingDinner,
        Activity::WashingDishes,
        Activity::HavingSnack,
        Activity::Sleeping,
        Activity::WatchingTv,
        Activity::Studying,
        Activity::HavingShower,
        Activity::Toileting,
        Activity::Napping,
        Activity::UsingInternet,
        Activity::ReadingBook,
        Activity::Laundry,
        Activity::Shaving,
        Activity::BrushingTeeth,
        Activity::TalkingOnPhone,
        Activity::ListeningToMusic,
        Activity::Cleaning,
        Activity::HavingConversation,
        Activity::HavingGuest,
        Activity::ChangingClothes,
        Activity::Other,
    ];

    /// ARAS integer label (1-based, matching the dataset's activity codes).
    pub fn code(self) -> u8 {
        Activity::ALL
            .iter()
            .position(|a| *a == self)
            .expect("activity in ALL") as u8
            + 1
    }

    /// Parses an ARAS 1-based activity code.
    pub fn from_code(code: u8) -> Option<Activity> {
        if code == 0 || code as usize > ACTIVITY_COUNT {
            None
        } else {
            Some(Activity::ALL[code as usize - 1])
        }
    }

    /// Metabolic intensity in MET (1 MET = resting metabolic rate).
    ///
    /// Values follow the compendium ranges used by Persily & de Jonge:
    /// sleeping ≈ 0.95, seated quiet ≈ 1.1–1.3, cooking/cleaning ≈ 2.0–3.3.
    pub fn met(self) -> f64 {
        use Activity::*;
        match self {
            Sleeping => 0.95,
            Napping => 1.0,
            WatchingTv | ListeningToMusic => 1.1,
            ReadingBook | UsingInternet | Studying | TalkingOnPhone => 1.3,
            HavingBreakfast | HavingLunch | HavingDinner | HavingSnack | HavingConversation
            | HavingGuest => 1.5,
            Toileting | Shaving | BrushingTeeth | ChangingClothes => 1.8,
            PreparingBreakfast | PreparingLunch | PreparingDinner | WashingDishes => 2.0,
            HavingShower => 2.1,
            Laundry => 2.3,
            Cleaning => 3.3,
            GoingOut => 0.0, // outside the home: no indoor load
            Other => 1.4,
        }
    }

    /// Whether the occupant is plausibly unaware of remote appliance noise
    /// during this activity (deep sleep / shower). Used by occupant-evasion
    /// reasoning in the attack model.
    pub fn is_unaware(self) -> bool {
        matches!(
            self,
            Activity::Sleeping | Activity::Napping | Activity::HavingShower
        )
    }

    /// Whether this activity means the occupant is away from home.
    pub fn is_away(self) -> bool {
        self == Activity::GoingOut
    }
}

impl fmt::Display for Activity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Activity::GoingOut => "Going Out",
            Activity::PreparingBreakfast => "Preparing Breakfast",
            Activity::HavingBreakfast => "Having Breakfast",
            Activity::PreparingLunch => "Preparing Lunch",
            Activity::HavingLunch => "Having Lunch",
            Activity::PreparingDinner => "Preparing Dinner",
            Activity::HavingDinner => "Having Dinner",
            Activity::WashingDishes => "Washing Dishes",
            Activity::HavingSnack => "Having Snack",
            Activity::Sleeping => "Sleeping",
            Activity::WatchingTv => "Watching TV",
            Activity::Studying => "Studying",
            Activity::HavingShower => "Having Shower",
            Activity::Toileting => "Toileting",
            Activity::Napping => "Napping",
            Activity::UsingInternet => "Using Internet",
            Activity::ReadingBook => "Reading Book",
            Activity::Laundry => "Laundry",
            Activity::Shaving => "Shaving",
            Activity::BrushingTeeth => "Brushing Teeth",
            Activity::TalkingOnPhone => "Talking on Phone",
            Activity::ListeningToMusic => "Listening to Music",
            Activity::Cleaning => "Cleaning",
            Activity::HavingConversation => "Having Conversation",
            Activity::HavingGuest => "Having Guest",
            Activity::ChangingClothes => "Changing Clothes",
            Activity::Other => "Other",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_27_distinct_activities() {
        let mut v = Activity::ALL.to_vec();
        v.sort();
        v.dedup();
        assert_eq!(v.len(), ACTIVITY_COUNT);
    }

    #[test]
    fn code_roundtrip() {
        for a in Activity::ALL {
            assert_eq!(Activity::from_code(a.code()), Some(a));
        }
        assert_eq!(Activity::from_code(0), None);
        assert_eq!(Activity::from_code(28), None);
    }

    #[test]
    fn met_ordering_sanity() {
        assert!(Activity::Sleeping.met() < Activity::WatchingTv.met());
        assert!(Activity::WatchingTv.met() < Activity::Cleaning.met());
        assert_eq!(Activity::GoingOut.met(), 0.0);
    }

    #[test]
    fn unaware_activities() {
        assert!(Activity::Sleeping.is_unaware());
        assert!(Activity::HavingShower.is_unaware());
        assert!(!Activity::Cleaning.is_unaware());
    }

    #[test]
    fn display_names_nonempty() {
        for a in Activity::ALL {
            assert!(!a.to_string().is_empty());
        }
    }
}
