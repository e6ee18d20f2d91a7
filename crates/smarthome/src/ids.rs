use std::fmt;

/// Number of one-minute controller sampling slots per day (paper: 1440).
pub const MINUTES_PER_DAY: usize = 1440;

/// A minute-of-day timeslot index in `0..MINUTES_PER_DAY`.
pub type Minute = u32;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub usize);

        impl $name {
            /// The raw index value.
            pub fn index(self) -> usize {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl From<usize> for $name {
            fn from(i: usize) -> Self {
                $name(i)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.0
            }
        }
    };
}

id_newtype!(
    /// Identifier of a zone within a [`crate::Home`].
    ///
    /// Zone 0 is conventionally the *Outside* zone (the paper's `Z-0`).
    ZoneId
);
id_newtype!(
    /// Identifier of an occupant within a [`crate::Home`].
    OccupantId
);
id_newtype!(
    /// Identifier of a smart appliance within a [`crate::Home`].
    ApplianceId
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_usize() {
        let z: ZoneId = 3usize.into();
        assert_eq!(usize::from(z), 3);
        assert_eq!(z.index(), 3);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ZoneId(2).to_string(), "ZoneId(2)");
        assert_eq!(OccupantId(0).to_string(), "OccupantId(0)");
        assert_eq!(ApplianceId(7).to_string(), "ApplianceId(7)");
    }

    #[test]
    fn ordering_by_index() {
        assert!(ZoneId(1) < ZoneId(2));
    }
}
