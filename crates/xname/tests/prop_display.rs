//! `XName`'s `Display` writes its digits into a stack buffer. It is held
//! here, byte for byte, to the `write!` formatting it replaced, copied
//! below as the reference, over every variant; and the parser reads every
//! spelling back (where the parser's six-digit numbers allow).

use omni_xname::XName;
use proptest::prelude::*;
use std::fmt::Write;

/// The formatting `Display` had before, kept as the oracle.
fn reference(x: &XName) -> String {
    let mut s = String::new();
    let _ = match *x {
        XName::Cabinet { cabinet } => write!(s, "x{cabinet}"),
        XName::Chassis { cabinet, chassis } => write!(s, "x{cabinet}c{chassis}"),
        XName::ChassisBmc { cabinet, chassis, bmc } => write!(s, "x{cabinet}c{chassis}b{bmc}"),
        XName::ComputeSlot { cabinet, chassis, slot } => write!(s, "x{cabinet}c{chassis}s{slot}"),
        XName::NodeBmc { cabinet, chassis, slot, bmc } => {
            write!(s, "x{cabinet}c{chassis}s{slot}b{bmc}")
        }
        XName::Node { cabinet, chassis, slot, bmc, node } => {
            write!(s, "x{cabinet}c{chassis}s{slot}b{bmc}n{node}")
        }
        XName::RouterSlot { cabinet, chassis, slot } => write!(s, "x{cabinet}c{chassis}r{slot}"),
        XName::RouterBmc { cabinet, chassis, slot, bmc } => {
            write!(s, "x{cabinet}c{chassis}r{slot}b{bmc}")
        }
        XName::Cdu { cdu } => write!(s, "d{cdu}"),
    };
    s
}

/// Variant `v` (mod 9) with cabinet / CDU number `n` and its four small
/// numbers taken from the bytes of `small`.
fn xname(v: u8, n: u32, small: u32) -> XName {
    let [chassis, slot, bmc, node] = small.to_le_bytes();
    let cabinet = n;
    match v % 9 {
        0 => XName::Cabinet { cabinet },
        1 => XName::Chassis { cabinet, chassis },
        2 => XName::ChassisBmc { cabinet, chassis, bmc },
        3 => XName::ComputeSlot { cabinet, chassis, slot },
        4 => XName::NodeBmc { cabinet, chassis, slot, bmc },
        5 => XName::Node { cabinet, chassis, slot, bmc, node },
        6 => XName::RouterSlot { cabinet, chassis, slot },
        7 => XName::RouterBmc { cabinet, chassis, slot, bmc },
        _ => XName::Cdu { cdu: n },
    }
}

/// Numbers of every width: small ones, the parser's six-digit edge, and
/// the whole `u32` range.
fn number() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..10, 0u32..1_000, 999_990u32..1_000_010, any::<u32>()]
}

#[test]
fn every_variant_at_its_widest_matches_the_reference() {
    for v in 0..9 {
        for (n, small) in [(0, 0), (u32::MAX, u32::MAX), (9, 0x0a0a_0a0a), (1203, 0x6463_0a09)] {
            let x = xname(v, n, small);
            assert_eq!(x.to_string(), reference(&x), "{x:?}");
        }
    }
}

proptest! {
    #[test]
    fn display_equals_the_write_reference(v in 0u8..9, n in number(), small in any::<u32>()) {
        let x = xname(v, n, small);
        let shown = x.to_string();
        prop_assert_eq!(&shown, &reference(&x));
        // Formatting into a longer buffer appends the same bytes.
        let mut out = String::from("at ");
        write!(out, "{x}").unwrap();
        prop_assert_eq!(&out[3..], shown.as_str());
        if n < 1_000_000 {
            prop_assert_eq!(shown.parse::<XName>().unwrap(), x);
        }
    }
}
