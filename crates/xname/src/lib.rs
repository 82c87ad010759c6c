//! HPE Shasta xname component naming.
//!
//! Every physical component of a Shasta machine is addressed by an *xname*
//! encoding its position in the hardware hierarchy. The paper's two case
//! studies hinge on them: the Figure 2 leak event carries
//! `Context: x1203c1b0` (a chassis BMC) and the Figure 7 switch-offline
//! event names `xname: x1002c1r7b0` (a Rosetta switch BMC).
//!
//! Grammar implemented here (the subset of the Shasta naming scheme the
//! monitoring pipeline sees):
//!
//! ```text
//! xC                cabinet               x1203
//! xCcH              chassis               x1203c1
//! xCcHbB            chassis BMC           x1203c1b0
//! xCcHsS            compute slot/blade    x1102c4s0
//! xCcHsSbB          node BMC              x1102c4s0b0
//! xCcHsSbBnN        node                  x1102c4s0b0n0
//! xCcHrR            router slot           x1002c1r7
//! xCcHrRbB          router (switch) BMC   x1002c1r7b0
//! ```

pub mod topology;

pub use topology::{MachineTopology, TopologySpec};

use std::fmt;
use std::str::FromStr;

/// A parsed xname: the position of one hardware component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum XName {
    /// `xC` — a full cabinet.
    Cabinet { cabinet: u32 },
    /// `xCcH` — one chassis in a cabinet.
    Chassis { cabinet: u32, chassis: u8 },
    /// `xCcHbB` — the chassis-level BMC (where the leak sensors report).
    ChassisBmc { cabinet: u32, chassis: u8, bmc: u8 },
    /// `xCcHsS` — a compute blade slot.
    ComputeSlot { cabinet: u32, chassis: u8, slot: u8 },
    /// `xCcHsSbB` — a node BMC on a blade.
    NodeBmc { cabinet: u32, chassis: u8, slot: u8, bmc: u8 },
    /// `xCcHsSbBnN` — a compute node.
    Node { cabinet: u32, chassis: u8, slot: u8, bmc: u8, node: u8 },
    /// `xCcHrR` — a router (switch) slot.
    RouterSlot { cabinet: u32, chassis: u8, slot: u8 },
    /// `xCcHrRbB` — a Rosetta switch BMC.
    RouterBmc { cabinet: u32, chassis: u8, slot: u8, bmc: u8 },
    /// `dD` — a cooling distribution unit serving the liquid-cooled
    /// cabinets ("sensors in each cabinet, chassis, node, switch,
    /// cooling unit").
    Cdu { cdu: u32 },
}

/// Classification of an [`XName`], used for CMDB CI types and label values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// A full cabinet.
    Cabinet,
    /// A chassis.
    Chassis,
    /// A chassis BMC.
    ChassisBmc,
    /// A compute blade slot.
    ComputeSlot,
    /// A node BMC.
    NodeBmc,
    /// A compute node.
    Node,
    /// A router slot.
    RouterSlot,
    /// A Rosetta switch BMC.
    RouterBmc,
    /// A cooling distribution unit.
    Cdu,
}

impl ComponentKind {
    /// Parse the lower-snake name produced by [`Self::as_str`].
    pub fn from_name(name: &str) -> Option<ComponentKind> {
        Some(match name {
            "cabinet" => ComponentKind::Cabinet,
            "chassis" => ComponentKind::Chassis,
            "chassis_bmc" => ComponentKind::ChassisBmc,
            "compute_slot" => ComponentKind::ComputeSlot,
            "node_bmc" => ComponentKind::NodeBmc,
            "node" => ComponentKind::Node,
            "router_slot" => ComponentKind::RouterSlot,
            "router_bmc" => ComponentKind::RouterBmc,
            "cdu" => ComponentKind::Cdu,
            _ => return None,
        })
    }

    /// Lower-snake name used in labels and CMDB CI classes.
    pub fn as_str(&self) -> &'static str {
        match self {
            ComponentKind::Cabinet => "cabinet",
            ComponentKind::Chassis => "chassis",
            ComponentKind::ChassisBmc => "chassis_bmc",
            ComponentKind::ComputeSlot => "compute_slot",
            ComponentKind::NodeBmc => "node_bmc",
            ComponentKind::Node => "node",
            ComponentKind::RouterSlot => "router_slot",
            ComponentKind::RouterBmc => "router_bmc",
            ComponentKind::Cdu => "cdu",
        }
    }
}

impl fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl XName {
    /// Which kind of component this xname addresses.
    pub fn kind(&self) -> ComponentKind {
        match self {
            XName::Cabinet { .. } => ComponentKind::Cabinet,
            XName::Chassis { .. } => ComponentKind::Chassis,
            XName::ChassisBmc { .. } => ComponentKind::ChassisBmc,
            XName::ComputeSlot { .. } => ComponentKind::ComputeSlot,
            XName::NodeBmc { .. } => ComponentKind::NodeBmc,
            XName::Node { .. } => ComponentKind::Node,
            XName::RouterSlot { .. } => ComponentKind::RouterSlot,
            XName::RouterBmc { .. } => ComponentKind::RouterBmc,
            XName::Cdu { .. } => ComponentKind::Cdu,
        }
    }

    /// The cabinet number the xname carries; CDUs sit outside the
    /// cabinet rows and report their own unit number.
    pub fn cabinet(&self) -> u32 {
        match *self {
            XName::Cdu { cdu } => cdu,
            XName::Cabinet { cabinet }
            | XName::Chassis { cabinet, .. }
            | XName::ChassisBmc { cabinet, .. }
            | XName::ComputeSlot { cabinet, .. }
            | XName::NodeBmc { cabinet, .. }
            | XName::Node { cabinet, .. }
            | XName::RouterSlot { cabinet, .. }
            | XName::RouterBmc { cabinet, .. } => cabinet,
        }
    }

    /// The chassis number, if this component is below cabinet level.
    pub fn chassis(&self) -> Option<u8> {
        match *self {
            XName::Cabinet { .. } | XName::Cdu { .. } => None,
            XName::Chassis { chassis, .. }
            | XName::ChassisBmc { chassis, .. }
            | XName::ComputeSlot { chassis, .. }
            | XName::NodeBmc { chassis, .. }
            | XName::Node { chassis, .. }
            | XName::RouterSlot { chassis, .. }
            | XName::RouterBmc { chassis, .. } => Some(chassis),
        }
    }

    /// The immediate parent in the hardware hierarchy, or `None` for a
    /// cabinet.
    pub fn parent(&self) -> Option<XName> {
        match *self {
            XName::Cabinet { .. } | XName::Cdu { .. } => None,
            XName::Chassis { cabinet, .. } => Some(XName::Cabinet { cabinet }),
            XName::ChassisBmc { cabinet, chassis, .. } => Some(XName::Chassis { cabinet, chassis }),
            XName::ComputeSlot { cabinet, chassis, .. } => {
                Some(XName::Chassis { cabinet, chassis })
            }
            XName::NodeBmc { cabinet, chassis, slot, .. } => {
                Some(XName::ComputeSlot { cabinet, chassis, slot })
            }
            XName::Node { cabinet, chassis, slot, bmc, .. } => {
                Some(XName::NodeBmc { cabinet, chassis, slot, bmc })
            }
            XName::RouterSlot { cabinet, chassis, .. } => Some(XName::Chassis { cabinet, chassis }),
            XName::RouterBmc { cabinet, chassis, slot, .. } => {
                Some(XName::RouterSlot { cabinet, chassis, slot })
            }
        }
    }

    /// The ancestor (or self) at hierarchy level `kind`, walking the
    /// parent chain: a node rolled up to [`ComponentKind::Cabinet`]
    /// yields its cabinet. `None` when no ancestor has that kind — a
    /// cabinet has no chassis above it, and a CDU only itself.
    pub fn ancestor_at(&self, kind: ComponentKind) -> Option<XName> {
        std::iter::successors(Some(*self), XName::parent).find(|x| x.kind() == kind)
    }

    /// Whether `self` is `other` or one of its ancestors. A cabinet
    /// contains all of its chassis, slots and nodes, etc.
    pub fn contains(&self, other: &XName) -> bool {
        let mut cur = Some(*other);
        while let Some(x) = cur {
            if x == *self {
                return true;
            }
            cur = x.parent();
        }
        false
    }
}

/// Error produced when an xname string does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XNameParseError {
    /// The offending input.
    pub input: String,
    /// Human-readable reason.
    pub reason: &'static str,
}

impl fmt::Display for XNameParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid xname {:?}: {}", self.input, self.reason)
    }
}

impl std::error::Error for XNameParseError {}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn eat(&mut self, tag: u8) -> bool {
        if self.pos < self.bytes.len() && self.bytes[self.pos] == tag {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn number(&mut self) -> Option<u32> {
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if self.pos == start || self.pos - start > 6 {
            return None;
        }
        let mut v: u32 = 0;
        for &b in &self.bytes[start..self.pos] {
            v = v * 10 + (b - b'0') as u32;
        }
        Some(v)
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

impl FromStr for XName {
    type Err = XNameParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |reason: &'static str| XNameParseError { input: s.to_string(), reason };
        let mut c = Cursor { bytes: s.as_bytes(), pos: 0 };
        if c.eat(b'd') {
            let cdu = c.number().ok_or_else(|| err("missing cdu number"))?;
            return if c.done() {
                Ok(XName::Cdu { cdu })
            } else {
                Err(err("trailing characters after cdu"))
            };
        }
        if !c.eat(b'x') {
            return Err(err("must start with 'x' or 'd'"));
        }
        let cabinet = c.number().ok_or_else(|| err("missing cabinet number"))?;
        if c.done() {
            return Ok(XName::Cabinet { cabinet });
        }
        if !c.eat(b'c') {
            return Err(err("expected 'c' after cabinet"));
        }
        let chassis = c.number().ok_or_else(|| err("missing chassis number"))? as u8;
        if c.done() {
            return Ok(XName::Chassis { cabinet, chassis });
        }
        if c.eat(b'b') {
            let bmc = c.number().ok_or_else(|| err("missing bmc number"))? as u8;
            return if c.done() {
                Ok(XName::ChassisBmc { cabinet, chassis, bmc })
            } else {
                Err(err("trailing characters after chassis bmc"))
            };
        }
        if c.eat(b's') {
            let slot = c.number().ok_or_else(|| err("missing slot number"))? as u8;
            if c.done() {
                return Ok(XName::ComputeSlot { cabinet, chassis, slot });
            }
            if !c.eat(b'b') {
                return Err(err("expected 'b' after compute slot"));
            }
            let bmc = c.number().ok_or_else(|| err("missing bmc number"))? as u8;
            if c.done() {
                return Ok(XName::NodeBmc { cabinet, chassis, slot, bmc });
            }
            if !c.eat(b'n') {
                return Err(err("expected 'n' after node bmc"));
            }
            let node = c.number().ok_or_else(|| err("missing node number"))? as u8;
            return if c.done() {
                Ok(XName::Node { cabinet, chassis, slot, bmc, node })
            } else {
                Err(err("trailing characters after node"))
            };
        }
        if c.eat(b'r') {
            let slot = c.number().ok_or_else(|| err("missing router slot number"))? as u8;
            if c.done() {
                return Ok(XName::RouterSlot { cabinet, chassis, slot });
            }
            if !c.eat(b'b') {
                return Err(err("expected 'b' after router slot"));
            }
            let bmc = c.number().ok_or_else(|| err("missing bmc number"))? as u8;
            return if c.done() {
                Ok(XName::RouterBmc { cabinet, chassis, slot, bmc })
            } else {
                Err(err("trailing characters after router bmc"))
            };
        }
        Err(err("expected 'b', 's' or 'r' after chassis"))
    }
}

/// An xname's spelling in a stack buffer: a tag and a `u32`, then up to
/// four tags with a `u8` each, 27 bytes at most.
struct Spelling {
    bytes: [u8; 28],
    len: usize,
}

impl Spelling {
    fn new() -> Self {
        Self { bytes: [0; 28], len: 0 }
    }

    /// Append `tag` and the decimal digits of `n`.
    fn part(&mut self, tag: u8, n: impl Into<u32>) -> &mut Self {
        let mut n = n.into();
        let mut digits = [0u8; 10];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        let end = self.len + 1 + (digits.len() - i);
        self.bytes[self.len] = tag;
        self.bytes[self.len + 1..end].copy_from_slice(&digits[i..]);
        self.len = end;
        self
    }

    fn as_str(&self) -> Result<&str, fmt::Error> {
        std::str::from_utf8(&self.bytes[..self.len]).map_err(|_| fmt::Error)
    }
}

impl fmt::Display for XName {
    /// Written into a stack buffer and handed to the formatter in one
    /// `write_str`: each sensor reading formats its xname several times.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = Spelling::new();
        match *self {
            XName::Cabinet { cabinet } => s.part(b'x', cabinet),
            XName::Chassis { cabinet, chassis } => s.part(b'x', cabinet).part(b'c', chassis),
            XName::ChassisBmc { cabinet, chassis, bmc } => {
                s.part(b'x', cabinet).part(b'c', chassis).part(b'b', bmc)
            }
            XName::ComputeSlot { cabinet, chassis, slot } => {
                s.part(b'x', cabinet).part(b'c', chassis).part(b's', slot)
            }
            XName::NodeBmc { cabinet, chassis, slot, bmc } => {
                s.part(b'x', cabinet).part(b'c', chassis).part(b's', slot).part(b'b', bmc)
            }
            XName::Node { cabinet, chassis, slot, bmc, node } => s
                .part(b'x', cabinet)
                .part(b'c', chassis)
                .part(b's', slot)
                .part(b'b', bmc)
                .part(b'n', node),
            XName::RouterSlot { cabinet, chassis, slot } => {
                s.part(b'x', cabinet).part(b'c', chassis).part(b'r', slot)
            }
            XName::RouterBmc { cabinet, chassis, slot, bmc } => {
                s.part(b'x', cabinet).part(b'c', chassis).part(b'r', slot).part(b'b', bmc)
            }
            XName::Cdu { cdu } => s.part(b'd', cdu),
        };
        f.write_str(s.as_str()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_xnames() {
        // Figure 2 context: a chassis BMC.
        let fig2: XName = "x1203c1b0".parse().unwrap();
        assert_eq!(fig2, XName::ChassisBmc { cabinet: 1203, chassis: 1, bmc: 0 });
        // Figure 3 context: a node BMC.
        let fig3: XName = "x1102c4s0b0".parse().unwrap();
        assert_eq!(fig3, XName::NodeBmc { cabinet: 1102, chassis: 4, slot: 0, bmc: 0 });
        // Figure 7 switch: a router BMC.
        let fig7: XName = "x1002c1r7b0".parse().unwrap();
        assert_eq!(fig7, XName::RouterBmc { cabinet: 1002, chassis: 1, slot: 7, bmc: 0 });
    }

    #[test]
    fn display_roundtrip() {
        for s in [
            "x1203",
            "x1203c1",
            "x1203c1b0",
            "x1102c4s0",
            "x1102c4s0b0",
            "x1102c4s0b0n1",
            "x1002c1r7",
            "x1002c1r7b0",
            "d0",
            "d3",
        ] {
            let x: XName = s.parse().unwrap();
            assert_eq!(x.to_string(), s);
        }
    }

    #[test]
    fn cdu_parsing() {
        let d: XName = "d2".parse().unwrap();
        assert_eq!(d, XName::Cdu { cdu: 2 });
        assert_eq!(d.kind(), ComponentKind::Cdu);
        assert_eq!(d.parent(), None);
        assert_eq!(d.chassis(), None);
        assert!("d2x".parse::<XName>().is_err());
        assert!("d".parse::<XName>().is_err());
    }

    #[test]
    fn rejects_malformed() {
        for s in ["", "x", "y100", "x100c", "x100c1z0", "x100c1b0n0", "x100c1s0b0x", "x100c1r7b0b1"]
        {
            assert!(s.parse::<XName>().is_err(), "should reject {s:?}");
        }
    }

    #[test]
    fn parent_chain() {
        let node: XName = "x1102c4s0b0n1".parse().unwrap();
        let chain: Vec<String> =
            std::iter::successors(Some(node), |x| x.parent()).map(|x| x.to_string()).collect();
        assert_eq!(chain, vec!["x1102c4s0b0n1", "x1102c4s0b0", "x1102c4s0", "x1102c4", "x1102"]);
    }

    #[test]
    fn containment() {
        let cab: XName = "x1002".parse().unwrap();
        let switch: XName = "x1002c1r7b0".parse().unwrap();
        let other: XName = "x1003c1r7b0".parse().unwrap();
        assert!(cab.contains(&switch));
        assert!(!cab.contains(&other));
        assert!(switch.contains(&switch));
        assert!(!switch.contains(&cab));
    }

    #[test]
    fn kinds() {
        assert_eq!("x1".parse::<XName>().unwrap().kind(), ComponentKind::Cabinet);
        assert_eq!("x1c0r3".parse::<XName>().unwrap().kind(), ComponentKind::RouterSlot);
        assert_eq!("x1c0s3b0n0".parse::<XName>().unwrap().kind().as_str(), "node");
    }

    #[test]
    fn kind_names_roundtrip() {
        for kind in [
            ComponentKind::Cabinet,
            ComponentKind::Chassis,
            ComponentKind::ChassisBmc,
            ComponentKind::ComputeSlot,
            ComponentKind::NodeBmc,
            ComponentKind::Node,
            ComponentKind::RouterSlot,
            ComponentKind::RouterBmc,
            ComponentKind::Cdu,
        ] {
            assert_eq!(ComponentKind::from_name(kind.as_str()), Some(kind));
        }
        assert_eq!(ComponentKind::from_name("switch"), None);
    }

    #[test]
    fn ancestor_rollup() {
        let node: XName = "x1102c4s0b0n1".parse().unwrap();
        assert_eq!(node.ancestor_at(ComponentKind::Cabinet).unwrap().to_string(), "x1102");
        assert_eq!(node.ancestor_at(ComponentKind::Chassis).unwrap().to_string(), "x1102c4");
        assert_eq!(node.ancestor_at(ComponentKind::Node), Some(node));
        let switch: XName = "x1002c1r7b0".parse().unwrap();
        assert_eq!(switch.ancestor_at(ComponentKind::RouterSlot).unwrap().to_string(), "x1002c1r7");
        // No compute slot above a router BMC; nothing above a cabinet.
        assert_eq!(switch.ancestor_at(ComponentKind::ComputeSlot), None);
        assert_eq!("x9".parse::<XName>().unwrap().ancestor_at(ComponentKind::Chassis), None);
    }

    #[test]
    fn accessors() {
        let x: XName = "x1002c1r7b0".parse().unwrap();
        assert_eq!(x.cabinet(), 1002);
        assert_eq!(x.chassis(), Some(1));
        assert_eq!("x1002".parse::<XName>().unwrap().chassis(), None);
    }
}
