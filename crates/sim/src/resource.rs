//! Physical resources and their occupancy lists.
//!
//! The paper's CDCM algorithm attaches a *cost variable list* to every CRG
//! edge and vertex: one entry per packet holding the bit count and "the
//! absolute time interval that the packet is occupying the NoC resource"
//! (§4). [`OccupancyMap`] is exactly that bookkeeping structure, and
//! Figure 3 of the paper is a rendering of it.

use crate::interval::CycleInterval;
use noc_model::{Link, PacketId, TileId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A NoC resource a packet can occupy: a router or a (directed) link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Resource {
    /// The router of a tile.
    Router(TileId),
    /// A link (injection, inter-router, or ejection).
    Link(Link),
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Router(t) => write!(f, "R[{t}]"),
            Self::Link(l) => write!(f, "L[{l}]"),
        }
    }
}

/// One entry of a resource's cost variable list: a packet occupying the
/// resource for an interval, annotated with its size for energy accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Occupancy {
    /// The occupying packet.
    pub packet: PacketId,
    /// Packet size in bits (`w_abq`).
    pub bits: u64,
    /// Busy interval of the resource.
    pub interval: CycleInterval,
}

/// Cost variable lists for all resources touched by a schedule, keyed by
/// resource in deterministic order. Serialized as an entry list because
/// JSON object keys must be strings.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OccupancyMap {
    #[serde(with = "entry_list")]
    entries: BTreeMap<Resource, Vec<Occupancy>>,
}

mod entry_list {
    use super::*;
    use serde::{Deserializer, Serializer};

    pub fn serialize<S: Serializer>(
        entries: &BTreeMap<Resource, Vec<Occupancy>>,
        ser: S,
    ) -> Result<S::Ok, S::Error> {
        let list: Vec<(&Resource, &Vec<Occupancy>)> = entries.iter().collect();
        serde::Serialize::serialize(&list, ser)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(
        de: D,
    ) -> Result<BTreeMap<Resource, Vec<Occupancy>>, D::Error> {
        let list: Vec<(Resource, Vec<Occupancy>)> = serde::Deserialize::deserialize(de)?;
        Ok(list.into_iter().collect())
    }
}

impl OccupancyMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an occupancy entry for `resource`.
    pub fn record(&mut self, resource: Resource, occ: Occupancy) {
        self.entries.entry(resource).or_default().push(occ);
    }

    /// Occupancy list of one resource (empty slice if untouched).
    // noc-verify: allow(API02) — test oracle: the occupancy tests read one resource's Figure 3 list
    pub fn of(&self, resource: Resource) -> &[Occupancy] {
        self.entries.get(&resource).map_or(&[], Vec::as_slice)
    }

    /// Iterator over `(resource, occupancy list)` pairs in deterministic
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (Resource, &[Occupancy])> {
        self.entries.iter().map(|(r, v)| (*r, v.as_slice()))
    }

    /// Sorts every list by interval start (then packet id); useful before
    /// comparing against golden data.
    pub fn sort(&mut self) {
        for list in self.entries.values_mut() {
            list.sort_by_key(|o| (o.interval.start, o.packet));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn occ(p: usize, bits: u64, start: u64, end: u64) -> Occupancy {
        Occupancy {
            packet: PacketId::new(p),
            bits,
            interval: CycleInterval::new(start, end),
        }
    }

    #[test]
    fn record_and_query() {
        let mut map = OccupancyMap::new();
        let r = Resource::Router(TileId::new(0));
        map.record(r, occ(0, 15, 6, 21));
        map.record(r, occ(1, 40, 10, 50));
        assert_eq!(map.of(r).len(), 2);
        assert_eq!(map.of(r).iter().map(|o| o.bits).sum::<u64>(), 55);
        assert_eq!(map.iter().count(), 1);
    }

    #[test]
    fn untouched_resource_is_empty() {
        let map = OccupancyMap::new();
        assert!(map.of(Resource::Router(TileId::new(9))).is_empty());
    }

    #[test]
    fn sort_orders_by_start() {
        let mut map = OccupancyMap::new();
        let r = Resource::Link(Link::Injection(TileId::new(1)));
        map.record(r, occ(1, 5, 30, 40));
        map.record(r, occ(0, 5, 10, 20));
        map.sort();
        assert_eq!(map.of(r)[0].interval.start, 10);
        assert_eq!(map.of(r)[1].interval.start, 30);
    }

    #[test]
    fn resources_order_deterministically() {
        let mut map = OccupancyMap::new();
        map.record(Resource::Router(TileId::new(2)), occ(0, 1, 0, 1));
        map.record(Resource::Router(TileId::new(0)), occ(0, 1, 0, 1));
        let order: Vec<Resource> = map.iter().map(|(r, _)| r).collect();
        assert_eq!(
            order,
            vec![
                Resource::Router(TileId::new(0)),
                Resource::Router(TileId::new(2)),
            ]
        );
    }

    #[test]
    fn occupancy_map_serializes_to_json() {
        let mut map = OccupancyMap::new();
        map.record(Resource::Router(TileId::new(1)), occ(0, 15, 6, 21));
        map.record(
            Resource::Link(Link::between(TileId::new(0), TileId::new(2))),
            occ(1, 40, 13, 53),
        );
        let json = serde_json::to_string(&map).expect("serializes");
        let back: OccupancyMap = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, map);
    }
    #[test]
    fn display_formats() {
        assert_eq!(Resource::Router(TileId::new(3)).to_string(), "R[t3]");
        let l = Resource::Link(Link::between(TileId::new(0), TileId::new(1)));
        assert_eq!(l.to_string(), "L[t0→t1]");
    }
}
