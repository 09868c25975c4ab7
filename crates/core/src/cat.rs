//! Collision Avoidance Table (CAT): a scalable, conflict-free associative
//! structure (§6.1–6.2 of the paper, inspired by MIRAGE).
//!
//! A CAT stores up to a target capacity `C` of tagged entries across two
//! set-associative tables indexed by *independent* keyed hashes (PRINCE with
//! different keys). Each table has `S` sets of `D + E` ways, where
//! `D = C / 2S` demand ways are provisioned for capacity and `E` extra ways
//! absorb skew. Installs go to the less-loaded of the entry's two candidate
//! sets; with `E = 6` extra ways the probability that both candidate sets
//! are full before global capacity is reached is so small that the paper
//! calls the structure conflict-free (Figure 9: ~10³⁰ installs). If a
//! conflict nonetheless occurs, a single-depth Cuckoo relocation (moving one
//! resident entry to its alternate set) resolves it, as in MIRAGE-Lite.
//!
//! The CAT never evicts on its own: capacity policy belongs to the client
//! (the Misra-Gries tracker replaces its minimum-count entry; the RIT evicts
//! a random unlocked tuple).

use std::fmt;

use rrs_flat::FlatMap;

use crate::prince::Prince;

/// Shape of a CAT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatConfig {
    /// Sets per table (must be a power of two).
    pub sets: usize,
    /// Demand ways per set (`D`): `capacity = 2 * sets * demand_ways`.
    pub demand_ways: usize,
    /// Extra ways per set (`E`) for conflict avoidance; the paper uses 6.
    pub extra_ways: usize,
    /// Seed from which the two table hash keys are derived.
    pub hash_seed: u128,
}

impl CatConfig {
    /// The paper's RIT shape: 2 tables × 256 sets × 20 ways
    /// (≈14 demand + 6 extra), target capacity 6800 entries (§6.3).
    pub fn rit_asplos22() -> Self {
        CatConfig {
            sets: 256,
            demand_ways: 14,
            extra_ways: 6,
            hash_seed: 0x5249_5400_CA7C_A700, // "RIT" tagged seed
        }
    }

    /// The paper's tracker shape: 2 tables × 64 sets × 20 ways (§6.4),
    /// target capacity 1700 entries.
    pub fn tracker_asplos22() -> Self {
        CatConfig {
            sets: 64,
            demand_ways: 14,
            extra_ways: 6,
            hash_seed: 0x5452_4143_4b45_5200, // "TRACKER" tagged seed
        }
    }

    /// Smallest power-of-two-set CAT that holds `capacity` entries with at
    /// most `max_demand_ways` demand ways per set, plus `extra_ways`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `max_demand_ways` is zero.
    pub fn for_capacity(capacity: usize, max_demand_ways: usize, extra_ways: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(max_demand_ways > 0, "demand ways must be positive");
        let mut sets = 1usize;
        while 2 * sets * max_demand_ways < capacity {
            sets *= 2;
        }
        let demand_ways = capacity.div_ceil(2 * sets);
        CatConfig {
            sets,
            demand_ways,
            extra_ways,
            hash_seed: 0xCA7_CA7,
        }
    }

    /// Total ways per set (`D + E`).
    pub fn ways(&self) -> usize {
        self.demand_ways + self.extra_ways
    }

    /// Target capacity `C = 2 * S * D`.
    pub fn capacity(&self) -> usize {
        2 * self.sets * self.demand_ways
    }

    /// Total physical slots `2 * S * (D + E)`.
    pub fn slots(&self) -> usize {
        2 * self.sets * self.ways()
    }

    /// Overrides the hash seed (used to make structures independent).
    pub fn with_seed(mut self, seed: u128) -> Self {
        self.hash_seed = seed;
        self
    }
}

/// Error returned when an install finds both candidate sets full and Cuckoo
/// relocation cannot free a slot — the event Figure 9 shows to be
/// astronomically rare with 6 extra ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatConflict {
    /// The tag that could not be installed.
    pub tag: u64,
}

impl fmt::Display for CatConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CAT conflict: both candidate sets full for tag {:#x}",
            self.tag
        )
    }
}

impl std::error::Error for CatConflict {}

#[derive(Debug, Clone)]
struct Slot<V> {
    tag: u64,
    value: V,
}

/// Location of an entry inside the CAT: `(table, set, way)`.
pub type SlotIndex = (usize, usize, usize);

/// The Collision Avoidance Table.
///
/// # Example
///
/// ```
/// use rrs_core::cat::{Cat, CatConfig};
///
/// let mut cat: Cat<u32> = Cat::new(CatConfig::tracker_asplos22());
/// cat.insert(0x1234, 7)?;
/// assert_eq!(cat.get(0x1234), Some(&7));
/// if let Some(v) = cat.get_mut(0x1234) {
///     *v += 1;
/// }
/// assert_eq!(cat.remove(0x1234), Some(8));
/// # Ok::<(), rrs_core::cat::CatConflict>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cat<V> {
    config: CatConfig,
    hashers: [Prince; 2],
    /// `tables[t][set * ways + way]`.
    tables: [Vec<Option<Slot<V>>>; 2],
    /// Tag → packed `(table, set, way)` mirror of the slot arrays, so a
    /// lookup costs one flat-map probe instead of two PRINCE hashes plus a
    /// 2 × ways scan. Hits verify against the authoritative slot tag; the
    /// slot arrays remain the source of truth.
    index: FlatMap<u64>,
    /// `occupied[table][set]`: valid-slot count of the set, kept exact on
    /// every place/take so install-time occupancy checks are O(1) instead
    /// of a `ways`-slot scan per candidate set.
    occupied: [Vec<u8>; 2],
    len: usize,
    /// Lifetime count of installs that needed Cuckoo relocation.
    relocations: u64,
}

/// Packs a [`SlotIndex`] into one word for the lookup index (`set` and
/// `way` are bounded far below 2²⁴ by any constructible config).
#[inline]
fn pack_loc((table, set, way): SlotIndex) -> u64 {
    ((table as u64) << 48) | ((set as u64) << 24) | way as u64
}

/// Inverse of [`pack_loc`].
#[inline]
fn unpack_loc(packed: u64) -> SlotIndex {
    (
        (packed >> 48) as usize,
        ((packed >> 24) & 0xFF_FFFF) as usize,
        (packed & 0xFF_FFFF) as usize,
    )
}

impl<V> Cat<V> {
    /// Creates an empty CAT.
    ///
    /// # Panics
    ///
    /// Panics if `config.sets` is not a power of two.
    pub fn new(config: CatConfig) -> Self {
        assert!(
            config.sets.is_power_of_two(),
            "CAT sets must be a power of two"
        );
        let slots_per_table = config.sets * config.ways();
        let mut t0 = Vec::with_capacity(slots_per_table);
        let mut t1 = Vec::with_capacity(slots_per_table);
        t0.resize_with(slots_per_table, || None);
        t1.resize_with(slots_per_table, || None);
        Cat {
            config,
            hashers: [
                Prince::new(config.hash_seed ^ 0x0123_4567_89ab_cdef),
                Prince::new(config.hash_seed ^ 0xfedc_ba98_7654_3210_0000_0000_0000_0001),
            ],
            tables: [t0, t1],
            index: FlatMap::new(),
            occupied: [vec![0; config.sets], vec![0; config.sets]],
            len: 0,
            relocations: 0,
        }
    }

    /// The configuration this CAT was built with.
    pub fn config(&self) -> &CatConfig {
        &self.config
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the CAT holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Target capacity (demand slots).
    pub fn capacity(&self) -> usize {
        self.config.capacity()
    }

    /// Lifetime count of installs that required a Cuckoo relocation.
    pub fn relocations(&self) -> u64 {
        self.relocations
    }

    /// Set index of `tag` in table `t`.
    pub fn set_of(&self, table: usize, tag: u64) -> usize {
        (self.hasher(table).encrypt(tag) as usize) & (self.config.sets - 1)
    }

    /// The hasher of table `t` (any `t > 1` aliases table 1; callers only
    /// ever pass 0 or 1).
    fn hasher(&self, table: usize) -> &Prince {
        if table == 0 {
            &self.hashers[0]
        } else {
            &self.hashers[1]
        }
    }

    /// The slot storage of table `t`.
    fn table(&self, table: usize) -> &[Option<Slot<V>>] {
        if table == 0 {
            &self.tables[0]
        } else {
            &self.tables[1]
        }
    }

    fn table_mut(&mut self, table: usize) -> &mut Vec<Option<Slot<V>>> {
        if table == 0 {
            &mut self.tables[0]
        } else {
            &mut self.tables[1]
        }
    }

    fn slot_range(&self, set: usize) -> std::ops::Range<usize> {
        let w = self.config.ways();
        set * w..(set + 1) * w
    }

    /// The `D + E` slots of one set (empty slice for an out-of-range set,
    /// which no in-range hash ever produces).
    fn set_slots(&self, table: usize, set: usize) -> &[Option<Slot<V>>] {
        self.table(table).get(self.slot_range(set)).unwrap_or(&[])
    }

    fn set_slots_mut(&mut self, table: usize, set: usize) -> &mut [Option<Slot<V>>] {
        let range = self.slot_range(set);
        self.table_mut(table).get_mut(range).unwrap_or(&mut [])
    }

    /// Locates `tag` through the flat index — zero hashes on the common
    /// path. The indexed location is verified against the slot's own tag,
    /// so a stale or corrupted index entry reads as a miss, exactly like
    /// the original two-set scan.
    fn find(&self, tag: u64) -> Option<SlotIndex> {
        let (t, set, way) = unpack_loc(*self.index.get(tag)?);
        let slot = self.set_slots(t, set).get(way)?.as_ref()?;
        if slot.tag == tag {
            Some((t, set, way))
        } else {
            None
        }
    }

    /// The pre-index lookup: hash into both candidate sets and scan their
    /// ways. Kept as the differential reference for the index
    /// ([`crate::audit::CatAudit`] and the property tests compare against
    /// it).
    #[doc(hidden)]
    pub fn find_by_scan(&self, tag: u64) -> Option<SlotIndex> {
        for t in 0..2 {
            let set = self.set_of(t, tag);
            for (way, slot) in self.set_slots(t, set).iter().enumerate() {
                if slot.as_ref().is_some_and(|s| s.tag == tag) {
                    return Some((t, set, way));
                }
            }
        }
        None
    }

    /// Whether `tag` is present.
    pub fn contains(&self, tag: u64) -> bool {
        self.find(tag).is_some()
    }

    /// Location `(table, set, way)` of `tag`, if present. Clients that
    /// maintain per-set metadata (the tracker's SetMin counters, §6.4) use
    /// this to know which set an update touched.
    pub fn locate(&self, tag: u64) -> Option<SlotIndex> {
        self.find(tag)
    }

    /// Shared reference to the value stored for `tag`.
    pub fn get(&self, tag: u64) -> Option<&V> {
        let (t, set, way) = self.find(tag)?;
        self.set_slots(t, set).get(way)?.as_ref().map(|s| &s.value)
    }

    /// Exclusive reference to the value stored for `tag`.
    pub fn get_mut(&mut self, tag: u64) -> Option<&mut V> {
        let (t, set, way) = self.find(tag)?;
        self.set_slots_mut(t, set)
            .get_mut(way)?
            .as_mut()
            .map(|s| &mut s.value)
    }

    fn invalid_ways_in(&self, table: usize, set: usize) -> usize {
        let valid = self
            .occupied
            .get(table)
            .and_then(|v| v.get(set))
            .copied()
            .map_or(0, usize::from);
        let invalid = self.config.ways().saturating_sub(valid);
        debug_assert_eq!(
            invalid,
            self.set_slots(table, set)
                .iter()
                .filter(|s| s.is_none())
                .count(),
            "occupancy counter out of sync with the slot array"
        );
        invalid
    }

    /// Adjusts one set's occupancy counter by `delta` (every slot
    /// place/take funnels through here).
    fn bump_occupied(&mut self, table: usize, set: usize, delta: i8) {
        if let Some(occ) = self.occupied.get_mut(table).and_then(|v| v.get_mut(set)) {
            *occ = occ.wrapping_add_signed(delta);
        }
    }

    /// Installs `tag -> value`, choosing the less-loaded of its two
    /// candidate sets (§6.1). Does **not** enforce the capacity target —
    /// capacity policy is the caller's (evict first, then install).
    ///
    /// # Errors
    ///
    /// Returns [`CatConflict`] if both candidate sets are physically full
    /// and single-depth Cuckoo relocation cannot make room.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `tag` is already present (callers must use
    /// [`Cat::get_mut`] to update existing entries).
    pub fn insert(&mut self, tag: u64, value: V) -> Result<SlotIndex, CatConflict> {
        debug_assert!(!self.contains(tag), "duplicate CAT install of {tag:#x}");
        let s0 = self.set_of(0, tag);
        let s1 = self.set_of(1, tag);
        let inv0 = self.invalid_ways_in(0, s0);
        let inv1 = self.invalid_ways_in(1, s1);
        let (table, set) = if inv0 >= inv1 { (0, s0) } else { (1, s1) };
        if inv0 == 0 && inv1 == 0 {
            // Conflict: attempt single-depth Cuckoo relocation à la
            // MIRAGE-Lite: move one resident of either candidate set to its
            // alternate set in the other table.
            if let Some((t, set)) = self.try_relocate(s0, s1) {
                self.relocations += 1;
                return self.place(t, set, tag, value).ok_or(CatConflict { tag });
            }
            return Err(CatConflict { tag });
        }
        self.place(table, set, tag, value)
            .ok_or(CatConflict { tag })
    }

    fn try_relocate(&mut self, s0: usize, s1: usize) -> Option<(usize, usize)> {
        for (t, set) in [(0, s0), (1, s1)] {
            let other = 1 - t;
            for way in 0..self.config.ways() {
                let resident_tag = match self.set_slots(t, set).get(way) {
                    Some(Some(s)) => s.tag,
                    _ => continue,
                };
                let alt_set = self.set_of(other, resident_tag);
                if self.invalid_ways_in(other, alt_set) > 0 {
                    let taken = self
                        .set_slots_mut(t, set)
                        .get_mut(way)
                        .and_then(|s| s.take());
                    if let Some(slot) = taken {
                        self.bump_occupied(t, set, -1);
                        self.len -= 1;
                        // The alternate set was just checked to have room,
                        // so this place() cannot fail.
                        self.place(other, alt_set, slot.tag, slot.value)?;
                        return Some((t, set));
                    }
                }
            }
        }
        None
    }

    /// Writes `tag -> value` into the first free way of `(table, set)`, or
    /// returns `None` (without storing) if the set is physically full —
    /// callers check occupancy first, so `None` means a caller bug and
    /// surfaces as a [`CatConflict`] rather than a panic.
    fn place(&mut self, table: usize, set: usize, tag: u64, value: V) -> Option<SlotIndex> {
        let slots = self.set_slots_mut(table, set);
        let way = slots.iter().position(|s| s.is_none())?;
        *slots.get_mut(way)? = Some(Slot { tag, value });
        self.index.insert(tag, pack_loc((table, set, way)));
        self.bump_occupied(table, set, 1);
        self.len += 1;
        Some((table, set, way))
    }

    /// Removes `tag`, returning its value.
    pub fn remove(&mut self, tag: u64) -> Option<V> {
        self.remove_entry(tag).map(|(_, value)| value)
    }

    /// Removes `tag`, returning its (former) location together with its
    /// value — one index probe instead of the `locate` + `remove` pair
    /// callers that repair per-set metadata would otherwise pay.
    pub fn remove_entry(&mut self, tag: u64) -> Option<(SlotIndex, V)> {
        let (t, set, way) = self.find(tag)?;
        let slot = self.set_slots_mut(t, set).get_mut(way)?.take()?;
        self.index.remove(tag);
        self.bump_occupied(t, set, -1);
        self.len -= 1;
        Some(((t, set, way), slot.value))
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        for t in &mut self.tables {
            for s in t.iter_mut() {
                *s = None;
            }
        }
        for occ in &mut self.occupied {
            occ.iter_mut().for_each(|o| *o = 0);
        }
        self.index.clear();
        self.len = 0;
    }

    /// All slots in iteration order: table 0's sets, then table 1's.
    fn slots(&self) -> impl Iterator<Item = &Option<Slot<V>>> + '_ {
        self.tables.iter().flat_map(|t| t.iter())
    }

    /// Iterates over `(tag, &value)` in an arbitrary but deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.slots()
            .filter_map(|s| s.as_ref().map(|s| (s.tag, &s.value)))
    }

    /// Exclusive references to every value, in [`Cat::iter`] order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        self.tables
            .iter_mut()
            .flat_map(|t| t.iter_mut())
            .filter_map(|s| s.as_mut().map(|s| &mut s.value))
    }

    /// The entries of [`Cat::iter`] rotated to start at the `n`-th:
    /// exactly `iter().skip(n).chain(iter().take(n))`, so `n >= len()`
    /// yields `iter()` unrotated. The start is found by skipping whole
    /// sets on their occupancy counters, so reaching it costs O(sets)
    /// rather than a walk over `n` entries' slots.
    pub fn iter_from(&self, n: usize) -> impl Iterator<Item = (u64, &V)> + '_ {
        let start = self.slot_of_nth(n);
        self.slots()
            .skip(start)
            .chain(self.slots().take(start))
            .filter_map(|s| s.as_ref().map(|s| (s.tag, &s.value)))
    }

    /// Position, in [`Cat::slots`] order, of the slot holding the `n`-th
    /// entry of [`Cat::iter`]; 0 when `n >= len()`.
    fn slot_of_nth(&self, n: usize) -> usize {
        if n >= self.len {
            return 0;
        }
        let ways = self.config.ways();
        let mut rest = n;
        for (t, occupied) in self.occupied.iter().enumerate() {
            for (set, &occ) in occupied.iter().enumerate() {
                let occ = usize::from(occ);
                if rest >= occ {
                    rest -= occ;
                    continue;
                }
                let way = self
                    .set_slots(t, set)
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.is_some())
                    .nth(rest)
                    .map_or(0, |(way, _)| way);
                return (t * self.config.sets + set) * ways + way;
            }
        }
        0
    }

    /// Iterates over the entries of one set of one table.
    pub fn set_iter(&self, table: usize, set: usize) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.set_slots(table, set)
            .iter()
            .filter_map(|s| s.as_ref().map(|s| (s.tag, &s.value)))
    }

    /// Test-only corruption: inflates the cached length without touching
    /// any slot, so the occupancy audit must flag the mismatch.
    #[doc(hidden)]
    pub fn corrupt_len_for_test(&mut self) {
        self.len = self.len.wrapping_add(1);
    }

    /// Test-only corruption: rewrites the tag of the first occupied slot in
    /// place (bypassing the keyed hashes), so the entry becomes unfindable.
    /// Returns `false` if the CAT is empty.
    #[doc(hidden)]
    pub fn corrupt_first_tag_for_test(&mut self, new_tag: u64) -> bool {
        for t in &mut self.tables {
            for s in t.iter_mut() {
                if let Some(slot) = s.as_mut() {
                    slot.tag = new_tag;
                    return true;
                }
            }
        }
        false
    }

    /// Test-only corruption: drops `tag` from the flat lookup index while
    /// leaving its slot resident, so the index-coherence audit must flag
    /// the divergence. Returns `false` if `tag` was not indexed.
    #[doc(hidden)]
    pub fn corrupt_index_for_test(&mut self, tag: u64) -> bool {
        self.index.remove(tag).is_some()
    }

    /// Picks the `n`-th valid entry in slot order, wrapping around; `None`
    /// when empty. Combined with a random `n` this implements the random
    /// eviction candidate selection of §6.1.
    pub fn nth_entry(&self, n: usize) -> Option<(u64, &V)> {
        if self.len == 0 {
            return None;
        }
        self.iter_from(n % self.len).next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cat<u32> {
        Cat::new(CatConfig {
            sets: 8,
            demand_ways: 2,
            extra_ways: 2,
            hash_seed: 12345,
        })
    }

    #[test]
    fn insert_get_remove_round_trip() -> Result<(), CatConflict> {
        let mut cat = small();
        cat.insert(100, 7)?;
        assert_eq!(cat.get(100), Some(&7));
        *cat.get_mut(100).expect("tag 100 was just inserted") = 9;
        assert_eq!(cat.remove(100), Some(9));
        assert!(cat.get(100).is_none());
        assert!(cat.is_empty());
        Ok(())
    }

    #[test]
    fn fills_to_physical_slots_without_conflict_mostly() {
        // With power-of-two-choices balancing, a small CAT comfortably holds
        // its demand capacity.
        let mut cat = small();
        let cap = cat.capacity();
        for tag in 0..cap as u64 {
            cat.insert(tag, 0)
                .expect("demand-capacity install conflicted");
        }
        assert_eq!(cat.len(), cap);
    }

    #[test]
    fn conflict_is_reported_when_truly_full() -> Result<(), CatConflict> {
        let mut cat: Cat<u32> = Cat::new(CatConfig {
            sets: 1,
            demand_ways: 1,
            extra_ways: 0,
            hash_seed: 1,
        });
        // Only 2 physical slots exist (1 set × 1 way × 2 tables).
        cat.insert(1, 0)?;
        cat.insert(2, 0)?;
        let err = cat.insert(3, 0).expect_err("third install must conflict");
        assert_eq!(err.tag, 3);
        assert!(err.to_string().contains("conflict"));
        Ok(())
    }

    #[test]
    fn lookup_misses_return_none() {
        let cat = small();
        assert_eq!(cat.get(42), None);
        assert!(!cat.contains(42));
    }

    #[test]
    fn iter_sees_all_entries() -> Result<(), CatConflict> {
        let mut cat = small();
        for tag in 0..10u64 {
            cat.insert(tag, tag as u32 * 2)?;
        }
        let mut items: Vec<_> = cat.iter().map(|(t, &v)| (t, v)).collect();
        items.sort();
        assert_eq!(items.len(), 10);
        assert_eq!(items[3], (3, 6));
        Ok(())
    }

    #[test]
    fn nth_entry_wraps() -> Result<(), CatConflict> {
        let mut cat = small();
        cat.insert(5, 50)?;
        assert_eq!(cat.nth_entry(0).map(|(t, _)| t), Some(5));
        assert_eq!(cat.nth_entry(7).map(|(t, _)| t), Some(5));
        let empty = small();
        assert!(empty.nth_entry(0).is_none());
        Ok(())
    }

    #[test]
    fn hashes_differ_between_tables() {
        let cat = small();
        // For a random tag population the two indices must not be identical
        // everywhere (independent hashes).
        let diff = (0..64u64)
            .filter(|&t| cat.set_of(0, t) != cat.set_of(1, t))
            .count();
        assert!(diff > 32, "only {diff}/64 tags had distinct indices");
    }

    #[test]
    fn clear_empties_everything() -> Result<(), CatConflict> {
        let mut cat = small();
        for tag in 0..6u64 {
            cat.insert(tag, 0)?;
        }
        cat.clear();
        assert!(cat.is_empty());
        assert!(!cat.contains(3));
        Ok(())
    }

    #[test]
    fn for_capacity_builds_adequate_shape() {
        let cfg = CatConfig::for_capacity(1700, 14, 6);
        assert!(cfg.capacity() >= 1700);
        assert!(cfg.sets.is_power_of_two());
        assert!(cfg.demand_ways <= 14);
        assert_eq!(cfg.extra_ways, 6);

        let rit = CatConfig::for_capacity(6800, 14, 6);
        assert!(rit.capacity() >= 6800);
    }

    #[test]
    fn paper_shapes_match_section6() {
        let t = CatConfig::tracker_asplos22();
        assert_eq!((t.sets, t.ways()), (64, 20));
        assert!(t.capacity() >= 1700);
        let r = CatConfig::rit_asplos22();
        assert_eq!((r.sets, r.ways()), (256, 20));
        assert!(r.capacity() >= 6800);
        // Total slot counts match Table 5: 2x64x20 and 2x256x20.
        assert_eq!(t.slots(), 2 * 64 * 20);
        assert_eq!(r.slots(), 2 * 256 * 20);
    }

    #[test]
    fn cuckoo_relocation_rescues_conflicts() {
        // Tiny CAT where conflicts are easy to hit: verify that when insert
        // succeeds after both sets were full, a relocation was performed.
        let mut cat: Cat<u32> = Cat::new(CatConfig {
            sets: 2,
            demand_ways: 1,
            extra_ways: 0,
            hash_seed: 3,
        });
        let mut installed = 0u64;
        for tag in 0..1000u64 {
            match cat.insert(tag, 0) {
                Ok(_) => installed += 1,
                Err(_) => break,
            }
        }
        // 4 physical slots; we can never hold more than 4.
        assert!(installed <= 4);
        assert_eq!(cat.len() as u64, installed);
    }

    #[test]
    fn index_agrees_with_scan_under_churn() {
        // Heavy insert/remove churn, including Cuckoo relocations: the flat
        // index must agree with the authoritative two-set scan on every
        // lookup, hit or miss.
        let mut cat: Cat<u64> = Cat::new(CatConfig {
            sets: 4,
            demand_ways: 2,
            extra_ways: 1,
            hash_seed: 99,
        });
        let mut x = 0x1234_5678u64;
        for step in 0..20_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let tag = (x >> 33) % 64;
            if cat.contains(tag) {
                assert_eq!(cat.remove(tag), Some(tag), "step {step}");
            } else {
                let _ = cat.insert(tag, tag);
            }
            for probe in 0..64u64 {
                assert_eq!(
                    cat.locate(probe),
                    cat.find_by_scan(probe),
                    "step {step}, probe {probe}"
                );
            }
        }
        assert!(cat.relocations() > 0, "churn never exercised relocation");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        let _: Cat<u32> = Cat::new(CatConfig {
            sets: 3,
            demand_ways: 1,
            extra_ways: 0,
            hash_seed: 0,
        });
    }
}
