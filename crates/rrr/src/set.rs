//! The adaptive RRR-set representation: sorted vertex list or bitmap, chosen
//! per set.

/// Which physical representation a set of an
/// [`RrrCollection`](crate::RrrCollection) uses, as its
/// [`SetView`](crate::SetView) shows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Representation {
    /// Sorted member slice of the collection's vertex arena; membership by
    /// binary search.
    SortedList,
    /// Bitmap over all graph vertices in the collection's side table;
    /// membership by a single bit test.
    Bitmap,
}

/// Policy deciding when a freshly generated RRR set is converted to a bitmap.
///
/// The paper switches on the set's size relative to the graph: below the
/// threshold the sorted list is both smaller and cheap to sort; above it the
/// bitmap wins on membership cost and (for very dense sets) on memory too.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct AdaptivePolicy {
    /// Sets covering at least this fraction of the graph become bitmaps.
    pub density_threshold: f64,
    /// Sets smaller than this absolute size always stay sorted lists,
    /// regardless of the fraction (protects tiny graphs from flipping
    /// everything to bitmaps).
    pub min_bitmap_size: usize,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        // A set denser than 1/32 of the graph costs more as a u32 list than
        // as a bitmap (32 bits per element vs. 1 bit per vertex), which is
        // where the memory cross-over sits; the paper tunes empirically and
        // this is the same order of magnitude.
        AdaptivePolicy { density_threshold: 1.0 / 32.0, min_bitmap_size: 64 }
    }
}

impl AdaptivePolicy {
    /// Policy that never converts to bitmaps (the Ripples baseline layout).
    pub fn always_sorted() -> Self {
        AdaptivePolicy { density_threshold: 2.0, min_bitmap_size: usize::MAX }
    }

    /// Policy that always uses bitmaps (memory-hungry; used in ablations).
    pub fn always_bitmap() -> Self {
        AdaptivePolicy { density_threshold: 0.0, min_bitmap_size: 0 }
    }

    /// Decide the representation for a set of `set_size` vertices in a graph
    /// of `num_nodes` vertices.
    pub fn choose(&self, set_size: usize, num_nodes: usize) -> Representation {
        if num_nodes == 0 || set_size < self.min_bitmap_size {
            return Representation::SortedList;
        }
        let density = set_size as f64 / num_nodes as f64;
        if density >= self.density_threshold {
            Representation::Bitmap
        } else {
            Representation::SortedList
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_default_switches_on_density() {
        let p = AdaptivePolicy::default();
        // 10% of a 10_000-node graph: dense -> bitmap
        assert_eq!(p.choose(1_000, 10_000), Representation::Bitmap);
        // 0.1%: sparse -> sorted
        assert_eq!(p.choose(10, 10_000), Representation::SortedList);
        // tiny absolute size stays sorted even if "dense"
        assert_eq!(p.choose(10, 20), Representation::SortedList);
    }

    #[test]
    fn policy_extremes() {
        assert_eq!(
            AdaptivePolicy::always_sorted().choose(10_000, 10_000),
            Representation::SortedList
        );
        assert_eq!(AdaptivePolicy::always_bitmap().choose(1, 10_000), Representation::Bitmap);
    }

    #[test]
    fn policy_empty_graph_is_sorted() {
        assert_eq!(AdaptivePolicy::default().choose(0, 0), Representation::SortedList);
    }
}
