#ifndef SPB_JOIN_QUICKJOIN_H_
#define SPB_JOIN_QUICKJOIN_H_

#include <vector>

#include "join/join_common.h"

namespace spb {

/// Quickjoin (Jacox & Samet, TODS 2008; improved variant of Fredriksson &
/// Braithwaite, SISAP 2013) — the in-memory divide-and-conquer similarity
/// join the paper compares against (QJA in Fig. 17). Extended here to R-S
/// joins by tagging each object with its source set and reporting only
/// cross-source pairs.
///
/// The set is recursively ball-partitioned around random pivots; objects
/// within eps of the partition boundary form "window" sets joined
/// recursively, so no qualifying pair is lost. No index is built in advance
/// — partitioning cost is paid per join, which is exactly the drawback the
/// paper highlights.
class Quickjoin {
 public:
  /// `small_threshold`: partitions at most this large are joined by nested
  /// loop (the paper's base case).
  explicit Quickjoin(const DistanceFunction* metric,
                     size_t small_threshold = 32, uint64_t seed = 42)
      : metric_(metric), small_threshold_(small_threshold), seed_(seed) {}

  /// Computes SJ(Q, O, eps). `stats` reports distance computations (the
  /// algorithm is memory-resident: no page accesses).
  std::vector<JoinPair> Join(const std::vector<Blob>& q_objects,
                             const std::vector<Blob>& o_objects,
                             double epsilon, QueryStats* stats = nullptr);

 private:
  struct Item {
    const Blob* obj;
    ObjectId id;
    bool from_q;
    double pivot_dist;  // scratch: distance to the current pivot
  };

  void Recurse(std::vector<Item> items, double eps,
               std::vector<JoinPair>* out, int depth);
  void RecurseWindows(std::vector<Item> a, std::vector<Item> b, double eps,
                      std::vector<JoinPair>* out, int depth);
  void BruteForce(const std::vector<Item>& items, double eps,
                  std::vector<JoinPair>* out);
  void BruteForceCross(const std::vector<Item>& a, const std::vector<Item>& b,
                       double eps, std::vector<JoinPair>* out);
  double Distance(const Blob& a, const Blob& b);
  // d(a, b) <= eps via the early-abandoning path; counts as one compdist.
  // Only for membership tests — partition distances need the exact value.
  bool WithinEps(const Blob& a, const Blob& b, double eps);

  const DistanceFunction* metric_;
  size_t small_threshold_;
  uint64_t seed_;
  uint64_t compdists_ = 0;
  uint64_t rng_state_ = 0;
};

}  // namespace spb

#endif  // SPB_JOIN_QUICKJOIN_H_
