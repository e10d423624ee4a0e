#include "join/quickjoin.h"

#include <chrono>

namespace spb {

namespace {
// Maximum partition depth before falling back to nested loop: guards against
// degenerate partitions (many identical objects).
constexpr int kMaxDepth = 64;
}  // namespace

double Quickjoin::Distance(const Blob& a, const Blob& b) {
  ++compdists_;
  return metric_->Distance(a, b);
}

bool Quickjoin::WithinEps(const Blob& a, const Blob& b, double eps) {
  ++compdists_;
  return metric_->DistanceWithCutoff(a, b, eps) <= eps;
}

std::vector<JoinPair> Quickjoin::Join(const std::vector<Blob>& q_objects,
                                      const std::vector<Blob>& o_objects,
                                      double epsilon, QueryStats* stats) {
  const auto start = std::chrono::steady_clock::now();
  compdists_ = 0;
  rng_state_ = seed_ * 0x9E3779B97F4A7C15ull + 1;

  std::vector<Item> items;
  items.reserve(q_objects.size() + o_objects.size());
  for (size_t i = 0; i < q_objects.size(); ++i) {
    items.push_back(Item{&q_objects[i], ObjectId(i), true, 0.0});
  }
  for (size_t i = 0; i < o_objects.size(); ++i) {
    items.push_back(Item{&o_objects[i], ObjectId(i), false, 0.0});
  }
  std::vector<JoinPair> out;
  Recurse(std::move(items), epsilon, &out, 0);

  if (stats != nullptr) {
    stats->distance_computations = compdists_;
    stats->page_accesses = 0;
    stats->elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
  }
  return out;
}

void Quickjoin::BruteForce(const std::vector<Item>& items, double eps,
                           std::vector<JoinPair>* out) {
  for (size_t i = 0; i < items.size(); ++i) {
    for (size_t j = i + 1; j < items.size(); ++j) {
      if (items[i].from_q == items[j].from_q) continue;
      if (WithinEps(*items[i].obj, *items[j].obj, eps)) {
        const Item& q = items[i].from_q ? items[i] : items[j];
        const Item& o = items[i].from_q ? items[j] : items[i];
        out->push_back(JoinPair{q.id, o.id});
      }
    }
  }
}

void Quickjoin::BruteForceCross(const std::vector<Item>& a,
                                const std::vector<Item>& b, double eps,
                                std::vector<JoinPair>* out) {
  for (const Item& x : a) {
    for (const Item& y : b) {
      if (x.from_q == y.from_q) continue;
      if (WithinEps(*x.obj, *y.obj, eps)) {
        const Item& q = x.from_q ? x : y;
        const Item& o = x.from_q ? y : x;
        out->push_back(JoinPair{q.id, o.id});
      }
    }
  }
}

void Quickjoin::Recurse(std::vector<Item> items, double eps,
                        std::vector<JoinPair>* out, int depth) {
  if (items.size() <= small_threshold_ || depth >= kMaxDepth) {
    BruteForce(items, eps, out);
    return;
  }
  // Random pivot and ball radius (distance to a second random object).
  rng_state_ = rng_state_ * 6364136223846793005ull + 1442695040888963407ull;
  const size_t pi = size_t(rng_state_ >> 33) % items.size();
  rng_state_ = rng_state_ * 6364136223846793005ull + 1442695040888963407ull;
  const size_t ri = size_t(rng_state_ >> 33) % items.size();
  const Blob& pivot = *items[pi].obj;
  const double r = Distance(pivot, *items[ri].obj);

  std::vector<Item> inner, outer, win_in, win_out;
  for (Item& it : items) {
    it.pivot_dist = Distance(*it.obj, pivot);
    if (it.pivot_dist < r) {
      if (it.pivot_dist >= r - eps) win_in.push_back(it);
      inner.push_back(std::move(it));
    } else {
      if (it.pivot_dist <= r + eps) win_out.push_back(it);
      outer.push_back(std::move(it));
    }
  }
  if (inner.empty() || outer.empty()) {
    // Degenerate split: all objects on one side. Retry deeper with a new
    // random pivot; the depth guard bottoms out into nested loop.
    Recurse(std::move(inner.empty() ? outer : inner), eps, out, depth + 1);
    return;
  }
  RecurseWindows(std::move(win_in), std::move(win_out), eps, out, depth + 1);
  Recurse(std::move(inner), eps, out, depth + 1);
  Recurse(std::move(outer), eps, out, depth + 1);
}

void Quickjoin::RecurseWindows(std::vector<Item> a, std::vector<Item> b,
                               double eps, std::vector<JoinPair>* out,
                               int depth) {
  if (a.empty() || b.empty()) return;
  if (a.size() * b.size() <= small_threshold_ * small_threshold_ ||
      depth >= kMaxDepth) {
    BruteForceCross(a, b, eps, out);
    return;
  }
  rng_state_ = rng_state_ * 6364136223846793005ull + 1442695040888963407ull;
  const Blob& pivot = *a[size_t(rng_state_ >> 33) % a.size()].obj;
  rng_state_ = rng_state_ * 6364136223846793005ull + 1442695040888963407ull;
  const Blob& rref = *b[size_t(rng_state_ >> 33) % b.size()].obj;
  const double r = Distance(pivot, rref);

  auto split = [&](std::vector<Item>& src, std::vector<Item>* inner,
                   std::vector<Item>* outer, std::vector<Item>* wi,
                   std::vector<Item>* wo) {
    for (Item& it : src) {
      it.pivot_dist = Distance(*it.obj, pivot);
      if (it.pivot_dist < r) {
        if (it.pivot_dist >= r - eps) wi->push_back(it);
        inner->push_back(std::move(it));
      } else {
        if (it.pivot_dist <= r + eps) wo->push_back(it);
        outer->push_back(std::move(it));
      }
    }
  };
  std::vector<Item> a_in, a_out, a_wi, a_wo, b_in, b_out, b_wi, b_wo;
  split(a, &a_in, &a_out, &a_wi, &a_wo);
  split(b, &b_in, &b_out, &b_wi, &b_wo);
  if ((a_in.empty() && b_in.empty()) || (a_out.empty() && b_out.empty())) {
    BruteForceCross(a, b, eps, out);
    return;
  }
  RecurseWindows(std::move(a_in), std::move(b_in), eps, out, depth + 1);
  RecurseWindows(std::move(a_out), std::move(b_out), eps, out, depth + 1);
  RecurseWindows(std::move(a_wi), std::move(b_wo), eps, out, depth + 1);
  RecurseWindows(std::move(a_wo), std::move(b_wi), eps, out, depth + 1);
}

}  // namespace spb
