// pto::service structure adapters: the one way generic code calls a set.
//
// An adapter normalizes one src/ds set to put/get/del and holds the variant
// it runs (the lock-free baseline or a PTO mode) as its one field:
//
//   using DS = ...;                    // the structure
//   using Ctx = typename DS::ThreadCtx;
//   bool put(DS&, Ctx&, std::int64_t key) const;   // insert
//   bool del(DS&, Ctx&, std::int64_t key) const;   // remove
//   bool get(DS&, Ctx&, std::int64_t key) const;   // contains
//
// The shard router (service/shard.h), the setbench fixture
// (bench/bench_util.h) and the set tests all drive a set through one, so a
// new set or variant needs one adapter here.
#pragma once

#include <cstdint>

#include "ds/bst/ellen_bst.h"
#include "ds/hashtable/fset_hash.h"
#include "ds/list/harris_list.h"
#include "ds/ptoset/pto_array_set.h"
#include "ds/skiplist/skiplist.h"

namespace pto::service {

template <class P>
struct SkipAdapter {
  using DS = SkipList<P>;
  using Ctx = typename DS::ThreadCtx;

  bool pto = true;  ///< PTO-accelerated ops vs the plain lock-free baseline

  bool put(DS& d, Ctx& c, std::int64_t k) const {
    return pto ? d.insert_pto(c, k) : d.insert_lf(c, k);
  }
  bool del(DS& d, Ctx& c, std::int64_t k) const {
    return pto ? d.remove_pto(c, k) : d.remove_lf(c, k);
  }
  bool get(DS& d, Ctx& c, std::int64_t k) const { return d.contains(c, k); }
};

template <class P>
struct HashAdapter {
  using DS = FSetHash<P>;
  using Ctx = typename DS::ThreadCtx;
  using Mode = typename DS::Mode;

  /// kPto by default: transactional lookups with elided epoch fences, CoW
  /// updates — safe to mix with every other mode's updates.
  Mode mode = Mode::kPto;

  bool put(DS& d, Ctx& c, std::int64_t k) const {
    return d.insert(c, k, mode);
  }
  bool del(DS& d, Ctx& c, std::int64_t k) const {
    return d.remove(c, k, mode);
  }
  bool get(DS& d, Ctx& c, std::int64_t k) const {
    return d.contains(c, k, mode);
  }
};

template <class P>
struct BstAdapter {
  using DS = EllenBST<P>;
  using Ctx = typename DS::ThreadCtx;
  using Mode = typename DS::Mode;

  /// kPto12 by default: PTO1, then PTO2, then the lock-free fallback.
  Mode mode = Mode::kPto12;

  bool put(DS& d, Ctx& c, std::int64_t k) const {
    return d.insert(c, k, mode);
  }
  bool del(DS& d, Ctx& c, std::int64_t k) const {
    return d.remove(c, k, mode);
  }
  bool get(DS& d, Ctx& c, std::int64_t k) const {
    return d.contains(c, k, mode);
  }
};

template <class P>
struct ListAdapter {
  using DS = HarrisList<P>;
  using Ctx = typename DS::ThreadCtx;

  bool pto = true;  ///< PTO ops (lookups too) vs the Harris baseline

  bool put(DS& d, Ctx& c, std::int64_t k) const {
    return pto ? d.insert_pto(c, k) : d.insert_lf(c, k);
  }
  bool del(DS& d, Ctx& c, std::int64_t k) const {
    return pto ? d.remove_pto(c, k) : d.remove_lf(c, k);
  }
  bool get(DS& d, Ctx& c, std::int64_t k) const {
    return pto ? d.contains_pto(c, k) : d.contains_lf(c, k);
  }
};

/// PTOArraySet has one variant, its PTO fast path over a naive nonblocking
/// slow path, so this adapter holds no field.
template <class P, unsigned Capacity = 48>
struct ArraySetAdapter {
  using DS = PTOArraySet<P, Capacity>;
  using Ctx = typename DS::ThreadCtx;

  bool put(DS& d, Ctx& c, std::int64_t k) const { return d.insert(c, k); }
  bool del(DS& d, Ctx& c, std::int64_t k) const { return d.remove(c, k); }
  bool get(DS& d, Ctx& c, std::int64_t k) const { return d.contains(c, k); }
};

}  // namespace pto::service
