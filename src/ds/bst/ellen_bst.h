// Non-blocking binary search tree of Ellen, Fatourou, Ruppert & van Breugel
// (PODC 2010), transliterated to C++ with sequentially consistent atomics
// and epoch-based reclamation, exactly as the paper describes (§4.4) — plus
// the paper's PTO variants:
//
//   PTO1   the whole insert/remove/lookup runs in one prefix transaction:
//          no Info descriptor is allocated, no flagging CASes, lookups elide
//          the epoch guard and double-checking;
//   PTO2   only the update phase runs in a transaction, after a
//          non-transactional search: smaller contention window, but lookups
//          keep their overhead;
//   PTO1+PTO2  hierarchical composition (§2.5): 2 attempts of PTO1, then 16
//          of PTO2, then the original lock-free algorithm.
//
// Removal inside a transaction still needs the removed internal node's update
// field to be permanently non-CLEAN (otherwise a stale fallback insert could
// flag it and splice into a detached subtree); the paper's fix — a unique,
// statically allocated dummy descriptor that helpers simply ignore — is
// implemented as `dummy_` (§3.2).
//
// Structure: leaf-oriented BST. Internal nodes route with "k < key ? left :
// right"; leaves carry the keys. Sentinels: root(inf2) -> left child
// internal(inf1) under which the user subtree grows, so every user leaf has
// an internal parent and grandparent. User keys must be < kInf1.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "core/prefix.h"
#include "platform/platform.h"
#include "reclaim/epoch.h"
#include "telemetry/registry.h"

namespace pto {

template <class P>
class EllenBST {
 public:
  static constexpr std::int64_t kInf2 = INT64_MAX;
  static constexpr std::int64_t kInf1 = INT64_MAX - 1;

  enum class Mode { kLockfree, kPto1, kPto2, kPto12 };

 private:
  struct Node;  // defined below; ThreadCtx caches unpublished shells

 public:

  static constexpr PrefixPolicy kPto1Policy{2};   // paper §4.4: fail 2x ...
  static constexpr PrefixPolicy kPto2Policy{16};  // ... then 16x in PTO2

  struct ThreadCtx {
    explicit ThreadCtx(EllenBST& t) : epoch(t.dom_.register_thread()) {}
    ThreadCtx(ThreadCtx&& o) noexcept
        : epoch(std::move(o.epoch)), spare_leaf(o.spare_leaf),
          spare_sibling(o.spare_sibling), spare_internal(o.spare_internal) {
      o.spare_leaf = o.spare_sibling = o.spare_internal = nullptr;
    }
    ThreadCtx(const ThreadCtx&) = delete;
    ThreadCtx& operator=(const ThreadCtx&) = delete;
    ~ThreadCtx() {
      if (spare_leaf != nullptr) P::template destroy<Node>(spare_leaf);
      if (spare_sibling != nullptr) P::template destroy<Node>(spare_sibling);
      if (spare_internal != nullptr) {
        P::template destroy<Node>(spare_internal);
      }
    }
    typename EpochDomain<P>::Handle epoch;
    /// Unpublished node shells cached between PTO insert attempts, so an
    /// insert that finds its key already present costs no allocator round
    /// trip (otherwise PTO1 would pay three wasted allocations per no-op
    /// insert and lose its edge over PTO2 — see fig5a).
    Node* spare_leaf = nullptr;
    Node* spare_sibling = nullptr;
    Node* spare_internal = nullptr;
  };

  EllenBST() {
    // Ellen et al.'s initial tree: root(inf2) with sentinel leaves inf1 and
    // inf2. User keys are < inf1, so every user leaf acquires an internal
    // parent on first insert and an internal grandparent thereafter; the
    // sentinel leaves are never removed, so gp is always non-null when a
    // user key is deleted.
    root_ = make_internal(kInf2, make_leaf(kInf1), make_leaf(kInf2));
  }

  ~EllenBST() { destroy_rec(root_); }
  EllenBST(const EllenBST&) = delete;
  EllenBST& operator=(const EllenBST&) = delete;

  ThreadCtx make_ctx() { return ThreadCtx(*this); }

  /// Override the transaction retry budgets (paper defaults: 2 and 16).
  void set_policies(PrefixPolicy pto1, PrefixPolicy pto2) {
    pto1_policy_ = pto1;
    pto2_policy_ = pto2;
  }

  // -- public operations ------------------------------------------------------

  bool contains(ThreadCtx& ctx, std::int64_t key, Mode mode = Mode::kLockfree) {
    if (mode == Mode::kLockfree || mode == Mode::kPto2 ||
        !P::strongly_atomic()) {
      // PTO2 leaves the search phase out of transactions (paper §4.4); under
      // SoftHTM guard elision is unsafe, so everything takes the guard.
      typename EpochDomain<P>::Guard g(ctx.epoch);
      Search s = search(key);
      return s.l->key == key;
    }
    // PTO1 lookup: the transaction subsumes the epoch guard and fences.
    return prefix<P>(
        pto1_policy_,
        [&]() -> bool {
          Node* l = root_;
          // pto-lint: bounded(tree height; leaf reached in <= depth steps)
          while (!l->leaf) {
            l = (key < l->key ? l->left : l->right)
                    .load(std::memory_order_relaxed);
          }
          return l->key == key;
        },
        [&]() -> bool {
          typename EpochDomain<P>::Guard g(ctx.epoch);
          Search s = search(key);
          return s.l->key == key;
        },
        PTO_TELEMETRY_SITE("bst.lookup"));
  }

  bool insert(ThreadCtx& ctx, std::int64_t key, Mode mode = Mode::kLockfree) {
    assert(key < kInf1);
    switch (mode) {
      case Mode::kLockfree: {
        typename EpochDomain<P>::Guard g(ctx.epoch);
        return insert_lf(ctx, key);
      }
      case Mode::kPto1:
        return insert_pto1(ctx, key, [&] {
          typename EpochDomain<P>::Guard g(ctx.epoch);
          return insert_lf(ctx, key);
        });
      case Mode::kPto2:
        return insert_pto2(ctx, key, pto2_policy_);
      case Mode::kPto12:
        return insert_pto1(
            ctx, key, [&] { return insert_pto2(ctx, key, pto2_policy_); });
    }
    return false;
  }

  bool remove(ThreadCtx& ctx, std::int64_t key, Mode mode = Mode::kLockfree) {
    switch (mode) {
      case Mode::kLockfree: {
        typename EpochDomain<P>::Guard g(ctx.epoch);
        return remove_lf(ctx, key);
      }
      case Mode::kPto1:
        return remove_pto1(ctx, key, [&] {
          typename EpochDomain<P>::Guard g(ctx.epoch);
          return remove_lf(ctx, key);
        });
      case Mode::kPto2:
        return remove_pto2(ctx, key, pto2_policy_);
      case Mode::kPto12:
        return remove_pto1(
            ctx, key, [&] { return remove_pto2(ctx, key, pto2_policy_); });
    }
    return false;
  }

  /// Quiescent checks: leaves strictly sorted, internal routing consistent,
  /// reachable update fields CLEAN (or the dummy mark is unreachable).
  bool check_invariants() {
    std::int64_t last = INT64_MIN;
    return check_rec(root_, INT64_MIN, kInf2, last);
  }

  std::size_t size_slow() { return count_user_leaves(root_); }

 private:
  // -- representation ----------------------------------------------------------

  enum State : std::uintptr_t {
    kClean = 0,
    kIFlag = 1,
    kDFlag = 2,
    kMark = 3,
  };
  static constexpr std::uintptr_t kStateMask = 3;
  /// Bit 2 set = a CLEAN word carrying a PTO version counter instead of an
  /// Info pointer. The lock-free protocol's safety rests on "update word
  /// unchanged => children unchanged"; PTO transactions modify child slots
  /// without installing descriptors, so they must still produce a *fresh*
  /// update word on every node whose child slot they write — otherwise a
  /// stale fallback flag/mark CAS could succeed against a changed subtree
  /// and splice wrongly (found by the simulator stress tests).
  static constexpr std::uintptr_t kPtoCleanBit = 4;

  struct Info {
    bool is_insert;
    Node* gp = nullptr;        // delete only
    Node* p = nullptr;
    Node* l = nullptr;
    Node* new_internal = nullptr;  // insert only
    std::uintptr_t pupdate = 0;    // delete only
  };

  struct Node {
    std::int64_t key;
    bool leaf;
    Atom<P, std::uintptr_t> update;  // Info* | State (internal nodes)
    Atom<P, Node*> left;
    Atom<P, Node*> right;
  };

  static State state_of(std::uintptr_t u) {
    return static_cast<State>(u & kStateMask);
  }
  static Info* info_of(std::uintptr_t u) {
    if (u & kPtoCleanBit) return nullptr;  // counter word, no descriptor
    return reinterpret_cast<Info*>(u & ~kStateMask);
  }
  static std::uintptr_t pack(Info* i, State s) {
    return reinterpret_cast<std::uintptr_t>(i) | s;
  }
  /// Globally unique CLEAN word. A simple per-node counter is not enough:
  /// it would restart whenever a real descriptor cycles through the field,
  /// and a stale fallback CAS could then observe a *recycled* counter value
  /// (ABA) and succeed against a changed subtree. Threads draw 2^20-value
  /// blocks from one process-wide counter, so values never repeat and the
  /// shared fetch_add is touched (inside a transaction) only once per block.
  static std::uintptr_t fresh_clean_word() {
    struct Block {
      std::uint64_t next = 0, end = 0;
    };
    thread_local Block b;
    if (b.next == b.end) {
      static std::atomic<std::uint64_t> source{1};
      b.next = source.fetch_add(std::uint64_t{1} << 20);
      b.end = b.next + (std::uint64_t{1} << 20);
    }
    return static_cast<std::uintptr_t>((b.next++ << 3)) | kPtoCleanBit |
           kClean;
  }

  Node* make_leaf(std::int64_t key) {
    Node* n = P::template make<Node>();
    n->key = key;
    n->leaf = true;
    n->update.init(0);
    n->left.init(nullptr);
    n->right.init(nullptr);
    return n;
  }

  Node* make_internal(std::int64_t key, Node* l, Node* r) {
    Node* n = P::template make<Node>();
    n->key = key;
    n->leaf = false;
    n->update.init(0);
    n->left.init(l);
    n->right.init(r);
    return n;
  }

  void destroy_rec(Node* n) {
    if (n == nullptr) return;
    if (!n->leaf) {
      destroy_rec(n->left.load(std::memory_order_relaxed));
      destroy_rec(n->right.load(std::memory_order_relaxed));
      std::uintptr_t u = n->update.load(std::memory_order_relaxed);
      Info* i = info_of(u);
      if (i != nullptr && i != &dummy_) P::template destroy<Info>(i);
    }
    P::template destroy<Node>(n);
  }

  // -- original lock-free algorithm -------------------------------------------

  struct Search {
    Node* gp;
    Node* p;
    Node* l;
    std::uintptr_t gpupdate;
    std::uintptr_t pupdate;
  };

  Search search(std::int64_t key) {
    Search s{nullptr, nullptr, root_, 0, 0};
    while (!s.l->leaf) {
      s.gp = s.p;
      s.p = s.l;
      s.gpupdate = s.pupdate;
      s.pupdate = s.p->update.load();
      s.l = (key < s.p->key ? s.p->left : s.p->right).load();
    }
    return s;
  }

  /// CAS the child slot of `parent` on the side where `old` belongs.
  void cas_child(Node* parent, Node* old, Node* nw) {
    auto& slot = old->key < parent->key ? parent->left : parent->right;
    Node* expect = old;
    slot.compare_exchange_strong(expect, nw);
  }

  void help(ThreadCtx& ctx, std::uintptr_t u) {
    Info* i = info_of(u);
    if (i == nullptr || i == &dummy_) return;  // dummy: nothing to finish
    switch (state_of(u)) {
      case kIFlag: help_insert(ctx, i); break;
      case kMark: help_marked(ctx, i); break;
      case kDFlag: help_delete(ctx, i); break;
      case kClean: break;
    }
  }

  void help_insert(ThreadCtx& ctx, Info* op) {
    (void)ctx;
    cas_child(op->p, op->l, op->new_internal);
    std::uintptr_t expect = pack(op, kIFlag);
    op->p->update.compare_exchange_strong(expect, pack(op, kClean));
  }

  bool help_delete(ThreadCtx& ctx, Info* op) {
    // Try to mark the parent with this operation.
    std::uintptr_t expect = op->pupdate;
    bool marked =
        op->p->update.compare_exchange_strong(expect, pack(op, kMark));
    // The winning mark displaced p's old Clean Info, which nothing
    // references afterwards (p itself is about to be unlinked and its final
    // update word keeps `op`, not the old record) — retire it here, the one
    // place that knows the CAS won. The transactional remove path retires
    // its `displaced_p` the same way.
    // PTO_SEEDED_BUGS reintroduces a historical defect (the Clean-Info
    // leak: the displaced record is never retired) so the exploration test
    // suite can prove it finds real bugs. Never define it in normal builds.
#ifndef PTO_SEEDED_BUGS
    if (marked) retire_displaced(ctx, op->pupdate);
#endif
    if (marked || expect == pack(op, kMark)) {
      help_marked(ctx, op);
      return true;
    }
    // Failed: help whoever is there, then backtrack (unflag the grandparent).
    help(ctx, op->p->update.load());
    std::uintptr_t e2 = pack(op, kDFlag);
    op->gp->update.compare_exchange_strong(e2, pack(op, kClean));
    return false;
  }

  void help_marked(ThreadCtx& ctx, Info* op) {
    (void)ctx;
    Node* l = op->p->left.load();
    Node* other = (l == op->l) ? op->p->right.load() : l;
    cas_child(op->gp, op->p, other);
    std::uintptr_t expect = pack(op, kDFlag);
    op->gp->update.compare_exchange_strong(expect, pack(op, kClean));
  }

  /// Retire the Info displaced by a successful flagging CAS (exactly once:
  /// only the CAS winner calls this).
  void retire_displaced(ThreadCtx& ctx, std::uintptr_t old_update) {
    Info* i = info_of(old_update);
    if (i != nullptr && i != &dummy_) ctx.epoch.retire(i);
  }

  bool insert_lf(ThreadCtx& ctx, std::int64_t key) {
    for (;;) {
      Search s = search(key);
      if (s.l->key == key) return false;
      if (state_of(s.pupdate) != kClean) {
        help(ctx, s.pupdate);
        continue;
      }
      Node* new_leaf = make_leaf(key);
      Node* sibling = make_leaf(s.l->key);
      Node* internal =
          key < s.l->key
              ? make_internal(s.l->key, new_leaf, sibling)
              : make_internal(key, sibling, new_leaf);
      Info* op = P::template make<Info>();
      op->is_insert = true;
      op->p = s.p;
      op->l = s.l;
      op->new_internal = internal;
      std::uintptr_t expect = s.pupdate;
      if (s.p->update.compare_exchange_strong(expect, pack(op, kIFlag))) {
        retire_displaced(ctx, s.pupdate);
        help_insert(ctx, op);
        ctx.epoch.retire(s.l);  // the replaced leaf
        return true;
      }
      // Lost the flag race: clean up and help whoever beat us.
      P::template destroy<Node>(new_leaf);
      P::template destroy<Node>(sibling);
      P::template destroy<Node>(internal);
      P::template destroy<Info>(op);
      help(ctx, expect);
    }
  }

  bool remove_lf(ThreadCtx& ctx, std::int64_t key) {
    for (;;) {
      Search s = search(key);
      if (s.l->key != key) return false;
      if (state_of(s.gpupdate) != kClean) {
        help(ctx, s.gpupdate);
        continue;
      }
      if (state_of(s.pupdate) != kClean) {
        help(ctx, s.pupdate);
        continue;
      }
      Info* op = P::template make<Info>();
      op->is_insert = false;
      op->gp = s.gp;
      op->p = s.p;
      op->l = s.l;
      op->pupdate = s.pupdate;
      std::uintptr_t expect = s.gpupdate;
      if (s.gp->update.compare_exchange_strong(expect, pack(op, kDFlag))) {
        retire_displaced(ctx, s.gpupdate);
        if (help_delete(ctx, op)) {
          ctx.epoch.retire(s.p);
          ctx.epoch.retire(s.l);
          return true;
        }
        continue;  // backtracked; op stays reachable via gp's old update
      }
      P::template destroy<Info>(op);
      help(ctx, expect);
    }
  }

  // -- PTO1: whole operation in a transaction (paper §4.4) ---------------------

  /// Take the per-thread shell triple (allocating on first use).
  void take_shells(ThreadCtx& ctx, std::int64_t key, Node*& leaf,
                   Node*& sibling, Node*& internal) {
    leaf = ctx.spare_leaf != nullptr ? ctx.spare_leaf : make_leaf(key);
    leaf->key = key;
    sibling = ctx.spare_sibling != nullptr ? ctx.spare_sibling : make_leaf(0);
    internal = ctx.spare_internal != nullptr
                   ? ctx.spare_internal
                   : make_internal(0, nullptr, nullptr);
    ctx.spare_leaf = ctx.spare_sibling = ctx.spare_internal = nullptr;
  }

  void stash_shells(ThreadCtx& ctx, Node* leaf, Node* sibling,
                    Node* internal) {
    ctx.spare_leaf = leaf;
    ctx.spare_sibling = sibling;
    ctx.spare_internal = internal;
  }

  template <class Slow>
  bool insert_pto1(ThreadCtx& ctx, std::int64_t key, Slow&& slow) {
    // Node shells come from the thread cache, filled inside the transaction
    // (keys depend on the search); the Info descriptor is gone entirely.
    Node* new_leaf;
    Node* sibling;
    Node* internal;
    take_shells(ctx, key, new_leaf, sibling, internal);
    Node* replaced = nullptr;
    std::uintptr_t displaced = 0;
    // The attempt reads `leaf` and `key` with plain loads. A strongly atomic
    // transaction aborts if such a node is freed mid-attempt; SoftHTM
    // validates only atomic reads, so a node freed and reused mid-attempt
    // could decide the result there. Pin the epoch; RTM and simx elide it.
    std::optional<typename EpochDomain<P>::Guard> pin;
    if (!P::strongly_atomic()) pin.emplace(ctx.epoch);
    // 1 = inserted, 2 = key already present, 0 = fell back.
    int r = prefix<P>(
        pto1_policy_,
        [&]() -> int {
          Node* p = nullptr;
          Node* l = root_;
          // pto-lint: bounded(tree height; leaf reached in <= depth steps)
          while (!l->leaf) {
            p = l;
            l = (key < p->key ? p->left : p->right)
                    .load(std::memory_order_relaxed);
          }
          if (l->key == key) return 2;
          std::uintptr_t pu = p->update.load(std::memory_order_relaxed);
          if (state_of(pu) != kClean) {
            P::template tx_abort<TX_CODE_HELPING>();
          }
          sibling->key = l->key;
          if (key < l->key) {
            internal->key = l->key;
            internal->left.store(new_leaf, std::memory_order_relaxed);
            internal->right.store(sibling, std::memory_order_relaxed);
          } else {
            internal->key = key;
            internal->left.store(sibling, std::memory_order_relaxed);
            internal->right.store(new_leaf, std::memory_order_relaxed);
          }
          // Shared-location stores keep their original seq_cst order; the
          // fences are subsumed by the transaction (charged only in the
          // Fig 5(c) ablation).
          (key < p->key ? p->left : p->right).store(internal);
          // Invalidate stale flag/mark CASes on p (see kPtoCleanBit).
          p->update.store(fresh_clean_word());
          displaced = pu;
          replaced = l;
          return 1;
        },
        [&]() -> int { return 0; }, PTO_TELEMETRY_SITE("bst.insert.pto1"));
    if (r == 1) {
      retire_displaced(ctx, displaced);
      ctx.epoch.retire(replaced);
      return true;
    }
    stash_shells(ctx, new_leaf, sibling, internal);
    if (r == 2) return false;  // key present (decided inside the transaction)
    return slow();
  }

  template <class Slow>
  bool remove_pto1(ThreadCtx& ctx, std::int64_t key, Slow&& slow) {
    Node* removed_p = nullptr;
    Node* removed_l = nullptr;
    std::uintptr_t displaced_gp = 0, displaced_p = 0;
    // Plain reads in the attempt: pinned as in insert_pto1.
    std::optional<typename EpochDomain<P>::Guard> pin;
    if (!P::strongly_atomic()) pin.emplace(ctx.epoch);
    // 1 = removed, 2 = key absent, 0 = fell back.
    int r = prefix<P>(
        pto1_policy_,
        [&]() -> int {
          Node* gp = nullptr;
          Node* p = nullptr;
          Node* l = root_;
          // pto-lint: bounded(tree height; leaf reached in <= depth steps)
          while (!l->leaf) {
            gp = p;
            p = l;
            l = (key < p->key ? p->left : p->right)
                    .load(std::memory_order_relaxed);
          }
          if (l->key != key) return 2;
          std::uintptr_t gpu = gp->update.load(std::memory_order_relaxed);
          std::uintptr_t pu = p->update.load(std::memory_order_relaxed);
          if (state_of(gpu) != kClean || state_of(pu) != kClean) {
            P::template tx_abort<TX_CODE_HELPING>();
          }
          Node* pl = p->left.load(std::memory_order_relaxed);
          Node* other =
              (pl == l) ? p->right.load(std::memory_order_relaxed) : pl;
          (p->key < gp->key ? gp->left : gp->right).store(other);
          // gp's child slot changed: invalidate stale CASes on gp.
          gp->update.store(fresh_clean_word());
          // Permanently poison the removed internal node with the static
          // dummy descriptor so stale fallback CASes on it must fail (§3.2).
          p->update.store(pack(&dummy_, kMark));
          displaced_gp = gpu;
          displaced_p = pu;
          removed_p = p;
          removed_l = l;
          return 1;
        },
        [&]() -> int { return 0; }, PTO_TELEMETRY_SITE("bst.remove.pto1"));
    if (r == 1) {
      retire_displaced(ctx, displaced_gp);
      retire_displaced(ctx, displaced_p);
      ctx.epoch.retire(removed_p);
      ctx.epoch.retire(removed_l);
      return true;
    }
    if (r == 2) return false;
    return slow();
  }

  // -- PTO2: transactional update phase after a plain search (paper §4.4) ------

  bool insert_pto2(ThreadCtx& ctx, std::int64_t key, PrefixPolicy pol) {
    typename EpochDomain<P>::Guard g(ctx.epoch);
    Node* new_leaf = nullptr;
    Node* sibling = nullptr;
    Node* internal = nullptr;
    for (int a = 0; a < pol.attempts; ++a) {
      Search s = search(key);
      if (s.l->key == key) {
        if (new_leaf != nullptr) stash_shells(ctx, new_leaf, sibling, internal);
        return false;
      }
      if (state_of(s.pupdate) != kClean) {
        help(ctx, s.pupdate);
        continue;
      }
      if (new_leaf == nullptr) {
        take_shells(ctx, key, new_leaf, sibling, internal);
      }
      int r = prefix<P>(
          1,
          [&]() -> int {
            if (s.p->update.load(std::memory_order_relaxed) != s.pupdate) {
              P::template tx_abort<TX_CODE_VALIDATION>();
            }
            auto& slot = key < s.p->key ? s.p->left : s.p->right;
            if (slot.load(std::memory_order_relaxed) != s.l) {
              P::template tx_abort<TX_CODE_VALIDATION>();
            }
            sibling->key = s.l->key;
            if (key < s.l->key) {
              internal->key = s.l->key;
              internal->left.store(new_leaf, std::memory_order_relaxed);
              internal->right.store(sibling, std::memory_order_relaxed);
            } else {
              internal->key = key;
              internal->left.store(sibling, std::memory_order_relaxed);
              internal->right.store(new_leaf, std::memory_order_relaxed);
            }
            slot.store(internal);
            // p's child slot changed: invalidate stale CASes on p.
            s.p->update.store(fresh_clean_word());
            return 1;
          },
          [&]() -> int { return 0; }, PTO_TELEMETRY_SITE("bst.insert.pto2"));
      if (r == 1) {
        retire_displaced(ctx, s.pupdate);
        ctx.epoch.retire(s.l);
        return true;
      }
    }
    if (new_leaf != nullptr) stash_shells(ctx, new_leaf, sibling, internal);
    return insert_lf(ctx, key);
  }

  bool remove_pto2(ThreadCtx& ctx, std::int64_t key, PrefixPolicy pol) {
    typename EpochDomain<P>::Guard g(ctx.epoch);
    for (int a = 0; a < pol.attempts; ++a) {
      Search s = search(key);
      if (s.l->key != key) return false;
      if (state_of(s.gpupdate) != kClean) {
        help(ctx, s.gpupdate);
        continue;
      }
      if (state_of(s.pupdate) != kClean) {
        help(ctx, s.pupdate);
        continue;
      }
      int r = prefix<P>(
          1,
          [&]() -> int {
            if (s.gp->update.load(std::memory_order_relaxed) != s.gpupdate ||
                s.p->update.load(std::memory_order_relaxed) != s.pupdate) {
              P::template tx_abort<TX_CODE_VALIDATION>();
            }
            auto& gslot = s.p->key < s.gp->key ? s.gp->left : s.gp->right;
            if (gslot.load(std::memory_order_relaxed) != s.p) {
              P::template tx_abort<TX_CODE_VALIDATION>();
            }
            auto& pslot = key < s.p->key ? s.p->left : s.p->right;
            if (pslot.load(std::memory_order_relaxed) != s.l) {
              P::template tx_abort<TX_CODE_VALIDATION>();
            }
            Node* pl = s.p->left.load(std::memory_order_relaxed);
            Node* other =
                (pl == s.l) ? s.p->right.load(std::memory_order_relaxed) : pl;
            gslot.store(other);
            // gp's child slot changed: invalidate stale CASes on gp.
            s.gp->update.store(fresh_clean_word());
            s.p->update.store(pack(&dummy_, kMark));
            return 1;
          },
          [&]() -> int { return 0; }, PTO_TELEMETRY_SITE("bst.remove.pto2"));
      if (r == 1) {
        retire_displaced(ctx, s.gpupdate);
        retire_displaced(ctx, s.pupdate);
        ctx.epoch.retire(s.p);
        ctx.epoch.retire(s.l);
        return true;
      }
    }
    return remove_lf(ctx, key);
  }

  bool check_rec(Node* n, std::int64_t lo, std::int64_t hi,
                 std::int64_t& last) {
    if (n->leaf) {
      if (n->key < lo || n->key > hi) return false;
      if (n->key != kInf1 && n->key != kInf2) {
        if (n->key <= last) return false;
        last = n->key;
      }
      return true;
    }
    if (state_of(n->update.load(std::memory_order_relaxed)) == kMark) {
      return false;  // a marked node must be unreachable at quiescence
    }
    return check_rec(n->left.load(std::memory_order_relaxed), lo,
                     n->key, last) &&
           check_rec(n->right.load(std::memory_order_relaxed), n->key, hi,
                     last);
  }

  std::size_t count_user_leaves(Node* n) {
    if (n->leaf) return (n->key < kInf1) ? 1u : 0u;
    return count_user_leaves(n->left.load(std::memory_order_relaxed)) +
           count_user_leaves(n->right.load(std::memory_order_relaxed));
  }

  EpochDomain<P> dom_;
  Node* root_;
  PrefixPolicy pto1_policy_ = kPto1Policy;
  PrefixPolicy pto2_policy_ = kPto2Policy;
  Info dummy_{};  ///< shared sentinel descriptor for PTO removals (§3.2)
};

}  // namespace pto
