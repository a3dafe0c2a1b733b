// Per-phase arena (bump) allocator.
//
// A simulated phase creates and retires millions of short-lived runtime
// objects — suspended-thread queue entries, ready lists, scheduler
// bookkeeping — whose lifetimes all end when the phase's engines are torn
// down. Arena carves them out of reusable chunks: allocation is a pointer
// bump, and reset() recycles every chunk for the next phase instead of
// returning pages to the heap. PhaseRunner owns one arena, resets it between
// phases, and hands it to the engines it builds; the engines back their
// queues with ArenaAllocator.
//
// recycle() feeds freed blocks into per-size free lists (threaded through
// the freed memory itself), so deque-style containers that allocate and
// free fixed-size node blocks all phase long reuse the same few blocks
// instead of bumping fresh memory per node — arena footprint tracks *peak*
// container size, not total throughput.
//
// Invariant (enforced by usage, asserted in PhaseRunner): reset() may only
// run when no container built on this arena is alive.
//
// ReturnPool layers cross-thread release on top: one owner thread
// allocates, any thread may free (see below).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "support/assert.h"

namespace dpa {

class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  void* allocate(std::size_t bytes, std::size_t align) {
    DPA_DCHECK(align != 0 && (align & (align - 1)) == 0)
        << "alignment must be a power of two";
    bytes_requested_ += bytes;
    if (bytes >= sizeof(void*)) {
      for (Bucket& b : free_) {
        // Reuse only if the block also satisfies this request's alignment
        // (same-size blocks from differently-aligned types are rare).
        if (b.bytes == bytes && b.head != nullptr &&
            (reinterpret_cast<std::uintptr_t>(b.head) & (align - 1)) == 0) {
          void* p = b.head;
          b.head = *static_cast<void**>(p);
          return p;
        }
      }
    }
    while (cur_ < chunks_.size()) {
      if (void* p = chunk_alloc(chunks_[cur_], bytes, align)) return p;
      // This chunk is exhausted for a request of this size; move on (its
      // tail is wasted until the next reset).
      ++cur_;
    }
    const std::size_t size =
        bytes + align > chunk_bytes_ ? bytes + align : chunk_bytes_;
    chunks_.push_back(Chunk{std::make_unique<std::byte[]>(size), size, 0});
    cur_ = chunks_.size() - 1;
    void* p = chunk_alloc(chunks_.back(), bytes, align);
    DPA_DCHECK(p != nullptr);
    return p;
  }

  // Returns a block previously handed out by allocate(bytes, ...) to a
  // per-size free list. Blocks too small or insufficiently aligned to hold
  // the intrusive next-pointer are simply abandoned until reset().
  void recycle(void* p, std::size_t bytes) {
    if (p == nullptr || bytes < sizeof(void*)) return;
    if ((reinterpret_cast<std::uintptr_t>(p) & (alignof(void*) - 1)) != 0)
      return;
    for (Bucket& b : free_) {
      if (b.bytes == bytes) {
        *static_cast<void**>(p) = b.head;
        b.head = p;
        return;
      }
    }
    *static_cast<void**>(p) = nullptr;
    free_.push_back(Bucket{bytes, p});
  }

  // Recycles every chunk. All objects previously allocated from this arena
  // must already be dead.
  void reset() {
    for (Chunk& c : chunks_) c.used = 0;
    free_.clear();
    cur_ = 0;
    bytes_requested_ = 0;
  }

  std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }
  std::size_t bytes_requested() const { return bytes_requested_; }
  std::size_t num_chunks() const { return chunks_.size(); }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  static std::size_t align_up(std::size_t v, std::size_t align) {
    return (v + align - 1) & ~(align - 1);
  }

  // Bump-allocates from `c`, aligning relative to the chunk's base address;
  // null if the chunk cannot fit the request.
  static void* chunk_alloc(Chunk& c, std::size_t bytes, std::size_t align) {
    const auto base = reinterpret_cast<std::uintptr_t>(c.data.get());
    const std::size_t at = align_up(base + c.used, align) - base;
    if (at + bytes > c.size) return nullptr;
    c.used = at + bytes;
    return c.data.get() + at;
  }

  // Free list of recycled blocks of one exact size, threaded through the
  // blocks themselves. The set of distinct sizes is tiny in practice (deque
  // node blocks plus a few map arrays), so linear search is fine.
  struct Bucket {
    std::size_t bytes = 0;
    void* head = nullptr;
  };

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::vector<Bucket> free_;
  std::size_t cur_ = 0;
  std::size_t bytes_requested_ = 0;
};

// A size-classed block pool over an Arena whose blocks may be recycled from
// any thread. Wire payloads are allocated by the sending node's engine but
// freed wherever their last reference drops: on the receiving node's worker
// thread, or (staged accumulations) at the receiver's phase barrier. Only
// the owner — the one thread running the node at a time — allocates; a
// recycled block is pushed onto its class's lock-free return stack, and the
// owner takes a whole stack back with one exchange when its private free
// list runs dry. That pop-all is the stack's only pop, so there is no ABA
// problem, and a phase's messages keep reusing the few blocks that were
// ever live at once.
//
// Sizes round up to kGranule bytes; each class holds one rounded size.
// Requests above kMaxBlock bypass the pool (plain operator new/delete).
// reset() may only run when every block is back and no recycle() is in
// flight; it forgets the free lists, and the arena's own reset() reclaims
// the memory.
class ReturnPool {
 public:
  static constexpr std::size_t kGranule = 16;
  static constexpr std::size_t kMaxBlock = 1024;

  explicit ReturnPool(Arena& arena) : arena_(arena) {}

  ReturnPool(const ReturnPool&) = delete;
  ReturnPool& operator=(const ReturnPool&) = delete;

  // Owner thread only.
  void* allocate(std::size_t bytes, std::size_t align) {
    DPA_CHECK(align <= kGranule) << "ReturnPool blocks are 16-byte aligned";
    if (bytes > kMaxBlock) return ::operator new(bytes);
    const std::size_t c = size_class(bytes);
    void*& head = free_[c];
    if (head == nullptr)
      head = returned_[c].exchange(nullptr, std::memory_order_acquire);
    if (head == nullptr) return arena_.allocate((c + 1) * kGranule, kGranule);
    void* p = head;
    head = *static_cast<void**>(p);
    return p;
  }

  // Any thread. `bytes` is the size the block was allocated with.
  void recycle(void* p, std::size_t bytes) noexcept {
    if (bytes > kMaxBlock) {
      ::operator delete(p);
      return;
    }
    std::atomic<void*>& head = returned_[size_class(bytes)];
    void* old = head.load(std::memory_order_relaxed);
    do {
      *static_cast<void**>(p) = old;
    } while (!head.compare_exchange_weak(old, p, std::memory_order_release,
                                         std::memory_order_relaxed));
  }

  void reset() {
    free_.fill(nullptr);
    for (std::atomic<void*>& head : returned_)
      head.store(nullptr, std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kClasses = kMaxBlock / kGranule;
  static std::size_t size_class(std::size_t bytes) {
    return bytes == 0 ? 0 : (bytes - 1) / kGranule;
  }

  Arena& arena_;
  std::array<void*, kClasses> free_{};  // owner-only
  // Kept apart from free_, so remote pushes do not bounce the cache lines
  // the owner allocates from.
  alignas(64) std::array<std::atomic<void*>, kClasses> returned_{};
};

// Standard-allocator adapter over an Arena (or a ReturnPool) for STL
// containers and allocate_shared. Deallocation recycles the block into the
// pool's free lists; memory is reclaimed wholesale by Arena::reset().
template <class T, class Pool = Arena>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Pool* pool) : pool_(pool) {}

  template <class U>
  ArenaAllocator(const ArenaAllocator<U, Pool>& other) : pool_(other.pool()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(pool_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T* p, std::size_t n) { pool_->recycle(p, n * sizeof(T)); }

  Pool* pool() const { return pool_; }

  template <class U>
  bool operator==(const ArenaAllocator<U, Pool>& o) const {
    return pool_ == o.pool();
  }
  template <class U>
  bool operator!=(const ArenaAllocator<U, Pool>& o) const {
    return pool_ != o.pool();
  }

 private:
  Pool* pool_;
};

}  // namespace dpa
