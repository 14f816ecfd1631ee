#include "epoch/local_epoch_manager.hpp"

#include "util/check.hpp"

namespace pgasnb {

// ---------------------------------------------------------------------------
// LocalEpochToken
// ---------------------------------------------------------------------------

LocalEpochToken& LocalEpochToken::operator=(LocalEpochToken&& other) noexcept {
  reset();
  manager_ = other.manager_;
  token_ = other.token_;
  other.token_ = nullptr;
  other.manager_ = nullptr;
  return *this;
}

void LocalEpochToken::pin() {
  PGASNB_CHECK_MSG(token_ != nullptr, "pin() on an invalid guard");
  manager_->pin(token_);
}

void LocalEpochToken::unpin() noexcept {
  // No-op on an invalid (released/moved-from) token: it is already
  // quiescent, and EpochToken behaves the same way.
  if (token_ == nullptr) return;
  token_->local_epoch.store(kEpochQuiescent, std::memory_order_seq_cst);
}

void LocalEpochToken::deferDeleteRaw(void* obj, ObjectDeleter deleter) {
  PGASNB_CHECK_MSG(token_ != nullptr, "retire() on an invalid guard");
  manager_->deferDelete(token_, obj, deleter);
}

bool LocalEpochToken::tryReclaim() {
  // Invalid token: nothing to reclaim through (mirrors unpin's hardening).
  if (manager_ == nullptr) return false;
  return manager_->tryReclaim();
}

void LocalEpochToken::reset() {
  if (token_ == nullptr) return;
  unpin();
  manager_->tokens_.release(token_);
  token_ = nullptr;
  manager_ = nullptr;
}

// ---------------------------------------------------------------------------
// LocalEpochManager
// ---------------------------------------------------------------------------

void LocalEpochManager::pin(Token* token) noexcept {
  if (token->pinned()) return;
  // Re-validating pin: identical hardening to the distributed manager.
  std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
  token->local_epoch.store(e, std::memory_order_seq_cst);
  std::uint64_t current;
  while ((current = epoch_.load(std::memory_order_seq_cst)) != e) {
    e = current;
    token->local_epoch.store(e, std::memory_order_seq_cst);
  }
}

void LocalEpochManager::deferDelete(Token* token, void* obj,
                                    ObjectDeleter deleter) {
  const std::uint64_t e = token->local_epoch.load(std::memory_order_seq_cst);
  PGASNB_CHECK_MSG(e != kEpochQuiescent,
                   "deferDelete requires a pinned token");
  LimboNode* node = node_pool_.acquire(obj, deleter);
  limbo_[limboIndexFor(e)].push(node);
  const std::uint64_t deferred =
      deferred_.fetch_add(1, std::memory_order_relaxed) + 1;
  detail::raiseMax(max_pending_,
                   deferred - reclaimed_.load(std::memory_order_relaxed));
}

std::uint64_t LocalEpochManager::reclaimList(std::uint32_t index) {
  LimboNode* node = limbo_[index].popAll();
  std::uint64_t count = 0;
  while (node != nullptr) {
    LimboNode* next = LimboList::next(node);
    node->deleter(node->obj);
    node_pool_.release(node);
    node = next;
    ++count;
  }
  reclaimed_.fetch_add(count, std::memory_order_relaxed);
  return count;
}

bool LocalEpochManager::tryReclaim() {
  // Single-flag FCFS election (no global epoch to contend for).
  if (is_setting_epoch_.exchange(1, std::memory_order_seq_cst) != 0) {
    elections_lost_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  const std::uint64_t this_epoch = epoch_.load(std::memory_order_seq_cst);
  bool safe = true;
  for (Token* t = tokens_.allocatedHead(); t != nullptr;
       t = t->next_allocated) {
    const std::uint64_t e = t->local_epoch.load(std::memory_order_seq_cst);
    if (e != kEpochQuiescent && e != this_epoch) {
      safe = false;
      break;
    }
  }

  bool advanced = false;
  if (safe) {
    const std::uint64_t new_epoch = nextEpoch(this_epoch);
    epoch_.store(new_epoch, std::memory_order_seq_cst);
    advances_.fetch_add(1, std::memory_order_relaxed);
    reclaimList(reclaimIndexFor(new_epoch));
    advanced = true;
  } else {
    scans_unsafe_.fetch_add(1, std::memory_order_relaxed);
  }

  is_setting_epoch_.store(0, std::memory_order_seq_cst);
  return advanced;
}

void LocalEpochManager::clear() {
  for (std::uint32_t index = 0; index < kNumEpochs; ++index) {
    reclaimList(index);
  }
}

ReclaimStats LocalEpochManager::stats() const {
  ReclaimStats s;
  s.deferred = deferred_.load(std::memory_order_relaxed);
  s.reclaimed = reclaimed_.load(std::memory_order_relaxed);
  s.advances = advances_.load(std::memory_order_relaxed);
  // A local domain has only the one locale-local election.
  s.elections_lost_local = elections_lost_.load(std::memory_order_relaxed);
  s.scans_unsafe = scans_unsafe_.load(std::memory_order_relaxed);
  s.max_pending = max_pending_.load(std::memory_order_relaxed);
  return s;
}

void LocalEpochManager::resetStats() {
  deferred_.store(0, std::memory_order_relaxed);
  reclaimed_.store(0, std::memory_order_relaxed);
  advances_.store(0, std::memory_order_relaxed);
  elections_lost_.store(0, std::memory_order_relaxed);
  scans_unsafe_.store(0, std::memory_order_relaxed);
  max_pending_.store(0, std::memory_order_relaxed);
}

}  // namespace pgasnb
